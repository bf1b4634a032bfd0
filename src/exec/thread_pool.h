// crp::exec — deterministic work scheduling for the analysis funnels.
//
// The paper's two big costs are embarrassingly parallel over independent
// inputs: the per-filter symbolic-execution + SAT funnel (6,745 handlers →
// 808 AV-capable filters, Tables II/III) and the per-API fuzzing funnel
// (20,672 → 400, §V-B). This module shards such sweeps across a fixed-size
// worker pool while keeping every funnel number bit-identical to the serial
// run.
//
// Determinism contract (see DESIGN.md §"Parallel execution"):
//   * results are merged in *input order* — parallel_map(items, fn) returns
//     exactly what the serial loop would have produced;
//   * anything random inside a task derives its seed from the task *index*
//     (task_seed), never from thread identity or scheduling order;
//   * tasks share nothing mutable: per-task state (symex::Ctx, scratch
//     os::Kernel, ...) is created inside the task. Shared observability
//     sinks (obs::Registry counters, obs::Journal) are thread-safe.
//
// Worker-count resolution: an explicit `jobs` argument wins, then the
// CRP_JOBS environment variable, then std::thread::hardware_concurrency().
// The calling thread participates in every batch, so a pool of 1 spawns no
// threads at all and degenerates to the plain serial loop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "chaos/chaos.h"
#include "obs/prof.h"
#include "util/common.h"

namespace crp::obs {
class Counter;
class Histogram;
}  // namespace crp::obs

namespace crp::exec {

/// Resolve a worker count: `jobs` > 0 wins; else a positive integer in
/// $CRP_JOBS; else std::thread::hardware_concurrency() (min 1).
int resolve_jobs(int jobs = 0);

/// Deterministic per-task seed: a splitmix64 mix of `base_seed` and the task
/// index. Never derive task randomness from thread identity — two runs with
/// different job counts must draw identical streams for task `index`.
u64 task_seed(u64 base_seed, u64 index);

/// Fixed-size worker pool executing one index-sharded batch at a time.
///
/// Publishes `analysis.pool.tasks` (tasks executed) and
/// `analysis.pool.steal_ns` (per-wake time a worker spent waiting to acquire
/// work) to the global registry, plus one journal span per task.
class ThreadPool {
 public:
  /// `jobs` as for resolve_jobs(). The pool spawns jobs-1 worker threads;
  /// the caller of for_each_index is the remaining worker.
  explicit ThreadPool(int jobs = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers, caller included (>= 1).
  int jobs() const { return jobs_; }

  /// Run fn(i) for every i in [0, n). Tasks are claimed from a shared atomic
  /// index; the call returns when all n tasks completed. `label` names the
  /// per-task journal spans. One batch at a time per pool.
  void for_each_index(u64 n, const std::function<void(u64)>& fn,
                      const char* label = "task");

 private:
  void worker_loop();
  /// Claim and run tasks of the current batch until the index is exhausted.
  void drain(const std::function<void(u64)>& fn, u64 n, const char* label);

  int jobs_;
  std::vector<std::thread> workers_;

  // Chaos state of the current batch (set under mu_ in for_each_index
  // before workers wake; read by drain). When fault injection is off,
  // chaos_on_ stays false and drain pays a single branch per task.
  bool chaos_on_ = false;
  u64 chaos_batch_salt_ = 0;
  // The issuer's thread-local plan override and event recorder, installed
  // around every task so a ScopedPlan covers work on pool workers too.
  chaos::ThreadPlan chaos_thread_plan_{};
  // Profiler context of the batch issuer, re-entered around every task so
  // samples taken inside worker threads inherit the issuing stage/target
  // (the verify step's machines must not sample as context-less).
  obs::ProfContext prof_batch_ctx_{};
  // Non-empty: claim i executes task chaos_order_[i] (a seeded permutation;
  // merged output must be unchanged — the kTaskOrder invariant).
  std::vector<u64> chaos_order_;

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  // Current batch (guarded by mu_; next_/done_ are the hot task cursors).
  const std::function<void(u64)>* fn_ = nullptr;
  const char* label_ = "task";
  u64 batch_n_ = 0;
  u64 generation_ = 0;
  // Workers currently inside drain() (guarded by mu_). for_each_index waits
  // for this to hit zero before releasing the batch: a worker looping back
  // to claim another index must never observe the *next* batch's cursor.
  int active_ = 0;
  bool stop_ = false;
  std::atomic<u64> next_{0};
  std::atomic<u64> done_{0};

  obs::Counter* c_tasks_;
  obs::Histogram* h_steal_ns_;
};

/// Apply `fn(index, item)` to every item, sharded across the pool, and
/// return the results in input order. The output is identical for any job
/// count (the determinism contract above).
template <typename T, typename Fn>
auto parallel_map(ThreadPool& pool, const std::vector<T>& items, Fn&& fn,
                  const char* label = "task") {
  using R = std::invoke_result_t<Fn&, size_t, const T&>;
  static_assert(std::is_default_constructible_v<R>,
                "parallel_map results are materialized into a pre-sized vector");
  std::vector<R> out(items.size());
  pool.for_each_index(
      items.size(),
      [&](u64 i) { out[static_cast<size_t>(i)] = fn(static_cast<size_t>(i), items[static_cast<size_t>(i)]); },
      label);
  return out;
}

}  // namespace crp::exec
