// crp::exec — deterministic work scheduling for the analysis funnels.
//
// The paper's two big costs are embarrassingly parallel over independent
// inputs: the per-filter symbolic-execution + SAT funnel (6,745 handlers →
// 808 AV-capable filters, Tables II/III) and the per-API fuzzing funnel
// (20,672 → 400, §V-B). This module shards such sweeps across worker
// threads while keeping every funnel number bit-identical to the serial
// run.
//
// Determinism contract (see DESIGN.md §"Parallel execution"):
//   * results are merged in *input order* — parallel_map(jobs, items, fn)
//     returns exactly what the serial loop would have produced;
//   * anything random inside a task derives its seed from the task *index*
//     (task_seed), never from thread identity or scheduling order;
//   * tasks share nothing mutable: per-task state (symex::Ctx, scratch
//     os::Kernel, ...) is created inside the task. Shared observability
//     sinks (obs::Registry counters, obs::Journal) are thread-safe.
//
// Every batch is fork-join: it starts min(jobs, n) - 1 helper threads,
// drains one shared task cursor together with the caller, and joins the
// helpers before it returns. A batch at jobs = 1 spawns no thread at all
// and degenerates to the plain serial loop. A task may issue a batch of its
// own; the nested batch forks and joins inside that task.
//
// Worker-count resolution: an explicit `jobs` argument wins, then the
// CRP_JOBS environment variable, then std::thread::hardware_concurrency().
#pragma once

#include <functional>
#include <type_traits>
#include <vector>

#include "util/common.h"

namespace crp::exec {

/// Resolve a worker count: `jobs` > 0 wins; else a positive integer in
/// $CRP_JOBS; else std::thread::hardware_concurrency() (min 1).
int resolve_jobs(int jobs = 0);

/// Deterministic per-task seed: chaos::mix64 of `base_seed` and the task
/// index. Never derive task randomness from thread identity — two runs with
/// different job counts must draw identical streams for task `index`.
u64 task_seed(u64 base_seed, u64 index);

/// Run fn(i) for every i in [0, n) on up to resolve_jobs(jobs) threads, the
/// caller included; returns when all n tasks completed. Tasks are claimed
/// from a shared atomic cursor. Each task runs under the caller's ScopedPlan,
/// profiler context and chaos::TaskScope(task_seed(batch salt, i)), on
/// journal lane 1 + i % obs::kJournalTaskLanes, inside a `label` span, and
/// counts once in `analysis.pool.tasks`. An exception from a task stops
/// further claims and is rethrown on the caller once every thread joined.
void for_each_index(int jobs, u64 n, const std::function<void(u64)>& fn,
                    const char* label = "task");

/// Apply `fn(index, item)` to every item, sharded as for_each_index, and
/// return the results in input order. The output is identical for any job
/// count (the determinism contract above).
template <typename T, typename Fn>
auto parallel_map(int jobs, const std::vector<T>& items, Fn&& fn,
                  const char* label = "task") {
  using R = std::invoke_result_t<Fn&, size_t, const T&>;
  static_assert(std::is_default_constructible_v<R>,
                "parallel_map results are materialized into a pre-sized vector");
  std::vector<R> out(items.size());
  for_each_index(
      jobs, items.size(),
      [&](u64 i) { out[static_cast<size_t>(i)] = fn(static_cast<size_t>(i), items[static_cast<size_t>(i)]); },
      label);
  return out;
}

}  // namespace crp::exec
