#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>

#include "chaos/chaos.h"
#include "obs/journal.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace crp::exec {

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  if (const char* env = std::getenv("CRP_JOBS")) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

u64 task_seed(u64 base_seed, u64 index) { return chaos::mix64(base_seed, index); }

void for_each_index(int jobs, u64 n, const std::function<void(u64)>& fn,
                    const char* label) {
  if (n == 0) return;
  // Chaos bookkeeping happens on the caller thread, in program order, so
  // batch salts (and therefore every stream salt derived inside tasks) are
  // identical at any job count.
  const bool chaos_on = chaos::active();
  u64 batch_salt = 0;
  // Non-empty: claim i executes task order[i] (a seeded permutation; merged
  // output must be unchanged — the kTaskOrder invariant).
  std::vector<u64> order;
  if (chaos_on) {
    batch_salt = chaos::next_batch_salt();
    chaos::FaultStream stream = chaos::make_stream(chaos::point_bit(chaos::Point::kTaskOrder));
    if (stream.fire(chaos::Point::kTaskOrder)) {
      order.resize(n);
      std::iota(order.begin(), order.end(), 0);
      Rng rng(stream.draw(chaos::Point::kTaskOrder));
      rng.shuffle(order);
    }
  }
  // The issuer's thread-local plan override, event recorder and profiler
  // context, re-entered around every task: a ScopedPlan covers work on
  // helper threads too, and samples taken there keep the issuing
  // stage/target (the verify step's machines must not sample context-less).
  const chaos::ThreadPlan plan = chaos::thread_plan();
  const obs::ProfContext prof = obs::Profiler::context();
  obs::Counter& tasks = obs::Registry::global().counter("analysis.pool.tasks");

  std::atomic<u64> next{0};
  std::mutex error_mu;
  std::exception_ptr error;  // first task exception, rethrown on the caller
  auto drain = [&] {
    try {
      for (u64 i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
        // The task's chaos salt follows the *task* index, so per-item
        // injection streams are identical whether or not the order was
        // shuffled.
        const u64 task = order.empty() ? i : order[i];
        // Trace lane derived from the task id, never from thread identity:
        // spans from two runs of the same batch land on the same lane at
        // any job count, so Chrome traces diff cleanly across runs.
        const u32 lane = 1 + static_cast<u32>(task % obs::kJournalTaskLanes);
        const u64 t0 = obs::trace_now_ns();
        {
          obs::ScopedJournalLane lane_scope(lane);
          obs::ScopedProfContext prof_scope(prof);
          if (chaos_on) {
            chaos::ScopedThreadPlan plan_scope(plan);
            chaos::TaskScope scope(task_seed(batch_salt, task));
            fn(task);
          } else {
            fn(task);
          }
        }
        obs::Journal::global().span(label, "exec", t0 / 1000,
                                    (obs::trace_now_ns() - t0) / 1000, lane, "task",
                                    static_cast<i64>(task));
        tasks.inc();
      }
    } catch (...) {
      next.store(n, std::memory_order_relaxed);  // no further claims
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };

  const u64 n_helpers = std::min<u64>(static_cast<u64>(resolve_jobs(jobs)), n) - 1;
  std::vector<std::thread> helpers;
  helpers.reserve(n_helpers);
  for (u64 h = 0; h < n_helpers; ++h) helpers.emplace_back(drain);
  drain();  // the caller is a worker too
  for (std::thread& t : helpers) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace crp::exec
