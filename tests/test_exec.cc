// crp::exec thread pool: worker-count resolution, per-task seeding, the
// determinism contract (input-order merge, job-count independence) and a
// ScopedPlan reaching worker tasks. The hammer tests double as the TSan
// workload for the pool (see ci.yml).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

#include "chaos/chaos.h"
#include "exec/thread_pool.h"
#include "obs/journal.h"
#include "obs/obs.h"

namespace crp::exec {
namespace {

TEST(ResolveJobs, ExplicitArgumentWins) {
  ::setenv("CRP_JOBS", "7", 1);
  EXPECT_EQ(resolve_jobs(3), 3);
  ::unsetenv("CRP_JOBS");
}

TEST(ResolveJobs, EnvOverridesHardware) {
  ::setenv("CRP_JOBS", "5", 1);
  EXPECT_EQ(resolve_jobs(), 5);
  ::setenv("CRP_JOBS", "0", 1);  // non-positive env values fall through
  EXPECT_GE(resolve_jobs(), 1);
  ::setenv("CRP_JOBS", "garbage", 1);
  EXPECT_GE(resolve_jobs(), 1);
  ::unsetenv("CRP_JOBS");
}

TEST(ResolveJobs, DefaultsToAtLeastOne) {
  ::unsetenv("CRP_JOBS");
  EXPECT_GE(resolve_jobs(), 1);
}

TEST(TaskSeed, DeterministicAndIndexSensitive) {
  EXPECT_EQ(task_seed(0x1234, 7), task_seed(0x1234, 7));
  EXPECT_NE(task_seed(0x1234, 7), task_seed(0x1234, 8));
  EXPECT_NE(task_seed(0x1234, 7), task_seed(0x1235, 7));
  // Index 0 must not collapse onto the base seed.
  EXPECT_NE(task_seed(0x1234, 0), 0x1234ull);
}

TEST(ThreadPool, SerialPoolRunsOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.jobs(), 1);
  std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  pool.for_each_index(64, [&](u64) {
    if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
  });
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ThreadPool, EmptyBatchIsNoop) {
  ThreadPool pool(4);
  int calls = 0;
  pool.for_each_index(0, [&](u64) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(501);
  pool.for_each_index(hits.size(), [&](u64 i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, TasksMetricCounts) {
  obs::Counter& c = obs::Registry::global().counter("analysis.pool.tasks");
  u64 before = c.value();
  ThreadPool pool(2);
  pool.for_each_index(37, [](u64) {});
  EXPECT_EQ(c.value(), before + 37);
}

TEST(ParallelMap, InputOrderPreserved) {
  ThreadPool pool(4);
  std::vector<int> items(200);
  std::iota(items.begin(), items.end(), 0);
  auto out = parallel_map(pool, items, [](size_t i, const int& v) {
    return static_cast<int>(i) * 1000 + v;
  });
  ASSERT_EQ(out.size(), items.size());
  for (size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i) * 1000 + items[i]);
}

TEST(ParallelMap, JobCountDoesNotChangeResults) {
  std::vector<u64> items(300);
  std::iota(items.begin(), items.end(), 11);
  auto run = [&](int jobs) {
    ThreadPool pool(jobs);
    return parallel_map(pool, items, [](size_t i, const u64& v) {
      // Task-index seeding: identical streams regardless of which thread
      // runs the task.
      return task_seed(v, i);
    });
  };
  auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, run(9));
}

TEST(ThreadPool, ReusedAcrossManySmallBatches) {
  // Regression for batch-reuse races: a worker looping back for one more
  // claim must never observe the next batch's cursor. Many tiny batches
  // back-to-back maximize the window.
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<u64> sum{0};
    u64 n = 1 + static_cast<u64>(round % 7);
    pool.for_each_index(n, [&](u64 i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "round " << round;
  }
}

TEST(ThreadPool, JournalLanesFollowTaskIdsNotThreads) {
  // Chrome-trace determinism: a task's spans land on lane 1 + task % 16 at
  // ANY job count, so traces from different runs nest and diff identically.
  auto lanes_for = [](int jobs) {
    obs::Journal& j = obs::Journal::global();
    j.clear();
    ThreadPool pool(jobs);
    pool.for_each_index(40, [](u64) {}, "lane-test");
    std::map<i64, u32> task_to_tid;
    for (const obs::TraceEvent& e : j.events())
      if (e.name == "lane-test") task_to_tid[e.arg] = e.tid;
    j.clear();
    return task_to_tid;
  };
  std::map<i64, u32> serial = lanes_for(1);
  ASSERT_EQ(serial.size(), 40u);
  for (const auto& [task, tid] : serial)
    EXPECT_EQ(tid, 1u + static_cast<u32>(task) % obs::kJournalTaskLanes);
  EXPECT_EQ(serial, lanes_for(4));
  EXPECT_EQ(serial, lanes_for(8));
}

TEST(ThreadPool, NestedEventsAdoptTheTaskLane) {
  // An event emitted with tid == 0 from inside a task (e.g. an oracle probe
  // span) inherits the task's lane instead of collapsing onto lane 0.
  obs::Journal& j = obs::Journal::global();
  j.clear();
  ThreadPool pool(4);
  pool.for_each_index(8, [&](u64) {
    j.instant("nested", "test", 0);  // tid defaulted to 0
  });
  for (const obs::TraceEvent& e : j.events())
    if (e.name == "nested") {
      EXPECT_GE(e.tid, 1u);
      EXPECT_LE(e.tid, obs::kJournalTaskLanes);
    }
  j.clear();
}

TEST(ThreadPool, ScopedPlanReachesWorkerTasks) {
  // A ScopedPlan is thread-local. The pool must carry it and its recorder
  // into worker threads, or which faults fire depends on which thread ran
  // a task.
  auto run = [](int jobs) {
    chaos::FaultPlan plan;
    plan.seed = 11;
    plan.rate = 4;
    plan.points = chaos::kIoPoints;
    chaos::ScopedPlan scoped(plan);
    ThreadPool pool(jobs);
    std::mutex mu;
    std::vector<chaos::FaultEvent> fired;
    std::set<std::thread::id> threads;
    pool.for_each_index(32, [&](u64) {
      chaos::FaultStream s = chaos::make_stream(chaos::kIoPoints);
      std::vector<chaos::FaultEvent> mine;
      for (u64 k = 0; k < 16; ++k)
        if (s.fire(chaos::Point::kSysEintr))
          mine.push_back({s.salt(), k, chaos::Point::kSysEintr});
      std::this_thread::sleep_for(std::chrono::milliseconds(2));  // let workers claim
      std::lock_guard<std::mutex> lock(mu);
      fired.insert(fired.end(), mine.begin(), mine.end());
      threads.insert(std::this_thread::get_id());
    });
    std::sort(fired.begin(), fired.end());
    EXPECT_EQ(scoped.events(), fired) << "jobs=" << jobs;
    if (jobs > 1) EXPECT_GT(threads.size(), 1u) << "no task ran on a worker";
    return fired;
  };
  std::vector<chaos::FaultEvent> serial = run(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(run(4), serial);
}

TEST(ThreadPool, ConcurrentMetricHammer) {
  // TSan workload: tasks hammer shared observability sinks from every worker.
  obs::Counter& c = obs::Registry::global().counter("test.exec.hammer");
  obs::Histogram& h = obs::Registry::global().histogram("test.exec.hammer_ns");
  u64 before = c.value();
  ThreadPool pool(8);
  pool.for_each_index(2000, [&](u64 i) {
    c.inc();
    h.record(i % 97);
  });
  EXPECT_EQ(c.value(), before + 2000);
}

}  // namespace
}  // namespace crp::exec
