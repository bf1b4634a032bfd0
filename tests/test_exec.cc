// crp::exec fork-join batches: worker-count resolution, per-task seeding,
// the determinism contract (input-order merge, job-count independence, also
// for nested batches) and a ScopedPlan reaching helper-thread tasks. The
// hammer tests double as the TSan workload for exec (see ci.yml).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

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
  std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  for_each_index(1, 64, [&](u64) {
    if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
  });
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ThreadPool, EmptyBatchIsNoop) {
  int calls = 0;
  for_each_index(4, 0, [&](u64) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  std::vector<std::atomic<int>> hits(501);
  for_each_index(4, hits.size(), [&](u64 i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, TasksMetricCounts) {
  obs::Counter& c = obs::Registry::global().counter("analysis.pool.tasks");
  u64 before = c.value();
  for_each_index(2, 37, [](u64) {});
  EXPECT_EQ(c.value(), before + 37);
}

TEST(ParallelMap, InputOrderPreserved) {
  std::vector<int> items(200);
  std::iota(items.begin(), items.end(), 0);
  auto out = parallel_map(4, items, [](size_t i, const int& v) {
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
    return parallel_map(jobs, items, [](size_t i, const u64& v) {
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

TEST(ParallelMap, NestedBatchesAreDeterministic) {
  // A task may issue a batch of its own (the chaosrun sweep's cells reach
  // the verify step's batch). The inner batch takes its salts from the outer
  // task's context, so results and fired events match at any job count,
  // task-order perturbation of both levels included.
  auto run = [](int jobs) {
    chaos::FaultPlan plan;
    plan.seed = 19;
    plan.rate = 3;
    plan.points = chaos::kIoPoints | chaos::point_bit(chaos::Point::kTaskOrder);
    chaos::ScopedPlan scoped(plan);
    std::vector<int> outer(6), inner(5);
    auto out = parallel_map(jobs, outer, [&](size_t, const int&) {
      return parallel_map(jobs, inner, [](size_t, const int&) {
        chaos::FaultStream s = chaos::make_stream(chaos::kIoPoints);
        u64 acc = 0;
        for (int k = 0; k < 32; ++k)
          if (s.fire(chaos::Point::kSysEintr)) acc |= 1ull << k;
        return acc ^ s.draw(chaos::Point::kShortRead);
      });
    });
    return std::pair{out, scoped.events()};
  };
  auto serial = run(1);
  const std::vector<chaos::FaultEvent>& events = serial.second;
  EXPECT_TRUE(std::any_of(events.begin(), events.end(), [](const chaos::FaultEvent& e) {
    return e.point == chaos::Point::kTaskOrder;
  })) << "no batch was perturbed";
  EXPECT_TRUE(std::any_of(events.begin(), events.end(), [](const chaos::FaultEvent& e) {
    return e.point == chaos::Point::kSysEintr;
  })) << "no task fired";
  EXPECT_EQ(run(3), serial);
  EXPECT_EQ(run(4), serial);
}

TEST(ForEachIndex, TaskExceptionIsRethrownOnCaller) {
  // The exception reaches the caller after every helper joined, whichever
  // thread ran the task; serially, no task after the throwing one runs.
  for (int jobs : {1, 4}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(for_each_index(jobs, 64,
                                [&](u64 i) {
                                  ran.fetch_add(1);
                                  if (i == 7) throw std::runtime_error("task 7");
                                }),
                 std::runtime_error)
        << "jobs=" << jobs;
    if (jobs == 1) {
      EXPECT_EQ(ran.load(), 8);
    }
  }
}

TEST(ThreadPool, ReusedAcrossManySmallBatches) {
  // Many tiny batches back-to-back: each forks, drains and joins cleanly.
  for (int round = 0; round < 200; ++round) {
    std::atomic<u64> sum{0};
    u64 n = 1 + static_cast<u64>(round % 7);
    for_each_index(4, n, [&](u64 i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "round " << round;
  }
}

TEST(ThreadPool, JournalLanesFollowTaskIdsNotThreads) {
  // Chrome-trace determinism: a task's spans land on lane 1 + task % 16 at
  // ANY job count, so traces from different runs nest and diff identically.
  auto lanes_for = [](int jobs) {
    obs::Journal& j = obs::Journal::global();
    j.clear();
    for_each_index(jobs, 40, [](u64) {}, "lane-test");
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
  for_each_index(4, 8, [&](u64) {
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
  // A ScopedPlan is thread-local. A batch must carry it and its recorder
  // into helper threads, or which faults fire depends on which thread ran
  // a task.
  auto run = [](int jobs) {
    chaos::FaultPlan plan;
    plan.seed = 11;
    plan.rate = 4;
    plan.points = chaos::kIoPoints;
    chaos::ScopedPlan scoped(plan);
    std::mutex mu;
    std::vector<chaos::FaultEvent> fired;
    std::set<std::thread::id> threads;
    for_each_index(jobs, 32, [&](u64) {
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
  for_each_index(8, 2000, [&](u64 i) {
    c.inc();
    h.record(i % 97);
  });
  EXPECT_EQ(c.value(), before + 2000);
}

}  // namespace
}  // namespace crp::exec
