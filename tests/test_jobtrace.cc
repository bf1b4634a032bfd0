// crp::obs::JobTracer — the end-to-end job-trace layer: span determinism
// across worker counts, the archive bounds (per-job span budgets, lane
// eviction) and their drop accounting, and the JSON exports the daemon
// serves. (The stall watchdog reads the JobQueue's job records and
// is tested with the queue, in test_pipeline.)

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "obs/obs.h"
#include "obs/trace.h"
#include "pipeline/artifact_store.h"
#include "pipeline/job_queue.h"
#include "pipeline/registry.h"

namespace crp::obs {
namespace {

using pipeline::ArtifactStore;
using pipeline::JobQueue;
using pipeline::JobQueueOptions;
using pipeline::JobSpec;
using pipeline::JobState;

/// Scoped arm/clear so every test leaves the global tracer as the batch
/// paths expect it: disarmed and empty.
struct ArmedTracer {
  JobTracer& jt = JobTracer::global();
  ArmedTracer() {
    jt.clear();
    jt.set_armed(true);
  }
  ~ArmedTracer() {
    jt.set_armed(false);
    jt.clear();
  }
};

/// Span identity for determinism diffs: kind, label *name* (ids are
/// first-come), arg — per job, in drained (seq) order. Timestamps are
/// explicitly excluded; they are the only nondeterministic field.
using SpanId = std::tuple<std::string, std::string, u64>;

std::vector<SpanId> span_ids(JobTracer& jt, u64 trace) {
  std::vector<SpanId> out;
  for (const JobSpan& s : jt.spans_for(trace))
    out.emplace_back(span_kind_name(s.kind), jt.name_of(s.label), s.arg);
  return out;
}

/// Drive one traced discovery job to completion at `workers` and return
/// its span identities. Fresh store + queue per run so the cache state a
/// job observes is identical across runs.
std::vector<SpanId> run_once(int workers) {
  JobTracer& jt = JobTracer::global();
  jt.clear();
  pipeline::TargetRegistry reg = pipeline::TargetRegistry::builtin();
  const pipeline::TargetSpec* target = reg.find("server/nginx_sim");
  EXPECT_NE(target, nullptr);
  ArtifactStore store;
  JobQueueOptions qo;
  qo.workers = workers;
  qo.store = &store;
  JobQueue queue(qo);
  JobSpec spec;
  spec.target = *target;
  spec.seed = 7;
  spec.tenant = "alice";
  spec.trace = jt.start_trace();
  pipeline::JobId id = queue.submit(spec);
  pipeline::JobResult r = queue.wait(id);
  EXPECT_EQ(r.state, JobState::kDone);
  return span_ids(jt, spec.trace);
}

TEST(JobTracer, SpanSetIsIdenticalAcrossWorkerCounts) {
  ArmedTracer armed;
  std::vector<SpanId> inline_run = run_once(0);
  std::vector<SpanId> one = run_once(1);
  std::vector<SpanId> four = run_once(4);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(inline_run, one);
  EXPECT_EQ(one, four);

  // The lifecycle edges the tentpole promises are all present: queue wait,
  // every step, and the store lease the first computation wins.
  bool saw_queue = false, saw_step = false, saw_lease = false;
  for (const auto& [kind, label, arg] : one) {
    saw_queue |= kind == std::string("queue_wait");
    saw_step |= kind == std::string("step");
    saw_lease |= kind == std::string("lease_acquire");
  }
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_step);
  EXPECT_TRUE(saw_lease);
}

TEST(JobTracer, ColdBrowserJobTakesOneLeaseForItsClassReport) {
  // A browser computes its whole class result under the class_report lease
  // it takes in browse; no later step takes a lease of its own.
  ArmedTracer armed;
  JobTracer& jt = JobTracer::global();
  pipeline::TargetRegistry reg = pipeline::TargetRegistry::builtin();
  ArtifactStore store;
  store.set_enabled(true);
  store.set_dir("");
  JobQueueOptions qo;
  qo.store = &store;
  JobQueue queue(qo);
  JobSpec spec;
  spec.target = *reg.find("browser/iexplore_sim");
  spec.trace = jt.start_trace();
  ASSERT_EQ(queue.wait(queue.submit(spec)).state, JobState::kDone);
  std::vector<std::string> leases;
  for (const auto& [kind, label, arg] : span_ids(jt, spec.trace))
    if (kind == "lease_acquire") leases.push_back(label);
  EXPECT_EQ(leases, std::vector<std::string>{"class_report"});
}

TEST(JobTracer, DisarmedOrUntracedRecordsNothing) {
  JobTracer& jt = JobTracer::global();
  jt.clear();
  // Disarmed: the batch configuration. Nothing lands.
  jt.record(1, 1, SpanKind::kStep, 0, 0, 0, 1);
  EXPECT_TRUE(jt.snapshot().empty());
  // Armed but trace 0: an untraced job in an armed daemon. Still nothing.
  ArmedTracer armed;
  jt.record(0, 1, SpanKind::kStep, 0, 0, 0, 1);
  EXPECT_TRUE(jt.snapshot().empty());
}

TEST(JobTracer, StartTraceNeverCollidesWithPinnedIds) {
  ArmedTracer armed;
  JobTracer& jt = JobTracer::global();
  u64 pinned = jt.start_trace(777);
  EXPECT_EQ(pinned, 777u);
  for (int i = 0; i < 1000; ++i) EXPECT_NE(jt.start_trace(), 777u);
}

TEST(JobTracer, PerJobSpanBudgetDropsAndCounts) {
  ArmedTracer armed;
  JobTracer& jt = JobTracer::global();
  const size_t budget = JobTracer::kMaxSpansPerJob;
  for (size_t i = 0; i < budget + 10; ++i)
    jt.record(5, 9, SpanKind::kStep, 0, i, i, i + 1);
  std::vector<JobTracer::JobTraceView> lanes = jt.snapshot();
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0].spans.size(), budget);
  EXPECT_EQ(jt.dropped(), 10u);
  // The budget keeps the prefix: args 0..budget-1 in order, seq = lane index.
  for (size_t i = 0; i < budget; ++i) {
    EXPECT_EQ(lanes[0].spans[i].arg, i);
    EXPECT_EQ(lanes[0].spans[i].seq, i);
  }
}

TEST(JobTracer, LaneEvictionCountsInTheDroppedMetric) {
  // One span on each of kMaxArchivedJobs + 10 lanes: the 10 oldest lanes
  // are evicted, and their spans count in dropped() and in the metric.
  ArmedTracer armed;
  JobTracer& jt = JobTracer::global();
  Counter& metric = Registry::global().counter("crpd.trace.dropped");
  const u64 before = metric.value();
  for (u64 job = 1; job <= JobTracer::kMaxArchivedJobs + 10; ++job)
    jt.record(5, job, SpanKind::kStep, 0, 0, 0, 1);
  EXPECT_EQ(jt.snapshot().size(), JobTracer::kMaxArchivedJobs);
  EXPECT_EQ(jt.dropped(), 10u);
  EXPECT_EQ(metric.value() - before, 10u);
}

TEST(JobTracer, OneWorkerKeepsEverySpanBelowTheArchiveBounds) {
  // One worker records every span of 700 cached jobs, and nothing reads the
  // archive before the end. 700 lanes of 6 spans sit well inside the
  // documented bounds (kMaxSpansPerJob per lane, kMaxArchivedJobs lanes),
  // so every span must still be there.
  ArmedTracer armed;
  JobTracer& jt = JobTracer::global();
  pipeline::TargetRegistry reg = pipeline::TargetRegistry::builtin();
  const pipeline::TargetSpec* target = reg.find("corpus/dll_x64");
  ASSERT_NE(target, nullptr);
  ArtifactStore store;
  JobQueueOptions qo;
  qo.workers = 1;
  qo.store = &store;
  qo.retain_terminal = 0;
  JobQueue queue(qo);
  JobSpec spec;
  spec.target = *target;
  // An untraced first run fills the store, so every traced job replays it.
  ASSERT_EQ(queue.wait(queue.submit(spec)).state, JobState::kDone);

  constexpr size_t kJobs = 700;
  constexpr size_t kSpansPerJob = 6;  // what a cached corpus/dll_x64 job records
  std::vector<pipeline::JobId> ids;
  for (size_t i = 0; i < kJobs; ++i) {
    spec.trace = jt.start_trace();
    ids.push_back(queue.submit(spec));
  }
  for (pipeline::JobId id : ids) ASSERT_EQ(queue.wait(id).state, JobState::kDone);

  std::vector<JobTracer::JobTraceView> lanes = jt.snapshot();
  size_t spans = 0;
  for (const JobTracer::JobTraceView& v : lanes) spans += v.spans.size();
  EXPECT_EQ(lanes.size(), kJobs);
  EXPECT_EQ(spans, kJobs * kSpansPerJob);
  EXPECT_EQ(jt.dropped(), 0u);
}

TEST(JobTracer, JsonExportsAreWellFormed) {
  ArmedTracer armed;
  JobTracer& jt = JobTracer::global();
  u32 label = jt.intern("syscall_scan");
  jt.record(3, 1, SpanKind::kQueueWait, 0, 0, 100, 200);
  jt.record(3, 1, SpanKind::kStep, label, 0, 200, 300);
  std::string traces = jt.traces_json();
  EXPECT_NE(traces.find("\"traces\""), std::string::npos);
  EXPECT_NE(traces.find("\"trace\": 3"), std::string::npos);
  EXPECT_NE(traces.find("\"queue_wait\""), std::string::npos);
  EXPECT_NE(traces.find("\"syscall_scan\""), std::string::npos);
  std::string chrome = jt.chrome_trace_json();
  EXPECT_EQ(chrome.front(), '[');
  EXPECT_NE(chrome.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(chrome.find("step:syscall_scan"), std::string::npos);
}

TEST(ScopedTraceJobTest, InstallsAndRestoresContext) {
  EXPECT_EQ(current_trace_job().trace, 0u);
  {
    ScopedTraceJob outer(11, 1, "alice");
    EXPECT_EQ(current_trace_job().trace, 11u);
    EXPECT_EQ(current_trace_job().job, 1u);
    EXPECT_EQ(current_trace_job().tenant, "alice");
    {
      ScopedTraceJob inner(22, 2);
      EXPECT_EQ(current_trace_job().trace, 22u);
      EXPECT_EQ(current_trace_job().tenant, "");
    }
    EXPECT_EQ(current_trace_job().trace, 11u);
    EXPECT_EQ(current_trace_job().tenant, "alice");
  }
  EXPECT_EQ(current_trace_job().trace, 0u);
  EXPECT_EQ(current_trace_job().tenant, "");
}

}  // namespace
}  // namespace crp::obs
