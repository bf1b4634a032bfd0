// crp::obs::JobTracer — causal, deterministic end-to-end job tracing for
// the crpd serving path.
//
// A batch campaign answers "what did the funnel find"; a served one also
// has to answer "where did this submission's latency go" — queue wait
// behind higher-priority tenants, a lease coalesced onto another job's
// computation, a preemption park, or one slow step cell. The tracer
// records a typed span per lifecycle edge:
//
//   admission       SUBMIT accepted/rejected (arg = accepted flag)
//   queue_wait      submit -> first scheduling (arg = priority)
//   step            one TargetCell step (label = stage id, arg = step idx)
//   park            preempted at a step boundary (arg = preemptor job id)
//   resume          rescheduled after a park (arg = steps already done)
//   lease_acquire   won the ArtifactStore single-writer lease (computed)
//   lease_wait      blocked on another job's in-flight lease
//   lease_coalesce  replayed a stored artifact instead of computing
//   render          FETCH rendered the report (arg = payload bytes)
//
// Each span is appended under the tracer's mutex straight into its
// (trace, job) lane of a bounded archive, exported as per-job JSON
// (/traces.json) and merged Chrome trace_event lanes (/trace.json, one
// lane per job id). JobQueue::drive records spans while it holds the
// queue lock, so the tracer's mutex nests inside that lock and never the
// other way round.
//
// Determinism contract: span *content* — kinds, interned labels, args,
// per-job order — derives only from the submit tuple (target, knobs,
// seed) and the store's state, never from worker identity or arrival
// order. Only the wall timestamps vary across runs, so tests diff span
// sets at workers=1 vs workers=4. Per-job order is the emission order of
// the single thread driving that job at any moment (park/resume hand-offs
// happen under the queue lock), and a span's seq is its index in its
// lane, so no scheduling-dependent value leaks into the output.
//
// The tracer is disarmed by default: batch tools never arm it, so batch
// stdout and bench numbers are untouched (one relaxed load per hook).
// The daemon arms it and assigns a trace id to every accepted SUBMIT.
// The tracer only records and exports spans: what a job is doing *now*
// (its step, park state, stall flags) is the JobQueue's own job record.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/names.h"
#include "util/common.h"

namespace crp::obs {

/// Monotonic wall clock for span timestamps (ns). Steady, not virtual:
/// spans measure real latency, and timestamps are excluded from the
/// determinism contract anyway.
u64 trace_now_ns();

enum class SpanKind : u8 {
  kAdmission = 0,
  kQueueWait,
  kStep,
  kPark,
  kResume,
  kLeaseAcquire,
  kLeaseWait,
  kLeaseCoalesce,
  kRender,
};
inline constexpr u32 kNumSpanKinds = 9;
const char* span_kind_name(SpanKind k);

struct JobSpan {
  u64 trace = 0;
  u64 job = 0;  // 0 = trace-level span (admission verdicts precede an id)
  u64 t0_ns = 0;
  u64 t1_ns = 0;
  u64 arg = 0;
  u64 seq = 0;  // index in its (trace, job) lane
  u32 label = 0;  // interned name id, 0 = none
  SpanKind kind = SpanKind::kAdmission;
};

class JobTracer {
 public:
  static constexpr u32 kMaxNames = 256;
  /// Per-(trace, job) archive budget: spans past this are dropped and
  /// counted, so a runaway job cannot grow the archive unboundedly.
  static constexpr size_t kMaxSpansPerJob = 256;
  /// Archived (trace, job) lanes are evicted FIFO past this cap.
  static constexpr size_t kMaxArchivedJobs = 4096;

  JobTracer() = default;
  JobTracer(const JobTracer&) = delete;
  JobTracer& operator=(const JobTracer&) = delete;

  /// Arming gate. Disarmed (default), every hook is one relaxed load;
  /// batch runs stay byte-identical. The daemon arms on construction.
  void set_armed(bool on);
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Allocate a trace id. `requested` nonzero pins a client-chosen id
  /// (the `trace=` knob; duplicate submissions may share one trace) and
  /// bumps the allocator past it so assigned ids never collide with it.
  u64 start_trace(u64 requested = 0);

  /// Intern a label (step/stage name). Capped at kMaxNames; overflow
  /// returns 0 ("-"). Id order is first-come, so label *names*, not ids,
  /// are the deterministic identity — compare via name_of().
  u32 intern(const std::string& name) { return names_.intern(name); }
  std::string name_of(u32 id) const { return names_.name_of(id); }

  /// Record one span. No-op unless armed, recording, and trace != 0. A span
  /// lost to the per-job budget or to lane eviction counts in dropped() and
  /// in crpd.trace.dropped.
  void record(u64 trace, u64 job, SpanKind kind, u32 label, u64 arg, u64 t0_ns,
              u64 t1_ns);

  // --- Archive / export.
  struct JobTraceView {
    u64 trace = 0;
    u64 job = 0;
    std::vector<JobSpan> spans;  // seq 0..n-1
  };
  /// Every (trace, job) lane of the archive.
  std::vector<JobTraceView> snapshot() const;
  /// Spans of one trace (all jobs, job-0 admission lane first).
  std::vector<JobSpan> spans_for(u64 trace) const;
  /// Spans dropped (per-job budget + lane eviction).
  u64 dropped() const;

  /// {"traces": [{"trace": N, "jobs": [{"job": N, "spans": [...]}]}]}
  std::string traces_json() const;
  /// Chrome trace_event JSON Array Format; lane (tid) = job id.
  std::string chrome_trace_json() const;

  /// Drop archive and names (tests).
  void clear();

  static JobTracer& global();

 private:
  /// Append `s` to its lane; returns the spans this append dropped.
  u64 append_locked(JobSpan s);

  std::atomic<bool> armed_{false};
  std::atomic<u64> next_trace_{1};
  NameTable names_{kMaxNames};

  mutable std::mutex mu_;  // guards archive_, archive_fifo_ and dropped_
  std::map<std::pair<u64, u64>, std::vector<JobSpan>> archive_;
  std::deque<std::pair<u64, u64>> archive_fifo_;
  u64 dropped_ = 0;
};

/// Thread-local job context, installed by the queue around every drive
/// session (trace 0 when the job is untraced or the tracer disarmed) so
/// layers without a job handle — the ArtifactStore lease path — can
/// attribute spans, and lease ownership, to the job that triggered them.
struct TraceJobCtx {
  u64 trace = 0;
  u64 job = 0;
};
TraceJobCtx current_trace_job();

class ScopedTraceJob {
 public:
  ScopedTraceJob(u64 trace, u64 job);
  ~ScopedTraceJob();
  ScopedTraceJob(const ScopedTraceJob&) = delete;
  ScopedTraceJob& operator=(const ScopedTraceJob&) = delete;

 private:
  TraceJobCtx prev_;
};

}  // namespace crp::obs
