#include "obs/trace.h"

#include <algorithm>
#include <chrono>

#include "obs/journal.h"
#include "obs/obs.h"
#include "util/common.h"

namespace crp::obs {

u64 trace_now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

const char* span_kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kAdmission: return "admission";
    case SpanKind::kQueueWait: return "queue_wait";
    case SpanKind::kStep: return "step";
    case SpanKind::kPark: return "park";
    case SpanKind::kResume: return "resume";
    case SpanKind::kLeaseAcquire: return "lease_acquire";
    case SpanKind::kLeaseWait: return "lease_wait";
    case SpanKind::kLeaseCoalesce: return "lease_coalesce";
    case SpanKind::kRender: return "render";
  }
  return "?";
}

namespace {
thread_local TraceJobCtx t_job_ctx;
}  // namespace

TraceJobCtx current_trace_job() { return t_job_ctx; }

ScopedTraceJob::ScopedTraceJob(u64 trace, u64 job) : prev_(t_job_ctx) {
  t_job_ctx = TraceJobCtx{trace, job};
}

ScopedTraceJob::~ScopedTraceJob() { t_job_ctx = prev_; }

// --- JobTracer ---------------------------------------------------------------

JobTracer::JobTracer(size_t ring_capacity)
    : spans_(mu_, ring_capacity, [this](const JobSpan& s) { append_locked(s); }) {}

JobTracer& JobTracer::global() {
  static JobTracer* g = new JobTracer();
  return *g;
}

void JobTracer::set_armed(bool on) {
  armed_.store(on, std::memory_order_relaxed);
}

u64 JobTracer::start_trace(u64 requested) {
  if (requested != 0) {
    // Pin the client's id and keep the allocator strictly above it so a
    // later assigned id never collides with a pinned one.
    u64 cur = next_trace_.load(std::memory_order_relaxed);
    while (cur <= requested &&
           !next_trace_.compare_exchange_weak(cur, requested + 1,
                                              std::memory_order_relaxed)) {
    }
    return requested;
  }
  return next_trace_.fetch_add(1, std::memory_order_relaxed);
}

void JobTracer::record(u64 trace, u64 job, SpanKind kind, u32 label, u64 arg,
                       u64 t0_ns, u64 t1_ns) {
  if (!armed() || !detail::recording() || trace == 0) return;

  JobSpan s;
  s.trace = trace;
  s.job = job;
  s.t0_ns = t0_ns;
  s.t1_ns = t1_ns;
  s.arg = arg;
  s.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  s.label = label < kMaxNames ? label : 0;
  s.kind = kind;
  spans_.push(s);
  Registry::global().counter("crpd.trace.spans").inc();
}

// --- Drain / export ----------------------------------------------------------

void JobTracer::append_locked(const JobSpan& s) {
  auto key = std::make_pair(s.trace, s.job);
  auto it = archive_.find(key);
  if (it == archive_.end()) {
    if (archive_.size() >= kMaxArchivedJobs) {
      // Evict the oldest lane FIFO; its spans are gone, count them.
      auto victim = archive_.find(archive_fifo_.front());
      archive_fifo_.pop_front();
      if (victim != archive_.end()) {
        dropped_ += victim->second.size();
        archive_.erase(victim);
      }
    }
    it = archive_.emplace(key, std::vector<JobSpan>()).first;
    archive_fifo_.push_back(key);
  }
  if (it->second.size() >= kMaxSpansPerJob) {
    ++dropped_;
    Registry::global().counter("crpd.trace.dropped").inc();
    return;
  }
  it->second.push_back(s);
}

std::vector<JobTracer::JobTraceView> JobTracer::snapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.drain_locked();
  std::vector<JobTraceView> out;
  out.reserve(archive_.size());
  for (const auto& [key, spans] : archive_) {
    JobTraceView v;
    v.trace = key.first;
    v.job = key.second;
    v.spans = spans;
    std::sort(v.spans.begin(), v.spans.end(),
              [](const JobSpan& a, const JobSpan& b) { return a.seq < b.seq; });
    // Renumber so no raw (scheduling-dependent) stamp leaks into output.
    for (size_t i = 0; i < v.spans.size(); ++i) v.spans[i].seq = i;
    out.push_back(std::move(v));
  }
  return out;
}

std::vector<JobSpan> JobTracer::spans_for(u64 trace) {
  std::vector<JobSpan> out;
  for (JobTraceView& v : snapshot()) {
    if (v.trace != trace) continue;
    out.insert(out.end(), v.spans.begin(), v.spans.end());
  }
  return out;
}

u64 JobTracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_ + spans_.dropped_locked();
}

std::string JobTracer::traces_json() {
  std::vector<JobTraceView> views = snapshot();
  std::string out = "{\n\"traces\": [";
  u64 cur_trace = 0;
  bool first_trace = true;
  bool first_job = true;
  for (const JobTraceView& v : views) {
    if (first_trace || v.trace != cur_trace) {
      if (!first_trace) out += "\n]}";
      out += first_trace ? "\n" : ",\n";
      out += strf("{\"trace\": %llu, \"jobs\": [",
                  static_cast<unsigned long long>(v.trace));
      cur_trace = v.trace;
      first_trace = false;
      first_job = true;
    }
    out += first_job ? "\n" : ",\n";
    first_job = false;
    out += strf("{\"job\": %llu, \"spans\": [",
                static_cast<unsigned long long>(v.job));
    for (size_t i = 0; i < v.spans.size(); ++i) {
      const JobSpan& s = v.spans[i];
      out += i == 0 ? "\n" : ",\n";
      out += strf("{\"seq\": %llu, \"kind\": \"%s\", \"label\": \"%s\", "
                  "\"arg\": %llu, \"t0_ns\": %llu, \"t1_ns\": %llu}",
                  static_cast<unsigned long long>(s.seq), span_kind_name(s.kind),
                  json_escape(name_of(s.label)).c_str(), static_cast<unsigned long long>(s.arg),
                  static_cast<unsigned long long>(s.t0_ns),
                  static_cast<unsigned long long>(s.t1_ns));
    }
    out += "]}";
  }
  if (!first_trace) out += "\n]}";
  out += "\n]\n}\n";
  return out;
}

std::string JobTracer::chrome_trace_json() {
  std::vector<TraceEvent> events;
  for (const JobTraceView& v : snapshot()) {
    for (const JobSpan& s : v.spans) {
      TraceEvent e;
      e.name = span_kind_name(s.kind);
      if (s.label != 0) e.name += ":" + name_of(s.label);
      e.cat = strf("trace:%llu", static_cast<unsigned long long>(v.trace));
      e.ts_us = s.t0_ns / 1000;
      e.dur_us = s.t1_ns > s.t0_ns ? (s.t1_ns - s.t0_ns) / 1000 : 0;
      e.tid = v.job;
      e.arg_name = "arg";
      e.arg = static_cast<i64>(s.arg);
      e.arg_unsigned = true;
      events.push_back(std::move(e));
    }
  }
  return write_chrome_trace(std::move(events));
}

void JobTracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear_locked();
  archive_.clear();
  archive_fifo_.clear();
  names_.clear();
  dropped_ = 0;
}

}  // namespace crp::obs
