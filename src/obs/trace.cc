#include "obs/trace.h"

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
const TraceJobCtx kNoJob;
thread_local const TraceJobCtx* t_job_ctx = &kNoJob;
}  // namespace

const TraceJobCtx& current_trace_job() { return *t_job_ctx; }

ScopedTraceJob::ScopedTraceJob(u64 trace, u64 job, std::string tenant)
    : ctx_{trace, job, std::move(tenant)}, prev_(t_job_ctx) {
  t_job_ctx = &ctx_;
}

ScopedTraceJob::~ScopedTraceJob() { t_job_ctx = prev_; }

// --- JobTracer ---------------------------------------------------------------

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
  s.label = label < kMaxNames ? label : 0;
  s.kind = kind;
  u64 lost = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    lost = append_locked(s);
  }
  // Both series exist from the first span, so a clean run reads 0 lost.
  static Counter& spans_metric = Registry::global().counter("crpd.trace.spans");
  static Counter& lost_metric = Registry::global().counter("crpd.trace.dropped");
  spans_metric.inc();
  lost_metric.inc(lost);
}

// --- Archive / export --------------------------------------------------------

u64 JobTracer::append_locked(JobSpan s) {
  u64 lost = 0;
  auto key = std::make_pair(s.trace, s.job);
  auto it = archive_.find(key);
  if (it == archive_.end()) {
    if (archive_.size() >= kMaxArchivedJobs) {
      // Evict the oldest lane FIFO; its spans are gone, count them.
      auto victim = archive_.find(archive_fifo_.front());
      archive_fifo_.pop_front();
      if (victim != archive_.end()) {
        lost += victim->second.size();
        archive_.erase(victim);
      }
    }
    it = archive_.emplace(key, std::vector<JobSpan>()).first;
    archive_fifo_.push_back(key);
  }
  if (it->second.size() >= kMaxSpansPerJob) {
    ++lost;
  } else {
    s.seq = it->second.size();
    it->second.push_back(s);
  }
  dropped_ += lost;
  return lost;
}

std::vector<JobTracer::JobTraceView> JobTracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobTraceView> out;
  out.reserve(archive_.size());
  for (const auto& [key, spans] : archive_) out.push_back({key.first, key.second, spans});
  return out;
}

std::vector<JobSpan> JobTracer::spans_for(u64 trace) const {
  std::vector<JobSpan> out;
  for (JobTraceView& v : snapshot()) {
    if (v.trace != trace) continue;
    out.insert(out.end(), v.spans.begin(), v.spans.end());
  }
  return out;
}

u64 JobTracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::string JobTracer::traces_json() const {
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

std::string JobTracer::chrome_trace_json() const {
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
  archive_.clear();
  archive_fifo_.clear();
  names_.clear();
  dropped_ = 0;
}

}  // namespace crp::obs
