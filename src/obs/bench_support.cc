#include "obs/bench_support.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "chaos/chaos.h"
#include "obs/journal.h"
#include "obs/ledger.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "obs/serve.h"
#include "obs/trace.h"
#include "os/abi.h"
#include "util/log.h"
#include "vm/exception.h"
#include "vm/machine.h"

namespace crp::obs {

namespace {
std::string out_dir() {
  const char* d = std::getenv("CRP_BENCH_DIR");
  if (d == nullptr || *d == '\0') return {};
  std::error_code ec;
  std::filesystem::create_directories(d, ec);  // best effort; open reports failure
  return std::string(d) + "/";
}

// At most one live BenchSession registers itself as the process-exit flush
// sink, so a bench killed by CRP_PANIC or an uncaught exception still leaves
// its BENCH_*.json behind (flush_now() is capture-free by contract).
BenchSession* g_active_session = nullptr;

void flush_active_session() {
  if (g_active_session != nullptr) g_active_session->flush();
}
}  // namespace

void preregister_core_metrics() {
  Registry& r = Registry::global();
  r.counter("vm.instr_retired");
  r.counter("vm.exceptions");
  r.counter("vm.filter_evals");
  r.counter("vm.mapped_only_av_kills");
  for (int o = 0; o <= static_cast<int>(vm::DispatchOutcome::kSwallowed); ++o)
    r.counter(std::string("vm.dispatch.") +
              vm::dispatch_outcome_name(static_cast<vm::DispatchOutcome>(o)));
  for (u64 s = 0; s < static_cast<u64>(os::Sys::kCount); ++s) {
    std::string base = std::string("kernel.sys.") + os::sys_name(static_cast<os::Sys>(s));
    r.counter(base + ".calls");
    r.counter(base + ".efault");
  }
  r.counter("kernel.copy_from_user.bytes");
  r.counter("kernel.copy_to_user.bytes");
  r.counter("kernel.copy_user.efaults");
  r.counter("kernel.api.calls");
  r.counter("kernel.api.faults");
  r.counter("sat.queries");
  r.counter("sat.conflicts");
  r.counter("sat.decisions");
  r.counter("sat.propagations");
  r.counter("sat.restarts");
  r.histogram("sat.solve_ns");
  r.counter("symex.filter.explored");
  r.counter("symex.filter.paths");
  r.counter("taint.propagated");
  r.gauge("taint.tainted_bytes_hwm");
  r.counter("oracle.scan.probes");
  r.counter("oracle.scan.mapped_hits");
  r.counter("oracle.scan.crashes");
  r.histogram("oracle.scan.probe_ns");
  r.counter("defense.av_rate.handled");
  r.counter("defense.av_rate.alarms");
  r.gauge("defense.av_rate.peak_window");
  r.counter("analysis.pool.tasks");
  r.counter("analysis.classify.memo_hits");
  // Fault-injection and artifact-cache counters: preregistered so clean runs
  // expose them at zero and a snapshot diff shows exactly what chaos touched.
  for (u64 p = 0; p < static_cast<u64>(chaos::Point::kCount); ++p) {
    std::string name =
        std::string("chaos.injected.") + chaos::point_name(static_cast<chaos::Point>(p));
    std::replace(name.begin(), name.end(), '-', '_');
    r.counter(name);
  }
  r.counter("pipeline.cache.hits");
  r.counter("pipeline.cache.misses");
  r.counter("pipeline.cache.stores");
  r.counter("pipeline.cache.corrupt");
  r.counter("pipeline.campaign.targets_run");
  r.gauge("pipeline.campaign.targets_total");
  r.gauge("bench.instr_virtual");
  // Serving-path instruments (crpd/trace/watchdog/transport): preregistered
  // so the exposition schema carries them at zero in batch runs too, and a
  // daemon scrape sees every series from the first request on.
  r.counter("crpd.requests");
  r.counter("crpd.admission.accepted");
  r.counter("crpd.admission.rejected_quota");
  r.counter("crpd.admission.rejected_rate");
  r.counter("crpd.admission.rejected_tenants");
  r.counter("crpd.conns.opened");
  r.counter("crpd.conns.closed");
  r.gauge("crpd.queue.depth");
  r.gauge("crpd.jobs.active");
  r.counter("crpd.watchdog.step_stalls");
  r.counter("crpd.watchdog.lease_stalls");
  r.counter("crpd.trace.spans");
  r.counter("crpd.trace.dropped");
  r.counter("serve.conn.accepted");
  r.counter("serve.conn.dropped");
  r.gauge("serve.conn.out_buffer_hwm");
}

BenchSession::BenchSession(const std::string& name)
    : name_(name), wall_t0_ns_(trace_now_ns()) {
  preregister_core_metrics();
  install_flush_handlers();
  serve::maybe_start_from_env();
  if (g_active_session == nullptr) {
    g_active_session = this;
    set_session_flush_sink(&flush_active_session);
  }
}

std::string BenchSession::metrics_path() const { return out_dir() + "BENCH_" + name_ + ".json"; }

std::string BenchSession::trace_path() const {
  return out_dir() + "BENCH_" + name_ + "_trace.json";
}

void BenchSession::flush() {
  if (flushed_) return;
  flushed_ = true;
  Registry::global().gauge("bench.wall_ns").set(
      static_cast<i64>(trace_now_ns() - wall_t0_ns_));
  // Virtual-time cost metric: the retired-instruction count is deterministic,
  // so benchdiff can gate profiler overhead on it without wall-clock noise.
  Registry::global().gauge("bench.instr_virtual")
      .set(static_cast<i64>(Registry::global().counter("vm.instr_retired").value()));

  std::string body = "{\n\"bench\": \"" + name_ + "\",\n\"schema\": 1,\n\"metrics\": ";
  std::string metrics = Registry::global().json();
  // Indent the metrics object one level to keep the file pleasant to diff.
  body += metrics;
  body += "\n}\n";
  bool wrote = false;
  {
    std::ofstream f(metrics_path());
    if (f) {
      f << body;
      wrote = true;
    } else {
      CRP_WARN("obs", "cannot write %s", metrics_path().c_str());
    }
  }

  Journal& j = Journal::global();
  if (j.size() > 0) {
    std::ofstream f(trace_path());
    if (f) f << j.chrome_trace_json() << "\n";
  }

  Profiler& prof = Profiler::global();
  if (prof.enabled()) {
    std::string prof_path = out_dir() + "PROF_" + name_ + ".json";
    std::ofstream pf(prof_path);
    if (pf) pf << prof.report_json(name_, 10);
    std::string folded_path = out_dir() + "PROF_" + name_ + ".folded";
    std::ofstream ff(folded_path);
    if (ff) ff << prof.collapsed();
    std::fprintf(stderr, "[obs] profile: %s (%llu samples)\n", prof_path.c_str(),
                 static_cast<unsigned long long>(prof.samples()));
  }
  if (wrote)
    std::fprintf(stderr, "[obs] metrics snapshot: %s%s\n", metrics_path().c_str(),
                 j.size() > 0 ? strf(", trace: %s", trace_path().c_str()).c_str() : "");
}

BenchSession::~BenchSession() {
  flush();
  if (g_active_session == this) {
    g_active_session = nullptr;
    set_session_flush_sink(nullptr);
  }
}

}  // namespace crp::obs
