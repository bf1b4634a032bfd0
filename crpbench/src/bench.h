// crpbench — the repository benchmark: time to verdict for the discovery
// funnel, in batch (pipeline::Campaign::run_all) and through the crpd
// service (serve::Daemon driven by serve::Client), plus a traced mode that
// attributes that time to the modules of src/.
//
// The harness only calls public entry points of the library; nothing in
// src/ knows it exists. Untraced runs produce the end-to-end metrics; a
// traced run records the harness's own spans around the calls it makes
// and reads the library's obs::Registry counters afterwards.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/common.h"

namespace crpbench {

using crp::u64;

/// Steady-clock seconds.
double now_s();
/// Process user+sys CPU seconds (all threads).
double cpu_s();
/// Process peak resident set (MB) so far.
double peak_rss_mb();
/// Quantile with linear interpolation between order statistics
/// (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);
/// Fisher-Yates shuffle driven by the workload seed's generator.
template <class T, class Rng>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}
/// Value of a registered obs::Registry counter (0 when absent).
u64 counter(const std::string& name);

/// The obs::Registry counters the per-layer metrics read around a window.
struct Counters {
  u64 instr, propagated, syscalls, api_calls, sat_queries, memo_hits, probes, crashes;
  u64 cache_hits, cache_misses, cache_stores;
  static Counters read();
  Counters operator-(const Counters& o) const;
};

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string source = "unknown";  // git SHA or source-tree digest
};

/// One run's outcome: named metrics, operation accounting and output
/// checks. A failed check makes the run incorrect; it never becomes a
/// metric.
class Result {
 public:
  void metric(const std::string& name, double value, const char* unit);
  /// Informational line printed before the result (sample counts, bases).
  void note(const std::string& line);
  /// Record an output check; returns `ok`.
  bool check(bool ok, const std::string& what);
  /// Count operations attempted and failed (thread-safe).
  void ops(u64 attempted, u64 failed);

  /// Put the metrics in `declared` order. A declared metric the run did
  /// not produce reads 0 when `bypassed_is_zero` (a layer this workload
  /// never enters) and fails the run otherwise; an undeclared metric or a
  /// unit mismatch fails it too.
  void complete(const std::vector<std::pair<std::string, std::string>>& declared,
                bool bypassed_is_zero);

  bool correct() const { return check_failures_ == 0; }
  /// Human-readable lines, then the one-line JSON result.
  void print(const Args& args) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  mutable std::mutex mu_;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  u64 attempted_ = 0;
  u64 failed_ = 0;
  u64 check_failures_ = 0;
};

/// In-memory span recorder for the traced run. A span has a name whose
/// first dotted component is the layer it times ("vm.bare", "pipeline.step.
/// verify", "serve.fetch"), a parent (-1 = top level) and a job id.
/// Thread-safe; spans are written out once, at exit.
class Spans {
 public:
  struct Span {
    std::string name;
    double t0 = 0, t1 = 0;
    int parent = -1;
    u64 job = 0;
    int lane = 0;
  };

  int begin(std::string name, int parent, u64 job, int lane);
  void end(int id);
  /// Record a finished span taken from another clock-compatible source.
  void add(Span span);
  std::vector<Span> all() const;

  /// Self time per span name: duration minus the union of its children.
  std::map<std::string, double> self_by_name() const;
  /// Share of [t0, t1] not covered by any top-level span inside it.
  double uncovered_frac(double t0, double t1) const;
  /// Chrome trace_event array (one lane per thread/client).
  bool write_chrome(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when `spans` is null (untraced runs).
class Scope {
 public:
  Scope(Spans* spans, std::string name, int parent = -1, u64 job = 0, int lane = 0)
      : spans_(spans),
        id_(spans != nullptr ? spans->begin(std::move(name), parent, job, lane) : -1) {}
  ~Scope() {
    if (spans_ != nullptr) spans_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Spans* spans_;
  int id_;
};

/// Every step a pipeline::TargetCell can run, with the span name the
/// traced run gives it: the module that does most of the step's work, so
/// the self-time table reads per layer. Each traced run reports every
/// step; a step a workload never runs reads 0.
struct Step {
  const char* name;
  const char* span;
};
extern const Step kSteps[15];
std::string step_span(const std::string& step);

/// Per-layer self-time table and trace file for a traced run.
void export_trace(const Spans& spans, const Args& args, Result& res);

// Workloads. Each fills `res`; `spans` is non-null only in traced runs.
void run_syscall_funnel(const Args& args, Result& res, Spans* spans);
void run_windows_funnel(const Args& args, Result& res, Spans* spans);
void run_serve_mix(const Args& args, Result& res, Spans* spans);

}  // namespace crpbench
