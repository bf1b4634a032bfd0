#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "obs/obs.h"

namespace crpbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // Linux reports KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

u64 counter(const std::string& name) {
  return crp::obs::Registry::global().counter_value(name);
}

namespace {

// Sum of the registered counters whose name matches `prefix*suffix`.
u64 counter_sum(const std::string& prefix, const std::string& suffix) {
  crp::obs::Snapshot snap = crp::obs::Registry::global().snapshot();
  u64 sum = 0;
  for (const auto& [name, val] : snap.values) {
    if (val.kind != crp::obs::MetricKind::kCounter) continue;
    if (name.size() < prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) continue;
    sum += static_cast<u64>(val.num);
  }
  return sum;
}

}  // namespace

Counters Counters::read() {
  return {counter("vm.instr_retired"),    counter("taint.propagated"),
          counter_sum("kernel.sys.", ".calls"), counter("kernel.api.calls"),
          counter("sat.queries"),         counter("analysis.classify.memo_hits"),
          counter("oracle.scan.probes"),  counter("oracle.scan.crashes"),
          counter("pipeline.cache.hits"), counter("pipeline.cache.misses"),
          counter("pipeline.cache.stores")};
}

Counters Counters::operator-(const Counters& o) const {
  return {instr - o.instr,         propagated - o.propagated,   syscalls - o.syscalls,
          api_calls - o.api_calls, sat_queries - o.sat_queries, memo_hits - o.memo_hits,
          probes - o.probes,       crashes - o.crashes,         cache_hits - o.cache_hits,
          cache_misses - o.cache_misses, cache_stores - o.cache_stores};
}

const Step kSteps[15] = {
    {"taint_trace", "taint.trace"},          {"candidates", "analysis.candidates"},
    {"verify", "exec.verify"},               {"boot", "os.boot"},
    {"signal_scan", "symex.signal_scan"},    {"browse", "vm.browse"},
    {"seh_extract", "analysis.seh_extract"}, {"classify", "symex.classify"},
    {"xref_veh", "analysis.xref_veh"},       {"generate", "targets.generate"},
    {"api_fuzz", "os.api_fuzz"},             {"call_sites", "analysis.call_sites"},
    {"plan_synth", "plan.synth"},            {"plan_verify", "oracle.plan_verify"},
    {"finalize", "pipeline.finalize"}};

std::string step_span(const std::string& step) {
  for (const Step& s : kSteps)
    if (step == s.name) return s.span;
  return "pipeline." + step;
}

// --- Result --------------------------------------------------------------------

void Result::metric(const std::string& name, double value, const char* unit) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!std::isfinite(value)) {
    ++check_failures_;
    notes_.push_back("CHECK FAILED: metric " + name + " is not finite");
    return;
  }
  metrics_.push_back({name, value, unit});
}

void Result::note(const std::string& line) {
  std::lock_guard<std::mutex> lk(mu_);
  notes_.push_back(line);
}

bool Result::check(bool ok, const std::string& what) {
  if (!ok) {
    std::lock_guard<std::mutex> lk(mu_);
    ++check_failures_;
    // Keep the log bounded when one defect fails every job of a run.
    if (check_failures_ <= 20) notes_.push_back("CHECK FAILED: " + what);
  }
  return ok;
}

void Result::ops(u64 attempted, u64 failed) {
  std::lock_guard<std::mutex> lk(mu_);
  attempted_ += attempted;
  failed_ += failed;
}

void Result::complete(const std::vector<std::pair<std::string, std::string>>& declared,
                      bool bypassed_is_zero) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : declared) {
    auto it = std::find_if(metrics_.begin(), metrics_.end(),
                           [&](const Metric& m) { return m.name == name; });
    if (it == metrics_.end()) {
      check(bypassed_is_zero, "metric " + name + " was not measured");
      ordered.push_back({name, 0, unit});
      continue;
    }
    check(it->unit == unit, "metric " + name + " has unit " + it->unit);
    ordered.push_back(*it);
    metrics_.erase(it);
  }
  for (const Metric& m : metrics_) check(false, "undeclared metric " + m.name);
  metrics_ = std::move(ordered);
}

void Result::print(const Args& args) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::printf("crpbench workload=%s seed=%llu seconds=%g trace=%d nproc=%u source=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
              args.source.c_str());
  for (const std::string& n : notes_) std::printf("  %s\n", n.c_str());
  for (const Metric& m : metrics_)
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  fail_ratio %llu/%llu\n", static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  std::string json = crp::strf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      check_failures_ == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted_), static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    json += crp::strf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                      metrics_[i].name.c_str(), metrics_[i].value,
                      metrics_[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- Spans ---------------------------------------------------------------------

int Spans::begin(std::string name, int parent, u64 job, int lane) {
  double t = now_s();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({std::move(name), t, t, parent, job, lane});
  return static_cast<int>(spans_.size() - 1);
}

void Spans::end(int id) {
  double t = now_s();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<size_t>(id)].t1 = t;
}

void Spans::add(Span span) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Spans::Span> Spans::all() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

namespace {

// Total length of the union of intervals, each clipped to [lo, hi].
double union_len(std::vector<std::pair<double, double>> iv, double lo, double hi) {
  for (auto& [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(iv.begin(), iv.end());
  double total = 0, cur_a = 0, cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (!open || a > cur_b) {
      if (open) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (open) total += cur_b - cur_a;
  return total;
}

}  // namespace

std::map<std::string, double> Spans::self_by_name() const {
  std::vector<Span> s = all();
  std::vector<std::vector<std::pair<double, double>>> kids(s.size());
  for (const Span& sp : s)
    if (sp.parent >= 0) kids[static_cast<size_t>(sp.parent)].push_back({sp.t0, sp.t1});
  std::map<std::string, double> out;
  for (size_t i = 0; i < s.size(); ++i)
    out[s[i].name] += (s[i].t1 - s[i].t0) - union_len(kids[i], s[i].t0, s[i].t1);
  return out;
}

double Spans::uncovered_frac(double t0, double t1) const {
  std::vector<std::pair<double, double>> top;
  for (const Span& sp : all())
    if (sp.parent < 0 && sp.t0 >= t0 && sp.t1 <= t1) top.push_back({sp.t0, sp.t1});
  if (t1 <= t0) return 0;
  return 1.0 - union_len(top, t0, t1) / (t1 - t0);
}

bool Spans::write_chrome(const std::string& path) const {
  std::vector<Span> s = all();
  double base = s.empty() ? 0 : s.front().t0;
  for (const Span& sp : s) base = std::min(base, sp.t0);
  std::sort(s.begin(), s.end(), [](const Span& a, const Span& b) { return a.t0 < b.t0; });
  std::ofstream f(path);
  if (!f) return false;
  f << "[";
  for (size_t i = 0; i < s.size(); ++i) {
    const Span& sp = s[i];
    f << (i ? ",\n" : "\n")
      << crp::strf("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":%llu}}",
                   sp.name.c_str(), sp.name.substr(0, sp.name.find('.')).c_str(),
                   sp.lane, (sp.t0 - base) * 1e6, (sp.t1 - sp.t0) * 1e6,
                   static_cast<unsigned long long>(sp.job));
  }
  f << "\n]\n";
  return static_cast<bool>(f);
}

void export_trace(const Spans& spans, const Args& args, Result& res) {
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  std::string stem = crp::strf("%s/%s-seed%llu", args.out_dir.c_str(), args.workload.c_str(),
                               static_cast<unsigned long long>(args.seed));
  res.check(spans.write_chrome(stem + ".trace.json"), "write " + stem + ".trace.json");

  // Self time per span name and per layer (first dotted component).
  std::map<std::string, double> by_name = spans.self_by_name();
  std::map<std::string, double> by_layer;
  double total = 0;
  for (const auto& [name, self] : by_name) {
    by_layer[name.substr(0, name.find('.'))] += self;
    total += self;
  }
  std::ofstream f(stem + ".self.txt");
  f << crp::strf("%-36s %12s %7s\n", "span", "self_s", "share");
  for (const auto& [name, self] : by_name)
    f << crp::strf("%-36s %12.6f %6.1f%%\n", name.c_str(), self,
                   total > 0 ? 100 * self / total : 0);
  f << crp::strf("\n%-36s %12s %7s\n", "layer", "self_s", "share");
  for (const auto& [layer, self] : by_layer) {
    f << crp::strf("%-36s %12.6f %6.1f%%\n", layer.c_str(), self,
                   total > 0 ? 100 * self / total : 0);
    res.note(crp::strf("self %-12s %10.4f s %5.1f%%", layer.c_str(), self,
                       total > 0 ? 100 * self / total : 0));
  }
  res.check(static_cast<bool>(f), "write " + stem + ".self.txt");
  res.note("trace written to " + stem + ".trace.json and " + stem + ".self.txt");
  res.metric("obs.spans", static_cast<double>(spans.all().size()), "count");
}

}  // namespace crpbench
