#include "obs/obs.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/trace.h"

namespace crp::obs {

namespace detail {
std::atomic<bool> g_runtime_enabled{true};
}  // namespace detail

void set_runtime_enabled(bool on) {
  detail::g_runtime_enabled.store(on, std::memory_order_relaxed);
}

bool runtime_enabled() { return detail::g_runtime_enabled.load(std::memory_order_relaxed); }

const char* metric_kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

// --- Gauge -------------------------------------------------------------------

void Gauge::update_max(i64 v) {
  if (!detail::recording()) return;
  i64 cur = v_.load(std::memory_order_relaxed);
  while (v > cur && !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// --- Histogram ---------------------------------------------------------------

u32 Histogram::bucket_index(u64 v) {
  if (v < kExactValues) return static_cast<u32>(v);
  u32 octave = 63 - static_cast<u32>(std::countl_zero(v));
  u32 sub = static_cast<u32>((v - (1ull << octave)) >> (octave - 2));
  return kExactValues + (octave - 2) * kSubBuckets + sub;
}

u64 Histogram::bucket_lo(u32 idx) {
  if (idx < kExactValues) return idx;
  u32 octave = 2 + (idx - kExactValues) / kSubBuckets;
  u32 sub = (idx - kExactValues) % kSubBuckets;
  return (1ull << octave) + (static_cast<u64>(sub) << (octave - 2));
}

u64 Histogram::bucket_hi(u32 idx) {
  if (idx < kExactValues) return idx + 1;
  if (idx == kNumBuckets - 1) return ~0ull;
  return bucket_lo(idx + 1);
}

void Histogram::record(u64 v) {
  if (!detail::recording()) return;
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  u64 cur = min_.load(std::memory_order_relaxed);
  while (v < cur && !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

u64 Histogram::min() const {
  u64 m = min_.load(std::memory_order_relaxed);
  return m == ~0ull ? 0 : m;
}

double Histogram::mean() const {
  u64 n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

u64 Histogram::quantile(double q) const { return snap().quantile(q); }

HistSnap Histogram::snap() const {
  HistSnap s;
  s.count = count();
  s.sum = sum();
  s.min = min();
  s.max = max();
  for (u32 i = 0; i < kNumBuckets; ++i)
    if (u64 b = bucket_count(i); b > 0) s.buckets.emplace_back(i, b);
  return s;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~0ull, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// --- ScopedTimer -------------------------------------------------------------

ScopedTimer::ScopedTimer(Histogram& h) : h_(h), t0_(trace_now_ns()) {}

ScopedTimer::~ScopedTimer() { h_.record(elapsed_ns()); }

u64 ScopedTimer::elapsed_ns() const { return trace_now_ns() - t0_; }

// --- Registry ----------------------------------------------------------------

Registry::Entry& Registry::get_or_create(const std::string& name, MetricKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    if (it->second.kind != kind)
      CRP_PANIC(strf("metric '%s' registered as %s, requested as %s", name.c_str(),
                     metric_kind_name(it->second.kind), metric_kind_name(kind)));
    return it->second;
  }
  Entry e;
  e.kind = kind;
  switch (kind) {
    case MetricKind::kCounter: e.c = std::make_unique<Counter>(); break;
    case MetricKind::kGauge: e.g = std::make_unique<Gauge>(); break;
    case MetricKind::kHistogram: e.h = std::make_unique<Histogram>(); break;
  }
  return metrics_.emplace(name, std::move(e)).first->second;
}

Counter& Registry::counter(const std::string& name) {
  return *get_or_create(name, MetricKind::kCounter).c;
}

Gauge& Registry::gauge(const std::string& name) {
  return *get_or_create(name, MetricKind::kGauge).g;
}

Histogram& Registry::histogram(const std::string& name) {
  return *get_or_create(name, MetricKind::kHistogram).h;
}

bool Registry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.contains(name);
}

size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : metrics_) {
    switch (e.kind) {
      case MetricKind::kCounter: e.c->reset(); break;
      case MetricKind::kGauge: e.g->reset(); break;
      case MetricKind::kHistogram: e.h->reset(); break;
    }
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        // Remaining C0 controls are invalid raw inside a JSON string.
        if (static_cast<unsigned char>(c) < 0x20)
          out += strf("\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
        else
          out.push_back(c);
    }
  }
  return out;
}

namespace {
std::string hist_json(const HistSnap& h) {
  return strf(
      "{\"count\":%llu,\"sum\":%llu,\"min\":%llu,\"max\":%llu,\"mean\":%.3f,"
      "\"p50\":%llu,\"p95\":%llu,\"p99\":%llu}",
      static_cast<unsigned long long>(h.count), static_cast<unsigned long long>(h.sum),
      static_cast<unsigned long long>(h.min), static_cast<unsigned long long>(h.max),
      h.mean(), static_cast<unsigned long long>(h.quantile(0.50)),
      static_cast<unsigned long long>(h.quantile(0.95)),
      static_cast<unsigned long long>(h.quantile(0.99)));
}
}  // namespace

std::string Registry::json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    if (!first) out += ",";
    first = false;
    out += "\n  \"" + json_escape(name) + "\": ";
    switch (e.kind) {
      case MetricKind::kCounter:
        out += strf("%llu", static_cast<unsigned long long>(e.c->value()));
        break;
      case MetricKind::kGauge:
        out += strf("%lld", static_cast<long long>(e.g->value()));
        break;
      case MetricKind::kHistogram:
        out += hist_json(e.h->snap());
        break;
    }
  }
  out += "\n}";
  return out;
}

std::string Registry::text(bool skip_zero) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, e] : metrics_) {
    switch (e.kind) {
      case MetricKind::kCounter:
        if (skip_zero && e.c->value() == 0) break;
        out += strf("  %-40s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(e.c->value()));
        break;
      case MetricKind::kGauge:
        if (skip_zero && e.g->value() == 0) break;
        out += strf("  %-40s %lld\n", name.c_str(), static_cast<long long>(e.g->value()));
        break;
      case MetricKind::kHistogram: {
        HistSnap h = e.h->snap();
        if (skip_zero && h.count == 0) break;
        out += strf("  %-40s n=%llu mean=%.1f p50=%llu p95=%llu p99=%llu max=%llu\n",
                    name.c_str(), static_cast<unsigned long long>(h.count), h.mean(),
                    static_cast<unsigned long long>(h.quantile(0.50)),
                    static_cast<unsigned long long>(h.quantile(0.95)),
                    static_cast<unsigned long long>(h.quantile(0.99)),
                    static_cast<unsigned long long>(h.max));
        break;
      }
    }
  }
  return out;
}

Registry& Registry::global() {
  static Registry* g = new Registry();  // intentionally leaked: outlives all cached refs
  return *g;
}

// --- Snapshot ----------------------------------------------------------------

double HistSnap::mean() const {
  return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
}

u64 HistSnap::quantile(double q) const {
  if (count == 0) return 0;
  // Degenerate distributions (single sample, or all samples equal) have an
  // exact answer; don't let bucket interpolation manufacture one.
  if (min == max) return min;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample (1-based), then walk the cumulative counts.
  u64 rank = static_cast<u64>(std::ceil(q * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  u64 seen = 0;
  for (const auto& [idx, b] : buckets) {
    if (seen + b >= rank) {
      // Midpoint-rule interpolation inside the bucket (the k-th of b samples
      // sits at fraction (k-0.5)/b), clamped to observed extremes.
      u64 lo = Histogram::bucket_lo(idx), hi = Histogram::bucket_hi(idx);
      double frac =
          (static_cast<double>(rank - seen) - 0.5) / static_cast<double>(b);
      u64 est = lo + static_cast<u64>(frac * static_cast<double>(hi - lo));
      return std::clamp(est, min, max);
    }
    seen += b;
  }
  return max;
}

const SnapValue* Snapshot::find(const std::string& name) const {
  auto it = values.find(name);
  return it == values.end() ? nullptr : &it->second;
}

i64 Snapshot::num(const std::string& name) const {
  const SnapValue* v = find(name);
  if (v == nullptr) return 0;
  return v->kind == MetricKind::kHistogram ? static_cast<i64>(v->hist.count) : v->num;
}

u64 Registry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end() || it->second.kind != MetricKind::kCounter) return 0;
  return it->second.c->value();
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const auto& [name, e] : metrics_) {
    SnapValue v;
    v.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter: v.num = static_cast<i64>(e.c->value()); break;
      case MetricKind::kGauge: v.num = e.g->value(); break;
      case MetricKind::kHistogram: v.hist = e.h->snap(); break;
    }
    snap.values.emplace(name, std::move(v));
  }
  return snap;
}

Snapshot Registry::diff(const Snapshot& before, const Snapshot& after) {
  Snapshot out;
  for (const auto& [name, a] : after.values) {
    const SnapValue* b = before.find(name);
    SnapValue d;
    d.kind = a.kind;
    if (b != nullptr && b->kind != a.kind) b = nullptr;  // kind changed: treat as new
    switch (a.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        d.num = a.num - (b != nullptr ? b->num : 0);
        break;
      case MetricKind::kHistogram: {
        const HistSnap empty;
        const HistSnap& hb = b != nullptr ? b->hist : empty;
        d.hist.count = a.hist.count - std::min(hb.count, a.hist.count);
        d.hist.sum = a.hist.sum - std::min(hb.sum, a.hist.sum);
        std::map<u32, u64> bb(hb.buckets.begin(), hb.buckets.end());
        for (const auto& [idx, n] : a.hist.buckets) {
          u64 prev = bb.count(idx) ? bb[idx] : 0;
          if (n > prev) d.hist.buckets.emplace_back(idx, n - prev);
        }
        // min/max of the *delta* samples are unknowable exactly; bound them
        // by the surviving buckets' ranges so quantile() stays sane.
        if (!d.hist.buckets.empty()) {
          d.hist.min = Histogram::bucket_lo(d.hist.buckets.front().first);
          d.hist.max = Histogram::bucket_hi(d.hist.buckets.back().first) - 1;
          d.hist.min = std::max(d.hist.min, std::min(a.hist.min, d.hist.max));
          d.hist.max = std::min(d.hist.max, a.hist.max);
        }
        break;
      }
    }
    out.values.emplace(name, std::move(d));
  }
  return out;
}

}  // namespace crp::obs
