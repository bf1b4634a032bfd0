// crp::obs — unified metrics for the whole pipeline.
//
// The paper's claims are quantitative funnels and rates (Table I–III
// narrowing counts, zero-crash probe campaigns, §VII AV-rate separation);
// this module is the substrate that makes every one of those numbers a
// first-class, machine-readable measurement instead of an ad-hoc printf.
//
// Primitives:
//   Counter    — monotonically increasing u64 (relaxed atomic).
//   Gauge      — signed instantaneous value with set/add/update_max.
//   Histogram  — log-bucketed (4 sub-buckets per power of two) with exact
//                count/sum/min/max and interpolated p50/p95/p99 estimation.
//   Registry   — thread-safe name -> metric map with hierarchical dotted
//                names ("vm.instr_retired", "kernel.sys.read.efault", ...);
//                metrics live for the registry's lifetime, so hot paths may
//                cache the returned references.
//   ScopedTimer / ScopedVirtualTimer — RAII latency recording into a
//                Histogram, wall-clock or any caller-supplied clock
//                (the Kernel's virtual ns clock, typically).
//
// Cost model: a Counter::inc is one relaxed fetch_add plus one relaxed
// flag load; call set_runtime_enabled(false) to drop recording at runtime
// (bench_micro's BM_StepObsOn/Off pair measures the difference).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/common.h"

namespace crp::obs {

/// Runtime kill switch (default on). Checked with a relaxed load on every
/// mutation; lets one binary measure instrumented vs. uninstrumented cost.
void set_runtime_enabled(bool on);
bool runtime_enabled();

namespace detail {
extern std::atomic<bool> g_runtime_enabled;
inline bool recording() {
  return g_runtime_enabled.load(std::memory_order_relaxed);
}
}  // namespace detail

enum class MetricKind : u8 { kCounter = 0, kGauge, kHistogram };

const char* metric_kind_name(MetricKind k);

class Counter {
 public:
  void inc(u64 n = 1) {
    if (detail::recording()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  u64 value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<u64> v_{0};
};

class Gauge {
 public:
  void set(i64 v) {
    if (detail::recording()) v_.store(v, std::memory_order_relaxed);
  }
  void add(i64 d) {
    if (detail::recording()) v_.fetch_add(d, std::memory_order_relaxed);
  }
  /// High-water-mark update: keeps the maximum of all set values.
  void update_max(i64 v);
  i64 value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<i64> v_{0};
};

struct HistSnap;

/// Log-bucketed histogram for non-negative samples (latencies, sizes).
/// Values 0..3 get exact buckets; every power-of-two octave [2^k, 2^(k+1))
/// with k >= 2 is split into kSubBuckets equal sub-ranges, bounding the
/// relative error of a quantile estimate by 1/kSubBuckets.
class Histogram {
 public:
  static constexpr u32 kSubBuckets = 4;
  static constexpr u32 kExactValues = 4;  // 0, 1, 2, 3
  static constexpr u32 kNumBuckets = kExactValues + 62 * kSubBuckets;

  void record(u64 v);

  u64 count() const { return count_.load(std::memory_order_relaxed); }
  u64 sum() const { return sum_.load(std::memory_order_relaxed); }
  u64 min() const;  // 0 when empty
  u64 max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;

  /// snap().quantile(q): see HistSnap::quantile.
  u64 quantile(double q) const;

  /// Point-in-time copy (Registry::snapshot's per-histogram substrate).
  HistSnap snap() const;

  /// Bucket mapping, exposed for tests: index for a value, and the
  /// half-open [lo, hi) range a bucket covers.
  static u32 bucket_index(u64 v);
  static u64 bucket_lo(u32 idx);
  static u64 bucket_hi(u32 idx);

  /// Raw per-bucket count (snapshot/exposition substrate).
  u64 bucket_count(u32 idx) const {
    return idx < kNumBuckets ? buckets_[idx].load(std::memory_order_relaxed) : 0;
  }

  void reset();

 private:
  std::atomic<u64> buckets_[kNumBuckets] = {};
  std::atomic<u64> count_{0};
  std::atomic<u64> sum_{0};
  std::atomic<u64> min_{~0ull};
  std::atomic<u64> max_{0};
};

/// RAII wall-clock timer recording elapsed nanoseconds on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  u64 elapsed_ns() const;

 private:
  Histogram& h_;
  u64 t0_;
};

/// RAII virtual-time timer: samples `*clock_ns` (e.g. the Kernel's virtual
/// nanosecond clock) at construction and destruction. The pointed-to value
/// must outlive the timer.
class ScopedVirtualTimer {
 public:
  ScopedVirtualTimer(Histogram& h, const u64* clock_ns) : h_(h), clock_(clock_ns), t0_(*clock_ns) {}
  ~ScopedVirtualTimer() { h_.record(*clock_ - t0_); }
  ScopedVirtualTimer(const ScopedVirtualTimer&) = delete;
  ScopedVirtualTimer& operator=(const ScopedVirtualTimer&) = delete;

 private:
  Histogram& h_;
  const u64* clock_;
  u64 t0_;
};

/// Point-in-time copy of one histogram: the exact aggregates plus every
/// nonzero (bucket index, count) pair — enough to re-estimate quantiles, to
/// export bucket boundaries (Prometheus), and to diff two snapshots
/// bucket-wise.
struct HistSnap {
  u64 count = 0;
  u64 sum = 0;
  u64 min = 0;
  u64 max = 0;
  std::vector<std::pair<u32, u64>> buckets;  // (bucket index, count), nonzero only

  double mean() const;
  /// Interpolated quantile estimate, q in [0, 1]. Degenerate inputs have
  /// defined values: 0 when empty, the sample itself when min == max (in
  /// particular the single-sample case) — never bucket interpolation noise.
  u64 quantile(double q) const;
};

/// One snapshotted metric value. For counters and gauges `num` holds the
/// value; in a diff it holds the delta (counter deltas are signed too, so a
/// reset between snapshots is visible instead of wrapping).
struct SnapValue {
  MetricKind kind = MetricKind::kCounter;
  i64 num = 0;
  HistSnap hist;
};

/// Full-registry snapshot: name -> value, taken atomically enough for
/// metric-delta assertions (each metric is read with relaxed loads; the map
/// itself is captured under the registry lock).
struct Snapshot {
  std::map<std::string, SnapValue> values;

  const SnapValue* find(const std::string& name) const;
  /// Numeric accessor: counter/gauge value, histogram count. 0 if absent.
  i64 num(const std::string& name) const;
};

/// Thread-safe metric registry. Names are hierarchical dotted paths; the
/// first accessor for a name creates the metric, later accessors return the
/// same object (a kind mismatch on an existing name is a programmer error
/// and panics). Metrics are never removed, so references stay valid for the
/// registry's lifetime — cache them on hot paths.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Metric registered under `name`, or nullopt. Second member is the kind.
  bool contains(const std::string& name) const;
  size_t size() const;

  /// Read-only value of a registered counter (0 when absent or not a
  /// counter) — lets auditors cross-check without creating metrics.
  u64 counter_value(const std::string& name) const;

  /// Point-in-time copy of every metric.
  Snapshot snapshot() const;

  /// Element-wise `after - before`: counters and gauges subtract, histograms
  /// subtract count/sum/buckets (min/max are re-derived from the surviving
  /// delta buckets). Tests assert on deltas instead of absolutes, so shared
  /// global-registry state from earlier phases cancels out.
  static Snapshot diff(const Snapshot& before, const Snapshot& after);

  /// Zero every metric's value, keeping all registered objects alive (so
  /// cached references survive). Intended for tests and for the start of a
  /// measurement phase.
  void reset_values();

  /// Flat JSON object: {"name": 123, "hist": {"count":...,"p50":...}, ...},
  /// keys sorted. Machine-readable and line-diffable.
  std::string json() const;

  /// Human-readable two-column dump of every metric (the "one consistent
  /// metrics block" the examples print). `skip_zero` drops never-touched
  /// metrics to keep interactive output readable.
  std::string text(bool skip_zero = false) const;

  /// The process-wide registry every subsystem reports into.
  static Registry& global();

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<Histogram> h;
  };

  Entry& get_or_create(const std::string& name, MetricKind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry> metrics_;
};

/// `s` as the body of a JSON string: quotes, backslashes and every C0
/// control byte escaped. The one escaper behind every JSON export.
std::string json_escape(std::string_view s);

}  // namespace crp::obs
