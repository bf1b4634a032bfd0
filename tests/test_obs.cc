// crp::obs unit tests: counter/gauge semantics, histogram bucket math and
// quantile accuracy, registry get-or-create + kind collisions, concurrent
// increments, JSON snapshot round-trip, snapshot/diff, Prometheus
// exposition, bench-snapshot parsing, journal ring + trace export.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "chaos/chaos.h"
#include "obs/bench_support.h"
#include "obs/expo.h"
#include "obs/journal.h"
#include "obs/obs.h"

namespace crp::obs {
namespace {

TEST(Counter, IncAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, RuntimeDisableDropsIncrements) {
  Counter c;
  set_runtime_enabled(false);
  c.inc(100);
  set_runtime_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  c.inc(5);
  EXPECT_EQ(c.value(), 5u);
}

TEST(Gauge, SetAddUpdateMax) {
  Gauge g;
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  g.add(10);
  EXPECT_EQ(g.value(), 3);
  g.update_max(100);
  EXPECT_EQ(g.value(), 100);
  g.update_max(50);  // lower value must not win
  EXPECT_EQ(g.value(), 100);
}

TEST(Histogram, ExactSmallValues) {
  Histogram h;
  for (u64 v = 0; v < 4; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), v);
    EXPECT_EQ(Histogram::bucket_lo(static_cast<u32>(v)), v);
    EXPECT_EQ(Histogram::bucket_hi(static_cast<u32>(v)), v + 1);
  }
  h.record(2);
  h.record(2);
  EXPECT_EQ(h.quantile(0.5), 2u);
}

TEST(Histogram, BucketRangesInvertible) {
  // Every bucket's range must map back to the same bucket, and boundary
  // values must land in adjacent buckets.
  for (u32 idx = 0; idx < Histogram::kNumBuckets; ++idx) {
    u64 lo = Histogram::bucket_lo(idx);
    EXPECT_EQ(Histogram::bucket_index(lo), idx) << "lo of bucket " << idx;
    u64 hi = Histogram::bucket_hi(idx);
    EXPECT_EQ(Histogram::bucket_index(hi - 1), idx) << "hi-1 of bucket " << idx;
    if (idx + 1 < Histogram::kNumBuckets)
      EXPECT_EQ(Histogram::bucket_index(hi), idx + 1) << "hi of bucket " << idx;
  }
  EXPECT_EQ(Histogram::bucket_index(~0ull), Histogram::kNumBuckets - 1);
}

TEST(Histogram, StatsExact) {
  Histogram h;
  h.record(10);
  h.record(20);
  h.record(30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 60u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 30u);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Histogram, QuantilesOfUniformDistribution) {
  Histogram h;
  for (u64 v = 1; v <= 10000; ++v) h.record(v);
  // Log-bucketing bounds relative quantile error by 1/kSubBuckets = 25%.
  for (double q : {0.50, 0.95, 0.99}) {
    double exact = q * 10000.0;
    double est = static_cast<double>(h.quantile(q));
    EXPECT_NEAR(est, exact, exact * 0.25) << "q=" << q;
  }
  EXPECT_EQ(h.quantile(0.0), 1u);
  EXPECT_EQ(h.quantile(1.0), 10000u);
}

TEST(Histogram, QuantileClampedToObservedRange) {
  Histogram h;
  h.record(1000);
  // A single sample: every quantile is that sample, not a bucket edge.
  EXPECT_EQ(h.quantile(0.5), 1000u);
  EXPECT_EQ(h.quantile(0.99), 1000u);
}

TEST(Histogram, QuantileDegenerateCases) {
  // Empty histogram: every quantile is 0, not a bucket artifact.
  Histogram empty;
  EXPECT_EQ(empty.quantile(0.0), 0u);
  EXPECT_EQ(empty.quantile(0.5), 0u);
  EXPECT_EQ(empty.quantile(1.0), 0u);
  // Repeated single value: min == max, so every quantile is THE value even
  // though the bucket midpoint would land elsewhere.
  Histogram h;
  for (int i = 0; i < 7; ++i) h.record(1000);
  EXPECT_EQ(h.quantile(0.0), 1000u);
  EXPECT_EQ(h.quantile(0.5), 1000u);
  EXPECT_EQ(h.quantile(0.99), 1000u);
  EXPECT_EQ(h.quantile(1.0), 1000u);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(123);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(Registry, GetOrCreateReturnsSameObject) {
  Registry r;
  Counter& a = r.counter("x.count");
  Counter& b = r.counter("x.count");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.contains("x.count"));
  EXPECT_FALSE(r.contains("y.count"));
}

TEST(RegistryDeathTest, KindCollisionPanics) {
  Registry r;
  r.counter("name");
  EXPECT_DEATH(r.gauge("name"), "registered as");
}

TEST(Registry, ResetValuesKeepsObjects) {
  Registry r;
  Counter& c = r.counter("c");
  c.inc(9);
  r.reset_values();
  EXPECT_EQ(c.value(), 0u);       // same object, zeroed
  EXPECT_EQ(&r.counter("c"), &c);
}

TEST(Registry, ConcurrentIncrementsExact) {
  Registry r;
  Counter& c = r.counter("shared");
  constexpr int kThreads = 8;
  constexpr u64 kPer = 10000;
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i)
    ts.emplace_back([&c] {
      for (u64 j = 0; j < kPer; ++j) c.inc();
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), kThreads * kPer);
}

TEST(Registry, ConcurrentGetOrCreate) {
  Registry r;
  std::vector<std::thread> ts;
  for (int i = 0; i < 8; ++i)
    ts.emplace_back([&r] {
      for (int j = 0; j < 100; ++j) r.counter("same.name").inc();
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.counter("same.name").value(), 800u);
}

/// Registry::json() read back through the reader benchdiff and crptop use.
expo::BenchDoc read_back(const Registry& r) {
  expo::BenchDoc doc;
  EXPECT_TRUE(expo::parse_bench_json(r.json(), &doc));
  return doc;
}

TEST(Registry, JsonRoundTrip) {
  Registry r;
  r.counter("a.count").inc(42);
  r.gauge("b.gauge").set(-5);
  Histogram& h = r.histogram("c.hist");
  for (u64 v = 1; v <= 100; ++v) h.record(v);

  expo::BenchDoc doc = read_back(r);
  ASSERT_TRUE(doc.has("a.count"));
  EXPECT_DOUBLE_EQ(doc.get("a.count"), 42.0);
  ASSERT_TRUE(doc.has("b.gauge"));
  EXPECT_DOUBLE_EQ(doc.get("b.gauge"), -5.0);
  ASSERT_TRUE(doc.has("c.hist/count"));
  EXPECT_DOUBLE_EQ(doc.get("c.hist/count"), 100.0);
  ASSERT_TRUE(doc.has("c.hist/sum"));
  EXPECT_DOUBLE_EQ(doc.get("c.hist/sum"), 5050.0);
  ASSERT_TRUE(doc.has("c.hist/p50"));
  EXPECT_NEAR(doc.get("c.hist/p50"), 50.0, 13.0);
  EXPECT_FALSE(doc.has("missing"));
}

TEST(Registry, JsonEscapesControlCharacters) {
  // Metric names with quotes, backslashes, and C0 controls must serialize to
  // valid JSON (RFC 8259 bans raw controls inside strings); json_escape used
  // to pass \n & co. straight through, producing unparseable snapshots.
  Registry r;
  r.counter("with\"quote").inc(1);
  r.counter("with\\backslash").inc(2);
  r.counter("tab\there").inc(3);
  r.counter("newline\nhere").inc(4);
  r.counter(std::string("nul\x01") + "byte").inc(5);
  std::string j = r.json();
  EXPECT_NE(j.find("with\\\"quote"), std::string::npos);
  EXPECT_NE(j.find("with\\\\backslash"), std::string::npos);
  EXPECT_NE(j.find("tab\\there"), std::string::npos);
  EXPECT_NE(j.find("newline\\nhere"), std::string::npos);
  EXPECT_NE(j.find("nul\\u0001byte"), std::string::npos);
  // No raw control byte may survive into the serialized document.
  for (char c : j) EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n');
  // ...and the reader restores every name byte for byte.
  expo::BenchDoc doc = read_back(r);
  EXPECT_DOUBLE_EQ(doc.get("with\"quote"), 1.0);
  EXPECT_DOUBLE_EQ(doc.get("with\\backslash"), 2.0);
  EXPECT_DOUBLE_EQ(doc.get("tab\there"), 3.0);
  EXPECT_DOUBLE_EQ(doc.get("newline\nhere"), 4.0);
  EXPECT_DOUBLE_EQ(doc.get(std::string("nul\x01") + "byte"), 5.0);
}

TEST(Registry, JsonEscapedNamesStillQueryable) {
  Registry r;
  r.counter("weird\tname").inc(9);
  // The reader decodes the escapes json_escape wrote, so lookups by the
  // raw name keep working.
  expo::BenchDoc doc = read_back(r);
  ASSERT_TRUE(doc.has("weird\tname"));
  EXPECT_DOUBLE_EQ(doc.get("weird\tname"), 9.0);
}

TEST(Registry, GlobalIsSingleton) {
  EXPECT_EQ(&Registry::global(), &Registry::global());
}

TEST(Registry, CounterValueReadOnly) {
  Registry r;
  r.counter("c").inc(7);
  r.gauge("g").set(3);
  EXPECT_EQ(r.counter_value("c"), 7u);
  EXPECT_EQ(r.counter_value("g"), 0u);        // not a counter
  EXPECT_EQ(r.counter_value("missing"), 0u);  // absent: not created
  EXPECT_FALSE(r.contains("missing"));
}

TEST(Snapshot, CarriesAllThreeKinds) {
  Registry r;
  r.counter("c").inc(5);
  r.gauge("g").set(-2);
  r.histogram("h").record(100);
  Snapshot s = r.snapshot();
  EXPECT_EQ(s.num("c"), 5);
  EXPECT_EQ(s.num("g"), -2);
  EXPECT_EQ(s.num("h"), 1);  // histograms read as their count
  ASSERT_NE(s.find("h"), nullptr);
  EXPECT_EQ(s.find("h")->hist.sum, 100u);
  EXPECT_EQ(s.find("nope"), nullptr);
  EXPECT_EQ(s.num("nope"), 0);
}

TEST(Snapshot, DiffAllThreeKinds) {
  Registry r;
  Counter& c = r.counter("c");
  Gauge& g = r.gauge("g");
  Histogram& h = r.histogram("h");
  c.inc(10);
  g.set(5);
  h.record(100);
  Snapshot before = r.snapshot();
  c.inc(7);
  g.set(2);  // gauges can go down: diff is signed
  h.record(100);
  h.record(200);
  Snapshot after = r.snapshot();

  Snapshot d = Registry::diff(before, after);
  EXPECT_EQ(d.num("c"), 7);
  EXPECT_EQ(d.num("g"), -3);
  const SnapValue* hv = d.find("h");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->hist.count, 2u);
  EXPECT_EQ(hv->hist.sum, 300u);
  // Metrics created between the snapshots appear with their full value.
  r.counter("new").inc(4);
  d = Registry::diff(before, r.snapshot());
  EXPECT_EQ(d.num("new"), 4);
}

TEST(Expo, PrometheusTextFormat) {
  Registry r;
  r.counter("oracle.scan.probes").inc(42);
  r.gauge("bench.wall_ns").set(1000);
  Histogram& h = r.histogram("sat.solve_ns");
  h.record(3);
  h.record(100);
  std::string text = expo::prometheus_text(r.snapshot());
  EXPECT_NE(text.find("# TYPE crp_oracle_scan_probes counter"), std::string::npos);
  EXPECT_NE(text.find("crp_oracle_scan_probes 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE crp_bench_wall_ns gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE crp_sat_solve_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("crp_sat_solve_ns_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("crp_sat_solve_ns_sum 103"), std::string::npos);
  EXPECT_NE(text.find("crp_sat_solve_ns_count 2"), std::string::npos);
  // Cumulative bucket series: the le="3" bucket holds 1 sample.
  EXPECT_NE(text.find("crp_sat_solve_ns_bucket{le=\"3\"} 1"), std::string::npos);
}

TEST(Expo, ParseBenchJsonRoundTrip) {
  // Feed the parser exactly what BenchSession writes.
  Registry r;
  r.counter("vm.instr_retired").inc(12345);
  r.gauge("bench.wall_ns").set(999);
  Histogram& h = r.histogram("sat.solve_ns");
  for (u64 v = 1; v <= 100; ++v) h.record(v);
  std::string body = "{\n\"bench\": \"t1\",\n\"schema\": 1,\n\"metrics\": ";
  body += r.json();
  body += "\n}\n";

  expo::BenchDoc doc;
  ASSERT_TRUE(expo::parse_bench_json(body, &doc));
  EXPECT_EQ(doc.bench, "t1");
  EXPECT_EQ(doc.schema, 1);
  EXPECT_DOUBLE_EQ(doc.get("vm.instr_retired"), 12345.0);
  EXPECT_DOUBLE_EQ(doc.get("bench.wall_ns"), 999.0);
  EXPECT_DOUBLE_EQ(doc.get("sat.solve_ns/count"), 100.0);
  EXPECT_DOUBLE_EQ(doc.get("sat.solve_ns/sum"), 5050.0);
  EXPECT_TRUE(doc.has("sat.solve_ns/p95"));
  EXPECT_FALSE(doc.has("missing"));
  EXPECT_DOUBLE_EQ(doc.get("missing", -1.0), -1.0);

  expo::BenchDoc bad;
  EXPECT_FALSE(expo::parse_bench_json("not json at all", &bad));
  // Escapes json_escape never writes (unknown, cut, non-hex, non-ASCII)
  // are malformed, not guessed at.
  EXPECT_FALSE(expo::parse_bench_json("{\"a\\q\": 1}", &bad));
  EXPECT_FALSE(expo::parse_bench_json("{\"a\\u00\": 1}", &bad));
  EXPECT_FALSE(expo::parse_bench_json("{\"a\\u00zz\": 1}", &bad));
  EXPECT_FALSE(expo::parse_bench_json("{\"a\\u00e9\": 1}", &bad));
  EXPECT_FALSE(expo::parse_bench_json("{\"a\\", &bad));
}

TEST(ScopedTimerTest, RecordsOneSample) {
  Histogram h;
  { ScopedTimer t(h); }
  EXPECT_EQ(h.count(), 1u);
}

TEST(ScopedVirtualTimerTest, RecordsClockDelta) {
  Histogram h;
  u64 clock = 1000;
  {
    ScopedVirtualTimer t(h, &clock);
    clock = 5000;
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 4000u);
}

TEST(JournalTest, CapacityBoundAndDropCount) {
  Journal j(4);
  for (u64 i = 0; i < 10; ++i) j.instant("e", "t", i);
  EXPECT_EQ(j.size(), 4u);
  EXPECT_EQ(j.dropped(), 6u);
  j.clear();
  EXPECT_EQ(j.size(), 0u);
}

TEST(JournalTest, ChromeTraceSortedAndValid) {
  Journal j(16);
  // Emit out of order; the exporter must sort by timestamp.
  j.span("b", "cat", 200, 10);
  j.span("a", "cat", 100, 10);
  j.instant("mark", "cat", 150);
  std::string out = j.chrome_trace_json();
  EXPECT_EQ(out.front(), '[');
  EXPECT_EQ(out.back(), ']');
  size_t pa = out.find("\"ts\": 100");
  size_t pm = out.find("\"ts\": 150");
  size_t pb = out.find("\"ts\": 200");
  ASSERT_NE(pa, std::string::npos);
  ASSERT_NE(pm, std::string::npos);
  ASSERT_NE(pb, std::string::npos);
  EXPECT_LT(pa, pm);
  EXPECT_LT(pm, pb);
  EXPECT_NE(out.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"i\""), std::string::npos);
}

TEST(JournalTest, DisabledJournalRecordsNothing) {
  Journal j(16);
  set_runtime_enabled(false);
  j.instant("e", "t", 1);
  set_runtime_enabled(true);
  EXPECT_EQ(j.size(), 0u);
}

TEST(Preregister, ChaosAndCacheCountersAreInTheSnapshotSchema) {
  // Regression: the exposition schema must carry the fault-injection and
  // artifact-cache counters even on clean runs (value 0), so a snapshot
  // diff between a clean and a chaos run shows exactly what was injected
  // instead of silently omitting untouched layers.
  preregister_core_metrics();
  Snapshot snap = Registry::global().snapshot();
  for (u32 i = 0; i < chaos::kNumPoints; ++i) {
    std::string name = std::string("chaos.injected.") +
                       chaos::point_name(static_cast<chaos::Point>(i));
    std::replace(name.begin(), name.end(), '-', '_');
    EXPECT_NE(snap.find(name), nullptr) << name;
  }
  for (const char* name : {"pipeline.cache.hits", "pipeline.cache.misses",
                           "pipeline.cache.stores", "pipeline.cache.corrupt",
                           "pipeline.campaign.targets_run", "bench.instr_virtual"})
    EXPECT_NE(snap.find(name), nullptr) << name;

  // The counters flow through both exposition formats under their names.
  std::string prom = expo::prometheus_text(snap);
  EXPECT_NE(prom.find("crp_chaos_injected_sys_efault"), std::string::npos);
  EXPECT_NE(prom.find("crp_chaos_injected_cache_corrupt"), std::string::npos);
  EXPECT_NE(prom.find("crp_pipeline_cache_corrupt"), std::string::npos);

  // And a diff across an injection is attributed to the right counter.
  Snapshot before = Registry::global().snapshot();
  Registry::global().counter("chaos.injected.vm_av").inc(3);
  Snapshot d = Registry::diff(before, Registry::global().snapshot());
  EXPECT_EQ(d.num("chaos.injected.vm_av"), 3);
  EXPECT_EQ(d.num("chaos.injected.sys_efault"), 0);
}

}  // namespace
}  // namespace crp::obs
