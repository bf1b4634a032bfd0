// crp::obs::Profiler — virtual-time sampling: context scopes, exact heat
// tallies, deterministic exports, and the two acceptance properties of the
// profiler subsystem: identical hot-block tables at any job count, and
// crash-free coexistence with the chaos engine.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "pipeline/campaign.h"
#include "targets/nginx.h"

namespace crp::obs {
namespace {

TEST(ProfFlags, NameRendering) {
  EXPECT_EQ(prof_flags_name(0), "-");
  EXPECT_EQ(prof_flags_name(kProfProbe), "probe");
  EXPECT_EQ(prof_flags_name(kProfTaint), "taint");
  EXPECT_EQ(prof_flags_name(kProfFilter), "filter");
  EXPECT_EQ(prof_flags_name(kProfProbe | kProfFilter), "probe|filter");
  EXPECT_EQ(prof_flags_name(kProfProbe | kProfTaint | kProfFilter),
            "probe|taint|filter");
}

TEST(Profiler, InternIsStableAndZeroIsNone) {
  Profiler p;
  EXPECT_EQ(p.name_of(0), "-");
  u32 a = p.intern("stage-a");
  u32 b = p.intern("stage-b");
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(p.intern("stage-a"), a);  // idempotent
  EXPECT_EQ(p.name_of(a), "stage-a");
  EXPECT_EQ(p.name_of(b), "stage-b");
  EXPECT_EQ(p.name_of(999), "-");  // out of range never throws
}

TEST(Profiler, InternIsStableAndBounded) {
  Profiler p;
  u32 a = p.intern("alpha");
  for (u32 i = 0; i < Profiler::kMaxNames + 8; ++i)
    p.intern(strf("blk-%u", i));
  EXPECT_EQ(p.intern("alpha"), a);  // still idempotent when full
  EXPECT_EQ(p.intern("one-more"), 0u);  // table full folds to id 0
  EXPECT_EQ(p.name_of(Profiler::kMaxNames), "-");
}

TEST(Profiler, ContextScopesNestAndRestore) {
  Profiler& g = Profiler::global();
  u64 prev_interval = g.interval();
  g.set_interval(100);  // scopes only intern while enabled
  ProfContext before = Profiler::context();
  {
    ScopedProfStage stage("test-stage");
    ScopedProfTarget target("test-target");
    ScopedProfFlags flags(kProfProbe);
    EXPECT_NE(Profiler::context().stage, 0u);
    EXPECT_NE(Profiler::context().target, 0u);
    EXPECT_EQ(Profiler::context().flags & kProfProbe, kProfProbe);
    EXPECT_EQ(g.name_of(Profiler::context().stage), "test-stage");
    {
      ScopedProfStage inner("inner-stage");
      EXPECT_EQ(g.name_of(Profiler::context().stage), "inner-stage");
      ScopedProfFlags more(kProfTaint);
      EXPECT_EQ(Profiler::context().flags & (kProfProbe | kProfTaint),
                kProfProbe | kProfTaint);
    }
    EXPECT_EQ(g.name_of(Profiler::context().stage), "test-stage");
    EXPECT_EQ(Profiler::context().flags & kProfTaint, 0);
  }
  EXPECT_EQ(Profiler::context().stage, before.stage);
  EXPECT_EQ(Profiler::context().target, before.target);
  EXPECT_EQ(Profiler::context().flags, before.flags);
  g.set_interval(prev_interval);
  g.clear();
}

TEST(Profiler, DisabledScopesNeverIntern) {
  Profiler& g = Profiler::global();
  u64 prev_interval = g.interval();
  g.set_interval(0);
  {
    ScopedProfStage stage("unseen-stage");
    ScopedProfTarget target("unseen-target");
    EXPECT_EQ(Profiler::context().stage, 0u);
    EXPECT_EQ(Profiler::context().target, 0u);
  }
  g.set_interval(prev_interval);
}

TEST(Profiler, HeatIsExactAndSortedDeterministically) {
  Profiler p;
  p.set_interval(1);
  u32 blk_a = p.intern("mod+0x10");
  u32 blk_b = p.intern("mod+0x20");
  u32 stage = p.intern("verify");
  for (int i = 0; i < 5; ++i)
    p.record({blk_a, stage, 0, 0, 0});
  for (int i = 0; i < 3; ++i)
    p.record({blk_b, stage, 0, 0, 0});

  std::vector<Profiler::HeatRow> rows = p.heat();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].block, "mod+0x10");  // samples desc
  EXPECT_EQ(rows[0].samples, 5u);
  EXPECT_EQ(rows[0].stage, "verify");
  EXPECT_EQ(rows[1].block, "mod+0x20");
  EXPECT_EQ(rows[1].samples, 3u);
  EXPECT_EQ(p.samples(), 8u);

  auto hot = p.hot_blocks(1);
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot[0].first, "mod+0x10");
  EXPECT_EQ(hot[0].second, 5u);

  p.clear();
  EXPECT_EQ(p.samples(), 0u);
  EXPECT_TRUE(p.heat().empty());
}

TEST(Profiler, HeatTieBreaksOnNamesNotIds) {
  // Two interleavings that intern names in opposite orders must export the
  // same table: the sort key is the resolved name, never the id.
  auto run = [](bool swap) {
    Profiler p;
    p.set_interval(1);
    u32 first = p.intern(swap ? "mod+0x200" : "mod+0x100");
    u32 second = p.intern(swap ? "mod+0x100" : "mod+0x200");
    p.record({first, 0, 0, 0, 0});
    p.record({second, 0, 0, 0, 0});
    return p.heat();
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Profiler, CollapsedAndReportShapes) {
  Profiler p;
  p.set_interval(10);
  u32 blk = p.intern("nginx_sim+0x40");
  u32 stage = p.intern("verify");
  u32 target = p.intern("nginx_sim");
  p.record({blk, stage, target, 0, kProfProbe});

  std::string folded = p.collapsed();
  EXPECT_NE(folded.find("nginx_sim;verify;-;nginx_sim+0x40 [probe] 1"),
            std::string::npos)
      << folded;

  std::string json = p.report_json("unit", 10);
  EXPECT_NE(json.find("\"prof\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"interval\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"rank\": 1"), std::string::npos);
  EXPECT_NE(json.find("nginx_sim+0x40"), std::string::npos);
  // Bit-identity contract: no scheduling-dependent fields in the report.
  EXPECT_EQ(json.find("dropped"), std::string::npos);
}

// --- the determinism acceptance property -------------------------------------

/// One profiled syscall-funnel scan with its batches forced to `jobs` workers.
/// Fresh ArtifactStore so every run computes instead of replaying the cache.
std::string profiled_scan_collapsed(int jobs) {
  Profiler& g = Profiler::global();
  g.clear();
  pipeline::TargetRegistry reg = pipeline::TargetRegistry::builtin();
  pipeline::ArtifactStore store;
  pipeline::CampaignOptions opts;
  opts.jobs = jobs;
  pipeline::Campaign campaign(opts, &store);
  pipeline::TargetReport rep = campaign.run_target(*reg.find("server/nginx_sim"));
  EXPECT_FALSE(rep.cache_hit);
  EXPECT_GT(g.samples(), 0u) << "profiled scan took no samples";
  return g.collapsed();
}

TEST(Profiler, HotBlockTableIdenticalAcrossJobCounts) {
  Profiler& g = Profiler::global();
  u64 prev_interval = g.interval();
  g.set_interval(500);  // fine-grained: thousands of samples per scan

  std::string serial = profiled_scan_collapsed(1);
  std::string parallel = profiled_scan_collapsed(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);

  g.set_interval(prev_interval);
  g.clear();
}

// --- profiler + chaos coexistence --------------------------------------------

TEST(Profiler, ChaosSweepStaysCrashFree) {
  Profiler& g = Profiler::global();
  u64 prev_interval = g.interval();
  g.set_interval(1000);

  pipeline::TargetRegistry reg = pipeline::TargetRegistry::builtin();
  const pipeline::TargetSpec* nginx = reg.find("server/nginx_sim");
  ASSERT_NE(nginx, nullptr);
  pipeline::CampaignOptions opts;
  opts.jobs = 2;
  for (u64 seed = 1; seed <= 8; ++seed) {
    chaos::FaultPlan plan;
    plan.seed = seed;
    plan.rate = 16;
    plan.points = chaos::kIoPoints;
    chaos::ScopedPlan scoped(plan);

    g.clear();
    // The server cell's steps, verify on two workers, driven directly. Not
    // run_target: each job step runs under its own chaos::TaskScope, which
    // changes the faults, and on some seeds no machine then reaches the
    // interval.
    std::unique_ptr<pipeline::TargetCell> cell =
        pipeline::plan_target(opts, nullptr, *nginx);
    while (!cell->done()) cell->run_step();
    const analysis::SyscallScanResult& scan = cell->report().server.result;
    // The scan must complete and sample under fault injection; the scan
    // rendering its table proves no probe escaped as a real crash.
    EXPECT_GT(g.samples(), 0u) << "seed " << seed;
    EXPECT_FALSE(scan.candidates.empty()) << "seed " << seed;
  }

  g.set_interval(prev_interval);
  g.clear();
}

}  // namespace
}  // namespace crp::obs
