// crp::chaos tests — the fault-injection engine and property layer.
//
// Covers the ISSUE satellites: plan parsing + determinism at any job count,
// every injection point firing (engine-level and through its real
// subsystem), replay-from-seed-line reproduction, shrinker convergence on a
// planted bug, and the acceptance scenario: a planted vm-av seed whose
// crash is caught by the ledger audit and shrunk to a tiny replay line.

#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>

#include "chaos/chaos.h"
#include "chaos/prop.h"
#include "exec/thread_pool.h"
#include "isa/assembler.h"
#include "obs/ledger.h"
#include "obs/obs.h"
#include "oracle/oracle.h"
#include "os/kernel.h"
#include "pipeline/artifact_store.h"
#include "targets/common.h"
#include "targets/nginx.h"

namespace crp::chaos {
namespace {

using isa::Assembler;
using isa::Cond;
using isa::Reg;

void emit_syscall(Assembler& a, os::Sys nr) {
  a.movi(Reg::R0, static_cast<i64>(nr));
  a.syscall();
}

struct LinuxWorld {
  os::Kernel k;
  int pid;

  explicit LinuxWorld(isa::Image img, u64 seed = 11) : pid(0) {
    pid = k.create_process(img.name, vm::Personality::kLinux, seed);
    k.proc(pid).load(std::make_shared<isa::Image>(std::move(img)));
    k.start_process(pid);
  }
  os::Process& p() { return k.proc(pid); }
};

std::string fresh_dir(const char* tag) {
  std::string dir = ::testing::TempDir() + "crp_chaos_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

size_t disk_artifacts(const std::string& dir) {
  size_t n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator(dir, ec);
       !ec && it != std::filesystem::directory_iterator(); ++it)
    if (it->path().extension() == ".artifact") ++n;
  return n;
}

// --- plan parsing -------------------------------------------------------------

TEST(Plan, ParseDefaultsAndGroups) {
  FaultPlan p;
  ASSERT_TRUE(parse_plan("42", &p));
  EXPECT_EQ(p.seed, 42u);
  EXPECT_EQ(p.points, kIoPoints);
  EXPECT_FALSE(p.replay);

  ASSERT_TRUE(parse_plan("0x2a:all", &p));
  EXPECT_EQ(p.seed, 42u);
  EXPECT_EQ(p.points, kAllPoints);

  ASSERT_TRUE(parse_plan("7:rate=8,vm", &p));
  EXPECT_EQ(p.rate, 8u);
  EXPECT_EQ(p.points, kVmPoints);

  ASSERT_TRUE(parse_plan("5:sys-eintr,cache-corrupt", &p));
  EXPECT_EQ(p.points, point_bit(Point::kSysEintr) | point_bit(Point::kCacheCorrupt));
}

TEST(Plan, ParseReplayEvents) {
  FaultPlan p;
  ASSERT_TRUE(parse_plan("9:sys-eintr@1f.3,vm-av@2.0", &p));
  EXPECT_TRUE(p.replay);
  ASSERT_EQ(p.events.size(), 2u);
  // Events come back sorted by (salt, index, point).
  EXPECT_EQ(p.events[0], (FaultEvent{0x2, 0, Point::kVmAv}));
  EXPECT_EQ(p.events[1], (FaultEvent{0x1f, 3, Point::kSysEintr}));
  EXPECT_EQ(p.points, point_bit(Point::kSysEintr) | point_bit(Point::kVmAv));
}

TEST(Plan, StrRoundTrips) {
  for (const char* spec : {"42", "7:rate=8,vm", "5:sys-eintr,cache-corrupt",
                           "9:vm-av@2.0,sys-eintr@1f.3", "1:all"}) {
    FaultPlan p, q;
    ASSERT_TRUE(parse_plan(spec, &p)) << spec;
    ASSERT_TRUE(parse_plan(p.str(), &q)) << spec << " -> " << p.str();
    EXPECT_EQ(p.seed, q.seed) << spec;
    EXPECT_EQ(p.rate, q.rate) << spec;
    EXPECT_EQ(p.points, q.points) << spec;
    EXPECT_EQ(p.replay, q.replay) << spec;
    EXPECT_EQ(p.events, q.events) << spec;
  }
}

TEST(Plan, ParseRejectsGarbage) {
  FaultPlan p;
  std::string err;
  EXPECT_FALSE(parse_plan("", &p, &err));
  EXPECT_FALSE(parse_plan("nope", &p, &err));
  EXPECT_FALSE(parse_plan("5:bogus-point", &p, &err));
  EXPECT_NE(err.find("bogus-point"), std::string::npos);
  EXPECT_FALSE(parse_plan("5:rate=0", &p, &err));
  EXPECT_FALSE(parse_plan("5:sys-eintr@zz.q", &p, &err));
  EXPECT_FALSE(parse_plan("5:io@1.2", &p, &err));  // group in a replay event
}

// --- determinism at any job count ---------------------------------------------

TEST(Plan, DeterminismAcrossJobCounts) {
  // Same plan, same work, jobs=1 vs jobs=4: identical merged outputs AND an
  // identical fired-event trace. Salts follow the task index, never the
  // thread, so this holds even with task-order perturbation enabled.
  FaultPlan plan;
  plan.seed = 42;
  plan.rate = 3;
  plan.points = kIoPoints | point_bit(Point::kTaskOrder);
  install(&plan);

  auto run = [](int jobs) {
    TaskScope reset(7);  // pin the caller's salt context per run
    clear_injected_events();
    std::vector<int> items(16);
    auto out = exec::parallel_map(jobs, items, [](size_t, const int&) {
      FaultStream s = make_stream(kIoPoints);
      u64 acc = 0;
      for (int j = 0; j < 32; ++j)
        if (s.fire(Point::kSysEintr)) acc |= 1ull << j;
      return acc ^ s.draw(Point::kShortRead);
    });
    return std::pair{out, injected_events()};
  };

  auto [out1, ev1] = run(1);
  auto [out4, ev4] = run(4);
  install(nullptr);
  clear_injected_events();

  EXPECT_FALSE(ev1.empty());
  EXPECT_EQ(out1, out4);
  EXPECT_EQ(ev1, ev4);
}

// --- every point fires and is counted -----------------------------------------

TEST(Stream, EachPointFiresAndCounts) {
  for (u32 i = 0; i < kNumPoints; ++i) {
    Point p = static_cast<Point>(i);
    std::string counter = std::string("chaos.injected.") + point_name(p);
    std::replace(counter.begin(), counter.end(), '-', '_');
    u64 before = obs::Registry::global().counter(counter).value();

    FaultPlan plan;
    plan.seed = 1;
    plan.rate = 1;  // every site visit fires
    plan.points = point_bit(p);
    ScopedPlan scope(plan);
    FaultStream s = make_stream(point_bit(p));
    ASSERT_TRUE(s.armed()) << point_name(p);
    EXPECT_TRUE(i % 2 == 0 ? s.fire(p) : s.fire_keyed(p, 0xfeedu + i)) << point_name(p);
    // A point outside the plan never fires, even at rate 1.
    Point other = static_cast<Point>((i + 1) % kNumPoints);
    EXPECT_FALSE(s.fire(other)) << point_name(p);

    auto evs = scope.events();
    ASSERT_EQ(evs.size(), 1u) << point_name(p);
    EXPECT_EQ(evs[0].point, p);
    EXPECT_EQ(obs::Registry::global().counter(counter).value(), before + 1) << point_name(p);
  }
}

TEST(Stream, UnarmedStreamIsInert) {
  FaultStream s;  // no plan anywhere
  EXPECT_FALSE(s.armed());
  EXPECT_FALSE(s.fire(Point::kSysEintr));
  EXPECT_FALSE(s.fire_keyed(Point::kCacheCorrupt, 123));
}

// --- per-subsystem integration ------------------------------------------------

// os::Kernel: an injected -EINTR is retried by a well-behaved guest and the
// retry observes the same file bytes — the syscall converges to the same
// result it would have had without the fault.
TEST(Inject, KernelReadEintrRetriesToSameResult) {
  Assembler a("t");
  a.label("e");
  a.lea_pc(Reg::R1, "path");
  a.movi(Reg::R2, 0);
  emit_syscall(a, os::Sys::kOpen);
  a.mov(Reg::R5, Reg::R0);
  a.label("retry");
  a.mov(Reg::R1, Reg::R5);
  a.lea_pc(Reg::R2, "buf");
  a.movi(Reg::R3, 64);
  emit_syscall(a, os::Sys::kRead);
  a.cmpi(Reg::R0, -os::kEINTR);
  a.jcc(Cond::kEq, "retry");
  a.mov(Reg::R1, Reg::R0);
  emit_syscall(a, os::Sys::kExitGroup);
  a.set_entry("e");
  a.data_cstr("path", "/www/index.html");
  a.data_zero("buf", 64);

  FaultPlan plan;
  plan.seed = 3;
  plan.rate = 2;
  plan.points = point_bit(Point::kSysEintr);
  ScopedPlan scope(plan);
  LinuxWorld w(a.build());
  w.k.vfs().put_file("/www/index.html", "<html>hi</html>");
  w.k.run(300000);

  ASSERT_FALSE(w.p().alive());
  EXPECT_FALSE(w.p().exit_info().crashed);
  EXPECT_EQ(w.p().exit_info().code, 15);  // full payload despite retries
  auto evs = scope.events();
  ASSERT_FALSE(evs.empty());  // the fault actually fired at seed 3
  for (const FaultEvent& ev : evs) EXPECT_EQ(ev.point, Point::kSysEintr);
}

// vm::Machine: an injected access violation in a handler-less guest is an
// unhandled exception — the planted process death the audit must catch.
TEST(Inject, VmAvKillsHandlerlessGuest) {
  Assembler a("t");
  a.label("e");
  a.label("spin");
  a.jmp("spin");
  a.set_entry("e");

  FaultPlan plan;
  plan.seed = 1;
  plan.rate = 1;
  plan.points = point_bit(Point::kVmAv);
  ScopedPlan scope(plan);
  LinuxWorld w(a.build());
  w.k.run(5000);

  ASSERT_FALSE(w.p().alive());
  EXPECT_TRUE(w.p().exit_info().crashed);
  EXPECT_EQ(w.p().machine().exception_stats().unhandled, 1u);
  auto evs = scope.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].point, Point::kVmAv);
}

TEST(Inject, VmSingleStepKillsHandlerlessGuest) {
  Assembler a("t");
  a.label("e");
  a.label("spin");
  a.jmp("spin");
  a.set_entry("e");

  FaultPlan plan;
  plan.seed = 1;
  plan.rate = 1;
  plan.points = point_bit(Point::kVmSingleStep);
  ScopedPlan scope(plan);
  LinuxWorld w(a.build());
  w.k.run(5000);

  ASSERT_FALSE(w.p().alive());
  EXPECT_TRUE(w.p().exit_info().crashed);
  auto evs = scope.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].point, Point::kVmSingleStep);
}

// pipeline::ArtifactStore: a failed publish rename leaves no disk artifact;
// the in-memory tier still serves the value.
TEST(Inject, CacheRenameFailKeepsMemoryOnly) {
  std::string dir = fresh_dir("rename");
  FaultPlan plan;
  plan.seed = 1;
  plan.rate = 1;
  plan.points = point_bit(Point::kCacheRenameFail);
  ScopedPlan scope(plan);

  pipeline::ArtifactStore store;
  store.set_enabled(true);
  store.set_dir(dir);
  pipeline::ArtifactKey key{"stage", 0x11, 0x22};
  store.store(key, "payload");

  std::string got;
  EXPECT_TRUE(store.lookup(key, &got));  // memory tier unaffected
  EXPECT_EQ(got, "payload");
  EXPECT_EQ(disk_artifacts(dir), 0u);  // the rename "failed"
  auto evs = scope.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].point, Point::kCacheRenameFail);
  std::filesystem::remove_all(dir);
}

// pipeline::ArtifactStore: a corrupted disk blob is detected by the
// checksum header, counted, removed, and treated as a miss — never decoded.
TEST(Inject, CacheCorruptionDetectedAndRecomputed) {
  for (Point p : {Point::kCacheCorrupt, Point::kCacheTruncate}) {
    std::string dir = fresh_dir(point_name(p));
    pipeline::ArtifactKey key{"stage", 0x11, 0x22};
    {
      // Cold write with no chaos: a valid artifact lands on disk.
      pipeline::ArtifactStore writer;
      writer.set_enabled(true);
      writer.set_dir(dir);
      writer.store(key, "payload");
      ASSERT_EQ(disk_artifacts(dir), 1u) << point_name(p);
    }
    u64 corrupt_before = obs::Registry::global().counter("pipeline.cache.corrupt").value();
    FaultPlan plan;
    plan.seed = 1;
    plan.rate = 1;
    plan.points = point_bit(p);
    ScopedPlan scope(plan);

    pipeline::ArtifactStore reader;  // fresh process: memory tier is cold
    reader.set_enabled(true);
    reader.set_dir(dir);
    std::string got;
    EXPECT_FALSE(reader.lookup(key, &got)) << point_name(p);  // detect, don't decode
    EXPECT_EQ(reader.corrupt(), 1u) << point_name(p);
    EXPECT_EQ(obs::Registry::global().counter("pipeline.cache.corrupt").value(),
              corrupt_before + 1)
        << point_name(p);
    EXPECT_EQ(disk_artifacts(dir), 0u) << point_name(p);  // bad blob dropped
    // Detect-and-recompute: the caller stores the recomputed value and the
    // memory tier serves it even while the disk keeps failing.
    reader.store(key, "payload");
    EXPECT_TRUE(reader.lookup(key, &got)) << point_name(p);
    EXPECT_EQ(got, "payload") << point_name(p);
    std::filesystem::remove_all(dir);
  }
}

// exec batches: task-order perturbation shuffles execution order but the
// merged output is byte-identical — the determinism contract under chaos.
TEST(Inject, TaskOrderPerturbsExecutionNotOutput) {
  FaultPlan plan;
  plan.seed = 5;
  plan.rate = 1;
  plan.points = point_bit(Point::kTaskOrder);
  ScopedPlan scope(plan);

  std::vector<u64> executed;  // jobs=1: everything runs on this thread
  std::vector<int> items(8);
  auto out = exec::parallel_map(1, items, [&](size_t i, const int&) {
    executed.push_back(i);
    return static_cast<u64>(i) * 10;
  });

  ASSERT_EQ(out.size(), 8u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 10);  // input order
  std::vector<u64> identity(8);
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_NE(executed, identity);  // ...but execution really was perturbed
  auto evs = scope.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].point, Point::kTaskOrder);
}

// --- replay -------------------------------------------------------------------

TEST(Replay, FromSeedLineReproducesExactTrace) {
  auto drive = [](const FaultPlan& p) {
    ScopedPlan scope(p);
    FaultStream a = make_stream(kIoPoints);
    FaultStream b = make_stream(kCachePoints);
    std::string pat;
    for (int i = 0; i < 40; ++i) {
      pat += a.fire(Point::kSysEintr) ? 'I' : '.';
      pat += a.fire(Point::kShortRead) ? 'R' : '.';
      pat += b.fire_keyed(Point::kCacheCorrupt, 0xabcu + static_cast<u64>(i)) ? 'C' : '.';
    }
    return std::pair{pat, scope.events()};
  };

  FaultPlan rnd;
  rnd.seed = 123;
  rnd.rate = 5;
  rnd.points = kIoPoints | kCachePoints;
  auto [pat1, ev1] = drive(rnd);
  ASSERT_FALSE(ev1.empty());

  std::string line = format_replay(rnd.seed, ev1);
  FaultPlan replay;
  ASSERT_TRUE(parse_plan(line, &replay)) << line;
  EXPECT_TRUE(replay.replay);

  auto [pat2, ev2] = drive(replay);
  EXPECT_EQ(pat1, pat2);
  EXPECT_EQ(ev1, ev2);
}

// --- shrinking ----------------------------------------------------------------

TEST(Shrink, ConvergesOnPlantedBug) {
  // The planted bug: the body fails iff the injection at stream index 37
  // fires. Every other fired event is noise the shrinker must remove.
  Property body = [](u64) -> std::optional<std::string> {
    FaultStream s = make_stream(point_bit(Point::kSysEintr));
    bool bug = false;
    for (u64 i = 0; i < 100; ++i)
      if (s.fire(Point::kSysEintr) && i == 37) bug = true;
    if (bug) return "planted: injection at index 37 fired";
    return std::nullopt;
  };

  PropOptions opts;
  opts.seeds = 32;
  opts.base_seed = 1;
  opts.rate = 4;
  opts.points = point_bit(Point::kSysEintr);
  PropResult res = check("planted-idx37", opts, body);

  ASSERT_FALSE(res.ok()) << "no seed in the sweep tripped the planted bug";
  ASSERT_EQ(res.cex->events.size(), 1u) << res.summary();
  EXPECT_EQ(res.cex->events[0].index, 37u);
  EXPECT_EQ(res.cex->events[0].point, Point::kSysEintr);
  EXPECT_EQ(res.cex->message.find("[WARNING"), std::string::npos);

  // The emitted CRP_CHAOS line reproduces the failure on its own.
  FaultPlan replay;
  ASSERT_TRUE(parse_plan(res.cex->replay, &replay)) << res.cex->replay;
  EXPECT_TRUE(run_with_plan(replay, body).has_value());
}

// --- acceptance: planted crash caught by the audit and shrunk -----------------

TEST(Acceptance, PlantedVmAvCaughtByAuditAndShrunk) {
  // The full paper loop under vm fault injection: nginx + recv oracle +
  // hunt. A vm-av injected mid-probing kills the server; the Scanner
  // records the alive->dead transition and the ledger audit goes red. The
  // property layer must catch that, shrink it to a <=3-event replay line,
  // and that line must reproduce.
  Property body = [](u64) -> std::optional<std::string> {
    obs::Ledger::global().clear();
    os::Kernel k;
    auto t = targets::make_nginx();
    int pid = t.instantiate(k, 0x90A);
    k.run(3'000'000);
    if (!k.proc(pid).alive()) return std::nullopt;  // died before probing: not our bug
    gva_t hidden = targets::plant_hidden_region(k.proc(pid), 8 * 4096, 1);
    oracle::NginxRecvOracle oracle(k, pid, targets::kNginxPort);
    oracle::Scanner scanner(oracle);
    scanner.hunt(hidden - 64 * 4096, hidden + 64 * 4096, 200, 0x5ca7);
    obs::LedgerAudit audit = obs::audit_ledger(obs::Ledger::global());
    if (!audit.zero_crash())
      return strf("zero-crash invariant violated: %llu crash events",
                  static_cast<unsigned long long>(audit.crash_events));
    return std::nullopt;
  };

  PropOptions opts;
  opts.seeds = 6;
  opts.base_seed = 1;
  opts.rate = 500;  // sparse: survive startup, die somewhere in the hunt
  opts.points = point_bit(Point::kVmAv);
  PropResult res = check("vm-av-audit", opts, body);

  ASSERT_FALSE(res.ok()) << "no seed in the sweep crashed the target mid-hunt";
  EXPECT_LE(res.cex->events.size(), 3u) << res.summary();
  for (const FaultEvent& ev : res.cex->events) EXPECT_EQ(ev.point, Point::kVmAv);
  EXPECT_EQ(res.cex->message.find("[WARNING"), std::string::npos) << res.summary();

  FaultPlan replay;
  ASSERT_TRUE(parse_plan(res.cex->replay, &replay)) << res.cex->replay;
  EXPECT_TRUE(run_with_plan(replay, body).has_value()) << res.cex->replay;

  obs::Ledger::global().clear();  // don't leak the planted crash to other tests
}

}  // namespace
}  // namespace crp::chaos
