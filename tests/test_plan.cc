// Tests for the crp::plan subsystem: the ExploitPlan codec (round-trip,
// golden fixtures, strict rejection of damaged documents), the per-class
// synthesizer, the fresh-instance replay harness (differential against the
// handwritten PoC attacks), and the pipeline plan_synth cache behavior.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "obs/ledger.h"
#include "pipeline/campaign.h"
#include "pipeline/registry.h"
#include "plan/plan.h"
#include "plan/replay.h"
#include "plan/synth.h"
#include "targets/common.h"
#include "targets/jvm.h"
#include "targets/nginx.h"

namespace crp::plan {
namespace {

namespace fs = std::filesystem;

ExploitPlan full_plan() {
  ExploitPlan p;
  p.target_id = "server/nginx_sim";
  p.surface = Surface::kNginxRecv;
  p.primitive = "[syscall] nginx_sim: recv(arg2) — controllable home";
  p.rationale = "a rationale with spaces, %-signs and\na newline";
  p.symex_confirmed = true;
  p.region_pages = 16;
  p.scan.mode = ScanMode::kHunt;
  p.scan.window_pages = 1024;
  p.scan.stride_pages = 4;
  p.scan.max_probes = 5000;
  p.scan.seed = 0xA11CE;
  p.scan.locate_base = false;
  p.leak.offsets = {8, 16, 24};
  p.hijack.offset = 32;
  return p;
}

// --- codec -------------------------------------------------------------------

TEST(PlanCodec, RoundTripsEveryField) {
  ExploitPlan p = full_plan();
  ExploitPlan q;
  ASSERT_TRUE(decode_plan(encode_plan(p), &q));
  EXPECT_EQ(q.version, kPlanVersion);
  EXPECT_EQ(q.target_id, p.target_id);
  EXPECT_EQ(q.surface, p.surface);
  EXPECT_EQ(q.primitive, p.primitive);
  EXPECT_EQ(q.rationale, p.rationale);
  EXPECT_EQ(q.symex_confirmed, p.symex_confirmed);
  EXPECT_EQ(q.region_pages, p.region_pages);
  EXPECT_EQ(q.scan.mode, p.scan.mode);
  EXPECT_EQ(q.scan.window_pages, p.scan.window_pages);
  EXPECT_EQ(q.scan.stride_pages, p.scan.stride_pages);
  EXPECT_EQ(q.scan.max_probes, p.scan.max_probes);
  EXPECT_EQ(q.scan.seed, p.scan.seed);
  EXPECT_EQ(q.scan.locate_base, p.scan.locate_base);
  EXPECT_EQ(q.leak.offsets, p.leak.offsets);
  EXPECT_EQ(q.hijack.offset, p.hijack.offset);
}

TEST(PlanCodec, RoundTripsEmptyPlan) {
  // The kNone plan: empty strings and no offsets must survive the
  // whitespace-token format.
  ExploitPlan p;
  ExploitPlan q;
  ASSERT_TRUE(decode_plan(encode_plan(p), &q));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.target_id, "");
  EXPECT_EQ(q.primitive, "");
  EXPECT_EQ(q.leak.offsets.size(), 0u);
}

TEST(PlanCodec, EncodingIsByteStable) {
  EXPECT_EQ(encode_plan(full_plan()), encode_plan(full_plan()));
}

TEST(PlanCodec, RejectsTruncatedDocuments) {
  std::string doc = encode_plan(full_plan());
  ExploitPlan q;
  // Every proper prefix must be rejected (the checksum footer is missing
  // or covers bytes that are no longer there).
  for (size_t n : {doc.size() - 1, doc.size() / 2, size_t{10}, size_t{0}})
    EXPECT_FALSE(decode_plan(doc.substr(0, n), &q)) << "prefix length " << n;
}

// A plan body re-sealed with a valid checksum footer, so edits reach the
// body parser instead of the checksum gate.
std::string sealed(const std::string& body) {
  u64 h = 0xcbf29ce484222325ull;
  for (char c : body) {
    h ^= static_cast<u8>(c);
    h *= 0x100000001b3ull;
  }
  return body + strf("sum %016llx\n", (unsigned long long)h);
}

TEST(PlanCodec, RejectsCorruptedDocuments) {
  std::string doc = encode_plan(full_plan());
  for (size_t pos : {size_t{0}, doc.size() / 3, doc.size() / 2}) {
    std::string bad = doc;
    bad[pos] ^= 0x20;
    ExploitPlan q;
    EXPECT_FALSE(decode_plan(bad, &q)) << "flipped byte at " << pos;
  }
  // Bad escapes behind a valid checksum: malformed, never an exception.
  size_t tail = doc.rfind("sum ");
  ASSERT_NE(tail, std::string::npos);
  std::string body = doc.substr(0, tail);
  size_t pct = body.find("%25");
  ASSERT_NE(pct, std::string::npos);
  for (const char* bad : {"%zz", "%-1", "%+f", "%g0"}) {
    std::string edited = body;
    edited.replace(pct, 3, bad);
    ExploitPlan q;
    EXPECT_FALSE(decode_plan(sealed(edited), &q)) << bad;
  }
}

TEST(PlanCodec, RejectsFutureVersion) {
  // Re-checksum a version-bumped body so the *version gate* (not the
  // checksum) does the rejecting.
  std::string doc = encode_plan(full_plan());
  size_t tail = doc.rfind("sum ");
  ASSERT_NE(tail, std::string::npos);
  std::string body = doc.substr(0, tail);
  size_t v = body.find("crp-plan v1");
  ASSERT_NE(v, std::string::npos);
  body[v + 10] = '2';
  ExploitPlan q;
  EXPECT_FALSE(decode_plan(sealed(body), &q));
}

// --- golden fixtures ---------------------------------------------------------

// Fixed evidence vectors: what each discovery funnel feeds the synthesizer,
// frozen so the encoded plan bytes are comparable against tests/golden/.
std::vector<analysis::Candidate> nginx_evidence() {
  analysis::Candidate c;
  c.cls = analysis::PrimitiveClass::kSyscall;
  c.target = "nginx_sim";
  c.syscall = os::Sys::kRecv;
  c.pointer_arg = 2;
  c.taint_mask = 0x3;
  c.pointer_home = 0x7000;
  c.controllable_home = true;
  c.verdict = analysis::Verdict::kUsable;
  c.note = "pointer home in heap";
  return {c};
}

std::vector<analysis::Candidate> jvm_evidence() {
  analysis::Candidate c;
  c.cls = analysis::PrimitiveClass::kExceptionHandler;
  c.target = "jvm_sim";
  c.module = "jvm_sim";
  c.catch_all = false;
  c.verdict = analysis::Verdict::kUsable;
  c.note = "signal handler (SIGSEGV, pc-editing)";
  return {c};
}

std::vector<analysis::Candidate> firefox_evidence() {
  analysis::Candidate c;
  c.cls = analysis::PrimitiveClass::kExceptionHandler;
  c.target = "browser/firefox_sim";
  c.module = "ntdll_sim";
  c.catch_all = false;
  c.verdict = analysis::Verdict::kUsable;
  c.note = "VEH probe filter";
  return {c};
}

TargetBinding synth_binding(const std::string& id, Surface s) {
  TargetBinding b;
  b.id = id;
  b.surface = s;
  return b;
}

void check_golden(const std::string& name, const ExploitPlan& p) {
  fs::path path = fs::path(CRP_SOURCE_DIR) / "tests" / "golden" / name;
  std::string encoded = encode_plan(p);
  if (std::getenv("CRP_UPDATE_GOLDEN") != nullptr) {
    fs::create_directories(path.parent_path());
    std::ofstream(path, std::ios::binary) << encoded;
  }
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good()) << "missing golden fixture " << path
                        << " (regenerate with CRP_UPDATE_GOLDEN=1)";
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_EQ(buf.str(), encoded) << "golden fixture " << name
                                << " drifted from synthesize() output";
  // And the canonical bytes must decode back to the same plan.
  ExploitPlan q;
  ASSERT_TRUE(decode_plan(buf.str(), &q));
  EXPECT_EQ(encode_plan(q), encoded);
}

TEST(PlanGolden, NginxRecvPlanMatchesFixture) {
  ExploitPlan p =
      synthesize(synth_binding("server/nginx_sim", Surface::kNginxRecv),
                 nginx_evidence());
  ASSERT_FALSE(p.empty());
  EXPECT_FALSE(p.symex_confirmed);  // syscall class: dynamically verified
  check_golden("nginx.plan", p);
}

TEST(PlanGolden, JvmNpePlanMatchesFixture) {
  ExploitPlan p = synthesize(synth_binding("runtime/jvm_sim", Surface::kJvmNpe),
                             jvm_evidence());
  ASSERT_FALSE(p.empty());
  EXPECT_TRUE(p.symex_confirmed);
  check_golden("jvm.plan", p);
}

TEST(PlanGolden, FirefoxPollPlanMatchesFixture) {
  ExploitPlan p =
      synthesize(synth_binding("browser/firefox_sim", Surface::kBrowserPoll),
                 firefox_evidence());
  ASSERT_FALSE(p.empty());
  EXPECT_TRUE(p.symex_confirmed);
  check_golden("firefox.plan", p);
}

// --- synthesizer -------------------------------------------------------------

TEST(PlanSynth, NoSurfaceYieldsEmptyPlanWithRationale) {
  ExploitPlan p =
      synthesize(synth_binding("corpus/dll_x64", Surface::kNone), {});
  EXPECT_TRUE(p.empty());
  EXPECT_FALSE(p.rationale.empty());
}

TEST(PlanSynth, NoEvidenceYieldsEmptyPlanWithRationale) {
  ExploitPlan p = synthesize(
      synth_binding("server/nginx_sim", Surface::kNginxRecv), {});
  EXPECT_TRUE(p.empty());
  EXPECT_NE(p.rationale.find("no verified syscall"), std::string::npos);
}

TEST(PlanSynth, IsAPureFunctionOfItsInputs) {
  TargetBinding b = synth_binding("server/nginx_sim", Surface::kNginxRecv);
  EXPECT_EQ(encode_plan(synthesize(b, nginx_evidence())),
            encode_plan(synthesize(b, nginx_evidence())));
}

// --- replay ------------------------------------------------------------------

TargetBinding nginx_binding() {
  TargetBinding b;
  b.id = "server/nginx_sim";
  b.surface = Surface::kNginxRecv;
  b.make_program = [] { return targets::make_nginx(); };
  b.port = targets::kNginxPort;
  b.aslr_seed = 0xD15C0;
  return b;
}

TEST(PlanReplay, EmptyPlanCompletesTrivially) {
  ExploitPlan p;  // kNone
  TargetBinding b = synth_binding("corpus/dll_x64", Surface::kNone);
  ReplayOutcome out = replay_fresh(b, p);
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.probes, 0u);
  EXPECT_EQ(out.crashes, 0u);
}

TEST(PlanReplay, RejectsVersionMismatch) {
  ExploitPlan p = full_plan();
  p.version = kPlanVersion + 1;
  ReplayOutcome out = replay_fresh(nginx_binding(), p);
  EXPECT_FALSE(out.completed);
  EXPECT_NE(out.error.find("version"), std::string::npos);
  EXPECT_EQ(out.probes, 0u);
}

TEST(PlanReplay, SynthesizedNginxPlanRunsToCompletion) {
  SynthOptions so;
  so.window_pages = 256;
  so.region_pages = 16;
  ExploitPlan p = synthesize(nginx_binding(), nginx_evidence(), so);
  ASSERT_EQ(p.scan.mode, ScanMode::kSweep);

  HarnessOptions h;
  h.pattern = 0x5AFE0001;
  ReplayOutcome out = replay_fresh(nginx_binding(), p, h);
  EXPECT_TRUE(out.completed) << out.error;
  EXPECT_EQ(out.crashes, 0u);
  EXPECT_EQ(out.unhandled, 0u);
  EXPECT_TRUE(out.target_alive);
  EXPECT_TRUE(out.hit);
  EXPECT_EQ(out.region_base, out.planted_base);
  // Leak offsets skip the probe-clobbered word: the defender's pattern
  // words are intact at base+8/16/24.
  ASSERT_EQ(out.leaked.size(), 3u);
  EXPECT_EQ(out.leaked[0], 0x5AFE0001ull ^ 8u);
  EXPECT_EQ(out.leaked[1], 0x5AFE0001ull ^ 16u);
  EXPECT_EQ(out.leaked[2], 0x5AFE0001ull ^ 24u);
  // The hijack is a controlled write through the recv() primitive.
  EXPECT_TRUE(out.hijacked);
  EXPECT_EQ(out.control_addr, out.region_base + 32);
  EXPECT_NE(out.control_value, 0x5AFE0001ull ^ 32u);
}

TEST(PlanReplay, DifferentialNginxSweepVsHandwrittenHunt) {
  // The synthesized sweep plan and the handwritten PoC's randomized hunt
  // must reach the same hijack outcome on the same (deterministic) world:
  // same located base, same leaked word, same control slot.
  SynthOptions so;
  so.window_pages = 256;
  so.region_pages = 16;
  ExploitPlan sweep = synthesize(nginx_binding(), nginx_evidence(), so);

  ExploitPlan hunt = sweep;
  hunt.scan.mode = ScanMode::kHunt;
  hunt.scan.max_probes = 4000;
  hunt.scan.seed = 0xA11CE;
  hunt.leak.offsets = {8};

  HarnessOptions h;
  h.pattern = 0x5AFE0001;
  ReplayOutcome a = replay_fresh(nginx_binding(), sweep, h);
  ReplayOutcome b = replay_fresh(nginx_binding(), hunt, h);
  ASSERT_TRUE(a.completed) << a.error;
  ASSERT_TRUE(b.completed) << b.error;
  EXPECT_EQ(a.crashes + b.crashes, 0u);
  EXPECT_EQ(a.region_base, b.region_base);
  EXPECT_EQ(a.planted_base, b.planted_base);
  ASSERT_FALSE(b.leaked.empty());
  EXPECT_EQ(a.leaked[0], b.leaked[0]);
  EXPECT_EQ(a.control_addr, b.control_addr);
  EXPECT_TRUE(a.hijacked);
  EXPECT_TRUE(b.hijacked);
}

TEST(PlanReplay, JvmNpePlanRunsToCompletion) {
  TargetBinding b;
  b.id = "runtime/jvm_sim";
  b.surface = Surface::kJvmNpe;
  b.make_program = [] { return targets::make_jvm(); };
  b.port = targets::kJvmPort;
  b.aslr_seed = 0xD15C0;

  SynthOptions so;
  so.window_pages = 128;
  so.region_pages = 8;
  ExploitPlan p = synthesize(b, jvm_evidence(), so);
  ASSERT_FALSE(p.empty());

  ReplayOutcome out = replay_fresh(b, p);
  EXPECT_TRUE(out.completed) << out.error;
  EXPECT_EQ(out.crashes, 0u);
  EXPECT_EQ(out.unhandled, 0u);
  EXPECT_TRUE(out.target_alive);
  EXPECT_EQ(out.region_base, out.planted_base);
  // Read-probe surface: the defender's words are untouched.
  ASSERT_EQ(out.leaked.size(), 3u);
  EXPECT_EQ(out.leaked[0], 0x5AFE0001ull ^ 0u);
  EXPECT_TRUE(out.hijacked);
}

TEST(PlanReplay, BrowserSehAndPollPlansRunToCompletion) {
  for (auto kind : {targets::BrowserSim::Kind::kIE,
                    targets::BrowserSim::Kind::kFirefox}) {
    bool ie = kind == targets::BrowserSim::Kind::kIE;
    TargetBinding b;
    b.id = ie ? "browser/ie_sim" : "browser/firefox_sim";
    b.surface = ie ? Surface::kBrowserSeh : Surface::kBrowserPoll;
    b.browser.kind = kind;
    b.browser.seed = ie ? 0xE11E : 0xF0F0;

    std::vector<analysis::Candidate> ev = firefox_evidence();
    if (ie) ev[0].module = "jscript9_sim";

    SynthOptions so;
    so.window_pages = 64;
    so.region_pages = 8;
    ExploitPlan p = synthesize(b, ev, so);
    ASSERT_FALSE(p.empty()) << b.id << ": " << p.rationale;

    ReplayOutcome out = replay_fresh(b, p);
    EXPECT_TRUE(out.completed) << b.id << ": " << out.error;
    EXPECT_EQ(out.crashes, 0u) << b.id;
    EXPECT_EQ(out.unhandled, 0u) << b.id;
    EXPECT_TRUE(out.hijacked) << b.id;
    EXPECT_EQ(out.region_base, out.planted_base) << b.id;
  }
}

TEST(PlanReplay, ExhaustedHuntBudgetFailsWithoutCrashes) {
  ExploitPlan p = synthesize(nginx_binding(), nginx_evidence());
  p.scan.mode = ScanMode::kHunt;
  p.scan.window_pages = 4096;
  p.scan.max_probes = 3;  // hopeless budget in a 4096-page window
  p.scan.seed = 7;
  ReplayOutcome out = replay_fresh(nginx_binding(), p);
  EXPECT_FALSE(out.completed);
  EXPECT_NE(out.error.find("budget"), std::string::npos);
  EXPECT_EQ(out.probes, 3u);
  EXPECT_EQ(out.crashes, 0u);
  EXPECT_EQ(out.unhandled, 0u);
  EXPECT_TRUE(out.target_alive);
}

TEST(PlanReplay, AuditLedgerStaysGreenAcrossAReplay) {
  obs::Ledger::global().clear();
  SynthOptions so;
  so.window_pages = 128;
  so.region_pages = 16;
  ExploitPlan p = synthesize(nginx_binding(), nginx_evidence(), so);
  ReplayOutcome out = replay_fresh(nginx_binding(), p);
  ASSERT_TRUE(out.completed) << out.error;
  obs::LedgerAudit audit = obs::audit_ledger(obs::Ledger::global());
  EXPECT_TRUE(audit.zero_crash()) << audit.summary();
  EXPECT_GT(audit.events, 0u);
}

// --- pipeline integration ----------------------------------------------------

TEST(PlanStage, WarmSynthIsACacheHitWithIdenticalBytes) {
  pipeline::ArtifactStore store;
  store.set_enabled(true);
  pipeline::TargetRegistry reg = pipeline::TargetRegistry::builtin();
  const pipeline::TargetSpec* spec = reg.find("server/nginx_sim");
  ASSERT_NE(spec, nullptr);
  std::vector<analysis::Candidate> ev = nginx_evidence();

  ExploitPlan cold, warm;
  EXPECT_FALSE(pipeline::synthesize_plan(*spec, ev, {}, &store, &cold));
  EXPECT_TRUE(pipeline::synthesize_plan(*spec, ev, {}, &store, &warm));
  EXPECT_EQ(encode_plan(cold), encode_plan(warm));
}

TEST(PlanStage, CorruptCachedPlanIsRecomputedNotReplayed) {
  fs::path dir = fs::temp_directory_path() / "crp_plan_cache_test";
  fs::remove_all(dir);
  pipeline::ArtifactStore store;
  store.set_enabled(true);
  store.set_dir(dir.string());

  pipeline::TargetRegistry reg = pipeline::TargetRegistry::builtin();
  const pipeline::TargetSpec* spec = reg.find("server/nginx_sim");
  ASSERT_NE(spec, nullptr);
  std::vector<analysis::Candidate> ev = nginx_evidence();
  ExploitPlan cold;
  ASSERT_FALSE(pipeline::synthesize_plan(*spec, ev, {}, &store, &cold));

  // Corrupt every plan_synth blob on disk, then drop the memory tier: the
  // store-level checksum rejects the blob, so synthesis recomputes.
  size_t corrupted = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().rfind("plan_synth-", 0) != 0) continue;
    std::fstream f(e.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-3, std::ios::end);
    f.put('X');
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0u);
  store.clear();

  ExploitPlan again;
  EXPECT_FALSE(pipeline::synthesize_plan(*spec, ev, {}, &store, &again));
  EXPECT_EQ(encode_plan(cold), encode_plan(again));
  fs::remove_all(dir);
}

TEST(PlanStage, CampaignEpilogueIsJobCountInvariant) {
  // CRP_JOBS=1 vs 4 determinism: the whole plan epilogue (synthesis bytes
  // AND replay outcome) must not depend on the worker count.
  pipeline::TargetRegistry reg = pipeline::TargetRegistry::builtin();
  const pipeline::TargetSpec* spec = reg.find("server/nginx_sim");
  ASSERT_NE(spec, nullptr);

  auto run_with_jobs = [&](int jobs) {
    pipeline::CampaignOptions o;
    o.jobs = jobs;
    o.cache = false;
    o.plan = true;
    o.plan_window_pages = 128;
    o.plan_region_pages = 16;
    pipeline::Campaign c(o);
    return c.run_target(*spec);
  };
  pipeline::TargetReport one = run_with_jobs(1);
  pipeline::TargetReport four = run_with_jobs(4);

  ASSERT_TRUE(one.has_plan);
  ASSERT_TRUE(four.has_plan);
  EXPECT_EQ(encode_plan(one.exploit_plan), encode_plan(four.exploit_plan));
  EXPECT_TRUE(one.plan_replay.completed) << one.plan_replay.error;
  EXPECT_EQ(one.plan_replay.summary(), four.plan_replay.summary());
  EXPECT_EQ(one.plan_replay.crashes + four.plan_replay.crashes, 0u);
  // The rendered report (what crpd FETCH serves) is byte-identical too.
  EXPECT_EQ(pipeline::render_report(one, /*cache_tag=*/false),
            pipeline::render_report(four, /*cache_tag=*/false));
}

}  // namespace
}  // namespace crp::plan
