// Tests for the pipeline layer: target registry enumeration, the
// content-addressed ArtifactStore (hit/miss traffic, CRP_CACHE=0 bypass,
// disk tier, key invalidation on content change), artifact codecs, the
// golden equivalence between the staged Campaign funnel and the
// pre-refactor manual discover()+verify() wiring, and the paper's
// Windows-side tables rendered from run_target reports.

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "analysis/report.h"
#include "chaos/chaos.h"
#include "obs/obs.h"
#include "pipeline/campaign.h"
#include "pipeline/codec.h"
#include "pipeline/job_queue.h"
#include "targets/nginx.h"
#include "targets/servers.h"

namespace crp::pipeline {
namespace {

// --- TargetRegistry ----------------------------------------------------------

TEST(Registry, EnumeratesEveryTargetExactlyOnce) {
  TargetRegistry reg = TargetRegistry::builtin();
  std::set<std::string> ids;
  for (const TargetSpec& t : reg.all()) {
    EXPECT_TRUE(ids.insert(t.id).second) << "duplicate id: " << t.id;
    EXPECT_EQ(reg.find(t.id), &t);
  }
  // The full corpus: 5 servers, jvm, 3 browser subjects, 2 DLL populations,
  // 1 API corpus.
  EXPECT_EQ(reg.all().size(), 12u);
  EXPECT_EQ(reg.of_class(TargetClass::kLinuxServer).size(), 5u);
  EXPECT_EQ(reg.of_class(TargetClass::kManagedRuntime).size(), 1u);
  EXPECT_EQ(reg.of_class(TargetClass::kBrowser).size(), 3u);
  EXPECT_EQ(reg.of_class(TargetClass::kDllCorpus).size(), 2u);
  EXPECT_EQ(reg.of_class(TargetClass::kApiCorpus).size(), 1u);
  EXPECT_EQ(reg.find("no/such_target"), nullptr);
}

TEST(Registry, TableIServersKeepPaperColumnOrder) {
  TargetRegistry reg = TargetRegistry::builtin();
  auto servers = reg.of_class(TargetClass::kLinuxServer);
  ASSERT_EQ(servers.size(), 5u);
  EXPECT_EQ(servers[0]->id, "server/nginx_sim");
  EXPECT_EQ(servers[1]->id, "server/cherokee_sim");
  EXPECT_EQ(servers[2]->id, "server/lighttpd_sim");
  EXPECT_EQ(servers[3]->id, "server/memcached_sim");
  EXPECT_EQ(servers[4]->id, "server/postgres_sim");
}

TEST(Registry, AddPanicsOnDuplicateId) {
  TargetRegistry reg = TargetRegistry::builtin();
  TargetSpec dup;
  dup.id = "server/nginx_sim";
  EXPECT_DEATH(reg.add(std::move(dup)), "duplicate target id");
}

TEST(Registry, ClassMetadataMatchesPersonality) {
  TargetRegistry reg = TargetRegistry::builtin();
  for (const TargetSpec& t : reg.all()) {
    bool linux_cls = t.cls == TargetClass::kLinuxServer ||
                     t.cls == TargetClass::kManagedRuntime;
    EXPECT_EQ(t.personality,
              linux_cls ? vm::Personality::kLinux : vm::Personality::kWindows)
        << t.id;
    if (linux_cls) {
      EXPECT_NE(t.make_program, nullptr) << t.id;
    }
    if (t.cls == TargetClass::kDllCorpus) {
      EXPECT_NE(t.dll_specs, nullptr) << t.id;
    }
    if (t.cls == TargetClass::kApiCorpus) {
      EXPECT_GT(t.api.total, 0u) << t.id;
    }
  }
}

// --- ArtifactStore -----------------------------------------------------------

TEST(ArtifactStore, HitMissAndTrafficCounters) {
  ArtifactStore store;
  store.set_enabled(true);
  ArtifactKey key{"stage_x", 0x1111, 0x2222};
  std::string value;
  EXPECT_FALSE(store.lookup(key, &value));
  EXPECT_EQ(store.misses(), 1u);

  store.store(key, "payload");
  EXPECT_TRUE(store.lookup(key, &value));
  EXPECT_EQ(value, "payload");
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(store.stores(), 1u);
  EXPECT_EQ(store.size(), 1u);

  // A different config hash is a different artifact.
  EXPECT_FALSE(store.lookup({"stage_x", 0x1111, 0x3333}, &value));
  EXPECT_EQ(store.misses(), 2u);
}

TEST(ArtifactStore, DisabledStoreIsAPureBypass) {
  ArtifactStore store;
  store.set_enabled(false);
  ArtifactKey key{"stage_x", 1, 2};
  store.store(key, "payload");
  std::string value;
  EXPECT_FALSE(store.lookup(key, &value));
  // Bypass counts nothing: CRP_CACHE=0 must not perturb metrics either.
  EXPECT_EQ(store.hits(), 0u);
  EXPECT_EQ(store.misses(), 0u);
  EXPECT_EQ(store.stores(), 0u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(ArtifactStore, CrpCacheZeroDisablesViaEnv) {
  ::setenv("CRP_CACHE", "0", 1);
  ArtifactStore off;
  ::unsetenv("CRP_CACHE");
  EXPECT_FALSE(off.enabled());
  ArtifactStore on;
  EXPECT_TRUE(on.enabled());
}

TEST(ArtifactStore, DiskTierSurvivesMemoryClear) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "crp_cache_test").string();
  std::filesystem::remove_all(dir);
  ArtifactStore store;
  store.set_dir(dir);
  ArtifactKey key{"filter_classify", 0xabcdef, 0x42};
  store.store(key, "disk payload\nwith a second line");
  store.clear();  // drop the memory tier; disk remains
  std::string value;
  EXPECT_TRUE(store.lookup(key, &value));
  EXPECT_EQ(value, "disk payload\nwith a second line");
  std::filesystem::remove_all(dir);
}

TEST(ArtifactStore, KeyStringIsStable) {
  ArtifactKey key{"taint_trace", 0x1a2b, 0x3c4d};
  EXPECT_EQ(key.str(), "taint_trace-0000000000001a2b-0000000000003c4d");
}

TEST(ArtifactStore, GlobalStoreIgnoresTheCallersScopedPlan) {
  // Built under a ScopedPlan, the process-wide store must neither arm its
  // fault stream with that (shorter-lived) plan nor take a salt slot from
  // the caller's task context. Meaningful when this process builds the
  // store here (ctest runs each test in its own process).
  chaos::FaultPlan plan;
  plan.points = chaos::kCachePoints;
  chaos::ScopedPlan scoped(plan);
  ArtifactStore::global();
  EXPECT_EQ(chaos::task_ctx().streams, 0u);
}

// --- codecs ------------------------------------------------------------------

TEST(Codec, SyscallScanRoundTrips) {
  analysis::SyscallScanResult res;
  res.syscalls_traced = 123456;
  res.instructions = 789;
  res.observed = {os::Sys::kRead, os::Sys::kRecv};
  analysis::Candidate c;
  c.cls = analysis::PrimitiveClass::kSyscall;
  c.target = "nginx_sim";
  c.syscall = os::Sys::kRecv;
  c.pointer_arg = 2;
  c.taint_mask = 0b101;
  c.pointer_home = 0xdeadbeef;
  c.controllable_home = true;
  c.verdict = analysis::Verdict::kUsable;
  c.note = "EFAULT observed; service healthy";
  res.candidates.push_back(c);

  analysis::SyscallScanResult back;
  ASSERT_TRUE(decode_syscall_scan(encode_syscall_scan(res), &back));
  EXPECT_EQ(back.syscalls_traced, res.syscalls_traced);
  EXPECT_EQ(back.observed, res.observed);
  ASSERT_EQ(back.candidates.size(), 1u);
  EXPECT_EQ(back.candidates[0].syscall, os::Sys::kRecv);
  EXPECT_EQ(back.candidates[0].pointer_home, c.pointer_home);
  EXPECT_TRUE(back.candidates[0].controllable_home);
  EXPECT_EQ(back.candidates[0].verdict, analysis::Verdict::kUsable);
  EXPECT_EQ(back.candidates[0].note, c.note);  // %-escaped spaces round-trip
}

TEST(Codec, EmptyStringFieldsRoundTrip) {
  // An empty string field is written as a zero length, so the next field
  // cannot slide into its place.
  analysis::SyscallScanResult res;
  analysis::Candidate c;
  c.syscall = os::Sys::kRead;
  c.note = "first";
  res.candidates.push_back(c);  // target == ""
  c.target = "nginx_sim";
  c.note = "";
  res.candidates.push_back(c);
  analysis::SyscallScanResult back;
  ASSERT_TRUE(decode_syscall_scan(encode_syscall_scan(res), &back));
  ASSERT_EQ(back.candidates.size(), 2u);
  EXPECT_EQ(back.candidates[0].target, "");
  EXPECT_EQ(back.candidates[0].note, "first");
  EXPECT_EQ(back.candidates[1].target, "nginx_sim");
  EXPECT_EQ(back.candidates[1].note, "");

  ClassifyOutcome outcome;
  outcome.filters.resize(2);  // filters[0].module == ""
  outcome.filters[1].module = "sechost.dll";
  outcome.filters[1].offset = 0x40;
  ClassifyOutcome cls;
  ASSERT_TRUE(decode_classify(encode_classify(outcome), &cls));
  ASSERT_EQ(cls.filters.size(), 2u);
  EXPECT_EQ(cls.filters[0].module, "");
  EXPECT_EQ(cls.filters[1].module, "sechost.dll");
  EXPECT_EQ(cls.filters[1].offset, 0x40u);
}

TEST(Codec, RejectsWrongKindAndVersion) {
  ClassifyOutcome fresh;
  fresh.filters_executed = 10;
  std::string doc = encode_classify(fresh);
  analysis::SyscallScanResult scan;
  EXPECT_FALSE(decode_syscall_scan(doc, &scan));  // kind mismatch -> miss
  ClassifyOutcome cls;
  EXPECT_FALSE(decode_classify("crp-artifact v999 filter_classify\n", &cls));
  ASSERT_TRUE(decode_classify(doc, &cls));
  EXPECT_EQ(cls.filters_executed, 10u);

  // A string field whose escape is not '%' plus two hex digits makes the
  // document malformed: a miss, never an exception.
  analysis::Candidate c;
  c.note = "ab ";  // encodes as "5 ab%20": escaped length, then the token
  analysis::SyscallScanResult res;
  res.candidates.push_back(c);
  ClassifyOutcome outcome;
  outcome.filters.emplace_back();
  outcome.filters.back().module = "ab ";
  // Unmutated, both documents decode: the rejections below are the escape's.
  ASSERT_TRUE(decode_syscall_scan(encode_syscall_scan(res), &scan));
  ASSERT_TRUE(decode_classify(encode_classify(outcome), &cls));
  for (const char* bad : {"%zz", "%2", "%", "%-1", "%+f", "%g0"}) {
    // The length prefix follows the substituted token, so the length check
    // passes and only the escape can reject the document.
    std::string field = std::to_string(2 + std::strlen(bad)) + " ab" + bad;
    std::string scan_doc = encode_syscall_scan(res);
    std::string cls_doc = encode_classify(outcome);
    size_t scan_at = scan_doc.find("5 ab%20");
    size_t cls_at = cls_doc.find("5 ab%20");
    ASSERT_NE(scan_at, std::string::npos);
    ASSERT_NE(cls_at, std::string::npos);
    scan_doc.replace(scan_at, 7, field);
    cls_doc.replace(cls_at, 7, field);
    EXPECT_FALSE(decode_syscall_scan(scan_doc, &scan)) << bad;
    EXPECT_FALSE(decode_classify(cls_doc, &cls)) << bad;
  }
}

/// The class fields of a report (what the class_report artifact holds),
/// compared field by field, not through the codec under test.
void expect_same_class_result(const TargetReport& got, const TargetReport& want) {
  EXPECT_TRUE(got.candidates == want.candidates) << got.id;
  EXPECT_EQ(got.usable, want.usable);
  EXPECT_EQ(got.summary, want.summary);
  EXPECT_TRUE(got.seh == want.seh) << got.id;
  EXPECT_TRUE(got.browse == want.browse) << got.id;
  EXPECT_TRUE(got.api == want.api) << got.id;
}

TEST(Codec, ClassReportRoundTripsEveryField) {
  TargetReport rep;
  rep.id = "browser/some sim";
  rep.cls = TargetClass::kBrowser;
  rep.usable = -3;
  rep.summary = "4 DLLs, 100% odd\tsummary";
  analysis::Candidate c;
  c.cls = analysis::PrimitiveClass::kWinApi;
  c.target = "";
  c.syscall = os::Sys::kRecv;
  c.pointer_arg = 2;
  c.taint_mask = ~0ull;
  c.pointer_home = 0x1234;
  c.controllable_home = true;
  c.api_id = 77;
  c.api_name = "ReadFileEx";
  c.call_site = 0x401000;
  c.script_triggerable = true;
  c.exclusion = analysis::ExclusionReason::kVolatileHeap;
  c.module = "jscript9 sim.dll";
  c.scope_begin = 0x10;
  c.scope_end = 0x40;
  c.filter_off = 0x80;
  c.catch_all = true;
  c.verdict = analysis::Verdict::kFalsePositive;
  c.note = "a note";
  rep.candidates = {c, analysis::Candidate{}};
  rep.seh = {{}, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  analysis::ModuleSehStats m;
  m.module = "mshtml_sim";
  m.machine = isa::Machine::kX32;
  m.guarded_total = 11;
  m.guarded_av_capable = 12;
  m.guarded_on_path = 13;
  m.trigger_events = 14;
  m.filters_total = 15;
  m.filters_av_capable = 16;
  rep.seh.modules = {m, analysis::ModuleSehStats{}};
  rep.browse = {{}, 21, 22, 23, 24, 25};
  rep.browse.veh.push_back({0x7000, "?", 0x30, analysis::FilterVerdict::kAcceptsAv, 5});
  rep.api = {{31, 32, 33, 34, 35, 36, {{"stack-pointer", 2}, {"none", 7}}}, 37, 38, 39};

  // The id and class are the cell's own (set from the spec), and the plan
  // fields are not the codec's: all are left as they are.
  TargetReport back;
  back.id = "corpus/other";
  back.cls = TargetClass::kDllCorpus;
  back.has_plan = true;
  ASSERT_TRUE(decode_class_report(encode_class_report(rep), &back));
  expect_same_class_result(back, rep);
  EXPECT_EQ(back.id, "corpus/other");
  EXPECT_EQ(back.cls, TargetClass::kDllCorpus);
  EXPECT_TRUE(back.has_plan);
  EXPECT_FALSE(back.cache_hit);

  // An enum past its last value is a malformed document, not a cast.
  std::string doc = encode_class_report(rep);
  size_t at = doc.find("\ndll 1 11 ");
  ASSERT_NE(at, std::string::npos);
  doc.replace(at, 7, "\ndll 9 ");
  EXPECT_FALSE(decode_class_report(doc, &back));
  EXPECT_FALSE(decode_class_report(encode_classify({}), &back));
}

// --- cache keys --------------------------------------------------------------

TEST(CacheKey, ChangesWhenImageBytesChange) {
  Campaign campaign;
  analysis::TargetProgram prog = targets::make_nginx();
  ArtifactKey base = campaign.syscall_scan_key(prog);
  EXPECT_EQ(campaign.syscall_scan_key(prog).str(), base.str());  // stable

  // Flip one byte of one image: the content address must move.
  analysis::TargetProgram tweaked = prog;
  auto img = std::make_shared<isa::Image>(*prog.images.back());
  ASSERT_FALSE(img->sections.empty());
  ASSERT_FALSE(img->sections[0].bytes.empty());
  img->sections[0].bytes[0] ^= 0xFF;
  tweaked.images.back() = img;
  EXPECT_NE(campaign.syscall_scan_key(tweaked).input_hash, base.input_hash);
  EXPECT_EQ(campaign.syscall_scan_key(tweaked).config_hash, base.config_hash);

  // A different scan configuration moves the config half of the key.
  CampaignOptions opts;
  opts.syscall.seed = 9999;
  Campaign other(opts);
  EXPECT_NE(other.syscall_scan_key(prog).config_hash, base.config_hash);
  EXPECT_EQ(other.syscall_scan_key(prog).input_hash, base.input_hash);
}

// --- Campaign funnel vs legacy wiring ---------------------------------------

const TargetSpec& registered(const char* id) {
  static TargetRegistry reg = TargetRegistry::builtin();
  const TargetSpec* s = reg.find(id);
  CRP_CHECK(s != nullptr);
  return *s;
}

const TargetSpec& nginx_spec() { return registered("server/nginx_sim"); }

TEST(Campaign, MatchesLegacyWiringByteForByte) {
  // The golden equivalence behind the bench_table1 byte-identity criterion,
  // at unit scale (nginx only — the full five-server check runs in CI):
  // the staged funnel must render exactly the bytes the pre-refactor
  // discover()+verify() wiring rendered.
  analysis::TargetProgram prog = targets::make_nginx();

  analysis::SyscallScanner scanner(prog);
  analysis::SyscallScanResult legacy = scanner.discover();
  for (analysis::Candidate& c : legacy.candidates) scanner.verify(c);

  ArtifactStore store;  // isolated store: this test must compute, not reuse
  Campaign campaign({}, &store);
  TargetReport rep = campaign.run_target(nginx_spec());
  const ServerScan& scan = rep.server;
  EXPECT_FALSE(rep.cache_hit);

  EXPECT_EQ(scan.result.syscalls_traced, legacy.syscalls_traced);
  EXPECT_EQ(scan.result.observed, legacy.observed);
  ASSERT_EQ(scan.result.candidates.size(), legacy.candidates.size());
  EXPECT_EQ(analysis::render_candidates(scan.result.candidates),
            analysis::render_candidates(legacy.candidates));

  std::vector<std::string> names{prog.name};
  std::map<std::string, analysis::SyscallScanResult> legacy_rows, pipe_rows;
  legacy_rows[prog.name] = legacy;
  pipe_rows[prog.name] = scan.result;
  EXPECT_EQ(analysis::render_table1(names, pipe_rows),
            analysis::render_table1(names, legacy_rows));
}

TEST(Campaign, WarmScanIsACacheHitWithIdenticalRows) {
  ArtifactStore store;
  Campaign campaign({}, &store);

  TargetReport cold = campaign.run_target(nginx_spec());
  EXPECT_FALSE(cold.cache_hit);
  TargetReport warm = campaign.run_target(nginx_spec());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_GE(store.hits(), 1u);
  EXPECT_EQ(analysis::render_candidates(warm.server.result.candidates),
            analysis::render_candidates(cold.server.result.candidates));
  EXPECT_EQ(warm.server.result.observed, cold.server.result.observed);
  EXPECT_EQ(warm.server.result.syscalls_traced, cold.server.result.syscalls_traced);
}

TEST(Campaign, CacheFalseBypassesTheStore) {
  ArtifactStore store;
  CampaignOptions opts;
  opts.cache = false;
  Campaign campaign(opts, &store);
  TargetReport a = campaign.run_target(nginx_spec());
  TargetReport b = campaign.run_target(nginx_spec());
  EXPECT_FALSE(a.cache_hit);
  EXPECT_FALSE(b.cache_hit);
  EXPECT_EQ(store.hits() + store.misses() + store.stores(), 0u);
  EXPECT_EQ(analysis::render_candidates(a.server.result.candidates),
            analysis::render_candidates(b.server.result.candidates));
}

TEST(Campaign, BadEscapeInACachedScanIsRecomputed) {
  ArtifactStore cold_store;
  TargetReport cold = Campaign({}, &cold_store).run_target(nginx_spec());

  // The nginx key holds a scan document with a non-hex escape: the cell
  // takes the miss-and-recompute path instead of failing the job.
  ArtifactStore store;
  Campaign campaign({}, &store);
  std::string doc = encode_syscall_scan(cold.server.result);
  size_t esc = doc.find("%20");
  ASSERT_NE(esc, std::string::npos);
  doc.replace(esc, 3, "%zz");
  store.store(campaign.syscall_scan_key(targets::make_nginx()), doc);

  TargetReport warm = campaign.run_target(nginx_spec());
  EXPECT_FALSE(warm.cache_hit);
  EXPECT_EQ(analysis::render_candidates(warm.server.result.candidates),
            analysis::render_candidates(cold.server.result.candidates));
  EXPECT_EQ(warm.server.result.observed, cold.server.result.observed);
  EXPECT_EQ(render_report(warm), render_report(cold));
}

TEST(Campaign, EveryStepRunsUnderOneStageScopeNamedAfterIt) {
  // One run per class (plus the plan epilogue on jvm_sim): each step of
  // the cell bumps its own pipeline.stage.<step>.runs exactly once, and no
  // other pipeline.stage.* counter moves.
  const std::pair<const char*, bool> runs[] = {
      {"server/nginx_sim", false}, {"runtime/jvm_sim", true},
      {"browser/iexplore_sim", false}, {"corpus/dll_x64", false},
      {"corpus/winapi", false}};
  for (const auto& [id, with_plan] : runs) {
    CampaignOptions opts;
    opts.plan = with_plan;
    opts.syscall.discover_budget = 150'000;
    opts.syscall.verify_budget = 150'000;
    std::map<std::string, i64> want;
    std::unique_ptr<TargetCell> cell = plan_target(opts, nullptr, registered(id));
    for (size_t i = 0; i < cell->step_count(); ++i)
      want[strf("pipeline.stage.%s.runs", cell->step_name(i))] = 1;

    ArtifactStore store;
    obs::Registry& reg = obs::Registry::global();
    obs::Snapshot before = reg.snapshot();
    Campaign(opts, &store).run_target(registered(id));
    obs::Snapshot delta = obs::Registry::diff(before, reg.snapshot());
    std::map<std::string, i64> got;
    for (const auto& [name, v] : delta.values)
      if (name.rfind("pipeline.stage.", 0) == 0 && v.kind == obs::MetricKind::kCounter &&
          v.num != 0)
        got[name] = v.num;
    EXPECT_EQ(got, want) << id;
  }
}

TEST(Campaign, RunTargetReportsServerFunnel) {
  TargetRegistry reg = TargetRegistry::builtin();
  const TargetSpec* nginx = reg.find("server/nginx_sim");
  ASSERT_NE(nginx, nullptr);
  ArtifactStore store;
  Campaign campaign({}, &store);
  TargetReport rep = campaign.run_target(*nginx);
  EXPECT_EQ(rep.id, "server/nginx_sim");
  EXPECT_EQ(rep.cls, TargetClass::kLinuxServer);
  EXPECT_GE(rep.usable, 1);  // recv@nginx, the paper's §V-A primitive
  EXPECT_NE(rep.summary.find("usable"), std::string::npos);
}

// --- shared-store concurrency (leases, LRU, tenants) -------------------------

TEST(ArtifactStore, SingleWriterLeaseCoalescesConcurrentMisses) {
  ArtifactStore store;
  store.set_enabled(true);
  ArtifactKey key{"stage_x", 0xAA, 0xBB};
  std::string value;

  // First acquirer owns the computation.
  ASSERT_EQ(store.acquire(key, &value), Acquire::kOwner);

  std::atomic<bool> waiter_started{false};
  Acquire waiter_result = Acquire::kBypass;
  std::string waiter_value;
  std::thread waiter([&] {
    waiter_started.store(true);
    waiter_result = store.acquire(key, &waiter_value);  // blocks on the lease
  });
  while (!waiter_started.load()) std::this_thread::yield();

  store.finish(key, "computed once");
  waiter.join();
  EXPECT_EQ(waiter_result, Acquire::kHit);
  EXPECT_EQ(waiter_value, "computed once");
  // One miss (the owner), one hit (the waiter): N identical concurrent
  // jobs must cost exactly one computation.
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.hits(), 1u);
}

TEST(ArtifactStore, AbortedLeasePromotesTheNextWaiter) {
  ArtifactStore store;
  store.set_enabled(true);
  ArtifactKey key{"stage_x", 0xCC, 0xDD};
  std::string value;
  ASSERT_EQ(store.acquire(key, &value), Acquire::kOwner);

  std::atomic<bool> waiter_started{false};
  Acquire waiter_result = Acquire::kBypass;
  std::thread waiter([&] {
    waiter_started.store(true);
    std::string v;
    waiter_result = store.acquire(key, &v);
  });
  while (!waiter_started.load()) std::this_thread::yield();

  store.abort_claim(key);  // owner died without publishing
  waiter.join();
  EXPECT_EQ(waiter_result, Acquire::kOwner);
  store.abort_claim(key);  // release the promoted lease too
}

TEST(ArtifactStore, DiskLruEvictsColdArtifactsUnderTheCap) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "crp_lru_test").string();
  std::filesystem::remove_all(dir);
  ArtifactStore store;
  store.set_dir(dir);
  store.set_max_disk_bytes(64 * 1024);

  std::string big(20 * 1024, 'x');
  for (u64 i = 0; i < 8; ++i)
    store.store({"stage_x", i, 0}, big);  // 160 KiB total vs a 64 KiB cap
  EXPECT_GE(store.evictions(), 4u);

  // The most recent artifact must survive (store never evicts the key it
  // just wrote); the oldest must be gone from both tiers.
  store.clear();
  std::string value;
  EXPECT_TRUE(store.lookup({"stage_x", 7, 0}, &value));
  EXPECT_FALSE(store.lookup({"stage_x", 0, 0}, &value));
  std::filesystem::remove_all(dir);
}

TEST(ArtifactStore, TenantAttributionFollowsTheScopedTenant) {
  ArtifactStore store;
  store.set_enabled(true);
  ArtifactKey key{"stage_x", 0xEE, 0xFF};
  std::string value;
  {
    ScopedCacheTenant t("alice");
    EXPECT_FALSE(store.lookup(key, &value));  // alice misses
    store.store(key, "payload");
  }
  {
    ScopedCacheTenant t("bob");
    EXPECT_TRUE(store.lookup(key, &value));  // bob rides alice's work
  }
  EXPECT_EQ(store.tenant_misses("alice"), 1u);
  EXPECT_EQ(store.tenant_hits("alice"), 0u);
  EXPECT_EQ(store.tenant_hits("bob"), 1u);
  EXPECT_EQ(store.tenant_misses("bob"), 0u);
}

// --- JobQueue ----------------------------------------------------------------

TEST(JobQueue, InlineJobMatchesRunTargetByteForByte) {
  ArtifactStore store_a, store_b;
  Campaign campaign({}, &store_a);
  TargetReport direct = campaign.run_target(nginx_spec());

  JobQueue q(JobQueueOptions{0, &store_b});
  JobSpec js;
  js.target = nginx_spec();
  JobResult r = q.wait(q.submit(std::move(js)));
  ASSERT_EQ(r.state, JobState::kDone);
  EXPECT_EQ(render_report(r.report), render_report(direct));
  EXPECT_EQ(r.steps_done, r.steps_total);
}

TEST(JobQueue, PriorityOrdersInlineDraining) {
  // workers=0: nothing runs until wait() drains, so submission order and
  // execution order are fully decoupled — the queue must pick by priority.
  ArtifactStore store;
  JobQueue q(JobQueueOptions{0, &store});
  std::vector<JobId> completion;
  std::mutex mu;
  q.set_event_sink([&](const JobEvent& ev) {
    if (ev.state == JobState::kDone) {
      std::lock_guard<std::mutex> lk(mu);
      completion.push_back(ev.id);
    }
  });

  JobSpec low;
  low.target = nginx_spec();
  low.priority = 0;
  low.opts.cache = false;
  JobSpec high = low;
  high.priority = 5;
  JobId low_id = q.submit(std::move(low));
  JobId high_id = q.submit(std::move(high));

  JobResult r = q.wait(low_id);  // drains both, highest priority first
  EXPECT_EQ(r.state, JobState::kDone);
  ASSERT_EQ(completion.size(), 2u);
  EXPECT_EQ(completion[0], high_id);
  EXPECT_EQ(completion[1], low_id);
}

TEST(JobQueue, CancelQueuedJobIsImmediate) {
  ArtifactStore store;
  JobQueue q(JobQueueOptions{0, &store});
  JobSpec js;
  js.target = nginx_spec();
  JobId id = q.submit(std::move(js));
  EXPECT_TRUE(q.cancel(id));
  JobResult r;
  ASSERT_TRUE(q.try_result(id, &r));
  EXPECT_EQ(r.state, JobState::kCancelled);
  EXPECT_FALSE(q.cancel(id));  // already terminal
}

TEST(JobQueue, HigherPrioritySubmissionPreemptsAtAStepBoundary) {
  ArtifactStore store;
  JobQueue q(JobQueueOptions{0, &store});
  std::mutex mu;
  std::vector<std::string> order;  // "<id>:<event>" trace
  std::atomic<bool> injected{false};
  JobId low_id = 0, high_id = 0;

  q.set_event_sink([&](const JobEvent& ev) {
    {
      std::lock_guard<std::mutex> lk(mu);
      order.push_back(strf("%llu:%s%s", (unsigned long long)ev.id,
                           job_state_name(ev.state), ev.preempted ? "+p" : ""));
    }
    // After the low job's first completed step, inject a higher-priority
    // job. The engine must requeue `low` at the next boundary, run `high`
    // to completion, then resume `low` from its kept progress.
    if (ev.id == low_id && ev.state == JobState::kRunning && ev.step == 1 &&
        !injected.exchange(true)) {
      JobSpec high;
      high.target = nginx_spec();
      high.priority = 9;
      high.opts.cache = false;
      high_id = q.submit(std::move(high));
    }
  });

  JobSpec low;
  low.target = nginx_spec();
  low.opts.cache = false;
  low_id = q.submit(std::move(low));
  JobResult r = q.wait(low_id);
  ASSERT_EQ(r.state, JobState::kDone);
  ASSERT_TRUE(injected.load());
  JobResult rh;
  ASSERT_TRUE(q.try_result(high_id, &rh));
  EXPECT_EQ(rh.state, JobState::kDone);

  // The trace must contain low's preemption, and high's completion must
  // precede low's.
  std::string low_preempt = strf("%llu:queued+p", (unsigned long long)low_id);
  std::string high_done = strf("%llu:done", (unsigned long long)high_id);
  std::string low_done = strf("%llu:done", (unsigned long long)low_id);
  auto at = [&](const std::string& needle) {
    for (size_t i = 0; i < order.size(); ++i)
      if (order[i] == needle) return static_cast<long>(i);
    return -1L;
  };
  EXPECT_GE(at(low_preempt), 0) << "no preemption event";
  ASSERT_GE(at(high_done), 0);
  ASSERT_GE(at(low_done), 0);
  EXPECT_LT(at(high_done), at(low_done));
}

TEST(JobQueue, FailingCellReportsTheError) {
  ArtifactStore store;
  JobQueue q(JobQueueOptions{0, &store});
  JobSpec js;
  js.target = nginx_spec();
  js.target.id = "server/broken_sim";
  js.target.make_program = +[]() -> analysis::TargetProgram {
    throw std::runtime_error("planted failure");
  };
  JobResult r = q.wait(q.submit(std::move(js)));
  EXPECT_EQ(r.state, JobState::kFailed);
  EXPECT_EQ(r.error, "planted failure");
}

TEST(JobQueue, PreemptedLeaseHolderDoesNotDeadlockSameKeyJobs) {
  // Regression: a priority-0 job takes its class lease in its first step
  // (a server's taint_trace, a browser's browse); two priority-1
  // submissions of the same target preempt it at the step boundary and
  // then block inside acquire() on both workers. Parking must release the
  // lease (promoting a waiter to owner) or the parked job can never be
  // rescheduled and the pool deadlocks. The parked job resumes to find
  // the result in the store.
  //
  // Held after verify instead (step 3 of taint_trace, candidates, verify,
  // finalize), a server job has already published its scan: the rivals
  // read it and nothing is computed twice.
  struct Case {
    const char* id;
    size_t hold_step;
  };
  for (Case k : {Case{"server/nginx_sim", 1}, Case{"browser/iexplore_sim", 1},
                 Case{"server/nginx_sim", 3}}) {
    const char* id = k.id;
    ArtifactStore store;
    store.set_enabled(true);
    store.set_dir("");
    JobQueue q(JobQueueOptions{2, &store});

    std::mutex mu;
    std::condition_variable cv;
    bool lease_taken = false;   // low reached the held step boundary
    bool highs_queued = false;  // test injected the two same-key rivals
    q.set_event_sink([&](const JobEvent& ev) {
      // The first such running event is the low job completing that step
      // (no other job exists yet). Hold it at the boundary (sink runs on
      // the driving worker, outside the queue lock) until both rivals are
      // submitted — the preemption check then sees them deterministically.
      if (ev.state != JobState::kRunning || ev.step != k.hold_step) return;
      std::unique_lock<std::mutex> lk(mu);
      if (lease_taken) return;  // later jobs' events pass through
      lease_taken = true;
      cv.notify_all();
      cv.wait(lk, [&] { return highs_queued; });
    });

    JobSpec low;
    low.target = registered(id);
    low.priority = 0;
    JobId low_id = q.submit(low);
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return lease_taken; });
    }
    JobSpec high = low;
    high.priority = 1;
    JobId a_id = q.submit(high);
    JobId b_id = q.submit(high);
    {
      std::lock_guard<std::mutex> lk(mu);
      highs_queued = true;
    }
    cv.notify_all();

    JobResult ra = q.wait(a_id);
    JobResult rb = q.wait(b_id);
    JobResult rl = q.wait(low_id);
    ASSERT_EQ(ra.state, JobState::kDone) << id;
    ASSERT_EQ(rb.state, JobState::kDone) << id;
    ASSERT_EQ(rl.state, JobState::kDone) << id;
    if (k.hold_step == 1) {
      EXPECT_TRUE(rl.report.cache_hit) << id;
    } else {
      EXPECT_FALSE(rl.report.cache_hit) << id;
      EXPECT_TRUE(ra.report.cache_hit) << id;
      EXPECT_TRUE(rb.report.cache_hit) << id;
      EXPECT_EQ(store.misses(), 1u) << id;
      EXPECT_EQ(store.stores(), 1u) << id;
    }
    EXPECT_EQ(rl.steps_done, rl.steps_total) << id;
    std::string rendered = render_report(ra.report, /*cache_tag=*/false);
    EXPECT_EQ(render_report(rb.report, false), rendered) << id;
    EXPECT_EQ(render_report(rl.report, false), rendered) << id;
  }
}

TEST(JobQueue, TerminalJobsAreForgottenBeyondRetention) {
  ArtifactStore store;
  JobQueue q(JobQueueOptions{0, &store, /*retain_terminal=*/2});
  std::vector<JobId> ids;
  for (int i = 0; i < 4; ++i) {
    JobSpec js;
    js.target = nginx_spec();
    JobId id = q.submit(std::move(js));
    ASSERT_EQ(q.wait(id).state, JobState::kDone);
    ids.push_back(id);
  }
  // Only the last two completions are still addressable; older ids answer
  // like they never existed (bounded daemon memory).
  EXPECT_EQ(q.status(ids[0]).error, "unknown job");
  EXPECT_EQ(q.status(ids[1]).error, "unknown job");
  EXPECT_EQ(q.status(ids[2]).state, JobState::kDone);
  EXPECT_EQ(q.status(ids[3]).state, JobState::kDone);
  // wait() on a forgotten id fails instead of blocking forever.
  EXPECT_EQ(q.wait(ids[0]).error, "unknown job");
}

TEST(ArtifactStore, TenantAttributionIsCapped) {
  ArtifactStore store;
  store.set_enabled(true);
  ArtifactKey key{"stage_cap", 0x1, 0x2};
  store.store(key, "payload");
  std::string value;
  // 64 attributed tenants fill the cap; later names still count globally
  // but are not broken out (registry counters must stay bounded).
  for (int i = 0; i < 70; ++i) {
    ScopedCacheTenant t(strf("cap_tenant_%d", i));
    EXPECT_TRUE(store.lookup(key, &value));
  }
  EXPECT_EQ(store.tenant_hits("cap_tenant_0"), 1u);
  EXPECT_EQ(store.tenant_hits("cap_tenant_69"), 0u);
  EXPECT_EQ(store.hits(), 70u);
}

TEST(JobQueue, ThreadedWorkersDrainConcurrentSubmissions) {
  ArtifactStore store;
  JobQueue q(JobQueueOptions{2, &store});
  std::vector<JobId> ids;
  for (int i = 0; i < 6; ++i) {
    JobSpec js;
    js.target = nginx_spec();
    ids.push_back(q.submit(std::move(js)));
  }
  std::string first;
  for (JobId id : ids) {
    JobResult r = q.wait(id);
    ASSERT_EQ(r.state, JobState::kDone);
    std::string rendered = render_report(r.report, /*cache_tag=*/false);
    if (first.empty()) first = rendered;
    EXPECT_EQ(rendered, first);  // identical jobs -> identical reports
  }
  // The shared store collapsed six identical jobs to one computation.
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_GE(store.hits(), 5u);
}

TEST(JobQueue, ConcurrentIdenticalClassifyJobsComputeOnce) {
  // A corpus or browser cell holds its class lease from its first step to
  // finalize (a browser takes it in browse, before the tracer exists): two
  // identical jobs on two workers compute once, and the other job waits
  // and reads the class_report. One corpus computation publishes the
  // class_report alone (a miss and a store); a browser's classify step
  // also takes the filter_classify lease inside the class lease and
  // publishes that artifact too.
  struct Case {
    const char* id;
    u64 artifacts;  // misses and stores of one computation
  };
  for (Case k : {Case{"corpus/dll_x64", 1}, Case{"browser/iexplore_sim", 2}}) {
    const char* id = k.id;
    ArtifactStore store;
    store.set_enabled(true);
    store.set_dir("");
    JobQueue q(JobQueueOptions{2, &store});
    JobSpec js;
    js.target = registered(id);
    JobId a = q.submit(js);
    JobId b = q.submit(js);
    JobResult ra = q.wait(a);
    JobResult rb = q.wait(b);
    ASSERT_EQ(ra.state, JobState::kDone) << id;
    ASSERT_EQ(rb.state, JobState::kDone) << id;
    EXPECT_EQ(render_report(ra.report, false), render_report(rb.report, false)) << id;
    EXPECT_NE(ra.report.cache_hit, rb.report.cache_hit) << id;
    EXPECT_EQ(store.misses(), k.artifacts) << id;
    EXPECT_EQ(store.hits(), 1u) << id;
    EXPECT_EQ(store.stores(), k.artifacts) << id;
  }
}

// --- class results: one artifact per cell ------------------------------------

/// The registry's non-server classes, cheapest first.
constexpr const char* kNonServer[] = {"runtime/jvm_sim", "corpus/dll_x64",
                                      "browser/iexplore_sim", "corpus/winapi"};

TEST(Campaign, WarmNonServerClassesAreHitsThatRunNoGuestCode) {
  for (const char* id : kNonServer) {
    ArtifactStore store;
    store.set_enabled(true);
    store.set_dir("");
    Campaign campaign({}, &store);
    TargetReport cold = campaign.run_target(registered(id));

    std::map<std::string, i64> want;
    std::unique_ptr<TargetCell> cell = plan_target({}, nullptr, registered(id));
    for (size_t i = 0; i < cell->step_count(); ++i)
      want[strf("pipeline.stage.%s.runs", cell->step_name(i))] = 1;

    obs::Snapshot before = obs::Registry::global().snapshot();
    u64 hits = store.hits(), stores = store.stores();
    TargetReport warm = campaign.run_target(registered(id));
    obs::Snapshot delta = obs::Registry::diff(before, obs::Registry::global().snapshot());
    EXPECT_TRUE(warm.cache_hit) << id;
    EXPECT_EQ(store.hits(), hits + 1) << id;  // one store read, nothing else
    EXPECT_EQ(store.stores(), stores) << id;
    EXPECT_EQ(delta.num("vm.instr_retired"), 0) << id;
    // Skipped steps still run under their StageScope, once each.
    std::map<std::string, i64> got;
    for (const auto& [name, v] : delta.values)
      if (name.rfind("pipeline.stage.", 0) == 0 && v.kind == obs::MetricKind::kCounter &&
          v.num != 0)
        got[name] = v.num;
    EXPECT_EQ(got, want) << id;
    EXPECT_EQ(render_report(warm, false), render_report(cold, false));
    expect_same_class_result(warm, cold);
  }
}

TEST(Campaign, AClassHitStillRunsThePlanEpilogue) {
  // plan_synth (its own cache) and plan_verify (never cached) follow the
  // class result: a warm jvm_sim or nginx_sim job with plan=1 replays a
  // fresh instance like the cold one.
  for (const char* id : {"runtime/jvm_sim", "server/nginx_sim"}) {
    ArtifactStore store;
    store.set_enabled(true);
    store.set_dir("");
    CampaignOptions opts;
    opts.plan = true;
    Campaign campaign(opts, &store);
    TargetReport cold = campaign.run_target(registered(id));
    TargetReport warm = campaign.run_target(registered(id));
    EXPECT_TRUE(warm.cache_hit) << id;
    ASSERT_TRUE(warm.has_plan) << id;
    EXPECT_TRUE(warm.plan_cache_hit) << id;
    EXPECT_GT(warm.plan_replay.probes, 0u) << id;
    EXPECT_EQ(warm.plan_replay.summary(), cold.plan_replay.summary()) << id;
    EXPECT_EQ(render_report(warm, false), render_report(cold, false)) << id;
  }
}

TEST(Campaign, ClassReportKeyMovesWithOptionsAndImageBytes) {
  // Each change below is one input the class steps read: the second run
  // must compute (a class_report miss that publishes anew), not replay.
  // The answer is the second run's store traffic: {misses, hits, stores}.
  using Traffic = std::array<u64, 3>;
  auto rerun = [](const char* id, CampaignOptions changed, TargetSpec spec) {
    ArtifactStore store;
    store.set_enabled(true);
    store.set_dir("");
    Campaign({}, &store).run_target(registered(id));
    Traffic before{store.misses(), store.hits(), store.stores()};
    Campaign(changed, &store).run_target(spec);
    return Traffic{store.misses() - before[0], store.hits() - before[1],
                   store.stores() - before[2]};
  };
  const Traffic recomputes{1, 0, 1};
  CampaignOptions seed;
  seed.syscall.seed = 12345;
  EXPECT_EQ(rerun("runtime/jvm_sim", seed, registered("runtime/jvm_sim")), recomputes);
  // Only the browse changed: the browser reuses its DLLs' classification.
  CampaignOptions pages;
  pages.browse_pages = 499;
  EXPECT_EQ(rerun("browser/iexplore_sim", pages, registered("browser/iexplore_sim")),
            (Traffic{1, 1, 1}));
  CampaignOptions paths;
  paths.classify.max_paths += 1;
  EXPECT_EQ(rerun("corpus/dll_x64", paths, registered("corpus/dll_x64")), recomputes);
  CampaignOptions probes;
  probes.api_probes_per_arg = 2;
  EXPECT_EQ(rerun("corpus/winapi", probes, registered("corpus/winapi")), recomputes);

  // One flipped byte in the last section of the runtime's main image.
  TargetSpec flipped = registered("runtime/jvm_sim");
  flipped.make_program = [inner = flipped.make_program] {
    analysis::TargetProgram prog = inner();
    auto img = std::make_shared<isa::Image>(*prog.images.back());
    std::vector<u8>& bytes = img->sections.back().bytes;
    CRP_CHECK(!bytes.empty());
    bytes.back() ^= 0x01;
    prog.images.back() = img;
    return prog;
  };
  EXPECT_EQ(rerun("runtime/jvm_sim", {}, flipped), recomputes);
  // The unchanged spec and options are a hit (the control for the above).
  EXPECT_EQ(rerun("runtime/jvm_sim", {}, registered("runtime/jvm_sim")), (Traffic{0, 1, 0}));
}

// --- stall watchdog (JobQueue::watchdog_pass) --------------------------------

constexpr u64 kNever = u64{1} << 62;  // a deadline no test run reaches

/// A worker queue whose jobs can be held open for the watchdog. A spec from
/// gated() blocks inside its first step (taint_trace, in make_program)
/// until open_gate(), then fails without scanning. hold_after_step_one()
/// stops the first job to finish step 1 inside the event sink (on its
/// worker, outside the queue lock) until release(): a server job is then
/// between taint_trace and verify, holding the scan's store lease. The
/// destructor opens everything before the queue joins its workers, so a
/// failed assertion cannot hang the test.
struct WatchdogRig {
  explicit WatchdogRig(int workers) : q(JobQueueOptions{workers, &store}) {}
  ~WatchdogRig() {
    open_gate(0);
    open_gate(1);
    release();
  }

  TargetSpec gated(TargetSpec spec, int gate = 0) {
    spec.make_program = [this, gate]() -> analysis::TargetProgram {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return gate_open[gate]; });
      throw std::runtime_error("gate opened");
    };
    return spec;
  }
  void open_gate(int gate) { set(&gate_open[gate]); }

  void hold_after_step_one() {
    q.set_event_sink([this](const JobEvent& ev) {
      if (ev.state != JobState::kRunning || ev.step != 1) return;
      std::unique_lock<std::mutex> lk(mu);
      if (held != 0) return;  // later jobs' step-1 events pass through
      held = ev.id;
      cv.notify_all();
      cv.wait(lk, [&] { return released; });
    });
  }
  /// The id of the job held in the sink (0 if none arrived in time).
  JobId await_held() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait_for(lk, std::chrono::minutes(5), [&] { return held != 0; });
    return held;
  }
  void release() { set(&released); }

  /// Poll job `id` until `pred` holds (bounded; the caller asserts).
  template <typename Pred>
  JobResult await(JobId id, Pred pred) {
    JobResult r = q.status(id);
    for (int i = 0; i < 60000 && !pred(r); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      r = q.status(id);
    }
    return r;
  }

  void set(bool* flag) {
    {
      std::lock_guard<std::mutex> lk(mu);
      *flag = true;
    }
    cv.notify_all();
  }

  ArtifactStore store;
  std::mutex mu;
  std::condition_variable cv;
  bool gate_open[2] = {};
  JobId held = 0;
  bool released = false;
  JobQueue q;  // last: its workers are joined before the state above dies
};

bool in_step(const JobResult& r) { return !r.step.empty(); }

i64 stalls_since(const obs::Snapshot& before, const char* counter) {
  return obs::Registry::diff(before, obs::Registry::global().snapshot()).num(counter);
}

TEST(JobQueue, WatchdogFlagsAStepHeldOpenExactlyOnce) {
  WatchdogRig rig(1);
  JobSpec js;
  js.target = rig.gated(nginx_spec());
  JobId id = rig.q.submit(std::move(js));
  JobResult r = rig.await(id, in_step);
  ASSERT_EQ(r.step, "taint_trace");
  EXPECT_NE(r.step_since_ns, 0u);
  EXPECT_FALSE(r.step_stalled);
  obs::Snapshot before = obs::Registry::global().snapshot();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // 1 ns step deadline: the open step is over it. Exactly one new flag,
  // and a rescan flags nothing new.
  EXPECT_EQ(rig.q.watchdog_pass(1, kNever), 1u);
  EXPECT_EQ(rig.q.watchdog_pass(1, kNever), 0u);
  EXPECT_EQ(rig.q.watchdog_flags(), 1u);
  EXPECT_EQ(stalls_since(before, "crpd.watchdog.step_stalls"), 1);
  r = rig.q.status(id);
  EXPECT_TRUE(r.step_stalled);
  EXPECT_FALSE(r.lease_stalled);
  // A finished job has no step in progress and is not scanned any more.
  rig.open_gate(0);
  r = rig.q.wait(id);
  EXPECT_EQ(r.state, JobState::kFailed);
  EXPECT_EQ(r.step, "");
  EXPECT_EQ(r.step_since_ns, 0u);
  EXPECT_EQ(rig.q.watchdog_pass(1, 1), 0u);
  EXPECT_EQ(rig.q.watchdog_flags(), 1u);
}

TEST(JobQueue, WatchdogFlagsALeaseHeldBetweenSteps) {
  // The §IV-A scan holds one store lease from taint_trace to verify. A job
  // stopped between those steps runs no step, so even a 1 ns step
  // deadline leaves it alone, but its lease is over the lease deadline.
  WatchdogRig rig(1);
  rig.hold_after_step_one();
  JobSpec js;
  js.target = nginx_spec();
  JobId id = rig.q.submit(std::move(js));
  ASSERT_EQ(rig.await_held(), id);
  obs::Snapshot before = obs::Registry::global().snapshot();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(rig.q.watchdog_pass(1, 1), 1u);
  EXPECT_EQ(rig.q.watchdog_pass(1, 1), 0u);
  EXPECT_EQ(stalls_since(before, "crpd.watchdog.lease_stalls"), 1);
  EXPECT_EQ(stalls_since(before, "crpd.watchdog.step_stalls"), 0);
  JobResult r = rig.q.status(id);
  EXPECT_EQ(r.state, JobState::kRunning);
  EXPECT_EQ(r.step, "");
  EXPECT_TRUE(r.lease_stalled);
  EXPECT_FALSE(r.step_stalled);
  // Verify publishes the scan and drops the lease: nothing left to flag.
  rig.release();
  EXPECT_EQ(rig.q.wait(id).state, JobState::kDone);
  EXPECT_EQ(rig.q.watchdog_pass(1, 1), 0u);
}

TEST(JobQueue, WatchdogNeverFlagsAParkedJob) {
  // One worker: the lease-holding scan is held between taint_trace and
  // verify, a higher-priority job arrives, and the scan parks at its next
  // step boundary (releasing the lease) while the arrival sits in its
  // first step. Only the arrival can be flagged.
  WatchdogRig rig(1);
  rig.hold_after_step_one();
  JobSpec low;
  low.target = nginx_spec();
  JobId low_id = rig.q.submit(std::move(low));
  ASSERT_EQ(rig.await_held(), low_id);
  JobSpec high;
  high.target = rig.gated(nginx_spec());
  high.priority = 1;
  JobId high_id = rig.q.submit(std::move(high));
  rig.release();
  ASSERT_EQ(rig.await(high_id, in_step).step, "taint_trace");
  JobResult parked = rig.await(low_id, [](const JobResult& r) { return r.parked; });
  ASSERT_TRUE(parked.parked);
  EXPECT_EQ(parked.state, JobState::kQueued);
  EXPECT_TRUE(rig.store.held_leases().empty());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(rig.q.watchdog_pass(1, 1), 1u);
  parked = rig.q.status(low_id);
  EXPECT_FALSE(parked.step_stalled);
  EXPECT_FALSE(parked.lease_stalled);
  EXPECT_TRUE(rig.q.status(high_id).step_stalled);
  // The arrival fails at the gate; the parked scan resumes and finishes.
  rig.open_gate(0);
  EXPECT_EQ(rig.q.wait(high_id).state, JobState::kFailed);
  JobResult done = rig.q.wait(low_id);
  EXPECT_EQ(done.state, JobState::kDone);
  EXPECT_FALSE(done.parked);
}

TEST(JobQueue, JobsSharingAPinnedTraceAreWatchedSeparately) {
  // `crpc swarm --trace` pins one trace on every duplicate, so a trace id
  // is no job identity. Two cache-off jobs share trace 555; nginx_sim
  // finishes first while memcached_sim is still in its first step, which
  // must still be reported and flagged under its own job id.
  WatchdogRig rig(2);
  JobSpec a;
  a.target = rig.gated(registered("server/nginx_sim"), 0);
  a.opts.cache = false;
  a.trace = 555;
  JobSpec b = a;
  b.target = rig.gated(registered("server/memcached_sim"), 1);
  JobId a_id = rig.q.submit(std::move(a));
  JobId b_id = rig.q.submit(std::move(b));
  ASSERT_EQ(rig.await(a_id, in_step).step, "taint_trace");
  ASSERT_EQ(rig.await(b_id, in_step).step, "taint_trace");
  obs::Snapshot before = obs::Registry::global().snapshot();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(rig.q.watchdog_pass(1, kNever), 2u);
  rig.open_gate(0);
  EXPECT_EQ(rig.q.wait(a_id).state, JobState::kFailed);
  JobResult rb = rig.q.status(b_id);
  EXPECT_EQ(rb.trace, 555u);
  EXPECT_EQ(rb.state, JobState::kRunning);
  EXPECT_EQ(rb.step, "taint_trace");
  EXPECT_TRUE(rb.step_stalled);
  EXPECT_EQ(rig.q.watchdog_pass(1, kNever), 0u);
  EXPECT_EQ(stalls_since(before, "crpd.watchdog.step_stalls"), 2);
  rig.open_gate(1);
  EXPECT_EQ(rig.q.wait(b_id).state, JobState::kFailed);
}

TEST(JobQueue, OnlyTheLeaseOwnerOfASameKeyPairIsLeaseFlagged) {
  // Two identical scans share one pinned trace and one store key. The
  // owner is held between taint_trace and verify with the lease; the
  // other job blocks in acquire() behind it, holding none.
  std::atomic<bool> built{false};  // outlives the rig's workers
  WatchdogRig rig(2);
  rig.hold_after_step_one();
  JobSpec js;
  js.target = nginx_spec();
  js.trace = 555;
  JobId owner = rig.q.submit(js);
  ASSERT_EQ(rig.await_held(), owner);
  js.target.make_program = [&built, inner = js.target.make_program] {
    analysis::TargetProgram prog = inner();
    built = true;  // next: hash the images, then block in acquire()
    return prog;
  };
  JobId waiter = rig.q.submit(js);
  for (int i = 0; i < 60000 && !built; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(built);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  obs::Snapshot before = obs::Registry::global().snapshot();
  EXPECT_EQ(rig.q.watchdog_pass(kNever, 1), 1u);
  EXPECT_EQ(stalls_since(before, "crpd.watchdog.lease_stalls"), 1);
  JobResult ro = rig.q.status(owner);
  JobResult rw = rig.q.status(waiter);
  EXPECT_TRUE(ro.lease_stalled);
  EXPECT_FALSE(rw.lease_stalled);
  EXPECT_EQ(rw.step, "taint_trace");
  EXPECT_EQ(ro.trace, rw.trace);
  // The owner publishes; the waiter wakes with a hit.
  rig.release();
  ro = rig.q.wait(owner);
  rw = rig.q.wait(waiter);
  ASSERT_EQ(ro.state, JobState::kDone);
  ASSERT_EQ(rw.state, JobState::kDone);
  EXPECT_TRUE(rw.report.cache_hit);
  EXPECT_EQ(render_report(rw.report, false), render_report(ro.report, false));
}

// --- paper tables (Tables II/III, §V-B, §V-C) through run_target -----------

// Renderings cut from the bench stdout of the facade the cells replaced.
std::string golden(const char* name) {
  std::ifstream f(std::filesystem::path(CRP_SOURCE_DIR) / "tests" / "golden" / name);
  EXPECT_TRUE(f.good()) << "missing golden fixture " << name;
  std::stringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

TargetReport run_registered(const char* id) {
  ArtifactStore store;  // isolated: compute, never replay
  return Campaign({}, &store).run_target(registered(id));
}

TEST(PaperTables, TableTwoMatchesGolden) {
  EXPECT_EQ(analysis::render_table2(run_registered("browser/iexplore_sim").seh.modules),
            golden("table2_iexplore_sim.txt"));
}

TEST(PaperTables, TableThreeMatchesGolden) {
  TargetReport x64 = run_registered("corpus/dll_x64");
  TargetReport x32 = run_registered("corpus/dll_x32");
  EXPECT_EQ(analysis::render_table3(x64.seh.modules, x32.seh.modules),
            golden("table3.txt"));
}

TEST(PaperTables, ApiFunnelMatchesGolden) {
  EXPECT_EQ(analysis::render_api_funnel(run_registered("corpus/winapi").api.funnel),
            golden("api_funnel.txt"));
}

TEST(PaperTables, SystemWideSehFunnel) {
  TargetReport rep = run_registered("browser/iexplore_sys187");
  const SehFunnel& seh = rep.seh;
  size_t guarded = 0, av_sites = 0, on_path = 0;
  u64 events = 0;
  for (const analysis::ModuleSehStats& m : seh.modules) {
    guarded += m.guarded_total;
    av_sites += m.guarded_av_capable;
    on_path += m.guarded_on_path;
    events += m.trigger_events;
  }
  EXPECT_EQ(seh.modules.size(), 187u);
  EXPECT_EQ(seh.handlers, 6834u);
  EXPECT_EQ(guarded, 6834u);
  EXPECT_EQ(seh.unique_filters, 5709u);
  EXPECT_EQ(seh.av_filters, 873u);
  EXPECT_EQ(seh.manual_filters, 283u);
  EXPECT_EQ(seh.av_filter_handlers, 1580u);
  EXPECT_EQ(seh.catch_all_handlers, 284u);
  EXPECT_EQ(av_sites, 1864u);
  EXPECT_EQ(on_path, 439u);
  EXPECT_EQ(events, 13301u);
  EXPECT_EQ(rep.browse.deref_guards, 1863u);
  EXPECT_EQ(rep.browse.gratuitous_guards, 1u);
  EXPECT_EQ(rep.browse.narrow_guards, 4970u);
}

TEST(Campaign, RunTargetScansTheManagedRuntime) {
  TargetRegistry reg = TargetRegistry::builtin();
  const TargetSpec* jvm = reg.find("runtime/jvm_sim");
  ASSERT_NE(jvm, nullptr);
  ArtifactStore store;
  Campaign campaign({}, &store);
  TargetReport rep = campaign.run_target(*jvm);
  EXPECT_EQ(rep.usable, 1);  // the pc-editing SIGSEGV handler
  ASSERT_EQ(rep.candidates.size(), 1u);
  EXPECT_EQ(rep.candidates[0].cls, analysis::PrimitiveClass::kExceptionHandler);
}

}  // namespace
}  // namespace crp::pipeline
