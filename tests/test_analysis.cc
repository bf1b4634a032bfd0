#include <gtest/gtest.h>

#include <memory>

#include "analysis/api_analysis.h"
#include "analysis/report.h"
#include "analysis/seh_analysis.h"
#include "analysis/veh_scanner.h"
#include "isa/assembler.h"
#include "obs/obs.h"
#include "os/kernel.h"
#include "trace/tracer.h"

namespace crp::analysis {
namespace {

using isa::Assembler;
using isa::Cond;
using isa::Reg;

constexpr i64 kAv = static_cast<i64>(0xC0000005);

isa::Image mixed_handlers_image(const std::string& name = "libmixed") {
  Assembler a(name);
  a.set_dll(true);
  a.label("fn");
  a.label("g1_b");
  a.nop();
  a.label("g1_e");
  a.label("g2_b");
  a.nop();
  a.label("g2_e");
  a.label("g3_b");
  a.nop();
  a.label("g3_e");
  a.ret();
  a.export_fn("fn", "fn");
  a.label("h");
  a.ret();
  // Filter 1: AV-only (accepts).
  a.label("f_av");
  a.cmpi(Reg::R1, kAv);
  a.jcc(Cond::kEq, "f_av_y");
  a.movi(Reg::R0, 0);
  a.ret();
  a.label("f_av_y");
  a.movi(Reg::R0, 1);
  a.ret();
  // Filter 2: divide-by-zero only (rejects AV).
  a.label("f_div");
  a.cmpi(Reg::R1, static_cast<i64>(0xC0000094));
  a.jcc(Cond::kEq, "f_div_y");
  a.movi(Reg::R0, 0);
  a.ret();
  a.label("f_div_y");
  a.movi(Reg::R0, 1);
  a.ret();
  a.scope("g1_b", "g1_e", "f_av", "h");
  a.scope("g2_b", "g2_e", "f_div", "h");
  a.scope("g3_b", "g3_e", "", "h");  // catch-all
  return a.build();
}

TEST(SehExtractor, ParsesScopeTablesFromBytes) {
  SehExtractor ex;
  auto bytes = isa::write_image(mixed_handlers_image());
  ASSERT_TRUE(ex.add_image_bytes(bytes));
  EXPECT_EQ(ex.handlers().size(), 3u);
  EXPECT_EQ(ex.unique_filters().size(), 2u);  // catch-all is not a function
  EXPECT_EQ(ex.handlers_in("libmixed").size(), 3u);
  EXPECT_TRUE(ex.handlers_in("nosuch").empty());
  int catch_all = 0;
  for (const auto& h : ex.handlers()) catch_all += h.catch_all ? 1 : 0;
  EXPECT_EQ(catch_all, 1);
}

TEST(SehExtractor, RejectsGarbageBytes) {
  SehExtractor ex;
  std::vector<u8> junk(100, 0x5a);
  EXPECT_FALSE(ex.add_image_bytes(junk));
  EXPECT_TRUE(ex.handlers().empty());
}

TEST(FilterClassifier, ClassifiesMixedPopulation) {
  SehExtractor ex;
  ex.add_image(std::make_shared<isa::Image>(mixed_handlers_image()));
  FilterClassifier fc;
  auto filters = fc.classify_all(ex);
  // 2 real filters + 1 synthetic catch-all row.
  ASSERT_EQ(filters.size(), 3u);
  int accepts = 0, rejects = 0;
  for (const auto& f : filters) {
    if (f.offset == isa::kFilterCatchAll) {
      EXPECT_EQ(f.verdict, FilterVerdict::kAcceptsAv);
      continue;
    }
    if (f.verdict == FilterVerdict::kAcceptsAv) ++accepts;
    if (f.verdict == FilterVerdict::kRejectsAv) ++rejects;
  }
  EXPECT_EQ(accepts, 1);
  EXPECT_EQ(rejects, 1);
  EXPECT_GE(fc.filters_executed(), 2u);
}

TEST(CoverageXref, StaticOnlyCounts) {
  SehExtractor ex;
  ex.add_image(std::make_shared<isa::Image>(mixed_handlers_image()));
  FilterClassifier fc;
  auto filters = fc.classify_all(ex);
  auto stats = CoverageXref::compute(ex, filters, nullptr, nullptr);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].module, "libmixed");
  EXPECT_EQ(stats[0].guarded_total, 3u);
  EXPECT_EQ(stats[0].guarded_av_capable, 2u);  // AV filter + catch-all
  EXPECT_EQ(stats[0].guarded_on_path, 0u);     // no tracer
  EXPECT_EQ(stats[0].filters_total, 2u);
  EXPECT_EQ(stats[0].filters_av_capable, 1u);
}

TEST(CoverageXref, DynamicOnPath) {
  // Execute only the fn containing the guards; all three guarded regions run.
  auto img = std::make_shared<isa::Image>(mixed_handlers_image());
  os::Kernel k;
  int pid = k.create_process("host", vm::Personality::kWindows, 9);
  k.proc(pid).load(img);
  // Host app calling libmixed!fn... build a tiny app.
  Assembler app("app");
  app.label("e");
  app.call_import("libmixed", "fn");
  app.halt();
  app.set_entry("e");
  k.proc(pid).load(std::make_shared<isa::Image>(app.build()));
  k.start_process(pid);
  trace::Tracer tracer(k, k.proc(pid));
  k.run(10000);

  SehExtractor ex;
  ex.add_image(img);
  FilterClassifier fc;
  auto filters = fc.classify_all(ex);
  auto stats = CoverageXref::compute(ex, filters, &tracer, &k.proc(pid));
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].guarded_on_path, 2u);  // both AV-capable guards executed
  EXPECT_GT(stats[0].trigger_events, 0u);

  auto cands = CoverageXref::candidates(ex, filters, &tracer, &k.proc(pid), "app");
  EXPECT_EQ(cands.size(), 2u);
  for (const auto& c : cands) EXPECT_EQ(c.cls, PrimitiveClass::kExceptionHandler);
}

/// Same guarded region + filter in every module, but the filter's verdict is
/// gated on a static config word reached through lea_pc — filters with equal
/// code and *different* referenced data must hash (and classify) differently.
isa::Image gated_filter_image(const std::string& name, u64 cfg_value) {
  Assembler a(name);
  a.set_dll(true);
  a.label("g_b");
  a.nop();
  a.label("g_e");
  a.ret();
  a.label("h");
  a.ret();
  a.label("f");
  a.lea_pc(Reg::R2, "cfg");
  a.load(Reg::R3, Reg::R2, 8);
  a.cmpi(Reg::R3, 0);
  a.jcc(Cond::kEq, "f_no");
  a.cmpi(Reg::R1, kAv);
  a.jcc(Cond::kEq, "f_yes");
  a.label("f_no");
  a.movi(Reg::R0, 0);
  a.ret();
  a.label("f_yes");
  a.movi(Reg::R0, 1);
  a.ret();
  a.scope("g_b", "g_e", "f", "h");
  a.data_u64("cfg", cfg_value);
  return a.build();
}

u64 only_filter_hash(const isa::Image& img) {
  SehExtractor ex;
  ex.add_image(std::make_shared<isa::Image>(img));
  auto uf = ex.unique_filters();
  EXPECT_EQ(uf.size(), 1u);
  return filter_body_hash(img, uf[0].second);
}

TEST(FilterBodyHash, EqualForClonedBodiesAcrossModules) {
  // The same filter code stamped into differently-named modules must collide
  // (that is the memo cache's whole premise)...
  auto a = mixed_handlers_image("liba");
  auto b = mixed_handlers_image("libb");
  SehExtractor ex;
  ex.add_image(std::make_shared<isa::Image>(a));
  auto uf = ex.unique_filters();
  ASSERT_EQ(uf.size(), 2u);
  EXPECT_EQ(filter_body_hash(a, uf[0].second), filter_body_hash(b, uf[0].second));
  EXPECT_EQ(filter_body_hash(a, uf[1].second), filter_body_hash(b, uf[1].second));
  // ...while distinct filter bodies in one module must not.
  EXPECT_NE(filter_body_hash(a, uf[0].second), filter_body_hash(a, uf[1].second));
}

TEST(FilterBodyHash, ReferencedStaticDataIsPartOfTheIdentity) {
  // Code-identical filters whose lea_pc-referenced config words differ
  // behave differently, so they must hash differently; equal config words
  // must still collide across modules.
  u64 off_a = only_filter_hash(gated_filter_image("cfg_off", 0));
  u64 off_b = only_filter_hash(gated_filter_image("cfg_off2", 0));
  u64 on = only_filter_hash(gated_filter_image("cfg_on", 1));
  EXPECT_EQ(off_a, off_b);
  EXPECT_NE(off_a, on);
}

std::vector<FilterInfo> classify_corpus(int jobs, u64* executed, u64* queries,
                                        u64* memo_hits) {
  SehExtractor ex;
  ex.add_image(std::make_shared<isa::Image>(mixed_handlers_image("liba")));
  ex.add_image(std::make_shared<isa::Image>(mixed_handlers_image("libb")));
  ex.add_image(std::make_shared<isa::Image>(mixed_handlers_image("libc")));
  ex.add_image(std::make_shared<isa::Image>(gated_filter_image("libgate0", 0)));
  ex.add_image(std::make_shared<isa::Image>(gated_filter_image("libgate1", 1)));
  FilterClassifier fc;
  auto out = fc.classify_all(ex, jobs);
  *executed = fc.filters_executed();
  *queries = fc.sat_queries();
  *memo_hits = fc.memo_hits();
  return out;
}

TEST(FilterClassifier, ClassifyAllIsJobCountInvariant) {
  // The determinism contract: FilterInfo rows AND every funnel counter must
  // be bit-identical whether the sweep runs serial or on 4 workers.
  u64 ex1 = 0, q1 = 0, m1 = 0, ex4 = 0, q4 = 0, m4 = 0;
  auto serial = classify_corpus(1, &ex1, &q1, &m1);
  auto parallel = classify_corpus(4, &ex4, &q4, &m4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].module, parallel[i].module) << i;
    EXPECT_EQ(serial[i].offset, parallel[i].offset) << i;
    EXPECT_EQ(serial[i].verdict, parallel[i].verdict) << i;
    EXPECT_EQ(serial[i].paths_explored, parallel[i].paths_explored) << i;
    EXPECT_EQ(serial[i].handlers_using, parallel[i].handlers_using) << i;
  }
  EXPECT_EQ(ex1, ex4);
  EXPECT_EQ(q1, q4);
  EXPECT_EQ(m1, m4);
}

TEST(FilterClassifier, MemoCacheDeduplicatesClonedFilters) {
  u64 executed = 0, queries = 0, memo_hits = 0;
  auto rows = classify_corpus(2, &executed, &queries, &memo_hits);
  // 3 clones × 2 filters + 2 gated filters = 8 unique (module, offset)
  // items, but only 4 unique bodies run (f_av, f_div, gate-off, gate-on —
  // the two gated filters differ through their referenced config words).
  EXPECT_EQ(executed, 4u);
  EXPECT_EQ(memo_hits, 4u);  // libb + libc rows answered from the memo
  // Verdicts still correct per module.
  int accepts = 0;
  for (const auto& f : rows)
    if (f.offset != isa::kFilterCatchAll && f.verdict == FilterVerdict::kAcceptsAv)
      ++accepts;
  EXPECT_EQ(accepts, 4);  // f_av × 3 clones + the cfg=1 gated filter
}

TEST(SehExtractor, AddImagesBytesMatchesSerialAdds) {
  std::vector<std::vector<u8>> blobs;
  blobs.push_back(isa::write_image(mixed_handlers_image("liba")));
  blobs.push_back(isa::write_image(gated_filter_image("libgate", 1)));
  SehExtractor batch;
  EXPECT_TRUE(batch.add_images_bytes(blobs, 4));
  SehExtractor serial;
  for (const auto& b : blobs) ASSERT_TRUE(serial.add_image_bytes(b));
  ASSERT_EQ(batch.handlers().size(), serial.handlers().size());
  for (size_t i = 0; i < batch.handlers().size(); ++i) {
    EXPECT_EQ(batch.handlers()[i].module, serial.handlers()[i].module) << i;
    EXPECT_EQ(batch.handlers()[i].scope.filter, serial.handlers()[i].scope.filter) << i;
  }
}

TEST(SehExtractor, AddImagesBytesReportsMalformedBlob) {
  std::vector<std::vector<u8>> blobs;
  blobs.push_back(isa::write_image(mixed_handlers_image("liba")));
  blobs.push_back(std::vector<u8>(64, 0x5a));  // garbage
  blobs.push_back(isa::write_image(mixed_handlers_image("libb")));
  SehExtractor ex;
  EXPECT_FALSE(ex.add_images_bytes(blobs, 2));
  // Well-formed blobs are still added, in input order.
  EXPECT_EQ(ex.images().size(), 2u);
  EXPECT_EQ(ex.handlers().size(), 6u);
}

TEST(ApiFuzzer, FuzzAllIsJobCountInvariant) {
  os::Kernel k;
  k.winapi().generate_population(4242, 300, 1.0, 0.4);
  ApiFuzzer fuzzer;
  // The batch's task count is gated as job-invariant too (benchdiff's
  // analysis.pool.tasks), so the chunking must not follow the job count.
  obs::Counter& tasks = obs::Registry::global().counter("analysis.pool.tasks");
  u64 t0 = tasks.value();
  ApiFuzzResult serial = fuzzer.fuzz_all(k, 1);
  u64 t1 = tasks.value();
  ApiFuzzResult parallel = fuzzer.fuzz_all(k, 4);
  u64 t2 = tasks.value();
  EXPECT_EQ(serial.total_apis, parallel.total_apis);
  EXPECT_EQ(serial.with_pointer_args, parallel.with_pointer_args);
  EXPECT_EQ(serial.probes_executed, parallel.probes_executed);
  EXPECT_EQ(serial.crash_resistant, parallel.crash_resistant);
  EXPECT_FALSE(serial.crash_resistant.empty());
  EXPECT_EQ(t2 - t1, t1 - t0);
  EXPECT_GT(t1 - t0, 0u);
}

TEST(ApiFuzzer, SeparatesResistantFromFaulting) {
  os::Kernel k;
  // 200 synthetic APIs: 100% pointer-taking, 40% resistant.
  k.winapi().generate_population(31337, 200, 1.0, 0.4);
  ApiFuzzer fuzzer;
  ApiFuzzResult res = fuzzer.fuzz_all(k);
  // Base APIs + population.
  EXPECT_GT(res.total_apis, 200u);
  EXPECT_GE(res.with_pointer_args, 190u);
  // Fuzz verdicts must match the generator's ground-truth behaviors exactly.
  for (const auto& [id, spec] : k.winapi().all()) {
    if (id < os::kApiPopulationBase || !spec.has_pointer_arg()) continue;
    bool expected = spec.behavior == os::ApiBehavior::kValidating ||
                    spec.behavior == os::ApiBehavior::kGuardedDeref ||
                    spec.behavior == os::ApiBehavior::kQuery;
    EXPECT_EQ(res.crash_resistant.contains(id), expected) << spec.name;
  }
}

TEST(ApiFuzzer, PopulationRatiosMatchRequest) {
  os::Kernel k;
  k.winapi().generate_population(7, 2000, 0.557, 0.035);
  u32 with_ptr = 0, resistant = 0;
  for (const auto& [id, spec] : k.winapi().all()) {
    if (id < os::kApiPopulationBase) continue;
    if (!spec.has_pointer_arg()) continue;
    ++with_ptr;
    if (spec.behavior != os::ApiBehavior::kUncheckedDeref) ++resistant;
  }
  EXPECT_NEAR(with_ptr / 2000.0, 0.557, 0.05);
  EXPECT_NEAR(static_cast<double>(resistant) / with_ptr, 0.035, 0.02);
}

TEST(ApiCallSiteTracer, ClassifiesExclusionReasons) {
  os::Kernel k;
  // One validating (crash-resistant) API taking a pointer.
  os::ApiSpec api;
  api.id = 500;
  api.name = "NiceApi";
  api.args = {os::ArgKind::kPtrIn};
  api.ptr_sizes = {8};
  api.behavior = os::ApiBehavior::kValidating;
  k.winapi().add(api);

  // App: calls NiceApi 3 ways — with a stack pointer, with a heap pointer
  // that guest code also dereferences, and with a referenced heap pointer.
  Assembler a("app");
  a.label("e");
  // (1) stack pointer
  a.mov(Reg::R1, Reg::SP);
  a.subi(Reg::R1, 64);
  a.label("site1");
  a.apicall(500);
  // (2) heap pointer, also dereferenced by guest code
  a.movi(Reg::R1, 4096);
  a.apicall(os::kApiHeapAlloc);
  a.mov(Reg::R7, Reg::R0);
  a.load(Reg::R3, Reg::R7, 8);  // guest deref
  a.mov(Reg::R1, Reg::R7);
  a.label("site2");
  a.apicall(500);
  // (3) heap pointer stored in a global (referenced), never guest-derefed
  a.movi(Reg::R1, 4096);
  a.apicall(os::kApiHeapAlloc);
  a.lea_pc(Reg::R2, "gref");
  a.store(Reg::R2, 0, Reg::R0, 8);
  a.mov(Reg::R1, Reg::R0);
  a.label("site3");
  a.apicall(500);
  a.halt();
  a.set_entry("e");
  a.data_u64("gref", 0);

  int pid = k.create_process("app", vm::Personality::kWindows, 11);
  k.proc(pid).load(std::make_shared<isa::Image>(a.build()));
  k.start_process(pid);
  trace::Tracer tracer(k, k.proc(pid));
  tracer.set_record_mem_accesses(true);
  k.run(50000);
  ASSERT_FALSE(k.proc(pid).exit_info().crashed);

  std::set<u32> resistant = {500};
  auto sites = ApiCallSiteTracer::analyze(tracer, resistant, k, k.proc(pid), "jscript");
  ASSERT_EQ(sites.size(), 3u);
  const auto& mod = k.proc(pid).machine().modules()[0];
  auto find_site = [&](const char* label) -> const ApiSiteInfo* {
    gva_t want = mod.symbol_addr(label);
    for (const auto& s : sites)
      if (s.call_site == want) return &s;
    return nullptr;
  };
  ASSERT_NE(find_site("site1"), nullptr);
  EXPECT_EQ(find_site("site1")->exclusion, ExclusionReason::kStackPointer);
  ASSERT_NE(find_site("site2"), nullptr);
  EXPECT_EQ(find_site("site2")->exclusion, ExclusionReason::kDerefedOutside);
  ASSERT_NE(find_site("site3"), nullptr);
  EXPECT_EQ(find_site("site3")->exclusion, ExclusionReason::kNone);  // controllable
  for (const auto& s : sites) EXPECT_FALSE(s.script_triggerable);
}

TEST(VehScanner, FindsRuntimeRegisteredAvHandler) {
  // App registers two VEHs: one that resolves AVs (skip + continue), one
  // that never does. Only the first must be reported AV-capable.
  Assembler a("app");
  a.label("e");
  a.movi(Reg::R1, 1);
  a.lea_pc(Reg::R2, "veh_good");
  a.apicall(os::kApiAddVeh);
  a.movi(Reg::R1, 1);
  a.lea_pc(Reg::R2, "veh_pass");
  a.apicall(os::kApiAddVeh);
  a.halt();
  a.label("veh_good");  // R1 = &record
  a.load(Reg::R3, Reg::R1, 8, 0);
  a.cmpi(Reg::R3, kAv);
  a.jcc(Cond::kNe, "vg_no");
  a.load(Reg::R3, Reg::R1, 8, 160);
  a.addi(Reg::R3, 16);
  a.store(Reg::R1, 160, Reg::R3, 8);
  a.movi(Reg::R0, -1);
  a.ret();
  a.label("vg_no");
  a.movi(Reg::R0, 0);
  a.ret();
  a.label("veh_pass");
  a.movi(Reg::R0, 0);
  a.ret();
  a.set_entry("e");

  os::Kernel k;
  int pid = k.create_process("app", vm::Personality::kWindows, 13);
  k.proc(pid).load(std::make_shared<isa::Image>(a.build()));
  k.start_process(pid);
  trace::Tracer tracer(k, k.proc(pid));
  k.run(10000);

  auto handlers = VehScanner::scan(tracer, k.proc(pid));
  ASSERT_EQ(handlers.size(), 2u);
  int accepts = 0;
  for (const auto& h : handlers) {
    EXPECT_EQ(h.module, "app");
    if (h.verdict == FilterVerdict::kAcceptsAv) ++accepts;
  }
  EXPECT_EQ(accepts, 1);
  auto cands = VehScanner::candidates(handlers, "app");
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].cls, PrimitiveClass::kExceptionHandler);
}

TEST(Report, Table1Rendering) {
  std::map<std::string, SyscallScanResult> results;
  SyscallScanResult r;
  r.observed = {os::Sys::kRecv, os::Sys::kOpen};
  Candidate c;
  c.syscall = os::Sys::kRecv;
  c.pointer_arg = 2;
  c.verdict = Verdict::kUsable;
  r.candidates.push_back(c);
  results["srv"] = r;
  std::string out = render_table1({"srv"}, results);
  EXPECT_NE(out.find("recv"), std::string::npos);
  EXPECT_NE(out.find("(+)"), std::string::npos);
  EXPECT_NE(out.find("open"), std::string::npos);
  // Unobserved syscalls are not rendered as rows with data.
  EXPECT_EQ(out.find("sendmsg"), std::string::npos);
}

TEST(Report, FunnelRendering) {
  ApiFunnel f;
  f.total = 20672;
  f.with_pointer = 11521;
  f.crash_resistant = 400;
  f.on_execution_path = 25;
  f.script_triggerable = 12;
  f.controllable = 0;
  f.exclusion_histogram["stack-pointer"] = 5;
  std::string out = render_api_funnel(f);
  EXPECT_NE(out.find("20672"), std::string::npos);
  EXPECT_NE(out.find("55.7%"), std::string::npos);
  EXPECT_NE(out.find("stack-pointer"), std::string::npos);
}

TEST(Candidates, DescribeIsHumanReadable) {
  Candidate c;
  c.cls = PrimitiveClass::kSyscall;
  c.target = "nginx_sim";
  c.syscall = os::Sys::kRecv;
  c.pointer_arg = 2;
  c.verdict = Verdict::kUsable;
  std::string s = c.describe();
  EXPECT_NE(s.find("nginx_sim"), std::string::npos);
  EXPECT_NE(s.find("recv"), std::string::npos);
  EXPECT_NE(s.find("usable"), std::string::npos);
}

}  // namespace
}  // namespace crp::analysis
