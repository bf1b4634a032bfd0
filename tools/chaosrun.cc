// chaosrun — sweep fault-injection seeds across the registered discovery
// subjects and print a per-invariant pass/fail table.
//
// Two layers of sweep:
//
//   1. A parallel target sweep: every kLinuxServer registry subject runs a
//      reduced-budget server cell through the job engine (the inline
//      submit+wait drain of Campaign::run_target and the daemon's batch
//      path) under a per-cell ScopedPlan (one cell = target x seed, sharded
//      by exec::parallel_map; each cell runs jobs=1 because the cells
//      already fill the workers). Invariant: the funnel completes and traces work
//      under injected I/O and cache faults, step boundaries included — no
//      host crash, no hang, no empty trace.
//
//   2. The paper-level property suite via chaos::check(): oracle probes
//      never crash the target, audit_ledger() stays green, taint labels
//      survive injected -EINTR retries, the decoder never reads out of
//      bounds, warm-cache output is byte-identical to cold under cache
//      corruption, task-order perturbation never changes merged output, and
//      the store and plan decoders are total on mutated documents.
//      Failures are shrunk to a one-line CRP_CHAOS replay spec.
//
// Exit status 0 iff every invariant passed at every seed. Failing rows
// print `CRP_CHAOS=<line>` counterexamples for artifact upload (see CI).
//
// Usage: chaosrun [--seeds N] [--base-seed S] [--rate R] [--points spec]
//                 [--jobs J] [--targets substr] [--list]
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "chaos/prop.h"
#include "exec/thread_pool.h"
#include "isa/assembler.h"
#include "isa/isa.h"
#include "obs/ledger.h"
#include "obs/obs.h"
#include "oracle/oracle.h"
#include "os/kernel.h"
#include "pipeline/campaign.h"
#include "pipeline/codec.h"
#include "pipeline/job_queue.h"
#include "pipeline/registry.h"
#include "plan/replay.h"
#include "taint/taint.h"
#include "targets/common.h"
#include "targets/nginx.h"
#include "util/common.h"

namespace crp {
namespace {

namespace fs = std::filesystem;

struct Options {
  u64 seeds = 8;
  u64 base_seed = 1;
  u32 rate = 8;
  // Default sweep: the fault families every registered guest must tolerate.
  // vm-av / vm-single-step kill handler-less guests by design (that is the
  // acceptance test's planted bug, not a survivable fault), so they are
  // opt-in via --points vm.
  u32 points = chaos::kIoPoints | chaos::kCachePoints |
               chaos::point_bit(chaos::Point::kTaskOrder);
  int jobs = 0;  // exec::resolve_jobs semantics (0 = CRP_JOBS or hw)
  std::string target_filter;
  bool list = false;
};

// Reduced per-cell funnel budgets: the sweep wants breadth (many seeds x
// many targets), not the full Table I depth.
constexpr u64 kSweepDiscoverBudget = 150'000;
constexpr u64 kSweepVerifyBudget = 150'000;

struct InvariantRow {
  std::string name;
  u64 runs = 0;
  bool ok = true;
  std::string detail;  // failure message (first line of the table footnote)
  std::string replay;  // CRP_CHAOS line reproducing the failure
};

// --- phase 1: parallel target sweep ------------------------------------------

struct Cell {
  const pipeline::TargetSpec* spec = nullptr;
  u64 seed = 0;
};

struct CellVerdict {
  bool ok = true;
  std::string msg;
  std::string replay;
  u64 fired = 0;
};

CellVerdict run_cell(const Cell& cell, const Options& opt) {
  chaos::FaultPlan plan;
  plan.seed = cell.seed;
  plan.rate = opt.rate;
  plan.points = opt.points;
  chaos::ScopedPlan scope(plan);

  pipeline::CampaignOptions copts;
  copts.jobs = 1;  // the cells already fill the workers: no nested helpers
  copts.cache = false;
  copts.syscall.discover_budget = kSweepDiscoverBudget;
  copts.syscall.verify_budget = kSweepVerifyBudget;
  copts.syscall.seed = cell.seed;

  pipeline::JobQueue q(pipeline::JobQueueOptions{0, nullptr});
  pipeline::JobSpec js;
  js.target = *cell.spec;
  js.opts = copts;
  js.seed = cell.seed;
  pipeline::JobResult r = q.wait(q.submit(std::move(js)));
  const analysis::SyscallScanResult& res = r.report.server.result;
  CellVerdict v;
  v.fired = scope.events().size();
  if (r.state != pipeline::JobState::kDone) {
    v.ok = false;
    v.msg = strf("job-engine cell finished %s: %s",
                 pipeline::job_state_name(r.state), r.error.c_str());
  } else if (res.instructions == 0 || res.syscalls_traced == 0) {
    v.ok = false;
    v.msg = strf("funnel traced nothing (instructions=%llu syscalls=%llu)",
                 (unsigned long long)res.instructions,
                 (unsigned long long)res.syscalls_traced);
  }
  if (!v.ok) v.replay = chaos::format_replay(cell.seed, scope.events());
  return v;
}

// --- phase 2: property-suite helpers -----------------------------------------

// Shared world for the probe / ledger invariants: boot nginx_sim, plant a
// hidden region, hunt it with the §VI-C recv oracle. Returns nullopt when
// the world never became probeable (an injected fault killed startup —
// vacuous for a *probe* invariant), otherwise runs `verdict` on the result.
template <typename Fn>
std::optional<std::string> with_nginx_hunt(u64 seed, Fn&& verdict) {
  os::Kernel k;
  analysis::TargetProgram prog = targets::make_nginx();
  int pid = prog.instantiate(k, chaos::mix64(seed, 0x5eed));
  k.run(3'000'000);
  if (!k.proc(pid).alive()) return std::nullopt;

  gva_t hidden = targets::plant_hidden_region(k.proc(pid), 8 * 4096, 1);
  oracle::NginxRecvOracle oracle(k, pid, targets::kNginxPort);
  oracle::Scanner scanner(oracle, "chaosrun");
  scanner.hunt(hidden - 64 * 4096, hidden + 64 * 4096, 150,
               chaos::mix64(seed, 0x9e37));
  return verdict(k, pid, scanner);
}

std::optional<std::string> probe_no_crash_body(u64 seed) {
  return with_nginx_hunt(seed, [](os::Kernel& k, int pid,
                                  const oracle::Scanner& sc)
                                   -> std::optional<std::string> {
    const oracle::ScanStats& st = sc.stats();
    if (st.crashes != 0)
      return strf("scanner observed %llu probe-induced crashes",
                  (unsigned long long)st.crashes);
    if (!k.proc(pid).alive()) return std::string("target dead after hunt");
    u64 unhandled = k.proc(pid).machine().exception_stats().unhandled;
    if (unhandled != 0)
      return strf("%llu unhandled exceptions during probing",
                  (unsigned long long)unhandled);
    return std::nullopt;
  });
}

std::optional<std::string> ledger_audit_body(u64 seed) {
  obs::Ledger::global().clear();
  auto r = with_nginx_hunt(
      seed, [](os::Kernel&, int, const oracle::Scanner&)
                -> std::optional<std::string> { return std::nullopt; });
  if (r.has_value()) return r;
  obs::LedgerAudit audit = obs::audit_ledger(obs::Ledger::global());
  if (!audit.zero_crash())
    return strf("audit_ledger red: %llu crash events",
                (unsigned long long)audit.crash_events);
  return std::nullopt;
}

std::optional<std::string> plan_replay_no_crash_body(u64 seed) {
  // A synthesized-style hunt plan replayed end to end under injected
  // EFAULT/EINTR/short-I/O faults. Faults may starve the scan (the replay
  // then fails to complete — vacuous here), but probing must never crash
  // the target and the flight recorder must audit green.
  obs::Ledger::global().clear();

  plan::TargetBinding b;
  b.id = "chaosrun/nginx_sim";
  b.surface = plan::Surface::kNginxRecv;
  b.make_program = [] { return targets::make_nginx(); };
  b.port = targets::kNginxPort;
  b.aslr_seed = chaos::mix64(seed, 0x5eed);

  plan::ExploitPlan p;
  p.target_id = b.id;
  p.surface = plan::Surface::kNginxRecv;
  p.primitive = "recv(ptr) write-probe";
  p.region_pages = 8;
  p.scan.mode = plan::ScanMode::kHunt;
  p.scan.window_pages = 128;
  p.scan.max_probes = 150;
  p.scan.seed = chaos::mix64(seed, 0x9e37);
  p.scan.locate_base = false;
  p.leak.offsets = {8};
  p.hijack.offset = 32;

  plan::HarnessOptions h;
  h.pattern = 1;
  h.ledger_label = "chaosrun";
  plan::ReplayOutcome r = plan::replay_fresh(b, p, h);

  if (r.crashes != 0)
    return strf("plan replay observed %llu probe-induced crashes",
                (unsigned long long)r.crashes);
  if (r.unhandled != 0)
    return strf("%llu unhandled exceptions during plan replay",
                (unsigned long long)r.unhandled);
  obs::LedgerAudit audit = obs::audit_ledger(obs::Ledger::global());
  if (!audit.zero_crash())
    return strf("audit_ledger red after plan replay: %llu crash events",
                (unsigned long long)audit.crash_events);
  return std::nullopt;
}

std::optional<std::string> taint_eintr_body(u64 /*seed*/) {
  using isa::Assembler;
  using isa::Cond;
  using isa::Reg;
  Assembler a("srv");
  auto sys = [&a](os::Sys nr) {
    a.movi(Reg::R0, static_cast<i64>(nr));
    a.syscall();
  };
  a.label("e");
  sys(os::Sys::kSocket);
  a.mov(Reg::R5, Reg::R0);
  a.mov(Reg::R1, Reg::R5);
  a.movi(Reg::R2, 8080);
  sys(os::Sys::kBind);
  a.mov(Reg::R1, Reg::R5);
  sys(os::Sys::kListen);
  a.mov(Reg::R1, Reg::R5);
  a.movi(Reg::R2, 0);
  sys(os::Sys::kAccept);
  a.mov(Reg::R6, Reg::R0);
  a.label("retry");
  a.mov(Reg::R1, Reg::R6);
  a.lea_pc(Reg::R2, "buf");
  a.movi(Reg::R3, 64);
  sys(os::Sys::kRead);
  a.cmpi(Reg::R0, -os::kEINTR);
  a.jcc(Cond::kEq, "retry");
  a.lea_pc(Reg::R2, "buf");
  a.load(Reg::R7, Reg::R2, 8);
  a.label("stop");
  a.jmp("stop");
  a.set_entry("e");
  a.data_zero("buf", 64);

  os::Kernel k;
  int pid = k.create_process("srv", vm::Personality::kLinux, 21);
  k.proc(pid).load(std::make_shared<isa::Image>(a.build()));
  k.start_process(pid);
  taint::TaintEngine taint(k, k.proc(pid));
  k.run(50'000);
  auto client = k.connect(8080);
  if (!client.has_value()) return std::string("connect to guest failed");
  k.run(50'000);
  client->send("AAAAAAAA");
  k.run(50'000);

  gva_t buf = k.proc(pid).machine().modules()[0].symbol_addr("buf");
  taint::Mask expected = taint::mask_for_color(client->color());
  if (taint.mem_taint(buf, 8) != expected)
    return strf("buffer label lost: got %llx want %llx",
                (unsigned long long)taint.mem_taint(buf, 8),
                (unsigned long long)expected);
  if (taint.reg_taint(isa::Reg::R7) != expected)
    return std::string("register label lost across EINTR retry");
  return std::nullopt;
}

std::optional<std::string> decoder_oob_body(u64 seed) {
  chaos::Gen gen(seed);
  // Exact-sized heap buffers: an out-of-bounds read is a real OOB the
  // nightly ASan build traps, not a silent over-read of a padded array.
  for (int i = 0; i < 256; ++i) {
    std::vector<u8> word = gen.bytes(isa::kInstrBytes);
    (void)isa::decode(word);
  }
  for (size_t n = 0; n < isa::kInstrBytes; ++n) {
    std::vector<u8> part = gen.bytes(n);
    if (isa::decode(part).has_value())
      return strf("decode claimed success on a %zu-byte span", n);
  }
  return std::nullopt;
}

// store-codec-total: structure-aware mutation of valid store and plan
// documents (ARCHEAP-style, aimed at our own parsers). Every decode must
// return false or a value whose encode -> decode round-trips; a throw is a
// failure. No fault point fires: the mutations are the input space.

/// Re-encode what `doc` decodes to, or nullopt when the decoder rejects it.
using Reencode = std::optional<std::string> (*)(const std::string& doc);

template <typename T, bool (*Decode)(const std::string&, T*),
          std::string (*Encode)(const T&)>
std::optional<std::string> reencode(const std::string& doc) {
  T value;
  if (!Decode(doc, &value)) return std::nullopt;
  return Encode(value);
}

struct CodecCase {
  const char* kind;
  std::string doc;  // a valid encoding
  Reencode reencode;
  bool sealed;  // plan: mutate the body, then re-seal the checksum footer
};

std::string plan_body(const std::string& doc) { return doc.substr(0, doc.rfind("sum ")); }

std::string plan_seal(const std::string& body) {
  u64 h = 0xcbf29ce484222325ull;  // FNV-1a, the plan footer's checksum
  for (char c : body) {
    h ^= static_cast<u8>(c);
    h *= 0x100000001b3ull;
  }
  return body + strf("sum %016llx\n", (unsigned long long)h);
}

std::vector<CodecCase> codec_cases(chaos::Gen& gen) {
  Rng& rng = gen.rng();
  const char* notes[] = {"EFAULT observed; service healthy", "100% odd\tnote\r\n",
                         "plain", "a  b %zz"};
  analysis::SyscallScanResult scan;
  scan.syscalls_traced = rng.next();
  scan.instructions = rng.next();
  scan.observed = {os::Sys::kRead, os::Sys::kRecv, os::Sys::kEpollWait};
  for (int i = 0; i < 3; ++i) {
    analysis::Candidate c;
    c.target = "nginx sim";
    c.syscall = i == 0 ? os::Sys::kRecv : os::Sys::kRead;
    c.pointer_arg = 1 + i;
    c.taint_mask = rng.next();
    if (i != 1) c.pointer_home = rng.next();
    c.controllable_home = i == 0;
    c.verdict = static_cast<analysis::Verdict>(rng.below(5));
    c.note = notes[rng.below(4)];
    scan.candidates.push_back(c);
  }
  pipeline::ClassifyOutcome cls;
  cls.filters_executed = rng.next();
  cls.sat_queries = rng.below(1000);
  cls.memo_hits = rng.below(1000);
  for (int i = 0; i < 4; ++i) {
    analysis::FilterInfo f;
    f.module = i % 2 ? "sechost.dll" : "my module%.dll";
    f.offset = rng.next();
    f.machine = i % 2 ? isa::Machine::kX32 : isa::Machine::kX64;
    f.verdict = static_cast<analysis::FilterVerdict>(rng.below(3));
    f.paths_explored = rng.below(64);
    f.handlers_using = rng.below(64);
    cls.filters.push_back(f);
  }
  plan::ExploitPlan p;
  p.target_id = "server/nginx_sim";
  p.surface = plan::Surface::kNginxRecv;
  p.primitive = notes[rng.below(4)];
  p.rationale = "a rationale with spaces, %-signs and\na newline";
  p.symex_confirmed = true;
  p.region_pages = 16;
  p.scan.mode = plan::ScanMode::kHunt;
  p.scan.window_pages = rng.below(4096);
  p.scan.max_probes = rng.next();
  p.scan.seed = rng.next();
  p.leak.offsets = {8, 16, rng.next()};
  p.hijack.offset = 32;
  pipeline::TargetReport rep;
  rep.usable = static_cast<int>(rng.below(100));
  rep.summary = notes[rng.below(4)];
  for (int i = 0; i < 3; ++i) {
    analysis::Candidate c = scan.candidates[static_cast<size_t>(i)];
    c.cls = static_cast<analysis::PrimitiveClass>(rng.below(4));
    c.api_id = static_cast<u32>(rng.next());
    c.api_name = i == 0 ? "" : "CreateFileW";
    c.call_site = rng.next();
    c.script_triggerable = i == 2;
    c.exclusion = static_cast<analysis::ExclusionReason>(rng.below(4));
    c.module = notes[rng.below(4)];
    c.scope_begin = rng.below(4096);
    c.scope_end = c.scope_begin + rng.below(64);
    c.filter_off = rng.next();
    c.catch_all = i == 1;
    rep.candidates.push_back(c);
  }
  rep.seh.handlers = rng.below(8000);
  rep.seh.unique_filters = rng.below(6000);
  rep.seh.memo_hits = rng.next();
  for (int i = 0; i < 2; ++i) {
    analysis::ModuleSehStats m;
    m.module = i ? "mshtml_sim" : "";
    m.machine = i ? isa::Machine::kX32 : isa::Machine::kX64;
    m.guarded_total = rng.below(500);
    m.trigger_events = rng.next();
    m.filters_av_capable = rng.below(50);
    rep.seh.modules.push_back(m);
  }
  rep.browse.unique_pcs = rng.below(1 << 20);
  rep.browse.narrow_guards = rng.below(5000);
  rep.browse.veh.push_back({rng.next(), "?", rng.below(4096),
                            static_cast<analysis::FilterVerdict>(rng.below(3)), 7});
  rep.api.funnel.total = static_cast<u32>(rng.next());
  rep.api.funnel.controllable = static_cast<u32>(rng.below(30));
  rep.api.funnel.exclusion_histogram = {{"stack-pointer", 3}, {"odd reason%", 1}};
  rep.api.stubs = rng.below(400);

  using analysis::SyscallScanResult;
  using pipeline::ClassifyOutcome;
  using pipeline::TargetReport;
  return {
      {"syscall_scan", pipeline::encode_syscall_scan(scan),
       reencode<SyscallScanResult, pipeline::decode_syscall_scan,
                pipeline::encode_syscall_scan>,
       false},
      {"filter_classify", pipeline::encode_classify(cls),
       reencode<ClassifyOutcome, pipeline::decode_classify, pipeline::encode_classify>,
       false},
      {"plan", plan::encode_plan(p),
       reencode<plan::ExploitPlan, plan::decode_plan, plan::encode_plan>, true},
      {"class_report", pipeline::encode_class_report(rep),
       reencode<TargetReport, pipeline::decode_class_report, pipeline::encode_class_report>,
       false},
  };
}

/// One mutant of `doc` (`other` is a splice partner); *what names the
/// mutation for the failure message.
std::string mutate(Rng& rng, const std::string& doc, const std::string& other,
                   const char** what) {
  std::string m = doc;
  switch (rng.below(4)) {
    case 0:
      *what = "truncate";
      m.resize(rng.below(m.size() + 1));
      break;
    case 1:
      *what = "splice";
      m = doc.substr(0, rng.below(doc.size() + 1)) +
          other.substr(rng.below(other.size() + 1));
      break;
    case 2:
      *what = "flip";
      if (!m.empty()) m[rng.below(m.size())] ^= static_cast<char>(1u << rng.below(8));
      break;
    default: {
      // A count field (a tag followed by a number) rewritten to 2^63.
      *what = "count";
      std::vector<std::pair<size_t, size_t>> counts;  // (offset, length) of the number
      for (const char* tag : {"observed ", "candidates ", "filters ",
                              "leak ", "modules ", "veh ", "exclusions ", "target ",
                              "primitive ", "rationale ", "summary ", "reason "})
        for (size_t at = m.find(tag); at != std::string::npos; at = m.find(tag, at + 1)) {
          size_t lo = at + std::strlen(tag), hi = lo;
          while (hi < m.size() && std::isdigit(static_cast<unsigned char>(m[hi]))) ++hi;
          if (hi > lo) counts.emplace_back(lo, hi - lo);
        }
      if (counts.empty()) break;
      auto [lo, len] = counts[rng.below(counts.size())];
      m.replace(lo, len, "9223372036854775808");
      break;
    }
  }
  return m;
}

std::optional<std::string> store_codec_total_body(u64 seed) {
  chaos::Gen gen(seed);
  Rng& rng = gen.rng();
  std::vector<CodecCase> cases = codec_cases(gen);
  for (int i = 0; i < 512; ++i) {
    const CodecCase& c = cases[rng.below(cases.size())];
    const CodecCase& partner = cases[rng.below(cases.size())];
    const char* what = "";
    std::string doc;
    if (c.sealed)
      doc = plan_seal(mutate(rng, plan_body(c.doc), plan_body(partner.doc), &what));
    else
      doc = mutate(rng, c.doc, partner.doc, &what);
    try {
      std::optional<std::string> once = c.reencode(doc);
      if (!once.has_value()) continue;
      std::optional<std::string> twice = c.reencode(*once);
      if (twice != once)
        return strf("%s %s mutant #%d: decoded value does not round-trip", c.kind,
                    what, i);
    } catch (const std::exception& e) {
      return strf("%s decode threw on %s mutant #%d: %s", c.kind, what, i, e.what());
    }
  }
  return std::nullopt;
}

u64 digest_scan(const analysis::SyscallScanResult& scan) {
  u64 h = chaos::mix64(0x5ca9, scan.syscalls_traced);
  h = chaos::mix64(h, scan.instructions);
  for (os::Sys s : scan.observed)
    h = chaos::mix64(h, static_cast<u64>(s));
  for (const analysis::Candidate& c : scan.candidates) {
    for (char ch : c.describe()) h = chaos::mix64(h, static_cast<u8>(ch));
    h = chaos::mix64(h, static_cast<u64>(c.verdict));
  }
  return h;
}

std::optional<std::string> cache_cold_warm_body(u64 seed) {
  static std::atomic<u64> cell_no{0};
  fs::path dir = fs::temp_directory_path() /
                 strf("crp-chaosrun-%d-%llu-%llu", (int)getpid(),
                      (unsigned long long)seed,
                      (unsigned long long)cell_no.fetch_add(1));
  fs::create_directories(dir);

  pipeline::CampaignOptions copts;
  copts.jobs = 1;
  copts.cache = true;
  copts.syscall.discover_budget = kSweepDiscoverBudget;
  copts.syscall.verify_budget = kSweepVerifyBudget;

  // One server (its scan artifact) and the cheapest other class (its
  // class_report artifact).
  static const pipeline::TargetRegistry reg = pipeline::TargetRegistry::builtin();
  const pipeline::TargetSpec& nginx = *reg.find("server/nginx_sim");
  const pipeline::TargetSpec& jvm = *reg.find("runtime/jvm_sim");
  auto digest = [&](pipeline::ArtifactStore& store) {
    pipeline::Campaign campaign(copts, &store);
    u64 h = digest_scan(campaign.run_target(nginx).server.result);
    for (char ch : pipeline::render_report(campaign.run_target(jvm), false))
      h = chaos::mix64(h, static_cast<u8>(ch));
    return h;
  };

  pipeline::ArtifactStore cold_store;
  cold_store.set_enabled(true);
  cold_store.set_dir(dir.string());
  u64 cold_digest = digest(cold_store);

  // Fresh store over the same directory: the disk tier (possibly corrupted
  // or truncated by the plan) is all the warm run can see. Detection must
  // fall back to recompute, never decode garbage.
  pipeline::ArtifactStore warm_store;
  warm_store.set_enabled(true);
  warm_store.set_dir(dir.string());
  u64 warm_digest = digest(warm_store);

  std::error_code ec;
  fs::remove_all(dir, ec);

  if (cold_digest != warm_digest)
    return strf("warm output diverged from cold (%016llx != %016llx)",
                (unsigned long long)warm_digest,
                (unsigned long long)cold_digest);
  return std::nullopt;
}

std::optional<std::string> task_order_body(u64 seed) {
  std::vector<u64> items(64);
  for (u64 i = 0; i < items.size(); ++i) items[i] = chaos::mix64(seed, i);
  std::vector<u64> out = exec::parallel_map(
      /*jobs=*/1, items, [](size_t, const u64& v) { return chaos::mix64(v, 0x7ab); });
  for (u64 i = 0; i < items.size(); ++i)
    if (out[i] != chaos::mix64(items[i], 0x7ab))
      return strf("merged output wrong at index %llu", (unsigned long long)i);
  return std::nullopt;
}

// --- driver -------------------------------------------------------------------

InvariantRow run_property(const std::string& name, const Options& opt,
                          u32 points, const chaos::Property& body) {
  chaos::PropOptions popts;
  popts.seeds = opt.seeds;
  popts.base_seed = opt.base_seed;
  popts.rate = opt.rate;
  popts.points = points;
  chaos::PropResult res = chaos::check(name, popts, body);
  InvariantRow row;
  row.name = name;
  row.runs = res.runs;
  row.ok = res.ok();
  if (res.cex.has_value()) {
    row.detail = res.cex->message;
    row.replay = res.cex->replay;
  }
  return row;
}

bool parse_points(const char* spec, u32* out) {
  u32 mask = 0;
  std::string_view rest(spec);
  while (!rest.empty()) {
    size_t comma = rest.find(',');
    std::string_view item = rest.substr(0, comma);
    u32 bits = chaos::points_from_name(item);
    if (bits == 0) return false;
    mask |= bits;
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  *out = mask;
  return mask != 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: chaosrun [--seeds N] [--base-seed S] [--rate R]\n"
               "                [--points p1,p2,...] [--jobs J]\n"
               "                [--targets substr] [--list]\n");
  return 2;
}

}  // namespace

int chaosrun_main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--seeds") {
      const char* v = next();
      if (!v) return usage();
      opt.seeds = std::strtoull(v, nullptr, 0);
    } else if (arg == "--base-seed") {
      const char* v = next();
      if (!v) return usage();
      opt.base_seed = std::strtoull(v, nullptr, 0);
    } else if (arg == "--rate") {
      const char* v = next();
      if (!v) return usage();
      opt.rate = static_cast<u32>(std::strtoul(v, nullptr, 0));
    } else if (arg == "--points") {
      const char* v = next();
      if (!v || !parse_points(v, &opt.points)) return usage();
    } else if (arg == "--jobs") {
      const char* v = next();
      if (!v) return usage();
      opt.jobs = std::atoi(v);
    } else if (arg == "--targets") {
      const char* v = next();
      if (!v) return usage();
      opt.target_filter = v;
    } else if (arg == "--list") {
      opt.list = true;
    } else {
      return usage();
    }
  }
  if (opt.seeds == 0 || opt.rate == 0) return usage();

  pipeline::TargetRegistry reg = pipeline::TargetRegistry::builtin();
  std::vector<const pipeline::TargetSpec*> servers;
  for (const pipeline::TargetSpec* s :
       reg.of_class(pipeline::TargetClass::kLinuxServer)) {
    if (opt.target_filter.empty() ||
        s->id.find(opt.target_filter) != std::string::npos)
      servers.push_back(s);
  }
  if (opt.list) {
    for (const pipeline::TargetSpec* s : servers)
      std::printf("%s\n", s->id.c_str());
    return 0;
  }
  if (servers.empty()) {
    std::fprintf(stderr, "chaosrun: no targets match '%s'\n",
                 opt.target_filter.c_str());
    return 2;
  }

  int jobs = exec::resolve_jobs(opt.jobs);
  std::printf("chaosrun: %llu seeds (base %llu, rate 1/%u), %zu targets, %d jobs\n\n",
              (unsigned long long)opt.seeds, (unsigned long long)opt.base_seed,
              opt.rate, servers.size(), jobs);

  // Phase 1: the target sweep. One cell per seed, targets assigned
  // round-robin (a full seeds x targets matrix would be dominated by the
  // heavier workloads — cherokee_sim alone replays ~30M instructions per
  // funnel — without probing more of the fault space). Cells shard over
  // exec::parallel_map; ScopedPlan is thread-local, so each cell body is
  // self-contained on its worker.
  std::vector<Cell> cells;
  for (u64 i = 0; i < opt.seeds; ++i)
    cells.push_back(Cell{servers[i % servers.size()], opt.base_seed + i});

  std::vector<CellVerdict> verdicts = exec::parallel_map(
      jobs, cells, [&](size_t, const Cell& c) { return run_cell(c, opt); });

  std::vector<InvariantRow> rows;
  u64 sweep_fired = 0;
  for (const pipeline::TargetSpec* s : servers) {
    InvariantRow row;
    row.name = "scan-funnel/" + s->id;
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].spec != s) continue;
      ++row.runs;
      sweep_fired += verdicts[i].fired;
      if (row.ok && !verdicts[i].ok) {
        row.ok = false;
        row.detail = strf("seed %llu: %s", (unsigned long long)cells[i].seed,
                          verdicts[i].msg.c_str());
        row.replay = verdicts[i].replay;
      }
    }
    rows.push_back(std::move(row));
  }

  // Phase 2: the paper-level property suite (serial: check() owns the
  // thread-local plan while it sweeps and shrinks).
  rows.push_back(run_property("oracle-probe-no-crash", opt, chaos::kIoPoints,
                              probe_no_crash_body));
  rows.push_back(run_property("ledger-audit-green", opt, chaos::kIoPoints,
                              ledger_audit_body));
  rows.push_back(run_property("plan-replay-no-crash", opt, chaos::kIoPoints,
                              plan_replay_no_crash_body));
  rows.push_back(run_property("taint-eintr-labels", opt,
                              chaos::point_bit(chaos::Point::kSysEintr),
                              taint_eintr_body));
  rows.push_back(
      run_property("decoder-no-oob", opt, opt.points, decoder_oob_body));
  rows.push_back(run_property("cache-cold-warm-identical", opt,
                              chaos::kCachePoints, cache_cold_warm_body));
  rows.push_back(run_property("task-order-output-stable", opt,
                              chaos::point_bit(chaos::Point::kTaskOrder),
                              task_order_body));
  rows.push_back(run_property("store-codec-total", opt, 0, store_codec_total_body));

  // The table.
  size_t width = 0;
  for (const InvariantRow& r : rows) width = std::max(width, r.name.size());
  std::printf("  %-*s  %6s  %s\n", (int)width, "invariant", "seeds", "result");
  bool all_ok = true;
  for (const InvariantRow& r : rows) {
    std::printf("  %-*s  %6llu  %s\n", (int)width, r.name.c_str(),
                (unsigned long long)r.runs, r.ok ? "PASS" : "FAIL");
    all_ok = all_ok && r.ok;
  }

  obs::Registry& metrics = obs::Registry::global();
  u64 injected = 0;
  for (u32 i = 0; i < chaos::kNumPoints; ++i) {
    std::string name = std::string("chaos.injected.") +
                       chaos::point_name(static_cast<chaos::Point>(i));
    std::replace(name.begin(), name.end(), '-', '_');
    injected += metrics.counter_value(name);
  }
  std::printf("\n  faults injected: %llu total (%llu in the target sweep)\n",
              (unsigned long long)injected, (unsigned long long)sweep_fired);

  if (!all_ok) {
    std::printf("\nFAILURES:\n");
    for (const InvariantRow& r : rows) {
      if (r.ok) continue;
      std::printf("  %s: %s\n", r.name.c_str(), r.detail.c_str());
      if (!r.replay.empty())
        std::printf("    reproduce: CRP_CHAOS=%s\n", r.replay.c_str());
    }
    return 1;
  }
  std::printf("\nall invariants held\n");
  return 0;
}

}  // namespace crp

int main(int argc, char** argv) { return crp::chaosrun_main(argc, argv); }
