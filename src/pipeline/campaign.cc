#include "pipeline/campaign.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "analysis/guard_audit.h"
#include "analysis/seh_analysis.h"
#include "analysis/signal_scanner.h"
#include "exec/thread_pool.h"
#include "obs/journal.h"
#include "obs/ledger.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "os/abi.h"
#include "pipeline/codec.h"
#include "pipeline/job_queue.h"
#include "targets/jvm.h"
#include "targets/nginx.h"
#include "trace/tracer.h"
#include "util/rng.h"

namespace crp::pipeline {

targets::BrowserSim::Options browser_options(const TargetSpec& spec) {
  targets::BrowserSim::Options o;
  o.kind = spec.browser_kind;
  o.seed = spec.seed;
  o.filler_dlls = spec.filler_dlls;
  return o;
}

std::string render_report(const TargetReport& rep, bool cache_tag) {
  std::string out =
      strf("--- %-24s [%s]\n", rep.id.c_str(), target_class_name(rep.cls));
  out += strf("    %s%s\n", rep.summary.c_str(),
              cache_tag && rep.cache_hit ? " [cached]" : "");
  for (const analysis::Candidate& c : rep.candidates) {
    if (c.verdict == analysis::Verdict::kUsable ||
        c.cls != analysis::PrimitiveClass::kSyscall)
      out += strf("    * %s\n", c.describe().c_str());
  }
  if (rep.has_plan) {
    out += strf("    plan: %s%s%s\n",
                plan::surface_name(rep.exploit_plan.surface),
                rep.exploit_plan.symex_confirmed ? " [symex]" : "",
                cache_tag && rep.plan_cache_hit ? " [cached]" : "");
    out += strf("    replay: %s\n", rep.plan_replay.summary().c_str());
  }
  out += "\n";
  return out;
}

Campaign::Campaign(CampaignOptions opts, ArtifactStore* store)
    : opts_(opts), store_(store != nullptr ? store : &ArtifactStore::global()) {}

namespace {

/// Content hash of a target program: its name, personality, port and
/// every image's serialized bytes.
u64 program_content_hash(const analysis::TargetProgram& prog) {
  Hasher in;
  in.str(prog.name)
      .u64v(static_cast<u64>(prog.personality))
      .u64v(prog.port)
      .u64v(prog.images.size());
  for (const auto& img : prog.images) {
    std::vector<u8> bytes = isa::write_image(*img);
    in.u64v(bytes.size()).bytes(bytes.data(), bytes.size());
  }
  return in.digest();
}

ArtifactKey syscall_scan_key_for(const analysis::TargetProgram& prog,
                                 const CampaignOptions& opts) {
  u64 cfg = Hasher()
                .u64v(opts.syscall.discover_budget)
                .u64v(opts.syscall.verify_budget)
                .u64v(opts.syscall.check_service_liveness ? 1 : 0)
                .u64v(opts.syscall.seed)
                .digest();
  return ArtifactKey{"taint_trace", program_content_hash(prog), cfg};
}

/// Hash of the classifier configuration the SEH, VEH and signal scans run
/// with (the default ClassifyOptions), part of their classes' config key.
u64 classify_config_hash() {
  const analysis::ClassifyOptions o;
  return Hasher()
      .u64v(o.max_paths)
      .u64v(o.max_steps)
      .u64v(o.solver_conflicts)
      .u64v(o.continue_execution_counts ? 1 : 0)
      .digest();
}

/// Content hash of the fuzzable API surface: every spec's identity and
/// pointer metadata (never the host `impl` closure — behavior observable by
/// the fuzzer is fully determined by these fields).
u64 api_surface_hash(const os::Kernel& kernel) {
  Hasher h;
  for (const auto& [id, spec] : kernel.winapi().all()) {
    h.u64v(id).str(spec.name);
    for (os::ArgKind k : spec.args) h.u64v(static_cast<u64>(k));
    for (u32 sz : spec.ptr_sizes) h.u64v(sz);
    h.u64v(static_cast<u64>(spec.behavior)).u64v(spec.error_ret);
  }
  return h.digest();
}

/// Content hash of a serialized-image corpus (an SEH cell's input content).
u64 corpus_content_hash(const std::vector<std::vector<u8>>& blobs) {
  Hasher h;
  for (const auto& b : blobs) h.u64v(b.size()).bytes(b.data(), b.size());
  return h.digest();
}

/// Flight-recorder view of a verify verdict. kCrashes means the candidate
/// was DISQUALIFIED because probing through it kills the target — recorded
/// as a verify-stage crash event (expected; the zero-crash invariant only
/// binds the probing stages). Everything tested and surviving is kSurvive;
/// untested candidates read as kTimeout.
obs::ProbeOutcome verdict_outcome(analysis::Verdict v) {
  switch (v) {
    case analysis::Verdict::kCrashes: return obs::ProbeOutcome::kCrash;
    case analysis::Verdict::kUsable:
    case analysis::Verdict::kNotControllable:
    case analysis::Verdict::kFalsePositive: return obs::ProbeOutcome::kSurvive;
    case analysis::Verdict::kUntested: return obs::ProbeOutcome::kTimeout;
  }
  return obs::ProbeOutcome::kTimeout;
}

/// Map a registry entry onto the plan layer's oracle-surface binding (the
/// plan library sits below pipeline, so the registry-id -> surface mapping
/// lives here): nginx_sim drives the §VI-C recv() oracle, jvm_sim the
/// NPE-flag oracle, the two browser kinds their SEH/poll oracles; every
/// other class binds kNone (empty plan, trivial replay).
plan::TargetBinding binding_for(const TargetSpec& spec) {
  plan::TargetBinding b;
  b.id = spec.id;
  switch (spec.cls) {
    case TargetClass::kLinuxServer:
      // Only nginx_sim exposes the §VI-C parked-buffer recv() oracle (the
      // leak step scans its conn_table global); the other Table I servers
      // contribute syscall evidence but no scan surface.
      if (spec.id == "server/nginx_sim") {
        b.surface = plan::Surface::kNginxRecv;
        b.make_program = spec.make_program;
        b.port = targets::kNginxPort;
        b.aslr_seed = 0xD15C0;
      }
      break;
    case TargetClass::kManagedRuntime:
      if (spec.id == "runtime/jvm_sim") {
        b.surface = plan::Surface::kJvmNpe;
        b.make_program = spec.make_program;
        b.port = targets::kJvmPort;
        b.aslr_seed = 0xD15C0;
      }
      break;
    case TargetClass::kBrowser:
      b.surface = spec.browser_kind == targets::BrowserSim::Kind::kIE
                      ? plan::Surface::kBrowserSeh
                      : plan::Surface::kBrowserPoll;
      b.browser = browser_options(spec);
      break;
    case TargetClass::kDllCorpus:
    case TargetClass::kApiCorpus:
      break;  // static / no running instance: no surface
  }
  return b;
}

/// Observability for one cell step: a `pipeline.stage.<id>.runs` counter,
/// a `pipeline.stage.<id>.ns` latency histogram, a journal span
/// ("stage:<id>", category "pipeline", the target's name hash as its
/// `subject` arg) and the profiler's stage and target context, so the
/// virtual-time samples taken while the step runs carry both.
class StageScope {
 public:
  StageScope(const char* id, const std::string& target)
      : id_(id), target_(target), t0_ns_(obs::trace_now_ns()), prof_stage_(id),
        prof_target_(target) {
    obs::Registry::global().counter(strf("pipeline.stage.%s.runs", id_)).inc();
  }
  ~StageScope() {
    u64 dt = obs::trace_now_ns() - t0_ns_;
    obs::Registry::global().histogram(strf("pipeline.stage.%s.ns", id_)).record(dt);
    obs::Journal::global().span(
        strf("stage:%s", id_), "pipeline", t0_ns_ / 1000, dt / 1000, 0, "subject",
        static_cast<i64>(hash_bytes(target_.data(), target_.size())));
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  const char* id_;
  const std::string& target_;
  u64 t0_ns_;
  obs::ScopedProfStage prof_stage_;
  obs::ScopedProfTarget prof_target_;
};

}  // namespace

ArtifactKey Campaign::syscall_scan_key(const analysis::TargetProgram& prog) const {
  return syscall_scan_key_for(prog, opts_);
}

// --- exploit-plan epilogue ------------------------------------------------------

bool synthesize_plan(const TargetSpec& spec,
                     const std::vector<analysis::Candidate>& candidates,
                     const plan::SynthOptions& opts, ArtifactStore* store,
                     plan::ExploitPlan* out) {
  Hasher ih;
  ih.str(spec.id).u64v(candidates.size());
  for (const analysis::Candidate& c : candidates)
    ih.str(c.describe())
        .u64v(static_cast<u64>(c.verdict))
        .u64v(c.controllable_home ? 1 : 0)
        .u64v(c.catch_all ? 1 : 0);
  u64 cfg = Hasher()
                .u64v(static_cast<u64>(plan::kPlanVersion))
                .u64v(opts.window_pages)
                .u64v(opts.region_pages)
                .u64v(opts.seed)
                .digest();
  auto compute = [&] { return plan::synthesize(binding_for(spec), candidates, opts); };
  if (store == nullptr) {
    *out = compute();
    return false;
  }
  // A stored plan that fails to decode counts as a miss.
  CacheLease lease(store);
  std::string doc;
  if (lease.acquire(ArtifactKey{"plan_synth", ih.digest(), cfg}, &doc) &&
      plan::decode_plan(doc, out))
    return true;
  *out = compute();
  lease.publish(plan::encode_plan(*out));
  return false;
}

// --- target cells --------------------------------------------------------------

TargetCell::TargetCell(const CampaignOptions& opts, ArtifactStore* store,
                       TargetSpec spec, std::vector<Step> steps)
    : opts_(opts),
      store_(store),
      spec_(std::move(spec)),
      steps_(std::move(steps)),
      lease_(store) {
  report_.id = spec_.id;
  report_.cls = spec_.cls;
  for (size_t i = 0; i < steps_.size(); ++i)
    if (steps_[i].computes) publish_at_ = i + 1;
  if (!opts_.plan) return;
  // The exploit-plan epilogue: synthesize from the finished report's
  // candidates, then replay against a fresh target instance (never cached:
  // the replay's crash numbers must come from a real run). Both steps run
  // on a class hit too; plan_synth keeps its own cache.
  steps_.push_back({"plan_synth",
                    [this] {
                      plan::SynthOptions so;
                      so.window_pages = opts_.plan_window_pages;
                      so.region_pages = opts_.plan_region_pages;
                      report_.plan_cache_hit = synthesize_plan(
                          spec_, report_.candidates, so, store_, &report_.exploit_plan);
                      report_.has_plan = true;
                    },
                    false});
  steps_.push_back({"plan_verify",
                    [this] {
                      report_.plan_replay =
                          plan::replay_fresh(binding_for(spec_), report_.exploit_plan);
                    },
                    false});
}

void TargetCell::run_step() {
  CRP_CHECK(next_ < steps_.size());
  const Step& step = steps_[next_];
  StageScope scope(step.name, spec_.id);
  if (parked_) {
    parked_ = false;
    lookup();
  }
  if (!hit_ || !step.computes) step.body();
  if (++next_ == publish_at_ && keyed_ && !hit_) lease_.publish(encode_result());
}

void TargetCell::on_park() {
  if (!lease_.held()) return;
  lease_.release();
  parked_ = true;
}

bool TargetCell::claim(const std::function<ArtifactKey()>& key) {
  if (store_ == nullptr) return false;
  key_ = key();
  keyed_ = true;
  return lookup();
}

/// A hit that fails to decode recomputes without the lease; the publish
/// then replaces the stored blob.
bool TargetCell::lookup() {
  std::string doc;
  hit_ = lease_.acquire(key_, &doc) && decode_result(doc);
  if (hit_) report_.cache_hit = true;
  return hit_;
}

std::string TargetCell::encode_result() const { return encode_class_report(report_); }

bool TargetCell::decode_result(const std::string& doc) {
  return decode_class_report(doc, &report_);
}

namespace {

/// The class_report key: the class's input content under the registry id
/// (candidates carry the id as their target name), and every option the
/// class steps read.
ArtifactKey class_report_key(const TargetSpec& spec, u64 content, u64 config) {
  return ArtifactKey{"class_report", Hasher().str(spec.id).u64v(content).digest(), config};
}

// The Linux-syscall funnel (§IV-A). The whole verified scan is the class
// artifact (keyed by syscall_scan_key_for), published once verify is done;
// the finalize step renders it into the report on a hit as well.
// Guest-running steps label profiler samples with the program name (the
// Table I column).
class ServerCell final : public TargetCell {
 public:
  ServerCell(const CampaignOptions& o, ArtifactStore* s, TargetSpec spec)
      : TargetCell(o, s, std::move(spec),
                   {{"taint_trace", [this] { trace(); }, false},
                    {"candidates", [this] { select(); }},
                    {"verify", [this] { verify(); }},
                    {"finalize", [this] { finalize(); }, false}}) {}

 private:
  std::string encode_result() const override { return encode_syscall_scan(scan_.result); }
  bool decode_result(const std::string& doc) override {
    return decode_syscall_scan(doc, &scan_.result);
  }

  /// Run the test-suite workload under byte-granular taint tracking,
  /// recording every EFAULT-capable syscall and the taint/provenance of
  /// its pointer arguments.
  void trace() {
    CRP_CHECK(spec_.make_program != nullptr);
    prog_ = spec_.make_program();
    scan_.name = prog_.name;
    obs::ScopedProfTarget prof(prog_.name);
    if (claim([&] { return syscall_scan_key_for(prog_, opts_); })) return;
    scan_.result = analysis::SyscallScanner(prog_, opts_.syscall).discover();
  }

  /// Keep the traced pointer-argument sites whose syscall can return
  /// -EFAULT (the paper's §IV-A filter).
  void select() {
    const std::vector<os::Sys>& efault = os::efault_capable_syscalls();
    for (const analysis::Candidate& c : scan_.result.candidates)
      if (c.pointer_arg > 0 &&
          std::find(efault.begin(), efault.end(), c.syscall) != efault.end())
        cands_.push_back(c);
  }

  /// Verify each candidate in a fresh target instance (corrupt the pointer,
  /// keep driving the workload, classify the outcome), sharded by
  /// exec::parallel_map and merged in input order.
  void verify() {
    obs::ScopedProfTarget prof(prog_.name);
    scan_.result.candidates = exec::parallel_map(
        opts_.jobs, cands_,
        [&](size_t, const analysis::Candidate& c) {
          analysis::Candidate v = c;
          analysis::SyscallScanner(prog_, opts_.syscall).verify(v);
          return v;
        },
        "verify");
    // Flight-recorder events go out from this thread after the merge, in
    // input order, so the ledger is identical at any job count.
    obs::Ledger& led = obs::Ledger::global();
    u32 target_id = led.intern(prog_.name);
    for (const analysis::Candidate& v : scan_.result.candidates) {
      std::string prim =
          v.api_name.empty() ? std::string(os::sys_name(v.syscall)) : v.api_name;
      led.record(obs::LedgerStage::kVerify, verdict_outcome(v.verdict),
                 led.intern(prim), target_id, v.pointer_home.value_or(0), 0);
    }
  }

  void finalize() {
    report_.candidates = scan_.result.candidates;
    int fps = 0;
    for (const auto& c : report_.candidates) {
      report_.usable += c.verdict == analysis::Verdict::kUsable ? 1 : 0;
      fps += c.verdict == analysis::Verdict::kFalsePositive ? 1 : 0;
    }
    report_.summary =
        strf("%zu syscalls observed, %zu candidates, %d usable, %d false-positive",
             scan_.result.observed.size(), report_.candidates.size(), report_.usable,
             fps);
    report_.server = std::move(scan_);
  }

  analysis::TargetProgram prog_;
  std::vector<analysis::Candidate> cands_;
  ServerScan scan_;
};

// The Linux signal-handler class (§III-B): boot the runtime, then classify
// the SIGSEGV handlers its startup installed.
class RuntimeCell final : public TargetCell {
 public:
  RuntimeCell(const CampaignOptions& o, ArtifactStore* s, TargetSpec spec)
      : TargetCell(o, s, std::move(spec),
                   {{"boot", [this] { boot(); }, false},
                    {"signal_scan",
                     [this] {
                       handlers_ = analysis::SignalScanner::scan(kernel_->proc(pid_));
                     }},
                    {"finalize", [this] { finalize(); }}}) {}

 private:
  void boot() {
    CRP_CHECK(spec_.make_program != nullptr);
    prog_ = spec_.make_program();
    if (claim([&] {
          return class_report_key(spec_, program_content_hash(prog_),
                                  Hasher()
                                      .u64v(opts_.syscall.seed)
                                      .u64v(classify_config_hash())
                                      .digest());
        }))
      return;
    kernel_ = std::make_unique<os::Kernel>();
    pid_ = prog_.instantiate(*kernel_, opts_.syscall.seed);
    kernel_->run(2'000'000);  // let startup install its signal handlers
  }

  void finalize() {
    report_.candidates = analysis::SignalScanner::candidates(handlers_, prog_.name);
    for (const auto& h : handlers_)
      report_.usable += h.verdict == analysis::FilterVerdict::kAcceptsAv ? 1 : 0;
    report_.summary = strf("%zu installed signal handlers, %d recovering (pc-editing)",
                           handlers_.size(), report_.usable);
    kernel_.reset();
  }

  analysis::TargetProgram prog_;
  std::unique_ptr<os::Kernel> kernel_;
  int pid_ = 0;
  std::vector<analysis::SignalHandlerInfo> handlers_;
};

// The SEH funnel's shared middle (§IV-C), for browsers and DLL corpora:
// parse scope tables out of serialized images, then symbolically classify
// every unique filter.
class SehCell : public TargetCell {
 protected:
  using TargetCell::TargetCell;

  /// The first step's half: keep the serialized images for seh_extract and
  /// hash them (the content half of the class key).
  void set_blobs(std::vector<std::vector<u8>> blobs) {
    blobs_ = std::move(blobs);
    content_hash_ = corpus_content_hash(blobs_);
  }

  /// Sharded by exec::parallel_map, merged in input order. Panics on malformed
  /// blobs: corpora are generated in-process. The extractor keeps its own
  /// parsed images, so the blobs are freed here.
  void seh_extract() {
    CRP_CHECK(ex_.add_images_bytes(blobs_, opts_.jobs));
    blobs_ = {};
  }

  /// Symbolically classify every unique filter, keeping the classifier
  /// counters the benches print.
  void classify() {
    analysis::FilterClassifier fc;
    cls_.filters = fc.classify_all(ex_, opts_.jobs);
    cls_.filters_executed = fc.filters_executed();
    cls_.sat_queries = fc.sat_queries();
    cls_.memo_hits = fc.memo_hits();
  }

  /// The Table II/III rows (cross-referenced with traced coverage when
  /// tracer/proc are given) and the tallies the SEH benches print.
  SehFunnel funnel(const trace::Tracer* tracer, const os::Process* proc) const {
    SehFunnel f;
    f.modules = analysis::CoverageXref::compute(ex_, cls_.filters, tracer, proc);
    f.handlers = ex_.handlers().size();
    f.unique_filters = ex_.unique_filters().size();
    for (const auto& h : ex_.handlers()) f.catch_all_handlers += h.catch_all ? 1 : 0;
    for (const auto& fi : cls_.filters) {
      if (fi.offset == isa::kFilterCatchAll) continue;
      if (fi.verdict == analysis::FilterVerdict::kAcceptsAv) {
        ++f.av_filters;
        f.av_filter_handlers += fi.handlers_using;
      }
      if (fi.verdict == analysis::FilterVerdict::kNeedsManual) ++f.manual_filters;
    }
    f.filters_executed = cls_.filters_executed;
    f.sat_queries = cls_.sat_queries;
    f.memo_hits = cls_.memo_hits;
    return f;
  }

  /// The classify step's output: the per-filter verdicts plus the
  /// classifier counters.
  struct ClassifyOutcome {
    std::vector<analysis::FilterInfo> filters;
    u64 filters_executed = 0;
    u64 sat_queries = 0;
    u64 memo_hits = 0;
  };

  std::vector<std::vector<u8>> blobs_;  // the serialized images seh_extract parses
  analysis::SehExtractor ex_;
  u64 content_hash_ = 0;
  ClassifyOutcome cls_;
};

// Browsers (Table II, §V-C, §VII): the traced workload, the SEH funnel
// cross-referenced with its coverage, VEH harvesting and the guard audit.
class BrowserCell final : public SehCell {
 public:
  BrowserCell(const CampaignOptions& o, ArtifactStore* s, TargetSpec spec)
      : SehCell(o, s, std::move(spec),
                {{"browse", [this] { browse(); }, false},
                 {"seh_extract", [this] { seh_extract(); }},
                 {"classify", [this] { classify(); }},
                 {"xref_veh", [this] { xref_veh(); }},
                 {"finalize", [this] { finalize(); }}}) {}

 private:
  /// The traced workload: page visits after the crawl, then a pump budget.
  static constexpr u64 kBrowsePages = 500;
  static constexpr u64 kBrowseBudget = 2'500'000'000;

  void browse() {
    kernel_ = std::make_unique<os::Kernel>();
    targets::BrowserSim::Options bopts = browser_options(spec_);
    // Attach the tracer before startup so runtime VEH registrations
    // are observed (the §VII-A harvesting pass).
    bopts.defer_start = true;
    browser_ = std::make_unique<targets::BrowserSim>(*kernel_, bopts);
    std::vector<std::vector<u8>> blobs;
    for (const auto& d : browser_->dlls()) blobs.push_back(isa::write_image(*d.image));
    set_blobs(std::move(blobs));
    // Keyed before any guest code runs: the DLL blobs, the browser's spec
    // fields, and the configuration of the traced workload, the classifier
    // and the VEH scan.
    if (claim([&] {
          u64 content = Hasher()
                            .u64v(static_cast<u64>(bopts.kind))
                            .u64v(bopts.seed)
                            .u64v(static_cast<u64>(bopts.filler_dlls))
                            .u64v(content_hash_)
                            .digest();
          u64 config = Hasher()
                           .u64v(kBrowsePages)
                           .u64v(kBrowseBudget)
                           .u64v(classify_config_hash())
                           .digest();
          return class_report_key(spec_, content, config);
        })) {
      blobs_ = {};
      browser_.reset();
      kernel_.reset();
      return;
    }
    tracer_ = std::make_unique<trace::Tracer>(*kernel_, browser_->proc());
    browser_->start();
    browser_->crawl();
    for (u64 site = 0; site < kBrowsePages; ++site) browser_->visit_page(site);
    browser_->pump(kBrowseBudget);
    report_.browse.unique_pcs = tracer_->unique_pcs();
    report_.browse.pending_commands = browser_->pending_commands();
  }

  void xref_veh() {
    report_.seh = funnel(tracer_.get(), &browser_->proc());
    report_.candidates = analysis::CoverageXref::candidates(
        ex_, cls_.filters, tracer_.get(), &browser_->proc(), spec_.id);
    on_path_ = report_.candidates.size();

    BrowseOutcome& b = report_.browse;
    b.veh = analysis::VehScanner::scan(*tracer_, browser_->proc());
    for (const auto& h : b.veh)
      veh_usable_ += h.verdict == analysis::FilterVerdict::kAcceptsAv ? 1 : 0;
    std::vector<analysis::Candidate> veh_cands =
        analysis::VehScanner::candidates(b.veh, spec_.id);
    report_.candidates.insert(report_.candidates.end(), veh_cands.begin(),
                              veh_cands.end());

    // The traced guest is done: free it before the audit builds CFGs.
    dlls_ = browser_->dlls().size();
    tracer_.reset();
    browser_.reset();
    kernel_.reset();
    analysis::GuardAuditSummary audit = analysis::audit_guards(ex_, cls_.filters);
    b.deref_guards = audit.deref_guards;
    b.gratuitous_guards = audit.gratuitous;
    b.narrow_guards = audit.narrow;
  }

  void finalize() {
    report_.usable = static_cast<int>(on_path_) + veh_usable_;
    report_.summary = strf(
        "%zu DLLs, %zu handlers, %zu unique filters, %zu guarded sites on "
        "path, %zu VEH (%d recovering)",
        dlls_, report_.seh.handlers, report_.seh.unique_filters, on_path_,
        report_.browse.veh.size(), veh_usable_);
  }

  std::unique_ptr<os::Kernel> kernel_;
  std::unique_ptr<targets::BrowserSim> browser_;
  std::unique_ptr<trace::Tracer> tracer_;
  size_t dlls_ = 0;
  size_t on_path_ = 0;
  int veh_usable_ = 0;
};

// Static DLL populations (Table III): generated images through the SEH
// funnel, no coverage.
class DllCorpusCell final : public SehCell {
 public:
  DllCorpusCell(const CampaignOptions& o, ArtifactStore* s, TargetSpec spec)
      : SehCell(o, s, std::move(spec),
                {{"generate", [this] { generate(); }, false},
                 {"seh_extract", [this] { seh_extract(); }},
                 {"classify", [this] { classify(); }},
                 {"finalize", [this] { finalize(); }}}) {}

 private:
  /// Keyed by the generated blobs and the classifier configuration.
  void generate() {
    CRP_CHECK(spec_.dll_specs != nullptr);
    std::vector<std::vector<u8>> blobs;
    for (const targets::DllSpec& d : spec_.dll_specs())
      blobs.push_back(isa::write_image(*targets::generate_dll(d, spec_.seed).image));
    set_blobs(std::move(blobs));
    if (claim([&] {
          return class_report_key(spec_, content_hash_, classify_config_hash());
        }))
      blobs_ = {};
  }

  void finalize() {
    report_.seh = funnel(nullptr, nullptr);
    report_.usable = static_cast<int>(report_.seh.av_filters);
    report_.summary = strf("%zu DLLs, %zu unique filters, %zu AV-capable after SB",
                           ex_.images().size(), report_.seh.unique_filters,
                           report_.seh.av_filters);
  }
};

// The Windows API funnel (§IV-B, §V-B): black-box invalid-pointer fuzzing
// of the registered API surface, a traced browse, then the fuzzer-approved
// set reduced against the API log: on-path, script-triggerable,
// pointer-argument controllability. The class result is keyed by a content
// hash of the spec table and the probe count.
class ApiCorpusCell final : public TargetCell {
 public:
  ApiCorpusCell(const CampaignOptions& o, ArtifactStore* s, TargetSpec spec)
      : TargetCell(o, s, std::move(spec),
                   {{"api_fuzz", [this] { fuzz(); }, false},
                    {"browse", [this] { browse(); }},
                    {"call_sites", [this] { call_sites(); }},
                    {"finalize", [this] { finalize(); }}}) {}

 private:
  static constexpr int kProbesPerArg = 3;

  void fuzz() {
    kernel_ = std::make_unique<os::Kernel>();
    kernel_->winapi().generate_population(spec_.api.seed, spec_.api.total,
                                          spec_.api.ptr_fraction,
                                          spec_.api.resistant_fraction);
    if (claim([&] {
          return class_report_key(spec_, api_surface_hash(*kernel_),
                                  Hasher().u64v(static_cast<u64>(kProbesPerArg)).digest());
        })) {
      kernel_.reset();
      return;
    }
    fuzz_ = analysis::ApiFuzzer(kProbesPerArg).fuzz_all(*kernel_, opts_.jobs);
  }

  void browse() {
    // The historical §V-B browsing workload: a ~6% uniform stub sample
    // of the pointer-arg population, 120 page visits on the IE analog
    // (seed 0xF0) — the rate that puts ~25 crash-resistant APIs on the
    // execution path.
    Rng rng(0xFA77);
    std::vector<u32> stub_ids;
    for (const auto& [id, s] : kernel_->winapi().all()) {
      if (id < os::kApiPopulationBase || !s.has_pointer_arg()) continue;
      if (rng.chance(0.0625)) stub_ids.push_back(id);
    }
    report_.api.stubs = stub_ids.size();
    targets::BrowserSim::Options bopts;
    bopts.kind = targets::BrowserSim::Kind::kIE;
    bopts.seed = 0xF0;
    bopts.api_stub_ids = stub_ids;
    browser_ = std::make_unique<targets::BrowserSim>(*kernel_, bopts);
    tracer_ = std::make_unique<trace::Tracer>(*kernel_, browser_->proc());
    tracer_->set_record_mem_accesses(true);
    browser_->crawl();
    for (u64 site = 0; site < 120; ++site) browser_->visit_page(site);
    browser_->pump(2'000'000'000);
    report_.api.api_calls = tracer_->api_calls().size();
  }

  void call_sites() {
    ApiOutcome& api = report_.api;
    sites_ = analysis::ApiCallSiteTracer::analyze(*tracer_, fuzz_.crash_resistant,
                                                  *kernel_, browser_->proc(),
                                                  "jscript9");
    std::set<u32> on_path, scripted, controllable;
    for (const auto& s : sites_) {
      if (s.api_id < os::kApiPopulationBase) continue;  // population only
      on_path.insert(s.api_id);
      if (s.script_triggerable) scripted.insert(s.api_id);
      if (s.exclusion == analysis::ExclusionReason::kNone) controllable.insert(s.api_id);
      ++api.funnel.exclusion_histogram[analysis::exclusion_reason_name(s.exclusion)];
    }
    api.funnel.total = fuzz_.total_apis;
    api.funnel.with_pointer = fuzz_.with_pointer_args;
    api.funnel.crash_resistant = static_cast<u32>(fuzz_.crash_resistant.size());
    api.funnel.on_execution_path = static_cast<u32>(on_path.size());
    api.funnel.script_triggerable = static_cast<u32>(scripted.size());
    api.funnel.controllable = static_cast<u32>(controllable.size());
    api.probes_executed = fuzz_.probes_executed;
  }

  void finalize() {
    const analysis::ApiFunnel& f = report_.api.funnel;
    report_.candidates = analysis::ApiCallSiteTracer::candidates(sites_, spec_.id);
    report_.usable = static_cast<int>(f.controllable);
    report_.summary = strf(
        "%u APIs -> %u with pointer args -> %u crash-resistant -> %u on "
        "path -> %u controllable",
        f.total, f.with_pointer, f.crash_resistant, f.on_execution_path, f.controllable);
    tracer_.reset();
    browser_.reset();
    kernel_.reset();
  }

  std::unique_ptr<os::Kernel> kernel_;
  std::unique_ptr<targets::BrowserSim> browser_;
  std::unique_ptr<trace::Tracer> tracer_;
  analysis::ApiFuzzResult fuzz_;
  std::vector<analysis::ApiSiteInfo> sites_;
};

}  // namespace

std::unique_ptr<TargetCell> plan_target(const CampaignOptions& opts,
                                        ArtifactStore* store,
                                        const TargetSpec& spec) {
  switch (spec.cls) {
    case TargetClass::kLinuxServer:
      return std::make_unique<ServerCell>(opts, store, spec);
    case TargetClass::kManagedRuntime:
      return std::make_unique<RuntimeCell>(opts, store, spec);
    case TargetClass::kBrowser:
      return std::make_unique<BrowserCell>(opts, store, spec);
    case TargetClass::kDllCorpus:
      return std::make_unique<DllCorpusCell>(opts, store, spec);
    case TargetClass::kApiCorpus:
      return std::make_unique<ApiCorpusCell>(opts, store, spec);
  }
  CRP_PANIC("unknown target class");
}

TargetReport Campaign::run_target(const TargetSpec& spec) {
  JobQueue q(JobQueueOptions{/*workers=*/0, store_});
  JobSpec js;
  js.target = spec;
  js.opts = opts_;
  JobResult r = q.wait(q.submit(std::move(js)));
  if (r.state == JobState::kFailed) throw std::runtime_error(r.error);
  return std::move(r.report);
}

std::vector<TargetReport> Campaign::run_all(const TargetRegistry& reg) {
  obs::Registry::global()
      .gauge("pipeline.campaign.targets_total")
      .set(static_cast<i64>(reg.all().size()));
  // One batch of equal-priority jobs on an inline queue: drained on this
  // thread in submission (= registration) order, exactly like the old
  // serial loop — just through the same engine the daemon uses.
  JobQueue q(JobQueueOptions{/*workers=*/0, store_});
  std::vector<JobId> ids;
  ids.reserve(reg.all().size());
  for (const TargetSpec& spec : reg.all()) {
    JobSpec js;
    js.target = spec;
    js.opts = opts_;
    ids.push_back(q.submit(std::move(js)));
  }
  std::vector<TargetReport> out;
  out.reserve(ids.size());
  for (JobId id : ids) {
    JobResult r = q.wait(id);
    if (r.state == JobState::kFailed) throw std::runtime_error(r.error);
    out.push_back(std::move(r.report));
  }
  return out;
}

}  // namespace crp::pipeline
