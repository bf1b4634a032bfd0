#include "pipeline/campaign.h"

#include <stdexcept>

#include "analysis/guard_audit.h"
#include "analysis/signal_scanner.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "pipeline/job_queue.h"
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

ArtifactKey syscall_scan_key_for(const analysis::TargetProgram& prog,
                                 const CampaignOptions& opts) {
  Hasher in;
  in.str(prog.name)
      .u64v(static_cast<u64>(prog.personality))
      .u64v(prog.port)
      .u64v(prog.images.size());
  for (const auto& img : prog.images) {
    std::vector<u8> bytes = isa::write_image(*img);
    in.u64v(bytes.size()).bytes(bytes.data(), bytes.size());
  }
  u64 cfg = Hasher()
                .u64v(opts.syscall.discover_budget)
                .u64v(opts.syscall.verify_budget)
                .u64v(opts.syscall.check_service_liveness ? 1 : 0)
                .u64v(opts.syscall.seed)
                .digest();
  return ArtifactKey{TaintTraceStage::kId, in.digest(), cfg};
}

/// The SEH-funnel tallies the SEH benches print, from the extracted
/// corpus and its classification.
SehFunnel seh_funnel(const SehCorpus& corpus, const ClassifyOutcome& cls,
                     std::vector<analysis::ModuleSehStats> modules) {
  SehFunnel f;
  f.modules = std::move(modules);
  f.handlers = corpus.ex.handlers().size();
  f.unique_filters = corpus.ex.unique_filters().size();
  for (const auto& h : corpus.ex.handlers()) f.catch_all_handlers += h.catch_all ? 1 : 0;
  for (const auto& fi : cls.filters) {
    if (fi.offset == isa::kFilterCatchAll) continue;
    if (fi.verdict == analysis::FilterVerdict::kAcceptsAv) {
      ++f.av_filters;
      f.av_filter_handlers += fi.handlers_using;
    }
    if (fi.verdict == analysis::FilterVerdict::kNeedsManual) ++f.manual_filters;
  }
  f.filters_executed = cls.filters_executed;
  f.sat_queries = cls.sat_queries;
  f.memo_hits = cls.memo_hits;
  return f;
}

}  // namespace

ArtifactKey Campaign::syscall_scan_key(const analysis::TargetProgram& prog) const {
  return syscall_scan_key_for(prog, opts_);
}

// --- target cells --------------------------------------------------------------

void TargetCell::run_step() {
  CRP_CHECK(next_ < steps_.size());
  obs::ScopedProfTarget prof_target(spec_.id);
  if (opts_.plan && next_ >= plan_step_base_) {
    // Shared epilogue: every class's funnel ends with plan_synth +
    // plan_verify when the campaign asked for plans.
    if (next_ == plan_step_base_) plan_synth_step();
    else plan_verify_step();
  } else {
    do_step(next_);
  }
  ++next_;
  if (next_ == steps_.size()) {
    report_.id = spec_.id;
    report_.cls = spec_.cls;
  }
}

namespace {

// The Linux-syscall funnel (TaintTrace -> SyscallCandidate -> Verify).
// Holds the store's single-writer lease between the lookup and the
// publish — concurrent scans of an identical target compute once, the rest
// are handed the finished artifact. The destructor releases an abandoned
// lease (a step threw, or the job was cancelled between steps).
class ServerCell final : public TargetCell {
 public:
  ServerCell(const CampaignOptions& o, ArtifactStore* s, TargetSpec spec)
      : TargetCell(o, s, std::move(spec),
                   {"taint_trace", "candidates", "verify", "finalize"}) {}
  ~ServerCell() override {
    if (leased_) store_->abort_claim(key_);
  }

  // Park/resume protocol (JobQueue preemption): a parked job may wait in
  // the queue indefinitely while other jobs for the same key block inside
  // acquire() — so the lease is released on park and re-taken on the next
  // step. If another job published the artifact in between, resume turns
  // into a cache hit and the remaining compute steps are skipped.
  void on_park() override {
    if (!leased_) return;
    store_->abort_claim(key_);
    leased_ = false;
    parked_ = true;
  }

 private:
  /// Look the scan up, taking the lease on a miss; true on a hit. A hit
  /// that fails to decode recomputes without the lease; the publish
  /// replaces the stored blob.
  bool claim() {
    std::string doc;
    Acquire a = store_->acquire(key_, &doc);
    if (a == Acquire::kHit && decode_syscall_scan(doc, &scan_.result)) {
      report_.cache_hit = true;
      return true;
    }
    leased_ = a == Acquire::kOwner;
    return false;
  }

  void resume() {
    if (!parked_) return;
    parked_ = false;
    claim();
  }

  void do_step(size_t i) override {
    if (i == 0) {
      CRP_CHECK(spec_.make_program != nullptr);
      prog_ = spec_.make_program();
      scan_.name = prog_.name;
    }
    obs::ScopedProfTarget prof(prog_.name);
    switch (i) {
      case 0:
        if (store_ != nullptr) {
          key_ = syscall_scan_key_for(prog_, opts_);
          if (claim()) break;
        }
        scan_.result = TaintTraceStage::run({&prog_, opts_.syscall});
        break;
      case 1:
        resume();
        if (!report_.cache_hit) cands_ = SyscallCandidateStage::run({&scan_.result});
        break;
      case 2: {
        resume();
        if (report_.cache_hit) break;
        scan_.result.candidates =
            VerifyStage::run({&prog_, opts_.syscall, std::move(cands_), opts_.jobs});
        if (store_ == nullptr) break;
        std::string doc = encode_syscall_scan(scan_.result);
        if (leased_) {
          store_->finish(key_, doc);
          leased_ = false;
        } else {
          store_->store(key_, doc);
        }
        break;
      }
      case 3: {
        report_.candidates = scan_.result.candidates;
        int fps = 0;
        for (const auto& c : report_.candidates) {
          report_.usable += c.verdict == analysis::Verdict::kUsable ? 1 : 0;
          fps += c.verdict == analysis::Verdict::kFalsePositive ? 1 : 0;
        }
        report_.summary = strf(
            "%zu syscalls observed, %zu candidates, %d usable, %d false-positive",
            scan_.result.observed.size(), report_.candidates.size(),
            report_.usable, fps);
        report_.server = std::move(scan_);
        break;
      }
    }
  }

  analysis::TargetProgram prog_;
  ArtifactKey key_;
  bool leased_ = false;
  bool parked_ = false;  // lease released by on_park(); re-taken by resume()
  std::vector<analysis::Candidate> cands_;
  ServerScan scan_;
};

class RuntimeCell final : public TargetCell {
 public:
  RuntimeCell(const CampaignOptions& o, ArtifactStore* s, TargetSpec spec)
      : TargetCell(o, s, std::move(spec), {"boot", "signal_scan", "finalize"}) {}

 private:
  void do_step(size_t i) override {
    switch (i) {
      case 0: {
        CRP_CHECK(spec_.make_program != nullptr);
        prog_ = spec_.make_program();
        kernel_ = std::make_unique<os::Kernel>();
        pid_ = prog_.instantiate(*kernel_, opts_.syscall.seed);
        kernel_->run(2'000'000);  // let startup install its signal handlers
        break;
      }
      case 1: {
        StageScope scope("signal_scan", prog_.name);
        handlers_ =
            analysis::SignalScanner::scan(kernel_->proc(pid_), opts_.classify);
        break;
      }
      case 2: {
        report_.candidates =
            analysis::SignalScanner::candidates(handlers_, prog_.name);
        for (const auto& h : handlers_)
          report_.usable +=
              h.verdict == analysis::FilterVerdict::kAcceptsAv ? 1 : 0;
        report_.summary =
            strf("%zu installed signal handlers, %d recovering (pc-editing)",
                 handlers_.size(), report_.usable);
        kernel_.reset();
        break;
      }
    }
  }

  analysis::TargetProgram prog_;
  std::unique_ptr<os::Kernel> kernel_;
  int pid_ = 0;
  std::vector<analysis::SignalHandlerInfo> handlers_;
};

class BrowserCell final : public TargetCell {
 public:
  BrowserCell(const CampaignOptions& o, ArtifactStore* s, TargetSpec spec)
      : TargetCell(o, s, std::move(spec),
                   {"browse", "seh_extract", "classify", "xref_veh", "finalize"}) {}

 private:
  void do_step(size_t i) override {
    switch (i) {
      case 0: {
        kernel_ = std::make_unique<os::Kernel>();
        targets::BrowserSim::Options bopts = browser_options(spec_);
        // Attach the tracer before startup so runtime VEH registrations
        // are observed (the §VII-A harvesting pass).
        bopts.defer_start = true;
        browser_ = std::make_unique<targets::BrowserSim>(*kernel_, bopts);
        tracer_ = std::make_unique<trace::Tracer>(*kernel_, browser_->proc());
        browser_->start();
        browser_->crawl();
        for (u64 site = 0; site < opts_.browse_pages; ++site)
          browser_->visit_page(site);
        browser_->pump(opts_.browse_budget);
        report_.browse.unique_pcs = tracer_->unique_pcs();
        report_.browse.pending_commands = browser_->pending_commands();
        break;
      }
      case 1: {
        std::vector<std::vector<u8>> blobs;
        for (const auto& d : browser_->dlls()) blobs.push_back(isa::write_image(*d.image));
        corpus_ = SehExtractStage::run({&blobs, opts_.jobs});
        break;
      }
      case 2: {
        cls_ = FilterClassifyStage::run(
            {&corpus_, opts_.classify, opts_.jobs, store_});
        break;
      }
      case 3: {
        report_.seh = seh_funnel(
            corpus_, cls_,
            CoverageXrefStage::run({&corpus_.ex, &cls_.filters, tracer_.get(),
                                    &browser_->proc()}));
        report_.cache_hit = cls_.cache_hit;
        report_.candidates = analysis::CoverageXref::candidates(
            corpus_.ex, cls_.filters, tracer_.get(), &browser_->proc(),
            spec_.id);
        on_path_ = report_.candidates.size();

        BrowseOutcome& b = report_.browse;
        b.veh = analysis::VehScanner::scan(*tracer_, browser_->proc(),
                                           opts_.classify);
        for (const auto& h : b.veh)
          veh_usable_ +=
              h.verdict == analysis::FilterVerdict::kAcceptsAv ? 1 : 0;
        std::vector<analysis::Candidate> veh_cands =
            analysis::VehScanner::candidates(b.veh, spec_.id);
        report_.candidates.insert(report_.candidates.end(), veh_cands.begin(),
                                  veh_cands.end());

        // The traced guest is done: free it before the audit builds CFGs.
        dlls_ = browser_->dlls().size();
        tracer_.reset();
        browser_.reset();
        kernel_.reset();
        analysis::GuardAuditSummary audit =
            analysis::audit_guards(corpus_.ex, cls_.filters);
        b.deref_guards = audit.deref_guards;
        b.gratuitous_guards = audit.gratuitous;
        b.narrow_guards = audit.narrow;
        break;
      }
      case 4: {
        report_.usable = static_cast<int>(on_path_) + veh_usable_;
        report_.summary = strf(
            "%zu DLLs, %zu handlers, %zu unique filters, %zu guarded sites on "
            "path, %zu VEH (%d recovering)",
            dlls_, report_.seh.handlers, report_.seh.unique_filters, on_path_,
            report_.browse.veh.size(), veh_usable_);
        break;
      }
    }
  }

  std::unique_ptr<os::Kernel> kernel_;
  std::unique_ptr<targets::BrowserSim> browser_;
  std::unique_ptr<trace::Tracer> tracer_;
  SehCorpus corpus_;
  ClassifyOutcome cls_;
  size_t dlls_ = 0;
  size_t on_path_ = 0;
  int veh_usable_ = 0;
};

class DllCorpusCell final : public TargetCell {
 public:
  DllCorpusCell(const CampaignOptions& o, ArtifactStore* s, TargetSpec spec)
      : TargetCell(o, s, std::move(spec),
                   {"generate", "seh_extract", "classify", "finalize"}) {}

 private:
  void do_step(size_t i) override {
    switch (i) {
      case 0:
        CRP_CHECK(spec_.dll_specs != nullptr);
        for (const targets::DllSpec& s : spec_.dll_specs())
          blobs_.push_back(
              isa::write_image(*targets::generate_dll(s, spec_.seed).image));
        break;
      case 1: corpus_ = SehExtractStage::run({&blobs_, opts_.jobs}); break;
      case 2:
        cls_ = FilterClassifyStage::run(
            {&corpus_, opts_.classify, opts_.jobs, store_});
        break;
      case 3: {
        report_.seh = seh_funnel(
            corpus_, cls_,
            CoverageXrefStage::run({&corpus_.ex, &cls_.filters, nullptr, nullptr}));
        report_.cache_hit = cls_.cache_hit;
        report_.usable = static_cast<int>(report_.seh.av_filters);
        report_.summary =
            strf("%zu DLLs, %zu unique filters, %zu AV-capable after SB",
                 corpus_.ex.images().size(), report_.seh.unique_filters,
                 report_.seh.av_filters);
        break;
      }
    }
  }

  std::vector<std::vector<u8>> blobs_;
  SehCorpus corpus_;
  ClassifyOutcome cls_;
};

class ApiCorpusCell final : public TargetCell {
 public:
  ApiCorpusCell(const CampaignOptions& o, ArtifactStore* s, TargetSpec spec)
      : TargetCell(o, s, std::move(spec),
                   {"api_fuzz", "browse", "call_sites", "finalize"}) {}

 private:
  void do_step(size_t i) override {
    ApiOutcome& api = report_.api;
    switch (i) {
      case 0: {
        kernel_ = std::make_unique<os::Kernel>();
        kernel_->winapi().generate_population(spec_.api.seed, spec_.api.total,
                                              spec_.api.ptr_fraction,
                                              spec_.api.resistant_fraction);
        fuzz_ = ApiFuzzStage::run(
            {kernel_.get(), opts_.api_probes_per_arg, opts_.jobs, store_});
        break;
      }
      case 1: {
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
        api.stubs = stub_ids.size();
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
        api.api_calls = tracer_->api_calls().size();
        break;
      }
      case 2: {
        sites_ = CallSiteTraceStage::run({tracer_.get(),
                                          &fuzz_.result.crash_resistant,
                                          kernel_.get(), &browser_->proc(),
                                          "jscript9"});
        std::set<u32> on_path, scripted, controllable;
        for (const auto& s : sites_) {
          if (s.api_id < os::kApiPopulationBase) continue;  // population only
          on_path.insert(s.api_id);
          if (s.script_triggerable) scripted.insert(s.api_id);
          if (s.exclusion == analysis::ExclusionReason::kNone)
            controllable.insert(s.api_id);
          ++api.funnel.exclusion_histogram[analysis::exclusion_reason_name(s.exclusion)];
        }
        api.funnel.total = fuzz_.result.total_apis;
        api.funnel.with_pointer = fuzz_.result.with_pointer_args;
        api.funnel.crash_resistant =
            static_cast<u32>(fuzz_.result.crash_resistant.size());
        api.funnel.on_execution_path = static_cast<u32>(on_path.size());
        api.funnel.script_triggerable = static_cast<u32>(scripted.size());
        api.funnel.controllable = static_cast<u32>(controllable.size());
        api.probes_executed = fuzz_.result.probes_executed;
        break;
      }
      case 3: {
        report_.cache_hit = fuzz_.cache_hit;
        report_.candidates =
            analysis::ApiCallSiteTracer::candidates(sites_, spec_.id);
        report_.usable = static_cast<int>(api.funnel.controllable);
        report_.summary = strf(
            "%u APIs -> %u with pointer args -> %u crash-resistant -> %u on "
            "path -> %u controllable",
            api.funnel.total, api.funnel.with_pointer, api.funnel.crash_resistant,
            api.funnel.on_execution_path, api.funnel.controllable);
        tracer_.reset();
        browser_.reset();
        kernel_.reset();
        break;
      }
    }
  }

  std::unique_ptr<os::Kernel> kernel_;
  std::unique_ptr<targets::BrowserSim> browser_;
  std::unique_ptr<trace::Tracer> tracer_;
  ApiFuzzStage::Out fuzz_;
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
