// crp::pipeline::Campaign — the staged engine that runs registry targets
// through the paper's funnels.
//
// A Campaign owns the cross-cutting concerns every driver used to re-plumb
// by hand: worker-count resolution (for exec's fork-join batches), the
// content-addressed ArtifactStore, and consistent stage options. Drivers
// stay declarative — pick targets from the registry, call run_target /
// run_all, render the TargetReport.
//
// Each target class has one funnel, a TargetCell whose steps call the
// analysis:: and plan:: passes directly (steps marked * are cached):
//   linux-server     taint_trace* -> candidates -> verify -> finalize (the
//                    whole scan is one artifact, keyed by target content)
//   managed-runtime  boot -> signal_scan -> finalize
//   browser          browse (traced) -> seh_extract -> classify* -> xref_veh
//                    (coverage xref + VEH harvest + guard audit) -> finalize
//   dll-corpus       generate -> seh_extract -> classify* -> finalize
//   api-corpus       api_fuzz* -> browse (traced) -> call_sites -> finalize
// CampaignOptions::plan appends plan_synth* -> plan_verify to every class.
// Each step runs under one StageScope named after it: a
// `pipeline.stage.<step>.{runs,ns}` series, a "stage:<step>" journal span
// and the profiler's stage label — the names the JobQueue, the JobTracer
// and crpbench already report steps by. The same cells serve run_target /
// run_all (an inline JobQueue), the crpd daemon and crpbench; the report
// carries each class's typed results, so every paper table renders from it.
//
// Determinism contract (inherited from crp::exec and the scanners): every
// funnel number and rendered table is bit-identical for any job count and
// for any cache state — a warm campaign replays *exactly* the cold run's
// results, just faster.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "analysis/seh_analysis.h"
#include "analysis/syscall_scanner.h"
#include "analysis/veh_scanner.h"
#include "pipeline/artifact_store.h"
#include "pipeline/registry.h"
#include "plan/replay.h"

namespace crp::pipeline {

struct CampaignOptions {
  /// Worker count for every pooled stage (exec::resolve_jobs semantics).
  int jobs = 0;
  /// Set false to bypass the ArtifactStore for this campaign regardless of
  /// CRP_CACHE (the store's own switch still applies when true).
  bool cache = true;
  analysis::SyscallScanOptions syscall;
  analysis::ClassifyOptions classify;
  int api_probes_per_arg = 3;
  /// Browser-funnel workload size (page visits after the crawl).
  u64 browse_pages = 500;
  u64 browse_budget = 2'500'000'000;
  /// Append the exploit-plan epilogue (plan_synth + plan_verify steps) to
  /// every target's funnel: synthesize an ExploitPlan from the verified
  /// candidates, then replay it against a fresh target instance
  /// (examples/campaign CRP_PLAN=1, the crpd `plan` knob, tools/planrun).
  bool plan = false;
  /// Replay-harness scan window / hidden-region sizes the plans are tuned
  /// for (the PoCs' demo-window concession).
  u64 plan_window_pages = 1024;
  u64 plan_region_pages = 16;
};

/// One Linux-syscall-funnel outcome (result.candidates are verified).
struct ServerScan {
  std::string name;  // program name (the Table I column)
  analysis::SyscallScanResult result;
};

/// SEH-funnel outcome of a browser or DLL corpus: the Table II/III rows and
/// the extractor/classifier counters the benches print.
struct SehFunnel {
  std::vector<analysis::ModuleSehStats> modules;  // one per DLL
  size_t handlers = 0;
  size_t unique_filters = 0;
  size_t catch_all_handlers = 0;
  size_t av_filters = 0;          // AV-capable after SB (catch-all rows excluded)
  size_t manual_filters = 0;      // no clean verdict (§VII-A manual review)
  size_t av_filter_handlers = 0;  // handlers using an AV-capable filter
  u64 filters_executed = 0;
  u64 sat_queries = 0;
  u64 memo_hits = 0;
};

/// Browser-only outcome: the traced workload, runtime VEH registrations,
/// and the §VII-B guard-audit tallies.
struct BrowseOutcome {
  std::vector<analysis::VehHandlerInfo> veh;
  size_t unique_pcs = 0;
  size_t pending_commands = 0;
  size_t deref_guards = 0;
  size_t gratuitous_guards = 0;
  size_t narrow_guards = 0;
};

/// API-corpus outcome (§V-B).
struct ApiOutcome {
  analysis::ApiFunnel funnel;
  u32 probes_executed = 0;
  size_t stubs = 0;      // population APIs the browse workload calls
  size_t api_calls = 0;  // API invocations traced during the browse
};

/// One whole-target funnel outcome (run_target / run_all).
struct TargetReport {
  std::string id;
  TargetClass cls = TargetClass::kLinuxServer;
  /// Discovered primitive candidates, class-appropriate.
  std::vector<analysis::Candidate> candidates;
  /// Candidates verified usable (servers) / AV-capable handler or VEH
  /// primitives (browsers, runtimes) / crash-resistant APIs (API corpus).
  int usable = 0;
  /// One-line funnel summary for campaign reports.
  std::string summary;
  bool cache_hit = false;

  /// Typed per-class results, summary-sized (the daemon retains up to
  /// JobQueueOptions::retain_terminal reports): each is filled by its
  /// class's cell and left empty for every other class.
  ServerScan server;      // kLinuxServer
  SehFunnel seh;          // kBrowser, kDllCorpus
  BrowseOutcome browse;   // kBrowser
  ApiOutcome api;         // kApiCorpus

  /// Exploit-plan epilogue (CampaignOptions::plan): the synthesized plan
  /// and its fresh-instance replay outcome.
  bool has_plan = false;
  bool plan_cache_hit = false;
  plan::ExploitPlan exploit_plan;
  plan::ReplayOutcome plan_replay;
};

/// Render one TargetReport as the canonical campaign block (the exact
/// format examples/campaign prints and the crpd FETCH verb serves, so the
/// two can be byte-diffed): header line, summary line, one line per
/// reportable candidate, blank terminator. `cache_tag` appends " [cached]"
/// to the summary of a cache-served report (the daemon omits it: a report
/// must read identically whether it was computed or replayed).
std::string render_report(const TargetReport& rep, bool cache_tag = true);

/// BrowserSim construction parameters for a kBrowser registry entry.
targets::BrowserSim::Options browser_options(const TargetSpec& spec);

/// The plan_synth step's computation: synthesize the class-appropriate
/// ExploitPlan from a target's verified candidates. Cached: keyed by the
/// registry id + the evidence (describe/verdict/controllability of every
/// candidate) and the synthesis configuration, under the store's
/// single-writer lease. `store` == nullptr always computes. True when the
/// plan was answered from the store.
bool synthesize_plan(const TargetSpec& spec,
                     const std::vector<analysis::Candidate>& candidates,
                     const plan::SynthOptions& opts, ArtifactStore* store,
                     plan::ExploitPlan* out);

/// One target's funnel, decomposed into named, resumable steps.
///
/// A TargetCell is the preemptible unit of the job engine: the JobQueue
/// runs cells one step at a time, so a long browser funnel can yield to a
/// higher-priority submission at every step boundary instead of holding a
/// worker for the whole run. Steps run in order, exactly once each; all
/// intermediate state (kernels, tracers, corpora, cache leases) lives in
/// the cell, and destroying a part-run cell releases whatever it held.
/// Each class states its step order once, as the (name, body) list it
/// hands the base class, so that list is also its funnel documentation.
class TargetCell {
 public:
  virtual ~TargetCell() = default;
  TargetCell(const TargetCell&) = delete;
  TargetCell& operator=(const TargetCell&) = delete;

  const TargetSpec& spec() const { return spec_; }
  size_t step_count() const { return steps_.size(); }
  const char* step_name(size_t i) const { return steps_[i].name; }
  /// Index of the next step to run (== steps completed so far).
  size_t next_step() const { return next_; }
  bool done() const { return next_ == steps_.size(); }

  /// Run the next step under a StageScope named after it. The final step
  /// finalizes the report.
  void run_step();

  /// The job engine is parking this cell (preemption, or queue teardown):
  /// it may sit queued indefinitely, so it must not keep holding resources
  /// other jobs block on — in particular an ArtifactStore single-writer
  /// lease (a parked owner would deadlock every waiter while the waiters
  /// occupy the workers that could resume it). Cells re-acquire on the
  /// next run_step().
  virtual void on_park() {}

  /// The finished report (valid once done()).
  TargetReport& report() { return report_; }

 protected:
  struct Step {
    const char* name;  // stage id: metrics, journal, profiler, JobQueue
    std::function<void()> body;
  };

  /// `steps` is the class funnel; the exploit-plan epilogue (plan_synth,
  /// plan_verify) is appended when the options ask for plans.
  TargetCell(const CampaignOptions& opts, ArtifactStore* store, TargetSpec spec,
             std::vector<Step> steps);

  CampaignOptions opts_;
  ArtifactStore* store_;  // nullptr: caching off for this cell
  TargetSpec spec_;
  TargetReport report_;

 private:
  std::vector<Step> steps_;
  size_t next_ = 0;
};

/// Plan the class-appropriate cell for `spec`. `store` == nullptr disables
/// caching for the cell (the Campaign/JobQueue resolve their cache policy
/// before planning).
std::unique_ptr<TargetCell> plan_target(const CampaignOptions& opts,
                                        ArtifactStore* store,
                                        const TargetSpec& spec);

class Campaign {
 public:
  /// `store` == nullptr uses ArtifactStore::global().
  explicit Campaign(CampaignOptions opts = {}, ArtifactStore* store = nullptr);

  /// Run the class-appropriate funnel end-to-end for one subject: one job
  /// on an inline JobQueue, so the batch path and the daemon path execute
  /// the same cells.
  TargetReport run_target(const TargetSpec& spec);
  /// Every registered subject, registration order (submitted as one batch
  /// of equal-priority jobs; drained in submission order).
  std::vector<TargetReport> run_all(const TargetRegistry& reg);

  /// Content-addressed key of a syscall scan (exposed for the cache
  /// invalidation tests): input covers the target's name, personality, port
  /// and every image's serialized bytes.
  ArtifactKey syscall_scan_key(const analysis::TargetProgram& prog) const;

 private:
  CampaignOptions opts_;
  ArtifactStore* store_;
};

}  // namespace crp::pipeline
