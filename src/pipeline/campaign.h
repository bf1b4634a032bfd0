// crp::pipeline::Campaign — the staged engine that runs registry targets
// through the paper's funnels.
//
// A Campaign owns the cross-cutting concerns every driver used to re-plumb
// by hand: worker-count resolution (the exec pool), the content-addressed
// ArtifactStore, and consistent stage options. Drivers stay declarative —
// pick targets from the registry, call run_target / run_all, render the
// TargetReport.
//
// Each target class has one funnel, a TargetCell composing the typed
// stages of stages.h (one cell step per stage boundary):
//   linux-server     TaintTrace -> SyscallCandidate -> Verify, whole scan
//                    cached by target content
//   managed-runtime  run -> signal-handler scan
//   browser          traced browse -> SehExtract -> FilterClassify (cached)
//                    -> CoverageXref + VEH harvest + guard audit
//   dll-corpus       SehExtract -> FilterClassify (cached) -> CoverageXref
//   api-corpus       ApiFuzz (cached) -> traced browse -> CallSiteTrace
// The same cells serve run_target / run_all (an inline JobQueue), the crpd
// daemon and crpbench; the report carries each class's typed results, so
// every paper table renders from it.
//
// Determinism contract (inherited from crp::exec and the scanners): every
// funnel number and rendered table is bit-identical for any job count and
// for any cache state — a warm campaign replays *exactly* the cold run's
// results, just faster.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/veh_scanner.h"
#include "pipeline/registry.h"
#include "pipeline/stages.h"
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

/// One target's funnel, decomposed into named, resumable steps.
///
/// A TargetCell is the preemptible unit of the job engine: the JobQueue
/// runs cells one step at a time, so a long browser funnel can yield to a
/// higher-priority submission at every step boundary instead of holding a
/// worker for the whole run. Steps run in order, exactly once each; all
/// intermediate state (kernels, tracers, corpora, cache leases) lives in
/// the cell, and destroying a part-run cell releases whatever it held.
/// Splitting points mirror the stage boundaries of stages.h, so the step
/// sequence of a class is also its funnel documentation.
class TargetCell {
 public:
  virtual ~TargetCell() = default;
  TargetCell(const TargetCell&) = delete;
  TargetCell& operator=(const TargetCell&) = delete;

  const TargetSpec& spec() const { return spec_; }
  size_t step_count() const { return steps_.size(); }
  const char* step_name(size_t i) const { return steps_[i]; }
  /// Index of the next step to run (== steps completed so far).
  size_t next_step() const { return next_; }
  bool done() const { return next_ == steps_.size(); }

  /// Run the next step. The final step finalizes the report.
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
  TargetCell(const CampaignOptions& opts, ArtifactStore* store, TargetSpec spec,
             std::vector<const char*> steps)
      : opts_(opts), store_(store), spec_(std::move(spec)), steps_(std::move(steps)) {
    // The exploit-plan epilogue rides every class's funnel: two extra
    // steps past the class-specific sequence, dispatched by the base class
    // (run_step) so the cells' absolute-index switches never see them.
    plan_step_base_ = steps_.size();
    if (opts_.plan) {
      steps_.push_back("plan_synth");
      steps_.push_back("plan_verify");
    }
  }

  virtual void do_step(size_t i) = 0;

  /// Epilogue step bodies (plan_stages.cc): synthesize from the finished
  /// report's candidates; replay against a fresh target instance. Each
  /// holds any cache lease only within its own step, so parking between
  /// steps never strands a lease.
  void plan_synth_step();
  void plan_verify_step();

  CampaignOptions opts_;
  ArtifactStore* store_;  // nullptr: caching off for this cell
  TargetSpec spec_;
  std::vector<const char*> steps_;
  size_t next_ = 0;
  size_t plan_step_base_ = 0;  // first epilogue step index (== class steps)
  TargetReport report_;
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
