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
// analysis:: and plan:: passes directly:
//   linux-server     taint_trace -> candidates -> verify -> finalize
//   managed-runtime  boot -> signal_scan -> finalize
//   browser          browse (traced) -> seh_extract -> classify* -> xref_veh
//                    (coverage xref + VEH harvest + guard audit) -> finalize
//   dll-corpus       generate -> seh_extract -> classify -> finalize
//   api-corpus       api_fuzz -> browse (traced) -> call_sites -> finalize
// CampaignOptions::plan appends plan_synth* -> plan_verify to every class.
// Each class result is one content-addressed artifact: the first step
// hashes the class's inputs (images, corpus blobs or API surface) and the
// options its steps read, and a repeat job costs one store read. Servers
// store the verified scan (taint_trace), every other class its report
// (class_report). Steps marked * also cache their own output: a browser's
// classify under its DLL blobs and the classifier options alone, so a job
// that changes only the browse options reuses the classification, and
// plan_synth under the candidates it plans from. plan_verify is never
// cached.
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

#include "analysis/seh_analysis.h"
#include "analysis/syscall_scanner.h"
#include "pipeline/artifact_store.h"
#include "pipeline/registry.h"
#include "pipeline/target_report.h"
#include "plan/synth.h"

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
///
/// Every class result is one cached artifact, and the cache protocol lives
/// here: the class's first step builds its inputs and calls claim() with
/// their content key, which answers a hit or takes the store's
/// single-writer lease for the class. The lease is held until the last
/// class step that computes publishes the result (before the plan
/// epilogue), so concurrent identical jobs compute once. On a hit every step marked
/// `computes` is skipped; each step still runs under its StageScope.
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

  /// Run the next step under a StageScope named after it. The last class
  /// step that computes publishes the class result.
  void run_step();

  /// The job engine is parking this cell (preemption, or queue teardown):
  /// it may sit queued indefinitely, so it must not keep holding resources
  /// other jobs block on — in particular its class lease (a parked owner
  /// would deadlock every waiter while the waiters occupy the workers that
  /// could resume it). The next run_step() re-takes the lease; if another
  /// job published the result in between, the resume is a hit and the
  /// remaining computing steps are skipped.
  void on_park();

  /// The finished report (valid once done()).
  TargetReport& report() { return report_; }

 protected:
  struct Step {
    const char* name;  // stage id: metrics, journal, profiler, JobQueue
    std::function<void()> body;
    /// False for the steps a hit still runs: the first step (it builds the
    /// inputs and calls claim()) and a step that turns the cached artifact
    /// into the report. The class result is published right after the
    /// last class step that computes.
    bool computes = true;
  };

  /// `steps` is the class funnel; the exploit-plan epilogue (plan_synth,
  /// plan_verify) is appended when the options ask for plans.
  TargetCell(const CampaignOptions& opts, ArtifactStore* store, TargetSpec spec,
             std::vector<Step> steps);

  /// Look the class result up under key(), taking the class lease on a
  /// miss. True on a hit: the result is decoded and report_.cache_hit set.
  /// With caching off (store_ == nullptr) no key is computed, no lease is
  /// taken and the answer is false.
  bool claim(const std::function<ArtifactKey()>& key);

  /// The class result as a store document, and back (false on a malformed
  /// document, which counts as a miss). The default is the class_report
  /// codec over report_'s class fields.
  virtual std::string encode_result() const;
  virtual bool decode_result(const std::string& doc);

  CampaignOptions opts_;
  ArtifactStore* store_;  // nullptr: caching off for this cell
  TargetSpec spec_;
  TargetReport report_;

 private:
  bool lookup();

  std::vector<Step> steps_;
  size_t publish_at_ = 0;  // steps done when the class result is complete
  size_t next_ = 0;
  ArtifactKey key_;
  bool keyed_ = false;   // claim() ran: publish at publish_at_
  bool hit_ = false;     // the class result came from the store
  bool parked_ = false;  // on_park() released the lease; the next step re-takes it
  CacheLease lease_;
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
