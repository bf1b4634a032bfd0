// crp::pipeline::TargetReport — one target's funnel outcome: the class's
// candidates and summary, the typed per-class results every paper table
// renders from, and the exploit-plan epilogue.
//
// The cells that fill a report live in pipeline/campaign.h; the artifact
// codec (pipeline/codec.h) stores a report's class fields. Both include
// this header, so the codec does not depend on the cells.
#pragma once

#include <string>
#include <vector>

#include "analysis/report.h"
#include "analysis/seh_analysis.h"
#include "analysis/syscall_scanner.h"
#include "analysis/veh_scanner.h"
#include "pipeline/registry.h"
#include "plan/replay.h"

namespace crp::pipeline {

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

  bool operator==(const SehFunnel&) const = default;
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

  bool operator==(const BrowseOutcome&) const = default;
};

/// API-corpus outcome (§V-B).
struct ApiOutcome {
  analysis::ApiFunnel funnel;
  u32 probes_executed = 0;
  size_t stubs = 0;      // population APIs the browse workload calls
  size_t api_calls = 0;  // API invocations traced during the browse

  bool operator==(const ApiOutcome&) const = default;
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

}  // namespace crp::pipeline
