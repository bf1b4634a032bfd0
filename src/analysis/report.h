// Paper-style table renderers: Table I (syscall candidate matrix),
// Table II (guarded code locations per DLL), Table III (filter functions
// before/after symbolic execution), and the §V-B API funnel.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/api_analysis.h"
#include "analysis/candidates.h"
#include "analysis/seh_analysis.h"
#include "analysis/syscall_scanner.h"

namespace crp::analysis {

/// Table I: rows = EFAULT-capable syscalls, columns = servers. Cell legend:
///   "(+)"  usable crash-resistant primitive (verified)
///   "FP"   false positive (survives but service dies)
///   "+-"   observed candidate, but crashes or not controllable
///   "."    not observed on the test-suite execution path
std::string render_table1(const std::vector<std::string>& servers,
                          const std::map<std::string, SyscallScanResult>& results);

/// Table II: guarded program code per module (before SB / after SB / on path).
std::string render_table2(const std::vector<ModuleSehStats>& stats);

/// Table III: unique exception filters per module before/after symbolic
/// execution, split by machine population (x64 / x32).
std::string render_table3(const std::vector<ModuleSehStats>& x64,
                          const std::vector<ModuleSehStats>& x32);

/// §V-B funnel rendering.
struct ApiFunnel {
  u32 total = 0;
  u32 with_pointer = 0;
  u32 crash_resistant = 0;
  u32 on_execution_path = 0;
  u32 script_triggerable = 0;
  u32 controllable = 0;
  std::map<std::string, u32> exclusion_histogram;

  bool operator==(const ApiFunnel&) const = default;
};

std::string render_api_funnel(const ApiFunnel& funnel);

/// Flat candidate listing.
std::string render_candidates(const std::vector<Candidate>& cands);

/// Unified pipeline-metrics block (the crp::obs global registry): every
/// counter/gauge/histogram any layer touched during the run, one per line.
/// `skip_zero` (default) drops never-touched metrics.
std::string render_metrics(bool skip_zero = true);

}  // namespace crp::analysis
