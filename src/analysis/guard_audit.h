// GuardAudit: static refinement of exception-handler candidates with CFG
// information (§VII-B).
//
// The paper observes two static signals about guarded regions:
//   * a guarded region with NO memory dereference cannot be a probing
//     primitive by itself — if its filter still accepts AVs, the filter is
//     gratuitously broad ("too broad filtering");
//   * an AV-capable guarded region that DOES dereference is a refined
//     primitive candidate: the dereference is what the attacker steers.
//
// The audit classifies every handler site of an extracted corpus using the
// recursive-traversal CFG, giving both the defender view (filters to
// narrow) and the attacker view (candidates to prioritize).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/seh_analysis.h"
#include "cfg/cfg.h"

namespace crp::analysis {

enum class GuardKind : u8 {
  kDerefGuard = 0,   // AV-capable filter over code that dereferences: candidate
  kGratuitous,       // AV-capable filter over code with no dereference
  kNarrow,           // filter rejects AVs (whatever the code does)
};

const char* guard_kind_name(GuardKind k);

struct GuardAuditEntry {
  HandlerSite site;
  GuardKind kind = GuardKind::kNarrow;
  size_t region_instrs = 0;
  int region_loads = 0;
  int region_stores = 0;
};

struct GuardAuditSummary {
  std::vector<GuardAuditEntry> entries;
  size_t deref_guards = 0;
  size_t gratuitous = 0;
  size_t narrow = 0;

  /// Per-module (deref-candidates, gratuitous) counts.
  std::map<std::string, std::pair<size_t, size_t>> per_module() const;
};

/// Audit every handler of `ex` using `filters` verdicts; one CFG is built
/// per image (roots: exports + scope members), one image at a time.
GuardAuditSummary audit_guards(const SehExtractor& ex,
                               const std::vector<FilterInfo>& filters);

}  // namespace crp::analysis
