// Exception-handler discovery (§IV-C, Tables II/III):
//
//   SehExtractor     — static pass: parse the exception directory (scope
//                      tables) out of serialized MVX images, the analog of
//                      walking a PE's .pdata/.xdata.
//   FilterClassifier — symbolically execute each unique filter function and
//                      ask the SAT backend whether any path can accept an
//                      access violation (EXECUTE_HANDLER or
//                      CONTINUE_EXECUTION under exc_code == AV).
//   CoverageXref     — dynamic pass: cross-reference AV-capable guarded
//                      regions with traced execution coverage, yielding the
//                      "on execution path" column and trigger counts.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/candidates.h"
#include "isa/image.h"
#include "symex/expr.h"
#include "trace/tracer.h"

namespace crp::analysis {

/// One handler site found statically.
struct HandlerSite {
  std::string module;
  isa::Machine machine = isa::Machine::kX64;
  isa::ScopeEntry scope;
  bool catch_all = false;
};

/// Classification verdict for a filter function.
enum class FilterVerdict : u8 {
  kAcceptsAv = 0,    // some path handles AV (or catch-all)
  kRejectsAv,        // proven: no path handles AV
  kNeedsManual,      // external call / truncation: no clean verdict (§VII-A)
};

const char* filter_verdict_name(FilterVerdict v);

struct FilterInfo {
  std::string module;
  u64 offset = 0;        // code offset (kFilterCatchAll for constant filters)
  isa::Machine machine = isa::Machine::kX64;
  FilterVerdict verdict = FilterVerdict::kNeedsManual;
  size_t paths_explored = 0;
  size_t handlers_using = 0;  // scope entries referencing this filter
};

/// Static extraction over a set of serialized images.
class SehExtractor {
 public:
  /// Parse one serialized image; returns false on malformed input.
  bool add_image_bytes(std::span<const u8> bytes);
  /// Parse a batch of serialized images, sharding the parses with
  /// exec::parallel_map (`jobs` as for exec::resolve_jobs). Images are added in
  /// input order, identical to calling add_image_bytes in a loop; malformed
  /// blobs are skipped and make the call return false.
  bool add_images_bytes(const std::vector<std::vector<u8>>& blobs, int jobs = 0);
  /// Convenience for already-parsed images.
  void add_image(std::shared_ptr<const isa::Image> image);

  const std::vector<HandlerSite>& handlers() const { return handlers_; }
  const std::vector<std::shared_ptr<const isa::Image>>& images() const { return images_; }

  /// Unique (module, filter-offset) pairs, catch-all excluded.
  std::vector<std::pair<std::string, u64>> unique_filters() const;

  /// Handlers in one module.
  std::vector<const HandlerSite*> handlers_in(const std::string& module) const;

 private:
  std::vector<std::shared_ptr<const isa::Image>> images_;
  std::vector<HandlerSite> handlers_;
};

struct ClassifyOptions {
  size_t max_paths = 64;
  u64 max_steps = 4096;
  u64 solver_conflicts = 1u << 20;
  /// Count CONTINUE_EXECUTION as "handles the AV" (it does: execution
  /// resumes — the Firefox VEH idiom).
  bool continue_execution_counts = true;
};

/// Content hash of a filter function's *behavioral* identity: the code
/// reachable from `filter_off` (CFG traversal), with PC-relative data
/// references replaced by the referenced static bytes and import calls by
/// the imported module/symbol names. Two filters with equal hashes execute
/// identically under FilterExecutor (same paths, same verdict), regardless
/// of which module they sit in or at which offset — the key for the
/// classify memo cache below.
u64 filter_body_hash(const isa::Image& image, u64 filter_off);

class FilterClassifier {
 public:
  explicit FilterClassifier(ClassifyOptions opts = {}) : opts_(opts) {}

  /// Classify every unique filter of `ex`, sharding the symbolic executions
  /// with exec::parallel_map (`jobs` as for exec::resolve_jobs; each task gets
  /// its own symex::Ctx/Solver — hash-consing contexts are not shareable
  /// across threads). Results are merged in input order and a verdict memo
  /// cache keyed by filter_body_hash classifies duplicate filter bodies
  /// (catch-all / delegating templates stamped across DLLs) only once, so
  /// the output and all funnel counters are identical for any job count.
  /// Catch-all handlers are accepted structurally (no symbolic execution).
  std::vector<FilterInfo> classify_all(const SehExtractor& ex, int jobs = 0);

  /// Classify one filter in one image.
  FilterVerdict classify(const isa::Image& image, u64 filter_off, size_t* paths_out = nullptr);

  /// Unique filter bodies symbolically executed (memo-cache misses).
  u64 filters_executed() const { return executed_; }
  u64 sat_queries() const { return queries_; }
  /// classify_all items answered from the verdict memo cache.
  u64 memo_hits() const { return memo_hits_; }

 private:
  struct Outcome {
    FilterVerdict verdict = FilterVerdict::kNeedsManual;
    size_t paths = 0;
    u64 queries = 0;
  };

  /// Pure classification: no counter mutation, safe to run concurrently.
  Outcome classify_detail(const isa::Image& image, u64 filter_off) const;

  ClassifyOptions opts_;
  u64 executed_ = 0;
  u64 queries_ = 0;
  u64 memo_hits_ = 0;
  /// filter_body_hash -> outcome, shared across classify_all calls.
  std::mutex memo_mu_;
  std::unordered_map<u64, Outcome> memo_;
};

/// Per-module funnel counts — the rows of Tables II and III.
struct ModuleSehStats {
  std::string module;
  isa::Machine machine = isa::Machine::kX64;
  // Table II: guarded program-code locations.
  size_t guarded_total = 0;        // before symbolic execution
  size_t guarded_av_capable = 0;   // after symbolic execution
  size_t guarded_on_path = 0;      // AV-capable and executed
  u64 trigger_events = 0;          // total hits inside AV-capable guards
  // Table III: unique filter functions.
  size_t filters_total = 0;
  size_t filters_av_capable = 0;

  bool operator==(const ModuleSehStats&) const = default;
};

/// Filter verdicts indexed by (module, filter offset): the per-handler
/// lookup CoverageXref and the guard audit share. Views into `filters`,
/// which must outlive the index; the first row of a duplicated key wins.
class FilterIndex {
 public:
  explicit FilterIndex(const std::vector<FilterInfo>& filters);
  /// True when `h` is a catch-all or its filter is classified AV-accepting.
  bool accepts(const HandlerSite& h) const;

 private:
  std::map<std::pair<std::string_view, u64>, FilterVerdict> verdicts_;
};

class CoverageXref {
 public:
  /// Compute per-module stats: `filters` from FilterClassifier;
  /// `tracer`+`proc` supply dynamic coverage (pass nullptr for static-only).
  static std::vector<ModuleSehStats> compute(const SehExtractor& ex,
                                             const std::vector<FilterInfo>& filters,
                                             const trace::Tracer* tracer,
                                             const os::Process* proc);

  /// Exception-handler candidates (AV-capable, executed) as Candidate rows.
  static std::vector<Candidate> candidates(const SehExtractor& ex,
                                           const std::vector<FilterInfo>& filters,
                                           const trace::Tracer* tracer,
                                           const os::Process* proc,
                                           const std::string& target_name);
};

}  // namespace crp::analysis
