// VehScanner: the §VII-A extension the paper sketches as future work.
//
// Vectored exception handlers are registered at runtime
// (AddVectoredExceptionHandler), so static scope-table extraction cannot see
// them — that is why the paper's prototype missed the Firefox 46 oracle. The
// extension: harvest AddVectoredExceptionHandler calls from the dynamic API
// trace, map each handler address back to its module/offset, and symbolically
// execute it under the VEH prototype (R1 = &EXCEPTION_RECORD, accepting
// means a path can return EXCEPTION_CONTINUE_EXECUTION for an AV).
#pragma once

#include <vector>

#include "analysis/candidates.h"
#include "analysis/seh_analysis.h"
#include "os/kernel.h"
#include "trace/tracer.h"

namespace crp::analysis {

struct VehHandlerInfo {
  gva_t handler = 0;       // runtime address
  std::string module;      // containing module ("?" if outside any image)
  u64 offset = 0;          // code-section offset
  FilterVerdict verdict = FilterVerdict::kNeedsManual;
  size_t paths_explored = 0;

  bool operator==(const VehHandlerInfo&) const = default;
};

class VehScanner {
 public:
  /// Scan `tracer`'s API log of `proc` for VEH registrations and classify
  /// each handler.
  static std::vector<VehHandlerInfo> scan(const trace::Tracer& tracer,
                                          const os::Process& proc,
                                          ClassifyOptions opts = {});

  static std::vector<Candidate> candidates(const std::vector<VehHandlerInfo>& handlers,
                                           const std::string& target_name);
};

}  // namespace crp::analysis
