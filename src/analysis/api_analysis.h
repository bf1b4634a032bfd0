// Windows API primitive discovery (§IV-B, §V-B funnel):
//
//   ApiFuzzer — black-box fuzzing of the API surface: for every API with at
//   least one pointer argument, call it in a throwaway guest process with
//   invalid pointers in each pointer slot and observe whether it faults or
//   returns gracefully. APIs that survive every invalid-pointer probe are
//   crash-resistant candidates. The fuzzer never reads the registry's
//   behavior metadata — classification is purely observational, like the
//   paper's fuzzing of MSDN-harvested prototypes.
//
//   ApiCallSiteTracer — dynamic pass over a traced application run: which
//   crash-resistant APIs appear on real execution paths, which of those are
//   reachable from a scripting context (call stack touches the script-engine
//   module), and can the attacker control the pointer argument? The last
//   step classifies pointer arguments into the paper's three exclusion
//   buckets (stack-allocated / dereferenced-outside / volatile-heap) or
//   "controllable".
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/candidates.h"
#include "analysis/target.h"
#include "trace/tracer.h"

namespace crp::analysis {

struct ApiFuzzResult {
  u32 total_apis = 0;
  u32 with_pointer_args = 0;
  std::set<u32> crash_resistant;  // survived all invalid-pointer probes
  u32 probes_executed = 0;
};

class ApiFuzzer {
 public:
  /// Probe pointers tried per pointer argument. More probes = fewer false
  /// "resistant" labels for APIs that only fault on some addresses.
  explicit ApiFuzzer(int probes_per_arg = 3) : probes_per_arg_(probes_per_arg) {}

  /// Fuzz every registered API with pointer args in `kernel`'s registry,
  /// in 8 contiguous chunks of API ids run by exec::parallel_map (`jobs`
  /// as for exec::resolve_jobs). Each chunk fuzzes against its own scratch
  /// os::Kernel carrying a copy of `kernel`'s API specs, so `kernel` itself
  /// is never touched concurrently; verdicts depend only on the spec and
  /// the (id-derived, index-deterministic) probe seeds, making the result
  /// identical for any job count. Each probe runs in a scratch Windows
  /// process so a crash cannot poison the next probe.
  ApiFuzzResult fuzz_all(os::Kernel& kernel, int jobs = 0);

  /// Fuzz one API id. True = crash-resistant (graceful error on every probe).
  bool fuzz_one(os::Kernel& kernel, u32 api_id);

 private:
  int probes_per_arg_;
};

/// How a traced pointer argument is judged for attacker control.
struct ApiSiteInfo {
  u32 api_id = 0;
  std::string api_name;
  gva_t call_site = 0;
  u64 times_called = 0;
  bool script_triggerable = false;
  ExclusionReason exclusion = ExclusionReason::kNone;  // kNone = controllable
};

class ApiCallSiteTracer {
 public:
  /// Reduce a Tracer's API log against the fuzzer-approved set.
  /// `script_module_needle`: substring identifying the script engine module
  /// (e.g. "jscript"). `proc` provides layout info for pointer classification.
  static std::vector<ApiSiteInfo> analyze(const trace::Tracer& tracer,
                                          const std::set<u32>& crash_resistant,
                                          const os::Kernel& kernel,
                                          const os::Process& proc,
                                          const std::string& script_module_needle);

  /// Convert to Candidate rows for reporting.
  static std::vector<Candidate> candidates(const std::vector<ApiSiteInfo>& sites,
                                           const std::string& target_name);
};

}  // namespace crp::analysis
