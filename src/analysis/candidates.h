// Result types shared across the discovery pipeline: the classification of
// crash-resistant primitive candidates (§III) and the verdicts the scanners
// and verifiers attach to them.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "os/abi.h"
#include "util/common.h"

namespace crp::analysis {

/// The paper's three primitive classes (§III-A/B/C).
enum class PrimitiveClass : u8 {
  kSyscall = 0,        // Linux syscall returning -EFAULT (§III-A1)
  kWinApi,             // Windows API validating pointer args (§III-A2)
  kExceptionHandler,   // SEH/VEH/signal handler accepting AVs (§III-B)
  kSwallowedException, // classified but excluded from analysis (§III-C)
};

const char* primitive_class_name(PrimitiveClass c);

/// Verification verdict for one candidate (Table I cell states).
enum class Verdict : u8 {
  kUntested = 0,
  kCrashes,          // corruption crashed the process: not crash-resistant
  kNotControllable,  // survives, but the attacker cannot steer the pointer
  kUsable,           // survives, pointer controllable, service stays up
  kFalsePositive,    // survives + controllable, but probing breaks service
                     // (the Memcached epoll_wait case)
};

const char* verdict_name(Verdict v);

/// Why a Windows API candidate was excluded during controllability
/// classification (the three reasons of §V-B).
enum class ExclusionReason : u8 {
  kNone = 0,
  kStackPointer,     // arg is a short-lived stack-allocated struct
  kDerefedOutside,   // pointer dereferenced outside the resistant function
  kVolatileHeap,     // volatile heap pointer with no stored reference
};

const char* exclusion_reason_name(ExclusionReason r);

/// One discovered candidate, in any class.
struct Candidate {
  PrimitiveClass cls = PrimitiveClass::kSyscall;
  std::string target;        // process/application name
  // kSyscall:
  os::Sys syscall = os::Sys::kCount;
  int pointer_arg = 0;       // 1-based argument slot
  u64 taint_mask = 0;        // colors observed on the pointer value
  std::optional<gva_t> pointer_home;  // memory the pointer was loaded from
  /// True when pointer_home lies in attacker-writable, non-stack memory
  /// (heap object / writable globals): with the threat model's arbitrary
  /// write primitive, the attacker can steer the pointer through its home.
  bool controllable_home = false;
  // kWinApi:
  u32 api_id = 0;
  std::string api_name;
  gva_t call_site = 0;
  bool script_triggerable = false;
  ExclusionReason exclusion = ExclusionReason::kNone;
  // kExceptionHandler:
  std::string module;
  u64 scope_begin = 0, scope_end = 0;  // code-section offsets
  u64 filter_off = 0;                  // or isa::kFilterCatchAll
  bool catch_all = false;

  Verdict verdict = Verdict::kUntested;
  std::string note;

  std::string describe() const;
  bool operator==(const Candidate&) const = default;
};

}  // namespace crp::analysis
