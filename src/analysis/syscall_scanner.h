// Linux syscall primitive discovery + verification (§IV-A, Table I).
//
// Phase 1 (discover): run the target's workload under byte-granular taint
// tracking; record every EFAULT-capable syscall whose pointer argument is
// (a) observed at all and (b) tainted by client bytes — together with the
// memory home the pointer value was loaded from.
//
// Phase 2 (verify): re-run with a corruption hook that, at the chosen
// occurrence of the candidate syscall, overwrites the pointer argument (and
// its memory home, so the program's own later re-reads see the corruption —
// this is what makes out-of-fragment dereferences crash honestly) with an
// unmapped address. Then keep driving the workload and classify:
//     crash            -> kCrashes         (not crash-resistant)
//     survives, clean  -> kUsable          (if tainted/controllable)
//                      -> kNotControllable (if the attacker has no handle)
//     survives, but a fresh client is no longer served
//                      -> kFalsePositive   (the Memcached epoll_wait case)
#pragma once

#include <map>
#include <set>

#include "analysis/candidates.h"
#include "analysis/target.h"

namespace crp::analysis {

struct SyscallScanOptions {
  u64 discover_budget = 30'000'000;   // instructions for the workload run
  u64 verify_budget = 30'000'000;
  /// Check end-to-end service liveness after corruption (disable to get the
  /// paper's *initial* framework behavior that mislabeled Memcached).
  bool check_service_liveness = true;
  u64 seed = 1234;
};

struct SyscallScanResult {
  std::vector<Candidate> candidates;          // verified candidates
  std::set<os::Sys> observed;                 // EFAULT-capable syscalls seen at all
  u64 syscalls_traced = 0;
  u64 instructions = 0;
};

class SyscallScanner {
 public:
  SyscallScanner(const TargetProgram& target, SyscallScanOptions opts = {});

  /// Phase 1 only.
  SyscallScanResult discover();

  /// Phase 2 for one candidate (fresh kernel instance per run).
  /// (The whole-target discover+verify funnel is pipeline's server cell,
  /// run through Campaign::run_target / run_all — there is deliberately no
  /// run_full() here so every bench and example goes through the staged
  /// pipeline and its caching/observability.)
  void verify(Candidate& cand);

 private:
  const TargetProgram& target_;
  SyscallScanOptions opts_;
};

}  // namespace crp::analysis
