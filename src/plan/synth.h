// plan::synthesize — turn a verified primitive into an ExploitPlan.
//
// The synthesizer consumes the *evidence* the discovery funnels produce
// (verified analysis::Candidate lists — symex-classified filter/handler
// verdicts for the exception-handler class, dynamically verified pointer
// controllability for the syscall class) plus a TargetBinding describing
// how to reach the target's oracle surface, and picks a probe strategy,
// stride and leak/hijack offsets per primitive class:
//
//   write-probe surfaces (nginx recv):   every probe clobbers 8 bytes at
//     the probed address, so the leak offsets skip the clobbered word and
//     the hijack IS the probe — the controlled recv() write lands in the
//     located region.
//   read-probe surfaces (SEH/VEH/NPE):   probes are side-effect-free, so
//     leak offsets may include the base word and the hijack is confirmed
//     by the primitive's own channel answering "mapped" for the slot.
//
// Synthesized plans scan in sweep mode with stride == region size: the
// minimum deterministic probe count that cannot miss the region inside the
// window (window/stride probes), vs the geometric expectation of the
// handwritten PoCs' randomized hunt. Determinism contract: synthesize() is
// a pure function of (binding, evidence, options) — byte-identical encoded
// plans at any job count or cache state.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "analysis/candidates.h"
#include "analysis/target.h"
#include "plan/plan.h"
#include "targets/browser.h"

namespace crp::plan {

/// How to reach one registry target's oracle surface. Narrow on purpose:
/// plan sits below pipeline in the library stack, so the pipeline layer
/// maps its TargetSpec onto this (binding_for, pipeline/campaign.cc).
struct TargetBinding {
  std::string id;  // registry id, used for labels only
  Surface surface = Surface::kNone;
  /// kNginxRecv / kJvmNpe: build + instantiate the runnable program.
  std::function<analysis::TargetProgram()> make_program;
  u16 port = 0;
  u64 aslr_seed = 0;  // instantiate() layout seed (deterministic replays)
  /// kBrowserSeh / kBrowserPoll: simulacrum construction parameters.
  targets::BrowserSim::Options browser;
};

struct SynthOptions {
  /// Scan-window size granted by the replay harness (the PoCs' demo
  /// window); the rationale documents the full-entropy extrapolation.
  u64 window_pages = 1024;
  /// Hidden-region size the plan is tuned for.
  u64 region_pages = 16;
  /// Seed basis for randomized (hunt-mode) plans; sweep plans ignore it.
  u64 seed = 0;
};

/// Synthesize the class-appropriate plan from discovery evidence. Returns
/// an empty plan (surface kNone, rationale explaining why) when the
/// binding has no oracle surface or the evidence carries no usable
/// primitive for it.
ExploitPlan synthesize(const TargetBinding& binding,
                       const std::vector<analysis::Candidate>& evidence,
                       const SynthOptions& opts = {});

}  // namespace crp::plan
