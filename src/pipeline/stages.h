// The paper's discovery pipeline as typed, individually schedulable stages.
//
// Each stage is a plain struct with an `In`/`Out` pair and a static run():
// no inheritance, no type erasure — the Campaign engine's target cells
// (campaign.h) wire stages together with ordinary code, one cell step per
// stage, and the types document exactly which artifact flows where:
//
//   Linux syscall funnel (Table I):
//     TaintTraceStage -> SyscallCandidateStage -> VerifyStage
//   SEH funnel (Tables II/III, §V-C):
//     SehExtractStage -> FilterClassifyStage -> CoverageXrefStage
//   Windows API funnel (§V-B):
//     ApiFuzzStage -> CallSiteTraceStage
//   ReportStage renders any funnel's tables.
//
// Every run() executes under a StageScope: a `pipeline.stage.<id>.runs`
// counter, a `pipeline.stage.<id>.ns` latency histogram, and a journal span
// ("stage:<id>", category "pipeline") — so a campaign's timeline is visible
// in BENCH_*.json snapshots and Chrome traces without any driver code.
//
// FilterClassifyStage and ApiFuzzStage accept an ArtifactStore: their
// outputs are pure functions of (corpus content, configuration), so they
// are answered from the content-addressed cache when an equal corpus was
// classified/fuzzed before (pass nullptr to force computation).
#pragma once

#include <set>
#include <string>
#include <vector>

#include "analysis/api_analysis.h"
#include "analysis/report.h"
#include "obs/prof.h"
#include "analysis/seh_analysis.h"
#include "analysis/syscall_scanner.h"
#include "os/kernel.h"
#include "pipeline/artifact_store.h"
#include "pipeline/codec.h"
#include "pipeline/registry.h"
#include "plan/replay.h"
#include "trace/tracer.h"

namespace crp::pipeline {

/// RAII observability wrapper for one stage execution. Cheap relative to
/// any stage body; not for per-item use inside a stage. Also enters the
/// profiler's stage context, so virtual-time samples taken while the stage
/// runs carry its id.
class StageScope {
 public:
  explicit StageScope(const char* stage_id, std::string subject = {});
  ~StageScope();
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  const char* id_;
  std::string subject_;
  u64 t0_ns_;
  obs::ScopedProfStage prof_stage_;
};

// --- Linux syscall funnel (§IV-A) -------------------------------------------

/// Run the target's test-suite workload under byte-granular taint tracking;
/// record every EFAULT-capable syscall and the taint/provenance of its
/// pointer arguments. Output candidates are *unverified*.
struct TaintTraceStage {
  static constexpr const char* kId = "taint_trace";
  struct In {
    const analysis::TargetProgram* target = nullptr;
    analysis::SyscallScanOptions opts;
  };
  using Out = analysis::SyscallScanResult;
  static Out run(const In& in);
};

/// Candidate selection: keep the traced pointer-argument sites whose
/// syscall can return -EFAULT (the paper's §IV-A filter). The trace hook
/// already records only such sites, so this stage is the explicit,
/// re-asserted selection point between tracing and verification.
struct SyscallCandidateStage {
  static constexpr const char* kId = "syscall_candidates";
  struct In {
    const analysis::SyscallScanResult* trace = nullptr;
  };
  using Out = std::vector<analysis::Candidate>;
  static Out run(const In& in);
};

/// Verify each candidate in a fresh target instance: corrupt the pointer
/// (register + live memory home), keep driving the workload, classify
/// crash / not-controllable / usable / false-positive. Candidates are
/// independent, so verification shards across the exec pool (`jobs` as for
/// exec::resolve_jobs); results merge in input order.
struct VerifyStage {
  static constexpr const char* kId = "verify";
  struct In {
    const analysis::TargetProgram* target = nullptr;
    analysis::SyscallScanOptions opts;
    std::vector<analysis::Candidate> candidates;
    int jobs = 0;
  };
  using Out = std::vector<analysis::Candidate>;
  static Out run(const In& in);
};

// --- SEH funnel (§IV-C) ------------------------------------------------------

/// A parsed corpus plus the content hash of the serialized images it was
/// parsed from (the ArtifactStore input key for downstream stages).
struct SehCorpus {
  analysis::SehExtractor ex;
  u64 content_hash = 0;
};

/// Static pass: parse scope tables out of serialized images (sharded across
/// the pool, merged in input order). Panics on malformed blobs — corpora
/// are generated in-process, so malformed input is a programmer error.
struct SehExtractStage {
  static constexpr const char* kId = "seh_extract";
  struct In {
    const std::vector<std::vector<u8>>* blobs = nullptr;
    int jobs = 0;
  };
  using Out = SehCorpus;
  static Out run(const In& in);
};

/// Symbolically execute every unique filter and ask the SAT backend whether
/// any path accepts an access violation. Cached: keyed by the corpus
/// content hash and the ClassifyOptions, a repeated classification of an
/// identical corpus replays verdicts *and* the counters the drivers print.
struct FilterClassifyStage {
  static constexpr const char* kId = "filter_classify";
  struct In {
    const SehCorpus* corpus = nullptr;
    analysis::ClassifyOptions opts;
    int jobs = 0;
    ArtifactStore* store = nullptr;  // nullptr -> always compute
  };
  using Out = ClassifyOutcome;
  static Out run(const In& in);
};

/// Dynamic pass: cross-reference AV-capable guarded regions with traced
/// execution coverage (tracer/proc may be nullptr for static-only corpora).
struct CoverageXrefStage {
  static constexpr const char* kId = "coverage_xref";
  struct In {
    const analysis::SehExtractor* ex = nullptr;
    const std::vector<analysis::FilterInfo>* filters = nullptr;
    const trace::Tracer* tracer = nullptr;
    const os::Process* proc = nullptr;
  };
  using Out = std::vector<analysis::ModuleSehStats>;
  static Out run(const In& in);
};

// --- Windows API funnel (§IV-B) ----------------------------------------------

/// Black-box invalid-pointer fuzzing of the kernel's registered API
/// surface. Cached: keyed by a content hash of the API spec table (ids,
/// names, argument kinds, behaviors) and the probe count.
struct ApiFuzzStage {
  static constexpr const char* kId = "api_fuzz";
  struct In {
    os::Kernel* kernel = nullptr;
    int probes_per_arg = 3;
    int jobs = 0;
    ArtifactStore* store = nullptr;  // nullptr -> always compute
  };
  struct Out {
    analysis::ApiFuzzResult result;
    bool cache_hit = false;
  };
  static Out run(const In& in);
};

/// Reduce a traced workload's API log against the fuzzer-approved set:
/// on-path, script-triggerable, pointer-argument controllability.
struct CallSiteTraceStage {
  static constexpr const char* kId = "call_site_trace";
  struct In {
    const trace::Tracer* tracer = nullptr;
    const std::set<u32>* crash_resistant = nullptr;
    const os::Kernel* kernel = nullptr;
    const os::Process* proc = nullptr;
    std::string script_module_needle;
  };
  using Out = std::vector<analysis::ApiSiteInfo>;
  static Out run(const In& in);
};

// --- exploit-plan epilogue (ROADMAP item 4) ----------------------------------

/// Map a registry entry onto the plan layer's oracle-surface binding. The
/// plan library sits below pipeline, so this is the one place the
/// registry-id -> surface mapping lives: nginx_sim drives the §VI-C recv()
/// oracle, jvm_sim the NPE-flag oracle, the two browser kinds their
/// SEH/poll oracles; every other class binds kNone (empty plan, trivial
/// replay).
plan::TargetBinding binding_for(const TargetSpec& spec);

/// Synthesize the class-appropriate ExploitPlan from a target's verified
/// candidate evidence. Cached: keyed by the registry id + the evidence
/// (describe/verdict/controllability of every candidate) and the synthesis
/// configuration — a warm campaign replays the exact plan bytes.
struct PlanSynthStage {
  static constexpr const char* kId = "plan_synth";
  struct In {
    const TargetSpec* spec = nullptr;
    const std::vector<analysis::Candidate>* candidates = nullptr;
    plan::SynthOptions opts;
    ArtifactStore* store = nullptr;  // nullptr -> always compute
  };
  struct Out {
    plan::ExploitPlan exploit_plan;
    bool cache_hit = false;
  };
  static Out run(const In& in);
};

/// Replay a plan against a fresh instance of the target and report what
/// the attack achieved. Never cached: verification is the point — the
/// outcome's crashes/unhandled numbers must come from a real run.
struct PlanVerifyStage {
  static constexpr const char* kId = "plan_verify";
  struct In {
    const TargetSpec* spec = nullptr;
    const plan::ExploitPlan* exploit_plan = nullptr;
    plan::HarnessOptions harness;
  };
  using Out = plan::ReplayOutcome;
  static Out run(const In& in);
};

// --- Reporting ---------------------------------------------------------------

/// Table renderers behind one stage id, so report generation shows up in
/// the pipeline timeline like every other stage.
struct ReportStage {
  static constexpr const char* kId = "report";
  static std::string table1(const std::vector<std::string>& servers,
                            const std::map<std::string, analysis::SyscallScanResult>& results);
  static std::string table2(const std::vector<analysis::ModuleSehStats>& stats);
  static std::string table3(const std::vector<analysis::ModuleSehStats>& x64,
                            const std::vector<analysis::ModuleSehStats>& x32);
  static std::string api_funnel(const analysis::ApiFunnel& funnel);
  static std::string candidates(const std::vector<analysis::Candidate>& cands);
};

/// Content hash of a serialized-image corpus (stable input key).
u64 corpus_content_hash(const std::vector<std::vector<u8>>& blobs);

}  // namespace crp::pipeline
