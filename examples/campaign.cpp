// Whole-corpus campaign: run EVERY registered discovery subject through the
// class-appropriate funnel in one invocation — the end-to-end entry point
// the staged pipeline layer exists for.
//
//   linux-server     taint trace -> syscall candidates -> verify
//   managed-runtime  run -> signal-handler scan (ucontext-editing SIGSEGV)
//   browser          browse under trace -> SEH extract -> classify -> xref
//                    (+ VEH harvest and the §VII-B guard audit)
//   dll-corpus       SEH extract -> classify -> xref (static only)
//   api-corpus       invalid-pointer fuzz -> traced call-site reduction
//
// Each target's block is pipeline::render_report — the bytes the crpd FETCH
// verb serves for the same target (CI byte-diffs the two).
//
// Build & run:  ./build/examples/campaign
// Repeated runs with CRP_CACHE_DIR set are answered from the
// content-addressed ArtifactStore ([cached] below); CRP_CACHE=0 bypasses.
// CRP_PLAN=1 appends the exploit-plan epilogue to every funnel: synthesize
// an ExploitPlan from the verified evidence, replay it against a fresh
// target instance, and print the plan/replay lines per target.

#include <cstdio>
#include <cstdlib>

#include "obs/ledger.h"
#include "obs/obs.h"
#include "obs/serve.h"
#include "pipeline/campaign.h"

int main() {
  using namespace crp;

  printf("CRProbe campaign — every registered target, one pipeline\n");
  printf("=========================================================\n\n");

  // CRP_OBS_SERVE=port exposes live progress (watch with tools/crptop).
  obs::serve::maybe_start_from_env();

  pipeline::TargetRegistry reg = pipeline::TargetRegistry::builtin();
  pipeline::CampaignOptions copts;
  if (const char* p = std::getenv("CRP_PLAN"); p != nullptr && *p == '1')
    copts.plan = true;
  pipeline::Campaign campaign(copts);
  obs::Registry::global()
      .gauge("pipeline.campaign.targets_total")
      .set(static_cast<i64>(reg.all().size()));

  int total_primitives = 0;
  for (const pipeline::TargetSpec& spec : reg.all()) {
    pipeline::TargetReport rep = campaign.run_target(spec);
    fputs(pipeline::render_report(rep).c_str(), stdout);
    total_primitives += rep.usable;
  }

  const pipeline::ArtifactStore& store = pipeline::ArtifactStore::global();
  printf("=========================================================\n");
  printf("%zu targets, %d crash-resistant primitives / recovery sites\n",
         reg.all().size(), total_primitives);
  printf("artifact cache: %llu hits, %llu misses, %llu stores\n",
         static_cast<unsigned long long>(store.hits()),
         static_cast<unsigned long long>(store.misses()),
         static_cast<unsigned long long>(store.stores()));

  // With a flight-recorder sink requested, machine-check the ledger before
  // exit: the zero-crash invariant per primitive plus the ledger/counter
  // cross-check. A FAIL here is a real bug, so it fails the process (CI
  // asserts on both the exit code and the PASS line).
  if (const char* p = std::getenv("CRP_LEDGER"); p != nullptr && *p != '\0') {
    obs::LedgerAudit audit =
        obs::audit_ledger(obs::Ledger::global(), &obs::Registry::global());
    printf("%s\n", audit.summary().c_str());
    if (!audit.ok()) return 1;
  }
  return 0;
}
