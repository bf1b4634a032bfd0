// Table II reproduction: guarded program-code locations per system DLL for
// an Internet Explorer run — before symbolic execution, after symbolic
// execution (AV-capable), and on the browsing execution path.
//
// Thin driver over the pipeline layer: the browser subject comes from the
// TargetRegistry and runs through its cell via Campaign::run_target
// (traced browse -> static extraction -> filter classification -> coverage
// cross-reference); classification is answered from the content-addressed
// ArtifactStore when an identical corpus was classified before. Everything
// printed is *measured*: scope tables parsed from serialized images,
// filters decided by symbolic execution + SAT, on-path counts by tracing a
// 500-page browsing workload.
//
// Paper Table II (per DLL, before SB / after SB / on path):
//   user32 70/63/40, kernel32 76/66/14, msvcrt 129/10/3, jscript9 22/6/4,
//   rpcrt4 62/20/6, sechost 133/11/0, ws2_32 82/29/10, xmlite 10/2/1.

#include <chrono>
#include <cstdio>

#include "analysis/report.h"
#include "exec/thread_pool.h"
#include "obs/bench_support.h"
#include "pipeline/campaign.h"

namespace {
double wall_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

int main() {
  crp::obs::BenchSession obs_session("table2");
  using namespace crp;

  printf("bench_table2 — Table II: guarded code locations per DLL (IE run)\n");
  printf("=================================================================\n\n");

  pipeline::TargetRegistry reg = pipeline::TargetRegistry::builtin();
  const pipeline::TargetSpec* spec = reg.find("browser/iexplore_sim");
  CRP_CHECK(spec != nullptr);
  double t0 = wall_ms();
  pipeline::TargetReport rep = pipeline::Campaign().run_target(*spec);
  // Timings and job counts go to stderr: stdout must stay bit-identical
  // across CRP_JOBS values (the determinism contract in DESIGN.md).
  fprintf(stderr, "[exec] run_target %.1f ms (jobs=%d, cache %s)\n", wall_ms() - t0,
          exec::resolve_jobs(), rep.cache_hit ? "hit" : "miss");

  printf("browsing the top-500 workload (crawl + %d page visits)...\n", 500);
  printf("done: %zu unique pcs executed, %zu commands left\n\n", rep.browse.unique_pcs,
         rep.browse.pending_commands);
  printf("static extraction: %zu handlers, %zu unique filter functions\n",
         rep.seh.handlers, rep.seh.unique_filters);
  printf("symbolic execution: %llu filters executed, %llu SAT queries\n\n",
         static_cast<unsigned long long>(rep.seh.filters_executed),
         static_cast<unsigned long long>(rep.seh.sat_queries));
  printf("%s\n", analysis::render_table2(rep.seh.modules).c_str());

  printf("Paper Table II: user32 70/63/40, kernel32 76/66/14, msvcrt 129/10/3,\n");
  printf("jscript9 22/6/4, rpcrt4 62/20/6, sechost 133/11/0, ws2_32 82/29/10,\n");
  printf("xmlite 10/2/1 (ntdll/kernelbase appear only in Table III).\n");
  return 0;
}
