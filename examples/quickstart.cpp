// Quickstart: discover crash-resistant primitives in one target.
//
// Pipeline shown end-to-end on nginx_sim, as the staged campaign engine
// runs it (the same server cell bench_table1, crpd and crpbench run):
//   1. pick the subject from the TargetRegistry,
//   2. taint_trace — run its test-suite workload under byte-granular
//      taint tracking,
//   3. candidates + verify — keep the EFAULT-capable pointer sites, then
//      corrupt every candidate pointer and watch both the process and the
//      *service*,
//   4. print the verdicts from the report's typed ServerScan.
//
// Build & run:  ./build/examples/quickstart
// (CRP_CACHE_DIR=<dir> makes a second run warm; CRP_CACHE=0 disables.)

#include <cstdio>

#include "analysis/report.h"
#include "pipeline/campaign.h"
#include "targets/nginx.h"

int main() {
  using namespace crp;

  printf("CRProbe quickstart — crash-resistant primitive discovery\n");
  printf("=========================================================\n\n");

  pipeline::TargetRegistry reg = pipeline::TargetRegistry::builtin();
  const pipeline::TargetSpec* spec = reg.find("server/nginx_sim");
  CRP_CHECK(spec != nullptr);
  pipeline::TargetReport rep = pipeline::Campaign().run_target(*spec);
  const analysis::SyscallScanResult& result = rep.server.result;
  printf("Target: %s (Linux personality, port %u)\n\n", rep.server.name.c_str(),
         targets::kNginxPort);

  printf("[1/2] discovery: running the test suite under taint tracking...\n");
  printf("      %llu syscalls traced, %zu EFAULT-capable syscalls observed,\n",
         static_cast<unsigned long long>(result.syscalls_traced), result.observed.size());
  printf("      %zu pointer-argument candidates recorded\n\n", result.candidates.size());

  printf("[2/2] verification: corrupting each candidate pointer and checking\n");
  printf("      process + service health (fresh instance per candidate)...\n\n");

  printf("%s\n", analysis::render_candidates(result.candidates).c_str());

  printf("==> %d usable crash-resistant primitive(s) found.\n", rep.usable);
  printf("    An attacker can probe this server's address space with ZERO crashes.\n");
  return rep.usable > 0 ? 0 : 1;
}
