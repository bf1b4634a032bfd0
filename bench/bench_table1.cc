// Table I reproduction: the syscall candidate matrix over the five server
// simulacra (Nginx, Cherokee, Lighttpd, Memcached, PostgreSQL).
//
// Thin driver over the pipeline layer: the subjects come from the
// TargetRegistry, and the five server cells (taint trace -> candidate
// selection -> verify) run as one Campaign::run_all batch — the same cells
// crpd and crpbench run. Repeated runs are answered from the
// content-addressed ArtifactStore (set CRP_CACHE_DIR for cross-process
// warmth, CRP_CACHE=0 to bypass). Progress lines are printed *after* the
// batch from its reports, so stdout is byte-identical for any job count
// and any cache state.
//
// Paper ground truth (§V-A):
//   usable (+): recv@nginx, epoll_wait@cherokee, read@lighttpd,
//               read@memcached, epoll_wait@postgresql
//   false positive: epoll_wait@memcached (connection thread dies silently)
//   everything else observed: invalid (crash or not attacker-steerable).

#include <cstdio>
#include <map>

#include "analysis/report.h"
#include "obs/bench_support.h"
#include "pipeline/campaign.h"

int main() {
  crp::obs::BenchSession obs_session("table1");
  using namespace crp;

  printf("bench_table1 — Table I: syscall-based crash-resistant primitives\n");
  printf("=================================================================\n\n");

  pipeline::TargetRegistry reg = pipeline::TargetRegistry::builtin();
  pipeline::TargetRegistry servers;
  for (const pipeline::TargetSpec* s : reg.of_class(pipeline::TargetClass::kLinuxServer))
    servers.add(*s);
  std::vector<pipeline::TargetReport> reps = pipeline::Campaign().run_all(servers);

  std::map<std::string, analysis::SyscallScanResult> results;
  std::vector<std::string> names;
  int usable = 0, fps = 0;

  for (pipeline::TargetReport& rep : reps) {
    pipeline::ServerScan& scan = rep.server;
    printf("scanning %-14s ...", scan.name.c_str());
    int u = 0, f = 0;
    for (const auto& c : scan.result.candidates) {
      u += c.verdict == analysis::Verdict::kUsable ? 1 : 0;
      f += c.verdict == analysis::Verdict::kFalsePositive ? 1 : 0;
    }
    printf(" %zu observed, %zu candidates, %d usable, %d false-positive\n",
           scan.result.observed.size(), scan.result.candidates.size(), u, f);
    usable += u;
    fps += f;
    names.push_back(scan.name);
    results[scan.name] = std::move(scan.result);
  }

  printf("\nTable I (measured)\n");
  printf("  (+) usable   FP false positive   +- observed/invalid   . not on path\n\n");
  printf("%s\n", analysis::render_table1(names, results).c_str());

  printf("Paper Table I (expected pattern): one usable primitive per server —\n");
  printf("nginx:recv, cherokee:epoll_wait, lighttpd:read, memcached:read,\n");
  printf("postgresql:epoll_wait — plus memcached:epoll_wait as a false positive.\n");
  printf("Measured: %d usable, %d false positive.\n", usable, fps);
  return 0;
}
