// Full Table-I-style discovery pipeline over all five server simulacra
// (Nginx, Cherokee, Lighttpd, Memcached, PostgreSQL), with per-candidate
// narration — the expanded version of what bench_table1 prints.
//
// Thin driver over the pipeline layer: subjects come from the
// TargetRegistry, the five server cells run as one Campaign::run_all batch
// (the same path as bench_table1), and the trailing metrics dump includes
// the `pipeline.stage.*`, `pipeline.cache.*` and job-engine series the
// batch publishes.
//
// Build & run:  ./build/examples/discover_servers

#include <cstdio>
#include <map>

#include "analysis/report.h"
#include "pipeline/campaign.h"

int main() {
  using namespace crp;

  pipeline::TargetRegistry reg = pipeline::TargetRegistry::builtin();
  pipeline::TargetRegistry servers;
  for (const pipeline::TargetSpec* s : reg.of_class(pipeline::TargetClass::kLinuxServer))
    servers.add(*s);

  std::map<std::string, analysis::SyscallScanResult> results;
  std::vector<std::string> names;

  for (pipeline::TargetReport& rep : pipeline::Campaign().run_all(servers)) {
    pipeline::ServerScan& scan = rep.server;
    printf("=== %s ===\n", scan.name.c_str());
    printf("  observed %zu EFAULT-capable syscalls on the workload path\n",
           scan.result.observed.size());
    for (const analysis::Candidate& c : scan.result.candidates)
      printf("  %s\n", c.describe().c_str());
    names.push_back(scan.name);
    results[scan.name] = std::move(scan.result);
    printf("\n");
  }

  printf("Table I — syscall candidate matrix\n");
  printf("  (+) usable primitive   FP false positive   +- observed/invalid   . unseen\n\n");
  printf("%s\n", analysis::render_table1(names, results).c_str());

  printf("Paper ground truth (§V-A): recv@nginx, epoll_wait@cherokee,\n");
  printf("read@lighttpd, read@memcached (+ epoll_wait@memcached as the false\n");
  printf("positive), epoll_wait@postgresql.\n");

  printf("\n%s", analysis::render_metrics().c_str());
  return 0;
}
