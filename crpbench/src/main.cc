// crpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          [--out <dir>] [--source <id>]
//
// Runs one workload and prints its metrics, then one JSON line:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Untraced runs print the end-to-end metrics, traced runs the per-layer
// ones (plus a Chrome trace and a self-time table under --out). Exits 1
// when an output check failed, 2 on a usage error.
#include <utility>

#include "bench.h"

namespace {

using crpbench::Args;
using crpbench::Result;

// The metric sets BENCHMARK.json declares (run.py checks the two agree).
const std::pair<const char*, const char*> kEndToEnd[] = {
    {"setup_s", "s"},        {"wall_s", "s"},         {"cpu_s", "s"},
    {"jobs_per_s", "1/s"},   {"job_p50_ms", "ms"},    {"job_p90_ms", "ms"},
    {"peak_rss_mb", "MB"}};

std::vector<std::pair<std::string, std::string>> per_layer() {
  std::vector<std::pair<std::string, std::string>> v = {
      {"vm.instr_retired", "count"},       {"vm.bare_s", "s"},
      {"vm.bare_mips", "MIPS"},            {"vm.browse_mips", "MIPS"},
      {"os.syscalls", "count"},            {"os.api_calls", "count"},
      {"os.api_fuzz_s", "s"},              {"taint.propagated", "count"},
      {"taint.self_s", "s"},               {"exec.verify_busy_s", "s"},
      {"exec.idle_frac.verify", "ratio"},  {"exec.idle_frac", "ratio"},
      {"analysis.seh_extract_s", "s"},     {"analysis.xref_s", "s"},
      {"analysis.call_sites_s", "s"},      {"symex.classify_s", "s"},
      {"symex.sat_queries", "count"},      {"symex.memo_hits", "count"},
      {"targets.generate_s", "s"}};
  for (const crpbench::Step& st : crpbench::kSteps)
    v.push_back({crp::strf("pipeline.step.%s_s", st.name), "s"});
  for (const char* server :
       {"nginx_sim", "cherokee_sim", "lighttpd_sim", "memcached_sim", "postgres_sim"})
    v.push_back({crp::strf("pipeline.job.%s_s", server), "s"});
  std::vector<std::pair<std::string, std::string>> rest = {
      {"pipeline.critical_path_s", "s"},      {"pipeline.queue_wait_p50_ms", "ms"},
      {"pipeline.queue_wait_p90_ms", "ms"},   {"pipeline.job_run_p50_ms", "ms"},
      {"pipeline.job_run_p90_ms", "ms"},      {"pipeline.store.hit_ratio", "ratio"},
      {"pipeline.store.stores", "count"},     {"pipeline.codec.decode_us", "us"},
      {"pipeline.codec.encode_us", "us"},     {"pipeline.codec.bytes", "bytes"},
      {"pipeline.render_us", "us"},           {"plan.synth_ms", "ms"},
      {"plan.replay_ms", "ms"},               {"oracle.probes", "count"},
      {"oracle.crashes", "count"},            {"serve.ping_ms", "ms"},
      {"serve.submit_ms", "ms"},              {"serve.fetch_ms", "ms"},
      {"serve.notify_ms", "ms"},              {"serve.notify_quickack_ms", "ms"},
      {"serve.rejected", "count"},
      {"obs.overhead_frac", "ratio"},         {"obs.uncovered_frac", "ratio"},
      {"obs.spans", "count"}};
  v.insert(v.end(), rest.begin(), rest.end());
  return v;
}

int usage() {
  std::fprintf(stderr,
               "usage: crpbench --workload syscall-funnel|windows-funnel|serve-mix "
               "--seed N --seconds S --trace 0|1 [--out DIR] [--source ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") args.workload = v;
    else if (k == "--seed") args.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") args.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") args.trace = v == "1";
    else if (k == "--out") args.out_dir = v;
    else if (k == "--source") args.source = v;
    else return usage();
  }
  if (argc % 2 != 1 || !(args.seconds > 0)) return usage();

  void (*run)(const Args&, Result&, crpbench::Spans*) = nullptr;
  if (args.workload == "syscall-funnel") run = crpbench::run_syscall_funnel;
  else if (args.workload == "windows-funnel") run = crpbench::run_windows_funnel;
  else if (args.workload == "serve-mix") run = crpbench::run_serve_mix;
  else return usage();

  Result res;
  crpbench::Spans spans;
  run(args, res, args.trace ? &spans : nullptr);
  if (args.trace) {
    crpbench::export_trace(spans, args, res);
    res.complete(per_layer(), true);
  } else {
    std::vector<std::pair<std::string, std::string>> e2e;
    for (const auto& [name, unit] : kEndToEnd) e2e.push_back({name, unit});
    res.complete(e2e, false);
  }
  res.print(args);
  return res.correct() ? 0 : 1;
}
