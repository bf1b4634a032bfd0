// Batch workloads: one pipeline::Campaign::run_all call per round, cache
// off, at the library-default worker count.
//
//   syscall-funnel  the five Table I servers at the paper budgets (§IV-A):
//                   taint trace, candidate selection and verification.
//                   The seed permutes submission order only.
//   windows-funnel  every other registry subject plus seed-generated
//                   browsers and DLL corpora whose sizes span 10..187 DLLs
//                   (§IV-B API fuzzing, §IV-C SEH extraction and symbolic
//                   filter classification).
//
// The traced mode drives the same cells step by step through the public
// TargetCell interface (exactly what run_all's inline JobQueue does) so
// each step can be timed, then runs isolation probes outside that window.

#include <algorithm>
#include <set>

#include "bench.h"
#include "exec/thread_pool.h"
#include "pipeline/campaign.h"
#include "targets/browser.h"
#include "util/rng.h"

namespace crpbench {
namespace {

using crp::Rng;
using crp::strf;
using crp::pipeline::CampaignOptions;
using crp::pipeline::TargetClass;
using crp::pipeline::TargetRegistry;
using crp::pipeline::TargetReport;
using crp::pipeline::TargetSpec;

// Guest instructions the five-server funnel retires at the paper budgets
// (EXPERIMENTS.md, "Block translation"): a change means the workload
// changed, not that the program got faster.
constexpr u64 kTable1Instructions = 800'288'602;

// --- workload construction ------------------------------------------------------

struct Batch {
  TargetRegistry reg;
  // windows-funnel: expected summary line per subject id.
  std::map<std::string, std::string> expect;
};

Batch make_syscall_batch(u64 seed) {
  TargetRegistry all = TargetRegistry::builtin();
  std::vector<TargetSpec> servers;
  for (const TargetSpec* s : all.of_class(TargetClass::kLinuxServer)) servers.push_back(*s);
  Rng rng(seed);
  shuffle(servers, rng);
  Batch b;
  for (TargetSpec& s : servers) b.reg.add(std::move(s));
  return b;
}

// Summary lines of the registry subjects, as EXPERIMENTS.md pins their
// numbers (Tables II/III, §III-B, §V-B, §V-C).
const std::map<std::string, std::string>& registry_summaries() {
  static const std::map<std::string, std::string> kExpect = {
      {"runtime/jvm_sim", "1 installed signal handlers, 1 recovering (pc-editing)"},
      {"browser/iexplore_sim",
       "10 DLLs, 736 handlers, 584 unique filters, 98 guarded sites on path, 0 VEH (0 "
       "recovering)"},
      {"browser/firefox_sim",
       "10 DLLs, 736 handlers, 584 unique filters, 98 guarded sites on path, 1 VEH (1 "
       "recovering)"},
      {"browser/iexplore_sys187",
       "187 DLLs, 6834 handlers, 5709 unique filters, 439 guarded sites on path, 0 VEH (0 "
       "recovering)"},
      {"corpus/dll_x64", "10 DLLs, 584 unique filters, 160 AV-capable after SB"},
      {"corpus/dll_x32", "10 DLLs, 433 unique filters, 115 AV-capable after SB"},
      {"corpus/winapi",
       "20683 APIs -> 11542 with pointer args -> 409 crash-resistant -> 29 on path -> 0 "
       "controllable"}};
  return kExpect;
}

struct Planted {
  int dlls = 0, filters = 0, av = 0, guarded = 0, on_path = 0;
};

Planted planted(const std::vector<crp::targets::DllSpec>& specs) {
  Planted p;
  for (const auto& s : specs) {
    ++p.dlls;
    p.filters += s.filters_total;
    p.av += s.filters_av;
    p.guarded += s.guarded;
    p.on_path += s.on_path;
  }
  return p;
}

// Generated subjects: sizes are spread evenly over 10..187 DLLs for every
// seed (so the batch's cost does not depend on the seed); the seed picks
// generation seeds, browser kinds' pairing with sizes, and the order.
constexpr int kGenBrowsers = 4;
constexpr int kGenCorpora = 4;

Batch make_windows_batch(u64 seed) {
  Rng rng(seed ^ 0x57494E44ull);
  std::vector<TargetSpec> subjects;
  const TargetRegistry builtin = TargetRegistry::builtin();
  for (const TargetSpec& s : builtin.all())
    if (s.cls != TargetClass::kLinuxServer) subjects.push_back(s);

  auto sizes = [&](int n) {
    std::vector<int> v;
    for (int i = 0; i < n; ++i) v.push_back(10 + (177 * i + (n - 1) / 2) / (n - 1));
    shuffle(v, rng);
    return v;
  };
  Batch b;
  for (const TargetSpec& s : subjects) b.expect[s.id] = registry_summaries().at(s.id);

  std::vector<int> bsz = sizes(kGenBrowsers);
  for (int i = 0; i < kGenBrowsers; ++i) {
    TargetSpec s;
    s.id = strf("gen/browser%02d", i);
    s.cls = TargetClass::kBrowser;
    s.personality = crp::vm::Personality::kWindows;
    bool firefox = i % 2 == 1;
    s.browser_kind = firefox ? crp::targets::BrowserSim::Kind::kFirefox
                             : crp::targets::BrowserSim::Kind::kIE;
    s.seed = rng.next();
    s.filler_dlls = bsz[static_cast<size_t>(i)] - 10;
    // BrowserSim loads the paper's named DLL set plus filler_dll_specs
    // seeded with (seed ^ 0xF111), and adds jscript9's hand-authored
    // MUTX::Enter catch-all scope: one more handler, on the crawl path.
    std::vector<crp::targets::DllSpec> specs = crp::targets::paper_dll_specs();
    for (const auto& f : crp::targets::filler_dll_specs(s.filler_dlls, s.seed ^ 0xF111))
      specs.push_back(f);
    Planted p = planted(specs);
    b.expect[s.id] = strf(
        "%d DLLs, %d handlers, %d unique filters, %d guarded sites on path, %d VEH (%d "
        "recovering)",
        p.dlls, p.guarded + 1, p.filters, p.on_path + 1, firefox ? 1 : 0, firefox ? 1 : 0);
    subjects.push_back(std::move(s));
  }
  std::vector<int> csz = sizes(kGenCorpora);
  for (int i = 0; i < kGenCorpora; ++i) {
    TargetSpec s;
    s.id = strf("gen/corpus%02d", i);
    s.cls = TargetClass::kDllCorpus;
    s.personality = crp::vm::Personality::kWindows;
    s.seed = rng.next();
    int n = csz[static_cast<size_t>(i)];
    u64 spec_seed = rng.next();
    s.dll_specs = [n, spec_seed] { return crp::targets::filler_dll_specs(n, spec_seed); };
    Planted p = planted(s.dll_specs());
    b.expect[s.id] =
        strf("%d DLLs, %d unique filters, %d AV-capable after SB", p.dlls, p.filters, p.av);
    subjects.push_back(std::move(s));
  }
  shuffle(subjects, rng);
  for (TargetSpec& s : subjects) b.reg.add(std::move(s));
  return b;
}

// --- output checks ----------------------------------------------------------------

// Table I (§V-A): one usable primitive per server plus memcached's
// epoll_wait false positive, and nothing else usable.
void check_table1(const std::vector<TargetReport>& reps, Result& res) {
  const std::set<std::string> kExpect = {
      "nginx_sim:recv:usable",         "cherokee_sim:epoll_wait:usable",
      "lighttpd_sim:read:usable",      "memcached_sim:read:usable",
      "memcached_sim:epoll_wait:false-positive", "postgres_sim:epoll_wait:usable"};
  std::set<std::string> got;
  for (const TargetReport& r : reps)
    for (const auto& c : r.candidates) {
      if (c.verdict == crp::analysis::Verdict::kUsable)
        got.insert(c.target + ":" + crp::os::sys_name(c.syscall) + ":usable");
      if (c.verdict == crp::analysis::Verdict::kFalsePositive)
        got.insert(c.target + ":" + crp::os::sys_name(c.syscall) + ":false-positive");
    }
  res.check(reps.size() == 5, strf("syscall-funnel returned %zu reports", reps.size()));
  res.check(got == kExpect, "Table I pattern differs from the paper's");
}

void check_summaries(const Batch& b, const std::vector<TargetReport>& reps, Result& res) {
  res.check(reps.size() == b.expect.size(),
            strf("windows-funnel returned %zu reports for %zu subjects", reps.size(),
                 b.expect.size()));
  for (const TargetReport& r : reps) {
    auto it = b.expect.find(r.id);
    res.check(it != b.expect.end() && it->second == r.summary,
              strf("%s summary \"%s\" != \"%s\"", r.id.c_str(), r.summary.c_str(),
                   it != b.expect.end() ? it->second.c_str() : "?"));
  }
}

// --- traced batch -------------------------------------------------------------------

struct Layers {
  std::map<std::string, double> step_s;  // per step name
  std::map<std::string, double> job_s;   // per subject id
  std::map<std::string, double> trace_s; // taint_trace step per subject id
  double verify_cpu_s = 0;
  u64 browse_instr = 0;
};

// run_all's work, one cell step at a time, with a span per job and step.
std::vector<TargetReport> traced_batch(const TargetRegistry& reg, const CampaignOptions& opts,
                                       Spans* spans, Layers& acc) {
  std::vector<TargetReport> out;
  u64 job = 0;
  for (const TargetSpec& spec : reg.all()) {
    ++job;
    double j0 = now_s();
    Scope js(spans, "pipeline.job", -1, job);
    std::unique_ptr<crp::pipeline::TargetCell> cell =
        crp::pipeline::plan_target(opts, nullptr, spec);
    while (!cell->done()) {
      std::string step = cell->step_name(cell->next_step());
      double c0 = cpu_s();
      u64 i0 = counter("vm.instr_retired");
      double t0 = now_s();
      {
        Scope ss(spans, step_span(step), js.id(), job);
        cell->run_step();
      }
      acc.step_s[step] += now_s() - t0;
      if (step == "taint_trace") acc.trace_s[spec.id] += now_s() - t0;
      if (step == "verify") acc.verify_cpu_s += cpu_s() - c0;
      if (step == "browse") acc.browse_instr += counter("vm.instr_retired") - i0;
    }
    out.push_back(std::move(cell->report()));
    acc.job_s[spec.id] += now_s() - j0;
  }
  return out;
}

// An isolated guest run per server: build the program, fresh kernel,
// instantiate, workload and run at the discover budget, with no taint farm
// or hooks attached — the vm + os floor under TaintTraceStage.
void bare_runs(const TargetRegistry& reg, const CampaignOptions& opts, Spans* spans,
               std::map<std::string, double>& bare_s, u64& instr) {
  for (const TargetSpec& spec : reg.all()) {
    double t0 = now_s();
    Scope s(spans, "vm.bare", -1, 0, 1);
    crp::analysis::TargetProgram prog = spec.make_program();
    crp::os::Kernel k;
    int pid = prog.instantiate(k, opts.syscall.seed);
    if (prog.workload) prog.workload(k, pid);
    k.run(opts.syscall.discover_budget);
    bare_s[spec.id] = now_s() - t0;
    instr += k.total_instret();
  }
}

// Image generation of every browser subject (the part of its browse step
// that builds and loads the DLL corpus), timed on a fresh kernel.
double browser_generation(const TargetRegistry& reg, Spans* spans) {
  double total = 0;
  for (const TargetSpec& spec : reg.all()) {
    if (spec.cls != TargetClass::kBrowser) continue;
    crp::targets::BrowserSim::Options o = crp::pipeline::browser_options(spec);
    o.defer_start = true;
    crp::os::Kernel k;
    double t0 = now_s();
    Scope s(spans, "targets.browser_images", -1, 0, 1);
    crp::targets::BrowserSim sim(k, o);
    total += now_s() - t0;
  }
  return total;
}

// --- the two batch workloads ------------------------------------------------------

void run_batch(const Args& args, Result& res, Spans* spans, bool syscall) {
  // Set-up is building the subject list. It takes microseconds, so it is
  // repeated before the first round and after every round, and the median
  // of all repetitions is reported: one slow moment does not move it.
  std::vector<double> setups;
  Batch b;
  auto set_up = [&] {
    for (int i = 0; i < 25; ++i) {
      double t0 = now_s();
      b = syscall ? make_syscall_batch(args.seed) : make_windows_batch(args.seed);
      setups.push_back(now_s() - t0);
    }
  };
  set_up();
  CampaignOptions opts;
  opts.cache = false;
  crp::pipeline::ArtifactStore store;
  store.set_enabled(false);
  crp::pipeline::Campaign campaign(opts, &store);
  const size_t targets = b.reg.all().size();
  const int workers = crp::exec::resolve_jobs(0);

  auto check = [&](const std::vector<TargetReport>& reps, const Counters& d) {
    if (syscall) {
      check_table1(reps, res);
      res.check(d.instr == kTable1Instructions,
                strf("vm.instr_retired %llu != %llu", static_cast<unsigned long long>(d.instr),
                     static_cast<unsigned long long>(kTable1Instructions)));
    } else {
      check_summaries(b, reps, res);
    }
    res.check(d.crashes == 0, "oracle.scan.crashes != 0");
  };

  // One round = one run_all batch; a failed batch delivers no verdicts.
  auto untraced_round = [&](double* wall, double* cpu) {
    Counters c0 = Counters::read();
    double t0 = now_s(), u0 = cpu_s();
    std::vector<TargetReport> reps;
    bool ok = true;
    try {
      reps = campaign.run_all(b.reg);
    } catch (const std::exception& e) {
      ok = res.check(false, strf("run_all threw: %s", e.what()));
    }
    *wall = now_s() - t0;
    *cpu = cpu_s() - u0;
    res.ops(targets, ok ? 0 : targets);
    if (ok) check(reps, Counters::read() - c0);
  };

  if (!spans) {
    std::vector<double> walls, cpus;
    double start = now_s(), timed = 0, rss = 0;
    do {
      double w, c;
      untraced_round(&w, &c);
      // Peak RSS at a fixed amount of work (one round): it grows with
      // rounds, and a faster program runs more of them.
      if (walls.empty()) rss = peak_rss_mb();
      walls.push_back(w);
      cpus.push_back(c);
      timed += w;
      set_up();
    } while (now_s() - start < args.seconds);
    res.note(strf("%zu rounds of %zu targets, workers=%d", walls.size(), targets, workers));
    res.metric("setup_s", median(setups), "s");
    res.metric("wall_s", median(walls), "s");
    res.metric("cpu_s", median(cpus), "s");
    res.metric("jobs_per_s", static_cast<double>(walls.size() * targets) / timed, "1/s");
    // The caller of run_all gets every verdict when the batch returns, so
    // each job's latency is its batch's makespan.
    res.metric("job_p50_ms", 1e3 * median(walls), "ms");
    res.metric("job_p90_ms", 1e3 * quantile(walls, 0.9), "ms");
    res.metric("peak_rss_mb", rss, "MB");
    return;
  }

  // Traced: alternate an untraced run_all round with a traced round of the
  // same cells until the time is up; overhead compares their medians.
  std::vector<double> u_walls, t_walls;
  Layers acc;
  Counters d{};
  double traced_cpu = 0, uncovered = 0;
  double start = now_s();
  do {
    double w, c;
    untraced_round(&w, &c);
    u_walls.push_back(w);

    Counters c0 = Counters::read();
    double t0 = now_s(), u0 = cpu_s();
    std::vector<TargetReport> reps;
    bool ok = true;
    try {
      reps = traced_batch(b.reg, opts, spans, acc);
    } catch (const std::exception& e) {
      ok = res.check(false, strf("traced batch threw: %s", e.what()));
    }
    double t1 = now_s();
    t_walls.push_back(t1 - t0);
    traced_cpu += cpu_s() - u0;
    Counters dd = Counters::read() - c0;
    res.ops(targets, ok ? 0 : targets);
    if (ok) check(reps, dd);
    if (t_walls.size() == 1) d = dd;  // counters of one round (deterministic)
    uncovered = std::max(uncovered, spans->uncovered_frac(t0, t1));
  } while (now_s() - start < args.seconds);
  const double rounds = static_cast<double>(t_walls.size());
  double traced_wall = 0;
  for (double w : t_walls) traced_wall += w;

  // Isolation probes, outside the measured rounds.
  std::map<std::string, double> bare_s;
  u64 bare_instr = 0;
  double gen_browsers = 0;
  if (syscall) bare_runs(b.reg, opts, spans, bare_s, bare_instr);
  else gen_browsers = browser_generation(b.reg, spans);

  auto per_round = [&](double v) { return v / rounds; };
  for (const Step& st : kSteps)
    res.metric(strf("pipeline.step.%s_s", st.name), per_round(acc.step_s[st.name]), "s");
  for (const char* server : {"nginx_sim", "cherokee_sim", "lighttpd_sim", "memcached_sim",
                             "postgres_sim"})
    res.metric(strf("pipeline.job.%s_s", server),
               per_round(acc.job_s[std::string("server/") + server]), "s");
  double critical = 0;
  for (const auto& [id, s] : acc.job_s) critical = std::max(critical, per_round(s));
  res.metric("pipeline.critical_path_s", critical, "s");

  // vm / os / taint
  double bare_total = 0, taint_self = 0;
  for (const auto& [id, s] : bare_s) {
    bare_total += s;
    res.note(strf("bare %-24s %.3f s, taint_trace step %.3f s", id.c_str(), s,
                  per_round(acc.trace_s[id])));
  }
  // Both the taint trace step and the bare run build and instantiate the
  // program, so the difference is the taint farm and discover hook.
  if (syscall) taint_self = per_round(acc.step_s["taint_trace"]) - bare_total;
  res.metric("vm.instr_retired", static_cast<double>(d.instr), "count");
  res.metric("vm.bare_s", bare_total, "s");
  res.metric("vm.bare_mips", bare_total > 0 ? bare_instr / bare_total / 1e6 : 0, "MIPS");
  res.metric("vm.browse_mips",
             acc.step_s["browse"] > 0 ? acc.browse_instr / acc.step_s["browse"] / 1e6 : 0,
             "MIPS");
  res.metric("os.syscalls", static_cast<double>(d.syscalls), "count");
  res.metric("os.api_calls", static_cast<double>(d.api_calls), "count");
  res.metric("os.api_fuzz_s", per_round(acc.step_s["api_fuzz"]), "s");
  res.metric("taint.propagated", static_cast<double>(d.propagated), "count");
  res.metric("taint.self_s", taint_self, "s");
  if (syscall)
    res.check(d.propagated == kTable1Instructions,
              strf("taint.propagated %llu != %llu",
                   static_cast<unsigned long long>(d.propagated),
                   static_cast<unsigned long long>(kTable1Instructions)));

  // exec: busy CPU and idle share of the pool, over verify and the batch.
  double verify_wall = acc.step_s["verify"];
  res.metric("exec.verify_busy_s", per_round(acc.verify_cpu_s), "s");
  res.metric("exec.idle_frac.verify",
             verify_wall > 0 ? 1 - acc.verify_cpu_s / (workers * verify_wall) : 0, "ratio");
  res.metric("exec.idle_frac", 1 - traced_cpu / (workers * traced_wall), "ratio");

  // analysis / symex / targets
  res.metric("analysis.seh_extract_s", per_round(acc.step_s["seh_extract"]), "s");
  res.metric("analysis.xref_s", per_round(acc.step_s["xref_veh"]), "s");
  res.metric("analysis.call_sites_s", per_round(acc.step_s["call_sites"]), "s");
  res.metric("symex.classify_s", per_round(acc.step_s["classify"]), "s");
  res.metric("symex.sat_queries", static_cast<double>(d.sat_queries), "count");
  res.metric("symex.memo_hits", static_cast<double>(d.memo_hits), "count");
  res.metric("targets.generate_s", per_round(acc.step_s["generate"]) + gen_browsers, "s");

  // oracle / obs
  res.metric("oracle.probes", static_cast<double>(d.probes), "count");
  res.metric("oracle.crashes", static_cast<double>(d.crashes), "count");
  res.metric("obs.overhead_frac", median(t_walls) / median(u_walls) - 1, "ratio");
  res.metric("obs.uncovered_frac", uncovered, "ratio");
  res.note(strf("%zu traced rounds; untraced wall %.3f s, traced wall %.3f s",
                t_walls.size(), median(u_walls), median(t_walls)));
}

}  // namespace

void run_syscall_funnel(const Args& args, Result& res, Spans* spans) {
  run_batch(args, res, spans, true);
}

void run_windows_funnel(const Args& args, Result& res, Spans* spans) {
  run_batch(args, res, spans, false);
}

}  // namespace crpbench
