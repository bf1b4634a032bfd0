// benchdiff — the bench regression gate.
//
// Compares two sets of BENCH_<name>.json snapshots (as written by
// obs::BenchSession) and exits nonzero when any tracked metric regressed
// past its threshold. Each side of the comparison is either
//   * a directory containing BENCH_*.json files (one per bench), or
//   * a combined baseline file (schema below), typically the committed
//     bench/baseline.json.
//
// Two metric classes with separate thresholds:
//   * virtual metrics (vm.instr_retired, sat.queries, oracle.scan.probes,
//     ...) are deterministic — tight default threshold (--threshold, 5%);
//     oracle.scan.crashes is special: ANY increase is a regression, because
//     zero crashes is the paper's headline invariant, not a perf number.
//   * bench.wall_ns is real time — noisy on shared CI hardware, so it gets
//     its own loose threshold (--wall-threshold, 30%) and --no-wall disables
//     it entirely (what CI uses).
//
// --write-baseline=OUT turns the tool into a snapshotter: it reads one
// input set and writes the combined baseline file, stamping meta from
// CRP_GIT_SHA / CRP_JOBS / CRP_CACHE when set.
//
// Baseline schema:
//   {"schema":1,"meta":{"git_sha":...,"jobs":...,"cache":...},
//    "benches":{"<name>":{"<metric>":<number>,...},...}}
//
// Exit codes: 0 ok / improved, 1 regression detected, 2 usage or I/O error.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/expo.h"
#include "obs/obs.h"
#include "util/common.h"

namespace fs = std::filesystem;
using crp::obs::json_escape;
using crp::obs::expo::BenchDoc;
using crp::obs::expo::parse_bench_json;
using crp::obs::expo::parse_metrics;
using crp::obs::expo::parse_object;
using crp::obs::expo::parse_string;

namespace {

// name -> (metric -> value)
using BenchSet = std::map<std::string, std::map<std::string, double>>;

/// Deterministic (virtual-clock / counted) metrics: tight threshold.
const char* kVirtualKeys[] = {
    "vm.instr_retired",    "vm.exceptions",        "sat.queries",
    "sat.conflicts",       "oracle.scan.probes",   "oracle.scan.mapped_hits",
    "kernel.api.calls",    "analysis.pool.tasks",
};

bool read_file(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

// --- combined baseline file --------------------------------------------------

bool parse_baseline(const std::string& text, BenchSet* out) {
  size_t p = text.find("\"benches\":");
  if (p == std::string::npos) return false;
  p += 10;
  return parse_object(text, &p, [&](const std::string& name) {
    return parse_metrics(text, &p, &(*out)[name]);
  });
}

// --- input loading -----------------------------------------------------------

bool is_bench_file(const fs::path& p) {
  std::string f = p.filename().string();
  if (f.rfind("BENCH_", 0) != 0 || p.extension() != ".json") return false;
  if (f == "BENCH_SUMMARY.json") return false;
  if (f.find("_trace.json") != std::string::npos) return false;
  return true;
}

/// Best-effort extraction of meta.git_sha from a combined baseline file
/// (directories of BENCH_*.json carry no provenance — "unknown").
std::string parse_meta_git_sha(const std::string& text) {
  size_t meta = text.find("\"meta\"");
  size_t key = meta == std::string::npos ? std::string::npos
                                         : text.find("\"git_sha\"", meta);
  if (key == std::string::npos) return "unknown";
  size_t p = text.find(':', key);
  if (p == std::string::npos) return "unknown";
  ++p;
  std::string sha;
  if (!parse_string(text, &p, &sha) || sha.empty()) return "unknown";
  return sha;
}

bool load_set(const std::string& arg, BenchSet* out, std::string* git_sha = nullptr) {
  if (git_sha != nullptr) *git_sha = "unknown";
  std::error_code ec;
  if (fs::is_directory(arg, ec)) {
    std::vector<fs::path> files;
    for (const auto& e : fs::directory_iterator(arg, ec))
      if (e.is_regular_file() && is_bench_file(e.path())) files.push_back(e.path());
    if (files.empty()) {
      std::fprintf(stderr, "benchdiff: no BENCH_*.json files in %s\n", arg.c_str());
      return false;
    }
    for (const fs::path& f : files) {
      std::string text;
      BenchDoc doc;
      if (!read_file(f.string(), &text) || !parse_bench_json(text, &doc)) {
        std::fprintf(stderr, "benchdiff: cannot parse %s\n", f.string().c_str());
        return false;
      }
      std::string name = doc.bench;
      if (name.empty()) {
        name = f.stem().string();
        if (name.rfind("BENCH_", 0) == 0) name = name.substr(6);
      }
      (*out)[name] = doc.flat;
    }
    return true;
  }
  std::string text;
  if (!read_file(arg, &text)) {
    std::fprintf(stderr, "benchdiff: cannot read %s\n", arg.c_str());
    return false;
  }
  if (!parse_baseline(text, out)) {
    std::fprintf(stderr, "benchdiff: %s is not a baseline file\n", arg.c_str());
    return false;
  }
  if (git_sha != nullptr) *git_sha = parse_meta_git_sha(text);
  return true;
}

// --- baseline writing --------------------------------------------------------

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? v : fallback;
}

bool write_baseline(const BenchSet& set, const std::string& path) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "benchdiff: cannot write %s\n", path.c_str());
    return false;
  }
  f << "{\n\"schema\": 1,\n\"meta\": {";
  f << "\"git_sha\": \"" << json_escape(env_or("CRP_GIT_SHA", "unknown")) << "\", ";
  f << "\"jobs\": \"" << json_escape(env_or("CRP_JOBS", "default")) << "\", ";
  f << "\"cache\": \"" << json_escape(env_or("CRP_CACHE", "default")) << "\"},\n";
  f << "\"benches\": {";
  bool first_bench = true;
  for (const auto& [name, metrics] : set) {
    if (!first_bench) f << ",";
    first_bench = false;
    f << "\n  \"" << json_escape(name) << "\": {";
    bool first_metric = true;
    for (const auto& [key, value] : metrics) {
      if (!first_metric) f << ", ";
      first_metric = false;
      f << "\"" << json_escape(key) << "\": " << crp::strf("%.17g", value);
    }
    f << "}";
  }
  f << "\n}\n}\n";
  return true;
}

// --- comparison --------------------------------------------------------------

struct Options {
  double threshold = 0.05;       // virtual metrics
  double wall_threshold = 0.30;  // bench.wall_ns
  bool check_wall = true;
  std::vector<std::string> extra_keys;
};

/// One tracked metric of one bench after comparison.
struct MetricRow {
  std::string key;
  double old_v = 0;
  double new_v = 0;
  double rel = 0;  // relative delta vs old (1.0 when old == 0 and new != 0)
  bool regressed = false;
};

/// Compare one metric; appends a row and returns true on regression.
bool compare_key(std::vector<MetricRow>* rows, const std::string& key, double a, double b,
                 double threshold, bool any_increase_fails) {
  double delta = b - a;
  MetricRow row{key, a, b, a != 0.0 ? delta / a : (b != 0.0 ? 1.0 : 0.0), false};
  row.regressed = any_increase_fails ? delta > 0.0 : row.rel > threshold;
  rows->push_back(row);
  return rows->back().regressed;
}

/// On failure the full per-metric table is printed — one regressed metric is
/// rarely diagnosable without the neighbours (e.g. instr_retired up because
/// probes went up), so never report a failing name in isolation.
void print_bench_table(const std::string& bench, const std::vector<MetricRow>& rows) {
  std::fprintf(stderr, "bench %s:\n  %-28s %18s %18s %9s\n", bench.c_str(), "metric",
               "old", "new", "delta");
  for (const MetricRow& r : rows)
    std::fprintf(stderr, "  %-28s %18.17g %18.17g %+8.1f%%%s\n", r.key.c_str(), r.old_v,
                 r.new_v, r.rel * 100.0, r.regressed ? "  << REGRESSION" : "");
}

int compare_sets(const BenchSet& a, const BenchSet& b, const Options& opt,
                 const std::string& baseline_sha) {
  int regressions = 0;
  int compared = 0;
  for (const auto& [name, am] : a) {
    auto it = b.find(name);
    if (it == b.end()) {
      std::fprintf(stderr, "warning: bench '%s' missing from the new set\n",
                   name.c_str());
      continue;
    }
    const auto& bm = it->second;
    ++compared;
    auto both = [&](const std::string& key, double* av, double* bv) {
      auto ai = am.find(key);
      auto bi = bm.find(key);
      if (ai == am.end() || bi == bm.end()) return false;
      *av = ai->second;
      *bv = bi->second;
      return true;
    };
    std::vector<MetricRow> rows;
    int bench_regressions = 0;
    double av = 0, bv = 0;
    // The invariant metric: any crash increase fails regardless of size.
    if (both("oracle.scan.crashes", &av, &bv))
      bench_regressions += compare_key(&rows, "oracle.scan.crashes", av, bv, 0.0, true);
    for (const char* key : kVirtualKeys)
      if (both(key, &av, &bv))
        bench_regressions += compare_key(&rows, key, av, bv, opt.threshold, false);
    for (const std::string& key : opt.extra_keys)
      if (both(key, &av, &bv))
        bench_regressions += compare_key(&rows, key, av, bv, opt.threshold, false);
    if (opt.check_wall && both("bench.wall_ns", &av, &bv))
      bench_regressions +=
          compare_key(&rows, "bench.wall_ns", av, bv, opt.wall_threshold, false);
    if (bench_regressions > 0) print_bench_table(name, rows);
    for (const MetricRow& r : rows)
      if (!r.regressed && r.rel < -opt.threshold && bench_regressions == 0)
        std::fprintf(stderr, "improved   %s %s: %.17g -> %.17g (%+.1f%%)\n",
                     name.c_str(), r.key.c_str(), r.old_v, r.new_v, r.rel * 100.0);
    regressions += bench_regressions;
  }
  std::fprintf(stderr,
               "benchdiff: %d bench(es) compared, %d regression(s) (baseline git_sha %s)\n",
               compared, regressions, baseline_sha.c_str());
  if (regressions > 0) {
    // CRP_BENCHDIFF_ENFORCE=0 downgrades a regression to a warning exit —
    // for runners whose hardware differs from the baseline's. Unset or =1
    // keeps the gate hard (the CI profiled-table1 step sets =1 explicitly).
    const char* enforce = std::getenv("CRP_BENCHDIFF_ENFORCE");
    if (enforce != nullptr && enforce[0] == '0') {
      std::fprintf(stderr, "benchdiff: CRP_BENCHDIFF_ENFORCE=0 — advisory, exiting 0\n");
      return 0;
    }
    return 1;
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: benchdiff [options] <baseline> <new>\n"
               "       benchdiff --write-baseline=OUT <set>\n"
               "  <baseline>/<new>/<set>: a directory of BENCH_*.json files or a\n"
               "  combined baseline file (bench/baseline.json schema).\n"
               "options:\n"
               "  --threshold=F       max relative increase for virtual metrics "
               "(default 0.05)\n"
               "  --wall-threshold=F  max relative increase for bench.wall_ns "
               "(default 0.30)\n"
               "  --no-wall           ignore bench.wall_ns (CI default)\n"
               "  --key=NAME          track an extra metric (repeatable)\n"
               "env:\n"
               "  CRP_BENCHDIFF_ENFORCE  0 = regressions warn but exit 0;\n"
               "                         unset/1 = regressions exit 1\n"
               "exit: 0 ok, 1 regression, 2 usage/IO error\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string write_out;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--threshold=", 0) == 0) {
      opt.threshold = std::atof(arg.c_str() + 12);
    } else if (arg.rfind("--wall-threshold=", 0) == 0) {
      opt.wall_threshold = std::atof(arg.c_str() + 17);
    } else if (arg == "--no-wall") {
      opt.check_wall = false;
    } else if (arg.rfind("--key=", 0) == 0) {
      opt.extra_keys.push_back(arg.substr(6));
    } else if (arg.rfind("--write-baseline=", 0) == 0) {
      write_out = arg.substr(17);
    } else if (arg == "-h" || arg == "--help") {
      usage();
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "benchdiff: unknown option %s\n", arg.c_str());
      return usage();
    } else {
      inputs.push_back(arg);
    }
  }

  if (!write_out.empty()) {
    if (inputs.size() != 1) return usage();
    BenchSet set;
    if (!load_set(inputs[0], &set)) return 2;
    if (!write_baseline(set, write_out)) return 2;
    std::fprintf(stderr, "benchdiff: wrote baseline %s (%zu benches)\n",
                 write_out.c_str(), set.size());
    return 0;
  }

  if (inputs.size() != 2) return usage();
  BenchSet a, b;
  std::string baseline_sha;
  if (!load_set(inputs[0], &a, &baseline_sha) || !load_set(inputs[1], &b)) return 2;
  return compare_sets(a, b, opt, baseline_sha);
}
