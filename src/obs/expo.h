// crp::obs::expo — metrics exposition and bench-snapshot parsing.
//
// Turns a Registry Snapshot into Prometheus text exposition format (one
// # TYPE line per metric, histograms as cumulative _bucket{le=...}/_sum/
// _count series with the log-bucket boundaries of obs::Histogram) —
// scrape-ready, and written at process exit when CRP_METRICS=path is set.
//
// The reverse direction lives here too: parse_bench_json() reads the
// BENCH_<name>.json files BenchSession writes, and its pieces read the
// combined baseline file; tools/benchdiff builds its regression gate on
// both. They are purpose-built readers for those formats (string keys,
// numbers, objects of them), not a general JSON parser.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "obs/obs.h"

namespace crp::obs::expo {

/// Prometheus text exposition of a snapshot. Metric names are prefixed with
/// `prefix` and sanitized ("oracle.scan.probes" -> crp_oracle_scan_probes).
/// Histogram buckets are emitted cumulatively for every nonzero bucket's
/// upper boundary plus +Inf (a valid, if sparse, le series).
std::string prometheus_text(const Snapshot& snap, const std::string& prefix = "crp");

/// One parsed BENCH_<name>.json document. `flat` maps metric names to
/// values; histogram fields are keyed "name/field" ("sat.solve_ns/count",
/// ".../sum", ".../p95", ...).
struct BenchDoc {
  std::string bench;
  int schema = 0;
  std::map<std::string, double> flat;

  bool has(const std::string& key) const { return flat.count(key) != 0; }
  double get(const std::string& key, double fallback = 0.0) const;
};

/// Parse a BenchSession metrics file (or the "metrics" object of one).
/// Returns false on structural mismatch.
bool parse_bench_json(const std::string& text, BenchDoc* out);

/// Read the quoted string at *p, leading whitespace skipped, decoding the
/// escapes json_escape writes; false on any other or a cut escape. *p ends
/// past the closing quote.
bool parse_string(const std::string& s, size_t* p, std::string* out);

/// Read the object at *p, leading whitespace skipped: {"key": value, ...}.
/// `value(key)` reads each value starting at *p; *p ends past the '}'.
bool parse_object(const std::string& s, size_t* p,
                  const std::function<bool(const std::string&)>& value);

/// Read a metrics object at *p: {"name": number, "hist": {"field": number,
/// ...}, ...} into `out`, histogram fields as "hist/field".
bool parse_metrics(const std::string& s, size_t* p, std::map<std::string, double>* out);

}  // namespace crp::obs::expo
