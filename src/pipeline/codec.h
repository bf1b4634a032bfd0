// Text codecs for the artifacts cached TargetCell steps publish.
//
// Artifacts are stored as small line-oriented text documents: diffable,
// greppable, and stable across builds (no struct-layout dependence). Each
// document starts with a versioned header line; decoders reject any
// mismatch, which the cached step treats as a miss — bumping a kVersion
// below safely invalidates stale disk artifacts.
//
// Two kinds of artifact are encoded. Class results, one per cell: a
// server's verified syscall scan (syscall_scan), and every other class's
// report (class_report: the class fields of a TargetReport). One step
// output: a browser's filter-classification outcome (classify), which a
// job that changes only the browse options reuses. Strings are
// length-prefixed and %-escaped (util put_str), so empty strings and notes
// with spaces survive the token format. Decoders are total: any malformed
// document (bad escapes, counts past the end of the document) returns
// false instead of throwing, and none sizes a buffer from a decoded count.
// decode_class_report also rejects an enum value past the enum's last.
#pragma once

#include <string>

#include "analysis/seh_analysis.h"
#include "analysis/syscall_scanner.h"
#include "pipeline/target_report.h"

namespace crp::pipeline {

inline constexpr int kCodecVersion = 2;

/// The classify step's output: the per-filter verdicts plus the classifier
/// counters the drivers print (so a cache hit replays identical stdout).
struct ClassifyOutcome {
  std::vector<analysis::FilterInfo> filters;
  u64 filters_executed = 0;
  u64 sat_queries = 0;
  u64 memo_hits = 0;
};

std::string encode_syscall_scan(const analysis::SyscallScanResult& res);
bool decode_syscall_scan(const std::string& doc, analysis::SyscallScanResult* out);

std::string encode_classify(const ClassifyOutcome& out);
bool decode_classify(const std::string& doc, ClassifyOutcome* out);

/// A non-server class result: candidates, usable, summary, seh, browse and
/// api. The decoder writes exactly those fields of *out (the id and class
/// the cell was built with, the plan epilogue, the cache flags and the
/// server scan are left as they are).
std::string encode_class_report(const TargetReport& rep);
bool decode_class_report(const std::string& doc, TargetReport* out);

}  // namespace crp::pipeline
