// Text codecs for the artifacts cached TargetCell steps publish.
//
// Artifacts are stored as small line-oriented text documents: diffable,
// greppable, and stable across builds (no struct-layout dependence). Each
// document starts with a versioned header line; decoders reject any
// mismatch, which the cached step treats as a miss — bumping a kVersion
// below safely invalidates stale disk artifacts.
//
// Only value-like step outputs are encoded: verified syscall scans (the
// server cell), filter-classification outcomes (classify), API fuzz
// results (api_fuzz). Strings are length-prefixed and %-escaped (util
// put_str), so empty strings and notes with spaces survive the token format.
// Decoders are total: any malformed document, bad escapes included, returns
// false instead of throwing.
#pragma once

#include <string>

#include "analysis/api_analysis.h"
#include "analysis/seh_analysis.h"
#include "analysis/syscall_scanner.h"

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

std::string encode_api_fuzz(const analysis::ApiFuzzResult& res);
bool decode_api_fuzz(const std::string& doc, analysis::ApiFuzzResult* out);

}  // namespace crp::pipeline
