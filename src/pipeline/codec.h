// Text codecs for the artifacts TargetCells publish.
//
// Artifacts are stored as small line-oriented text documents: diffable,
// greppable, and stable across builds (no struct-layout dependence). Each
// document starts with a versioned header line; decoders reject any
// mismatch, which the cell treats as a miss — bumping a kVersion below
// safely invalidates stale disk artifacts.
//
// Each document is one class result: a server's verified syscall scan
// (syscall_scan), and every other class's report (class_report: the class
// fields of a TargetReport). Strings are length-prefixed and %-escaped
// (util put_str), so empty strings and notes with spaces survive the
// token format. Decoders are total: any malformed document (bad escapes,
// counts past the end of the document, an enum value past the enum's
// last) returns false instead of throwing, and none sizes a buffer from a
// decoded count.
#pragma once

#include <string>

#include "analysis/syscall_scanner.h"
#include "pipeline/target_report.h"

namespace crp::pipeline {

inline constexpr int kCodecVersion = 2;

std::string encode_syscall_scan(const analysis::SyscallScanResult& res);
bool decode_syscall_scan(const std::string& doc, analysis::SyscallScanResult* out);

/// A non-server class result: candidates, usable, summary, seh, browse and
/// api. The decoder writes exactly those fields of *out (the id and class
/// the cell was built with, the plan epilogue, the cache flags and the
/// server scan are left as they are).
std::string encode_class_report(const TargetReport& rep);
bool decode_class_report(const std::string& doc, TargetReport* out);

}  // namespace crp::pipeline
