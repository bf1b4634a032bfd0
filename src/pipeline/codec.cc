#include "pipeline/codec.h"

#include <sstream>

namespace crp::pipeline {

namespace {

bool expect_header(std::istringstream& in, const char* kind) {
  std::string magic, version, k;
  if (!(in >> magic >> version >> k)) return false;
  return magic == "crp-artifact" &&
         version == strf("v%d", kCodecVersion) && k == kind;
}

std::string header(const char* kind) {
  return strf("crp-artifact v%d %s\n", kCodecVersion, kind);
}

}  // namespace

std::string encode_syscall_scan(const analysis::SyscallScanResult& res) {
  std::ostringstream out;
  out << header("syscall_scan");
  out << "traced " << res.syscalls_traced << " instructions " << res.instructions
      << "\n";
  out << "observed " << res.observed.size();
  for (os::Sys s : res.observed) out << " " << static_cast<u64>(s);
  out << "\n";
  out << "candidates " << res.candidates.size() << "\n";
  for (const analysis::Candidate& c : res.candidates) {
    out << "cand " << static_cast<u64>(c.syscall) << " " << c.pointer_arg << " "
        << c.taint_mask << " " << (c.pointer_home.has_value() ? 1 : 0) << " "
        << c.pointer_home.value_or(0) << " " << (c.controllable_home ? 1 : 0)
        << " " << static_cast<u32>(c.verdict) << "\n";
    put_str(out, "target", c.target);
    put_str(out, "note", c.note);
  }
  return out.str();
}

bool decode_syscall_scan(const std::string& doc, analysis::SyscallScanResult* out) {
  std::istringstream in(doc);
  if (!expect_header(in, "syscall_scan")) return false;
  analysis::SyscallScanResult res;
  std::string tag;
  if (!(in >> tag >> res.syscalls_traced) || tag != "traced") return false;
  if (!(in >> tag >> res.instructions) || tag != "instructions") return false;
  size_t n = 0;
  if (!(in >> tag >> n) || tag != "observed") return false;
  for (size_t i = 0; i < n; ++i) {
    u64 s = 0;
    if (!(in >> s)) return false;
    res.observed.insert(static_cast<os::Sys>(s));
  }
  if (!(in >> tag >> n) || tag != "candidates") return false;
  for (size_t i = 0; i < n; ++i) {
    analysis::Candidate c;
    c.cls = analysis::PrimitiveClass::kSyscall;
    u64 sys = 0, home = 0;
    int has_home = 0, ctrl = 0;
    u32 verdict = 0;
    if (!(in >> tag >> sys >> c.pointer_arg >> c.taint_mask >> has_home >> home >>
          ctrl >> verdict) ||
        tag != "cand" || !get_str(in, "target", &c.target) ||
        !get_str(in, "note", &c.note))
      return false;
    c.syscall = static_cast<os::Sys>(sys);
    if (has_home != 0) c.pointer_home = home;
    c.controllable_home = ctrl != 0;
    c.verdict = static_cast<analysis::Verdict>(verdict);
    res.candidates.push_back(std::move(c));
  }
  *out = std::move(res);
  return true;
}

std::string encode_classify(const ClassifyOutcome& o) {
  std::ostringstream out;
  out << header("filter_classify");
  out << "executed " << o.filters_executed << " queries " << o.sat_queries
      << " memo_hits " << o.memo_hits << "\n";
  out << "filters " << o.filters.size() << "\n";
  for (const analysis::FilterInfo& f : o.filters) {
    out << "filter " << f.offset << " " << static_cast<u32>(f.machine) << " "
        << static_cast<u32>(f.verdict) << " " << f.paths_explored << " "
        << f.handlers_using << "\n";
    put_str(out, "module", f.module);
  }
  return out.str();
}

bool decode_classify(const std::string& doc, ClassifyOutcome* out) {
  std::istringstream in(doc);
  if (!expect_header(in, "filter_classify")) return false;
  ClassifyOutcome o;
  std::string tag;
  if (!(in >> tag >> o.filters_executed) || tag != "executed") return false;
  if (!(in >> tag >> o.sat_queries) || tag != "queries") return false;
  if (!(in >> tag >> o.memo_hits) || tag != "memo_hits") return false;
  size_t n = 0;
  if (!(in >> tag >> n) || tag != "filters") return false;
  for (size_t i = 0; i < n; ++i) {
    analysis::FilterInfo f;
    u32 machine = 0, verdict = 0;
    if (!(in >> tag >> f.offset >> machine >> verdict >> f.paths_explored >>
          f.handlers_using) ||
        tag != "filter" || !get_str(in, "module", &f.module))
      return false;
    f.machine = static_cast<isa::Machine>(machine);
    f.verdict = static_cast<analysis::FilterVerdict>(verdict);
    o.filters.push_back(std::move(f));
  }
  *out = std::move(o);
  return true;
}

std::string encode_api_fuzz(const analysis::ApiFuzzResult& res) {
  std::ostringstream out;
  out << header("api_fuzz");
  out << "total " << res.total_apis << " with_ptr " << res.with_pointer_args
      << " probes " << res.probes_executed << "\n";
  out << "resistant " << res.crash_resistant.size();
  for (u32 id : res.crash_resistant) out << " " << id;
  out << "\n";
  return out.str();
}

bool decode_api_fuzz(const std::string& doc, analysis::ApiFuzzResult* out) {
  std::istringstream in(doc);
  if (!expect_header(in, "api_fuzz")) return false;
  analysis::ApiFuzzResult res;
  std::string tag;
  if (!(in >> tag >> res.total_apis) || tag != "total") return false;
  if (!(in >> tag >> res.with_pointer_args) || tag != "with_ptr") return false;
  if (!(in >> tag >> res.probes_executed) || tag != "probes") return false;
  size_t n = 0;
  if (!(in >> tag >> n) || tag != "resistant") return false;
  for (size_t i = 0; i < n; ++i) {
    u32 id = 0;
    if (!(in >> id)) return false;
    res.crash_resistant.insert(id);
  }
  *out = std::move(res);
  return true;
}

}  // namespace crp::pipeline
