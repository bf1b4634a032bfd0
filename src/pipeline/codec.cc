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

/// An enum stored as its integer value; false past `last`.
template <typename E>
bool get_enum(std::istream& in, E last, E* out) {
  u64 v = 0;
  if (!(in >> v) || v > static_cast<u64>(last)) return false;
  *out = static_cast<E>(v);
  return true;
}

/// The last real syscall: a scan names one in every field, while kCount is
/// the no-syscall value other classes' candidates carry (class_report).
constexpr os::Sys kLastSys = static_cast<os::Sys>(static_cast<u64>(os::Sys::kCount) - 1);

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
    os::Sys s = os::Sys::kCount;
    if (!get_enum(in, kLastSys, &s)) return false;
    res.observed.insert(s);
  }
  if (!(in >> tag >> n) || tag != "candidates") return false;
  for (size_t i = 0; i < n; ++i) {
    analysis::Candidate c;
    c.cls = analysis::PrimitiveClass::kSyscall;
    u64 home = 0;
    int has_home = 0, ctrl = 0;
    if (!(in >> tag) || tag != "cand" || !get_enum(in, kLastSys, &c.syscall) ||
        !(in >> c.pointer_arg >> c.taint_mask >> has_home >> home >> ctrl) ||
        !get_enum(in, analysis::Verdict::kFalsePositive, &c.verdict) ||
        !get_str(in, "target", &c.target) || !get_str(in, "note", &c.note))
      return false;
    if (has_home != 0) c.pointer_home = home;
    c.controllable_home = ctrl != 0;
    res.candidates.push_back(std::move(c));
  }
  *out = std::move(res);
  return true;
}

std::string encode_class_report(const TargetReport& rep) {
  std::ostringstream out;
  out << header("class_report");
  out << "usable " << rep.usable << "\n";
  put_str(out, "summary", rep.summary);
  out << "candidates " << rep.candidates.size() << "\n";
  for (const analysis::Candidate& c : rep.candidates) {
    out << "cand " << static_cast<u32>(c.cls) << " " << static_cast<u64>(c.syscall) << " "
        << c.pointer_arg << " " << c.taint_mask << " " << (c.pointer_home.has_value() ? 1 : 0)
        << " " << c.pointer_home.value_or(0) << " " << (c.controllable_home ? 1 : 0) << " "
        << c.api_id << " " << c.call_site << " " << (c.script_triggerable ? 1 : 0) << " "
        << static_cast<u32>(c.exclusion) << " " << c.scope_begin << " " << c.scope_end
        << " " << c.filter_off << " " << (c.catch_all ? 1 : 0) << " "
        << static_cast<u32>(c.verdict) << "\n";
    put_str(out, "target", c.target);
    put_str(out, "api_name", c.api_name);
    put_str(out, "module", c.module);
    put_str(out, "note", c.note);
  }
  const SehFunnel& seh = rep.seh;
  out << "seh " << seh.handlers << " " << seh.unique_filters << " "
      << seh.catch_all_handlers << " " << seh.av_filters << " " << seh.manual_filters << " "
      << seh.av_filter_handlers << " " << seh.filters_executed << " " << seh.sat_queries
      << " " << seh.memo_hits << "\n";
  out << "modules " << seh.modules.size() << "\n";
  for (const analysis::ModuleSehStats& m : seh.modules) {
    out << "dll " << static_cast<u32>(m.machine) << " " << m.guarded_total << " "
        << m.guarded_av_capable << " " << m.guarded_on_path << " " << m.trigger_events << " "
        << m.filters_total << " " << m.filters_av_capable << "\n";
    put_str(out, "name", m.module);
  }
  const BrowseOutcome& b = rep.browse;
  out << "browse " << b.unique_pcs << " " << b.pending_commands << " " << b.deref_guards
      << " " << b.gratuitous_guards << " " << b.narrow_guards << "\n";
  out << "veh " << b.veh.size() << "\n";
  for (const analysis::VehHandlerInfo& h : b.veh) {
    out << "handler " << h.handler << " " << h.offset << " " << static_cast<u32>(h.verdict)
        << " " << h.paths_explored << "\n";
    put_str(out, "module", h.module);
  }
  const analysis::ApiFunnel& f = rep.api.funnel;
  out << "api " << f.total << " " << f.with_pointer << " " << f.crash_resistant << " "
      << f.on_execution_path << " " << f.script_triggerable << " " << f.controllable << " "
      << rep.api.probes_executed << " " << rep.api.stubs << " " << rep.api.api_calls << "\n";
  out << "exclusions " << f.exclusion_histogram.size() << "\n";
  for (const auto& [reason, n] : f.exclusion_histogram) {
    out << "excl " << n << "\n";
    put_str(out, "reason", reason);
  }
  return out.str();
}

bool decode_class_report(const std::string& doc, TargetReport* out) {
  std::istringstream in(doc);
  if (!expect_header(in, "class_report")) return false;
  TargetReport r;
  std::string tag;
  if (!(in >> tag >> r.usable) || tag != "usable") return false;
  if (!get_str(in, "summary", &r.summary)) return false;
  size_t n = 0;
  if (!(in >> tag >> n) || tag != "candidates") return false;
  for (size_t i = 0; i < n; ++i) {
    analysis::Candidate c;
    u64 home = 0;
    int has_home = 0, ctrl = 0, js = 0, catch_all = 0;
    if (!(in >> tag) || tag != "cand" ||
        !get_enum(in, analysis::PrimitiveClass::kSwallowedException, &c.cls) ||
        !get_enum(in, os::Sys::kCount, &c.syscall) ||
        !(in >> c.pointer_arg >> c.taint_mask >> has_home >> home >> ctrl >> c.api_id >>
          c.call_site >> js) ||
        !get_enum(in, analysis::ExclusionReason::kVolatileHeap, &c.exclusion) ||
        !(in >> c.scope_begin >> c.scope_end >> c.filter_off >> catch_all) ||
        !get_enum(in, analysis::Verdict::kFalsePositive, &c.verdict) ||
        !get_str(in, "target", &c.target) || !get_str(in, "api_name", &c.api_name) ||
        !get_str(in, "module", &c.module) || !get_str(in, "note", &c.note))
      return false;
    if (has_home != 0) c.pointer_home = home;
    c.controllable_home = ctrl != 0;
    c.script_triggerable = js != 0;
    c.catch_all = catch_all != 0;
    r.candidates.push_back(std::move(c));
  }
  SehFunnel& seh = r.seh;
  if (!(in >> tag >> seh.handlers >> seh.unique_filters >> seh.catch_all_handlers >>
        seh.av_filters >> seh.manual_filters >> seh.av_filter_handlers >>
        seh.filters_executed >> seh.sat_queries >> seh.memo_hits) ||
      tag != "seh")
    return false;
  if (!(in >> tag >> n) || tag != "modules") return false;
  for (size_t i = 0; i < n; ++i) {
    analysis::ModuleSehStats m;
    if (!(in >> tag) || tag != "dll" || !get_enum(in, isa::Machine::kX32, &m.machine) ||
        !(in >> m.guarded_total >> m.guarded_av_capable >> m.guarded_on_path >>
          m.trigger_events >> m.filters_total >> m.filters_av_capable) ||
        !get_str(in, "name", &m.module))
      return false;
    seh.modules.push_back(std::move(m));
  }
  BrowseOutcome& b = r.browse;
  if (!(in >> tag >> b.unique_pcs >> b.pending_commands >> b.deref_guards >>
        b.gratuitous_guards >> b.narrow_guards) ||
      tag != "browse")
    return false;
  if (!(in >> tag >> n) || tag != "veh") return false;
  for (size_t i = 0; i < n; ++i) {
    analysis::VehHandlerInfo h;
    if (!(in >> tag >> h.handler >> h.offset) || tag != "handler" ||
        !get_enum(in, analysis::FilterVerdict::kNeedsManual, &h.verdict) ||
        !(in >> h.paths_explored) || !get_str(in, "module", &h.module))
      return false;
    b.veh.push_back(std::move(h));
  }
  analysis::ApiFunnel& f = r.api.funnel;
  if (!(in >> tag >> f.total >> f.with_pointer >> f.crash_resistant >> f.on_execution_path >>
        f.script_triggerable >> f.controllable >> r.api.probes_executed >> r.api.stubs >>
        r.api.api_calls) ||
      tag != "api")
    return false;
  if (!(in >> tag >> n) || tag != "exclusions") return false;
  for (size_t i = 0; i < n; ++i) {
    u32 count = 0;
    std::string reason;
    if (!(in >> tag >> count) || tag != "excl" || !get_str(in, "reason", &reason))
      return false;
    f.exclusion_histogram[reason] = count;
  }
  out->candidates = std::move(r.candidates);
  out->usable = r.usable;
  out->summary = std::move(r.summary);
  out->seh = std::move(r.seh);
  out->browse = std::move(r.browse);
  out->api = std::move(r.api);
  return true;
}

}  // namespace crp::pipeline
