#include "serve/protocol.h"

#include <cstdlib>
#include <cstring>

namespace crp::serve {

bool LineBuffer::next(std::string* line) {
  size_t nl = buf_.find('\n');
  if (nl == std::string::npos) return false;
  line->assign(buf_, 0, nl);
  if (!line->empty() && line->back() == '\r') line->pop_back();
  buf_.erase(0, nl + 1);
  return true;
}

Request parse_request(std::string_view line) {
  Request req;
  size_t i = 0;
  auto skip_ws = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  auto token = [&]() -> std::string {
    size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    return std::string(line.substr(start, i - start));
  };
  skip_ws();
  if (i < line.size()) req.verb = token();
  for (;;) {
    skip_ws();
    if (i >= line.size()) break;
    req.args.push_back(token());
  }
  return req;
}

bool valid_tenant(std::string_view tenant) {
  if (tenant.empty() || tenant.size() > 64) return false;
  for (char c : tenant) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

bool parse_u64(std::string_view v, u64* out) {
  if (v.empty()) return false;
  char buf[32];
  if (v.size() >= sizeof buf) return false;
  std::memcpy(buf, v.data(), v.size());
  buf[v.size()] = '\0';
  char* end = nullptr;
  unsigned long long x = std::strtoull(buf, &end, 0);
  if (end != buf + v.size()) return false;
  *out = x;
  return true;
}

namespace {

bool parse_int(std::string_view v, int* out) {
  if (v.empty()) return false;
  char buf[32];
  if (v.size() >= sizeof buf) return false;
  std::memcpy(buf, v.data(), v.size());
  buf[v.size()] = '\0';
  char* end = nullptr;
  long x = std::strtol(buf, &end, 0);
  if (end != buf + v.size()) return false;
  *out = static_cast<int>(x);
  return true;
}

}  // namespace

bool apply_knob(std::string_view kv, pipeline::JobSpec* spec, std::string* err) {
  size_t eq = kv.find('=');
  if (eq == std::string_view::npos) {
    *err = strf("knob \"%.*s\" is not k=v", static_cast<int>(kv.size()), kv.data());
    return false;
  }
  std::string_view k = kv.substr(0, eq);
  std::string_view v = kv.substr(eq + 1);
  bool ok = true;
  if (k == "seed") {
    ok = parse_u64(v, &spec->seed);
  } else if (k == "priority") {
    ok = parse_int(v, &spec->priority);
  } else if (k == "cache") {
    u64 x = 0;
    ok = parse_u64(v, &x);
    spec->opts.cache = x != 0;
  } else if (k == "discover") {
    ok = parse_u64(v, &spec->opts.syscall.discover_budget);
  } else if (k == "verify") {
    ok = parse_u64(v, &spec->opts.syscall.verify_budget);
  } else if (k == "plan") {
    // Exploit-plan epilogue: synthesize + replay an ExploitPlan after the
    // funnel (the report gains plan/replay lines).
    u64 x = 0;
    ok = parse_u64(v, &x);
    spec->opts.plan = x != 0;
  } else if (k == "trace") {
    // Client-pinned obs::JobTracer trace id; 0 (the default) lets the
    // daemon assign one. Duplicate submissions may share a pinned trace.
    ok = parse_u64(v, &spec->trace);
  } else {
    *err = strf("unknown knob \"%.*s\"", static_cast<int>(k.size()), k.data());
    return false;
  }
  if (!ok) {
    *err = strf("bad value for \"%.*s\"", static_cast<int>(k.size()), k.data());
    return false;
  }
  return true;
}

std::string ok_line(std::string_view detail) {
  if (detail.empty()) return "OK\n";
  return strf("OK %.*s\n", static_cast<int>(detail.size()), detail.data());
}

std::string err_line(int code, std::string_view msg) {
  return strf("ERR %d %.*s\n", code, static_cast<int>(msg.size()), msg.data());
}

namespace {

// Traced replies carry a trailing " trace=<id>" echo; untraced ones keep
// the PR-8 byte format, so batch diffs and pinned-reply tests are
// untouched. Every existing client parse tolerates trailing tokens.
std::string trace_suffix(u64 trace) {
  if (trace == 0) return std::string();
  return strf(" trace=%llu", static_cast<unsigned long long>(trace));
}

}  // namespace

std::string event_line(const pipeline::JobEvent& ev) {
  return strf("EVENT %llu %s %zu/%zu %s%s%s\n",
              static_cast<unsigned long long>(ev.id),
              pipeline::job_state_name(ev.state), ev.step, ev.steps,
              ev.step_name.empty() ? "-" : ev.step_name.c_str(),
              ev.preempted ? " preempted" : "", trace_suffix(ev.trace).c_str());
}

std::string done_line(const pipeline::JobEvent& ev) {
  return strf("DONE %llu %s cached=%d%s\n",
              static_cast<unsigned long long>(ev.id),
              pipeline::job_state_name(ev.state), ev.cache_hit ? 1 : 0,
              trace_suffix(ev.trace).c_str());
}

std::string status_line(const pipeline::JobResult& r) {
  return strf("OK %s %zu/%zu %s%s\n", pipeline::job_state_name(r.state),
              r.steps_done, r.steps_total,
              r.error.empty() ? "-" : r.error.c_str(),
              trace_suffix(r.trace).c_str());
}

std::string report_frame(std::string_view report, u64 trace) {
  return strf("REPORT %zu%s\n", report.size(), trace_suffix(trace).c_str()) +
         std::string(report);
}

}  // namespace crp::serve
