#include "obs/serve.h"

#include <cstdlib>
#include <cstring>

#include "obs/expo.h"
#include "obs/ledger.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "util/log.h"

namespace crp::obs::serve {

namespace {

std::string ledger_json() {
  Ledger& led = Ledger::global();
  std::vector<std::string> names = led.names();
  std::string out = "{\n";
  out += strf("\"events\": %llu,\n\"dropped\": %llu,\n",
              static_cast<unsigned long long>(led.total_events()),
              static_cast<unsigned long long>(led.dropped()));
  out += "\"stages\": {";
  bool first = true;
  for (u32 s = 0; s < kNumLedgerStages; ++s) {
    if (!first) out += ",";
    first = false;
    out += strf("\n  \"%s\": {", ledger_stage_name(static_cast<LedgerStage>(s)));
    for (u32 o = 0; o < kNumProbeOutcomes; ++o) {
      if (o != 0) out += ", ";
      out += strf("\"%s\": %llu", probe_outcome_name(static_cast<ProbeOutcome>(o)),
                  static_cast<unsigned long long>(
                      led.stage_total(static_cast<LedgerStage>(s),
                                      static_cast<ProbeOutcome>(o))));
    }
    out += "}";
  }
  out += "\n},\n\"primitives\": [";
  first = true;
  for (u32 id = 1; id < names.size(); ++id) {
    u64 any = 0;
    for (u32 o = 0; o < kNumProbeOutcomes; ++o)
      any += led.total(id, static_cast<ProbeOutcome>(o));
    if (any == 0) continue;
    if (!first) out += ",";
    first = false;
    out += strf("\n  {\"name\": \"%s\"", json_escape(names[id]).c_str());
    for (u32 o = 0; o < kNumProbeOutcomes; ++o)
      out += strf(", \"%s\": %llu",
                  probe_outcome_name(static_cast<ProbeOutcome>(o)),
                  static_cast<unsigned long long>(
                      led.total(id, static_cast<ProbeOutcome>(o))));
    out += "}";
  }
  out += "\n]\n}\n";
  return out;
}

constexpr const char* kIndex =
    "crp live telemetry endpoints:\n"
    "  /metrics       Prometheus text exposition\n"
    "  /flat.json     BENCH-shaped metrics JSON (crptop polls this)\n"
    "  /ledger.json   flight-recorder tallies\n"
    "  /prof.json     profiler hot-block report\n"
    "  /prof.folded   collapsed-stack flamegraph text\n"
    "  /traces.json   per-job trace spans (JobTracer)\n"
    "  /trace.json    merged Chrome trace_event lanes (one per job)\n";

// Dynamic route table (register_route). Providers run on the server
// thread; the map is tiny (a handful of daemon endpoints), so a copy of
// the provider under the lock per request is fine.
struct DynRoute {
  std::string content_type;
  std::function<std::string()> provider;
};
std::mutex g_routes_mu;
std::map<std::string, DynRoute>& dyn_routes() {
  static std::map<std::string, DynRoute>* g = new std::map<std::string, DynRoute>();
  return *g;
}

}  // namespace

void register_route(const std::string& path, const std::string& content_type,
                    std::function<std::string()> provider) {
  std::lock_guard<std::mutex> lk(g_routes_mu);
  dyn_routes()[path] = DynRoute{content_type, std::move(provider)};
}

void unregister_route(const std::string& path) {
  std::lock_guard<std::mutex> lk(g_routes_mu);
  dyn_routes().erase(path);
}

Response respond(const std::string& path) {
  Response r;
  {
    // Dynamic routes first; call the provider with the table unlocked so a
    // provider fetching slow state never blocks registration.
    DynRoute dr;
    bool found = false;
    {
      std::lock_guard<std::mutex> lk(g_routes_mu);
      auto it = dyn_routes().find(path);
      if (it != dyn_routes().end()) {
        dr = it->second;
        found = true;
      }
    }
    if (found) {
      r.content_type = dr.content_type;
      r.body = dr.provider();
      return r;
    }
  }
  if (path == "/" || path == "/index") {
    r.body = kIndex;
    std::lock_guard<std::mutex> lk(g_routes_mu);
    for (const auto& [p, dr] : dyn_routes()) r.body += "  " + p + "\n";
  } else if (path == "/metrics") {
    r.body = expo::prometheus_text(Registry::global().snapshot());
  } else if (path == "/flat.json") {
    r.content_type = "application/json";
    r.body = Registry::global().json();
  } else if (path == "/ledger.json") {
    r.content_type = "application/json";
    r.body = ledger_json();
  } else if (path == "/prof.json") {
    r.content_type = "application/json";
    r.body = Profiler::global().report_json("live", 10);
  } else if (path == "/prof.folded") {
    r.body = Profiler::global().collapsed();
  } else if (path == "/traces.json") {
    r.content_type = "application/json";
    r.body = JobTracer::global().traces_json();
  } else if (path == "/trace.json") {
    r.content_type = "application/json";
    r.body = JobTracer::global().chrome_trace_json();
  } else {
    r.status = 404;
    r.body = "404 not found\n";
  }
  return r;
}

ObsServer::~ObsServer() { stop(); }

ObsServer& ObsServer::global() {
  static ObsServer* g = new ObsServer();
  return *g;
}

bool ObsServer::start(u16 port) {
  if (running()) return true;
  crp::serve::SocketServer::Handlers h;
  h.on_data = [this](crp::serve::ConnId conn, std::string_view data) {
    on_data(conn, data);
  };
  h.on_close = [this](crp::serve::ConnId conn) { reqs_.erase(conn); };
  return server_.start(port, std::move(h));
}

void ObsServer::stop() { server_.stop(); }

void ObsServer::on_data(crp::serve::ConnId conn, std::string_view data) {
  // Accumulate until the request head is complete (first line suffices for
  // HTTP/1.0 GET); fragments from slow writers just come back here.
  std::string& req = reqs_[conn];
  req.append(data.data(), data.size());
  if (req.find("\r\n\r\n") == std::string::npos && req.size() <= 16384) return;

  std::string path = "/";
  if (req.rfind("GET ", 0) == 0) {
    size_t end = req.find(' ', 4);
    if (end != std::string::npos) path = req.substr(4, end - 4);
    if (size_t q = path.find('?'); q != std::string::npos) path.resize(q);
  }
  reqs_.erase(conn);

  Response r = respond(path);
  std::string head = strf(
      "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      r.status, r.status == 200 ? "OK" : "Not Found", r.content_type.c_str(),
      r.body.size());
  // The transport owns delivery (partial writes, EINTR/EAGAIN, slow
  // readers) and closes once the response has drained.
  server_.send(conn, head + r.body);
  server_.close_conn(conn, /*after_flush=*/true);
}

bool maybe_start_from_env() {
  ObsServer& srv = ObsServer::global();
  if (srv.running()) return true;
  const char* p = std::getenv("CRP_OBS_SERVE");
  if (p == nullptr || *p == '\0') return false;
  char* end = nullptr;
  unsigned long v = std::strtoul(p, &end, 10);
  if (end == p || *end != '\0' || v > 65535) {
    CRP_WARN("obs", "ignoring CRP_OBS_SERVE=\"%s\": not a port", p);
    return false;
  }
  if (!srv.start(static_cast<u16>(v))) return false;
  std::fprintf(stderr, "[obs] live telemetry: http://127.0.0.1:%u/\n",
               srv.port());
  return true;
}

}  // namespace crp::obs::serve
