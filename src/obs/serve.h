// crp::obs::serve — minimal HTTP/1.0 live-telemetry endpoint.
//
// ROADMAP item 2 (the crpd campaign service) needs a monitoring channel; a
// long campaign today is a black box until its BENCH_*.json lands. This
// module binds 127.0.0.1:<port> (CRP_OBS_SERVE=port, 0 = ephemeral) and
// serves point-in-time snapshots of the three observability substrates over
// the existing expo writers:
//
//   GET /             route index (text/plain)
//   GET /metrics      Registry snapshot, Prometheus text exposition
//   GET /flat.json    Registry::json() — the BENCH-file metrics shape,
//                     parseable by expo::parse_bench_json (what crptop polls)
//   GET /ledger.json  flight-recorder tallies (per stage and per primitive)
//   GET /prof.json    profiler hot-block report (Profiler::report_json)
//   GET /prof.folded  collapsed-stack flamegraph text
//   GET /traces.json  per-job trace spans (JobTracer::traces_json)
//   GET /trace.json   merged Chrome trace_event lanes (one per job)
//
// Frontends above this layer add endpoints with register_route() — the
// crpd daemon serves /jobs.json and /tenants.json that way.
//
// Runs on the shared crp::serve::SocketServer core: many concurrent
// clients, partial reads and writes handled by the transport (a slow
// crptop poller never stalls another client), HTTP/1.0
// close-after-response, no keep-alive, no TLS, loopback only. The server
// reads shared state through the same thread-safe snapshot paths the exit
// flush uses, so it never perturbs a deterministic campaign.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "serve/socket_server.h"
#include "util/common.h"

namespace crp::obs::serve {

/// One routed response (the pure core of the server, exposed so tests and
/// crptop's offline mode can render endpoints without a socket).
struct Response {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Route `path` ("/metrics", ...) to its current snapshot. Registered
/// dynamic routes are consulted first, then the built-ins. Unknown paths
/// return 404.
Response respond(const std::string& path);

/// Register a dynamic route: `provider` is called per request (it must be
/// thread-safe; it runs on the server thread). Frontends above the obs
/// layer (the crpd daemon's /jobs.json and /tenants.json) hook into the
/// route table this way — obs cannot link against them. Re-registering a
/// path replaces the provider; unregister before the captured state dies.
void register_route(const std::string& path, const std::string& content_type,
                    std::function<std::string()> provider);
void unregister_route(const std::string& path);

class ObsServer {
 public:
  ObsServer() = default;
  ~ObsServer();
  ObsServer(const ObsServer&) = delete;
  ObsServer& operator=(const ObsServer&) = delete;

  /// Bind 127.0.0.1:`port` (0 picks an ephemeral port) and start serving.
  /// Returns false (with a warning) when the bind fails. Idempotent: a
  /// running server stays on its port.
  bool start(u16 port);
  void stop();

  bool running() const { return server_.running(); }
  /// Bound port (valid while running; the ephemeral-port case reads it back
  /// from the socket).
  u16 port() const { return server_.port(); }

  /// The process-wide server (what CRP_OBS_SERVE starts).
  static ObsServer& global();

 private:
  void on_data(crp::serve::ConnId conn, std::string_view data);

  crp::serve::SocketServer server_;
  // Per-connection request accumulation (reads may arrive in fragments).
  // Touched only from transport callbacks, which are serialized.
  std::map<crp::serve::ConnId, std::string> reqs_;
};

/// Start the global server when CRP_OBS_SERVE=port is set (idempotent; logs
/// the endpoint on success). Returns true when a server is running after
/// the call. BenchSession and examples/campaign call this at startup.
bool maybe_start_from_env();

}  // namespace crp::obs::serve
