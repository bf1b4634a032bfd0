// crp::serve::Daemon — crpd, the multi-tenant discovery service.
//
// ROADMAP item 2: campaign-as-a-service. The daemon binds a loopback port
// on the shared SocketServer core and exposes the preemptible JobQueue
// over the line protocol of protocol.h: clients SUBMIT (tenant, target,
// knobs), WATCH streamed progress events, and FETCH the finished report.
// Reports are rendered by pipeline::render_report — the exact bytes the
// batch examples/campaign driver prints — so a daemon-served discovery is
// byte-diffable against a batch run (CI does exactly that).
//
// Multi-tenancy is enforced at admission, before a job touches a worker:
//   1. unknown target id               -> ERR 404
//   2. per-tenant active-job quota     -> ERR 429 (crpd.admission.rejected_quota)
//   3. distinct-tenant tracking cap    -> ERR 429 (crpd.admission.rejected_tenants)
//   4. per-tenant submission-rate cap  -> ERR 429 (crpd.admission.rejected_rate)
// The rate cap reuses defense::RateWindow — the paper's §VII anomaly
// detector pointed at the service's own front door (a tenant hammering
// SUBMIT looks exactly like a probing attack: orders of magnitude above
// any legitimate rate).
//
// Duplicate submissions across tenants are served from the shared
// ArtifactStore: each job's class result is one artifact under a
// single-writer lease, so N concurrent identical jobs cost one
// computation, and per-tenant hit/miss attribution
// (`pipeline.cache.tenant.<t>.*`, from the tenant in the job context the
// JobQueue installs) shows who benefits.
//
// Determinism: a job's chaos salts derive from its submitted seed knob,
// never from worker identity or arrival order, so a crpd-served report for
// (target, knobs) is byte-identical to the batch run at any worker count.
#pragma once

#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "defense/rate_detector.h"
#include "pipeline/job_queue.h"
#include "pipeline/registry.h"
#include "serve/protocol.h"
#include "serve/socket_server.h"

namespace crp::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace crp::obs

namespace crp::serve {

struct DaemonOptions {
  u16 port = 0;  // 0 = ephemeral (read back with port())
  /// JobQueue workers. 0 = admission-only mode: jobs are accepted and
  /// queued but never run (deterministic quota/rate tests).
  int workers = 2;
  /// Admission: max queued+running jobs per tenant.
  size_t tenant_max_active = 8;
  /// Admission: max SUBMITs per tenant inside the trailing window
  /// (rejected submissions consume window slots too).
  u64 admission_window_ns = 1'000'000'000;
  u64 admission_window_max = 64;
  /// Admission: max distinct tenant names with a live rate window (idle
  /// windows expire). A client cycling fresh names past the cap gets 429
  /// (`crpd.admission.rejected_tenants`) instead of growing daemon state.
  size_t max_tracked_tenants = 1024;
  /// Campaign knob defaults for submitted jobs (SUBMIT k=v overrides).
  pipeline::CampaignOptions defaults;
  /// Shared artifact tier (nullptr -> ArtifactStore::global()).
  pipeline::ArtifactStore* store = nullptr;
  /// Stall watchdog: flag a job whose in-progress step (resp. held
  /// ArtifactStore lease) is older than the deadline. Flags bump
  /// crpd.watchdog.{step,lease}_stalls, drop a journal instant, and show
  /// up in STATS (watchdog=<n>), /jobs.json and /tenants.json. Defaults
  /// are far above any healthy step so a clean run flags nothing.
  bool watchdog = true;
  u64 watchdog_step_deadline_ns = 60'000'000'000;
  u64 watchdog_lease_deadline_ns = 30'000'000'000;
  /// Background tick period (watchdog scan + gauge refresh).
  u64 tick_ms = 250;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions opts = {});
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind and serve. False when the bind fails.
  bool start();
  void stop();
  bool running() const { return server_.running(); }
  u16 port() const { return server_.port(); }

  const pipeline::TargetRegistry& registry() const { return registry_; }
  pipeline::JobQueue& queue() { return queue_; }

  /// /jobs.json: every known job (active + retained terminal) with its
  /// latency split and live watchdog state.
  std::string jobs_json();
  /// /tenants.json: per-tenant SLO rows (latency histograms, active gauge,
  /// admission/preemption/coalesce counters) + watchdog and conn stats.
  std::string tenants_json();

 private:
  /// Per-tenant SLO instruments, registered in the global Registry under
  /// crpd.tenant.<t>.* so they ride the exposition schema. Bounded: past
  /// kMaxSloTenants distinct names, further tenants are served but not
  /// individually instrumented (mirrors the ArtifactStore attribution cap).
  struct TenantSlo {
    obs::Histogram* queue_ms = nullptr;
    obs::Histogram* run_ms = nullptr;
    obs::Histogram* total_ms = nullptr;
    obs::Gauge* active = nullptr;
    obs::Counter* admitted = nullptr;
    obs::Counter* done = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* preempted = nullptr;
    obs::Counter* coalesced = nullptr;
  };
  static constexpr size_t kMaxSloTenants = 64;

  void on_open(ConnId conn);
  void on_data(ConnId conn, std::string_view data);
  void on_close(ConnId conn);
  void handle_line(ConnId conn, const std::string& line);
  void handle_submit(ConnId conn, const Request& req);
  void handle_watch(ConnId conn, const Request& req);
  void handle_fetch(ConnId conn, const Request& req);
  void on_job_event(const pipeline::JobEvent& ev);
  TenantSlo* slo_for_locked(const std::string& tenant);
  /// Background tick: watchdog scan, serve.conn.* mirror, queue gauges.
  void tick_loop();

  DaemonOptions opts_;
  pipeline::TargetRegistry registry_;
  SocketServer server_;

  // Per-connection line assembly. Only touched from transport callbacks,
  // which are serialized — no lock.
  std::map<ConnId, LineBuffer> lines_;

  // Shared between the transport thread (WATCH/close) and the queue's
  // worker threads (event fan-out).
  std::mutex mu_;
  std::map<pipeline::JobId, std::set<ConnId>> watchers_;
  std::map<std::string, defense::RateWindow> rates_;  // per-tenant SUBMITs
  std::map<std::string, TenantSlo> slos_;             // bounded, see above

  // Background tick thread (watchdog + gauge refresh).
  std::thread tick_thread_;
  std::mutex tick_mu_;
  std::condition_variable tick_cv_;
  bool tick_stop_ = false;

  obs::Counter* c_requests_;
  obs::Counter* c_accepted_;
  obs::Counter* c_rej_quota_;
  obs::Counter* c_rej_rate_;
  obs::Counter* c_rej_tenants_;
  obs::Counter* c_conns_opened_;
  obs::Counter* c_conns_closed_;

  // Last: destroyed first, so its workers are joined before the state their
  // event callbacks touch (mu_, watchers_, slos_, server_) goes away.
  pipeline::JobQueue queue_;
};

}  // namespace crp::serve
