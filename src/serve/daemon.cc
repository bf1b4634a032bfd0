#include "serve/daemon.h"

#include <chrono>
#include <cstdlib>
#include <vector>

#include "obs/obs.h"
#include "obs/serve.h"
#include "obs/trace.h"
#include "pipeline/campaign.h"
#include "util/log.h"

namespace crp::serve {

namespace {
// A request line (or a headerless garbage stream) larger than this is a
// protocol violation, not a slow writer.
constexpr size_t kMaxLine = 64 * 1024;

// Strict single-argument job-id parse (same rules as SUBMIT knob values:
// whole-token match, so "7abc" is a 400, not job 7). Ids start at 1.
bool job_id_arg(const Request& req, pipeline::JobId* id) {
  return req.args.size() == 1 && parse_u64(req.args[0], id) && *id != 0;
}
}  // namespace

Daemon::Daemon(DaemonOptions opts)
    : opts_(opts),
      registry_(pipeline::TargetRegistry::builtin()),
      queue_(pipeline::JobQueueOptions{opts.workers, opts.store}) {
  obs::Registry& reg = obs::Registry::global();
  c_requests_ = &reg.counter("crpd.requests");
  c_accepted_ = &reg.counter("crpd.admission.accepted");
  c_rej_quota_ = &reg.counter("crpd.admission.rejected_quota");
  c_rej_rate_ = &reg.counter("crpd.admission.rejected_rate");
  c_rej_tenants_ = &reg.counter("crpd.admission.rejected_tenants");
  c_conns_opened_ = &reg.counter("crpd.conns.opened");
  c_conns_closed_ = &reg.counter("crpd.conns.closed");
  // The JobQueue watchdog bumps these on its first flag; a scrape of a
  // clean daemon reads them at 0.
  reg.counter("crpd.watchdog.step_stalls");
  reg.counter("crpd.watchdog.lease_stalls");
  // Arm end-to-end tracing: every accepted SUBMIT gets a trace id and its
  // lifecycle spans. Batch tools never arm, so their output is untouched.
  obs::JobTracer::global().set_armed(true);
  queue_.set_event_sink([this](const pipeline::JobEvent& ev) { on_job_event(ev); });
}

Daemon::~Daemon() { stop(); }

bool Daemon::start() {
  if (running()) return true;
  SocketServer::Handlers h;
  h.on_open = [this](ConnId c) { on_open(c); };
  h.on_data = [this](ConnId c, std::string_view d) { on_data(c, d); };
  h.on_close = [this](ConnId c) { on_close(c); };
  if (!server_.start(opts_.port, std::move(h))) return false;
  // Serve the daemon's live state on the obs route table (the ObsServer
  // may or may not be running; registration is independent of it).
  obs::serve::register_route("/jobs.json", "application/json",
                             [this] { return jobs_json(); });
  obs::serve::register_route("/tenants.json", "application/json",
                             [this] { return tenants_json(); });
  {
    std::lock_guard<std::mutex> lk(tick_mu_);
    tick_stop_ = false;
  }
  tick_thread_ = std::thread([this] { tick_loop(); });
  return true;
}

void Daemon::stop() {
  if (tick_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(tick_mu_);
      tick_stop_ = true;
    }
    tick_cv_.notify_all();
    tick_thread_.join();
  }
  obs::serve::unregister_route("/jobs.json");
  obs::serve::unregister_route("/tenants.json");
  server_.stop();
}

void Daemon::tick_loop() {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& c_acc = reg.counter("serve.conn.accepted");
  obs::Counter& c_drop = reg.counter("serve.conn.dropped");
  obs::Gauge& g_hwm = reg.gauge("serve.conn.out_buffer_hwm");
  obs::Gauge& g_depth = reg.gauge("crpd.queue.depth");
  obs::Gauge& g_active = reg.gauge("crpd.jobs.active");
  // The transport keeps plain tallies (it sits below obs); mirror them as
  // counter deltas so exposition diffs stay meaningful.
  u64 pub_acc = 0, pub_drop = 0;
  std::unique_lock<std::mutex> lk(tick_mu_);
  for (;;) {
    tick_cv_.wait_for(lk, std::chrono::milliseconds(opts_.tick_ms),
                      [&] { return tick_stop_; });
    if (tick_stop_) return;
    lk.unlock();
    if (opts_.watchdog)
      queue_.watchdog_pass(opts_.watchdog_step_deadline_ns,
                           opts_.watchdog_lease_deadline_ns);
    SocketServer::Stats st = server_.stats();
    if (st.accepted > pub_acc) {
      c_acc.inc(st.accepted - pub_acc);
      pub_acc = st.accepted;
    }
    if (st.dropped_overflow > pub_drop) {
      c_drop.inc(st.dropped_overflow - pub_drop);
      pub_drop = st.dropped_overflow;
    }
    g_hwm.update_max(static_cast<i64>(st.out_buffer_hwm));
    g_depth.set(static_cast<i64>(queue_.pending()));
    g_active.set(static_cast<i64>(queue_.active_total()));
    lk.lock();
  }
}

void Daemon::on_open(ConnId conn) {
  lines_.emplace(conn, LineBuffer());
  c_conns_opened_->inc();
}

void Daemon::on_close(ConnId conn) {
  lines_.erase(conn);
  c_conns_closed_->inc();
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [id, conns] : watchers_) conns.erase(conn);
}

void Daemon::on_data(ConnId conn, std::string_view data) {
  auto it = lines_.find(conn);
  if (it == lines_.end()) return;  // already being torn down
  LineBuffer& lb = it->second;
  lb.append(data);
  std::string line;
  while (lb.next(&line)) {
    handle_line(conn, line);
    // handle_line may have closed the connection (QUIT); the buffer entry
    // survives until on_close, so continuing to drain is harmless.
  }
  if (lb.size() > kMaxLine) {
    server_.send(conn, err_line(400, "request line too long"));
    server_.close_conn(conn, /*after_flush=*/true);
  }
}

void Daemon::handle_line(ConnId conn, const std::string& line) {
  if (line.empty()) return;  // blank keep-alive lines are ignored
  c_requests_->inc();
  Request req = parse_request(line);
  if (req.verb == "PING") {
    server_.send(conn, "PONG\n");
  } else if (req.verb == "SUBMIT") {
    handle_submit(conn, req);
  } else if (req.verb == "STATUS") {
    pipeline::JobId id = 0;
    if (!job_id_arg(req, &id)) {
      server_.send(conn, err_line(400, "usage: STATUS <job-id>"));
      return;
    }
    pipeline::JobResult r = queue_.status(id);
    if (r.state == pipeline::JobState::kFailed && r.error == "unknown job") {
      server_.send(conn, err_line(404, "unknown job"));
      return;
    }
    server_.send(conn, status_line(r));
  } else if (req.verb == "WATCH") {
    handle_watch(conn, req);
  } else if (req.verb == "FETCH") {
    handle_fetch(conn, req);
  } else if (req.verb == "CANCEL") {
    pipeline::JobId id = 0;
    if (!job_id_arg(req, &id)) {
      server_.send(conn, err_line(400, "usage: CANCEL <job-id>"));
      return;
    }
    pipeline::JobResult r = queue_.status(id);
    if (r.state == pipeline::JobState::kFailed && r.error == "unknown job") {
      server_.send(conn, err_line(404, "unknown job"));
      return;
    }
    if (queue_.cancel(id)) {
      server_.send(conn, ok_line(strf("cancelling %llu",
                                      static_cast<unsigned long long>(id))));
    } else {
      server_.send(conn, err_line(409, "job already terminal"));
    }
  } else if (req.verb == "STATS") {
    pipeline::ArtifactStore& st =
        opts_.store != nullptr ? *opts_.store : pipeline::ArtifactStore::global();
    // depth= splits pending by priority ("p<prio>:<n>", dispatch order) and
    // retained= counts kept terminals — together they tell a busy daemon
    // (deep queue, terminals churning) from a wedged one (watchdog > 0,
    // depth frozen). Fields append after the PR-8 set: the prefix is a
    // pinned byte contract.
    std::string depth;
    for (const auto& [prio, n] : queue_.queued_depths())
      depth += strf("%sp%d:%zu", depth.empty() ? "" : ",", prio, n);
    if (depth.empty()) depth = "-";
    server_.send(
        conn,
        ok_line(strf("active=%zu pending=%zu cache_hits=%llu cache_misses=%llu "
                     "cache_stores=%llu cache_evictions=%llu depth=%s "
                     "retained=%zu watchdog=%llu",
                     queue_.active_total(), queue_.pending(),
                     static_cast<unsigned long long>(st.hits()),
                     static_cast<unsigned long long>(st.misses()),
                     static_cast<unsigned long long>(st.stores()),
                     static_cast<unsigned long long>(st.evictions()),
                     depth.c_str(), queue_.retained_terminal(),
                     static_cast<unsigned long long>(queue_.watchdog_flags()))));
  } else if (req.verb == "QUIT") {
    server_.close_conn(conn, /*after_flush=*/true);
  } else {
    server_.send(conn, err_line(400, strf("unknown verb \"%s\"", req.verb.c_str())));
  }
}

Daemon::TenantSlo* Daemon::slo_for_locked(const std::string& tenant) {
  auto it = slos_.find(tenant);
  if (it != slos_.end()) return &it->second;
  if (slos_.size() >= kMaxSloTenants) return nullptr;
  obs::Registry& reg = obs::Registry::global();
  std::string base = "crpd.tenant." + tenant + ".";
  TenantSlo s;
  s.queue_ms = &reg.histogram(base + "queue_ms");
  s.run_ms = &reg.histogram(base + "run_ms");
  s.total_ms = &reg.histogram(base + "total_ms");
  s.active = &reg.gauge(base + "active");
  s.admitted = &reg.counter(base + "admitted");
  s.done = &reg.counter(base + "done");
  s.failed = &reg.counter(base + "failed");
  s.preempted = &reg.counter(base + "preempted");
  s.coalesced = &reg.counter(base + "coalesced");
  return &slos_.emplace(tenant, s).first->second;
}

void Daemon::handle_submit(ConnId conn, const Request& req) {
  const u64 t_req = obs::trace_now_ns();
  if (req.args.size() < 2) {
    server_.send(conn, err_line(400, "usage: SUBMIT <tenant> <target-id> [k=v]..."));
    return;
  }
  const std::string& tenant = req.args[0];
  const std::string& target_id = req.args[1];
  if (!valid_tenant(tenant)) {
    server_.send(conn, err_line(400, "bad tenant name"));
    return;
  }
  const pipeline::TargetSpec* spec = registry_.find(target_id);
  if (spec == nullptr) {
    server_.send(conn, err_line(404, strf("unknown target \"%s\"", target_id.c_str())));
    return;
  }

  pipeline::JobSpec js;
  js.target = *spec;
  js.opts = opts_.defaults;
  js.tenant = tenant;
  for (size_t i = 2; i < req.args.size(); ++i) {
    std::string err;
    if (!apply_knob(req.args[i], &js, &err)) {
      server_.send(conn, err_line(400, err));
      return;
    }
  }

  // A rejected SUBMIT leaves a trace only when the client pinned an id
  // (trace= knob): there is no job to attach an assigned id to, but a
  // pinned trace should show *why* its submission went nowhere.
  obs::JobTracer& jt = obs::JobTracer::global();
  auto admission_span = [&](const char* verdict, u64 accepted) {
    if (js.trace != 0)
      jt.record(js.trace, 0, obs::SpanKind::kAdmission, jt.intern(verdict),
                accepted, t_req, obs::trace_now_ns());
  };

  // Admission: quota on concurrently-active jobs, then the submission-rate
  // window (the §VII detector watching the front door; rejected attempts
  // consume window slots, so a hammering tenant stays rejected).
  if (queue_.active(tenant) >= opts_.tenant_max_active) {
    c_rej_quota_->inc();
    admission_span("rejected_quota", 0);
    server_.send(conn, err_line(429, strf("tenant quota exceeded (%zu active)",
                                          opts_.tenant_max_active)));
    return;
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    u64 now = obs::trace_now_ns();
    // Tenant names are client-minted: expire windows with no submission
    // inside the trailing window, and cap the distinct names tracked at
    // once, so cycling fresh tenants cannot grow daemon state unboundedly.
    for (auto it = rates_.begin(); it != rates_.end();) {
      if (it->first != tenant && it->second.count(now) == 0)
        it = rates_.erase(it);
      else
        ++it;
    }
    auto it = rates_.find(tenant);
    if (it == rates_.end()) {
      if (rates_.size() >= opts_.max_tracked_tenants) {
        lk.unlock();
        c_rej_tenants_->inc();
        admission_span("rejected_tenants", 0);
        server_.send(conn, err_line(429, "too many active tenants"));
        return;
      }
      it = rates_.try_emplace(tenant, opts_.admission_window_ns).first;
    }
    if (it->second.add(now) > opts_.admission_window_max) {
      lk.unlock();
      c_rej_rate_->inc();
      admission_span("rejected_rate", 0);
      server_.send(conn, err_line(429, "submission rate exceeded"));
      return;
    }
  }

  // Accepted: every job carries a trace id from here on (assigned when the
  // client didn't pin one), so the end-to-end trace starts at admission.
  js.trace = jt.start_trace(js.trace);
  admission_span("accepted", 1);
  {
    std::lock_guard<std::mutex> lk(mu_);
    TenantSlo* s = slo_for_locked(tenant);
    if (s != nullptr) s->admitted->inc();
  }
  pipeline::JobId id = queue_.submit(std::move(js));
  c_accepted_->inc();
  server_.send(conn, ok_line(strf("%llu", static_cast<unsigned long long>(id))));
}

void Daemon::handle_watch(ConnId conn, const Request& req) {
  pipeline::JobId id = 0;
  if (!job_id_arg(req, &id)) {
    server_.send(conn, err_line(400, "usage: WATCH <job-id>"));
    return;
  }
  pipeline::JobResult r = queue_.status(id);
  if (r.state == pipeline::JobState::kFailed && r.error == "unknown job") {
    server_.send(conn, err_line(404, "unknown job"));
    return;
  }
  server_.send(conn, ok_line(strf("watching %llu", static_cast<unsigned long long>(id))));
  // Registration and the terminal check happen under one lock hold: the
  // event sink also locks mu_, so either we see the terminal state (and
  // answer directly, without registering) or the sink sees our
  // registration — a DONE line arrives exactly once.
  std::lock_guard<std::mutex> lk(mu_);
  pipeline::JobResult now;
  if (queue_.try_result(id, &now)) {
    pipeline::JobEvent ev;
    ev.id = now.id;
    ev.state = now.state;
    ev.step = now.steps_done;
    ev.steps = now.steps_total;
    ev.cache_hit = now.report.cache_hit;
    ev.trace = now.trace;
    server_.send(conn, done_line(ev));
    return;
  }
  watchers_[id].insert(conn);
}

void Daemon::handle_fetch(ConnId conn, const Request& req) {
  pipeline::JobId id = 0;
  if (!job_id_arg(req, &id)) {
    server_.send(conn, err_line(400, "usage: FETCH <job-id>"));
    return;
  }
  pipeline::JobResult r = queue_.status(id);
  if (r.state == pipeline::JobState::kFailed && r.error == "unknown job") {
    server_.send(conn, err_line(404, "unknown job"));
    return;
  }
  if (!pipeline::job_state_terminal(r.state)) {
    server_.send(conn, err_line(409, "job not finished"));
    return;
  }
  if (r.state == pipeline::JobState::kCancelled) {
    server_.send(conn, err_line(409, "job was cancelled"));
    return;
  }
  if (r.state == pipeline::JobState::kFailed) {
    server_.send(conn, err_line(500, r.error));
    return;
  }
  // cache_tag=false: a fetched report must be byte-identical whether the
  // job computed or replayed from the shared store (CI diffs it against
  // the batch examples/campaign block).
  u64 t0 = obs::trace_now_ns();
  std::string body = pipeline::render_report(r.report, /*cache_tag=*/false);
  if (r.trace != 0)
    obs::JobTracer::global().record(r.trace, r.id, obs::SpanKind::kRender, 0,
                                    body.size(), t0, obs::trace_now_ns());
  server_.send(conn, report_frame(body, r.trace));
}

void Daemon::on_job_event(const pipeline::JobEvent& ev) {
  std::vector<ConnId> conns;
  bool terminal = pipeline::job_state_terminal(ev.state);
  {
    std::lock_guard<std::mutex> lk(mu_);
    // SLO accounting first: it must run whether or not anyone WATCHes.
    TenantSlo* s = slo_for_locked(ev.tenant);
    if (s != nullptr) {
      if (ev.state == pipeline::JobState::kQueued && !ev.preempted)
        s->active->add(1);
      if (ev.preempted) s->preempted->inc();
      if (terminal) {
        s->active->add(-1);
        s->queue_ms->record(ev.queue_ns / 1'000'000);
        s->run_ms->record(ev.run_ns / 1'000'000);
        s->total_ms->record(ev.total_ns / 1'000'000);
        if (ev.state == pipeline::JobState::kDone) s->done->inc();
        if (ev.state == pipeline::JobState::kFailed) s->failed->inc();
        if (ev.cache_hit) s->coalesced->inc();
      }
    }
    auto it = watchers_.find(ev.id);
    if (it == watchers_.end()) return;
    conns.assign(it->second.begin(), it->second.end());
    if (terminal) watchers_.erase(it);
  }
  std::string line = terminal ? done_line(ev) : event_line(ev);
  for (ConnId c : conns) server_.send(c, line);
}

std::string Daemon::jobs_json() {
  std::string out = "{\n";
  out += strf("\"watchdog_flags\": %llu,\n\"jobs\": [",
              static_cast<unsigned long long>(queue_.watchdog_flags()));
  bool first = true;
  for (const pipeline::JobResult& r : queue_.list()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += strf(
        "{\"id\": %llu, \"state\": \"%s\", \"tenant\": \"%s\", "
        "\"target\": \"%s\", \"priority\": %d, \"trace\": %llu, "
        "\"steps_done\": %zu, \"steps_total\": %zu, \"step\": \"%s\", "
        "\"queue_ms\": %llu, \"run_ms\": %llu, \"total_ms\": %llu, "
        "\"parked\": %d, \"step_stalled\": %d, \"lease_stalled\": %d}",
        static_cast<unsigned long long>(r.id), pipeline::job_state_name(r.state),
        r.tenant.c_str(), r.target.c_str(), r.priority,
        static_cast<unsigned long long>(r.trace), r.steps_done, r.steps_total,
        r.step.c_str(), static_cast<unsigned long long>(r.queue_ns / 1'000'000),
        static_cast<unsigned long long>(r.run_ns / 1'000'000),
        static_cast<unsigned long long>(r.total_ns / 1'000'000), r.parked ? 1 : 0,
        r.step_stalled ? 1 : 0, r.lease_stalled ? 1 : 0);
  }
  out += "\n]\n}\n";
  return out;
}

std::string Daemon::tenants_json() {
  obs::Registry& reg = obs::Registry::global();
  pipeline::ArtifactStore& st =
      opts_.store != nullptr ? *opts_.store : pipeline::ArtifactStore::global();
  SocketServer::Stats cs = server_.stats();
  std::string out = "{\n";
  out += strf("\"watchdog\": {\"flags\": %llu, \"step_stalls\": %llu, "
              "\"lease_stalls\": %llu},\n",
              static_cast<unsigned long long>(queue_.watchdog_flags()),
              static_cast<unsigned long long>(
                  reg.counter("crpd.watchdog.step_stalls").value()),
              static_cast<unsigned long long>(
                  reg.counter("crpd.watchdog.lease_stalls").value()));
  out += strf("\"conn\": {\"accepted\": %llu, \"dropped\": %llu, "
              "\"out_buffer_hwm\": %llu},\n",
              static_cast<unsigned long long>(cs.accepted),
              static_cast<unsigned long long>(cs.dropped_overflow),
              static_cast<unsigned long long>(cs.out_buffer_hwm));
  out += "\"tenants\": [";
  auto hist_json = [](const obs::Histogram& h) {
    return strf("{\"count\": %llu, \"p50\": %llu, \"p90\": %llu, \"p99\": %llu}",
                static_cast<unsigned long long>(h.count()),
                static_cast<unsigned long long>(h.quantile(0.5)),
                static_cast<unsigned long long>(h.quantile(0.9)),
                static_cast<unsigned long long>(h.quantile(0.99)));
  };
  std::lock_guard<std::mutex> lk(mu_);
  bool first = true;
  for (const auto& [tenant, s] : slos_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += strf(
        "{\"name\": \"%s\", \"active\": %lld, \"admitted\": %llu, "
        "\"done\": %llu, \"failed\": %llu, \"preempted\": %llu, "
        "\"coalesced\": %llu, \"cache_hits\": %llu, \"cache_misses\": %llu, ",
        tenant.c_str(), static_cast<long long>(s.active->value()),
        static_cast<unsigned long long>(s.admitted->value()),
        static_cast<unsigned long long>(s.done->value()),
        static_cast<unsigned long long>(s.failed->value()),
        static_cast<unsigned long long>(s.preempted->value()),
        static_cast<unsigned long long>(s.coalesced->value()),
        static_cast<unsigned long long>(st.tenant_hits(tenant)),
        static_cast<unsigned long long>(st.tenant_misses(tenant)));
    out += "\"queue_ms\": " + hist_json(*s.queue_ms) + ", ";
    out += "\"run_ms\": " + hist_json(*s.run_ms) + ", ";
    out += "\"total_ms\": " + hist_json(*s.total_ms) + "}";
  }
  out += "\n]\n}\n";
  return out;
}

}  // namespace crp::serve
