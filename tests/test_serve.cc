// crp::obs::serve — routing of the live-telemetry endpoint and one real
// socket round-trip against an ephemeral port — and crp::serve — the crpd
// daemon: protocol parsing, admission control, concurrent clients, slow
// readers, and mid-request disconnects.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/expo.h"
#include "obs/journal.h"
#include "obs/ledger.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "obs/serve.h"
#include "obs/trace.h"
#include "pipeline/campaign.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"

namespace crp::obs::serve {
namespace {

TEST(Respond, IndexListsEveryRoute) {
  Response r = respond("/");
  EXPECT_EQ(r.status, 200);
  for (const char* route : {"/metrics", "/flat.json", "/ledger.json", "/prof.json",
                            "/prof.folded", "/traces.json", "/trace.json"})
    EXPECT_NE(r.body.find(route), std::string::npos) << route;
}

TEST(Respond, MetricsCarriesRegistryCounters) {
  Registry::global().counter("vm.instr_retired");  // ensure it exists
  Response r = respond("/metrics");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("crp_vm_instr_retired"), std::string::npos);
}

TEST(Respond, FlatJsonIsBenchParseable) {
  Registry::global().counter("vm.instr_retired");
  Response r = respond("/flat.json");
  ASSERT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type, "application/json");
  // crptop wraps /flat.json in the BENCH envelope and reuses the bench
  // parser; this is the contract that keeps the two in sync.
  expo::BenchDoc doc;
  std::string wrapped =
      "{\n\"bench\": \"live\",\n\"schema\": 1,\n\"metrics\": " + r.body + "\n}\n";
  ASSERT_TRUE(expo::parse_bench_json(wrapped, &doc));
  EXPECT_TRUE(doc.has("vm.instr_retired"));
}

TEST(Respond, LedgerAndProfRoutesAreWellFormed) {
  Response ledger = respond("/ledger.json");
  EXPECT_EQ(ledger.status, 200);
  EXPECT_NE(ledger.body.find("\"stages\""), std::string::npos);
  EXPECT_NE(ledger.body.find("\"events\""), std::string::npos);

  Response prof = respond("/prof.json");
  EXPECT_EQ(prof.status, 200);
  EXPECT_NE(prof.body.find("\"hot_blocks\""), std::string::npos);

  EXPECT_EQ(respond("/prof.folded").status, 200);
}

TEST(Respond, JsonExportsEscapeInternedNames) {
  // One name with a quote, a backslash and a C0 byte, interned into every
  // recorder: each JSON export must write \", \\ and \u0001.
  const std::string name = "q\"b\\c\x01";
  const std::string escaped = "q\\\"b\\\\c\\u0001";
  auto expect_escaped = [&](const std::string& body, const char* what) {
    EXPECT_NE(body.find(escaped), std::string::npos) << what << ":\n" << body;
  };

  Ledger& led = Ledger::global();
  led.record(LedgerStage::kDefense, ProbeOutcome::kSurvive, led.intern(name), 0, 0, 0);
  expect_escaped(respond("/ledger.json").body, "/ledger.json");
  expect_escaped(led.encode_jsonl(led.snapshot()), "ledger JSONL");

  Profiler& prof = Profiler::global();
  prof.record({prof.intern(name), 0, 0, 0, 0});
  expect_escaped(respond("/prof.json").body, "/prof.json");
  prof.clear();

  JobTracer& jt = JobTracer::global();
  jt.set_armed(true);
  jt.record(1, 1, SpanKind::kStep, jt.intern(name), 0, 0, 1000);
  expect_escaped(respond("/traces.json").body, "/traces.json");
  expect_escaped(respond("/trace.json").body, "/trace.json");
  jt.set_armed(false);
  jt.clear();

  Journal journal;
  journal.instant(name, "test", 0);
  expect_escaped(journal.chrome_trace_json(), "journal trace");
}

TEST(Respond, UnknownPathIs404) {
  EXPECT_EQ(respond("/nope").status, 404);
  EXPECT_EQ(respond("").status, 404);
}

/// Minimal HTTP/1.0 GET used to exercise the real socket path.
std::string http_get(u16 port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), 0);
  std::string resp;
  char buf[4096];
  for (;;) {
    ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) break;
    resp.append(buf, static_cast<size_t>(got));
  }
  ::close(fd);
  return resp;
}

TEST(ObsServer, ServesOverARealSocket) {
  Registry::global().counter("vm.instr_retired");  // give /flat.json content
  ObsServer server;
  ASSERT_TRUE(server.start(0));  // ephemeral port
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  std::string resp = http_get(server.port(), "/flat.json");
  EXPECT_EQ(resp.rfind("HTTP/1.0 200 OK", 0), 0u) << resp.substr(0, 64);
  EXPECT_NE(resp.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(resp.find("vm.instr_retired"), std::string::npos);

  EXPECT_EQ(http_get(server.port(), "/missing").rfind("HTTP/1.0 404", 0), 0u);

  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(ObsServer, StartIsIdempotentWhileRunning) {
  ObsServer server;
  ASSERT_TRUE(server.start(0));
  u16 port = server.port();
  EXPECT_TRUE(server.start(0));  // no-op: keeps the bound port
  EXPECT_EQ(server.port(), port);
  server.stop();
}

TEST(MaybeStartFromEnv, UnsetAndGarbageAreRejected) {
  ::unsetenv("CRP_OBS_SERVE");
  EXPECT_FALSE(maybe_start_from_env());
  ::setenv("CRP_OBS_SERVE", "not-a-port", 1);
  EXPECT_FALSE(maybe_start_from_env());
  ::setenv("CRP_OBS_SERVE", "99999999", 1);
  EXPECT_FALSE(maybe_start_from_env());
  ::unsetenv("CRP_OBS_SERVE");
}

}  // namespace
}  // namespace crp::obs::serve

// --- crpd: protocol + daemon -------------------------------------------------

namespace crp::serve {
namespace {

TEST(Protocol, LineBufferReassemblesFragments) {
  LineBuffer lb;
  lb.append("PI");
  std::string line;
  EXPECT_FALSE(lb.next(&line));
  lb.append("NG\r\nSTATS\nSUB");
  ASSERT_TRUE(lb.next(&line));
  EXPECT_EQ(line, "PING");  // "\r\n" stripped
  ASSERT_TRUE(lb.next(&line));
  EXPECT_EQ(line, "STATS");
  EXPECT_FALSE(lb.next(&line));
  EXPECT_EQ(lb.size(), 3u);  // partial "SUB" stays buffered
}

TEST(Protocol, KnobsParseAndRejectGarbage) {
  pipeline::JobSpec spec;
  std::string err;
  EXPECT_TRUE(apply_knob("seed=42", &spec, &err));
  EXPECT_TRUE(apply_knob("priority=-3", &spec, &err));
  EXPECT_TRUE(apply_knob("cache=0", &spec, &err));
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.priority, -3);
  EXPECT_FALSE(spec.opts.cache);
  EXPECT_FALSE(apply_knob("seed=banana", &spec, &err));
  EXPECT_FALSE(apply_knob("nonsense=1", &spec, &err));
  EXPECT_FALSE(apply_knob("naked", &spec, &err));
  EXPECT_FALSE(apply_knob("jobs=4", &spec, &err));  // operator-only (crpd --jobs)

  EXPECT_TRUE(valid_tenant("alice_01-x"));
  EXPECT_FALSE(valid_tenant(""));
  EXPECT_FALSE(valid_tenant("has space"));
  EXPECT_FALSE(valid_tenant(std::string(65, 'a')));
}

/// Admission-only daemon (workers=0): jobs queue but never run, so quota
/// and rate decisions are deterministic.
struct AdmissionDaemon {
  pipeline::ArtifactStore store;
  Daemon daemon;
  explicit AdmissionDaemon(size_t max_active = 2, u64 window_max = 100)
      : daemon(make_opts(&store, max_active, window_max)) {
    EXPECT_TRUE(daemon.start());
  }
  static DaemonOptions make_opts(pipeline::ArtifactStore* st, size_t max_active,
                                 u64 window_max) {
    DaemonOptions o;
    o.workers = 0;
    o.tenant_max_active = max_active;
    o.admission_window_max = window_max;
    o.store = st;
    return o;
  }
};

TEST(Daemon, PingBadVerbAndUnknownIds) {
  AdmissionDaemon ad;
  Client c;
  ASSERT_TRUE(c.connect(ad.daemon.port()));
  std::string reply;
  ASSERT_TRUE(c.request("PING", &reply));
  EXPECT_EQ(reply, "PONG");
  ASSERT_TRUE(c.request("FROB x", &reply));
  EXPECT_EQ(Client::parse_reply(reply).code, 400);
  ASSERT_TRUE(c.request("STATUS 12345", &reply));
  EXPECT_EQ(Client::parse_reply(reply).code, 404);
  ASSERT_TRUE(c.request("FETCH 12345", &reply));
  EXPECT_EQ(Client::parse_reply(reply).code, 404);
  ASSERT_TRUE(c.request("SUBMIT alice no/such_target", &reply));
  EXPECT_EQ(Client::parse_reply(reply).code, 404);
  ASSERT_TRUE(c.request("SUBMIT bad..tenant! server/nginx_sim", &reply));
  EXPECT_EQ(Client::parse_reply(reply).code, 400);
}

/// This process's connected TCP sockets on either end of `port`: the
/// accepted side (local port) and the client side (peer port), and how
/// many of them read TCP_NODELAY == 1.
struct PortSockets {
  int accepted = 0;
  int client = 0;
  int nodelay = 0;
};

PortSockets sockets_on(u16 port) {
  PortSockets s;
  for (int fd = 0; fd < 4096; ++fd) {
    int type = 0;
    socklen_t len = sizeof type;
    sockaddr_in self{}, peer{};
    socklen_t self_len = sizeof self, peer_len = sizeof peer;
    if (::getsockopt(fd, SOL_SOCKET, SO_TYPE, &type, &len) != 0 || type != SOCK_STREAM ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&self), &self_len) != 0 ||
        self.sin_family != AF_INET ||
        ::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &peer_len) != 0)
      continue;  // not a connected IPv4 stream (the listener has no peer)
    bool accepted = ntohs(self.sin_port) == port;
    bool client = ntohs(peer.sin_port) == port;
    if (!accepted && !client) continue;
    int on = 0;
    len = sizeof on;
    s.accepted += accepted ? 1 : 0;
    s.client += client ? 1 : 0;
    s.nodelay += ::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, &len) == 0 && on == 1;
  }
  return s;
}

TEST(Daemon, BothEndsOfEveryConnectionSetTcpNodelay) {
  // Replies and requests are written whole, so Nagle could only delay
  // them until the peer's delayed ACK: both ends turn it off.
  AdmissionDaemon ad;
  Client a, b;
  ASSERT_TRUE(a.connect(ad.daemon.port()));
  ASSERT_TRUE(b.connect(ad.daemon.port()));
  std::string reply;
  ASSERT_TRUE(a.request("PING", &reply));  // answered: the daemon accepted it
  ASSERT_TRUE(b.request("PING", &reply));
  PortSockets s = sockets_on(ad.daemon.port());
  EXPECT_EQ(s.accepted, 2);
  EXPECT_EQ(s.client, 2);
  EXPECT_EQ(s.nodelay, 4);
}

TEST(Daemon, WatchdogSeriesExistBeforeTheFirstFlag) {
  AdmissionDaemon ad;
  obs::serve::Response r = obs::serve::respond("/metrics");
  EXPECT_NE(r.body.find("crp_crpd_watchdog_step_stalls"), std::string::npos);
  EXPECT_NE(r.body.find("crp_crpd_watchdog_lease_stalls"), std::string::npos);
}

TEST(Daemon, MalformedJobIdsAreRejectedNotTruncated) {
  AdmissionDaemon ad;
  Client c;
  ASSERT_TRUE(c.connect(ad.daemon.port()));
  u64 id = c.submit("alice", "server/nginx_sim");
  ASSERT_NE(id, 0u);
  std::string reply;
  // strtoull would truncate "7abc" to job 7; the strict parse must 400
  // every trailing-garbage id on every verb that takes one.
  for (const char* verb : {"STATUS", "WATCH", "FETCH", "CANCEL"}) {
    ASSERT_TRUE(c.request(strf("%s %lluabc", verb, (unsigned long long)id), &reply));
    EXPECT_EQ(Client::parse_reply(reply).code, 400) << verb;
    ASSERT_TRUE(c.request(strf("%s 0", verb), &reply));
    EXPECT_EQ(Client::parse_reply(reply).code, 400) << verb;
    ASSERT_TRUE(c.request(strf("%s 1 2", verb), &reply));
    EXPECT_EQ(Client::parse_reply(reply).code, 400) << verb;
  }
  ASSERT_TRUE(c.request(strf("STATUS %llu", (unsigned long long)id), &reply));
  EXPECT_TRUE(Client::parse_reply(reply).ok);
}

TEST(Daemon, TenantTrackingCapRejectsFreshNames) {
  pipeline::ArtifactStore store;
  DaemonOptions o;
  o.workers = 0;
  o.max_tracked_tenants = 2;
  o.store = &store;
  Daemon daemon(o);
  ASSERT_TRUE(daemon.start());
  Client c;
  ASSERT_TRUE(c.connect(daemon.port()));
  EXPECT_NE(c.submit("t1", "server/nginx_sim"), 0u);
  EXPECT_NE(c.submit("t2", "server/nginx_sim"), 0u);
  int code = 0;
  EXPECT_EQ(c.submit("t3", "server/nginx_sim", {}, &code), 0u);
  EXPECT_EQ(code, 429);  // cycling fresh names stops growing daemon state
  EXPECT_NE(c.submit("t1", "server/nginx_sim"), 0u);  // tracked names fine
}

TEST(Daemon, IdleTenantWindowsExpire) {
  pipeline::ArtifactStore store;
  DaemonOptions o;
  o.workers = 0;
  o.max_tracked_tenants = 2;
  o.admission_window_ns = 1;  // any later submission sees an idle window
  o.store = &store;
  Daemon daemon(o);
  ASSERT_TRUE(daemon.start());
  Client c;
  ASSERT_TRUE(c.connect(daemon.port()));
  // Five distinct tenants sail past a cap of 2 because each submission
  // expires the previous, now-idle windows instead of accumulating them.
  for (int i = 0; i < 5; ++i)
    EXPECT_NE(c.submit(strf("fresh%d", i), "server/nginx_sim"), 0u) << i;
}

TEST(Daemon, PerTenantQuotaRejectsWith429) {
  AdmissionDaemon ad(/*max_active=*/2);
  Client c;
  ASSERT_TRUE(c.connect(ad.daemon.port()));
  EXPECT_NE(c.submit("alice", "server/nginx_sim"), 0u);
  EXPECT_NE(c.submit("alice", "server/nginx_sim"), 0u);
  int code = 0;
  EXPECT_EQ(c.submit("alice", "server/nginx_sim", {}, &code), 0u);
  EXPECT_EQ(code, 429);
  // Quotas are per tenant: bob is unaffected by alice's backlog.
  EXPECT_NE(c.submit("bob", "server/nginx_sim"), 0u);
}

TEST(Daemon, SubmissionRateWindowRejectsWith429) {
  AdmissionDaemon ad(/*max_active=*/100, /*window_max=*/3);
  Client c;
  ASSERT_TRUE(c.connect(ad.daemon.port()));
  int code = 0;
  EXPECT_NE(c.submit("alice", "server/nginx_sim"), 0u);
  EXPECT_NE(c.submit("alice", "server/nginx_sim"), 0u);
  EXPECT_NE(c.submit("alice", "server/nginx_sim"), 0u);
  EXPECT_EQ(c.submit("alice", "server/nginx_sim", {}, &code), 0u);
  EXPECT_EQ(code, 429);
  // Rejected submissions consume window slots too: hammering stays rejected.
  EXPECT_EQ(c.submit("alice", "server/nginx_sim", {}, &code), 0u);
  EXPECT_EQ(code, 429);
}

TEST(Daemon, PipelinedSubmissionsAnswerInOrder) {
  AdmissionDaemon ad(/*max_active=*/100);
  Client c;
  ASSERT_TRUE(c.connect(ad.daemon.port()));
  // One write, four requests; replies must come back in request order.
  ASSERT_TRUE(c.send_line(
      "PING\nSUBMIT alice server/nginx_sim\nSUBMIT alice server/lighttpd_sim\nSTATS"));
  std::string line;
  ASSERT_TRUE(c.read_line(&line));
  EXPECT_EQ(line, "PONG");
  ASSERT_TRUE(c.read_line(&line));
  EXPECT_EQ(line, "OK 1");
  ASSERT_TRUE(c.read_line(&line));
  EXPECT_EQ(line, "OK 2");
  ASSERT_TRUE(c.read_line(&line));
  EXPECT_EQ(line.rfind("OK active=2", 0), 0u) << line;
}

TEST(Daemon, CancelQueuedJobAndFetchConflict) {
  AdmissionDaemon ad;
  Client c;
  ASSERT_TRUE(c.connect(ad.daemon.port()));
  u64 id = c.submit("alice", "server/nginx_sim");
  ASSERT_NE(id, 0u);
  std::string reply;
  ASSERT_TRUE(c.request(strf("FETCH %llu", (unsigned long long)id), &reply));
  EXPECT_EQ(Client::parse_reply(reply).code, 409);  // not finished
  ASSERT_TRUE(c.request(strf("CANCEL %llu", (unsigned long long)id), &reply));
  EXPECT_TRUE(Client::parse_reply(reply).ok);
  ASSERT_TRUE(c.request(strf("STATUS %llu", (unsigned long long)id), &reply));
  EXPECT_EQ(reply.find("OK cancelled"), 0u) << reply;
  ASSERT_TRUE(c.request(strf("FETCH %llu", (unsigned long long)id), &reply));
  EXPECT_EQ(Client::parse_reply(reply).code, 409);  // cancelled
}

TEST(Daemon, ServedReportIsByteIdenticalToBatch) {
  pipeline::TargetRegistry reg = pipeline::TargetRegistry::builtin();
  const pipeline::TargetSpec* nginx = reg.find("server/nginx_sim");
  ASSERT_NE(nginx, nullptr);
  pipeline::ArtifactStore batch_store;
  pipeline::Campaign campaign({}, &batch_store);
  std::string batch =
      pipeline::render_report(campaign.run_target(*nginx), /*cache_tag=*/false);

  pipeline::ArtifactStore store;
  DaemonOptions o;
  o.workers = 2;
  o.store = &store;
  Daemon daemon(o);
  ASSERT_TRUE(daemon.start());

  // Two tenants submit the same target; the second rides the first's lease
  // or cache entry, and both fetched reports match the batch bytes.
  Client a, b;
  ASSERT_TRUE(a.connect(daemon.port()));
  ASSERT_TRUE(b.connect(daemon.port()));
  std::string report_a, report_b, err;
  bool cached_a = false, cached_b = false;
  std::thread tb([&] {
    EXPECT_TRUE(b.run_job("bob", "server/nginx_sim", {}, &report_b, &cached_b, &err))
        << err;
  });
  std::string err_a;
  EXPECT_TRUE(a.run_job("alice", "server/nginx_sim", {}, &report_a, &cached_a, &err_a))
      << err_a;
  tb.join();
  EXPECT_EQ(report_a, batch);
  EXPECT_EQ(report_b, batch);
  EXPECT_EQ(store.misses(), 1u);  // one computation across both tenants
}

TEST(Daemon, MidRequestDisconnectLeavesDaemonServing) {
  AdmissionDaemon ad;
  // A client that dies mid-line: open, send a partial verb, vanish.
  {
    Client c;
    ASSERT_TRUE(c.connect(ad.daemon.port()));
    // No trailing "\n": the daemon is left holding a partial line.
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ad.daemon.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_GT(::send(fd, "SUBMIT ali", 10, 0), 0);
    ::close(fd);
  }
  // A watcher that disconnects before its job finishes.
  {
    Client c;
    ASSERT_TRUE(c.connect(ad.daemon.port()));
    u64 id = c.submit("alice", "server/nginx_sim");
    ASSERT_NE(id, 0u);
    std::string reply;
    ASSERT_TRUE(c.request(strf("WATCH %llu", (unsigned long long)id), &reply));
    EXPECT_TRUE(Client::parse_reply(reply).ok);
    c.close();  // watcher gone; the daemon must drop the registration
  }
  Client c;
  ASSERT_TRUE(c.connect(ad.daemon.port()));
  std::string reply;
  ASSERT_TRUE(c.request("PING", &reply));
  EXPECT_EQ(reply, "PONG");
}

TEST(Daemon, SlowReaderDoesNotStallOtherClients) {
  AdmissionDaemon ad;
  Client slow;
  ASSERT_TRUE(slow.connect(ad.daemon.port()));
  // ~100k pipelined PINGs, none of the replies read yet: the daemon must
  // buffer ~600 KiB of PONGs without blocking its event loop.
  constexpr int kPings = 100'000;
  std::string burst;
  for (int i = 0; i < kPings; ++i) burst += "PING\n";
  ASSERT_TRUE(slow.send_line(burst.substr(0, burst.size() - 1)));

  // Meanwhile a second client gets answered promptly.
  Client fast;
  ASSERT_TRUE(fast.connect(ad.daemon.port()));
  std::string reply;
  ASSERT_TRUE(fast.request("PING", &reply));
  EXPECT_EQ(reply, "PONG");

  // The slow reader eventually drains every buffered PONG, in order.
  for (int i = 0; i < kPings; ++i) {
    ASSERT_TRUE(slow.read_line(&reply)) << "at reply " << i;
    ASSERT_EQ(reply, "PONG");
  }
}

TEST(Daemon, ConcurrentClientSwarmSharesOneComputation) {
  pipeline::ArtifactStore store;
  DaemonOptions o;
  o.workers = 4;
  o.tenant_max_active = 1000;
  o.admission_window_max = 100'000;
  o.store = &store;
  Daemon daemon(o);
  ASSERT_TRUE(daemon.start());

  constexpr int kClients = 32;
  std::atomic<int> failures{0};
  std::vector<std::string> reports(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client c;
      std::string err;
      if (!c.connect(daemon.port(), &err) ||
          !c.run_job(strf("tenant%d", i % 4), "server/nginx_sim", {}, &reports[i],
                     nullptr, &err)) {
        ADD_FAILURE() << "client " << i << ": " << err;
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  for (int i = 1; i < kClients; ++i) EXPECT_EQ(reports[i], reports[0]);
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_GE(store.hits(), static_cast<u64>(kClients - 1));
}

TEST(Daemon, StatsReportsDepthRetainedAndWatchdog) {
  AdmissionDaemon ad(/*max_active=*/10);
  Client c;
  ASSERT_TRUE(c.connect(ad.daemon.port()));
  ASSERT_NE(c.submit("alice", "server/nginx_sim"), 0u);
  ASSERT_NE(c.submit("alice", "server/nginx_sim"), 0u);
  ASSERT_NE(c.submit("bob", "server/nginx_sim", {"priority=5"}), 0u);
  std::string reply;
  ASSERT_TRUE(c.request("STATS", &reply));
  // The PR-8 prefix is a pinned byte contract; the new fields append.
  EXPECT_EQ(reply.rfind("OK active=3", 0), 0u) << reply;
  // Queue depth splits by priority in dispatch order (workers=0: all queued).
  EXPECT_NE(reply.find(" depth=p5:1,p0:2"), std::string::npos) << reply;
  EXPECT_NE(reply.find(" retained=0"), std::string::npos) << reply;
  EXPECT_NE(reply.find(" watchdog="), std::string::npos) << reply;
}

TEST(Daemon, TracedJobEchoesTraceOnEveryReply) {
  pipeline::ArtifactStore store;
  DaemonOptions o;
  o.workers = 2;
  o.store = &store;
  Daemon daemon(o);
  ASSERT_TRUE(daemon.start());
  Client c;
  ASSERT_TRUE(c.connect(daemon.port()));
  std::string reply;
  ASSERT_TRUE(c.request("SUBMIT alice server/nginx_sim trace=777", &reply));
  ASSERT_EQ(reply, "OK 1");  // SUBMIT stays the pinned byte format
  ASSERT_TRUE(c.request("WATCH 1", &reply));
  ASSERT_TRUE(Client::parse_reply(reply).ok);
  std::string line;
  for (;;) {
    ASSERT_TRUE(c.read_line(&line));
    EXPECT_NE(line.find(" trace=777"), std::string::npos) << line;
    if (line.rfind("DONE ", 0) == 0) break;
    ASSERT_EQ(line.rfind("EVENT ", 0), 0u) << line;
  }
  ASSERT_TRUE(c.request("STATUS 1", &reply));
  EXPECT_NE(reply.find(" trace=777"), std::string::npos) << reply;
  ASSERT_TRUE(c.send_line("FETCH 1"));
  ASSERT_TRUE(c.read_line(&reply));
  unsigned long long nbytes = 0;
  ASSERT_EQ(std::sscanf(reply.c_str(), "REPORT %llu", &nbytes), 1) << reply;
  EXPECT_NE(reply.find(" trace=777"), std::string::npos) << reply;
  std::string body;
  ASSERT_TRUE(c.read_payload(nbytes, &body));
  EXPECT_FALSE(body.empty());

  // Without the knob the daemon assigns its own id — every served job is
  // traceable — and the allocator never hands out a pinned id again.
  ASSERT_TRUE(c.request("SUBMIT alice server/nginx_sim seed=9", &reply));
  ASSERT_EQ(reply, "OK 2");
  ASSERT_TRUE(c.request("STATUS 2", &reply));
  EXPECT_NE(reply.find(" trace="), std::string::npos) << reply;
  EXPECT_EQ(reply.find(" trace=777"), std::string::npos) << reply;
}

TEST(Daemon, JobsAndTenantsRoutesLiveAndDieWithTheDaemon) {
  pipeline::ArtifactStore store;
  DaemonOptions o;
  o.workers = 2;
  o.store = &store;
  {
    Daemon daemon(o);
    ASSERT_TRUE(daemon.start());
    Client c;
    ASSERT_TRUE(c.connect(daemon.port()));
    std::string report, err;
    ASSERT_TRUE(c.run_job("alice", "server/nginx_sim", {}, &report, nullptr, &err))
        << err;
    obs::serve::Response jobs = obs::serve::respond("/jobs.json");
    ASSERT_EQ(jobs.status, 200);
    EXPECT_EQ(jobs.content_type, "application/json");
    EXPECT_NE(jobs.body.find("\"jobs\""), std::string::npos);
    EXPECT_NE(jobs.body.find("\"tenant\": \"alice\""), std::string::npos);
    EXPECT_NE(jobs.body.find("\"state\": \"done\""), std::string::npos);
    obs::serve::Response tenants = obs::serve::respond("/tenants.json");
    ASSERT_EQ(tenants.status, 200);
    EXPECT_NE(tenants.body.find("\"name\": \"alice\""), std::string::npos);
    EXPECT_NE(tenants.body.find("\"watchdog\""), std::string::npos);
    EXPECT_NE(tenants.body.find("\"queue_ms\""), std::string::npos);
    daemon.stop();
  }
  // Routes die with the daemon: no dangling provider over dead state.
  EXPECT_EQ(obs::serve::respond("/jobs.json").status, 404);
  EXPECT_EQ(obs::serve::respond("/tenants.json").status, 404);
}

TEST(Daemon, WatchdogTickFlagsAStalledJobExactlyOnce) {
  // A real job held open inside its first step (make_program waits on a
  // gate): the daemon's own tick thread must flag it within a deadline
  // period, exactly once; repeated ticks stay quiet.
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  auto open_gate = [&] {
    {
      std::lock_guard<std::mutex> lk(mu);
      open = true;
    }
    cv.notify_all();
  };
  pipeline::ArtifactStore store;
  DaemonOptions o;
  o.workers = 1;
  o.store = &store;
  o.watchdog_step_deadline_ns = 1;  // any in-progress step is "stuck"
  o.tick_ms = 10;
  Daemon daemon(o);
  // Declared after the daemon: opens the gate before its worker is joined,
  // so a failed assertion cannot hang the test.
  struct OpenOnExit {
    std::function<void()> open;
    ~OpenOnExit() { open(); }
  } open_on_exit{open_gate};
  ASSERT_TRUE(daemon.start());
  pipeline::JobSpec js;
  js.target = *daemon.registry().find("server/nginx_sim");
  js.target.make_program = [&]() -> analysis::TargetProgram {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return open; });
    throw std::runtime_error("gate opened");
  };
  js.tenant = "alice";
  pipeline::JobQueue& q = daemon.queue();
  pipeline::JobId id = q.submit(std::move(js));
  for (int i = 0; i < 400 && q.watchdog_flags() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(q.watchdog_flags(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));  // more ticks
  EXPECT_EQ(q.watchdog_flags(), 1u);
  pipeline::JobResult r = q.status(id);
  EXPECT_EQ(r.step, "taint_trace");
  EXPECT_TRUE(r.step_stalled);
  Client c;
  ASSERT_TRUE(c.connect(daemon.port()));
  std::string reply;
  ASSERT_TRUE(c.request("STATS", &reply));
  EXPECT_NE(reply.find(" watchdog=1"), std::string::npos) << reply;
  obs::serve::Response jobs = obs::serve::respond("/jobs.json");
  EXPECT_NE(jobs.body.find("\"watchdog_flags\": 1,"), std::string::npos) << jobs.body;
  EXPECT_NE(jobs.body.find("\"step\": \"taint_trace\""), std::string::npos) << jobs.body;
  EXPECT_NE(jobs.body.find("\"step_stalled\": 1"), std::string::npos) << jobs.body;
  open_gate();
  EXPECT_EQ(q.wait(id).state, pipeline::JobState::kFailed);
}

TEST(SocketServer, OverflowingOutBufferDropsConnAndCounts) {
  SocketServer::Options so;
  so.max_out_buffer = 64;
  SocketServer server(so);
  SocketServer::Handlers h;
  SocketServer* srv = &server;
  h.on_data = [srv](ConnId conn, std::string_view) {
    srv->send(conn, std::string(1024, 'x'));  // far past the 64-byte cap
  };
  ASSERT_TRUE(server.start(0, std::move(h)));
  Client c;
  ASSERT_TRUE(c.connect(server.port()));
  ASSERT_TRUE(c.send_line("hi"));
  // The oversized reply must drop the connection and count it, never
  // buffer without bound.
  for (int i = 0; i < 400 && server.stats().dropped_overflow == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  SocketServer::Stats st = server.stats();
  EXPECT_EQ(st.dropped_overflow, 1u);
  EXPECT_GE(st.accepted, 1u);
  EXPECT_GE(st.out_buffer_hwm, 1024u);
  server.stop();
}

}  // namespace
}  // namespace crp::serve
