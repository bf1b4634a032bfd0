// serve-mix: a closed loop of nproc client connections against an
// in-process serve::Daemon at its shipped defaults (2 workers, cache on).
// Each client waits for its REPORT before its next SUBMIT. The seeded job
// sequence mixes three classes:
//
//   a  replays of the five server tuples warmed into the store during
//      set-up (store read, codec decode, render);
//   b  fresh keys on the cheap servers (a distinct verify= budget per job:
//      compute, encode, lease, publish);
//   c  plan=1 jobs on the four PoC subjects (plan synthesis, cached after
//      the first, plus a replay that is never cached and probes the
//      oracle).
//
// Shares are 55/25/20. Classes a and b both wait about 44 ms, so the p50
// falls well inside their joint mode; class c sorts as jvm (about 90 ms),
// firefox and iexplore (180-240 ms), nginx (290-320 ms), so the p90 -
// half-way into class c - falls inside the browsers' joint mode rather
// than on a class boundary. Every fetched report is checked byte-for-byte
// against the batch render_report() of the same target and knobs,
// computed after the timed phase with the cache off.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <thread>

#include "bench.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"
#include "pipeline/campaign.h"
#include "pipeline/codec.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "util/rng.h"

namespace crpbench {
namespace {

using crp::strf;
using crp::pipeline::CampaignOptions;
using crp::pipeline::TargetReport;

// Reduced budgets for the replay and fresh classes: set-up warms five
// server tuples in about a second instead of the paper budgets' 15 s.
constexpr u64 kDiscover = 1'000'000;
constexpr u64 kVerify = 1'000'000;
// Upper bound on jobs per run, so a much faster daemon still ends with a
// bounded number of distinct keys to re-derive.
constexpr size_t kMaxJobs = 6000;
// A round is this many consecutive completions (the unit of wall_s).
constexpr size_t kRound = 100;
// peak_rss_mb is read at this many completions (or at the end of a shorter
// run): the daemon's RSS grows with jobs served, and a faster daemon
// serves more of them in the same time.
constexpr size_t kRssJobs = 1000;
// Every WATCH is bounded; an expiry counts as a failed job.
constexpr int kRecvTimeoutMs = 60'000;
constexpr int kSetups = 3;

const char* const kServers[] = {"server/nginx_sim", "server/cherokee_sim",
                                "server/lighttpd_sim", "server/memcached_sim",
                                "server/postgres_sim"};
const char* const kCheap[] = {"server/nginx_sim", "server/lighttpd_sim"};
const char* const kPoc[] = {"server/nginx_sim", "runtime/jvm_sim", "browser/iexplore_sim",
                            "browser/firefox_sim"};

struct JobDesc {
  char cls = 'a';
  std::string target;
  u64 verify = kVerify;
  bool plan = false;

  std::vector<std::string> knobs() const {
    std::vector<std::string> k = {
        strf("discover=%llu", static_cast<unsigned long long>(kDiscover)),
        strf("verify=%llu", static_cast<unsigned long long>(verify))};
    if (plan) k.push_back("plan=1");
    return k;
  }
  std::string key() const {
    std::string s = target;
    for (const std::string& k : knobs()) s += " " + k;
    return s;
  }
};

// Classes are dealt in blocks of 20 (11 a, 5 b, 4 c) and targets from
// per-class decks reshuffled when exhausted, so every seed gets the same
// mix in every stretch of the run; the seed only changes the order.
std::vector<JobDesc> make_sequence(u64 seed) {
  crp::Rng rng(seed ^ 0x5345525645ull);
  struct Deck {
    std::vector<const char*> cards;
    size_t pos;  // == cards.size(): reshuffle before the next draw
    const char* draw(crp::Rng& r) {
      if (pos == cards.size()) {
        shuffle(cards, r);
        pos = 0;
      }
      return cards[pos++];
    }
  };
  Deck servers{{std::begin(kServers), std::end(kServers)}, 5};
  Deck cheap{{std::begin(kCheap), std::end(kCheap)}, 2};
  Deck poc{{std::begin(kPoc), std::end(kPoc)}, 4};
  std::vector<JobDesc> seq;
  u64 fresh = 0;
  while (seq.size() < kMaxJobs) {
    std::vector<char> block;
    block.insert(block.end(), 11, 'a');
    block.insert(block.end(), 5, 'b');
    block.insert(block.end(), 4, 'c');
    shuffle(block, rng);
    for (char cls : block) {
      JobDesc j;
      j.cls = cls;
      if (cls == 'a') {
        j.target = servers.draw(rng);
      } else if (cls == 'b') {
        j.target = cheap.draw(rng);
        j.verify = kVerify + 1 + fresh++;
      } else {
        j.target = poc.draw(rng);
        j.plan = true;
      }
      seq.push_back(std::move(j));
    }
  }
  return seq;
}

// The daemon at its shipped defaults, except admission: a closed loop of
// nproc clients holds at most one active job per tenant, and the rate
// window is opened wide so a faster daemon is never throttled into 429s.
struct Service {
  crp::pipeline::ArtifactStore store;
  crp::serve::Daemon daemon;

  static crp::serve::DaemonOptions options(crp::pipeline::ArtifactStore* s) {
    crp::serve::DaemonOptions o;
    o.store = s;
    o.admission_window_max = 1'000'000'000;
    return o;
  }
  Service() : daemon(options(&store)) {
    store.set_enabled(true);
    store.set_dir("");
  }
};

// Start a daemon on an empty store and warm the five class-a tuples.
std::unique_ptr<Service> start_service(Result& res) {
  auto svc = std::make_unique<Service>();
  if (!res.check(svc->daemon.start(), "daemon failed to bind")) return nullptr;
  crp::serve::Client c;
  std::string err;
  res.check(c.connect(svc->daemon.port(), &err) && c.set_recv_timeout_ms(kRecvTimeoutMs),
            "warm-up connect: " + err);
  // Longest first (cherokee, memcached, postgres, then the cheap two), so
  // the two workers' schedule, and with it the set-up time, is the same
  // every time.
  std::vector<u64> ids;
  for (size_t i : {1, 3, 4, 0, 2}) {
    JobDesc j;
    j.target = kServers[i];
    ids.push_back(c.submit("warmup", j.target, j.knobs(), nullptr, &err));
    res.check(ids.back() != 0, "warm-up submit: " + err);
  }
  for (u64 id : ids) {
    std::string state;
    bool cached = false;
    res.check(id != 0 && c.watch_until_done(id, &state, &cached, &err) && state == "done",
              "warm-up job: " + state + err);
  }
  return svc;
}

// One submission as the client saw it.
struct JobRec {
  const JobDesc* job = nullptr;
  u64 id = 0;
  double t0 = 0, t1 = 0;  // SUBMIT sent, REPORT received
  double submit_s = 0, watch_s = 0, fetch_s = 0;
  crp::pipeline::JobResult daemon;  // queue/run split (traced phase)
};

// First fetched report per distinct key; every later report of the key
// must equal it, and it must equal the batch reference.
struct Seen {
  const JobDesc* job;
  std::string report;
};

// State the client threads of one phase share.
struct Loop {
  const std::vector<JobDesc>& seq;
  std::atomic<size_t>& next;  // next sequence index, shared across phases
  crp::serve::Daemon& daemon;
  Result& res;
  Spans* spans;  // null: untraced phase
  double deadline;

  std::mutex mu;  // guards everything below
  std::map<std::string, Seen>& seen;
  std::vector<JobRec> done;
  std::vector<double> round_t, round_cpu;
  std::vector<double> pings;
  u64 failures = 0, rejected = 0;
  double rss_mb = 0;
};

// SUBMIT -> WATCH -> FETCH on `c`; false on any failure (*code is the ERR
// code of a rejected SUBMIT, 0 otherwise).
bool run_job(Loop& L, crp::serve::Client& c, int lane, const std::string& tenant,
             JobRec& r, std::string* report, int* code, std::string* err) {
  Scope js(L.spans, "serve.job", -1, 0, lane);
  r.t0 = now_s();
  {
    Scope s(L.spans, "serve.submit", js.id(), 0, lane);
    r.id = c.submit(tenant, r.job->target, r.job->knobs(), code, err);
  }
  double w0 = now_s();
  r.submit_s = w0 - r.t0;
  if (r.id == 0) return false;
  std::string state;
  bool cached = false, ok;
  {
    Scope s(L.spans, "serve.watch", js.id(), r.id, lane);
    ok = c.watch_until_done(r.id, &state, &cached, err);
  }
  double f0 = now_s();
  r.watch_s = f0 - w0;
  if (!ok || state != "done") {
    *err += " state " + state;
    return false;
  }
  {
    Scope s(L.spans, "serve.fetch", js.id(), r.id, lane);
    ok = c.fetch(r.id, report, err);
  }
  r.t1 = now_s();
  r.fetch_s = r.t1 - f0;
  return ok;
}

void client(Loop& L, int lane) {
  crp::serve::Client c;
  const std::string tenant = strf("bench%d", lane);
  auto connect = [&] {
    std::string err;
    return L.res.check(
        c.connect(L.daemon.port(), &err) && c.set_recv_timeout_ms(kRecvTimeoutMs),
        "connect: " + err);
  };
  if (!connect()) return;
  for (u64 n = 0; now_s() < L.deadline; ++n) {
    size_t k = L.next.fetch_add(1);
    if (k >= L.seq.size()) break;
    if (L.spans != nullptr && n % 10 == 0) {
      Scope s(L.spans, "serve.ping", -1, 0, lane);
      double p0 = now_s();
      std::string reply;
      bool ok = c.request("PING", &reply) && reply == "PONG";
      std::lock_guard<std::mutex> lk(L.mu);
      if (ok) L.pings.push_back(now_s() - p0);
    }
    JobRec r;
    r.job = &L.seq[k];
    std::string report, err;
    int code = 0;
    bool ok = run_job(L, c, lane, tenant, r, &report, &code, &err);
    if (L.spans != nullptr && r.id != 0) r.daemon = L.daemon.queue().status(r.id);
    L.res.ops(1, ok ? 0 : 1);
    if (!ok) {
      {
        std::lock_guard<std::mutex> lk(L.mu);
        if (code == 429) ++L.rejected;
        if (++L.failures <= 10)
          L.res.note(strf("job %s failed: %s", r.job->key().c_str(), err.c_str()));
      }
      // A transport error can leave the stream mid-reply: start over.
      if (code == 0) {
        c.close();
        if (!connect()) return;
      }
      continue;
    }
    std::lock_guard<std::mutex> lk(L.mu);
    auto [it, first] = L.seen.emplace(r.job->key(), Seen{r.job, report});
    if (!first)
      L.res.check(it->second.report == report,
                  "report for " + r.job->key() + " differs between jobs");
    L.done.push_back(r);
    if (L.done.size() == kRssJobs) L.rss_mb = peak_rss_mb();
    if (L.done.size() % kRound == 0) {
      L.round_t.push_back(r.t1);
      L.round_cpu.push_back(cpu_s());
    }
  }
}

struct Phase {
  std::vector<JobRec> jobs;
  std::vector<double> round_wall, round_cpu;
  std::vector<double> pings;
  double t0 = 0, t1 = 0;  // phase start, last REPORT
  double cpu = 0;
  double rss_mb = 0;
  u64 rejected = 0;
};

Phase run_phase(const std::vector<JobDesc>& seq, std::atomic<size_t>& next,
                crp::serve::Daemon& daemon, std::map<std::string, Seen>& seen,
                double seconds, Result& res, Spans* spans) {
  Phase p;
  p.t0 = now_s();
  double c0 = cpu_s();
  Loop L{seq, next, daemon, res, spans, p.t0 + seconds, {}, seen, {}, {p.t0}, {c0}, {}, 0, 0, 0};
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency()); ++i)
    threads.emplace_back([&L, i] { client(L, static_cast<int>(i)); });
  for (std::thread& t : threads) t.join();
  p.t1 = p.t0;
  for (const JobRec& r : L.done) p.t1 = std::max(p.t1, r.t1);
  p.cpu = cpu_s() - c0;
  for (size_t i = 1; i < L.round_t.size(); ++i) {
    p.round_wall.push_back(L.round_t[i] - L.round_t[i - 1]);
    p.round_cpu.push_back(L.round_cpu[i] - L.round_cpu[i - 1]);
  }
  p.jobs = std::move(L.done);
  p.pings = std::move(L.pings);
  p.rejected = L.rejected;
  p.rss_mb = L.rss_mb > 0 ? L.rss_mb : peak_rss_mb();
  return p;
}

// Batch reference for a job: the same target and knobs through
// Campaign::run_target with the cache off.
TargetReport reference(const JobDesc& j, const crp::pipeline::TargetRegistry& reg) {
  CampaignOptions o;
  o.cache = false;
  o.syscall.discover_budget = kDiscover;
  o.syscall.verify_budget = j.verify;
  o.plan = j.plan;
  crp::pipeline::ArtifactStore off;
  off.set_enabled(false);
  crp::pipeline::Campaign camp(o, &off);
  return camp.run_target(*reg.find(j.target));
}

// Compare every distinct key's fetched report with its batch reference
// (computed on nproc threads); returns the references by key.
std::map<std::string, TargetReport> check_references(const std::map<std::string, Seen>& seen,
                                                     Result& res) {
  const crp::pipeline::TargetRegistry reg = crp::pipeline::TargetRegistry::builtin();
  std::vector<const std::pair<const std::string, Seen>*> todo;
  for (const auto& kv : seen) todo.push_back(&kv);
  std::vector<TargetReport> refs(todo.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency()); ++i)
    pool.emplace_back([&] {
      for (size_t k; (k = next.fetch_add(1)) < todo.size();) {
        const auto& [key, s] = *todo[k];
        std::string want;
        try {
          refs[k] = reference(*s.job, reg);
          want = crp::pipeline::render_report(refs[k], false);
        } catch (const std::exception& e) {
          want = std::string("reference threw: ") + e.what();
        }
        res.check(s.report == want, "fetched report for " + key + " differs from batch output");
      }
    });
  for (std::thread& t : pool) t.join();
  std::map<std::string, TargetReport> out;
  for (size_t k = 0; k < todo.size(); ++k) out[todo[k]->first] = std::move(refs[k]);
  return out;
}

// serve.notify_ms probe: class-a replays over a raw connection that
// acknowledges every segment at once (TCP_QUICKACK, re-armed after each
// read). The daemon sets no TCP_NODELAY, so Nagle holds its small EVENT
// and DONE writes until the previous one is acknowledged; if the client's
// delayed ACK is what the notification waits for, this reads near 0 ms.
double quickack_notify_ms(crp::serve::Daemon& daemon, int jobs, Result& res) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (!res.check(fd >= 0, "quickack probe: socket")) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(daemon.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  timeval tv{kRecvTimeoutMs / 1000, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  auto quickack = [fd] {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
  };
  std::string buf;
  auto read_line = [&](std::string* line) {
    size_t nl;
    while ((nl = buf.find('\n')) == std::string::npos) {
      char chunk[4096];
      ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      quickack();
      if (n <= 0) return false;
      buf.append(chunk, static_cast<size_t>(n));
    }
    *line = buf.substr(0, nl);
    buf.erase(0, nl + 1);
    return true;
  };
  auto send_line = [fd](const std::string& line) {
    return ::send(fd, line.data(), line.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(line.size());
  };
  std::vector<double> notify;
  bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  quickack();
  for (int i = 0; ok && i < jobs; ++i) {
    JobDesc j;
    j.target = kServers[i % 5];
    std::string line = "SUBMIT quickack " + j.key() + "\n";
    double t0 = now_s();
    ok = send_line(line) && read_line(&line) && line.rfind("OK ", 0) == 0;
    u64 id = ok ? std::strtoull(line.c_str() + 3, nullptr, 10) : 0;
    ok = ok && send_line(strf("WATCH %llu\n", static_cast<unsigned long long>(id)));
    while (ok && (ok = read_line(&line)) && line.rfind("DONE ", 0) != 0) {
    }
    if (ok)
      notify.push_back(1e3 * (now_s() - t0) - daemon.queue().status(id).total_ns * 1e-6);
  }
  ::close(fd);
  res.check(ok, "quickack probe: protocol error");
  return median(notify);
}

template <class F>
double median_us(int reps, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    double t0 = now_s();
    f();
    v.push_back((now_s() - t0) * 1e6);
  }
  return median(v);
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

std::vector<double> latencies_ms(const std::vector<JobRec>& jobs, char cls = 0) {
  std::vector<double> v;
  for (const JobRec& r : jobs)
    if (cls == 0 || r.job->cls == cls) v.push_back(1e3 * (r.t1 - r.t0));
  return v;
}

void class_notes(const Phase& p, Result& res) {
  for (char cls : {'a', 'b', 'c'}) {
    std::vector<double> v = latencies_ms(p.jobs, cls);
    res.note(strf("class %c: %zu jobs, p50 %.2f ms, p90 %.2f ms", cls, v.size(),
                  quantile(v, 0.5), quantile(v, 0.9)));
  }
  std::map<std::string, std::vector<double>> poc;
  for (const JobRec& r : p.jobs)
    if (r.job->cls == 'c') poc[r.job->target].push_back(1e3 * (r.t1 - r.t0));
  for (const auto& [target, v] : poc)
    res.note(strf("  c %-22s %4zu jobs, p50 %.2f ms", target.c_str(), v.size(),
                  quantile(v, 0.5)));
}

// Per-layer metrics of the traced phase `t` (after the untraced phase `u`).
void layer_metrics(const Phase& u, const Phase& t, const Counters& d, Service& svc,
                   Spans* spans, Result& res) {
  const double rounds = std::max(1.0, static_cast<double>(t.jobs.size()) / kRound);
  const double wall = t.t1 - t.t0;

  // The daemon's own per-step spans for the traced jobs (same steady
  // clock): summed per step, and nested under the client's WATCH span so
  // self time splits the wait into pipeline work and delivery.
  std::map<u64, int> watch_span;
  std::vector<Spans::Span> mine = spans->all();
  for (size_t i = 0; i < mine.size(); ++i)
    if (mine[i].name == "serve.watch") watch_span[mine[i].job] = static_cast<int>(i);
  std::map<std::string, double> step_s;
  std::vector<double> synth_ms, replay_ms;
  crp::obs::JobTracer& jt = crp::obs::JobTracer::global();
  for (const auto& lane : jt.snapshot()) {
    auto w = watch_span.find(lane.job);
    if (w == watch_span.end()) continue;
    for (const crp::obs::JobSpan& s : lane.spans) {
      if (s.kind != crp::obs::SpanKind::kStep) continue;
      std::string step = jt.name_of(s.label);
      double dur = static_cast<double>(s.t1_ns - s.t0_ns) * 1e-9;
      step_s[step] += dur;
      if (step == "plan_synth") synth_ms.push_back(dur * 1e3);
      if (step == "plan_verify") replay_ms.push_back(dur * 1e3);
      spans->add({step_span(step), static_cast<double>(s.t0_ns) * 1e-9,
                  static_cast<double>(s.t1_ns) * 1e-9, w->second, lane.job,
                  mine[static_cast<size_t>(w->second)].lane});
    }
  }
  for (const Step& st : kSteps)
    res.metric(strf("pipeline.step.%s_s", st.name), step_s[st.name] / rounds, "s");
  res.metric("plan.synth_ms", mean(synth_ms), "ms");
  res.metric("plan.replay_ms", mean(replay_ms), "ms");

  std::vector<double> submit, fetch, notify, queue_ms, run_ms;
  for (const JobRec& r : t.jobs) {
    submit.push_back(1e3 * r.submit_s);
    fetch.push_back(1e3 * r.fetch_s);
    // Class a (a cached replay): the client's SUBMIT->DONE wait beyond the
    // daemon's own submit->terminal time, i.e. the cost of delivering DONE.
    if (r.job->cls == 'a')
      notify.push_back(1e3 * (r.submit_s + r.watch_s) -
                       static_cast<double>(r.daemon.total_ns) * 1e-6);
    queue_ms.push_back(static_cast<double>(r.daemon.queue_ns) * 1e-6);
    run_ms.push_back(static_cast<double>(r.daemon.run_ns) * 1e-6);
  }
  res.metric("serve.ping_ms", 1e3 * median(t.pings), "ms");
  res.metric("serve.submit_ms", median(submit), "ms");
  res.metric("serve.fetch_ms", median(fetch), "ms");
  res.metric("serve.notify_ms", median(notify), "ms");
  res.metric("serve.notify_quickack_ms", quickack_notify_ms(svc.daemon, 25, res), "ms");
  res.metric("serve.rejected", static_cast<double>(t.rejected + u.rejected), "count");
  res.metric("pipeline.queue_wait_p50_ms", quantile(queue_ms, 0.5), "ms");
  res.metric("pipeline.queue_wait_p90_ms", quantile(queue_ms, 0.9), "ms");
  res.metric("pipeline.job_run_p50_ms", quantile(run_ms, 0.5), "ms");
  res.metric("pipeline.job_run_p90_ms", quantile(run_ms, 0.9), "ms");

  u64 lookups = d.cache_hits + d.cache_misses;
  res.note(strf("store: %llu hits / %llu lookups, %llu stores",
                static_cast<unsigned long long>(d.cache_hits),
                static_cast<unsigned long long>(lookups),
                static_cast<unsigned long long>(d.cache_stores)));
  res.metric("pipeline.store.hit_ratio",
             lookups ? static_cast<double>(d.cache_hits) / static_cast<double>(lookups) : 0,
             "ratio");
  auto per_round = [&](u64 v) { return static_cast<double>(v) / rounds; };
  res.metric("pipeline.store.stores", per_round(d.cache_stores), "count");
  res.metric("oracle.probes", per_round(d.probes), "count");
  res.metric("oracle.crashes", static_cast<double>(d.crashes), "count");
  res.check(d.crashes == 0, "oracle.scan.crashes != 0");
  res.metric("vm.instr_retired", per_round(d.instr), "count");
  res.metric("os.syscalls", per_round(d.syscalls), "count");
  res.metric("os.api_calls", per_round(d.api_calls), "count");
  res.metric("taint.propagated", per_round(d.propagated), "count");
  res.metric("symex.sat_queries", per_round(d.sat_queries), "count");
  res.metric("symex.memo_hits", per_round(d.memo_hits), "count");
  res.metric("exec.idle_frac", 1 - t.cpu / (crp::exec::resolve_jobs(0) * wall), "ratio");
  res.metric("obs.overhead_frac",
             (wall / static_cast<double>(t.jobs.size())) /
                     ((u.t1 - u.t0) / static_cast<double>(u.jobs.size())) -
                 1,
             "ratio");
  res.metric("obs.uncovered_frac", spans->uncovered_frac(t.t0, t.t1), "ratio");

  // Isolation probes: codec cost of the warmed blobs, read back from the
  // daemon's store by their content keys.
  std::vector<double> dec, enc, bytes;
  for (const char* target : kServers) {
    CampaignOptions o;
    o.syscall.discover_budget = kDiscover;
    o.syscall.verify_budget = kVerify;
    crp::pipeline::Campaign camp(o, &svc.store);
    const crp::pipeline::TargetSpec* spec = svc.daemon.registry().find(target);
    std::string doc;
    if (!res.check(svc.store.lookup(camp.syscall_scan_key(spec->make_program()), &doc),
                   std::string("warmed tuple missing from store: ") + target))
      continue;
    crp::analysis::SyscallScanResult scan;
    dec.push_back(median_us(200, [&] { crp::pipeline::decode_syscall_scan(doc, &scan); }));
    enc.push_back(median_us(200, [&] { crp::pipeline::encode_syscall_scan(scan); }));
    bytes.push_back(static_cast<double>(doc.size()));
  }
  res.metric("pipeline.codec.decode_us", mean(dec), "us");
  res.metric("pipeline.codec.encode_us", mean(enc), "us");
  res.metric("pipeline.codec.bytes", mean(bytes), "bytes");
}

}  // namespace

void run_serve_mix(const Args& args, Result& res, Spans* spans) {
  const std::vector<JobDesc> seq = make_sequence(args.seed);

  // Set-up: daemon start plus store warm-up, repeated from an empty store;
  // the last service is kept for the timed phase.
  std::vector<double> setups;
  std::unique_ptr<Service> svc;
  for (int i = 0; i < kSetups; ++i) {
    svc.reset();
    double t0 = now_s();
    svc = start_service(res);
    setups.push_back(now_s() - t0);
    if (!svc) return;
  }
  std::atomic<size_t> next{0};
  std::map<std::string, Seen> seen;

  if (spans == nullptr) {
    Phase p = run_phase(seq, next, svc->daemon, seen, args.seconds, res, nullptr);
    std::vector<double> lat = latencies_ms(p.jobs);
    res.note(strf("%zu jobs completed in %.3f s by %u clients; %zu rounds of %zu; "
                  "p90 has %zu samples beyond it",
                  p.jobs.size(), p.t1 - p.t0, std::thread::hardware_concurrency(),
                  p.round_wall.size(), kRound, lat.size() / 10));
    class_notes(p, res);
    if (p.round_wall.empty() && !p.jobs.empty()) {
      // Fewer than kRound completions: scale the whole phase to one round.
      double scale = static_cast<double>(kRound) / static_cast<double>(p.jobs.size());
      p.round_wall.push_back((p.t1 - p.t0) * scale);
      p.round_cpu.push_back(p.cpu * scale);
    }
    res.check(!p.jobs.empty(), "no job completed");
    res.metric("setup_s", median(setups), "s");
    res.metric("wall_s", median(p.round_wall), "s");
    res.metric("cpu_s", median(p.round_cpu), "s");
    res.metric("jobs_per_s", static_cast<double>(p.jobs.size()) / (p.t1 - p.t0), "1/s");
    res.metric("job_p50_ms", quantile(lat, 0.5), "ms");
    res.metric("job_p90_ms", quantile(lat, 0.9), "ms");
    res.metric("peak_rss_mb", p.rss_mb, "MB");
    check_references(seen, res);
    return;
  }

  // Traced: half the time untraced, then half traced; overhead compares
  // their time per job.
  Phase u = run_phase(seq, next, svc->daemon, seen, args.seconds / 2, res, nullptr);
  Counters c0 = Counters::read();
  Phase t = run_phase(seq, next, svc->daemon, seen, args.seconds / 2, res, spans);
  Counters d = Counters::read() - c0;
  class_notes(t, res);
  layer_metrics(u, t, d, *svc, spans, res);

  // The render probe times the batch references of the class-a tuples.
  std::map<std::string, TargetReport> refs = check_references(seen, res);
  std::vector<double> render;
  for (const char* target : kServers) {
    JobDesc j;
    j.target = target;
    auto it = refs.find(j.key());
    if (it != refs.end())
      render.push_back(
          median_us(200, [&] { crp::pipeline::render_report(it->second, false); }));
  }
  res.metric("pipeline.render_us", mean(render), "us");
}

}  // namespace crpbench
