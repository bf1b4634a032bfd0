#include "obs/ledger.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <tuple>

#include "obs/expo.h"
#include "obs/journal.h"
#include "obs/obs.h"

namespace crp::obs {

const char* probe_outcome_name(ProbeOutcome o) {
  switch (o) {
    case ProbeOutcome::kSurvive: return "survive";
    case ProbeOutcome::kEfault: return "efault";
    case ProbeOutcome::kCrash: return "crash";
    case ProbeOutcome::kTimeout: return "timeout";
  }
  return "?";
}

bool probe_outcome_from_name(std::string_view s, ProbeOutcome* out) {
  for (u32 i = 0; i < kNumProbeOutcomes; ++i) {
    if (s == probe_outcome_name(static_cast<ProbeOutcome>(i))) {
      *out = static_cast<ProbeOutcome>(i);
      return true;
    }
  }
  return false;
}

const char* ledger_stage_name(LedgerStage s) {
  switch (s) {
    case LedgerStage::kOracle: return "oracle";
    case LedgerStage::kSweep: return "sweep";
    case LedgerStage::kHunt: return "hunt";
    case LedgerStage::kVerify: return "verify";
    case LedgerStage::kDefense: return "defense";
  }
  return "?";
}

bool ledger_stage_from_name(std::string_view s, LedgerStage* out) {
  for (u32 i = 0; i < kNumLedgerStages; ++i) {
    if (s == ledger_stage_name(static_cast<LedgerStage>(i))) {
      *out = static_cast<LedgerStage>(i);
      return true;
    }
  }
  return false;
}

// --- Ledger ------------------------------------------------------------------

void Ledger::record(LedgerStage stage, ProbeOutcome outcome, u32 primitive, u32 target,
                    u64 addr, u64 ts_ns) {
  if (!detail::recording()) return;
  if (primitive >= kMaxNames) primitive = 0;
  if (target >= kMaxNames) target = 0;
  u32 oc = static_cast<u32>(outcome) < kNumProbeOutcomes ? static_cast<u32>(outcome) : 0;
  u32 st = static_cast<u32>(stage) < kNumLedgerStages ? static_cast<u32>(stage) : 0;

  ProbeEvent ev;
  ev.ts_ns = ts_ns;
  ev.addr = addr;
  ev.primitive = primitive;
  ev.target = target;
  ev.outcome = static_cast<u8>(oc);
  ev.stage = static_cast<u8>(st);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (archive_.size() < kArchiveCap) {
      ev.seq = static_cast<u32>(archive_.size());
      archive_.push_back(ev);
    } else {
      ++dropped_;
    }
  }
  // Tallies are exact even when the archive drops: the audit substrate.
  prim_tallies_[primitive][st][oc].fetch_add(1, std::memory_order_relaxed);
  stage_tallies_[st][oc].fetch_add(1, std::memory_order_relaxed);
}

std::vector<ProbeEvent> Ledger::snapshot() const {
  std::vector<ProbeEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = archive_;
  }
  std::sort(out.begin(), out.end(), [](const ProbeEvent& a, const ProbeEvent& b) {
    return std::tie(a.ts_ns, a.stage, a.primitive, a.target, a.addr, a.outcome, a.seq) <
           std::tie(b.ts_ns, b.stage, b.primitive, b.target, b.addr, b.outcome, b.seq);
  });
  return out;
}

u64 Ledger::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

u64 Ledger::total(u32 primitive, ProbeOutcome o) const {
  if (primitive >= kMaxNames) return 0;
  u64 n = 0;
  for (u32 s = 0; s < kNumLedgerStages; ++s)
    n += prim_tallies_[primitive][s][static_cast<u32>(o)].load(std::memory_order_relaxed);
  return n;
}

u64 Ledger::total(u32 primitive, LedgerStage s, ProbeOutcome o) const {
  if (primitive >= kMaxNames) return 0;
  return prim_tallies_[primitive][static_cast<u32>(s)][static_cast<u32>(o)].load(
      std::memory_order_relaxed);
}

u64 Ledger::stage_total(LedgerStage s, ProbeOutcome o) const {
  return stage_tallies_[static_cast<u32>(s)][static_cast<u32>(o)].load(
      std::memory_order_relaxed);
}

u64 Ledger::total_events() const {
  u64 n = 0;
  for (u32 s = 0; s < kNumLedgerStages; ++s)
    for (u32 o = 0; o < kNumProbeOutcomes; ++o)
      n += stage_tallies_[s][o].load(std::memory_order_relaxed);
  return n;
}

void Ledger::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  archive_.clear();
  dropped_ = 0;
  names_.clear();
  for (auto& row : prim_tallies_)
    for (auto& st : row)
      for (auto& v : st) v.store(0, std::memory_order_relaxed);
  for (auto& row : stage_tallies_)
    for (auto& v : row) v.store(0, std::memory_order_relaxed);
}

// --- binary codec ------------------------------------------------------------

namespace {
constexpr char kLedgerMagic[8] = {'C', 'R', 'P', 'L', 'E', 'D', 'G', '1'};

template <typename T>
void put_raw(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
bool get_raw(const std::string& in, size_t* pos, T* v) {
  if (in.size() - *pos < sizeof *v) return false;
  std::memcpy(v, in.data() + *pos, sizeof *v);
  *pos += sizeof *v;
  return true;
}
}  // namespace

std::string Ledger::encode_binary(const std::vector<ProbeEvent>& evs) const {
  std::string out(kLedgerMagic, sizeof kLedgerMagic);
  std::vector<std::string> nm = names();
  put_raw<u32>(&out, static_cast<u32>(nm.size()));
  for (const std::string& n : nm) {
    put_raw<u16>(&out, static_cast<u16>(std::min<size_t>(n.size(), 0xFFFF)));
    out.append(n.data(), std::min<size_t>(n.size(), 0xFFFF));
  }
  put_raw<u64>(&out, static_cast<u64>(evs.size()));
  out.append(reinterpret_cast<const char*>(evs.data()), evs.size() * sizeof(ProbeEvent));
  return out;
}

bool Ledger::decode_binary(const std::string& doc, std::vector<ProbeEvent>* evs,
                           std::vector<std::string>* names) {
  if (doc.size() < sizeof kLedgerMagic ||
      std::memcmp(doc.data(), kLedgerMagic, sizeof kLedgerMagic) != 0)
    return false;
  size_t pos = sizeof kLedgerMagic;
  u32 name_count = 0;
  if (!get_raw(doc, &pos, &name_count) || name_count > kMaxNames) return false;
  std::vector<std::string> nm;
  nm.reserve(name_count);
  for (u32 i = 0; i < name_count; ++i) {
    u16 len = 0;
    if (!get_raw(doc, &pos, &len) || doc.size() - pos < len) return false;
    nm.emplace_back(doc.data() + pos, len);
    pos += len;
  }
  u64 count = 0;
  if (!get_raw(doc, &pos, &count)) return false;
  if ((doc.size() - pos) / sizeof(ProbeEvent) < count) return false;
  evs->resize(static_cast<size_t>(count));
  std::memcpy(evs->data(), doc.data() + pos, count * sizeof(ProbeEvent));
  if (names != nullptr) *names = std::move(nm);
  return true;
}

// --- JSONL codec -------------------------------------------------------------

namespace {
/// Extract the value after `"key":` on one JSONL line. Quoted values return
/// the (unescaped) string body; bare values return the raw token.
bool jfield(const std::string& line, const char* key, std::string* out) {
  std::string needle = std::string("\"") + key + "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  if (pos >= line.size()) return false;
  if (line[pos] == '"') {
    ++pos;
    std::string v;
    while (pos < line.size() && line[pos] != '"') {
      if (line[pos] == '\\' && pos + 1 < line.size()) ++pos;
      v.push_back(line[pos++]);
    }
    *out = std::move(v);
    return true;
  }
  size_t end = line.find_first_of(",}", pos);
  if (end == std::string::npos) return false;
  *out = line.substr(pos, end - pos);
  return true;
}
}  // namespace

std::string Ledger::encode_jsonl(const std::vector<ProbeEvent>& evs) const {
  std::string out;
  for (const ProbeEvent& e : evs) {
    out += strf(
        "{\"ts_ns\":%llu,\"addr\":\"0x%llx\",\"primitive\":\"%s\",\"target\":\"%s\","
        "\"stage\":\"%s\",\"outcome\":\"%s\",\"seq\":%u}\n",
        static_cast<unsigned long long>(e.ts_ns), static_cast<unsigned long long>(e.addr),
        json_escape(name_of(e.primitive)).c_str(), json_escape(name_of(e.target)).c_str(),
        ledger_stage_name(static_cast<LedgerStage>(e.stage)),
        probe_outcome_name(static_cast<ProbeOutcome>(e.outcome)), e.seq);
  }
  return out;
}

bool Ledger::decode_jsonl(const std::string& doc, std::vector<ProbeEvent>* evs) {
  evs->clear();
  size_t pos = 0;
  while (pos < doc.size()) {
    size_t nl = doc.find('\n', pos);
    if (nl == std::string::npos) nl = doc.size();
    std::string line = doc.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    std::string ts, addr, prim, tgt, stage, outcome, seq;
    if (!jfield(line, "ts_ns", &ts) || !jfield(line, "addr", &addr) ||
        !jfield(line, "primitive", &prim) || !jfield(line, "target", &tgt) ||
        !jfield(line, "stage", &stage) || !jfield(line, "outcome", &outcome) ||
        !jfield(line, "seq", &seq))
      return false;
    ProbeEvent e;
    e.ts_ns = std::strtoull(ts.c_str(), nullptr, 10);
    e.addr = std::strtoull(addr.c_str(), nullptr, 16);
    e.primitive = intern(prim);
    e.target = intern(tgt);
    LedgerStage st;
    ProbeOutcome oc;
    if (!ledger_stage_from_name(stage, &st) || !probe_outcome_from_name(outcome, &oc))
      return false;
    e.stage = static_cast<u8>(st);
    e.outcome = static_cast<u8>(oc);
    e.seq = static_cast<u32>(std::strtoul(seq.c_str(), nullptr, 10));
    evs->push_back(e);
  }
  return true;
}

bool Ledger::write_files(const std::string& path) {
  std::vector<ProbeEvent> evs = snapshot();
  bool ok = true;
  {
    std::ofstream f(path, std::ios::binary);
    if (f)
      f << encode_binary(evs);
    else
      ok = false;
  }
  {
    std::ofstream f(path + ".jsonl");
    if (f)
      f << encode_jsonl(evs);
    else
      ok = false;
  }
  return ok;
}

Ledger& Ledger::global() {
  static Ledger* g = [] {
    install_flush_handlers();
    return new Ledger();  // intentionally leaked: outlives all emitters
  }();
  return *g;
}

// --- audit -------------------------------------------------------------------

std::string LedgerAudit::summary() const {
  std::string s = strf(
      "ledger audit %s: %llu events (%llu dropped), %llu crash-outcome probes, "
      "%zu primitives",
      ok() ? "PASS" : "FAIL", static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(dropped),
      static_cast<unsigned long long>(crash_events), primitives.size());
  for (const std::string& v : violations) s += "\n  violation: " + v;
  return s;
}

void audit_events(const std::vector<ProbeEvent>& evs, const Ledger& ledger,
                  LedgerAudit* out) {
  out->events = evs.size();
  out->dropped = ledger.dropped();
  // A ledger decoded from a file has an event stream but no live tallies;
  // the stream/tally consistency check only makes sense against a ledger
  // that actually recorded the events.
  const bool have_tallies = ledger.total_events() > 0;

  // Per-(primitive, stage, outcome) counts over the materialized stream.
  using StageOutcomes = std::array<std::array<u64, kNumProbeOutcomes>, kNumLedgerStages>;
  std::vector<StageOutcomes> seen(Ledger::kMaxNames, StageOutcomes{});
  for (const ProbeEvent& e : evs) {
    if (e.primitive < Ledger::kMaxNames && e.stage < kNumLedgerStages &&
        e.outcome < kNumProbeOutcomes)
      ++seen[e.primitive][e.stage][e.outcome];
  }

  std::vector<std::string> names = ledger.names();
  for (u32 id = 0; id < Ledger::kMaxNames; ++id) {
    u64 row_total = 0, stream_total = 0, probing_crashes = 0;
    LedgerAudit::PrimitiveRow row;
    for (u32 o = 0; o < kNumProbeOutcomes; ++o) {
      u64 tallied = ledger.total(id, static_cast<ProbeOutcome>(o));
      u64 streamed = 0;
      for (u32 s = 0; s < kNumLedgerStages; ++s) {
        streamed += seen[id][s][o];
        if (o == static_cast<u32>(ProbeOutcome::kCrash) &&
            ledger_stage_is_probing(static_cast<LedgerStage>(s)))
          probing_crashes += have_tallies
                                 ? ledger.total(id, static_cast<LedgerStage>(s),
                                                ProbeOutcome::kCrash)
                                 : seen[id][s][o];
      }
      row.by_outcome[o] = have_tallies ? tallied : streamed;
      row_total += tallied;
      stream_total += streamed;
    }
    if (row_total == 0 && stream_total == 0) continue;
    row.name = id < names.size() ? names[id] : "-";

    // Zero-crash invariant: no probing-stage primitive may ever record a
    // crash outcome. (Verify-stage crash events record candidates being
    // disqualified — expected — and defense-stage ones the defender's view.)
    out->crash_events += probing_crashes;
    if (probing_crashes > 0)
      out->violations.push_back(
          strf("zero-crash invariant violated: primitive '%s' recorded %llu "
               "crash-outcome probe(s)",
               row.name.c_str(), static_cast<unsigned long long>(probing_crashes)));

    // Stream/tally consistency: with no drops the archived events must match
    // the exact tallies outcome-for-outcome; with drops they may only lag.
    for (u32 o = 0; o < kNumProbeOutcomes && have_tallies; ++o) {
      u64 tallied = ledger.total(id, static_cast<ProbeOutcome>(o));
      u64 streamed = 0;
      for (u32 s = 0; s < kNumLedgerStages; ++s) streamed += seen[id][s][o];
      bool bad = out->dropped == 0 ? streamed != tallied : streamed > tallied;
      if (bad)
        out->violations.push_back(strf(
            "event stream disagrees with tallies: primitive '%s' outcome %s has "
            "%llu archived event(s) vs %llu tallied",
            row.name.c_str(), probe_outcome_name(static_cast<ProbeOutcome>(o)),
            static_cast<unsigned long long>(streamed),
            static_cast<unsigned long long>(tallied)));
    }
    out->primitives.push_back(std::move(row));
  }
}

LedgerAudit audit_ledger(Ledger& ledger, const Registry* cross_check) {
  LedgerAudit out;
  std::vector<ProbeEvent> evs = ledger.snapshot();
  audit_events(evs, ledger, &out);

  if (cross_check != nullptr) {
    u64 scan_events = 0, scan_survive = 0, scan_crash = 0;
    for (u32 o = 0; o < kNumProbeOutcomes; ++o) {
      u64 n = ledger.stage_total(LedgerStage::kSweep, static_cast<ProbeOutcome>(o)) +
              ledger.stage_total(LedgerStage::kHunt, static_cast<ProbeOutcome>(o));
      scan_events += n;
      if (o == static_cast<u32>(ProbeOutcome::kSurvive)) scan_survive = n;
      if (o == static_cast<u32>(ProbeOutcome::kCrash)) scan_crash = n;
    }
    u64 probes = cross_check->counter_value("oracle.scan.probes");
    u64 mapped = cross_check->counter_value("oracle.scan.mapped_hits");
    u64 crashes = cross_check->counter_value("oracle.scan.crashes");
    if (probes != scan_events)
      out.violations.push_back(
          strf("counter cross-check: oracle.scan.probes=%llu but ledger has %llu "
               "sweep+hunt events",
               static_cast<unsigned long long>(probes),
               static_cast<unsigned long long>(scan_events)));
    if (crashes != scan_crash)
      out.violations.push_back(
          strf("counter cross-check: oracle.scan.crashes=%llu but ledger has %llu "
               "crash outcomes",
               static_cast<unsigned long long>(crashes),
               static_cast<unsigned long long>(scan_crash)));
    // A probe that answered "mapped" and then crashed the target is tallied
    // as crash (crash wins), so mapped_hits may exceed the survive count by
    // at most the crash count; with zero crashes the match must be exact.
    if (scan_crash == 0 ? mapped != scan_survive
                        : (mapped < scan_survive || mapped > scan_survive + scan_crash))
      out.violations.push_back(
          strf("counter cross-check: oracle.scan.mapped_hits=%llu but ledger has "
               "%llu survive outcomes (%llu crashes)",
               static_cast<unsigned long long>(mapped),
               static_cast<unsigned long long>(scan_survive),
               static_cast<unsigned long long>(scan_crash)));
  }
  return out;
}

// --- process-exit flush ------------------------------------------------------

namespace {
std::atomic<bool> g_flush_installed{false};
std::atomic<void (*)()> g_session_sink{nullptr};
std::terminate_handler g_prev_terminate = nullptr;

void terminate_bridge() {
  flush_now();
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}
}  // namespace

void set_session_flush_sink(void (*fn)()) {
  g_session_sink.store(fn, std::memory_order_release);
}

void flush_now() {
  static std::mutex m;
  std::lock_guard<std::mutex> lock(m);
  if (const char* p = std::getenv("CRP_LEDGER"); p != nullptr && *p != '\0')
    Ledger::global().write_files(p);
  if (const char* p = std::getenv("CRP_METRICS"); p != nullptr && *p != '\0') {
    std::ofstream f(p);
    if (f) f << expo::prometheus_text(Registry::global().snapshot());
  }
  if (const char* p = std::getenv("CRP_TRACE"); p != nullptr && *p != '\0') {
    if (Journal::global().size() > 0) {
      std::ofstream f(p);
      if (f) f << Journal::global().chrome_trace_json() << "\n";
    }
  }
  if (void (*fn)() = g_session_sink.load(std::memory_order_acquire); fn != nullptr) fn();
}

void install_flush_handlers() {
  if (g_flush_installed.exchange(true, std::memory_order_acq_rel)) return;
  std::atexit([] { flush_now(); });
  add_panic_hook(&flush_now);
  g_prev_terminate = std::set_terminate(&terminate_bridge);
}

}  // namespace crp::obs
