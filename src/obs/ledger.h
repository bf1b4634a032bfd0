// crp::obs — probe-level flight recorder.
//
// The paper's central claim is *zero-crash* probing: every memory-oracle
// probe either survives or the primitive is disqualified (§IV, Tables
// I–III). The metric registry only aggregates counters, so until now that
// invariant was asserted, never audited — no artifact recorded WHICH address
// was probed by WHICH primitive with WHAT outcome. The Ledger closes that
// gap: fixed-size ProbeEvent records emitted from every probing layer
// (oracle probes, Scanner sweeps/hunts, the pipeline verify stage, the §VII
// AV-rate detector) into an archive that can be audited, serialized (binary
// + JSONL, CRP_LEDGER=path), and cross-checked against the oracle.scan.*
// registry counters.
//
// Hot path cost: one vector append under the ledger's mutex and two relaxed
// fetch_adds (per-primitive and per-stage tallies). Past kArchiveCap events
// the archive drops the newest and counts the loss in dropped(); the tallies
// are exact regardless, so the zero-crash audit and the counter cross-check
// never degrade with archive pressure.
//
// Runtime-disabled recording turns record() into a no-op, like every other
// obs mutation.
#pragma once

#include <array>
#include <atomic>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/names.h"
#include "util/common.h"

namespace crp::obs {

class Registry;

/// What happened to the target across one probe (the flight-recorder
/// outcome alphabet). kSurvive: probe answered, target alive. kEfault: the
/// guarded -EFAULT / filter path rejected the access, target alive (still a
/// *successful* crash-resistant probe — the answer is "unmapped"). kCrash:
/// the target died — the event the zero-crash audit exists to catch.
/// kTimeout: the oracle could not classify (budget exhausted / no signal).
enum class ProbeOutcome : u8 { kSurvive = 0, kEfault, kCrash, kTimeout };
inline constexpr u32 kNumProbeOutcomes = 4;

const char* probe_outcome_name(ProbeOutcome o);
bool probe_outcome_from_name(std::string_view s, ProbeOutcome* out);

/// Which layer emitted the event.
enum class LedgerStage : u8 { kOracle = 0, kSweep, kHunt, kVerify, kDefense };
inline constexpr u32 kNumLedgerStages = 5;

const char* ledger_stage_name(LedgerStage s);
bool ledger_stage_from_name(std::string_view s, LedgerStage* out);

/// The stages that claim crash-resistance. A crash outcome here violates the
/// zero-crash invariant; a crash in kVerify records a candidate being
/// DISQUALIFIED (expected, that is what verification is for) and one in
/// kDefense records the defender observing a target death.
inline constexpr bool ledger_stage_is_probing(LedgerStage s) {
  return s == LedgerStage::kOracle || s == LedgerStage::kSweep ||
         s == LedgerStage::kHunt;
}

/// One fixed-size flight-recorder record. Trivially copyable by design: the
/// binary ledger format is these 32 bytes verbatim.
struct ProbeEvent {
  u64 ts_ns = 0;      // virtual-ns timestamp of the probing clock (0 = none)
  u64 addr = 0;       // probed guest address (0 when not address-shaped)
  u32 primitive = 0;  // interned primitive id (Ledger::intern), 0 = "-"
  u32 target = 0;     // interned target id, 0 = "-"
  u8 outcome = 0;     // ProbeOutcome
  u8 stage = 0;       // LedgerStage
  u16 reserved = 0;
  u32 seq = 0;        // archive index at append (sort tie-breaker)

  bool operator==(const ProbeEvent&) const = default;
};
static_assert(sizeof(ProbeEvent) == 32, "ledger records are fixed-size");

class Ledger {
 public:
  /// Interned-name capacity. Ids are dense and small so the per-primitive
  /// outcome tallies can live in a flat atomic array.
  static constexpr u32 kMaxNames = 256;
  /// Archived events past this (32 MiB of records) are dropped and counted.
  static constexpr size_t kArchiveCap = 1 << 20;

  Ledger() = default;
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// Id for a primitive/target name (>= 1; creates on first use). Id 0 is
  /// reserved for "-" (unknown). Returns 0 when the name table is full.
  u32 intern(const std::string& name) { return names_.intern(name); }
  std::string name_of(u32 id) const { return names_.name_of(id); }
  /// Dense name table, index == id (index 0 is "-").
  std::vector<std::string> names() const { return names_.names(); }

  /// Append one event to the archive and bump the exact per-primitive /
  /// per-stage tallies.
  void record(LedgerStage stage, ProbeOutcome outcome, u32 primitive, u32 target,
              u64 addr, u64 ts_ns);

  /// A copy of the full archive, sorted by (ts_ns, stage, primitive, target,
  /// addr, outcome) so deterministic campaigns yield byte-identical ledgers
  /// at any job count.
  std::vector<ProbeEvent> snapshot() const;

  /// Events lost to archive overflow. Tallies stay exact regardless.
  u64 dropped() const;

  /// Exact emission tallies (survive archive overflow; audit substrate).
  u64 total(u32 primitive, ProbeOutcome o) const;  // summed over stages
  u64 total(u32 primitive, LedgerStage s, ProbeOutcome o) const;
  u64 stage_total(LedgerStage s, ProbeOutcome o) const;
  u64 total_events() const;

  /// Reset archive, tallies, and the name table (tests).
  void clear();

  // --- serialization --------------------------------------------------------
  /// Binary codec: "CRPLEDG1" magic, interned name table, raw records.
  std::string encode_binary(const std::vector<ProbeEvent>& evs) const;
  static bool decode_binary(const std::string& doc, std::vector<ProbeEvent>* evs,
                            std::vector<std::string>* names);

  /// JSONL codec: one self-describing object per line (names inlined).
  std::string encode_jsonl(const std::vector<ProbeEvent>& evs) const;
  /// Parse a JSONL document produced by encode_jsonl. Interns names into
  /// *this* ledger, so decoded ids may differ from the writer's; events
  /// compare equal after a round trip through a fresh ledger.
  bool decode_jsonl(const std::string& doc, std::vector<ProbeEvent>* evs);

  /// Write the current snapshot as binary `path` + JSONL `path`.jsonl.
  bool write_files(const std::string& path);

  /// The process-wide flight recorder every probing layer reports into.
  static Ledger& global();

 private:
  NameTable names_{kMaxNames};
  mutable std::mutex mu_;  // guards archive_ and dropped_
  std::vector<ProbeEvent> archive_;
  u64 dropped_ = 0;

  std::array<
      std::array<std::array<std::atomic<u64>, kNumProbeOutcomes>, kNumLedgerStages>,
      kMaxNames>
      prim_tallies_{};
  std::array<std::array<std::atomic<u64>, kNumProbeOutcomes>, kNumLedgerStages>
      stage_tallies_{};
};

// --- audit -------------------------------------------------------------------

/// Machine-checked verdict over a ledger: the zero-crash invariant per
/// primitive, event-stream/tally consistency, and (optionally) the
/// cross-check of scan-stage tallies against the oracle.scan.* counters of a
/// Registry. Any violation is a hard failure for the caller to enforce.
struct LedgerAudit {
  u64 events = 0;   // archived events audited
  u64 dropped = 0;  // archive losses at audit time
  /// Crash outcomes in *probing* stages (oracle/sweep/hunt) — the count the
  /// zero-crash invariant requires to be 0. Verify-stage crash events
  /// (disqualified candidates) and defense-stage ones are not counted here.
  u64 crash_events = 0;
  /// primitive name -> per-outcome tallies for every primitive seen.
  struct PrimitiveRow {
    std::string name;
    u64 by_outcome[kNumProbeOutcomes] = {};
  };
  std::vector<PrimitiveRow> primitives;
  std::vector<std::string> violations;

  bool zero_crash() const { return crash_events == 0; }
  bool ok() const { return violations.empty(); }
  /// One-paragraph human summary ("audit PASS: ..." / "audit FAIL: ...").
  std::string summary() const;
};

/// Audit `ledger` (reads it via snapshot()). When `cross_check` is non-null
/// the scan-stage tallies must reconcile exactly with its oracle.scan.*
/// counters: probes == sweep+hunt events, crashes == crash outcomes, and
/// mapped_hits == survive outcomes (exact when no crashes occurred).
LedgerAudit audit_ledger(Ledger& ledger, const Registry* cross_check = nullptr);

/// Audit an already-materialized event stream against explicit tallies —
/// the pure core of audit_ledger, exposed for tests that inject doctored
/// events (e.g. a forged crash record).
void audit_events(const std::vector<ProbeEvent>& evs, const Ledger& ledger,
                  LedgerAudit* out);

// --- process-exit flush ------------------------------------------------------

/// Install the atexit / panic / terminate flush handlers (idempotent).
/// flush_now() then runs on every exit path — normal return, std::exit,
/// CRP_PANIC, uncaught exception — so buffered telemetry is never lost:
///   * CRP_LEDGER=path   -> global ledger written as binary + JSONL
///   * CRP_METRICS=path  -> global registry written as Prometheus text
///   * the active BenchSession (if any) flushes its snapshot + trace
void install_flush_handlers();
void flush_now();

/// Register/clear the flush sink the handlers invoke for the active bench
/// session (at most one; BenchSession manages this).
void set_session_flush_sink(void (*fn)());

}  // namespace crp::obs
