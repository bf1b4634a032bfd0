// Flight-recorder tests: record/snapshot semantics, exact tallies under
// archive overflow, multi-threaded emission, binary and JSONL codecs (round
// trip + corruption rejection), the zero-crash audit (including a doctored
// crash event and the stage scoping of the invariant), the ledger/counter
// cross-check, and file output via write_files.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/ledger.h"
#include "obs/obs.h"

namespace crp::obs {
namespace {

ProbeEvent ev(LedgerStage st, ProbeOutcome oc, u32 prim, u32 tgt, u64 addr, u64 ts) {
  ProbeEvent e;
  e.ts_ns = ts;
  e.addr = addr;
  e.primitive = prim;
  e.target = tgt;
  e.outcome = static_cast<u8>(oc);
  e.stage = static_cast<u8>(st);
  return e;
}

TEST(Ledger, RecordSnapshotTallies) {
  Ledger led;
  u32 prim = led.intern("nginx-recv");
  u32 tgt = led.intern("nginx");
  led.record(LedgerStage::kSweep, ProbeOutcome::kSurvive, prim, tgt, 0x1000, 10);
  led.record(LedgerStage::kSweep, ProbeOutcome::kEfault, prim, tgt, 0x2000, 20);
  led.record(LedgerStage::kHunt, ProbeOutcome::kSurvive, prim, tgt, 0x3000, 30);

  std::vector<ProbeEvent> evs = led.snapshot();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].ts_ns, 10u);  // snapshot is ts-sorted
  EXPECT_EQ(evs[0].addr, 0x1000u);
  EXPECT_EQ(evs[2].stage, static_cast<u8>(LedgerStage::kHunt));

  EXPECT_EQ(led.total(prim, ProbeOutcome::kSurvive), 2u);
  EXPECT_EQ(led.total(prim, ProbeOutcome::kEfault), 1u);
  EXPECT_EQ(led.total(prim, ProbeOutcome::kCrash), 0u);
  EXPECT_EQ(led.total(prim, LedgerStage::kSweep, ProbeOutcome::kSurvive), 1u);
  EXPECT_EQ(led.stage_total(LedgerStage::kHunt, ProbeOutcome::kSurvive), 1u);
  EXPECT_EQ(led.total_events(), 3u);
  EXPECT_EQ(led.dropped(), 0u);

  // A second snapshot returns the same archive (snapshots do not consume).
  EXPECT_EQ(led.snapshot().size(), 3u);
}

TEST(Ledger, InternIsStableAndBounded) {
  Ledger led;
  EXPECT_EQ(led.name_of(0), "-");
  u32 a = led.intern("alpha");
  EXPECT_GE(a, 1u);
  EXPECT_EQ(led.intern("alpha"), a);  // idempotent
  EXPECT_EQ(led.name_of(a), "alpha");
  EXPECT_EQ(led.name_of(9999), "-");  // out of range folds to unknown
  for (u32 i = 0; i < Ledger::kMaxNames + 8; ++i)
    led.intern(strf("name-%u", i));
  EXPECT_EQ(led.intern("one-more"), 0u);  // table full folds to id 0
}

TEST(Ledger, RingOverflowDropsEventsButTalliesStayExact) {
  // Past the archive cap the newest events are dropped and counted; the
  // tallies and the audit stay exact.
  Ledger led;
  u32 prim = led.intern("p");
  const u64 n = Ledger::kArchiveCap + 100;
  for (u64 i = 0; i < n; ++i)
    led.record(LedgerStage::kSweep, ProbeOutcome::kSurvive, prim, 0, i, i);
  EXPECT_EQ(led.total(prim, ProbeOutcome::kSurvive), n);
  EXPECT_EQ(led.dropped(), 100u);
  EXPECT_EQ(led.snapshot().size(), Ledger::kArchiveCap);
  // The audit must tolerate the stream lagging the tallies when drops > 0.
  LedgerAudit audit = audit_ledger(led);
  EXPECT_TRUE(audit.ok()) << audit.summary();
  EXPECT_EQ(audit.dropped, 100u);
}

TEST(Ledger, OneThreadKeepsEveryEventBelowTheArchiveCap) {
  // One thread recording with no snapshot until the end loses nothing: the
  // only bound is the archive cap.
  Ledger led;
  u32 prim = led.intern("p");
  const u64 n = 20000;
  for (u64 i = 0; i < n; ++i)
    led.record(LedgerStage::kHunt, ProbeOutcome::kEfault, prim, 0, i, i);
  std::vector<ProbeEvent> evs = led.snapshot();
  ASSERT_EQ(evs.size(), n);
  EXPECT_EQ(led.dropped(), 0u);
  // One emitter: snapshot order is emission order and seq its index.
  for (u64 i = 0; i < n; ++i) ASSERT_EQ(evs[i].seq, i);
}

TEST(Ledger, MultiThreadedEmission) {
  Ledger led;
  u32 prim = led.intern("p");
  constexpr int kThreads = 4;
  constexpr u64 kPerThread = 500;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&led, prim, t] {
      for (u64 i = 0; i < kPerThread; ++i)
        led.record(LedgerStage::kHunt, ProbeOutcome::kEfault, prim, 0,
                   static_cast<u64>(t) * kPerThread + i, i);
    });
  for (auto& th : ts) th.join();
  EXPECT_EQ(led.total(prim, ProbeOutcome::kEfault), kThreads * kPerThread);
  EXPECT_EQ(led.snapshot().size(), kThreads * kPerThread);
  EXPECT_EQ(led.dropped(), 0u);
}

TEST(Ledger, BinaryRoundTrip) {
  Ledger led;
  u32 prim = led.intern("ie-mutx-seh");
  u32 tgt = led.intern("ie");
  led.record(LedgerStage::kOracle, ProbeOutcome::kSurvive, prim, tgt, 0xdead0000, 7);
  led.record(LedgerStage::kOracle, ProbeOutcome::kTimeout, prim, tgt, 0, 9);
  std::vector<ProbeEvent> evs = led.snapshot();

  std::string doc = led.encode_binary(evs);
  std::vector<ProbeEvent> back;
  std::vector<std::string> names;
  ASSERT_TRUE(Ledger::decode_binary(doc, &back, &names));
  EXPECT_EQ(back, evs);  // byte-exact: ids preserved
  ASSERT_GT(names.size(), prim);
  EXPECT_EQ(names[prim], "ie-mutx-seh");

  // Corruption must be rejected, not crash.
  std::string bad = doc;
  bad[0] = 'X';
  EXPECT_FALSE(Ledger::decode_binary(bad, &back, nullptr));
  EXPECT_FALSE(Ledger::decode_binary(doc.substr(0, doc.size() / 2), &back, nullptr));
  EXPECT_FALSE(Ledger::decode_binary("", &back, nullptr));
}

TEST(Ledger, JsonlRoundTrip) {
  Ledger led;
  u32 prim = led.intern("firefox-poll");
  u32 tgt = led.intern("firefox \"esc\"");  // exercises escaping
  led.record(LedgerStage::kHunt, ProbeOutcome::kSurvive, prim, tgt, 0xabc000, 100);
  led.record(LedgerStage::kHunt, ProbeOutcome::kEfault, prim, tgt, 0xdef000, 200);
  std::vector<ProbeEvent> evs = led.snapshot();
  std::string doc = led.encode_jsonl(evs);
  EXPECT_NE(doc.find("\"outcome\":\"survive\""), std::string::npos);
  EXPECT_NE(doc.find("\"stage\":\"hunt\""), std::string::npos);

  // Decode into a FRESH ledger: ids may differ, names must survive.
  Ledger fresh;
  std::vector<ProbeEvent> back;
  ASSERT_TRUE(fresh.decode_jsonl(doc, &back));
  ASSERT_EQ(back.size(), evs.size());
  for (size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(back[i].ts_ns, evs[i].ts_ns);
    EXPECT_EQ(back[i].addr, evs[i].addr);
    EXPECT_EQ(back[i].stage, evs[i].stage);
    EXPECT_EQ(back[i].outcome, evs[i].outcome);
    EXPECT_EQ(fresh.name_of(back[i].primitive), led.name_of(evs[i].primitive));
    EXPECT_EQ(fresh.name_of(back[i].target), led.name_of(evs[i].target));
  }

  Ledger sink;
  EXPECT_FALSE(sink.decode_jsonl("{\"not\":\"a ledger line\"}\n", &back));
}

TEST(Ledger, WriteFilesProducesBothEncodings) {
  Ledger led;
  u32 prim = led.intern("p");
  led.record(LedgerStage::kSweep, ProbeOutcome::kSurvive, prim, 0, 0x1000, 1);
  std::string path =
      (std::filesystem::temp_directory_path() / "crp_test_ledger.bin").string();
  ASSERT_TRUE(led.write_files(path));

  std::ifstream bin(path, std::ios::binary);
  std::stringstream bs;
  bs << bin.rdbuf();
  std::vector<ProbeEvent> evs;
  EXPECT_TRUE(Ledger::decode_binary(bs.str(), &evs, nullptr));
  EXPECT_EQ(evs.size(), 1u);

  Ledger fresh;
  std::ifstream jf(path + ".jsonl");
  std::stringstream js;
  js << jf.rdbuf();
  EXPECT_TRUE(fresh.decode_jsonl(js.str(), &evs));
  EXPECT_EQ(evs.size(), 1u);
  std::remove(path.c_str());
  std::remove((path + ".jsonl").c_str());
}

// --- audit -------------------------------------------------------------------

TEST(LedgerAudit, CleanLedgerPasses) {
  Ledger led;
  u32 prim = led.intern("nginx-recv");
  for (u64 i = 0; i < 50; ++i)
    led.record(LedgerStage::kSweep,
               i % 3 == 0 ? ProbeOutcome::kEfault : ProbeOutcome::kSurvive, prim, 0,
               0x1000 * i, i);
  LedgerAudit audit = audit_ledger(led);
  EXPECT_TRUE(audit.ok()) << audit.summary();
  EXPECT_TRUE(audit.zero_crash());
  EXPECT_EQ(audit.events, 50u);
  ASSERT_EQ(audit.primitives.size(), 1u);
  EXPECT_EQ(audit.primitives[0].name, "nginx-recv");
  EXPECT_NE(audit.summary().find("PASS"), std::string::npos);
}

TEST(LedgerAudit, CatchesRecordedCrash) {
  Ledger led;
  u32 prim = led.intern("crash-tolerant");
  led.record(LedgerStage::kOracle, ProbeOutcome::kSurvive, prim, 0, 0x1000, 1);
  led.record(LedgerStage::kOracle, ProbeOutcome::kCrash, prim, 0, 0x2000, 2);
  LedgerAudit audit = audit_ledger(led);
  EXPECT_FALSE(audit.ok());
  EXPECT_FALSE(audit.zero_crash());
  EXPECT_EQ(audit.crash_events, 1u);
  ASSERT_EQ(audit.violations.size(), 1u);
  EXPECT_NE(audit.violations[0].find("zero-crash invariant"), std::string::npos);
  EXPECT_NE(audit.violations[0].find("crash-tolerant"), std::string::npos);
  EXPECT_NE(audit.summary().find("FAIL"), std::string::npos);
}

TEST(LedgerAudit, CatchesInjectedCrashInDecodedStream) {
  // Offline path: a doctored JSONL document (no live tallies) must still
  // fail the zero-crash audit through audit_events.
  Ledger writer;
  u32 prim = writer.intern("nginx-recv");
  writer.record(LedgerStage::kSweep, ProbeOutcome::kSurvive, prim, 0, 0x1000, 1);
  std::string doc = writer.encode_jsonl(writer.snapshot());
  doc +=
      "{\"ts_ns\":99,\"addr\":\"0x2000\",\"primitive\":\"nginx-recv\","
      "\"target\":\"-\",\"stage\":\"sweep\",\"outcome\":\"crash\",\"seq\":1}\n";

  Ledger reader;
  std::vector<ProbeEvent> evs;
  ASSERT_TRUE(reader.decode_jsonl(doc, &evs));
  LedgerAudit audit;
  audit_events(evs, reader, &audit);
  EXPECT_FALSE(audit.ok());
  EXPECT_EQ(audit.crash_events, 1u);
}

TEST(LedgerAudit, VerifyAndDefenseCrashesAreNotViolations) {
  // A verify-stage crash records a candidate being DISQUALIFIED and a
  // defense-stage crash the defender's view of a target death — neither
  // breaks the probing-stage zero-crash invariant.
  Ledger led;
  u32 prim = led.intern("read");
  led.record(LedgerStage::kVerify, ProbeOutcome::kCrash, prim, 0, 0x1000, 1);
  led.record(LedgerStage::kDefense, ProbeOutcome::kCrash, prim, 0, 0x2000, 2);
  LedgerAudit audit = audit_ledger(led);
  EXPECT_TRUE(audit.ok()) << audit.summary();
  EXPECT_EQ(audit.crash_events, 0u);
  // ...but the same outcome in a probing stage is.
  led.record(LedgerStage::kHunt, ProbeOutcome::kCrash, prim, 0, 0x3000, 3);
  audit = audit_ledger(led);
  EXPECT_FALSE(audit.ok());
  EXPECT_EQ(audit.crash_events, 1u);
}

TEST(LedgerAudit, CounterCrossCheckMatchesAndMismatches) {
  Ledger led;
  Registry reg;
  u32 prim = led.intern("p");
  // 3 sweep probes: 2 survive (mapped), 1 efault.
  led.record(LedgerStage::kSweep, ProbeOutcome::kSurvive, prim, 0, 0x1000, 1);
  led.record(LedgerStage::kSweep, ProbeOutcome::kSurvive, prim, 0, 0x2000, 2);
  led.record(LedgerStage::kSweep, ProbeOutcome::kEfault, prim, 0, 0x3000, 3);
  reg.counter("oracle.scan.probes").inc(3);
  reg.counter("oracle.scan.mapped_hits").inc(2);
  reg.counter("oracle.scan.crashes");
  LedgerAudit audit = audit_ledger(led, &reg);
  EXPECT_TRUE(audit.ok()) << audit.summary();

  // Doctor a counter: the cross-check must flag the disagreement.
  reg.counter("oracle.scan.probes").inc();
  audit = audit_ledger(led, &reg);
  EXPECT_FALSE(audit.ok());
  ASSERT_FALSE(audit.violations.empty());
  EXPECT_NE(audit.violations[0].find("cross-check"), std::string::npos);
}

TEST(LedgerAudit, ClearResetsEverything) {
  Ledger led;
  u32 prim = led.intern("p");
  led.record(LedgerStage::kSweep, ProbeOutcome::kCrash, prim, 0, 0x1000, 1);
  EXPECT_FALSE(audit_ledger(led).ok());
  led.clear();
  EXPECT_EQ(led.total_events(), 0u);
  EXPECT_EQ(led.snapshot().size(), 0u);
  LedgerAudit audit = audit_ledger(led);
  EXPECT_TRUE(audit.ok());
  EXPECT_EQ(audit.events, 0u);
}

}  // namespace
}  // namespace crp::obs
