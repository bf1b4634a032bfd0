// crp::pipeline::ArtifactStore — content-addressed caching of stage outputs.
//
// Generalizes the PR 2 `filter_body_hash` verdict memo from "one map inside
// FilterClassifier" to a campaign-wide service: any pipeline stage whose
// output is a pure function of its input bytes and its configuration can
// publish that output under the key (stage id, input hash, config hash) and
// skip recomputation the next time the same corpus flows through the same
// stage. Repeated campaigns over shared corpora (the common case: every
// bench and example re-scans the same five servers and re-classifies the
// same DLL populations) then cost one lookup instead of a taint-traced
// workload run or a symbolic-execution sweep.
//
// Addressing is *content*-based: input hashes cover the serialized image
// bytes / corpus spec, never file names or timestamps, so a single flipped
// byte in a target image changes the key and invalidates the entry
// (tested in tests/test_pipeline.cc).
//
// The store is also the shared tier under the multi-tenant crpd daemon:
//   * one mutex guards the memory tier, the lease set and the per-tenant
//     stats, and is held for map operations only. A job reads or takes
//     one artifact, its class result (plus its plan with plans on), so
//     there is little traffic to spread over more locks;
//   * `acquire`/`finish`/`abort_claim` implement a single-writer lease per
//     key: when N jobs race on the same cold artifact, exactly one
//     computes while the rest block and are handed the finished value (a
//     hit) — the "duplicate submission costs one computation" property the
//     daemon advertises. Each lease records which job took it and when
//     (held_leases()), which is where the crpd stall watchdog reads lease
//     ages;
//   * hit/miss traffic is additionally attributed to the calling job's
//     tenant (obs::current_trace_job(), installed by the JobQueue) as
//     `pipeline.cache.tenant.<t>.{hits,misses}`. Attribution is capped at
//     kMaxAttributedTenants distinct tenants (registry counters live
//     forever; client-minted names must not grow them unboundedly) —
//     traffic beyond the cap still counts in the global totals;
//   * disk-tier file I/O never runs under the store lock: the reader takes
//     the key's inflight lease, reads unlocked, and publishes on relock,
//     so a slow disk stalls only that key.
//
// Storage tiers:
//   * in-memory map — always on (per process);
//   * optional disk tier — set CRP_CACHE_DIR to persist artifacts across
//     processes (one file per key, write-tmp-then-rename); this is what
//     makes a *second* bench run warm. On-disk blobs carry a "CRPART1"
//     magic + FNV-1a checksum header: a corrupted, truncated or
//     legacy-format file is *detected* (pipeline.cache.corrupt), dropped,
//     and treated as a miss — the stage recomputes instead of decoding
//     garbage. CRP_CACHE_MAX_MB caps the disk tier: least-recently-used
//     blobs are evicted after each store (pipeline.cache.evictions).
//
// Kill switch: CRP_CACHE=0 disables the store entirely — lookups miss
// without counting and stores are dropped — so any suspected cache bug can
// be ruled out in one rerun. Hit/miss/store traffic is published as
// `pipeline.cache.{hits,misses,stores}` in the global obs registry.
#pragma once

#include <atomic>
#include <condition_variable>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "chaos/chaos.h"
#include "util/common.h"

namespace crp::obs {
class Counter;
}  // namespace crp::obs

namespace crp::pipeline {

/// FNV-1a 64-bit over raw bytes, seedable for chaining.
inline constexpr u64 kFnvOffset = 0xcbf29ce484222325ull;
u64 hash_bytes(const void* data, size_t n, u64 seed = kFnvOffset);

/// Incremental content hasher for composite keys (a corpus = many blobs,
/// a config = several scalar fields). Order-sensitive by design.
class Hasher {
 public:
  Hasher& bytes(const void* data, size_t n) {
    h_ = hash_bytes(data, n, h_);
    return *this;
  }
  Hasher& str(std::string_view s) { return bytes(s.data(), s.size()); }
  Hasher& u64v(u64 v) { return bytes(&v, sizeof v); }
  Hasher& f64(double v) { return bytes(&v, sizeof v); }
  u64 digest() const { return h_; }

 private:
  u64 h_ = kFnvOffset;
};

/// Content address of one stage output.
struct ArtifactKey {
  std::string stage;    // stage id, e.g. "class_report"
  u64 input_hash = 0;   // content hash of the stage input
  u64 config_hash = 0;  // hash of the stage configuration

  /// Stable file/map name: "<stage>-<input:016x>-<config:016x>".
  std::string str() const;
};

/// Outcome of ArtifactStore::acquire.
enum class Acquire {
  kHit,     // *value filled; nothing to compute or release
  kOwner,   // caller holds the single-writer lease: compute, then
            // finish() (publishes + wakes waiters) or abort_claim()
  kBypass,  // store disabled: compute, do not call finish/abort
};

class ArtifactStore {
 public:
  /// Reads CRP_CACHE (anything other than "0"/"" -> enabled),
  /// CRP_CACHE_DIR (empty -> memory-only) and CRP_CACHE_MAX_MB (0/unset ->
  /// unbounded disk tier) at construction.
  ArtifactStore();

  /// Overrides for tests and embedding; both shadow the env settings.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_dir(std::string dir);
  const std::string& dir() const { return dir_; }
  /// Disk-tier size cap in bytes (0 = unbounded). Shadows CRP_CACHE_MAX_MB.
  void set_max_disk_bytes(u64 cap);

  /// True + fills *value on a hit (memory first, then disk). Waits out
  /// another caller's lease on the key like acquire(), but never keeps
  /// one. A disabled store always returns false and counts nothing (pure
  /// bypass).
  bool lookup(const ArtifactKey& key, std::string* value);
  /// Publish an artifact (memory + disk tier when configured). Dropped
  /// silently when disabled.
  void store(const ArtifactKey& key, const std::string& value);

  /// Single-writer lease: lookup that serializes concurrent producers of
  /// the same key. kHit fills *value. kOwner grants this caller the lease —
  /// every concurrent acquire of the key blocks until the owner calls
  /// finish(key, value) (waiters wake with a hit) or abort_claim(key) (one
  /// waiter is promoted to owner and recomputes).
  /// Spans land in obs::JobTracer when the calling thread carries a traced
  /// job context (obs::ScopedTraceJob, installed by the JobQueue): kOwner
  /// -> lease_acquire (this job computes), kHit -> lease_coalesce (this
  /// job replays), plus lease_wait covering any time blocked behind
  /// another job's in-flight lease.
  Acquire acquire(const ArtifactKey& key, std::string* value);
  void finish(const ArtifactKey& key, const std::string& value);
  void abort_claim(const ArtifactKey& key);

  /// When each job's oldest held lease was taken (obs::trace_now_ns),
  /// keyed by the id of the job whose drive session took it
  /// (obs::current_trace_job().job). Leases taken outside a job are not
  /// listed. The JobQueue stall watchdog reads lease ages here.
  std::map<u64, u64> held_leases() const;

  u64 hits() const { return hits_.load(std::memory_order_relaxed); }
  u64 misses() const { return misses_.load(std::memory_order_relaxed); }
  u64 stores() const { return stores_.load(std::memory_order_relaxed); }
  /// Disk blobs rejected by the header/checksum validation (each also
  /// counts as a miss: the caller recomputes).
  u64 corrupt() const { return corrupt_.load(std::memory_order_relaxed); }
  /// Disk blobs evicted by the CRP_CACHE_MAX_MB LRU cap.
  u64 evictions() const { return evictions_.load(std::memory_order_relaxed); }
  size_t size() const;

  /// Per-tenant traffic: each hit or miss counts for the tenant in the job
  /// context of the thread that caused it (obs::current_trace_job()).
  /// 0 for an unknown tenant.
  u64 tenant_hits(const std::string& tenant) const;
  u64 tenant_misses(const std::string& tenant) const;

  /// Drop every in-memory artifact and zero the traffic counters (the disk
  /// tier, if any, is left untouched). Intended for tests.
  void clear();

  /// The process-wide store every Campaign uses by default.
  static ArtifactStore& global();

 private:
  struct Lease {
    u64 job = 0;  // obs::current_trace_job().job of the taker (0 = none)
    u64 since_ns = 0;
  };

  std::string disk_path(const std::string& name) const;
  // Disk read/validate for `name`; fills *payload on success. Called
  // without mu_ — the caller owns the key's inflight lease instead.
  bool disk_read(const std::string& name, std::string* payload);
  // The read path lookup() and acquire() share, entered with `lk` on mu_:
  // wait out another caller's lease on `name` (*waited set), then answer a
  // memory hit, or take the lease, read the disk tier unlocked, relock and
  // recheck. True on a hit (*value filled, no lease held); false on a
  // miss, with the caller holding the key's lease.
  bool probe(std::unique_lock<std::mutex>& lk, const std::string& name,
             std::string* value, bool* waited);
  // acquire() minus the tracing wrapper.
  Acquire acquire_impl(const ArtifactKey& key, std::string* value, bool* waited);
  void disk_store(const std::string& name, const std::string& value);
  // Traffic counters, global and per tenant (mu_ held).
  void count_locked(bool hit);
  // Drop `name`'s lease and wake the waiters (mu_ held).
  void release_locked(const std::string& name);

  // --- disk LRU (guarded by disk_mu_) ---
  void disk_index_scan_locked();
  void disk_touch(const std::string& name);
  void disk_forget(const std::string& name);
  void disk_add_and_evict(const std::string& name, size_t bytes);

  bool enabled_ = true;
  std::string dir_;
  std::atomic<u64> hits_{0};
  std::atomic<u64> misses_{0};
  std::atomic<u64> stores_{0};
  std::atomic<u64> corrupt_{0};
  std::atomic<u64> evictions_{0};
  obs::Counter* c_hits_;
  obs::Counter* c_misses_;
  obs::Counter* c_stores_;
  obs::Counter* c_corrupt_;
  obs::Counter* c_evictions_;

  // Per-tenant attribution (lazily materialized registry counters),
  // bounded: tenants beyond the cap are not broken out (global counters
  // still see their traffic).
  static constexpr size_t kMaxAttributedTenants = 64;
  struct TenantStat {
    u64 hits = 0;
    u64 misses = 0;
    obs::Counter* c_hits = nullptr;
    obs::Counter* c_misses = nullptr;
  };
  TenantStat* tenant_stat_locked(const std::string& t);

  // The store lock. disk_mu_ and chaos_mu_ are never taken with it held
  // (disk I/O runs unlocked under the key's inflight lease); the JobQueue
  // takes it under its own lock when a parked job releases its lease.
  mutable std::mutex mu_;
  std::condition_variable cv_;  // signaled when a lease is released
  std::unordered_map<std::string, std::string> mem_;
  std::unordered_map<std::string, Lease> inflight_;  // keys with an active lease
  std::unordered_map<std::string, TenantStat> tenants_;

  // Disk-tier LRU index: names in recency order (front = coldest), with
  // payload sizes, populated lazily from a directory scan.
  mutable std::mutex disk_mu_;
  bool disk_scanned_ = false;
  u64 disk_cap_bytes_ = 0;
  u64 disk_total_bytes_ = 0;
  std::list<std::string> disk_lru_;  // front = least recently used
  std::unordered_map<std::string, std::pair<std::list<std::string>::iterator, size_t>>
      disk_index_;

  // Chaos: disk-tier fault injection (corrupt/truncate blobs on read,
  // failed tmp-rename on store). Decisions are keyed by the artifact key
  // hash, so they are independent of lookup order and thread schedule; the
  // stream's occurrence counters are serialized by chaos_mu_ (callers hit
  // the disk tier concurrently).
  std::mutex chaos_mu_;
  chaos::FaultStream chaos_;
};

/// The store handshake every cached computation shares: acquire() answers
/// a hit or takes the key's single-writer lease, so concurrent identical
/// computations run once and the other callers are handed the result;
/// publish() stores the computed document and drops the lease. A lease
/// still held when the CacheLease dies (its step threw, or the job was
/// cancelled) is released, promoting the next waiter to owner.
class CacheLease {
 public:
  explicit CacheLease(ArtifactStore* store) : store_(store) {}
  ~CacheLease() { release(); }
  CacheLease(const CacheLease&) = delete;
  CacheLease& operator=(const CacheLease&) = delete;

  bool held() const { return held_; }

  /// True + *doc on a hit; on a miss this caller owns the lease.
  bool acquire(const ArtifactKey& key, std::string* doc) {
    key_ = key;
    Acquire a = store_->acquire(key_, doc);
    held_ = a == Acquire::kOwner;
    return a == Acquire::kHit;
  }
  /// Without a lease (a hit that failed to decode) the plain store
  /// replaces the stored blob.
  void publish(const std::string& doc) {
    if (held_) store_->finish(key_, doc);
    else store_->store(key_, doc);
    held_ = false;
  }
  void release() {
    if (held_) store_->abort_claim(key_);
    held_ = false;
  }

 private:
  ArtifactStore* store_;
  ArtifactKey key_;
  bool held_ = false;
};

}  // namespace crp::pipeline
