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
// Since PR 8 the store is a shared tier under the multi-tenant crpd
// daemon, so it is concurrency-first:
//   * the namespace is striped across kShards lock shards (keys hash to a
//     shard), so unrelated stages never contend on one mutex;
//   * `acquire`/`finish`/`abort_claim` implement a single-writer lease per
//     key: when N jobs race on the same cold artifact, exactly one
//     computes while the rest block and are handed the finished value (a
//     hit) — the "duplicate submission costs one computation" property the
//     daemon advertises. Each lease records which job took it and when
//     (held_leases()), which is where the crpd stall watchdog reads lease
//     ages;
//   * hit/miss traffic is additionally attributed to the submitting tenant
//     (ScopedCacheTenant, a thread-local) as
//     `pipeline.cache.tenant.<t>.{hits,misses}`. Attribution is capped at
//     kMaxAttributedTenants distinct tenants (registry counters live
//     forever; client-minted names must not grow them unboundedly) —
//     traffic beyond the cap still counts in the global totals;
//   * disk-tier file I/O never runs under a shard lock: the reader takes
//     the key's inflight lease, reads with the shard unlocked, and
//     publishes on relock, so a slow disk stalls only that key.
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
  std::string stage;    // stage id, e.g. "filter_classify"
  u64 input_hash = 0;   // content hash of the stage input
  u64 config_hash = 0;  // hash of the stage configuration

  /// Stable file/map name: "<stage>-<input:016x>-<config:016x>".
  std::string str() const;
};

/// Attribute cache traffic on this thread to a tenant for the duration of
/// the scope (`pipeline.cache.tenant.<t>.{hits,misses}`). Nesting restores
/// the previous tenant; the empty tenant attributes nothing extra.
class ScopedCacheTenant {
 public:
  explicit ScopedCacheTenant(std::string tenant);
  ~ScopedCacheTenant();
  ScopedCacheTenant(const ScopedCacheTenant&) = delete;
  ScopedCacheTenant& operator=(const ScopedCacheTenant&) = delete;

  /// The tenant cache traffic on this thread is attributed to ("" = none).
  static const std::string& current();

 private:
  std::string saved_;
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

  /// True + fills *value on a hit (memory first, then disk). A disabled
  /// store always returns false and counts nothing (pure bypass).
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

  /// Per-tenant traffic recorded via ScopedCacheTenant (0 for unknown).
  u64 tenant_hits(const std::string& tenant) const;
  u64 tenant_misses(const std::string& tenant) const;

  /// Drop every in-memory artifact and zero the traffic counters (the disk
  /// tier, if any, is left untouched). Intended for tests.
  void clear();

  /// The process-wide store every Campaign uses by default.
  static ArtifactStore& global();

 private:
  // Key space is striped: each shard owns the memory tier and the
  // single-writer lease set for the keys that hash to it. disk_mu_ and
  // chaos_mu_ are never taken with a shard lock held (disk I/O runs
  // unlocked under the key's inflight lease), and never shard -> shard.
  static constexpr size_t kShards = 16;
  struct Lease {
    u64 job = 0;  // obs::current_trace_job().job of the taker (0 = none)
    u64 since_ns = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;  // signaled when a lease is released
    std::unordered_map<std::string, std::string> mem;
    std::unordered_map<std::string, Lease> inflight;  // keys with an active lease
  };

  Shard& shard_for(const std::string& name);
  const Shard& shard_for(const std::string& name) const;
  std::string disk_path(const std::string& name) const;
  // Disk read/validate for `name`; fills *payload on success. Called with
  // NO shard lock held — the caller owns the key's inflight lease instead.
  bool disk_read(const std::string& name, std::string* payload);
  // acquire() minus the tracing wrapper; *waited set when the call blocked
  // on another writer's lease.
  Acquire acquire_impl(const ArtifactKey& key, std::string* value, bool* waited);
  void disk_store(const std::string& name, const std::string& value);
  void count_hit();
  void count_miss();
  /// Insert `name` into sh.inflight (shard lock held), stamped with the
  /// calling thread's job and the current time.
  static void take_lease_locked(Shard& sh, const std::string& name);
  void release_claim(const std::string& name);

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
  Shard shards_[kShards];

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
  mutable std::mutex tenant_mu_;
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
  // stream's occurrence counters are serialized by chaos_mu_ (shards hit
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
