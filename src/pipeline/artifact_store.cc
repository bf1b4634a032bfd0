#include "pipeline/artifact_store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/obs.h"
#include "obs/trace.h"

namespace crp::pipeline {

u64 hash_bytes(const void* data, size_t n, u64 seed) {
  const u8* p = static_cast<const u8*>(data);
  u64 h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x00000100000001b3ull;  // FNV prime
  }
  return h;
}

std::string ArtifactKey::str() const {
  return strf("%s-%016llx-%016llx", stage.c_str(),
              static_cast<unsigned long long>(input_hash),
              static_cast<unsigned long long>(config_hash));
}

namespace {

// On-disk artifact header: 8-byte magic + 8-byte little-endian FNV-1a of
// the payload. Anything that fails validation (legacy headerless files
// included) is treated as corruption: detected, counted, recomputed.
constexpr char kDiskMagic[8] = {'C', 'R', 'P', 'A', 'R', 'T', '1', '\0'};
constexpr size_t kDiskHeader = 16;

void put_le64(char* out, u64 v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<char>(v >> (8 * i));
}

u64 get_le64(const char* in) {
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(static_cast<u8>(in[i])) << (8 * i);
  return v;
}

}  // namespace

ArtifactStore::ArtifactStore()
    : c_hits_(&obs::Registry::global().counter("pipeline.cache.hits")),
      c_misses_(&obs::Registry::global().counter("pipeline.cache.misses")),
      c_stores_(&obs::Registry::global().counter("pipeline.cache.stores")),
      c_corrupt_(&obs::Registry::global().counter("pipeline.cache.corrupt")),
      c_evictions_(&obs::Registry::global().counter("pipeline.cache.evictions")),
      chaos_(chaos::make_stream(chaos::kCachePoints)) {
  if (const char* env = std::getenv("CRP_CACHE")) {
    if (env[0] == '0' && env[1] == '\0') enabled_ = false;
  }
  if (const char* env = std::getenv("CRP_CACHE_DIR")) {
    if (env[0] != '\0') set_dir(env);
  }
  if (const char* env = std::getenv("CRP_CACHE_MAX_MB")) {
    char* end = nullptr;
    unsigned long long mb = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') disk_cap_bytes_ = mb * 1024ull * 1024ull;
  }
}

void ArtifactStore::set_dir(std::string dir) {
  std::lock_guard<std::mutex> lk(disk_mu_);
  dir_ = std::move(dir);
  disk_scanned_ = false;  // the LRU index belongs to the old directory
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);  // best-effort: a failed
    if (ec) dir_.clear();  // disk tier degrades to memory-only, never throws
  }
}

void ArtifactStore::set_max_disk_bytes(u64 cap) {
  std::lock_guard<std::mutex> lk(disk_mu_);
  disk_cap_bytes_ = cap;
  disk_scanned_ = false;  // rebuild the index under the new cap
}

std::string ArtifactStore::disk_path(const std::string& name) const {
  return dir_ + "/" + name + ".artifact";
}

ArtifactStore::TenantStat* ArtifactStore::tenant_stat_locked(const std::string& t) {
  auto it = tenants_.find(t);
  if (it == tenants_.end()) {
    // Cap the attributed-tenant set: tenant names are client-minted, and
    // each attributed tenant materializes two registry counters that live
    // forever. Beyond the cap, traffic still counts globally — it just
    // stops being broken out per tenant.
    if (tenants_.size() >= kMaxAttributedTenants) return nullptr;
    it = tenants_.emplace(t, TenantStat{}).first;
    it->second.c_hits = &obs::Registry::global().counter(
        strf("pipeline.cache.tenant.%s.hits", t.c_str()));
    it->second.c_misses = &obs::Registry::global().counter(
        strf("pipeline.cache.tenant.%s.misses", t.c_str()));
  }
  return &it->second;
}

void ArtifactStore::count_locked(bool hit) {
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  (hit ? c_hits_ : c_misses_)->inc();
  const std::string& t = obs::current_trace_job().tenant;
  if (t.empty()) return;
  TenantStat* ts = tenant_stat_locked(t);
  if (ts == nullptr) return;
  ++(hit ? ts->hits : ts->misses);
  (hit ? ts->c_hits : ts->c_misses)->inc();
}

u64 ArtifactStore::tenant_hits(const std::string& tenant) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.hits;
}

u64 ArtifactStore::tenant_misses(const std::string& tenant) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.misses;
}

bool ArtifactStore::disk_read(const std::string& name, std::string* payload) {
  // Blocking file I/O — never called with mu_ held; the caller holds the
  // key's inflight lease instead, which keeps single-reader semantics
  // without stalling other keys.
  std::string path;
  {
    std::lock_guard<std::mutex> dlk(disk_mu_);
    if (dir_.empty()) return false;
    path = disk_path(name);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string raw = ss.str();
  in.close();

  // Chaos: damage the blob as a failing disk would, keyed by the artifact
  // key so the decision is schedule-independent.
  {
    std::lock_guard<std::mutex> clk(chaos_mu_);
    u64 kh = hash_bytes(name.data(), name.size());
    if (!raw.empty() && chaos_.fire_keyed(chaos::Point::kCacheTruncate, kh))
      raw.resize(chaos_.draw(chaos::Point::kCacheTruncate) % raw.size());
    if (!raw.empty() && chaos_.fire_keyed(chaos::Point::kCacheCorrupt, kh)) {
      u64 d = chaos_.draw(chaos::Point::kCacheCorrupt);
      raw[d % raw.size()] ^= static_cast<char>(0x80u | (d >> 56));
    }
  }

  bool valid = raw.size() >= kDiskHeader &&
               std::memcmp(raw.data(), kDiskMagic, sizeof kDiskMagic) == 0 &&
               get_le64(raw.data() + 8) ==
                   hash_bytes(raw.data() + kDiskHeader, raw.size() - kDiskHeader);
  if (!valid) {
    // Detected corruption (or a pre-checksum legacy file): drop it so the
    // recomputed artifact replaces it, and fall through to a miss.
    std::remove(path.c_str());
    disk_forget(name);
    corrupt_.fetch_add(1, std::memory_order_relaxed);
    c_corrupt_->inc();
    return false;
  }
  *payload = raw.substr(kDiskHeader);
  disk_touch(name);
  return true;
}

bool ArtifactStore::lookup(const ArtifactKey& key, std::string* value) {
  if (!enabled_) return false;
  std::string name = key.str();
  std::unique_lock<std::mutex> lk(mu_);
  bool waited = false;
  if (probe(lk, name, value, &waited)) return true;
  release_locked(name);
  return false;
}

Acquire ArtifactStore::acquire(const ArtifactKey& key, std::string* value) {
  obs::JobTracer& jt = obs::JobTracer::global();
  const obs::TraceJobCtx& ctx = obs::current_trace_job();
  if (ctx.trace == 0 || !jt.armed()) {
    bool waited = false;
    return acquire_impl(key, value, &waited);
  }
  u64 t0 = obs::trace_now_ns();
  bool waited = false;
  Acquire a = acquire_impl(key, value, &waited);
  u64 t1 = obs::trace_now_ns();
  // arg identifies the artifact; label the producing stage. The span set a
  // job emits depends only on (key, store state), never on worker count.
  u64 kh = key.input_hash ^ key.config_hash;
  u32 label = jt.intern(key.stage);
  if (waited)
    jt.record(ctx.trace, ctx.job, obs::SpanKind::kLeaseWait, label, kh, t0, t1);
  if (a == Acquire::kOwner)
    jt.record(ctx.trace, ctx.job, obs::SpanKind::kLeaseAcquire, label, kh, t0, t1);
  else if (a == Acquire::kHit)
    jt.record(ctx.trace, ctx.job, obs::SpanKind::kLeaseCoalesce, label, kh, t0, t1);
  return a;
}

std::map<u64, u64> ArtifactStore::held_leases() const {
  std::map<u64, u64> out;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [name, lease] : inflight_) {
    if (lease.job == 0) continue;
    auto [it, fresh] = out.emplace(lease.job, lease.since_ns);
    if (!fresh) it->second = std::min(it->second, lease.since_ns);
  }
  return out;
}

Acquire ArtifactStore::acquire_impl(const ArtifactKey& key, std::string* value,
                                    bool* waited) {
  if (!enabled_) return Acquire::kBypass;
  std::string name = key.str();
  std::unique_lock<std::mutex> lk(mu_);
  return probe(lk, name, value, waited) ? Acquire::kHit : Acquire::kOwner;
}

bool ArtifactStore::probe(std::unique_lock<std::mutex>& lk, const std::string& name,
                          std::string* value, bool* waited) {
  // Another caller holds the key's lease: wait for its publish (a memory
  // hit) or its release (this caller takes the lease).
  auto leased = [&] { return inflight_.count(name) != 0 && mem_.count(name) == 0; };
  if (leased()) {
    *waited = true;
    cv_.wait(lk, [&] { return !leased(); });
  }
  auto it = mem_.find(name);
  if (it == mem_.end()) {
    // Take the lease, then check the disk tier unlocked (the lease keeps
    // readers and writers of the key single-file).
    inflight_.emplace(name, Lease{obs::current_trace_job().job, obs::trace_now_ns()});
    lk.unlock();
    std::string payload;
    bool found = disk_read(name, &payload);
    lk.lock();
    // On a disk miss, a store() may have published while the probe ran.
    it = found ? mem_.insert_or_assign(name, std::move(payload)).first : mem_.find(name);
    if (it == mem_.end()) {
      count_locked(false);
      return false;
    }
    release_locked(name);
  }
  *value = it->second;
  count_locked(true);
  return true;
}

void ArtifactStore::finish(const ArtifactKey& key, const std::string& value) {
  store(key, value);
  std::lock_guard<std::mutex> lk(mu_);
  release_locked(key.str());
}

void ArtifactStore::abort_claim(const ArtifactKey& key) {
  std::lock_guard<std::mutex> lk(mu_);
  release_locked(key.str());
}

void ArtifactStore::release_locked(const std::string& name) {
  inflight_.erase(name);
  cv_.notify_all();
}

void ArtifactStore::store(const ArtifactKey& key, const std::string& value) {
  if (!enabled_) return;
  std::string name = key.str();
  {
    std::lock_guard<std::mutex> lk(mu_);
    mem_[name] = value;
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
  c_stores_->inc();
  // Disk publish happens outside the store lock: one slow write must not
  // stall memory-tier hits on other keys. Concurrent stores of the same
  // key write identical bytes (keys are content addresses), so ordering
  // does not matter.
  disk_store(name, value);
}

void ArtifactStore::disk_store(const std::string& name, const std::string& value) {
  std::string final_path;
  {
    std::lock_guard<std::mutex> dlk(disk_mu_);
    if (dir_.empty()) return;
    final_path = disk_path(name);
  }
  // Write-then-rename so a concurrent reader never sees a torn artifact.
  std::string tmp_path = final_path + ".tmp";
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out) return;
  char header[kDiskHeader];
  std::memcpy(header, kDiskMagic, sizeof kDiskMagic);
  put_le64(header + 8, hash_bytes(value.data(), value.size()));
  out.write(header, sizeof header);
  out.write(value.data(), static_cast<std::streamsize>(value.size()));
  out.close();
  bool rename_fail;
  {
    std::lock_guard<std::mutex> clk(chaos_mu_);
    u64 kh = hash_bytes(name.data(), name.size());
    rename_fail = chaos_.fire_keyed(chaos::Point::kCacheRenameFail, kh);
  }
  if (rename_fail) {
    // Chaos: the publish rename "fails" — the artifact must survive in
    // memory only and the next cold process recomputes it.
    std::remove(tmp_path.c_str());
  } else if (out.good()) {
    std::rename(tmp_path.c_str(), final_path.c_str());
    disk_add_and_evict(name, kDiskHeader + value.size());
  } else {
    std::remove(tmp_path.c_str());
  }
}

// --- disk LRU -----------------------------------------------------------------

void ArtifactStore::disk_index_scan_locked() {
  if (disk_scanned_) return;
  disk_scanned_ = true;
  disk_lru_.clear();
  disk_index_.clear();
  disk_total_bytes_ = 0;
  if (dir_.empty() || disk_cap_bytes_ == 0) return;
  // Seed recency from mtimes (name as tie-break, for determinism when a
  // whole directory was written within one clock tick).
  struct Entry {
    std::filesystem::file_time_type mtime;
    std::string name;
    size_t bytes;
  };
  std::vector<Entry> entries;
  std::error_code ec;
  for (auto& de : std::filesystem::directory_iterator(dir_, ec)) {
    if (ec) break;
    if (!de.is_regular_file(ec)) continue;
    std::string fname = de.path().filename().string();
    constexpr std::string_view kSuffix = ".artifact";
    if (fname.size() <= kSuffix.size() ||
        fname.compare(fname.size() - kSuffix.size(), kSuffix.size(), kSuffix) != 0)
      continue;
    std::error_code sec;
    auto sz = de.file_size(sec);
    if (sec) continue;
    auto mt = de.last_write_time(sec);
    if (sec) mt = std::filesystem::file_time_type::min();
    entries.push_back({mt, fname.substr(0, fname.size() - kSuffix.size()),
                       static_cast<size_t>(sz)});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.name < b.name;
  });
  for (Entry& e : entries) {
    disk_lru_.push_back(e.name);
    disk_index_[e.name] = {std::prev(disk_lru_.end()), e.bytes};
    disk_total_bytes_ += e.bytes;
  }
}

void ArtifactStore::disk_touch(const std::string& name) {
  std::lock_guard<std::mutex> lk(disk_mu_);
  if (disk_cap_bytes_ == 0) return;
  disk_index_scan_locked();
  auto it = disk_index_.find(name);
  if (it == disk_index_.end()) return;
  disk_lru_.splice(disk_lru_.end(), disk_lru_, it->second.first);
}

void ArtifactStore::disk_forget(const std::string& name) {
  std::lock_guard<std::mutex> lk(disk_mu_);
  if (disk_cap_bytes_ == 0) return;
  disk_index_scan_locked();
  auto it = disk_index_.find(name);
  if (it == disk_index_.end()) return;
  disk_total_bytes_ -= it->second.second;
  disk_lru_.erase(it->second.first);
  disk_index_.erase(it);
}

void ArtifactStore::disk_add_and_evict(const std::string& name, size_t bytes) {
  std::lock_guard<std::mutex> lk(disk_mu_);
  if (disk_cap_bytes_ == 0) return;
  disk_index_scan_locked();
  auto it = disk_index_.find(name);
  if (it != disk_index_.end()) {
    disk_total_bytes_ -= it->second.second;
    it->second.second = bytes;
    disk_lru_.splice(disk_lru_.end(), disk_lru_, it->second.first);
  } else {
    disk_lru_.push_back(name);
    disk_index_[name] = {std::prev(disk_lru_.end()), bytes};
  }
  disk_total_bytes_ += bytes;
  // Evict coldest-first until under the cap; the key just written is never
  // evicted (a cache that drops what it just stored thrashes forever).
  while (disk_total_bytes_ > disk_cap_bytes_ && !disk_lru_.empty()) {
    const std::string& victim = disk_lru_.front();
    if (victim == name) break;  // everything colder is gone; over-cap by one
    std::remove(disk_path(victim).c_str());
    auto vit = disk_index_.find(victim);
    disk_total_bytes_ -= vit->second.second;
    disk_index_.erase(vit);
    disk_lru_.pop_front();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    c_evictions_->inc();
  }
}

size_t ArtifactStore::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return mem_.size();
}

void ArtifactStore::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  mem_.clear();  // active leases (inflight_) are left intact
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  stores_.store(0, std::memory_order_relaxed);
  corrupt_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  for (auto& [t, ts] : tenants_) {
    ts.hits = 0;
    ts.misses = 0;
  }
}

ArtifactStore& ArtifactStore::global() {
  // Built without the caller's thread-local ScopedPlan: the process-wide
  // store would outlive that plan, and which caller builds it first (so
  // whose plan and salt slot its fault stream takes) depends on thread
  // timing. A process-wide plan (CRP_CHAOS) still arms it.
  static ArtifactStore* store = [] {
    chaos::ScopedThreadPlan process_plan_only({});
    return new ArtifactStore();  // intentionally leaked: outlives all users
  }();
  return *store;
}

}  // namespace crp::pipeline
