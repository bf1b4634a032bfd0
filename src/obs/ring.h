// crp::obs — the event substrate shared by the Ledger, Profiler and
// JobTracer: per-thread SPSC event rings and a bounded name table.
//
// EventRing<T>: one fixed-capacity ring per producing thread, keyed by a
// per-owner unique id (never by address, so an owner destroyed and another
// allocated at the same address cannot alias a stale thread-local entry).
// The owning thread is the only producer; a drainer holding the owner's
// mutex is the only consumer. A push is lock-free; a full ring drops the
// newest event and counts it (overwriting the oldest would race the
// drainer). A thread's ring is allocated on its first push and, when the
// thread exits, drained into the owner's archive and freed — so pools built
// per call leave no memory behind. An owner destroyed before one of its
// producer threads exits is never touched by that thread's exit.
//
// NameTable: hashed intern table with a per-owner bound. Id 0 is "-"
// (none/unknown); a full table folds new names into 0.
#pragma once

#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/common.h"

namespace crp::obs {

namespace detail {

/// Live-owner table. register returns the owner's unique id; a thread's
/// exit calls `retire` on each ring it holds of a still-registered owner.
/// After unregister, no thread exit reaches the owner.
u64 register_ring_owner(std::function<void(void*)> retire);
void unregister_ring_owner(u64 id);

/// The calling thread's ring for owner `id` (nullptr if none), and the
/// record of a new one — retired into its owner when the thread exits.
void* find_thread_ring(u64 id);
void add_thread_ring(u64 id, void* ring);

}  // namespace detail

template <typename T>
class EventRing {
 public:
  using Sink = std::function<void(const T&)>;

  /// `mu` is the owner's mutex: taken here to allocate and retire rings,
  /// and held by the caller around every *_locked call. `sink` appends one
  /// drained event to the owner's archive; it always runs with `mu` held.
  EventRing(std::mutex& mu, size_t capacity, Sink sink)
      : mu_(mu), capacity_(std::max<size_t>(capacity, 8)), sink_(std::move(sink)),
        id_(detail::register_ring_owner([this](void* r) { retire(r); })) {}
  ~EventRing() { detail::unregister_ring_owner(id_); }
  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  /// Append `ev` to the calling thread's ring. `stamp(ev, n)` runs first
  /// with n = the ring's push count, drops included (a per-thread emission
  /// sequence).
  template <typename Stamp>
  void push(T ev, Stamp&& stamp) {
    Ring& r = thread_ring();
    stamp(ev, r.pushes++);
    u64 head = r.head.load(std::memory_order_relaxed);
    if (head - r.tail.load(std::memory_order_acquire) >= r.buf.size()) {
      r.dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    r.buf[static_cast<size_t>(head % r.buf.size())] = ev;
    r.head.store(head + 1, std::memory_order_release);
  }
  void push(const T& ev) { push(ev, [](T&, u64) {}); }

  /// Allocate the calling thread's ring now, so its first push stays
  /// lock-free.
  void attach_thread() { thread_ring(); }

  /// Pass every undrained event of every live ring to the sink.
  void drain_locked() {
    for (auto& r : rings_) drain(*r);
  }
  /// Events dropped on full rings, including rings already retired.
  u64 dropped_locked() const {
    u64 n = retired_dropped_;
    for (const auto& r : rings_) n += r->dropped.load(std::memory_order_relaxed);
    return n;
  }
  /// Discard undrained events and zero the drop counts.
  void clear_locked() {
    for (auto& r : rings_) {
      r->tail.store(r->head.load(std::memory_order_acquire), std::memory_order_release);
      r->dropped.store(0, std::memory_order_relaxed);
    }
    retired_dropped_ = 0;
  }
  /// Rings currently allocated: one per live thread that has pushed.
  size_t live_rings_locked() const { return rings_.size(); }

 private:
  struct Ring {
    explicit Ring(size_t cap) : buf(cap) {}
    std::vector<T> buf;
    std::atomic<u64> head{0};  // next write slot
    std::atomic<u64> tail{0};  // next read slot
    std::atomic<u64> dropped{0};
    u64 pushes = 0;  // producer-only
  };

  Ring& thread_ring() {
    if (void* r = detail::find_thread_ring(id_)) return *static_cast<Ring*>(r);
    std::lock_guard<std::mutex> lock(mu_);
    rings_.push_back(std::make_unique<Ring>(capacity_));
    detail::add_thread_ring(id_, rings_.back().get());
    return *rings_.back();
  }

  void drain(Ring& r) {
    u64 head = r.head.load(std::memory_order_acquire);
    u64 tail = r.tail.load(std::memory_order_relaxed);
    for (; tail != head; ++tail) sink_(r.buf[static_cast<size_t>(tail % r.buf.size())]);
    r.tail.store(tail, std::memory_order_release);
  }

  /// The producer thread is exiting: archive what it left, keep its drop
  /// count, free the ring.
  void retire(void* ring) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find_if(rings_.begin(), rings_.end(),
                           [ring](const auto& r) { return r.get() == ring; });
    if (it == rings_.end()) return;
    drain(**it);
    retired_dropped_ += (*it)->dropped.load(std::memory_order_relaxed);
    rings_.erase(it);
  }

  std::mutex& mu_;
  const size_t capacity_;
  const Sink sink_;
  std::vector<std::unique_ptr<Ring>> rings_;  // guarded by mu_
  u64 retired_dropped_ = 0;                   // guarded by mu_
  const u64 id_;  // last: registration publishes a fully built ring set
};

/// Hashed, bounded intern table (thread-safe).
class NameTable {
 public:
  explicit NameTable(u32 max_names) : max_names_(max_names) { clear(); }
  NameTable(const NameTable&) = delete;
  NameTable& operator=(const NameTable&) = delete;

  /// Id for `name` (>= 1; created on first use), or 0 when the table is full.
  u32 intern(std::string_view name);
  /// Name of `id`; "-" when out of range.
  std::string name_of(u32 id) const;
  /// Dense table, index == id (index 0 is "-").
  std::vector<std::string> names() const;
  /// Back to just "-".
  void clear();

 private:
  const u32 max_names_;
  mutable std::mutex mu_;
  std::deque<std::string> names_;                // stable storage for the keys
  std::unordered_map<std::string_view, u32> ids_;
};

}  // namespace crp::obs
