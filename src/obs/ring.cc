#include "obs/ring.h"

namespace crp::obs {

namespace detail {
namespace {

struct OwnerTable {
  std::mutex mu;
  std::unordered_map<u64, std::function<void(void*)>> live;
  u64 next_id = 1;
};

OwnerTable& owners() {
  static OwnerTable* t = new OwnerTable();  // leaked: outlives every thread exit
  return *t;
}

/// The calling thread's rings. Its destructor runs at thread exit and
/// retires each ring whose owner is still alive; the owner table lock keeps
/// an owner from being destroyed mid-retire.
struct ThreadRings {
  std::vector<std::pair<u64, void*>> held;
  ~ThreadRings() {
    OwnerTable& t = owners();
    std::lock_guard<std::mutex> lock(t.mu);
    for (const auto& [id, ring] : held)
      if (auto it = t.live.find(id); it != t.live.end()) it->second(ring);
  }
};
thread_local ThreadRings t_thread_rings;

}  // namespace

u64 register_ring_owner(std::function<void(void*)> retire) {
  OwnerTable& t = owners();
  std::lock_guard<std::mutex> lock(t.mu);
  u64 id = t.next_id++;
  t.live.emplace(id, std::move(retire));
  return id;
}

void unregister_ring_owner(u64 id) {
  OwnerTable& t = owners();
  std::lock_guard<std::mutex> lock(t.mu);
  t.live.erase(id);
}

void* find_thread_ring(u64 id) {
  for (const auto& [owner, ring] : t_thread_rings.held)
    if (owner == id) return ring;
  return nullptr;
}

void add_thread_ring(u64 id, void* ring) { t_thread_rings.held.emplace_back(id, ring); }

}  // namespace detail

u32 NameTable::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = ids_.find(name); it != ids_.end()) return it->second;
  if (names_.size() >= max_names_) return 0;  // full: fold into "-"
  u32 id = static_cast<u32>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

std::string NameTable::name_of(u32 id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return id < names_.size() ? names_[id] : std::string("-");
}

std::vector<std::string> NameTable::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {names_.begin(), names_.end()};
}

void NameTable::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ids_.clear();
  names_.assign(1, "-");
  ids_.emplace(names_.front(), 0);
}

}  // namespace crp::obs
