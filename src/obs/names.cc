#include "obs/names.h"

namespace crp::obs {

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
