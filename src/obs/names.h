// crp::obs — the bounded name table shared by the Ledger, Profiler and
// JobTracer: hashed intern table with a per-owner bound. Id 0 is "-"
// (none/unknown); a full table folds new names into 0.
#pragma once

#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/common.h"

namespace crp::obs {

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
