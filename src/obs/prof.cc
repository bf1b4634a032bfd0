#include "obs/prof.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>
#include <tuple>

#include "obs/obs.h"
#include "util/log.h"

namespace crp::obs {

std::string prof_flags_name(u16 flags) {
  std::string out;
  auto add = [&](u16 bit, const char* name) {
    if ((flags & bit) == 0) return;
    if (!out.empty()) out += "|";
    out += name;
  };
  add(kProfProbe, "probe");
  add(kProfTaint, "taint");
  add(kProfFilter, "filter");
  return out.empty() ? "-" : out;
}

// --- Heat shards --------------------------------------------------------------

namespace {
/// Heat key in interned-id space (names are resolved only at export).
using HeatKey = std::tuple<u32, u32, u32, u16, u16>;  // block, stage, target, sys, flags

/// Samplers spread over this many heat maps (a thread keeps its shard), so
/// concurrent samplers rarely share a lock while every count stays exact.
constexpr u32 kHeatShards = 8;
std::atomic<u32> g_next_heat_shard{0};

u64 env_interval() {
  const char* p = std::getenv("CRP_PROF");
  if (p == nullptr || *p == '\0') return 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(p, &end, 10);
  if (end == p || (end != nullptr && *end != '\0')) {
    CRP_WARN("obs", "ignoring CRP_PROF=\"%s\": not an instruction count", p);
    return 0;
  }
  return static_cast<u64>(v);
}

}  // namespace

struct Profiler::HeatShard {
  std::mutex mu;
  std::map<HeatKey, u64> heat;
};

Profiler::Profiler() : heat_(std::make_unique<HeatShard[]>(kHeatShards)) {}

Profiler::~Profiler() = default;

Profiler& Profiler::global() {
  static Profiler* g = [] {
    auto* p = new Profiler();
    p->set_interval(env_interval());
    return p;
  }();
  return *g;
}

void Profiler::record(const ProfSample& s) {
  if (!detail::recording()) return;
  thread_local const u32 t_heat_slot =
      g_next_heat_shard.fetch_add(1, std::memory_order_relaxed) % kHeatShards;
  HeatShard& sh = heat_[t_heat_slot];
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    ++sh.heat[HeatKey{s.block, s.stage, s.target, s.syscall, s.flags}];
  }
  samples_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Profiler::HeatRow> Profiler::heat() const {
  std::map<HeatKey, u64> merged;
  for (u32 i = 0; i < kHeatShards; ++i) {
    std::lock_guard<std::mutex> lock(heat_[i].mu);
    for (const auto& [k, n] : heat_[i].heat) merged[k] += n;
  }
  std::vector<std::string> names = names_.names();
  auto resolve = [&](u32 id) {
    return id < names.size() ? names[id] : std::string("-");
  };
  std::vector<HeatRow> rows;
  rows.reserve(merged.size());
  for (const auto& [k, n] : merged) {
    HeatRow r;
    r.block = resolve(std::get<0>(k));
    r.stage = resolve(std::get<1>(k));
    r.target = resolve(std::get<2>(k));
    r.syscall = resolve(std::get<3>(k));
    r.flags = std::get<4>(k);
    r.samples = n;
    rows.push_back(std::move(r));
  }
  // Order by names, not ids: id assignment follows first-use order, which
  // scheduling can permute; names cannot.
  std::sort(rows.begin(), rows.end(), [](const HeatRow& a, const HeatRow& b) {
    if (a.samples != b.samples) return a.samples > b.samples;
    return std::tie(a.block, a.stage, a.target, a.syscall, a.flags) <
           std::tie(b.block, b.stage, b.target, b.syscall, b.flags);
  });
  return rows;
}

std::vector<std::pair<std::string, u64>> Profiler::hot_blocks(size_t top_k) const {
  std::map<std::string, u64> by_block;
  for (const HeatRow& r : heat()) by_block[r.block] += r.samples;
  std::vector<std::pair<std::string, u64>> out(by_block.begin(), by_block.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (top_k != 0 && out.size() > top_k) out.resize(top_k);
  return out;
}

std::string Profiler::collapsed() const {
  std::vector<std::string> lines;
  for (const HeatRow& r : heat()) {
    std::string frame = r.block;
    if (r.flags != 0) frame += " [" + prof_flags_name(r.flags) + "]";
    lines.push_back(strf("%s;%s;%s;%s %llu", r.target.c_str(), r.stage.c_str(),
                         r.syscall.c_str(), frame.c_str(),
                         static_cast<unsigned long long>(r.samples)));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += "\n";
  }
  return out;
}

std::string Profiler::report_json(const std::string& name, size_t top_k) const {
  std::vector<HeatRow> rows = heat();
  std::vector<std::pair<std::string, u64>> blocks = hot_blocks(top_k);
  u64 total = samples();

  std::string out = "{\n";
  out += strf("\"prof\": \"%s\",\n\"schema\": 1,\n", json_escape(name).c_str());
  out += strf("\"interval\": %llu,\n\"samples\": %llu,\n",
              static_cast<unsigned long long>(interval()),
              static_cast<unsigned long long>(total));
  out += "\"hot_blocks\": [";
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (i != 0) out += ",";
    double share = total != 0 ? static_cast<double>(blocks[i].second) /
                                    static_cast<double>(total)
                              : 0.0;
    out += strf("\n  {\"rank\": %zu, \"block\": \"%s\", \"samples\": %llu, "
                "\"share\": %.6f}",
                i + 1, json_escape(blocks[i].first).c_str(),
                static_cast<unsigned long long>(blocks[i].second), share);
  }
  out += "\n],\n\"heat\": [";
  for (size_t i = 0; i < rows.size(); ++i) {
    const HeatRow& r = rows[i];
    if (i != 0) out += ",";
    out += strf("\n  {\"block\": \"%s\", \"stage\": \"%s\", \"target\": \"%s\", "
                "\"syscall\": \"%s\", \"flags\": \"%s\", \"samples\": %llu}",
                json_escape(r.block).c_str(), json_escape(r.stage).c_str(), json_escape(r.target).c_str(),
                json_escape(r.syscall).c_str(), prof_flags_name(r.flags).c_str(),
                static_cast<unsigned long long>(r.samples));
  }
  out += "\n]\n}\n";
  return out;
}

void Profiler::clear() {
  for (u32 i = 0; i < kHeatShards; ++i) {
    std::lock_guard<std::mutex> slock(heat_[i].mu);
    heat_[i].heat.clear();
  }
  names_.clear();
  samples_.store(0, std::memory_order_relaxed);
}

}  // namespace crp::obs
