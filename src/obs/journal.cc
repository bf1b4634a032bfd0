#include "obs/journal.h"

#include <algorithm>
#include <vector>

#include "obs/obs.h"

namespace crp::obs {

namespace {
thread_local u32 t_journal_lane = 0;
}  // namespace

u32 journal_thread_lane() { return t_journal_lane; }
void set_journal_thread_lane(u32 lane) { t_journal_lane = lane; }

void Journal::span(const std::string& name, const std::string& cat, u64 ts_us, u64 dur_us,
                   u32 tid, const std::string& arg_name, i64 arg) {
  emit({name, cat, 'X', /*arg_unsigned=*/false, ts_us, dur_us, tid, arg_name, arg});
}

void Journal::instant(const std::string& name, const std::string& cat, u64 ts_us, u32 tid,
                      const std::string& arg_name, i64 arg) {
  emit({name, cat, 'i', /*arg_unsigned=*/false, ts_us, 0, tid, arg_name, arg});
}

void Journal::emit(TraceEvent ev) {
  if (!detail::recording()) return;
  if (ev.tid == 0) ev.tid = t_journal_lane;
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() >= capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
  ring_.push_back(std::move(ev));
}

size_t Journal::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

u64 Journal::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void Journal::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  dropped_ = 0;
}

std::vector<TraceEvent> Journal::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<TraceEvent>(ring_.begin(), ring_.end());
}

std::string write_chrome_trace(std::vector<TraceEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts_us < b.ts_us; });
  std::string out = "[";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    out += i == 0 ? "\n" : ",\n";
    out += strf("{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\", \"ts\": %llu",
                json_escape(e.name).c_str(), json_escape(e.cat).c_str(), e.phase,
                static_cast<unsigned long long>(e.ts_us));
    if (e.phase == 'X') out += strf(", \"dur\": %llu", static_cast<unsigned long long>(e.dur_us));
    out += strf(", \"pid\": 1, \"tid\": %llu", static_cast<unsigned long long>(e.tid));
    if (e.phase == 'i') out += ", \"s\": \"g\"";
    if (!e.arg_name.empty())
      out += ", \"args\": {\"" + json_escape(e.arg_name) + "\": " +
             (e.arg_unsigned ? std::to_string(static_cast<u64>(e.arg)) : std::to_string(e.arg)) +
             "}";
    out += "}";
  }
  out += "\n]";
  return out;
}

std::string Journal::chrome_trace_json() const { return write_chrome_trace(events()); }

Journal& Journal::global() {
  static Journal* g = new Journal();
  return *g;
}

}  // namespace crp::obs
