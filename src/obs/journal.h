// Bounded ring-buffer event journal, exportable as Chrome trace_event JSON
// (load the file in about:tracing or https://ui.perfetto.dev).
//
// Events are cheap to emit but not free (one mutex + one string copy), so
// the journal is used at *operation* granularity — one event per oracle
// probe, per SAT query, per bench phase — never per instruction. When the
// ring is full the oldest events are overwritten and `dropped()` counts the
// loss, so memory stays bounded on arbitrarily long campaigns.
//
// Timestamps are caller-supplied microseconds. Probe campaigns use the
// Kernel's *virtual* clock (instruction-derived, deterministic); bench
// phases use wall time. The exporter sorts events by timestamp, so a trace
// mixing clock domains still loads cleanly, and traces from deterministic
// runs are bit-identical.
#pragma once

#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "util/common.h"

namespace crp::obs {

/// Fixed lane count for task-derived trace tids (lane = 1 + task % lanes).
/// A fixed, job-count-independent modulus keeps traces from jobs=1 and
/// jobs=8 runs on identical lanes.
inline constexpr u32 kJournalTaskLanes = 16;

/// Deterministic trace lane of the calling thread. Events emitted with
/// tid == 0 adopt it, so nested spans (e.g. oracle probes inside an exec
/// task) land on their task's lane without plumbing a tid through every
/// layer. Lane 0 (the default) is the main/untracked lane.
u32 journal_thread_lane();
void set_journal_thread_lane(u32 lane);

/// RAII lane switch; exec::for_each_index scopes one per task, derived from the
/// task id (never std::thread::id — thread identity is scheduling-dependent
/// and would break trace determinism across runs and job counts).
class ScopedJournalLane {
 public:
  explicit ScopedJournalLane(u32 lane) : prev_(journal_thread_lane()) {
    set_journal_thread_lane(lane);
  }
  ~ScopedJournalLane() { set_journal_thread_lane(prev_); }
  ScopedJournalLane(const ScopedJournalLane&) = delete;
  ScopedJournalLane& operator=(const ScopedJournalLane&) = delete;

 private:
  u32 prev_;
};

struct TraceEvent {
  std::string name;
  std::string cat;
  char phase = 'X';  // 'X' complete, 'i' instant, 'C' counter
  bool arg_unsigned = false;  // render arg as u64 (hash-valued args)
  u64 ts_us = 0;
  u64 dur_us = 0;     // 'X' only
  u64 tid = 0;
  std::string arg_name;  // optional single numeric arg
  i64 arg = 0;
};

/// Chrome trace_event "JSON Array Format" of `events`, stably sorted by
/// ts_us, names escaped. The one writer behind Journal::chrome_trace_json
/// and JobTracer::chrome_trace_json.
std::string write_chrome_trace(std::vector<TraceEvent> events);

class Journal {
 public:
  explicit Journal(size_t capacity = 1 << 16) : capacity_(capacity) {}

  /// Append a complete ('X') span event.
  void span(const std::string& name, const std::string& cat, u64 ts_us, u64 dur_us,
            u32 tid = 0, const std::string& arg_name = {}, i64 arg = 0);
  /// Append an instant ('i') event.
  void instant(const std::string& name, const std::string& cat, u64 ts_us, u32 tid = 0,
               const std::string& arg_name = {}, i64 arg = 0);
  void emit(TraceEvent ev);

  size_t size() const;
  size_t capacity() const { return capacity_; }
  u64 dropped() const;
  void clear();

  /// Copy of the buffered events in emission order (tests, live telemetry).
  std::vector<TraceEvent> events() const;

  /// Chrome trace_event "JSON Array Format": events sorted by ts_us.
  std::string chrome_trace_json() const;

  /// The process-wide journal; benches export it via BenchSession.
  static Journal& global();

 private:
  size_t capacity_;
  mutable std::mutex mu_;
  std::deque<TraceEvent> ring_;
  u64 dropped_ = 0;
};

}  // namespace crp::obs
