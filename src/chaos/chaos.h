// crp::chaos — deterministic fault injection for the whole pipeline.
//
// The paper's invariants are only meaningful under an adversarial fault
// model: a crash-resistant primitive must stay crash-resistant when the
// kernel returns spurious errors, when the cache hands back garbage, and
// when the scheduler reorders work. This module provides the machinery that
// *provokes* those conditions deterministically:
//
//   * a FaultPlan — a splitmix64-seeded description of which injection
//     points are live, parsed from CRP_CHAOS=seed[:points] or installed
//     programmatically (ScopedPlan for tests and chaosrun cells);
//   * FaultStreams — per-subsystem decision streams (os::Kernel syscalls,
//     vm::Machine instruction stream, pipeline::ArtifactStore blobs,
//     exec::for_each_index batches) that answer "does fault X fire here?" from
//     pure hashes of (plan seed, stream salt, occurrence index);
//   * a recorder — every fired event is captured as a (salt, point, index)
//     triple, so a failing run can be replayed *exactly* from a one-line
//     CRP_CHAOS spec listing just those events (see prop.h's shrinker).
//
// Determinism contract (extends DESIGN.md §8): the set of fired events for
// a given plan is identical at any CRP_JOBS. Stream salts are derived
// hierarchically from the work item, never from thread identity: an exec
// batch computes each task's salt as exec::task_seed(batch salt, task
// index), keyed sites (the artifact store) salt by content hash, and
// everything constructed inside a task derives from that task's salt.
//
// Cost when disabled: every injection site is guarded by one predictable
// branch on a cached bool (FaultStream::armed()); no stream state is
// consumed and no TLS is touched on the hot paths.
#pragma once

#include <atomic>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.h"

namespace crp::chaos {

// --- injection points ---------------------------------------------------------

enum class Point : u8 {
  kSysEfault = 0,    // os::Kernel: spurious -EFAULT from an I/O syscall
  kSysEintr,         // os::Kernel: spurious -EINTR (read/write/epoll_wait)
  kShortRead,        // os::Kernel: read/recv returns fewer bytes than asked
  kShortWrite,       // os::Kernel: write/send consumes fewer bytes than asked
  kVmAv,             // vm::Machine: injected access violation at an instruction count
  kVmSingleStep,     // vm::Machine: injected single-step exception
  kCacheCorrupt,     // pipeline::ArtifactStore: disk blob comes back corrupted
  kCacheTruncate,    // pipeline::ArtifactStore: disk blob comes back truncated
  kCacheRenameFail,  // pipeline::ArtifactStore: tmp-file rename fails
  kTaskOrder,        // exec::for_each_index: batch executes in a perturbed order
  kCount
};

inline constexpr u32 kNumPoints = static_cast<u32>(Point::kCount);

/// Bit for `p` in a FaultPlan::points mask.
constexpr u32 point_bit(Point p) { return 1u << static_cast<u32>(p); }

inline constexpr u32 kAllPoints = (1u << kNumPoints) - 1;
/// The I/O fault family (safe against every registered guest: servers treat
/// read/epoll errors as graceful connection close / worker exit).
inline constexpr u32 kIoPoints = point_bit(Point::kSysEfault) | point_bit(Point::kSysEintr) |
                                 point_bit(Point::kShortRead) | point_bit(Point::kShortWrite);
inline constexpr u32 kVmPoints = point_bit(Point::kVmAv) | point_bit(Point::kVmSingleStep);
inline constexpr u32 kCachePoints = point_bit(Point::kCacheCorrupt) |
                                    point_bit(Point::kCacheTruncate) |
                                    point_bit(Point::kCacheRenameFail);

/// Stable spec/CLI name, e.g. "sys-efault".
const char* point_name(Point p);
/// Inverse of point_name; also accepts the group names "io", "vm", "cache"
/// and "all" (sets several bits). Returns 0 on unknown name.
u32 points_from_name(std::string_view name);

// --- fault plan ---------------------------------------------------------------

/// One fired (or to-be-replayed) injection: stream salt, occurrence index
/// within that stream, and the point. Ordered for canonical traces.
struct FaultEvent {
  u64 salt = 0;
  u64 index = 0;
  Point point = Point::kSysEfault;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
  friend auto operator<=>(const FaultEvent&, const FaultEvent&) = default;
};

/// A complete, reproducible description of a fault-injection run.
///
/// Random mode (replay == false): every enabled point fires whenever
/// splitmix(seed, salt, point, index) hits a 1-in-`rate` residue.
/// Replay mode (replay == true): exactly the listed `events` fire, nothing
/// else — this is what a shrunk counterexample line encodes.
struct FaultPlan {
  u64 seed = 0;
  u32 rate = 64;           // 1-in-rate firing probability per site visit
  u32 points = kIoPoints;  // enabled-point bitmask (random mode)
  bool replay = false;
  std::vector<FaultEvent> events;  // replay mode: sorted, deduplicated

  bool has(Point p) const { return (points >> static_cast<u32>(p)) & 1u; }
  /// Canonical CRP_CHAOS line reproducing this plan.
  std::string str() const;
};

/// Parse "seed[:item,item,...]" where each item is a point/group name, a
/// "rate=N" override, or a replay event "point@<salt hex>.<index>". Any
/// replay event switches the plan to replay mode (and `points` becomes the
/// union of the event points). Seed accepts decimal or 0x-hex.
bool parse_plan(std::string_view text, FaultPlan* out, std::string* err = nullptr);

/// Format a replay line firing exactly `events` ("seed:pt@salt.idx,...").
std::string format_replay(u64 seed, const std::vector<FaultEvent>& events);

// --- activation ---------------------------------------------------------------

/// The plan in effect on this thread: a ScopedPlan override if one is
/// active, else the process-wide plan (CRP_CHAOS, parsed once). nullptr
/// when fault injection is off.
const FaultPlan* plan();
inline bool active() { return plan() != nullptr; }

/// Install `p` process-wide (copied; nullptr uninstalls). Overrides the
/// CRP_CHAOS environment plan. Not thread-safe against concurrent streams —
/// install before spinning up work.
void install(const FaultPlan* p);

// --- deterministic salt plumbing ----------------------------------------------

/// splitmix64 composition — the hash exec::task_seed forwards to, so salts
/// and task seeds live in one hash family.
u64 mix64(u64 a, u64 b);

/// Per-thread salt context. An exec batch scopes it per task; everything a
/// task constructs (kernels, machines) draws stream salts from it.
struct TaskCtx {
  u64 salt = 0;     // this task's base salt
  u64 batches = 0;  // batches launched from this context
  u64 streams = 0;  // streams created in this context
};
TaskCtx& task_ctx();

/// Salt for the next exec batch launched from the current context.
u64 next_batch_salt();

/// RAII: enter a task context with base salt `task_salt` (computed by the
/// exec batch as exec::task_seed(batch salt, task index)); restores the previous
/// context on destruction.
class TaskScope {
 public:
  explicit TaskScope(u64 task_salt);
  ~TaskScope();
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

 private:
  TaskCtx saved_;
};

// --- fault streams ------------------------------------------------------------

/// One subsystem's decision stream. Each call to fire(p) consumes one
/// occurrence index for `p`; the decision is a pure hash of (plan seed,
/// stream salt, point, index), so the same construction order yields the
/// same injections on every run and at every job count.
class FaultStream {
 public:
  /// Unarmed stream: fire() is one branch, nothing else.
  FaultStream() = default;

  bool armed() const { return plan_ != nullptr; }
  u64 salt() const { return salt_; }

  /// Does `p` fire at this site visit? Records + counts when it does.
  bool fire(Point p);
  /// Order-independent variant for keyed sites (artifact store): the
  /// decision depends on `key`, not on visit order. Event salt == key.
  bool fire_keyed(Point p, u64 key);
  /// Deterministic fault parameter (short-read length, corrupt offset, ...).
  u64 draw(Point p);

 private:
  friend FaultStream make_stream(u32 point_mask);
  const FaultPlan* plan_ = nullptr;
  u64 salt_ = 0;
  u64 idx_[kNumPoints] = {};
  u64 draw_idx_[kNumPoints] = {};
};

/// Armed stream (consuming one salt slot from the current TaskCtx) iff a
/// plan is active and covers a point in `point_mask`; unarmed otherwise.
/// Call once per subsystem instance, at construction.
FaultStream make_stream(u32 point_mask);

// --- recorder -----------------------------------------------------------------

/// Fired events of the current scope, sorted canonically. Under a
/// ScopedPlan this is the scope's own trace; otherwise the process trace.
std::vector<FaultEvent> injected_events();
void clear_injected_events();

/// RAII plan override for the current thread: installs `p`, resets the
/// TaskCtx to a blank context (so stream salts are reproducible no matter
/// what ran before), and gives the scope a private event recorder. Used by
/// tests and by chaosrun cells running different seeds concurrently.
/// exec::for_each_index carries the override (and recorder) into its helper
/// threads for the tasks of batches issued under the scope.
class ScopedPlan {
 public:
  explicit ScopedPlan(FaultPlan p);
  ~ScopedPlan();
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;

  const FaultPlan& plan() const { return plan_; }
  /// Events fired under this scope so far, sorted canonically.
  std::vector<FaultEvent> events() const;

 private:
  FaultPlan plan_;
  TaskCtx saved_ctx_;
  const FaultPlan* saved_plan_;
  std::vector<FaultEvent>* saved_recorder_;
  std::vector<FaultEvent> recorded_;
};

/// The calling thread's ScopedPlan override and event recorder (both null
/// outside any ScopedPlan).
struct ThreadPlan {
  const FaultPlan* plan = nullptr;
  std::vector<FaultEvent>* recorder = nullptr;
};
ThreadPlan thread_plan();

/// RAII: adopt another thread's ThreadPlan on this thread.
/// exec::for_each_index scopes one per task with the batch issuer's, so
/// helper threads inject and record exactly as the issuing thread would.
class ScopedThreadPlan {
 public:
  explicit ScopedThreadPlan(ThreadPlan p);
  ~ScopedThreadPlan();
  ScopedThreadPlan(const ScopedThreadPlan&) = delete;
  ScopedThreadPlan& operator=(const ScopedThreadPlan&) = delete;

 private:
  ThreadPlan saved_;
};

}  // namespace crp::chaos
