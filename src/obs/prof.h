// crp::obs — deterministic virtual-time sampling profiler.
//
// ROADMAP item 1 (JIT the MiniVM hot path) needs to know WHICH guest basic
// blocks burn the interpreter's cycles, not just that the taint-trace phase
// dominates. Wall-clock sampling cannot answer that reproducibly: thread
// scheduling moves the sample points, so two runs disagree about the heat
// table. This profiler samples on *virtual* time instead — every N retired
// guest instructions (N from CRP_PROF=N), per vm::Machine — so the sample
// stream is a pure function of the executed workload and the heat table is
// bit-identical at any CRP_JOBS.
//
// One sample captures (virtual instruction count, guest PC, decoded
// basic-block id, pipeline stage, target id, active syscall, taint/probe
// flags). The PC -> block mapping is done by the sampling Machine against a
// lazily built cfg::Cfg of the containing module; everything else comes from
// the thread-local ProfContext that the pipeline stages, the campaign
// driver, the kernel's syscall dispatch, and the oracle's probe loop
// maintain via the RAII scopes below.
//
// Storage: a sample is tallied *exactly* into one of eight thread-sharded
// heat maps (context -> count); no raw sample is kept, and nothing is ever
// dropped. The heat table is what the determinism contract is stated over.
// Exports resolve interned ids back to names and sort by (count desc, names
// asc), so id assignment order (which IS scheduling-dependent) never leaks
// into an artifact.
//
// Unarmed cost: CRP_PROF unset leaves interval() == 0, every Machine skips
// arming its countdown, and the interpreter pays a single predictable
// branch per instruction — benches stay byte-identical.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/names.h"
#include "util/common.h"

namespace crp::obs {

// --- sample context bits ------------------------------------------------------

/// Taint/probe context flags carried by every sample.
inline constexpr u16 kProfProbe = 1u << 0;   // inside an oracle probe
inline constexpr u16 kProfTaint = 1u << 1;   // taint engine attached
inline constexpr u16 kProfFilter = 1u << 2;  // inside SEH filter evaluation

/// Render a flag set as "probe|taint|filter" ("-" when empty).
std::string prof_flags_name(u16 flags);

/// Thread-local sampling context: what the *host* thread is doing when a
/// Machine it drives takes a sample. Ids are Profiler::intern'd names
/// (0 = "-" / none). Maintained by the RAII scopes below.
struct ProfContext {
  u32 stage = 0;    // pipeline stage id
  u32 target = 0;   // campaign target id
  u16 syscall = 0;  // syscall name id being serviced (0 = none)
  u16 flags = 0;    // kProf* bits
};

/// One sample as the sampling Machine takes it. The heat table keys on
/// (block, stage, target, syscall, flags).
struct ProfSample {
  u32 block = 0;    // interned basic-block id ("module+0xoff", 0 = "-")
  u32 stage = 0;    // ProfContext at the sample
  u32 target = 0;
  u16 syscall = 0;
  u16 flags = 0;
};

// --- profiler ----------------------------------------------------------------

class Profiler {
 public:
  /// Interned-name capacity, above any profile today (bench_seh_funnel
  /// interns ~5k names); sample syscall ids are u16 anyway.
  static constexpr u32 kMaxNames = 1 << 16;

  /// One resolved row of the heat table. Sorted export order: samples desc,
  /// then (block, stage, target, syscall, flags) asc — deterministic
  /// regardless of id assignment order.
  struct HeatRow {
    std::string block, stage, target, syscall;
    u16 flags = 0;
    u64 samples = 0;

    bool operator==(const HeatRow&) const = default;
  };

  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// The process-wide profiler every Machine samples into. Its interval is
  /// parsed from CRP_PROF=N once, at first use.
  static Profiler& global();

  /// Sampling interval in retired instructions; 0 = disabled. Machines read
  /// this at construction, so set_interval() must run before the workload
  /// builds its Machines (tests; the env path has no such ordering issue).
  u64 interval() const { return interval_.load(std::memory_order_relaxed); }
  void set_interval(u64 n) { interval_.store(n, std::memory_order_relaxed); }
  bool enabled() const { return interval() != 0; }

  /// Id for a block/stage/target/syscall name (>= 1; creates on first use).
  /// Id 0 is reserved for "-" (none/unknown); a full table returns 0.
  u32 intern(const std::string& name) { return names_.intern(name); }
  std::string name_of(u32 id) const { return names_.name_of(id); }

  /// Calling thread's sampling context (shared by all Profiler instances;
  /// context is a property of the thread, not of a profiler). Inline: the
  /// scoped-context guards below sit on per-syscall paths.
  static ProfContext& context() {
    thread_local ProfContext ctx;
    return ctx;
  }

  /// One uncontended shard mutex for the exact heat tally. Called at
  /// sampling granularity, never per instruction.
  void record(const ProfSample& s);

  /// Exact total of recorded samples.
  u64 samples() const { return samples_.load(std::memory_order_relaxed); }

  /// Merged, name-resolved heat table (see HeatRow for the order).
  std::vector<HeatRow> heat() const;

  /// Per-block totals aggregated over contexts, sorted (samples desc, block
  /// asc); top_k == 0 returns all.
  std::vector<std::pair<std::string, u64>> hot_blocks(size_t top_k = 0) const;

  /// Collapsed-stack flamegraph text: one "target;stage;syscall;block N"
  /// line per heat row, lexicographically sorted (flamegraph.pl /
  /// speedscope ready).
  std::string collapsed() const;

  /// Ranked hot-block report ("PROF_<name>.json" body): interval, totals,
  /// top-K blocks with sample shares, and the full heat table.
  std::string report_json(const std::string& name, size_t top_k = 10) const;

  /// Reset samples, heat, and the name table (tests). Keeps the interval.
  void clear();

 private:
  struct HeatShard;  // exact (context -> count) tallies, see prof.cc

  std::atomic<u64> interval_{0};
  std::atomic<u64> samples_{0};
  NameTable names_{kMaxNames};
  std::unique_ptr<HeatShard[]> heat_;
};

// --- RAII context scopes ------------------------------------------------------

/// Replace the whole context for a scope (exec::for_each_index uses this to
/// make every task inherit the batch issuer's stage/target).
class ScopedProfContext {
 public:
  explicit ScopedProfContext(const ProfContext& ctx) : prev_(Profiler::context()) {
    Profiler::context() = ctx;
  }
  ~ScopedProfContext() { Profiler::context() = prev_; }
  ScopedProfContext(const ScopedProfContext&) = delete;
  ScopedProfContext& operator=(const ScopedProfContext&) = delete;

 private:
  ProfContext prev_;
};

class ScopedProfStage {
 public:
  /// Interns only when the profiler is enabled, so unarmed runs never touch
  /// the name table.
  explicit ScopedProfStage(const char* name)
      : prev_(std::exchange(Profiler::context().stage,
                            Profiler::global().enabled() ? Profiler::global().intern(name)
                                                         : 0)) {}
  ~ScopedProfStage() { Profiler::context().stage = prev_; }
  ScopedProfStage(const ScopedProfStage&) = delete;
  ScopedProfStage& operator=(const ScopedProfStage&) = delete;

 private:
  u32 prev_;
};

class ScopedProfTarget {
 public:
  explicit ScopedProfTarget(const std::string& name)
      : prev_(std::exchange(Profiler::context().target,
                            Profiler::global().enabled() ? Profiler::global().intern(name)
                                                         : 0)) {}
  ~ScopedProfTarget() { Profiler::context().target = prev_; }
  ScopedProfTarget(const ScopedProfTarget&) = delete;
  ScopedProfTarget& operator=(const ScopedProfTarget&) = delete;

 private:
  u32 prev_;
};

class ScopedProfSyscall {
 public:
  /// `id` is a pre-interned syscall-name id (the Kernel caches one per
  /// syscall at construction); 0 keeps the scope a near-no-op.
  explicit ScopedProfSyscall(u16 id)
      : prev_(std::exchange(Profiler::context().syscall, id)) {}
  ~ScopedProfSyscall() { Profiler::context().syscall = prev_; }
  ScopedProfSyscall(const ScopedProfSyscall&) = delete;
  ScopedProfSyscall& operator=(const ScopedProfSyscall&) = delete;

 private:
  u16 prev_;
};

class ScopedProfFlags {
 public:
  explicit ScopedProfFlags(u16 bits) : prev_(Profiler::context().flags) {
    Profiler::context().flags = static_cast<u16>(prev_ | bits);
  }
  ~ScopedProfFlags() { Profiler::context().flags = prev_; }
  ScopedProfFlags(const ScopedProfFlags&) = delete;
  ScopedProfFlags& operator=(const ScopedProfFlags&) = delete;

 private:
  u16 prev_;
};

}  // namespace crp::obs
