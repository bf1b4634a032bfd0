// crp::pipeline::JobQueue — the preemptible discovery-job engine.
//
// PR 8 splits Campaign::run_target into resumable TargetCell steps; the
// JobQueue is what drives them. One job = one (target, options) cell. Jobs
// carry a priority and a tenant; the queue always runs the
// highest-priority queued job (FIFO within a priority), and a running job
// is *preempted at its next step boundary* when a strictly
// higher-priority job arrives — the cell keeps its progress and resumes
// when the queue drains back down to it. Parking notifies the cell
// (TargetCell::on_park) so it releases anything other jobs block on —
// an ArtifactStore lease held by a parked job would deadlock the pool.
// Cancellation has the same granularity: a queued job cancels
// immediately, a running job at its next boundary.
//
// Terminal jobs are retained for STATUS/FETCH up to
// JobQueueOptions::retain_terminal (completion order, oldest forgotten
// first), so a long-running daemon's memory is bounded by active work +
// the retention window, not by total submissions.
//
// Two execution modes:
//   * workers > 0 — a thread pool drains the queue (the crpd daemon);
//   * workers == 0 — inline: wait(id) drains jobs on the *caller's*
//     thread until `id` is terminal. This is what Campaign::run_target /
//     run_all use, and it is what keeps the batch path byte-identical to
//     pre-engine behavior: same thread, same order, same chaos context
//     visibility (a thread-local chaos::ScopedPlan installed by the
//     caller governs the cells it drives).
//
// Determinism: each step runs under chaos::TaskScope(mix64(job seed, step
// index)) and ScopedCacheTenant(job tenant), so fault-injection salts and
// cache attribution derive from the job, never from which worker ran it.
//
// Progress events (submit, per-step, preemption, terminal) fan out through
// an optional sink, called outside the queue lock; the daemon turns them
// into WATCH streams. Telemetry: crpd.jobs.{submitted,done,failed,
// cancelled,preempted} and the long-standing pipeline.campaign.targets_run.
//
// The job record is also the one answer to "what is this job doing now",
// keyed by its unique id: the in-progress step and its start time, the
// park state, and two once-per-job stall flags. watchdog_pass() — run
// from the crpd tick — flags a running job whose step, or whose oldest
// ArtifactStore lease (ages recorded by the store), is older than a
// deadline, bumping crpd.watchdog.{step,lease}_stalls and dropping a
// journal instant, so a stuck lease owner that blocks every same-key
// waiter is detected, not just prevented where it was found.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "pipeline/campaign.h"

namespace crp::pipeline {

using JobId = u64;

enum class JobState : u8 { kQueued, kRunning, kDone, kFailed, kCancelled };

/// Stable protocol name: "queued", "running", "done", "failed", "cancelled".
const char* job_state_name(JobState s);
inline bool job_state_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed || s == JobState::kCancelled;
}

/// One discovery-job request.
struct JobSpec {
  TargetSpec target;
  CampaignOptions opts;
  /// Higher runs first; a strictly higher submission preempts a running
  /// job at its next step boundary.
  int priority = 0;
  /// Deterministic salt basis: step i runs under
  /// chaos::TaskScope(mix64(seed, i)).
  u64 seed = 0;
  /// Cache attribution + daemon quota bucket ("" = anonymous).
  std::string tenant;
  /// obs::JobTracer trace id (0 = untraced; batch paths leave it 0). The
  /// daemon assigns one per accepted SUBMIT; spans are recorded only when
  /// the tracer is armed *and* the job carries a nonzero trace.
  u64 trace = 0;
};

/// One progress notification (sink is called outside the queue lock).
struct JobEvent {
  JobId id = 0;
  JobState state = JobState::kQueued;
  std::string tenant;
  std::string target;
  size_t step = 0;         // steps completed so far
  size_t steps = 0;        // total steps (0 until the cell is planned)
  std::string step_name;   // last completed step ("" for submit/terminal)
  bool preempted = false;  // requeued by a higher-priority arrival
  bool cache_hit = false;  // kDone only: report was served from the cache
  u64 trace = 0;           // trace id (0 = untraced)
  // Terminal events carry the latency split (0 otherwise): queue = submit
  // -> first scheduling, run = accumulated on-worker time, total = submit
  // -> terminal. The daemon feeds these into the per-tenant SLO histograms.
  u64 queue_ns = 0;
  u64 run_ns = 0;
  u64 total_ns = 0;
};

/// Snapshot of one job (status/wait/try_result).
struct JobResult {
  JobId id = 0;
  JobState state = JobState::kQueued;
  TargetReport report;  // valid when state == kDone
  std::string error;    // set when state == kFailed
  size_t steps_done = 0;
  size_t steps_total = 0;
  std::string tenant;
  std::string target;
  int priority = 0;
  u64 trace = 0;
  // Latency split in ns. Terminal jobs report final values; live jobs an
  // in-flight view (total grows, run is time accumulated so far).
  u64 queue_ns = 0;
  u64 run_ns = 0;
  u64 total_ns = 0;
  // Watchdog view: the in-progress step ("" between steps) and when it
  // started (obs::trace_now_ns; 0 = none), whether the job sits parked by
  // preemption, and the stall flags watchdog_pass() set (kept once set).
  std::string step;
  u64 step_since_ns = 0;
  bool parked = false;
  bool step_stalled = false;
  bool lease_stalled = false;
};

struct JobQueueOptions {
  /// 0 = inline mode (wait() drains on the caller's thread); > 0 spawns
  /// that many worker threads. Negative reserved.
  int workers = 0;
  /// Cache tier for cells whose options enable caching (nullptr ->
  /// ArtifactStore::global()).
  ArtifactStore* store = nullptr;
  /// Terminal jobs retained for STATUS/FETCH. Beyond the cap the oldest
  /// terminal job (without an active wait()) is forgotten — its id then
  /// answers "unknown job". 0 = retain forever (batch tools that wait on
  /// every id; a long-running daemon should keep the cap).
  size_t retain_terminal = 1024;
};

class JobQueue {
 public:
  explicit JobQueue(JobQueueOptions opts = {});
  ~JobQueue();
  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Install the progress sink (call before submitting; replaces any
  /// previous sink). The sink runs on whichever thread drives the job.
  void set_event_sink(std::function<void(const JobEvent&)> sink);

  JobId submit(JobSpec spec);

  /// True if the cancellation will take effect (job was queued — immediate
  /// — or running — at its next step boundary). False once terminal.
  bool cancel(JobId id);

  /// Snapshot (unknown or already-forgotten id: state kFailed, error
  /// "unknown job").
  JobResult status(JobId id) const;
  /// True + snapshot when the job is terminal.
  bool try_result(JobId id, JobResult* out) const;
  /// Block until `id` is terminal. Inline mode: drives queued jobs
  /// (highest priority first) on this thread until then. An unknown (or
  /// forgotten) id returns kFailed / "unknown job" instead of blocking.
  JobResult wait(JobId id);

  /// Queued + running jobs for `tenant` (the daemon's quota input).
  size_t active(const std::string& tenant) const;
  /// Queued + running jobs across all tenants.
  size_t active_total() const;
  /// Queued (not yet running) jobs.
  size_t pending() const;
  /// Queued depth per priority, highest priority first (STATS, /jobs.json).
  std::vector<std::pair<int, size_t>> queued_depths() const;
  /// Terminal jobs currently retained for STATUS/FETCH.
  size_t retained_terminal() const;
  /// Snapshot of every known job (active + retained terminal), id order.
  std::vector<JobResult> list() const;

  /// One stall-watchdog pass: flag each running job whose in-progress
  /// step (resp. oldest lease held in the queue's ArtifactStore) started
  /// more than the deadline ago. Queued and parked jobs are idle by design
  /// and never flagged; each job is flagged at most once per kind. Every
  /// new flag bumps crpd.watchdog.{step,lease}_stalls and drops a journal
  /// instant carrying the job id. Returns the number of new flags.
  size_t watchdog_pass(u64 step_deadline_ns, u64 lease_deadline_ns);
  /// Flags raised by every watchdog_pass() so far.
  u64 watchdog_flags() const;

 private:
  struct Job {
    JobId id = 0;
    JobSpec spec;
    JobState state = JobState::kQueued;
    u64 seq = 0;  // FIFO order within a priority
    std::unique_ptr<TargetCell> cell;
    TargetReport report;
    std::string error;
    bool cancel_requested = false;
    size_t steps_done = 0;
    size_t steps_total = 0;
    int waiters = 0;  // threads inside wait(id): blocks retention eviction
    // Trace/SLO timing (obs::trace_now_ns clock).
    u64 submit_ns = 0;
    u64 first_run_ns = 0;  // 0 until first scheduled
    u64 run_ns = 0;        // accumulated on-worker time
    u64 total_ns = 0;      // set at terminal
    bool resume_pending = false;  // parked: emit a resume span next drive
    const char* step = "";    // in-progress step (the cell's static name)
    u64 step_since_ns = 0;    // 0 = no step in progress
    bool step_stalled = false;
    bool lease_stalled = false;
  };

  Job* find_locked(JobId id);
  const Job* find_locked(JobId id) const;
  Job* pick_best_locked();
  bool higher_queued_locked(int priority) const;
  /// Add/remove `job` from the queued-order index (kQueued jobs only).
  void enqueue_locked(Job* job);
  void dequeue_locked(Job* job);
  /// Park a running job back to kQueued (preemption / teardown): releases
  /// resources other jobs block on (cell->on_park) and re-indexes it.
  void park_locked(Job* job);
  /// Drop the oldest terminal jobs beyond opts_.retain_terminal.
  void evict_terminal_locked();
  static JobResult snapshot(const Job& job);
  /// Run `job` until terminal or preempted. Enters with lk held and
  /// job->state == kQueued; returns with lk held.
  void drive(std::unique_lock<std::mutex>& lk, Job* job);
  void finish_locked(std::unique_lock<std::mutex>& lk, Job* job, JobState state);
  /// Emit `ev` with the lock dropped across the sink call.
  void emit(std::unique_lock<std::mutex>& lk, const JobEvent& ev);
  void worker_loop();

  JobQueueOptions opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_work_;  // workers: new work / stop
  std::condition_variable cv_done_;  // waiters: some job reached terminal
  std::map<JobId, std::unique_ptr<Job>> jobs_;
  // Queued jobs in dispatch order: (-priority, seq, id). pick/peek are
  // O(log n) in *queued* jobs, independent of history size.
  std::set<std::tuple<int, u64, JobId>> queued_;
  // Terminal jobs in completion order, for retention eviction.
  std::deque<JobId> terminal_fifo_;
  JobId next_id_ = 1;
  u64 next_seq_ = 0;
  u64 watchdog_flags_ = 0;
  bool stop_ = false;
  std::function<void(const JobEvent&)> sink_;
  std::vector<std::thread> workers_;
};

}  // namespace crp::pipeline
