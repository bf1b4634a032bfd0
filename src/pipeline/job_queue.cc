#include "pipeline/job_queue.h"

#include "chaos/chaos.h"
#include "obs/journal.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace crp::pipeline {

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

JobQueue::JobQueue(JobQueueOptions opts) : opts_(opts) {
  if (opts_.store == nullptr) opts_.store = &ArtifactStore::global();
  for (int i = 0; i < opts_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

JobQueue::~JobQueue() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Queued jobs die with the queue; part-run cells release their cache
  // leases in their destructors.
}

void JobQueue::set_event_sink(std::function<void(const JobEvent&)> sink) {
  std::lock_guard<std::mutex> lk(mu_);
  sink_ = std::move(sink);
}

JobId JobQueue::submit(JobSpec spec) {
  std::unique_lock<std::mutex> lk(mu_);
  JobId id = next_id_++;
  auto job = std::make_unique<Job>();
  job->id = id;
  job->spec = std::move(spec);
  job->seq = next_seq_++;
  job->submit_ns = obs::trace_now_ns();
  JobEvent ev;
  ev.id = id;
  ev.state = JobState::kQueued;
  ev.tenant = job->spec.tenant;
  ev.target = job->spec.target.id;
  ev.trace = job->spec.trace;
  enqueue_locked(job.get());
  jobs_.emplace(id, std::move(job));
  obs::Registry::global().counter("crpd.jobs.submitted").inc();
  cv_work_.notify_one();
  emit(lk, ev);
  return id;
}

bool JobQueue::cancel(JobId id) {
  std::unique_lock<std::mutex> lk(mu_);
  Job* job = find_locked(id);
  if (job == nullptr || job_state_terminal(job->state)) return false;
  if (job->state == JobState::kQueued) {
    finish_locked(lk, job, JobState::kCancelled);
    return true;
  }
  job->cancel_requested = true;  // honored at the next step boundary
  return true;
}

JobQueue::Job* JobQueue::find_locked(JobId id) {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

const JobQueue::Job* JobQueue::find_locked(JobId id) const {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

JobResult JobQueue::snapshot(const Job& job) {
  JobResult r;
  r.id = job.id;
  r.state = job.state;
  r.report = job.report;
  r.error = job.error;
  r.steps_done = job.steps_done;
  r.steps_total = job.steps_total;
  r.tenant = job.spec.tenant;
  r.target = job.spec.target.id;
  r.priority = job.spec.priority;
  r.trace = job.spec.trace;
  r.run_ns = job.run_ns;
  r.step = job.step;
  r.step_since_ns = job.step_since_ns;
  r.parked = job.state == JobState::kQueued && job.resume_pending;
  r.step_stalled = job.step_stalled;
  r.lease_stalled = job.lease_stalled;
  if (job_state_terminal(job.state)) {
    // Never-scheduled terminals (cancelled while queued) spent it all waiting.
    r.queue_ns = job.first_run_ns != 0 ? job.first_run_ns - job.submit_ns
                                       : job.total_ns;
    r.total_ns = job.total_ns;
  } else if (job.submit_ns != 0) {
    u64 now = obs::trace_now_ns();
    r.queue_ns = job.first_run_ns != 0 ? job.first_run_ns - job.submit_ns
                                       : now - job.submit_ns;
    r.total_ns = now - job.submit_ns;
  }
  return r;
}

JobResult JobQueue::status(JobId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Job* job = find_locked(id);
  if (job == nullptr) {
    JobResult r;
    r.id = id;
    r.state = JobState::kFailed;
    r.error = "unknown job";
    return r;
  }
  return snapshot(*job);
}

bool JobQueue::try_result(JobId id, JobResult* out) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Job* job = find_locked(id);
  if (job == nullptr || !job_state_terminal(job->state)) return false;
  *out = snapshot(*job);
  return true;
}

size_t JobQueue::active(const std::string& tenant) const {
  std::lock_guard<std::mutex> lk(mu_);
  size_t n = 0;
  for (const auto& [id, job] : jobs_)
    if (!job_state_terminal(job->state) && job->spec.tenant == tenant) ++n;
  return n;
}

size_t JobQueue::active_total() const {
  std::lock_guard<std::mutex> lk(mu_);
  size_t n = 0;
  for (const auto& [id, job] : jobs_)
    if (!job_state_terminal(job->state)) ++n;
  return n;
}

size_t JobQueue::pending() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queued_.size();
}

std::vector<std::pair<int, size_t>> JobQueue::queued_depths() const {
  std::lock_guard<std::mutex> lk(mu_);
  // queued_ iterates by (-priority, ...): highest priority first, so the
  // depth table comes out already in dispatch order.
  std::vector<std::pair<int, size_t>> out;
  for (const auto& [neg_prio, seq, id] : queued_) {
    int prio = -neg_prio;
    if (out.empty() || out.back().first != prio) out.emplace_back(prio, 0);
    ++out.back().second;
  }
  return out;
}

size_t JobQueue::retained_terminal() const {
  std::lock_guard<std::mutex> lk(mu_);
  return terminal_fifo_.size();
}

std::vector<JobResult> JobQueue::list() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<JobResult> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(snapshot(*job));
  return out;
}

size_t JobQueue::watchdog_pass(u64 step_deadline_ns, u64 lease_deadline_ns) {
  // Lease ages live where the leases do. Read them before taking mu_ (the
  // park path takes shard locks under it), and the clock after, so no
  // age read below can be negative.
  std::map<JobId, u64> leases = opts_.store->held_leases();
  std::lock_guard<std::mutex> lk(mu_);
  const u64 now = obs::trace_now_ns();
  size_t fresh = 0;
  auto flag = [&](JobId id, const char* counter, const char* instant) {
    obs::Registry::global().counter(counter).inc();
    obs::Journal::global().instant(instant, "crpd", now / 1000, 0, "job",
                                   static_cast<i64>(id));
    ++fresh;
  };
  for (auto& [id, job] : jobs_) {
    if (job->state != JobState::kRunning) continue;
    if (!job->step_stalled && job->step_since_ns != 0 &&
        now - job->step_since_ns > step_deadline_ns) {
      job->step_stalled = true;
      flag(id, "crpd.watchdog.step_stalls", "watchdog.step_stall");
    }
    auto lease = leases.find(id);
    if (!job->lease_stalled && lease != leases.end() &&
        now - lease->second > lease_deadline_ns) {
      job->lease_stalled = true;
      flag(id, "crpd.watchdog.lease_stalls", "watchdog.lease_stall");
    }
  }
  watchdog_flags_ += fresh;
  return fresh;
}

u64 JobQueue::watchdog_flags() const {
  std::lock_guard<std::mutex> lk(mu_);
  return watchdog_flags_;
}

void JobQueue::enqueue_locked(Job* job) {
  queued_.insert({-job->spec.priority, job->seq, job->id});
}

void JobQueue::dequeue_locked(Job* job) {
  queued_.erase({-job->spec.priority, job->seq, job->id});
}

JobQueue::Job* JobQueue::pick_best_locked() {
  if (queued_.empty()) return nullptr;
  Job* job = find_locked(std::get<2>(*queued_.begin()));
  CRP_CHECK(job != nullptr && job->state == JobState::kQueued);
  return job;
}

bool JobQueue::higher_queued_locked(int priority) const {
  return !queued_.empty() && -std::get<0>(*queued_.begin()) > priority;
}

void JobQueue::emit(std::unique_lock<std::mutex>& lk, const JobEvent& ev) {
  std::function<void(const JobEvent&)> sink = sink_;
  if (!sink) return;
  lk.unlock();
  sink(ev);
  lk.lock();
}

void JobQueue::evict_terminal_locked() {
  if (opts_.retain_terminal == 0) return;
  while (terminal_fifo_.size() > opts_.retain_terminal) {
    Job* oldest = find_locked(terminal_fifo_.front());
    // A waiter inside wait(id) still needs its snapshot; stop here and
    // retry after the next completion (waits are short-lived).
    if (oldest != nullptr && oldest->waiters > 0) return;
    if (oldest != nullptr) jobs_.erase(oldest->id);
    terminal_fifo_.pop_front();
  }
}

void JobQueue::finish_locked(std::unique_lock<std::mutex>& lk, Job* job,
                             JobState state) {
  if (job->state == JobState::kQueued) dequeue_locked(job);
  job->state = state;
  job->total_ns = obs::trace_now_ns() - job->submit_ns;
  if (job->cell != nullptr) {
    job->steps_done = job->cell->next_step();
    job->steps_total = job->cell->step_count();
    if (state == JobState::kDone) job->report = std::move(job->cell->report());
    job->cell.reset();  // frees kernels/tracers and releases cache leases
  }
  auto& reg = obs::Registry::global();
  switch (state) {
    case JobState::kDone:
      reg.counter("crpd.jobs.done").inc();
      // Campaign progress, for the live telemetry endpoint (crptop renders
      // targets_run / targets_total).
      reg.counter("pipeline.campaign.targets_run").inc();
      break;
    case JobState::kFailed: reg.counter("crpd.jobs.failed").inc(); break;
    case JobState::kCancelled: reg.counter("crpd.jobs.cancelled").inc(); break;
    default: break;
  }
  if (opts_.retain_terminal != 0) {
    terminal_fifo_.push_back(job->id);
    evict_terminal_locked();
  }
  cv_done_.notify_all();
  JobEvent ev;
  ev.id = job->id;
  ev.state = state;
  ev.tenant = job->spec.tenant;
  ev.target = job->spec.target.id;
  ev.step = job->steps_done;
  ev.steps = job->steps_total;
  ev.cache_hit = state == JobState::kDone && job->report.cache_hit;
  ev.trace = job->spec.trace;
  ev.queue_ns = job->first_run_ns != 0 ? job->first_run_ns - job->submit_ns
                                       : job->total_ns;
  ev.run_ns = job->run_ns;
  ev.total_ns = job->total_ns;
  emit(lk, ev);
}

void JobQueue::park_locked(Job* job) {
  // The job may now sit queued indefinitely; drop anything other jobs
  // block on (e.g. the scan funnel's ArtifactStore lease — a parked owner
  // would deadlock every same-key waiter while those waiters occupy the
  // workers that could resume it). The cell re-acquires on its next step.
  if (job->cell != nullptr) job->cell->on_park();
  job->state = JobState::kQueued;
  enqueue_locked(job);
}

void JobQueue::drive(std::unique_lock<std::mutex>& lk, Job* job) {
  dequeue_locked(job);
  job->state = JobState::kRunning;
  obs::JobTracer& jt = obs::JobTracer::global();
  const u64 tr = job->spec.trace;
  const bool traced = tr != 0 && jt.armed();
  // Install the job context for the whole drive session, so layers with
  // no job handle (the ArtifactStore lease path — including the park-path
  // abort inside cell->on_park and the cell destructor in finish_locked)
  // attribute their spans and leases to this job.
  obs::ScopedTraceJob trace_ctx(traced ? tr : 0, job->id);
  const u64 session0 = obs::trace_now_ns();
  if (job->first_run_ns == 0) {
    job->first_run_ns = session0;
    if (traced)
      jt.record(tr, job->id, obs::SpanKind::kQueueWait, 0,
                static_cast<u64>(static_cast<i64>(job->spec.priority)),
                job->submit_ns, session0);
  } else if (job->resume_pending) {
    job->resume_pending = false;
    if (traced)
      jt.record(tr, job->id, obs::SpanKind::kResume, 0, job->steps_done,
                session0, session0);
  }
  // Accumulate on-worker time once per drive session, on every exit path.
  auto settle = [&] { job->run_ns += obs::trace_now_ns() - session0; };
  for (;;) {
    if (stop_) {
      // Queue teardown: park the job; it dies queued with the queue.
      settle();
      job->resume_pending = true;
      park_locked(job);
      return;
    }
    if (job->cancel_requested) {
      settle();
      finish_locked(lk, job, JobState::kCancelled);
      return;
    }
    if (higher_queued_locked(job->spec.priority)) {
      // Preempt at the step boundary: the cell keeps its progress and the
      // job re-enters the queue behind the higher-priority arrival.
      settle();
      JobId preemptor = std::get<2>(*queued_.begin());
      job->resume_pending = true;
      park_locked(job);
      if (traced) {
        u64 now = obs::trace_now_ns();
        jt.record(tr, job->id, obs::SpanKind::kPark, 0, preemptor, now, now);
      }
      obs::Registry::global().counter("crpd.jobs.preempted").inc();
      cv_work_.notify_all();
      JobEvent ev;
      ev.id = job->id;
      ev.state = JobState::kQueued;
      ev.tenant = job->spec.tenant;
      ev.target = job->spec.target.id;
      ev.step = job->steps_done;
      ev.steps = job->steps_total;
      ev.preempted = true;
      ev.trace = tr;
      emit(lk, ev);
      return;
    }

    // Publish the step under the lock, so the watchdog and /jobs.json see
    // which step runs since when. Planning only copies the spec and builds
    // the step table, so it happens here too.
    if (job->cell == nullptr) {
      // A disabled store (CRP_CACHE=0) is a bypass: the cell need not hash
      // its inputs for a key nobody reads.
      ArtifactStore* store =
          job->spec.opts.cache && opts_.store->enabled() ? opts_.store : nullptr;
      job->cell = plan_target(job->spec.opts, store, job->spec.target);
    }
    const size_t step_idx = job->cell->next_step();
    const char* step = job->cell->step_name(step_idx);
    const u64 step_t0 = obs::trace_now_ns();
    job->step = step;
    job->step_since_ns = step_t0;
    // The job is kRunning: no other thread touches its cell while we hold
    // no lock (cancel only sets a flag; status reads the counters we
    // update after relocking).
    lk.unlock();
    bool failed = false;
    std::string error;
    try {
      // Deterministic salts + cache attribution derive from the job, not
      // from the worker that happens to run this step.
      chaos::TaskScope chaos_scope(chaos::mix64(job->spec.seed, step_idx));
      ScopedCacheTenant tenant(job->spec.tenant);
      job->cell->run_step();
    } catch (const std::exception& e) {
      failed = true;
      error = e.what();
    } catch (...) {
      failed = true;
      error = "unknown error";
    }
    if (traced && !failed)
      jt.record(tr, job->id, obs::SpanKind::kStep, jt.intern(step), step_idx, step_t0,
                obs::trace_now_ns());
    lk.lock();
    job->step = "";
    job->step_since_ns = 0;

    if (failed) {
      job->error = error.empty() ? "error" : error;
      settle();
      finish_locked(lk, job, JobState::kFailed);
      return;
    }
    job->steps_done = job->cell->next_step();
    job->steps_total = job->cell->step_count();
    if (job->cell->done()) {
      settle();
      finish_locked(lk, job, JobState::kDone);
      return;
    }
    JobEvent ev;
    ev.id = job->id;
    ev.state = JobState::kRunning;
    ev.tenant = job->spec.tenant;
    ev.target = job->spec.target.id;
    ev.step = job->steps_done;
    ev.steps = job->steps_total;
    ev.step_name = step;
    ev.trace = tr;
    emit(lk, ev);
  }
}

JobResult JobQueue::wait(JobId id) {
  std::unique_lock<std::mutex> lk(mu_);
  struct WaiterGuard {
    Job* job = nullptr;
    ~WaiterGuard() {
      if (job != nullptr) --job->waiters;
    }
  } guard;
  for (;;) {
    Job* job = find_locked(id);
    if (job == nullptr) {
      // Unknown id, or a terminal job already dropped by retention.
      JobResult r;
      r.id = id;
      r.state = JobState::kFailed;
      r.error = "unknown job";
      return r;
    }
    if (guard.job == nullptr) {
      // Pin the job against retention eviction while this wait is live
      // (jobs_ erasure happens under mu_, so the pin is race-free).
      guard.job = job;
      ++job->waiters;
    }
    if (job_state_terminal(job->state)) return snapshot(*job);
    if (opts_.workers == 0) {
      // Inline mode: this thread is the engine. Drive the best queued job
      // (which may or may not be `id` — priorities decide).
      Job* best = pick_best_locked();
      if (best != nullptr) {
        drive(lk, best);
        continue;
      }
      // Nothing queued but `id` not terminal: another thread is driving
      // it (concurrent inline waiters are allowed).
      cv_done_.wait(lk);
    } else {
      cv_done_.wait(lk);
    }
  }
}

void JobQueue::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_work_.wait(lk, [&] { return stop_ || pick_best_locked() != nullptr; });
    if (stop_) return;
    Job* best = pick_best_locked();
    if (best != nullptr) drive(lk, best);
  }
}

}  // namespace crp::pipeline
