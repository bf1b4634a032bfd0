#include "exec/thread_pool.h"

#include <chrono>
#include <cstdlib>
#include <numeric>

#include "chaos/chaos.h"
#include "obs/journal.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace crp::exec {

namespace {

u64 wall_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

u64 splitmix64(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  if (const char* env = std::getenv("CRP_JOBS")) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

u64 task_seed(u64 base_seed, u64 index) {
  return splitmix64(base_seed ^ splitmix64(index));
}

ThreadPool::ThreadPool(int jobs) : jobs_(resolve_jobs(jobs)) {
  obs::Registry& reg = obs::Registry::global();
  c_tasks_ = &reg.counter("analysis.pool.tasks");
  h_steal_ns_ = &reg.histogram("analysis.pool.steal_ns");
  workers_.reserve(static_cast<size_t>(jobs_ - 1));
  for (int i = 1; i < jobs_; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::drain(const std::function<void(u64)>& fn, u64 n, const char* label) {
  for (;;) {
    u64 i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    // Under a perturbed batch, claim i runs task chaos_order_[i]; the task's
    // chaos salt follows the *task* index, so per-item injection streams are
    // identical whether or not the order was shuffled.
    u64 task = chaos_on_ && !chaos_order_.empty() ? chaos_order_[i] : i;
    // Trace lane derived from the *task* id, never from thread identity:
    // spans from two runs of the same batch land on the same lane at any
    // job count, so Chrome traces diff cleanly across runs.
    u32 lane = 1 + static_cast<u32>(task % obs::kJournalTaskLanes);
    u64 t0 = wall_ns();
    {
      obs::ScopedJournalLane lane_scope(lane);
      // Tasks inherit the batch issuer's profiler context (stage/target).
      obs::ScopedProfContext prof_scope(prof_batch_ctx_);
      if (chaos_on_) {
        // The issuer's ScopedPlan (thread-local) reaches every worker.
        chaos::ScopedThreadPlan plan_scope(chaos_thread_plan_);
        chaos::TaskScope scope(task_seed(chaos_batch_salt_, task));
        fn(task);
      } else {
        fn(task);
      }
    }
    obs::Journal::global().span(label, "exec", t0 / 1000, (wall_ns() - t0) / 1000, lane,
                               "task", static_cast<i64>(task));
    c_tasks_->inc();
    if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
      // Take the lock so the notify cannot race the caller between its
      // predicate check and its wait.
      { std::lock_guard<std::mutex> lock(mu_); }
      cv_done_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  u64 seen_gen = 0;
  for (;;) {
    u64 wait_t0 = wall_ns();
    const std::function<void(u64)>* fn = nullptr;
    const char* label = "task";
    u64 n = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock,
                    [&] { return stop_ || (fn_ != nullptr && generation_ != seen_gen); });
      if (stop_) return;
      seen_gen = generation_;
      fn = fn_;
      label = label_;
      n = batch_n_;
      ++active_;
    }
    h_steal_ns_->record(wall_ns() - wait_t0);
    drain(*fn, n, label);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
    }
    cv_done_.notify_all();
  }
}

void ThreadPool::for_each_index(u64 n, const std::function<void(u64)>& fn,
                                const char* label) {
  if (n == 0) return;
  // Chaos bookkeeping happens on the caller thread, in program order, so
  // batch salts (and therefore every stream salt derived inside tasks) are
  // identical at any job count.
  bool chaos_on = chaos::active();
  u64 batch_salt = 0;
  std::vector<u64> order;
  if (chaos_on) {
    batch_salt = chaos::next_batch_salt();
    chaos::FaultStream stream = chaos::make_stream(chaos::point_bit(chaos::Point::kTaskOrder));
    if (stream.fire(chaos::Point::kTaskOrder)) {
      order.resize(n);
      std::iota(order.begin(), order.end(), 0);
      Rng rng(stream.draw(chaos::Point::kTaskOrder));
      rng.shuffle(order);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    CRP_CHECK(fn_ == nullptr);  // one batch at a time
    chaos_on_ = chaos_on;
    chaos_batch_salt_ = batch_salt;
    chaos_order_ = std::move(order);
    chaos_thread_plan_ = chaos::thread_plan();
    prof_batch_ctx_ = obs::Profiler::context();
    fn_ = &fn;
    label_ = label;
    batch_n_ = n;
    next_.store(0, std::memory_order_relaxed);
    done_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  cv_work_.notify_all();
  drain(fn, n, label);  // the caller is a worker too
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Wait for completion AND for every worker to leave drain(): a worker
    // looping back for one more claim must not see the next batch's cursor.
    cv_done_.wait(lock, [&] {
      return done_.load(std::memory_order_acquire) >= n && active_ == 0;
    });
    fn_ = nullptr;
  }
}

}  // namespace crp::exec
