#include "chaos/chaos.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <mutex>

#include "obs/obs.h"
#include "util/log.h"

namespace crp::chaos {

namespace {

u64 splitmix64(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Domain tags keep batch salts, stream salts and per-point decision hashes
// in disjoint subfamilies of the same mix.
constexpr u64 kBatchTag = 0xb47c5a17ull;
constexpr u64 kStreamTag = 0x57ea3aa7ull;
constexpr u64 kDecideTag = 0xdec1de00ull;
constexpr u64 kDrawTag = 0xd4aa0000ull;

std::atomic<const FaultPlan*> g_plan{nullptr};
FaultPlan g_installed;   // storage behind g_plan when installed programmatically
FaultPlan g_env_plan;    // storage when CRP_CHAOS parses successfully
std::once_flag g_env_once;

thread_local const FaultPlan* tls_plan = nullptr;
thread_local TaskCtx tls_ctx;
thread_local std::vector<FaultEvent>* tls_recorder = nullptr;

std::mutex g_rec_mu;  // guards every recorder vector (events are rare)
std::vector<FaultEvent> g_recorded;

void init_env() {
  const char* env = std::getenv("CRP_CHAOS");
  if (env == nullptr || *env == '\0') return;
  std::string err;
  if (parse_plan(env, &g_env_plan, &err)) {
    g_plan.store(&g_env_plan, std::memory_order_release);
  } else {
    log_line(LogLevel::kWarn, "chaos",
             strf("ignoring CRP_CHAOS=\"%s\": %s", env, err.c_str()));
  }
}

obs::Counter* injected_counter(Point p) {
  static obs::Counter* counters[kNumPoints] = {};
  static std::once_flag once;
  std::call_once(once, [] {
    for (u32 i = 0; i < kNumPoints; ++i) {
      std::string name = std::string("chaos.injected.") + point_name(static_cast<Point>(i));
      std::replace(name.begin(), name.end(), '-', '_');
      counters[i] = &obs::Registry::global().counter(name);
    }
  });
  return counters[static_cast<u32>(p)];
}

void record(const FaultEvent& ev) {
  std::lock_guard<std::mutex> lk(g_rec_mu);
  std::vector<FaultEvent>* rec = tls_recorder != nullptr ? tls_recorder : &g_recorded;
  rec->push_back(ev);
}

// Replay plans must advertise the union of their event points, or streams
// for those subsystems never arm (a programmatically built plan — the
// shrinker's, say — would otherwise keep the default random-mode mask).
void normalize(FaultPlan& plan) {
  if (!plan.replay) return;
  std::sort(plan.events.begin(), plan.events.end());
  plan.events.erase(std::unique(plan.events.begin(), plan.events.end()), plan.events.end());
  plan.points = 0;
  for (const FaultEvent& ev : plan.events) plan.points |= point_bit(ev.point);
}

bool parse_u64(std::string_view s, int base, u64* out) {
  if (s.empty()) return false;
  u64 v = 0;
  for (char c : s) {
    u64 digit;
    if (c >= '0' && c <= '9') digit = static_cast<u64>(c - '0');
    else if (base == 16 && c >= 'a' && c <= 'f') digit = static_cast<u64>(c - 'a' + 10);
    else if (base == 16 && c >= 'A' && c <= 'F') digit = static_cast<u64>(c - 'A' + 10);
    else return false;
    v = v * static_cast<u64>(base) + digit;
  }
  *out = v;
  return true;
}

}  // namespace

const char* point_name(Point p) {
  switch (p) {
    case Point::kSysEfault: return "sys-efault";
    case Point::kSysEintr: return "sys-eintr";
    case Point::kShortRead: return "short-read";
    case Point::kShortWrite: return "short-write";
    case Point::kVmAv: return "vm-av";
    case Point::kVmSingleStep: return "vm-step";
    case Point::kCacheCorrupt: return "cache-corrupt";
    case Point::kCacheTruncate: return "cache-truncate";
    case Point::kCacheRenameFail: return "cache-rename";
    case Point::kTaskOrder: return "task-order";
    case Point::kCount: break;
  }
  return "?";
}

u32 points_from_name(std::string_view name) {
  if (name == "io") return kIoPoints;
  if (name == "vm") return kVmPoints;
  if (name == "cache") return kCachePoints;
  if (name == "all") return kAllPoints;
  for (u32 i = 0; i < kNumPoints; ++i)
    if (name == point_name(static_cast<Point>(i))) return 1u << i;
  return 0;
}

std::string FaultPlan::str() const {
  if (replay) return format_replay(seed, events);
  std::string out = strf("%llu", static_cast<unsigned long long>(seed));
  std::string items;
  if (rate != FaultPlan{}.rate)
    items += strf("rate=%u", rate);
  // Prefer a group name when the mask matches one exactly.
  auto append = [&](std::string_view item) {
    if (!items.empty()) items += ',';
    items += item;
  };
  if (points == kAllPoints) append("all");
  else if (points == kIoPoints) append("io");
  else if (points == kVmPoints) append("vm");
  else if (points == kCachePoints) append("cache");
  else {
    for (u32 i = 0; i < kNumPoints; ++i)
      if ((points >> i) & 1u) append(point_name(static_cast<Point>(i)));
  }
  if (!items.empty()) out += ':' + items;
  return out;
}

std::string format_replay(u64 seed, const std::vector<FaultEvent>& events) {
  std::string out = strf("%llu", static_cast<unsigned long long>(seed));
  char sep = ':';
  for (const FaultEvent& ev : events) {
    out += strf("%c%s@%llx.%llu", sep, point_name(ev.point),
                static_cast<unsigned long long>(ev.salt),
                static_cast<unsigned long long>(ev.index));
    sep = ',';
  }
  return out;
}

bool parse_plan(std::string_view text, FaultPlan* out, std::string* err) {
  auto fail = [&](std::string msg) {
    if (err != nullptr) *err = std::move(msg);
    return false;
  };
  FaultPlan plan;
  plan.points = 0;

  size_t colon = text.find(':');
  std::string_view seed_sv = text.substr(0, colon);
  bool hex = seed_sv.size() > 2 && (seed_sv.substr(0, 2) == "0x" || seed_sv.substr(0, 2) == "0X");
  if (!parse_u64(hex ? seed_sv.substr(2) : seed_sv, hex ? 16 : 10, &plan.seed))
    return fail(strf("bad seed \"%.*s\"", static_cast<int>(seed_sv.size()), seed_sv.data()));

  std::string_view rest = colon == std::string_view::npos ? std::string_view{} : text.substr(colon + 1);
  while (!rest.empty()) {
    size_t comma = rest.find(',');
    std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{} : rest.substr(comma + 1);
    if (item.empty()) continue;

    if (item.substr(0, 5) == "rate=") {
      u64 r = 0;
      if (!parse_u64(item.substr(5), 10, &r) || r == 0 || r > (1u << 30))
        return fail(strf("bad rate \"%.*s\"", static_cast<int>(item.size()), item.data()));
      plan.rate = static_cast<u32>(r);
      continue;
    }

    if (size_t at = item.find('@'); at != std::string_view::npos) {
      // Replay event: point@<salt hex>.<index>
      u32 bits = points_from_name(item.substr(0, at));
      size_t dot = item.rfind('.');
      FaultEvent ev;
      if (bits == 0 || (bits & (bits - 1)) != 0 || dot == std::string_view::npos || dot <= at ||
          !parse_u64(item.substr(at + 1, dot - at - 1), 16, &ev.salt) ||
          !parse_u64(item.substr(dot + 1), 10, &ev.index))
        return fail(strf("bad replay event \"%.*s\"", static_cast<int>(item.size()), item.data()));
      ev.point = static_cast<Point>(std::countr_zero(bits));
      plan.replay = true;
      plan.events.push_back(ev);
      continue;
    }

    u32 bits = points_from_name(item);
    if (bits == 0)
      return fail(strf("unknown point \"%.*s\"", static_cast<int>(item.size()), item.data()));
    plan.points |= bits;
  }

  if (plan.replay) {
    std::sort(plan.events.begin(), plan.events.end());
    plan.events.erase(std::unique(plan.events.begin(), plan.events.end()), plan.events.end());
    plan.points = 0;
    for (const FaultEvent& ev : plan.events) plan.points |= point_bit(ev.point);
  } else if (plan.points == 0) {
    plan.points = FaultPlan{}.points;  // bare "seed" means the default family
  }
  *out = plan;
  return true;
}

const FaultPlan* plan() {
  if (tls_plan != nullptr) return tls_plan;
  std::call_once(g_env_once, init_env);
  return g_plan.load(std::memory_order_acquire);
}

void install(const FaultPlan* p) {
  std::call_once(g_env_once, init_env);  // a later env parse must not clobber this
  if (p == nullptr) {
    g_plan.store(nullptr, std::memory_order_release);
  } else {
    g_installed = *p;
    normalize(g_installed);
    g_plan.store(&g_installed, std::memory_order_release);
  }
}

u64 mix64(u64 a, u64 b) { return splitmix64(a ^ splitmix64(b)); }

TaskCtx& task_ctx() { return tls_ctx; }

u64 next_batch_salt() { return mix64(tls_ctx.salt ^ kBatchTag, ++tls_ctx.batches); }

TaskScope::TaskScope(u64 task_salt) : saved_(tls_ctx) { tls_ctx = TaskCtx{task_salt, 0, 0}; }

TaskScope::~TaskScope() { tls_ctx = saved_; }

namespace {

bool decide_and_record(const FaultPlan& pl, Point p, u64 salt, u64 idx) {
  bool hit;
  if (pl.replay) {
    FaultEvent ev{salt, idx, p};
    hit = std::binary_search(pl.events.begin(), pl.events.end(), ev);
  } else {
    u64 h = mix64(pl.seed ^ kDecideTag ^ static_cast<u64>(p), mix64(salt, idx));
    hit = pl.has(p) && (h % pl.rate) == 0;
  }
  if (hit) {
    record(FaultEvent{salt, idx, p});
    injected_counter(p)->inc();
  }
  return hit;
}

}  // namespace

bool FaultStream::fire(Point p) {
  if (plan_ == nullptr) return false;
  u64 idx = idx_[static_cast<u32>(p)]++;
  return decide_and_record(*plan_, p, salt_, idx);
}

bool FaultStream::fire_keyed(Point p, u64 key) {
  if (plan_ == nullptr) return false;
  return decide_and_record(*plan_, p, key, 0);
}

u64 FaultStream::draw(Point p) {
  u64 idx = draw_idx_[static_cast<u32>(p)]++;
  u64 seed = plan_ != nullptr ? plan_->seed : 0;
  return mix64(seed ^ kDrawTag ^ static_cast<u64>(p), mix64(salt_, idx));
}

FaultStream make_stream(u32 point_mask) {
  FaultStream s;
  const FaultPlan* pl = plan();
  if (pl != nullptr && (pl->points & point_mask) != 0) {
    s.plan_ = pl;
    s.salt_ = mix64(tls_ctx.salt ^ kStreamTag, ++tls_ctx.streams);
  }
  return s;
}

std::vector<FaultEvent> injected_events() {
  std::lock_guard<std::mutex> lk(g_rec_mu);
  std::vector<FaultEvent> out = tls_recorder != nullptr ? *tls_recorder : g_recorded;
  std::sort(out.begin(), out.end());
  return out;
}

void clear_injected_events() {
  std::lock_guard<std::mutex> lk(g_rec_mu);
  (tls_recorder != nullptr ? tls_recorder : &g_recorded)->clear();
}

ScopedPlan::ScopedPlan(FaultPlan p)
    : plan_(std::move(p)), saved_ctx_(tls_ctx), saved_plan_(tls_plan),
      saved_recorder_(tls_recorder) {
  normalize(plan_);
  tls_plan = &plan_;
  tls_ctx = TaskCtx{};
  {
    std::lock_guard<std::mutex> lk(g_rec_mu);
    tls_recorder = &recorded_;
  }
}

ScopedPlan::~ScopedPlan() {
  {
    std::lock_guard<std::mutex> lk(g_rec_mu);
    tls_recorder = saved_recorder_;
  }
  tls_ctx = saved_ctx_;
  tls_plan = saved_plan_;
}

std::vector<FaultEvent> ScopedPlan::events() const {
  std::lock_guard<std::mutex> lk(g_rec_mu);
  std::vector<FaultEvent> out = recorded_;
  std::sort(out.begin(), out.end());
  return out;
}

ThreadPlan thread_plan() { return ThreadPlan{tls_plan, tls_recorder}; }

ScopedThreadPlan::ScopedThreadPlan(ThreadPlan p) : saved_(thread_plan()) {
  tls_plan = p.plan;
  tls_recorder = p.recorder;
}

ScopedThreadPlan::~ScopedThreadPlan() {
  tls_plan = saved_.plan;
  tls_recorder = saved_.recorder;
}

}  // namespace crp::chaos
