#include "util/common.h"

#include <atomic>
#include <cstdarg>
#include <istream>
#include <ostream>

namespace crp {

namespace {
// Fixed-size hook table: panic must not allocate, and hooks are registered a
// handful of times per process (flush handlers), so a small array suffices.
constexpr int kMaxPanicHooks = 8;
void (*g_panic_hooks[kMaxPanicHooks])() = {};
std::atomic<int> g_panic_hook_count{0};
std::atomic<bool> g_panicking{false};
}  // namespace

void add_panic_hook(void (*fn)()) {
  int n = g_panic_hook_count.load(std::memory_order_relaxed);
  while (n < kMaxPanicHooks) {
    if (g_panic_hook_count.compare_exchange_weak(n, n + 1, std::memory_order_acq_rel)) {
      g_panic_hooks[n] = fn;
      return;
    }
  }
}

void panic(const char* file, int line, const std::string& msg) {
  std::fprintf(stderr, "[crp panic] %s:%d: %s\n", file, line, msg.c_str());
  std::fflush(stderr);
  // Flush telemetry sinks unless a hook itself panicked (re-entrancy guard).
  if (!g_panicking.exchange(true, std::memory_order_acq_rel)) {
    int n = g_panic_hook_count.load(std::memory_order_acquire);
    for (int i = 0; i < n && i < kMaxPanicHooks; ++i)
      if (g_panic_hooks[i] != nullptr) g_panic_hooks[i]();
  }
  std::abort();
}

std::string strf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

std::string human_size(u64 bytes) {
  static const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  return strf("%.1f%s", v, units[u]);
}

std::string pct_escape(std::string_view s) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '%': case ' ': case '\t': case '\n': case '\v': case '\f': case '\r':
        out += '%';
        out += kHex[(static_cast<u8>(c) >> 4) & 0xf];
        out += kHex[static_cast<u8>(c) & 0xf];
        break;
      default:
        out += c;
    }
  }
  return out;
}

bool pct_unescape(std::string_view s, std::string* out) {
  auto hex = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string r;
  r.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      r += s[i];
      continue;
    }
    int hi = i + 1 < s.size() ? hex(s[i + 1]) : -1;
    int lo = i + 2 < s.size() ? hex(s[i + 2]) : -1;
    if (hi < 0 || lo < 0) return false;
    r += static_cast<char>(hi << 4 | lo);
    i += 2;
  }
  *out = std::move(r);
  return true;
}

void put_str(std::ostream& out, const char* tag, std::string_view s) {
  std::string e = pct_escape(s);
  out << tag << " " << e.size();
  if (!e.empty()) out << " " << e;
  out << "\n";
}

bool get_str(std::istream& in, const char* tag, std::string* s) {
  std::string t;
  size_t n = 0;
  if (!(in >> t >> n) || t != tag) return false;
  if (n == 0) {
    s->clear();
    return true;
  }
  std::string e;
  return in >> e && e.size() == n && pct_unescape(e, s);
}

}  // namespace crp
