// Common small utilities shared across all CRProbe modules.
#pragma once

#include <cstdint>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <iosfwd>
#include <string>
#include <string_view>

namespace crp {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Guest virtual address.
using gva_t = u64;

/// Fatal invariant violation: print and abort. Used for programmer errors,
/// never for guest-induced conditions (those surface as faults/status codes).
[[noreturn]] void panic(const char* file, int line, const std::string& msg);

/// Register a hook panic() runs (once, in registration order) before
/// aborting — the escape hatch that lets buffered telemetry (journal ring,
/// probe ledger) reach disk when a bench or example dies mid-run. Hooks must
/// be async-signal-unsafe-tolerant only in the sense that they run on the
/// panicking thread; re-entrant panics skip the hooks.
void add_panic_hook(void (*fn)());

#define CRP_PANIC(msg) ::crp::panic(__FILE__, __LINE__, (msg))

#define CRP_CHECK(cond)                                                  \
  do {                                                                   \
    if (!(cond)) ::crp::panic(__FILE__, __LINE__, "check failed: " #cond); \
  } while (0)

/// printf-style std::string formatter.
std::string strf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Align `v` down/up to a power-of-two boundary `a`.
constexpr u64 align_down(u64 v, u64 a) { return v & ~(a - 1); }
constexpr u64 align_up(u64 v, u64 a) { return (v + a - 1) & ~(a - 1); }

/// Human-readable size, e.g. "4.0KiB".
std::string human_size(u64 bytes);

/// %-escape for whitespace-separated token formats (the artifact and plan
/// codecs): '%' and every whitespace byte become "%xx" (lowercase hex), so
/// an escaped non-empty string reads back as exactly one token.
std::string pct_escape(std::string_view s);
/// Inverse of pct_escape. False unless every '%' starts an escape with two
/// hex digits; *out is written only on success.
bool pct_unescape(std::string_view s, std::string* out);

/// Length-prefixed escaped string line for the same token formats:
/// "<tag> 0" for an empty string, "<tag> <n> <pct_escape(s)>" otherwise
/// (n = escaped length), so empty strings survive the token format.
void put_str(std::ostream& out, const char* tag, std::string_view s);
/// Inverse of put_str. False unless the next tokens are `tag`, a length and
/// (when it is nonzero) a valid escaped token of exactly that length.
bool get_str(std::istream& in, const char* tag, std::string* s);

}  // namespace crp
