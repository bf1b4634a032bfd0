// Browser simulacra: "iexplore_sim" (IE 11 analog) and "firefox_sim"
// (Firefox 46 analog), Windows personality.
//
// Both load the generated system-DLL corpus plus the hand-authored
// ntcrit_sim DLL. The browser main loop pulls host-injected commands
// (GetCommand API) — the stand-in for DynamoRIO-driven page visits:
//   kCmdCall   — call an arbitrary DLL work function (a "page visit" step);
//   kCmdScript — route the call through jscript9_sim!RunScript, which first
//                runs MUTX::Enter (so script-triggered paths carry a
//                jscript9 frame on the call stack — the attribution the
//                paper's debugger script performs);
//   kCmdQuit   — exit.
//
// IE-specific construct (§VI-A): jscript9_sim!MUTX_Enter wraps a call to
// ntcrit_sim!EnterCriticalSection in a catch-all (filter == 0x1) scope. The
// ScriptEngine heap object holds a status byte and an embedded
// CRITICAL_SECTION whose +24 field points to a debug_info block;
// EnterCriticalSection dereferences debug_info+0x10 when the three control
// fields select the contended path. Corrupting debug_info turns MUTX_Enter
// into the paper's probing primitive: status 0 = probe read fine,
// status 1 = the catch-all handler ran.
//
// Firefox-specific constructs (§VI-B, §VII-A):
//   * ntcrit_sim!GuardedCopy — a dereference guarded by an exclusion-list
//     filter (not catch-all, but AV-capable). Only firefox_sim's background
//     poll thread ever calls it, reproducing "on the execution path only in
//     Firefox";
//   * the poll thread continuously services a probe_slot in .data
//     {+0 request addr, +8 value, +16 status} — no manual trigger needed;
//   * firefox_sim registers a vectored handler at runtime via
//     AddVectoredExceptionHandler — invisible to static scope-table
//     extraction (the paper's stated limitation), discoverable by the
//     VehScanner extension.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "os/kernel.h"
#include "targets/dll_corpus.h"

namespace crp::targets {

inline constexpr u64 kCmdCall = 1;
inline constexpr u64 kCmdScript = 2;
inline constexpr u64 kCmdQuit = 3;
inline constexpr u32 kApiGetCommand = 100;

class BrowserSim {
 public:
  enum class Kind : u8 { kIE, kFirefox };

  struct Options {
    Kind kind = Kind::kIE;
    u64 seed = 1;
    int filler_dlls = 0;  // extra small DLLs beyond the paper's named set
    /// Windows API ids the browser calls during browsing: the main image
    /// gets one call-stub export per id (rotating pointer-argument shapes:
    /// stack struct / volatile heap / guest-dereferenced heap — the three
    /// §V-B exclusion idioms), wired into visit_page()/crawl().
    std::vector<u32> api_stub_ids = {};
    /// Don't run startup (JsInit / VEH registration / poll thread) in the
    /// constructor: lets a tracer attach first so runtime registrations are
    /// observed — required for the VehScanner end-to-end flow. Call start().
    bool defer_start = false;
  };

  /// Builds the corpus, loads everything into a fresh process inside `k`,
  /// registers the command API and starts the main thread.
  BrowserSim(os::Kernel& k, Options opts);

  int pid() const { return pid_; }
  os::Kernel& kernel() { return k_; }
  os::Process& proc() { return k_.proc(pid_); }

  /// Run startup when constructed with defer_start (no-op otherwise/again).
  void start();
  const std::vector<GeneratedDll>& dlls() const { return dlls_; }
  Kind kind() const { return opts_.kind; }

  // --- workload driving ---------------------------------------------------

  /// Queue a simulated page visit: a seeded subset of hot work functions,
  /// some routed through the script engine.
  void visit_page(u64 site_id);

  /// Queue one call of every hot export (half through the script engine) —
  /// guarantees full on-path coverage like the paper's top-500 crawl.
  void crawl();

  /// Queue one script-triggered call of `fn_addr` (through RunScript).
  void run_script(gva_t fn_addr);

  /// Queue a plain call.
  void call_fn(gva_t fn_addr);

  void quit();

  /// Advance the kernel until the command queue drained (or budget).
  void pump(u64 budget = 20'000'000);

  size_t pending_commands() const { return cmds_.size(); }

  // --- attacker/TEST observability -------------------------------------------

  /// Runtime address of the jscript9 ScriptEngine object (the PoC's leaked
  /// anchor; stored in jscript9_sim's .data).
  gva_t script_engine_addr() const;
  /// Firefox probe slot (in firefox_sim's .data).
  gva_t probe_slot_addr() const;
  /// MUTX status field = [script_engine + 0].
  u64 mutx_status() const;
  /// Scripts fully processed so far (jscript9's completion counter).
  u64 script_done_count() const;

 private:
  struct Cmd {
    u64 op = 0, a = 0, b = 0;
  };

  void build_and_load();
  isa::Image build_ntcrit() const;
  isa::Image build_main() const;
  /// Runtime addresses of all hot-callable functions (DLL work exports +
  /// API stubs), gathered lazily.
  std::vector<gva_t> hot_targets();

  os::Kernel& k_;
  Options opts_;
  int pid_ = 0;
  bool started_ = false;
  std::vector<GeneratedDll> dlls_;
  std::deque<Cmd> cmds_;
};

}  // namespace crp::targets
