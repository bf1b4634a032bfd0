#include "analysis/api_analysis.h"

#include <algorithm>

#include "exec/thread_pool.h"
#include "os/kernel.h"
#include "util/log.h"

namespace crp::analysis {

namespace {

/// Invalid-pointer probe set: unmapped low, unmapped high, non-canonical-ish.
constexpr gva_t kProbes[] = {0x0000'0000'0000'0010ull, 0x0000'6e00'bad0'0000ull,
                             0x0000'7ffd'dddd'0000ull};

}  // namespace

bool ApiFuzzer::fuzz_one(os::Kernel& kernel, u32 api_id) {
  const os::ApiSpec* spec = kernel.winapi().find(api_id);
  if (spec == nullptr || !spec->has_pointer_arg()) return false;

  for (size_t arg = 0; arg < spec->args.size(); ++arg) {
    if (spec->args[arg] == os::ArgKind::kValue) continue;
    for (int probe = 0; probe < probes_per_arg_; ++probe) {
      gva_t bad = kProbes[static_cast<size_t>(probe) % std::size(kProbes)];
      // Scratch process: a throwaway address space so a "fault" is cleanly
      // observable and cannot poison subsequent probes.
      int pid = kernel.create_process(strf("fuzz-%u", api_id), vm::Personality::kWindows,
                                      0x5eed + api_id * 131 + static_cast<u64>(probe));
      os::Process& p = kernel.proc(pid);
      // Valid scratch buffer for the *other* pointer args so only the probed
      // slot is invalid.
      gva_t scratch = p.heap_alloc(4096, mem::kPermR | mem::kPermW);
      os::Thread t;
      t.tid = 1;
      t.cpu.pc = isa::kInstrBytes;  // fault attribution only
      u64 args[6] = {};
      for (size_t i = 0; i < spec->args.size() && i < 6; ++i)
        args[i] = spec->args[i] == os::ArgKind::kValue ? 8 : scratch;
      args[arg] = bad;
      os::ApiResult r = kernel.invoke_api(p, t, api_id, args);
      kernel.destroy_process(pid);
      if (r.fault.has_value()) return false;  // faulted: not crash-resistant
    }
  }
  return true;
}

ApiFuzzResult ApiFuzzer::fuzz_all(os::Kernel& kernel, int jobs) {
  ApiFuzzResult res;
  std::vector<u32> fuzz_ids;
  for (const auto& [id, spec] : kernel.winapi().all()) {
    ++res.total_apis;
    if (!spec.has_pointer_arg()) continue;
    ++res.with_pointer_args;
    int nptr = 0;
    for (auto k : spec.args) nptr += k != os::ArgKind::kValue ? 1 : 0;
    res.probes_executed += static_cast<u32>(nptr * probes_per_arg_);
    fuzz_ids.push_back(id);
  }

  // Shard contiguous id ranges into kChunks tasks. Every chunk fuzzes
  // against its own scratch kernel (copy of the API surface), so verdicts
  // cannot depend on chunking or scheduling — only on the spec and the
  // id-derived process seeds inside fuzz_one. Merging chunk results in
  // input order keeps crash_resistant identical for any job count, and a
  // fixed chunk count keeps the task count (analysis.pool.tasks) so too.
  constexpr size_t kChunks = 8;
  size_t chunk_size = std::max<size_t>(1, (fuzz_ids.size() + kChunks - 1) / kChunks);
  std::vector<std::pair<size_t, size_t>> chunks;  // [begin, end) into fuzz_ids
  for (size_t b = 0; b < fuzz_ids.size(); b += chunk_size)
    chunks.emplace_back(b, std::min(b + chunk_size, fuzz_ids.size()));

  auto chunk_resistant = exec::parallel_map(
      jobs, chunks,
      [&](size_t, const std::pair<size_t, size_t>& c) {
        // Copy only this chunk's specs: cloning the full 20k-spec surface
        // into every scratch kernel costs more than the fuzzing itself.
        os::Kernel scratch;
        for (size_t i = c.first; i < c.second; ++i) {
          const os::ApiSpec* spec = kernel.winapi().find(fuzz_ids[i]);
          if (spec != nullptr && scratch.winapi().find(fuzz_ids[i]) == nullptr)
            scratch.winapi().add(*spec);
        }
        std::vector<u32> resistant;
        for (size_t i = c.first; i < c.second; ++i)
          if (fuzz_one(scratch, fuzz_ids[i])) resistant.push_back(fuzz_ids[i]);
        return resistant;
      },
      "fuzz-api-chunk");
  for (const auto& ids : chunk_resistant) res.crash_resistant.insert(ids.begin(), ids.end());
  return res;
}

std::vector<ApiSiteInfo> ApiCallSiteTracer::analyze(const trace::Tracer& tracer,
                                                    const std::set<u32>& crash_resistant,
                                                    const os::Kernel& kernel,
                                                    const os::Process& proc,
                                                    const std::string& script_module_needle) {
  std::map<std::pair<u32, gva_t>, ApiSiteInfo> sites;

  for (const auto& rec : tracer.api_calls()) {
    if (!crash_resistant.contains(rec.api_id)) continue;
    auto key = std::make_pair(rec.api_id, rec.call_site);
    ApiSiteInfo& info = sites[key];
    if (info.times_called == 0) {
      info.api_id = rec.api_id;
      const os::ApiSpec* spec = kernel.winapi().find(rec.api_id);
      info.api_name = spec != nullptr ? spec->name : strf("api#%u", rec.api_id);
      info.call_site = rec.call_site;
    }
    ++info.times_called;
    info.script_triggerable |= trace::Tracer::stack_touches_module(rec, script_module_needle);

    // Pointer-argument controllability: inspect the first pointer arg value.
    const os::ApiSpec* spec = kernel.winapi().find(rec.api_id);
    if (spec == nullptr) continue;
    for (size_t i = 0; i < spec->args.size() && i < 6; ++i) {
      if (spec->args[i] == os::ArgKind::kValue) continue;
      gva_t ptr = rec.args[i];
      ExclusionReason reason = ExclusionReason::kNone;
      const auto* placement = proc.machine().layout().find(ptr);
      if (placement != nullptr && placement->kind == mem::RegionKind::kStack) {
        // §V-B reason 1: stack-allocated structure — corrupting it corrupts
        // the stack pointer chain and the program dies elsewhere.
        reason = ExclusionReason::kStackPointer;
      } else if (tracer.guest_touched(ptr)) {
        // §V-B reason 2: the program also dereferences this pointer outside
        // the crash-resistant function.
        reason = ExclusionReason::kDerefedOutside;
      } else {
        // §V-B reason 3: volatile heap pointer — usable only if some stored
        // reference lets the attacker find and redirect it.
        bool referenced = false;
        for (const auto& region : proc.machine().mem().regions()) {
          for (gva_t a = region.begin; a + 8 <= region.end && !referenced; a += 8) {
            u64 v = 0;
            if (proc.machine().mem().peek_u64(a, &v) && v == ptr) referenced = true;
          }
          if (referenced) break;
        }
        if (!referenced) reason = ExclusionReason::kVolatileHeap;
      }
      // Keep the *worst* (any exclusion sticks; kNone only if always clean).
      if (info.times_called == 1) {
        info.exclusion = reason;
      } else if (reason != ExclusionReason::kNone) {
        info.exclusion = reason;
      }
      break;  // classify by the first pointer argument
    }
  }

  std::vector<ApiSiteInfo> out;
  for (auto& [_, s] : sites) out.push_back(std::move(s));
  return out;
}

std::vector<Candidate> ApiCallSiteTracer::candidates(const std::vector<ApiSiteInfo>& sites,
                                                     const std::string& target_name) {
  std::vector<Candidate> out;
  for (const auto& s : sites) {
    Candidate c;
    c.cls = PrimitiveClass::kWinApi;
    c.target = target_name;
    c.api_id = s.api_id;
    c.api_name = s.api_name;
    c.call_site = s.call_site;
    c.script_triggerable = s.script_triggerable;
    c.exclusion = s.exclusion;
    c.verdict = s.exclusion == ExclusionReason::kNone ? Verdict::kUsable
                                                      : Verdict::kNotControllable;
    out.push_back(c);
  }
  return out;
}

}  // namespace crp::analysis
