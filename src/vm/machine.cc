#include "vm/machine.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>

#include "cfg/cfg.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "util/log.h"
#include "vm/shadow.h"

namespace crp::vm {

namespace {
constexpr u64 kMaxFilterSteps = 100000;
constexpr int kMaxDispatchDepth = 4;
// Chaos: injection opportunities are offered every this many steps; the
// plan's rate then decides whether one fires. Small enough that a
// rate-reduced test plan hits within a typical workload run.
constexpr u64 kChaosVmInterval = 256;

bool is_dispatchable_signal(int signo) { return signo == 7 || signo == 8 || signo == 11; }

int signo_for(ExcCode code) {
  switch (code) {
    case ExcCode::kAccessViolation: return 11;  // SIGSEGV
    case ExcCode::kIntDivideByZero: return 8;   // SIGFPE
    case ExcCode::kIllegalInstruction: return 4;  // SIGILL (no handler support)
    case ExcCode::kSingleStep: return 5;          // SIGTRAP (no handler support)
    default: return 11;
  }
}
}  // namespace

const char* exc_name(ExcCode c) {
  switch (c) {
    case ExcCode::kAccessViolation: return "ACCESS_VIOLATION";
    case ExcCode::kIllegalInstruction: return "ILLEGAL_INSTRUCTION";
    case ExcCode::kIntDivideByZero: return "INT_DIVIDE_BY_ZERO";
    case ExcCode::kStackOverflow: return "STACK_OVERFLOW";
    case ExcCode::kGuardPage: return "GUARD_PAGE";
    case ExcCode::kSingleStep: return "SINGLE_STEP";
    case ExcCode::kSoftware: return "SOFTWARE";
  }
  return "?";
}

const char* dispatch_outcome_name(DispatchOutcome o) {
  switch (o) {
    case DispatchOutcome::kUnhandled: return "unhandled";
    case DispatchOutcome::kSehHandler: return "seh-handler";
    case DispatchOutcome::kSehContinue: return "seh-continue";
    case DispatchOutcome::kVehContinue: return "veh-continue";
    case DispatchOutcome::kSignalHandler: return "signal-handler";
    case DispatchOutcome::kSwallowed: return "swallowed";
  }
  return "?";
}

Machine::Machine(Personality personality, u64 aslr_seed, mem::AslrConfig aslr)
    : personality_(personality), layout_(aslr, aslr_seed) {
  obs::Registry& reg = obs::Registry::global();
  c_instret_ = &reg.counter("vm.instr_retired");
  c_exceptions_ = &reg.counter("vm.exceptions");
  c_filter_evals_ = &reg.counter("vm.filter_evals");
  c_mapped_only_kills_ = &reg.counter("vm.mapped_only_av_kills");
  for (size_t o = 0; o < kNumDispatchOutcomes; ++o)
    c_dispatch_[o] = &reg.counter(std::string("vm.dispatch.") +
                                  dispatch_outcome_name(static_cast<DispatchOutcome>(o)));
  chaos_ = chaos::make_stream(chaos::kVmPoints);
  if (chaos_.armed()) chaos_countdown_ = kChaosVmInterval;
  prof_interval_ = obs::Profiler::global().interval();
  if (prof_interval_ != 0) prof_countdown_ = prof_interval_;
  const char* jit = std::getenv("CRP_JIT");
  jit_on_ = jit == nullptr || jit[0] != '0';
  mem_.set_write_watcher([this](gva_t page_base) { jit_note_write(page_base); });
}

Machine::~Machine() { publish_instret(); }

/// Block attribution cache for one loaded module: a one-time cfg::Cfg
/// disassembly plus the interned name id per block leader already seen.
struct Machine::ProfModCache {
  cfg::Cfg cfg;
  std::map<u64, u32> block_ids;  // block-leader code offset -> interned id
};

gva_t Machine::prof_block_end(gva_t pc) const {
  for (size_t mi = 0; mi < modules_.size(); ++mi) {
    if (!modules_[mi].contains_code(pc)) continue;
    if (mi >= prof_mods_.size() || prof_mods_[mi] == nullptr) return 0;
    const cfg::BasicBlock* bb = prof_mods_[mi]->cfg.block_at(pc - modules_[mi].code_base());
    return bb != nullptr ? modules_[mi].code_base() + bb->end : 0;
  }
  return 0;
}

void Machine::prof_sample(gva_t pc, u16 extra_flags) {
  obs::Profiler& prof = obs::Profiler::global();
  u32 block = 0;
  size_t mi = modules_.size();
  for (size_t i = 0; i < modules_.size(); ++i) {
    if (modules_[i].contains_code(pc)) {
      mi = i;
      break;
    }
  }
  if (mi < modules_.size()) {
    const LoadedModule& mod = modules_[mi];
    if (prof_mods_.size() < modules_.size()) prof_mods_.resize(modules_.size());
    std::unique_ptr<ProfModCache>& pm = prof_mods_[mi];
    if (pm == nullptr)
      pm = std::make_unique<ProfModCache>(
          ProfModCache{cfg::Cfg::build_all(*mod.image), {}});
    u64 off = pc - mod.code_base();
    const cfg::BasicBlock* bb = pm->cfg.block_at(off);
    // Code the static disassembly never reached (e.g. computed targets)
    // falls back to the raw offset — still a stable, meaningful name.
    u64 leader = bb != nullptr ? bb->begin : off;
    auto it = pm->block_ids.find(leader);
    if (it == pm->block_ids.end()) {
      u32 id = prof.intern(strf("%s+0x%llx", mod.image->name.c_str(),
                                static_cast<unsigned long long>(leader)));
      it = pm->block_ids.emplace(leader, id).first;
    }
    block = it->second;
  } else {
    if (prof_anon_block_ == 0) prof_anon_block_ = prof.intern("[anon]");
    block = prof_anon_block_;
  }
  const obs::ProfContext& ctx = obs::Profiler::context();
  obs::ProfSample s;
  s.block = block;
  s.stage = ctx.stage;
  s.target = ctx.target;
  s.syscall = ctx.syscall;
  s.flags = static_cast<u16>(ctx.flags | extra_flags);
  prof.record(s);
}

void Machine::publish_instret() {
  u64 delta = instret_ - instret_published_;
  instret_published_ = instret_;
  // Counter::inc drops the delta when recording is disabled, which gives the
  // same semantics as an unbatched per-step inc (instructions retired while
  // observability is off are not counted).
  if (delta != 0) c_instret_->inc(delta);
  // The taint shadow batches its counters the same way; flush on the same
  // cadence so live telemetry sees both advance together.
  if (taint_shadow_ != nullptr) taint_shadow_->publish();
}

size_t Machine::load_image(std::shared_ptr<const isa::Image> image) {
  CRP_CHECK(image != nullptr);
  LoadedModule mod;
  mod.image = image;
  gva_t base = layout_.place(mem::RegionKind::kImage, image->mapped_size(), image->name);
  mod.base = base;

  gva_t cursor = base;
  for (const auto& sec : image->sections) {
    u64 vsize = std::max<u64>(sec.vsize, sec.bytes.size());
    u64 map_size = align_up(std::max<u64>(vsize, 1), mem::kPageSize);
    u8 perms = mem::kPermR;
    if (sec.writable) perms |= mem::kPermW;
    if (sec.executable) perms |= mem::kPermX;
    CRP_CHECK(mem_.map(cursor, map_size, perms));
    if (!sec.bytes.empty()) CRP_CHECK(mem_.poke(cursor, sec.bytes));
    mod.section_base.push_back(cursor);
    cursor += map_size;
  }

  // Resolve imports against modules loaded so far (including self-exports).
  mod.import_addr.resize(image->imports.size(), 0);
  for (size_t i = 0; i < image->imports.size(); ++i) {
    const auto& imp = image->imports[i];
    for (const auto& other : modules_) {
      if (other.image->name != imp.module) continue;
      gva_t a = other.export_addr(imp.symbol);
      if (a != 0) {
        mod.import_addr[i] = a;
        break;
      }
    }
  }
  modules_.push_back(std::move(mod));
  CRP_DEBUG("vm", "loaded %s at 0x%llx", image->name.c_str(),
            static_cast<unsigned long long>(base));
  return modules_.size() - 1;
}

const LoadedModule* Machine::module_named(const std::string& name) const {
  for (const auto& m : modules_)
    if (m.image->name == name) return &m;
  return nullptr;
}

const LoadedModule* Machine::module_at(gva_t pc) const {
  for (const auto& m : modules_)
    if (m.contains_code(pc)) return &m;
  return nullptr;
}

gva_t Machine::resolve(const std::string& module, const std::string& symbol) const {
  const LoadedModule* m = module_named(module);
  if (m == nullptr) return 0;
  gva_t a = m->export_addr(symbol);
  if (a == 0) a = m->symbol_addr(symbol);
  return a;
}

void Machine::add_veh(gva_t handler) { veh_.push_back(handler); }

void Machine::remove_veh(gva_t handler) {
  veh_.erase(std::remove(veh_.begin(), veh_.end(), handler), veh_.end());
}

void Machine::set_signal_handler(int signo, gva_t handler) {
  CRP_CHECK(signo >= 0 && signo < 32);
  sig_handlers_[signo] = handler;
}

gva_t Machine::signal_handler(int signo) const {
  return (signo >= 0 && signo < 32) ? sig_handlers_[signo] : 0;
}

void Machine::add_observer(ExecObserver* obs) {
  observers_.push_back(obs);
  recompute_exec_mode();
}

void Machine::remove_observer(ExecObserver* obs) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), obs), observers_.end());
  recompute_exec_mode();
}

void Machine::notify_exec(const ExecEvent& ev, const Cpu& cpu) {
  for (auto* o : observers_) o->on_exec(ev, cpu);
}
void Machine::notify_exception(const ExceptionRecord& rec, DispatchOutcome outcome) {
  c_dispatch_[static_cast<size_t>(outcome)]->inc();
  for (auto* o : observers_) o->on_exception(rec, outcome);
}
void Machine::notify_filter(gva_t handler, const ExceptionRecord& rec, i64 disp) {
  for (auto* o : observers_) o->on_filter(handler, rec, disp);
}

// --- interpreter -------------------------------------------------------------

Machine::ExecOutcome Machine::execute(Cpu& cpu, const isa::Instr& ins, gva_t pc, ExecEvent& ev) {
  using isa::Op;
  using isa::Reg;
  ExecOutcome out;
  gva_t next = pc + isa::kInstrBytes;
  cpu.pc = next;  // default fallthrough; control flow overrides

  auto fault = [&](ExcCode code, gva_t addr, mem::Access kind) {
    out.ok = false;
    out.exc = {code, pc, addr, kind};
    cpu.pc = pc;  // leave pc at the faulting instruction
  };
  auto mem_fault = [&](const mem::AccessResult& r) {
    fault(ExcCode::kAccessViolation, r.fault_addr, r.kind);
  };
  auto set_cmp_flags = [&](u64 a, u64 b) {
    u64 d = a - b;
    cpu.zf = d == 0;
    cpu.sf = (d >> 63) != 0;
    cpu.cf = a < b;
    cpu.of = (((a ^ b) & (a ^ d)) >> 63) != 0;
  };

  u64& ra = cpu.reg(ins.ra);
  u64 rb = cpu.reg(ins.rb);
  i64 imm = ins.imm;

  switch (ins.op) {
    case Op::kNop: break;
    case Op::kHalt:
      out.trap.kind = StepKind::kHalt;
      break;
    case Op::kMovRR: ra = rb; break;
    case Op::kMovRI: ra = static_cast<u64>(imm); break;
    case Op::kLea: ra = rb + static_cast<u64>(imm); break;
    case Op::kLeaPc: ra = next + static_cast<u64>(imm); break;
    case Op::kLoad: {
      gva_t addr = rb + static_cast<u64>(imm);
      ev.mem_addr = addr;
      ev.mem_size = ins.w;
      u64 v = 0;
      mem::AccessResult r = mem_.read_uint(addr, ins.w, &v);
      if (!r.ok) {
        mem_fault(r);
        break;
      }
      ra = v;
      break;
    }
    case Op::kStore: {
      gva_t addr = ra + static_cast<u64>(imm);
      ev.mem_addr = addr;
      ev.mem_size = ins.w;
      ev.mem_write = true;
      mem::AccessResult r = mem_.write_uint(addr, ins.w, rb);
      if (!r.ok) mem_fault(r);
      break;
    }
    case Op::kPush: {
      gva_t addr = cpu.sp() - 8;
      ev.mem_addr = addr;
      ev.mem_size = 8;
      ev.mem_write = true;
      mem::AccessResult r = mem_.write_uint(addr, 8, ra);
      if (!r.ok) {
        mem_fault(r);
        break;
      }
      cpu.sp() = addr;
      break;
    }
    case Op::kPop: {
      gva_t addr = cpu.sp();
      ev.mem_addr = addr;
      ev.mem_size = 8;
      u64 v = 0;
      mem::AccessResult r = mem_.read_uint(addr, 8, &v);
      if (!r.ok) {
        mem_fault(r);
        break;
      }
      ra = v;
      cpu.sp() = addr + 8;
      break;
    }
    case Op::kAddRR: ra += rb; break;
    case Op::kAddRI: ra += static_cast<u64>(imm); break;
    case Op::kSubRR: ra -= rb; break;
    case Op::kSubRI: ra -= static_cast<u64>(imm); break;
    case Op::kMulRR: ra *= rb; break;
    case Op::kMulRI: ra *= static_cast<u64>(imm); break;
    case Op::kDivRR:
      if (rb == 0) {
        fault(ExcCode::kIntDivideByZero, 0, mem::Access::kRead);
        break;
      }
      ra /= rb;
      break;
    case Op::kModRR:
      if (rb == 0) {
        fault(ExcCode::kIntDivideByZero, 0, mem::Access::kRead);
        break;
      }
      ra %= rb;
      break;
    case Op::kAndRR: ra &= rb; break;
    case Op::kAndRI: ra &= static_cast<u64>(imm); break;
    case Op::kOrRR: ra |= rb; break;
    case Op::kOrRI: ra |= static_cast<u64>(imm); break;
    case Op::kXorRR: ra ^= rb; break;
    case Op::kXorRI: ra ^= static_cast<u64>(imm); break;
    case Op::kShlRI: ra <<= (imm & 63); break;
    case Op::kShrRI: ra >>= (imm & 63); break;
    case Op::kSarRI: ra = static_cast<u64>(static_cast<i64>(ra) >> (imm & 63)); break;
    case Op::kShlRR: ra <<= (rb & 63); break;
    case Op::kShrRR: ra >>= (rb & 63); break;
    case Op::kNot: ra = ~ra; break;
    case Op::kNeg: ra = 0 - ra; break;
    case Op::kCmpRR: set_cmp_flags(ra, rb); break;
    case Op::kCmpRI: set_cmp_flags(ra, static_cast<u64>(imm)); break;
    case Op::kTestRR: {
      u64 v = ra & rb;
      cpu.zf = v == 0;
      cpu.sf = (v >> 63) != 0;
      cpu.cf = cpu.of = false;
      break;
    }
    case Op::kTestRI: {
      u64 v = ra & static_cast<u64>(imm);
      cpu.zf = v == 0;
      cpu.sf = (v >> 63) != 0;
      cpu.cf = cpu.of = false;
      break;
    }
    case Op::kJmp:
      cpu.pc = next + static_cast<u64>(imm);
      ev.branch_taken = true;
      ev.branch_target = cpu.pc;
      break;
    case Op::kJmpR:
      cpu.pc = ra;
      ev.branch_taken = true;
      ev.branch_target = cpu.pc;
      break;
    case Op::kJcc:
      if (cpu.eval(static_cast<isa::Cond>(ins.w))) {
        cpu.pc = next + static_cast<u64>(imm);
        ev.branch_taken = true;
        ev.branch_target = cpu.pc;
      }
      break;
    case Op::kCall:
    case Op::kCallR:
    case Op::kCallImp: {
      gva_t target = 0;
      if (ins.op == Op::kCall) {
        target = next + static_cast<u64>(imm);
      } else if (ins.op == Op::kCallR) {
        target = ra;
      } else {
        const LoadedModule* m = module_at(pc);
        size_t idx = static_cast<size_t>(imm);
        if (m == nullptr || idx >= m->import_addr.size() || m->import_addr[idx] == 0) {
          fault(ExcCode::kIllegalInstruction, pc, mem::Access::kExec);
          break;
        }
        target = m->import_addr[idx];
      }
      gva_t slot = cpu.sp() - 8;
      ev.mem_addr = slot;
      ev.mem_size = 8;
      ev.mem_write = true;
      mem::AccessResult r = mem_.write_uint(slot, 8, next);
      if (!r.ok) {
        mem_fault(r);
        break;
      }
      cpu.sp() = slot;
      cpu.pc = target;
      ev.is_call = true;
      ev.branch_taken = true;
      ev.branch_target = target;
      break;
    }
    case Op::kRet: {
      gva_t slot = cpu.sp();
      ev.mem_addr = slot;
      ev.mem_size = 8;
      u64 target = 0;
      mem::AccessResult r = mem_.read_uint(slot, 8, &target);
      if (!r.ok) {
        mem_fault(r);
        break;
      }
      cpu.sp() = slot + 8;
      cpu.pc = target;
      ev.is_ret = true;
      ev.branch_taken = true;
      ev.branch_target = target;
      break;
    }
    case Op::kSyscall:
      if (personality_ != Personality::kLinux) {
        fault(ExcCode::kIllegalInstruction, pc, mem::Access::kExec);
        break;
      }
      out.trap.kind = StepKind::kSyscallTrap;
      break;
    case Op::kApiCall:
      if (personality_ != Personality::kWindows) {
        fault(ExcCode::kIllegalInstruction, pc, mem::Access::kExec);
        break;
      }
      out.trap.kind = StepKind::kApiTrap;
      out.trap.api_id = imm;
      break;
    case Op::kCount:
      fault(ExcCode::kIllegalInstruction, pc, mem::Access::kExec);
      break;
  }
  return out;
}

bool Machine::chaos_step_inject(Cpu& cpu, StepResult* out) {
  ExceptionRecord rec;
  if (chaos_.fire(chaos::Point::kVmAv)) {
    // AV at a poisoned, never-mapped data address; the faulting instruction
    // is whatever the guest was about to execute.
    u64 d = chaos_.draw(chaos::Point::kVmAv);
    rec = {ExcCode::kAccessViolation, cpu.pc,
           0xC4A0'5000'0000'0000ull | (d & 0x0000'00FF'FFFF'F000ull), mem::Access::kRead};
  } else if (chaos_.fire(chaos::Point::kVmSingleStep)) {
    rec = {ExcCode::kSingleStep, cpu.pc, cpu.pc, mem::Access::kExec};
  } else {
    return false;
  }
  if (dispatch_exception(cpu, rec)) {
    *out = {};
    return true;
  }
  out->kind = StepKind::kCrash;
  out->exc = rec;
  return true;
}

StepResult Machine::step(Cpu& cpu) {
  if (chaos_countdown_ != 0 && --chaos_countdown_ == 0) {
    chaos_countdown_ = kChaosVmInterval;
    if (StepResult r; chaos_step_inject(cpu, &r)) return r;
  }
  if (prof_countdown_ != 0 && --prof_countdown_ == 0) {
    prof_countdown_ = prof_interval_;
    prof_sample(cpu.pc, 0);
  }
  gva_t pc = cpu.pc;
  u8 word[isa::kInstrBytes];
  mem::AccessResult fr = mem_.fetch(pc, word);
  ExecEvent ev;
  ev.pc = pc;

  ExceptionRecord exc;
  bool faulted = false;

  if (!fr.ok) {
    exc = {ExcCode::kAccessViolation, pc, fr.fault_addr, mem::Access::kExec};
    faulted = true;
  } else {
    std::optional<isa::Instr> ins = isa::decode(word);
    if (!ins.has_value()) {
      exc = {ExcCode::kIllegalInstruction, pc, pc, mem::Access::kExec};
      faulted = true;
    } else {
      ev.ins = *ins;
      ExecOutcome out = execute(cpu, *ins, pc, ev);
      if (out.ok) {
        ++instret_;
        if ((instret_ & (kObsPublishInterval - 1)) == 0) publish_instret();
        notify_exec(ev, cpu);
        if (out.trap.kind != StepKind::kOk) return out.trap;
        return {};
      }
      exc = out.exc;
      faulted = true;
    }
  }

  CRP_CHECK(faulted);
  ev.faulted = true;
  notify_exec(ev, cpu);
  if (dispatch_exception(cpu, exc)) return {};
  StepResult res;
  res.kind = StepKind::kCrash;
  res.exc = exc;
  return res;
}

StepResult Machine::run(Cpu& cpu, u64 max_steps) {
  u64 spent = 0;
  while (spent < max_steps) {
    BlockResult br = run_block(cpu, max_steps - spent);
    spent += br.steps;
    if (br.res.kind != StepKind::kOk) return br.res;
    CRP_CHECK(br.steps != 0);  // run_block guarantees progress
  }
  return {};
}

// --- exception dispatch -------------------------------------------------------

gva_t Machine::write_exc_record(const Cpu& cpu, const ExceptionRecord& rec) {
  // Place the record below the current stack pointer with a 128-byte red
  // zone, 16-byte aligned — modeling the hardware exception frame push. If
  // the stack itself is not writable, dispatch is impossible (double fault).
  gva_t addr = align_down(cpu.sp() - 128 - kExcRecSize, 16);
  u8 buf[kExcRecSize] = {};
  auto put = [&](u64 off, u64 v) {
    for (int i = 0; i < 8; ++i) buf[off + static_cast<u64>(i)] = static_cast<u8>(v >> (8 * i));
  };
  put(kExcRecCode, static_cast<u64>(rec.code));
  put(kExcRecPc, rec.fault_pc);
  put(kExcRecAddr, rec.fault_addr);
  put(kExcRecAccess, static_cast<u64>(rec.access));
  for (int r = 0; r < isa::kNumRegs; ++r) put(kExcRecRegs + 8 * static_cast<u64>(r), cpu.regs[static_cast<size_t>(r)]);
  put(kExcRecCtxPc, cpu.pc);
  put(kExcRecCtxFlags, cpu.flags_word());
  mem::AccessResult r = mem_.write(addr, buf);
  return r.ok ? addr : 0;
}

void Machine::reload_context(Cpu& cpu, gva_t rec_addr) {
  for (int r = 0; r < isa::kNumRegs; ++r) {
    u64 v = 0;
    if (mem_.peek_u64(rec_addr + kExcRecRegs + 8 * static_cast<u64>(r), &v))
      cpu.regs[static_cast<size_t>(r)] = v;
  }
  u64 pc = 0, flags = 0;
  if (mem_.peek_u64(rec_addr + kExcRecCtxPc, &pc)) cpu.pc = pc;
  if (mem_.peek_u64(rec_addr + kExcRecCtxFlags, &flags)) cpu.set_flags_word(flags);
}

std::optional<i64> Machine::run_filter(const Cpu& at_fault, gva_t entry,
                                       const ExceptionRecord& rec, gva_t rec_addr, int depth) {
  if (depth >= kMaxDispatchDepth) return std::nullopt;
  c_filter_evals_->inc();
  Cpu ctx = at_fault;
  ctx.pc = entry;
  ctx.reg(isa::Reg::R1) = static_cast<u64>(rec.code);
  ctx.reg(isa::Reg::R2) = rec_addr;
  // Private filter stack frame below the record.
  ctx.sp() = align_down(rec_addr - 64, 16);
  // Push the sentinel return address.
  ctx.sp() -= 8;
  if (!mem_.write_uint(ctx.sp(), 8, kSentinelRet).ok) return std::nullopt;

  for (u64 i = 0; i < kMaxFilterSteps; ++i) {
    if (ctx.pc == kSentinelRet) return static_cast<i64>(ctx.reg(isa::Reg::R0));
    if (prof_countdown_ != 0 && --prof_countdown_ == 0) {
      prof_countdown_ = prof_interval_;
      prof_sample(ctx.pc, obs::kProfFilter);
    }
    gva_t pc = ctx.pc;
    u8 word[isa::kInstrBytes];
    mem::AccessResult fr = mem_.fetch(pc, word);
    if (!fr.ok) return std::nullopt;  // nested fault in filter: abandon
    std::optional<isa::Instr> ins = isa::decode(word);
    if (!ins.has_value()) return std::nullopt;
    if (ins->op == isa::Op::kSyscall || ins->op == isa::Op::kApiCall ||
        ins->op == isa::Op::kHalt)
      return std::nullopt;  // filters must be pure w.r.t. the OS
    ExecEvent ev;
    ev.pc = pc;
    ev.ins = *ins;
    ExecOutcome out = execute(ctx, *ins, pc, ev);
    ++instret_;
    if ((instret_ & (kObsPublishInterval - 1)) == 0) publish_instret();
    if (!out.ok) {
      // A fault inside the filter itself: Windows treats this as a nested
      // exception; we conservatively abandon the filter (CONTINUE_SEARCH).
      return std::nullopt;
    }
  }
  return std::nullopt;  // filter ran away
}

bool Machine::dispatch_exception(Cpu& cpu, const ExceptionRecord& rec) {
  ++exc_stats_.total;
  c_exceptions_->inc();
  publish_instret();  // exceptions are rare; keep instr_retired exact here

  // §VII mapped-only policy: AVs touching unmapped memory are always fatal.
  if (mapped_only_av_ && rec.code == ExcCode::kAccessViolation &&
      !mem_.is_mapped(rec.fault_addr)) {
    ++exc_stats_.unhandled;
    c_mapped_only_kills_->inc();
    notify_exception(rec, DispatchOutcome::kUnhandled);
    return false;
  }

  gva_t rec_addr = write_exc_record(cpu, rec);
  if (rec_addr == 0) {
    ++exc_stats_.unhandled;
    notify_exception(rec, DispatchOutcome::kUnhandled);
    return false;
  }

  if (personality_ == Personality::kWindows) {
    // 1. Vectored handlers, registration order.
    for (gva_t h : veh_) {
      std::optional<i64> disp = run_filter(cpu, h, rec, rec_addr, nest_depth_);
      if (!disp.has_value()) continue;
      notify_filter(h, rec, *disp);
      if (*disp == kExceptionContinueExecution) {
        reload_context(cpu, rec_addr);
        ++exc_stats_.handled_veh;
        ++exc_stats_.continued;
        notify_exception(rec, DispatchOutcome::kVehContinue);
        return true;
      }
      // CONTINUE_SEARCH: next handler.
    }
    // 2. Structured scopes: first the faulting frame (innermost scopes
    //    first), then each caller frame by walking the stack for return
    //    addresses — the two-phase SEH walk that lets a fault deep inside
    //    EnterCriticalSection reach jscript9's MUTX::Enter handler (§VI-A).
    //    `frame_sp` is the stack pointer value to restore when a frame's
    //    handler takes over (as if the callee chain had returned).
    struct Frame {
      gva_t pc;
      u64 sp;
    };
    std::vector<Frame> frames;
    frames.push_back({rec.fault_pc, cpu.sp()});
    constexpr int kMaxWalkSlots = 1024;
    for (int i = 0; i < kMaxWalkSlots; ++i) {
      gva_t slot = cpu.sp() + 8 * static_cast<u64>(i);
      u64 v = 0;
      if (!mem_.peek_u64(slot, &v)) break;  // ran off the stack mapping
      if (v < isa::kInstrBytes) continue;
      const LoadedModule* m = module_at(v);
      if (m == nullptr || !m->contains_code(v - isa::kInstrBytes)) continue;
      // A return address points just past a call-family instruction.
      u8 word[isa::kInstrBytes];
      if (!mem_.peek(v - isa::kInstrBytes, word)) continue;
      std::optional<isa::Instr> ins = isa::decode(word);
      if (!ins.has_value() ||
          (ins->op != isa::Op::kCall && ins->op != isa::Op::kCallR &&
           ins->op != isa::Op::kCallImp))
        continue;
      frames.push_back({v - isa::kInstrBytes, slot + 8});
    }

    for (const Frame& frame : frames) {
      const LoadedModule* mod = module_at(frame.pc);
      if (mod == nullptr) continue;
      for (const isa::ScopeEntry* sc : mod->scopes_at(frame.pc)) {
        i64 disp;
        if (sc->filter == isa::kFilterCatchAll) {
          disp = kExceptionExecuteHandler;
          notify_filter(isa::kFilterCatchAll, rec, disp);
        } else {
          std::optional<i64> d =
              run_filter(cpu, mod->code_addr(sc->filter), rec, rec_addr, nest_depth_);
          if (!d.has_value()) continue;
          disp = *d;
          notify_filter(mod->code_addr(sc->filter), rec, disp);
        }
        if (disp == kExceptionExecuteHandler) {
          // Unwind to the handler's frame: resume at the __except block
          // with the exception code in R0 and SP as if the callee chain
          // below this frame had returned.
          cpu.pc = mod->code_addr(sc->handler);
          cpu.sp() = frame.sp;
          cpu.reg(isa::Reg::R0) = static_cast<u64>(rec.code);
          ++exc_stats_.handled_seh;
          notify_exception(rec, DispatchOutcome::kSehHandler);
          return true;
        }
        if (disp == kExceptionContinueExecution) {
          reload_context(cpu, rec_addr);
          ++exc_stats_.handled_seh;
          ++exc_stats_.continued;
          notify_exception(rec, DispatchOutcome::kSehContinue);
          return true;
        }
        // CONTINUE_SEARCH: next scope / outer frame.
      }
    }
    ++exc_stats_.unhandled;
    notify_exception(rec, DispatchOutcome::kUnhandled);
    return false;
  }

  // Linux personality: signal dispatch.
  int signo = signo_for(rec.code);
  gva_t handler = is_dispatchable_signal(signo) ? sig_handlers_[signo] : 0;
  if (handler != 0) {
    // handler(signo, siginfo*, ucontext*) — ucontext is the context part of
    // the record; the handler may edit saved pc/regs to recover.
    Cpu ctx = cpu;
    ctx.pc = handler;
    ctx.reg(isa::Reg::R1) = static_cast<u64>(signo);
    ctx.reg(isa::Reg::R2) = rec_addr;
    ctx.reg(isa::Reg::R3) = rec_addr + kExcRecRegs;
    ctx.sp() = align_down(rec_addr - 64, 16) - 8;
    if (mem_.write_uint(ctx.sp(), 8, kSentinelRet).ok && nest_depth_ < kMaxDispatchDepth) {
      ++nest_depth_;
      bool completed = false;
      for (u64 i = 0; i < kMaxFilterSteps; ++i) {
        if (ctx.pc == kSentinelRet) {
          completed = true;
          break;
        }
        StepResult r = step(ctx);
        if (r.kind != StepKind::kOk) break;  // fault/trap inside handler
      }
      --nest_depth_;
      if (completed) {
        u64 saved_pc = 0;
        CRP_CHECK(mem_.peek_u64(rec_addr + kExcRecCtxPc, &saved_pc));
        if (saved_pc == rec.fault_pc) {
          // Handler returned without advancing the context: re-executing
          // would fault forever; treat as death by SIGSEGV loop.
          ++exc_stats_.unhandled;
          notify_exception(rec, DispatchOutcome::kUnhandled);
          return false;
        }
        reload_context(cpu, rec_addr);
        ++exc_stats_.handled_signal;
        notify_exception(rec, DispatchOutcome::kSignalHandler);
        return true;
      }
    }
  }
  ++exc_stats_.unhandled;
  notify_exception(rec, DispatchOutcome::kUnhandled);
  return false;
}

std::optional<u64> Machine::call_subroutine(const Cpu& base, gva_t entry,
                                            std::initializer_list<u64> args, u64 max_steps) {
  Cpu ctx = base;
  ctx.pc = entry;
  int i = 1;
  for (u64 a : args) {
    CRP_CHECK(i <= 6);
    ctx.regs[static_cast<size_t>(i++)] = a;
  }
  ctx.sp() = align_down(ctx.sp() - 256, 16) - 8;
  if (!mem_.write_uint(ctx.sp(), 8, kSentinelRet).ok) return std::nullopt;
  for (u64 n = 0; n < max_steps;) {
    if (ctx.pc == kSentinelRet) return ctx.reg(isa::Reg::R0);
    BlockResult r = run_block(ctx, max_steps - n);
    n += r.steps;
    if (r.res.kind != StepKind::kOk) return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace crp::vm
