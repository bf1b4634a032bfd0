// Microbenchmarks (google-benchmark) for the CRProbe substrates: interpreter
// throughput, taint-tracking overhead, SEH dispatch cost, SAT solving,
// symbolic filter classification, image (de)serialization, and end-to-end
// oracle probe latency.
//
// Every benchmark runs a fixed iteration count (each about 0.1-0.3 s on a
// 4-core RelWithDebInfo build), not google-benchmark's time-based one, so
// the counters in BENCH_micro.json (vm.instr_retired, analysis.pool.tasks)
// follow the code rather than the host's speed and benchdiff can gate them.

#include <benchmark/benchmark.h>

#include <memory>

#include "analysis/seh_analysis.h"
#include "isa/assembler.h"
#include "obs/bench_support.h"
#include "obs/obs.h"
#include "oracle/oracle.h"
#include "os/kernel.h"
#include "symex/solver.h"
#include "taint/taint.h"
#include "targets/browser.h"
#include "targets/common.h"
#include "targets/dll_corpus.h"
#include "vm/machine.h"

namespace {

using namespace crp;
using isa::Assembler;
using isa::Cond;
using isa::Reg;

isa::Image spin_image(int unroll) {
  Assembler a("spin");
  a.label("e");
  a.movi(Reg::R1, 0);
  a.label("loop");
  for (int i = 0; i < unroll; ++i) {
    a.addi(Reg::R1, 1);
    a.xori(Reg::R2, 3);
    a.mov(Reg::R3, Reg::R1);
  }
  a.jmp("loop");
  a.set_entry("e");
  return a.build();
}

void BM_InterpreterThroughput(benchmark::State& state) {
  vm::Machine m(vm::Personality::kLinux, 1);
  size_t idx = m.load_image(std::make_shared<isa::Image>(spin_image(16)));
  gva_t stack = m.layout().place(mem::RegionKind::kStack, 65536, "s");
  CRP_CHECK(m.mem().map(stack, 65536, mem::kPermR | mem::kPermW));
  vm::Cpu cpu;
  cpu.pc = m.modules()[idx].code_addr(0);
  cpu.sp() = stack + 65000;
  for (auto _ : state) {
    m.run(cpu, 10000);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 10000);
}
BENCHMARK(BM_InterpreterThroughput)->Iterations(8000);

// The documented-overhead pair: identical interpreter loop with metric
// recording on vs off (the runtime kill switch).
void BM_StepObsOn(benchmark::State& state) {
  obs::set_runtime_enabled(true);
  vm::Machine m(vm::Personality::kLinux, 1);
  size_t idx = m.load_image(std::make_shared<isa::Image>(spin_image(16)));
  gva_t stack = m.layout().place(mem::RegionKind::kStack, 65536, "s");
  CRP_CHECK(m.mem().map(stack, 65536, mem::kPermR | mem::kPermW));
  vm::Cpu cpu;
  cpu.pc = m.modules()[idx].code_addr(0);
  cpu.sp() = stack + 65000;
  for (auto _ : state) {
    m.run(cpu, 10000);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 10000);
}
BENCHMARK(BM_StepObsOn)->Iterations(8000);

void BM_StepObsOff(benchmark::State& state) {
  obs::set_runtime_enabled(false);
  vm::Machine m(vm::Personality::kLinux, 1);
  size_t idx = m.load_image(std::make_shared<isa::Image>(spin_image(16)));
  gva_t stack = m.layout().place(mem::RegionKind::kStack, 65536, "s");
  CRP_CHECK(m.mem().map(stack, 65536, mem::kPermR | mem::kPermW));
  vm::Cpu cpu;
  cpu.pc = m.modules()[idx].code_addr(0);
  cpu.sp() = stack + 65000;
  for (auto _ : state) {
    m.run(cpu, 10000);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 10000);
  obs::set_runtime_enabled(true);
}
BENCHMARK(BM_StepObsOff)->Iterations(8000);

void BM_InterpreterWithTaint(benchmark::State& state) {
  os::Kernel k;
  int pid = k.create_process("spin", vm::Personality::kLinux, 1);
  k.proc(pid).load(std::make_shared<isa::Image>(spin_image(16)));
  k.start_process(pid);
  taint::TaintEngine taint(k, k.proc(pid));
  for (auto _ : state) {
    k.run(10000);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 10000);
}
BENCHMARK(BM_InterpreterWithTaint)->Iterations(2000);

void BM_SehDispatchHandledAv(benchmark::State& state) {
  // One guarded faulting load, handled by a catch-all scope, in a loop.
  Assembler a("faulty");
  a.label("e");
  a.movi(Reg::R2, 0x400000);
  a.label("loop");
  a.label("tb");
  a.load(Reg::R1, Reg::R2, 8);
  a.label("te");
  a.nop();
  a.label("h");
  a.jmp("loop");
  a.set_entry("e");
  a.scope("tb", "te", "", "h");
  vm::Machine m(vm::Personality::kWindows, 1);
  size_t idx = m.load_image(std::make_shared<isa::Image>(a.build()));
  gva_t stack = m.layout().place(mem::RegionKind::kStack, 65536, "s");
  CRP_CHECK(m.mem().map(stack, 65536, mem::kPermR | mem::kPermW));
  vm::Cpu cpu;
  cpu.pc = m.modules()[idx].code_addr(0);
  cpu.sp() = stack + 65000;
  for (auto _ : state) {
    m.run(cpu, 1000);
  }
  state.SetItemsProcessed(
      static_cast<i64>(m.exception_stats().handled_seh));
}
BENCHMARK(BM_SehDispatchHandledAv)->Iterations(100);

void BM_SatSmallBitvector(benchmark::State& state) {
  for (auto _ : state) {
    symex::Ctx c;
    symex::ExprRef x = c.var("x");
    symex::Solver s(c);
    s.add(c.eq(c.band(c.add(x, c.constant(17)), c.constant(0xffff)), c.constant(0x1234)));
    benchmark::DoNotOptimize(s.check());
  }
}
BENCHMARK(BM_SatSmallBitvector)->Iterations(1000);

void BM_FilterClassification(benchmark::State& state) {
  targets::DllSpec spec{"bench", isa::Machine::kX64, 30, 12, 0, 20, 10};
  auto dll = targets::generate_dll(spec, 42);
  for (auto _ : state) {
    analysis::SehExtractor ex;
    ex.add_image(dll.image);
    analysis::FilterClassifier fc;
    benchmark::DoNotOptimize(fc.classify_all(ex));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 20);
}
BENCHMARK(BM_FilterClassification)->Iterations(50);

void BM_ImageRoundTrip(benchmark::State& state) {
  targets::DllSpec spec{"bench", isa::Machine::kX64, 60, 20, 0, 40, 15};
  auto dll = targets::generate_dll(spec, 42);
  auto bytes = isa::write_image(*dll.image);
  for (auto _ : state) {
    benchmark::DoNotOptimize(isa::read_image(bytes));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(bytes.size()));
}
BENCHMARK(BM_ImageRoundTrip)->Iterations(8000);

void BM_OracleProbeIe(benchmark::State& state) {
  os::Kernel k;
  targets::BrowserSim b(k, {targets::BrowserSim::Kind::kIE, 0xBE, 0});
  oracle::SehProbeOracle probe(b);
  u64 addr = 0x7100000000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(probe.probe(addr));
    addr += 4096;
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_OracleProbeIe)->Iterations(40000);

void BM_KernelSyscallPath(benchmark::State& state) {
  Assembler a("sys");
  a.label("e");
  a.label("loop");
  a.movi(Reg::R0, static_cast<i64>(os::Sys::kGetpid));
  a.syscall();
  a.jmp("loop");
  a.set_entry("e");
  os::Kernel k;
  int pid = k.create_process("sys", vm::Personality::kLinux, 1);
  k.proc(pid).load(std::make_shared<isa::Image>(a.build()));
  k.start_process(pid);
  for (auto _ : state) {
    k.run(3000);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 1000);
}
BENCHMARK(BM_KernelSyscallPath)->Iterations(5000);

}  // namespace

// BENCHMARK_MAIN expanded so a BenchSession wraps the run and dumps
// BENCH_micro.json alongside google-benchmark's own output.
int main(int argc, char** argv) {
  crp::obs::BenchSession obs_session("micro");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
