#include <gtest/gtest.h>

#include <memory>

#include "chaos/chaos.h"
#include "isa/assembler.h"
#include "os/kernel.h"

namespace crp::os {
namespace {

using isa::Assembler;
using isa::Cond;
using isa::Reg;

/// Emit a syscall: number + up to 6 register args already set by caller.
void emit_syscall(Assembler& a, Sys nr) {
  a.movi(Reg::R0, static_cast<i64>(nr));
  a.syscall();
}

/// Convenience world: one Linux process running `img`.
struct LinuxWorld {
  Kernel k;
  int pid;

  explicit LinuxWorld(isa::Image img, u64 seed = 11) : pid(0) {
    pid = k.create_process(img.name, vm::Personality::kLinux, seed);
    k.proc(pid).load(std::make_shared<isa::Image>(std::move(img)));
    k.start_process(pid);
  }
  Process& p() { return k.proc(pid); }
};

TEST(Vfs, BasicOperations) {
  Vfs v;
  v.put_file("/etc/conf", "hello");
  EXPECT_TRUE(v.exists("/etc/conf"));
  EXPECT_TRUE(v.exists("/etc"));
  EXPECT_EQ(v.mkdir("/tmp", 0755), 0);
  EXPECT_EQ(v.mkdir("/tmp", 0755), -kEEXIST);
  EXPECT_EQ(v.mkdir("/no/parent/here", 0755), -kENOENT);
  EXPECT_EQ(v.chmod("/etc/conf", 0600), 0);
  EXPECT_EQ(v.resolve("/etc/conf")->mode, 0600u);
  EXPECT_EQ(v.chmod("/nope", 0600), -kENOENT);
  EXPECT_EQ(v.symlink("/etc/conf", "/tmp/link"), 0);
  ASSERT_NE(v.resolve("/tmp/link"), nullptr);
  EXPECT_EQ(v.resolve("/tmp/link")->data.size(), 5u);
  EXPECT_EQ(v.unlink("/tmp/link"), 0);
  EXPECT_EQ(v.unlink("/tmp"), -kEISDIR);
  EXPECT_EQ(v.unlink("/gone"), -kENOENT);
}

TEST(Vfs, NormalizePaths) {
  EXPECT_EQ(Vfs::normalize("//a///b/"), "/a/b");
  EXPECT_EQ(Vfs::normalize("a/b"), "/a/b");
  EXPECT_EQ(Vfs::normalize("/"), "/");
  EXPECT_EQ(Vfs::normalize("/a/./b"), "/a/b");
  EXPECT_EQ(Vfs::parent_of("/a/b"), "/a");
  EXPECT_EQ(Vfs::parent_of("/a"), "/");
}

TEST(Vfs, SymlinkLoopResolvesToNull) {
  Vfs v;
  ASSERT_EQ(v.symlink("/b", "/a"), 0);
  ASSERT_EQ(v.symlink("/a", "/b"), 0);
  EXPECT_EQ(v.resolve("/a"), nullptr);
}

TEST(Net, ConnectAcceptAndStreams) {
  Network n;
  EXPECT_FALSE(n.connect(80, 1).has_value());
  n.listen(80);
  auto cid = n.connect(80, 5);
  ASSERT_TRUE(cid.has_value());
  EXPECT_EQ(n.backlog(80), 1u);
  auto acc = n.accept(80);
  ASSERT_TRUE(acc.has_value());
  EXPECT_EQ(*acc, *cid);
  EXPECT_EQ(n.backlog(80), 0u);

  Connection* c = n.conn(*cid);
  ASSERT_NE(c, nullptr);
  u8 data[] = {'h', 'i'};
  c->to_server.push(data, c->color);
  std::vector<u8> out;
  std::vector<u32> colors;
  EXPECT_EQ(c->to_server.pop(10, &out, &colors), 2u);
  EXPECT_EQ(out[0], 'h');
  EXPECT_EQ(colors[0], 5u);
}

TEST(Net, CloseBothSidesReaps) {
  Network n;
  n.listen(80);
  u64 id = *n.connect(80, 1);
  n.close_side(id, 0);
  EXPECT_NE(n.conn(id), nullptr);
  n.close_side(id, 1);
  EXPECT_EQ(n.conn(id), nullptr);
}

TEST(FdTableT, AllocLowestFree) {
  FdTable t;
  EXPECT_EQ(t.alloc(FdFile{}), 3);
  EXPECT_EQ(t.alloc(FdFile{}), 4);
  EXPECT_TRUE(t.close(3));
  EXPECT_EQ(t.alloc(FdFile{}), 3);
  EXPECT_FALSE(t.close(99));
}

TEST(Syscalls, ExitGroupTerminatesProcess) {
  Assembler a("t");
  a.label("e");
  a.movi(Reg::R1, 42);
  emit_syscall(a, Sys::kExitGroup);
  a.set_entry("e");
  LinuxWorld w(a.build());
  w.k.run(100000);
  EXPECT_FALSE(w.p().alive());
  EXPECT_EQ(w.p().exit_info().code, 42);
  EXPECT_FALSE(w.p().exit_info().crashed);
}

TEST(Syscalls, WriteToConsole) {
  Assembler a("t");
  a.label("e");
  a.movi(Reg::R1, 1);  // stdout
  a.lea_pc(Reg::R2, "msg");
  a.movi(Reg::R3, 5);
  emit_syscall(a, Sys::kWrite);
  a.movi(Reg::R1, 0);
  emit_syscall(a, Sys::kExitGroup);
  a.set_entry("e");
  a.data_bytes("msg", std::vector<u8>{'h', 'e', 'l', 'l', 'o'});
  LinuxWorld w(a.build());
  w.k.run(100000);
  EXPECT_EQ(w.p().console(), "hello");
}

TEST(Syscalls, WriteWithBadPointerReturnsEfaultNotCrash) {
  Assembler a("t");
  a.label("e");
  a.movi(Reg::R1, 1);
  a.movi(Reg::R2, 0x400000);  // invalid buffer
  a.movi(Reg::R3, 5);
  emit_syscall(a, Sys::kWrite);
  a.mov(Reg::R1, Reg::R0);  // exit code = syscall result
  emit_syscall(a, Sys::kExitGroup);
  a.set_entry("e");
  LinuxWorld w(a.build());
  w.k.run(100000);
  ASSERT_FALSE(w.p().alive());
  EXPECT_FALSE(w.p().exit_info().crashed);  // the crash-resistance property
  EXPECT_EQ(w.p().exit_info().code, -kEFAULT);
}

// Every EFAULT-capable path syscall gracefully reports EFAULT for a wild
// pointer — parameterized over the syscall set (paper Table I rows).
struct EfaultCase {
  Sys nr;
  int ptr_arg;  // which argument (1-based) carries the pointer
};

// Without this gtest prints the raw struct bytes, uninitialised padding
// included, so the listed test names would change from build to build.
void PrintTo(const EfaultCase& c, std::ostream* os) {
  *os << sys_name(c.nr) << "_arg" << c.ptr_arg;
}

class EfaultSweep : public ::testing::TestWithParam<EfaultCase> {};

TEST_P(EfaultSweep, GracefulEfault) {
  EfaultCase c = GetParam();
  Assembler a("t");
  a.label("e");
  // Plausible non-pointer argument defaults.
  a.movi(Reg::R1, 1);
  a.movi(Reg::R2, 16);
  a.movi(Reg::R3, 16);
  a.movi(Reg::R4, 0);
  // Overwrite the pointer argument with a wild address.
  a.movi(static_cast<Reg>(c.ptr_arg), 0x13370000);
  emit_syscall(a, c.nr);
  a.mov(Reg::R1, Reg::R0);
  emit_syscall(a, Sys::kExitGroup);
  a.set_entry("e");
  LinuxWorld w(a.build());
  w.k.run(200000);
  ASSERT_FALSE(w.p().alive());
  EXPECT_FALSE(w.p().exit_info().crashed) << sys_name(c.nr);
  EXPECT_EQ(w.p().exit_info().code, -kEFAULT) << sys_name(c.nr);
}

INSTANTIATE_TEST_SUITE_P(
    PathSyscalls, EfaultSweep,
    ::testing::Values(EfaultCase{Sys::kOpen, 1}, EfaultCase{Sys::kChmod, 1},
                      EfaultCase{Sys::kMkdir, 1}, EfaultCase{Sys::kUnlink, 1},
                      EfaultCase{Sys::kSymlink, 1}, EfaultCase{Sys::kSymlink, 2},
                      EfaultCase{Sys::kNanosleep, 1}, EfaultCase{Sys::kSigaction, 2}),
    [](const auto& info) {
      return std::string(sys_name(info.param.nr)) + "_arg" +
             std::to_string(info.param.ptr_arg);
    });

TEST(Syscalls, OpenReadFile) {
  Assembler a("t");
  a.label("e");
  a.lea_pc(Reg::R1, "path");
  a.movi(Reg::R2, 0);  // O_RDONLY
  emit_syscall(a, Sys::kOpen);
  a.mov(Reg::R5, Reg::R0);  // fd
  a.mov(Reg::R1, Reg::R5);
  a.lea_pc(Reg::R2, "buf");
  a.movi(Reg::R3, 64);
  emit_syscall(a, Sys::kRead);
  a.mov(Reg::R1, Reg::R0);  // bytes read
  emit_syscall(a, Sys::kExitGroup);
  a.set_entry("e");
  a.data_cstr("path", "/www/index.html");
  a.data_zero("buf", 64);
  LinuxWorld w(a.build());
  w.k.vfs().put_file("/www/index.html", "<html>hi</html>");
  w.k.run(200000);
  EXPECT_EQ(w.p().exit_info().code, 15);
  gva_t buf = w.p().machine().modules()[0].symbol_addr("buf");
  u64 first8 = 0;
  ASSERT_TRUE(w.p().machine().mem().peek_u64(buf, &first8));
  EXPECT_EQ(first8 & 0xff, u64{'<'});
}

TEST(Syscalls, ReadFromClientBlocksUntilData) {
  // Server: listen, accept, read, echo back the byte count, exit.
  Assembler a("srv");
  a.label("e");
  emit_syscall(a, Sys::kSocket);
  a.mov(Reg::R5, Reg::R0);
  a.mov(Reg::R1, Reg::R5);
  a.movi(Reg::R2, 8080);
  emit_syscall(a, Sys::kBind);
  a.mov(Reg::R1, Reg::R5);
  emit_syscall(a, Sys::kListen);
  a.mov(Reg::R1, Reg::R5);
  a.movi(Reg::R2, 0);
  emit_syscall(a, Sys::kAccept);
  a.mov(Reg::R6, Reg::R0);  // conn fd
  a.mov(Reg::R1, Reg::R6);
  a.lea_pc(Reg::R2, "buf");
  a.movi(Reg::R3, 128);
  emit_syscall(a, Sys::kRead);
  a.mov(Reg::R1, Reg::R0);
  emit_syscall(a, Sys::kExitGroup);
  a.set_entry("e");
  a.data_zero("buf", 128);
  LinuxWorld w(a.build());
  // Run: server blocks in accept.
  w.k.run(50000);
  EXPECT_TRUE(w.p().alive());
  auto client = w.k.connect(8080);
  ASSERT_TRUE(client.has_value());
  w.k.run(50000);  // accept completes; read blocks
  EXPECT_TRUE(w.p().alive());
  client->send("ping!");
  w.k.run(50000);
  ASSERT_FALSE(w.p().alive());
  EXPECT_EQ(w.p().exit_info().code, 5);
}

TEST(Syscalls, EpollWaitEfaultOnBadBuffer) {
  Assembler a("t");
  a.label("e");
  emit_syscall(a, Sys::kEpollCreate);
  a.mov(Reg::R5, Reg::R0);
  a.mov(Reg::R1, Reg::R5);
  a.movi(Reg::R2, 0x400000);  // invalid events buffer
  a.movi(Reg::R3, 8);
  a.movi(Reg::R4, 1000);
  emit_syscall(a, Sys::kEpollWait);
  a.mov(Reg::R1, Reg::R0);
  emit_syscall(a, Sys::kExitGroup);
  a.set_entry("e");
  LinuxWorld w(a.build());
  w.k.run(100000);
  ASSERT_FALSE(w.p().alive());
  EXPECT_FALSE(w.p().exit_info().crashed);
  EXPECT_EQ(w.p().exit_info().code, -kEFAULT);
}

TEST(Syscalls, EpollEndToEnd) {
  // epoll watches a listener; a client connect wakes the wait; accept+read.
  Assembler a("srv");
  a.label("e");
  emit_syscall(a, Sys::kSocket);
  a.mov(Reg::R5, Reg::R0);  // listener fd
  a.mov(Reg::R1, Reg::R5);
  a.movi(Reg::R2, 9090);
  emit_syscall(a, Sys::kBind);
  a.mov(Reg::R1, Reg::R5);
  emit_syscall(a, Sys::kListen);
  emit_syscall(a, Sys::kEpollCreate);
  a.mov(Reg::R6, Reg::R0);  // epfd
  // epoll_ctl(epfd, ADD, listener, &ev{IN, data=listener})
  a.lea_pc(Reg::R7, "ev");
  a.movi(Reg::R8, 1);  // EPOLLIN
  a.store(Reg::R7, 0, Reg::R8, 8);
  a.store(Reg::R7, 8, Reg::R5, 8);
  a.mov(Reg::R1, Reg::R6);
  a.movi(Reg::R2, 1);  // ADD
  a.mov(Reg::R3, Reg::R5);
  a.mov(Reg::R4, Reg::R7);
  emit_syscall(a, Sys::kEpollCtl);
  // epoll_wait(epfd, events, 4, -1)
  a.mov(Reg::R1, Reg::R6);
  a.lea_pc(Reg::R2, "events");
  a.movi(Reg::R3, 4);
  a.movi(Reg::R4, -1);
  emit_syscall(a, Sys::kEpollWait);
  a.mov(Reg::R1, Reg::R0);
  emit_syscall(a, Sys::kExitGroup);
  a.set_entry("e");
  a.data_zero("ev", 16);
  a.data_zero("events", 64);
  LinuxWorld w(a.build());
  w.k.run(50000);
  EXPECT_TRUE(w.p().alive());  // parked in epoll_wait
  auto client = w.k.connect(9090);
  ASSERT_TRUE(client.has_value());
  w.k.run(50000);
  ASSERT_FALSE(w.p().alive());
  EXPECT_EQ(w.p().exit_info().code, 1);  // one ready event
}

TEST(Syscalls, EpollWaitTimesOut) {
  Assembler a("t");
  a.label("e");
  emit_syscall(a, Sys::kEpollCreate);
  a.mov(Reg::R5, Reg::R0);
  a.mov(Reg::R1, Reg::R5);
  a.lea_pc(Reg::R2, "events");
  a.movi(Reg::R3, 4);
  a.movi(Reg::R4, 5);  // 5 ms
  emit_syscall(a, Sys::kEpollWait);
  a.mov(Reg::R1, Reg::R0);
  emit_syscall(a, Sys::kExitGroup);
  a.set_entry("e");
  a.data_zero("events", 64);
  LinuxWorld w(a.build());
  w.k.run(10'000'000);
  ASSERT_FALSE(w.p().alive());
  EXPECT_EQ(w.p().exit_info().code, 0);  // timeout, zero events
}

TEST(Syscalls, MmapAndWxEnforcement) {
  Assembler a("t");
  a.label("e");
  a.movi(Reg::R1, 0);
  a.movi(Reg::R2, 8192);
  a.movi(Reg::R3, 3);  // RW
  emit_syscall(a, Sys::kMmap);
  a.mov(Reg::R5, Reg::R0);
  // store/load through the new mapping
  a.movi(Reg::R7, 123);
  a.store(Reg::R5, 0, Reg::R7, 8);
  a.load(Reg::R8, Reg::R5, 8);
  // try W+X: must fail with EINVAL
  a.movi(Reg::R1, 0);
  a.movi(Reg::R2, 4096);
  a.movi(Reg::R3, 7);  // RWX
  emit_syscall(a, Sys::kMmap);
  a.cmpi(Reg::R0, -22);
  a.jcc(Cond::kEq, "ok");
  a.movi(Reg::R1, 1);
  emit_syscall(a, Sys::kExitGroup);
  a.label("ok");
  a.mov(Reg::R1, Reg::R8);
  emit_syscall(a, Sys::kExitGroup);
  a.set_entry("e");
  LinuxWorld w(a.build());
  w.k.run(200000);
  EXPECT_EQ(w.p().exit_info().code, 123);
}

TEST(Threads, SpawnAndRunConcurrently) {
  Assembler a("t");
  a.label("e");
  a.lea_pc(Reg::R1, "worker");
  a.movi(Reg::R2, 0);
  emit_syscall(a, Sys::kThreadCreate);
  // Busy-wait until worker writes the flag.
  a.label("spin");
  a.lea_pc(Reg::R3, "flag");
  a.load(Reg::R4, Reg::R3, 8);
  a.cmpi(Reg::R4, 1);
  a.jcc(Cond::kNe, "spin");
  a.movi(Reg::R1, 0);
  emit_syscall(a, Sys::kExitGroup);
  a.label("worker");
  a.lea_pc(Reg::R3, "flag");
  a.movi(Reg::R4, 1);
  a.store(Reg::R3, 0, Reg::R4, 8);
  emit_syscall(a, Sys::kExit);
  a.set_entry("e");
  a.data_u64("flag", 0);
  LinuxWorld w(a.build());
  w.k.run(1'000'000);
  ASSERT_FALSE(w.p().alive());
  EXPECT_EQ(w.p().exit_info().code, 0);
}

TEST(Threads, ThreadCrashKillsProcess) {
  Assembler a("t");
  a.label("e");
  a.lea_pc(Reg::R1, "worker");
  a.movi(Reg::R2, 0);
  emit_syscall(a, Sys::kThreadCreate);
  a.label("spin");  // main spins forever
  a.jmp("spin");
  a.label("worker");
  a.movi(Reg::R2, 0x400000);
  a.load(Reg::R1, Reg::R2, 8);  // AV in the worker thread
  emit_syscall(a, Sys::kExit);
  a.set_entry("e");
  LinuxWorld w(a.build());
  w.k.run(1'000'000);
  ASSERT_FALSE(w.p().alive());
  EXPECT_TRUE(w.p().exit_info().crashed);
}

TEST(Workers, SpawnWorkerInheritsConnection) {
  // Master accepts, spawns a worker with the connection; worker reads and
  // exits with the byte count; master keeps running.
  Assembler a("pg");
  a.label("e");
  emit_syscall(a, Sys::kSocket);
  a.mov(Reg::R5, Reg::R0);
  a.mov(Reg::R1, Reg::R5);
  a.movi(Reg::R2, 5432);
  emit_syscall(a, Sys::kBind);
  a.mov(Reg::R1, Reg::R5);
  emit_syscall(a, Sys::kListen);
  a.mov(Reg::R1, Reg::R5);
  a.movi(Reg::R2, 0);
  emit_syscall(a, Sys::kAccept);
  a.mov(Reg::R6, Reg::R0);
  a.lea_pc(Reg::R1, "worker");
  a.mov(Reg::R2, Reg::R6);
  emit_syscall(a, Sys::kSpawnWorker);
  a.label("spin");
  a.movi(Reg::R1, 1);
  a.lea_pc(Reg::R1, "ts");
  emit_syscall(a, Sys::kNanosleep);
  a.jmp("spin");
  a.label("worker");
  // R1 = conn fd (3)
  a.mov(Reg::R5, Reg::R1);
  a.mov(Reg::R1, Reg::R5);
  a.lea_pc(Reg::R2, "buf");
  a.movi(Reg::R3, 64);
  emit_syscall(a, Sys::kRead);
  a.mov(Reg::R1, Reg::R0);
  emit_syscall(a, Sys::kExitGroup);
  a.set_entry("e");
  a.data_u64("ts", 1000000);
  a.data_zero("buf", 64);
  LinuxWorld w(a.build());
  w.k.run(300000);  // server reaches accept
  auto client = w.k.connect(5432);
  ASSERT_TRUE(client.has_value());
  w.k.run(300000);  // accept + spawn_worker; worker blocks in read
  client->send("abc");
  w.k.run(2'000'000);
  // Find the worker process.
  const Process* worker = nullptr;
  for (int pid : w.k.pids())
    if (pid != w.pid) worker = w.k.find_proc(pid);
  ASSERT_NE(worker, nullptr);
  EXPECT_FALSE(worker->alive());
  EXPECT_EQ(worker->exit_info().code, 3);
  EXPECT_FALSE(worker->exit_info().crashed);
  EXPECT_TRUE(w.p().alive());  // master unaffected
}

TEST(WinApi, VirtualQueryReportsState) {
  Assembler a("app");
  a.label("e");
  // VirtualQuery(code_base, &mbi, 32): probe our own code (mapped R|X).
  a.lea_pc(Reg::R1, "e");
  a.lea_pc(Reg::R2, "mbi");
  a.movi(Reg::R3, 32);
  a.apicall(kApiVirtualQuery);
  a.lea_pc(Reg::R2, "mbi");
  a.load(Reg::R0, Reg::R2, 8, 16);  // state field
  a.halt();
  a.set_entry("e");
  a.data_zero("mbi", 32);
  Kernel k;
  int pid = k.create_process("app", vm::Personality::kWindows, 3);
  k.proc(pid).load(std::make_shared<isa::Image>(a.build()));
  k.start_process(pid);
  k.run(100000);
  EXPECT_EQ(k.proc(pid).threads()[0].cpu.reg(Reg::R0), 1u);
}

TEST(WinApi, UncheckedDerefApiFaultsIntoSeh) {
  // A generated kUncheckedDeref API is called with a bad pointer inside a
  // catch-all guard: the process survives and observes the handler path.
  Kernel k;
  k.winapi().generate_population(77, 50, 1.0, 0.0);  // all unchecked-deref
  // Find a generated API with a PtrIn-ish argument.
  u32 api_id = 0;
  int arg_slot = 0;
  for (const auto& [id, spec] : k.winapi().all()) {
    if (id < kApiPopulationBase || spec.behavior != ApiBehavior::kUncheckedDeref) continue;
    for (size_t i = 0; i < spec.args.size(); ++i)
      if (spec.args[i] != ArgKind::kValue) {
        api_id = id;
        arg_slot = static_cast<int>(i) + 1;
        break;
      }
    if (api_id != 0) break;
  }
  ASSERT_NE(api_id, 0u);

  Assembler a("app");
  a.label("e");
  a.movi(Reg::R1, 8);
  a.movi(Reg::R2, 8);
  a.movi(Reg::R3, 8);
  a.movi(Reg::R4, 8);
  a.movi(static_cast<Reg>(arg_slot), 0x400000);
  a.label("tb");
  a.apicall(api_id);
  a.label("te");
  a.movi(Reg::R0, 1);
  a.halt();
  a.label("h");
  a.movi(Reg::R0, 2);
  a.halt();
  a.set_entry("e");
  a.scope("tb", "te", "", "h");
  int pid = k.create_process("app", vm::Personality::kWindows, 3);
  k.proc(pid).load(std::make_shared<isa::Image>(a.build()));
  k.start_process(pid);
  k.run(100000);
  EXPECT_FALSE(k.proc(pid).exit_info().crashed);
  EXPECT_EQ(k.proc(pid).threads()[0].cpu.reg(Reg::R0), 2u);  // handler ran
}

TEST(WinApi, ValidatingApiSurvivesBadPointerWithoutSeh) {
  Kernel k;
  Assembler a("app");
  a.label("e");
  a.movi(Reg::R1, 0x400000);  // bad buffer
  a.movi(Reg::R2, 4);
  a.apicall(kApiWriteConsole);
  a.halt();
  a.set_entry("e");
  int pid = k.create_process("app", vm::Personality::kWindows, 3);
  k.proc(pid).load(std::make_shared<isa::Image>(a.build()));
  k.start_process(pid);
  k.run(100000);
  EXPECT_FALSE(k.proc(pid).exit_info().crashed);
  EXPECT_EQ(k.proc(pid).threads()[0].cpu.reg(Reg::R0), ~0ull);  // error return
}

TEST(WinApi, AddVehRegistersHandler) {
  Kernel k;
  Assembler a("app");
  a.label("e");
  a.movi(Reg::R1, 1);
  a.movi(Reg::R2, 0x12345);
  a.apicall(kApiAddVeh);
  a.halt();
  a.set_entry("e");
  int pid = k.create_process("app", vm::Personality::kWindows, 3);
  k.proc(pid).load(std::make_shared<isa::Image>(a.build()));
  k.start_process(pid);
  k.run(100000);
  ASSERT_EQ(k.proc(pid).machine().veh_chain().size(), 1u);
  EXPECT_EQ(k.proc(pid).machine().veh_chain()[0], 0x12345u);
}

TEST(Kernel, VirtualTimeAdvances) {
  Assembler a("t");
  a.label("e");
  a.label("spin");
  a.jmp("spin");
  a.set_entry("e");
  LinuxWorld w(a.build());
  u64 t0 = w.k.now_ns();
  w.k.run(10000);
  EXPECT_GT(w.k.now_ns(), t0);
}

TEST(Kernel, RunStopsWhenQuiescent) {
  Assembler a("t");
  a.label("e");
  a.movi(Reg::R1, 0);
  emit_syscall(a, Sys::kExitGroup);
  a.set_entry("e");
  LinuxWorld w(a.build());
  u64 executed = w.k.run(1'000'000'000);
  EXPECT_LT(executed, 1000u);  // stopped immediately after exit
}

}  // namespace
}  // namespace crp::os

// Appended coverage: non-blocking accept, epoll ctl edge cases, process
// teardown.
namespace crp::os {
namespace {

TEST(Syscalls, NonBlockingAcceptReturnsEagain) {
  Assembler a("t");
  a.label("e");
  emit_syscall(a, Sys::kSocket);
  a.mov(Reg::R5, Reg::R0);
  a.mov(Reg::R1, Reg::R5);
  a.movi(Reg::R2, 7070);
  emit_syscall(a, Sys::kBind);
  a.mov(Reg::R1, Reg::R5);
  emit_syscall(a, Sys::kListen);
  a.mov(Reg::R1, Reg::R5);
  a.movi(Reg::R2, 0);
  a.movi(Reg::R3, 1);  // non-blocking
  emit_syscall(a, Sys::kAccept);
  a.mov(Reg::R1, Reg::R0);
  emit_syscall(a, Sys::kExitGroup);
  a.set_entry("e");
  LinuxWorld w(a.build());
  w.k.run(100000);
  ASSERT_FALSE(w.p().alive());
  EXPECT_EQ(w.p().exit_info().code, -kEAGAIN);
}

TEST(Syscalls, EpollCtlDelStopsEvents) {
  Assembler a("t");
  a.label("e");
  emit_syscall(a, Sys::kEpollCreate);
  a.mov(Reg::R5, Reg::R0);
  // Watch stdout (console: always ready), then DEL it; epoll_wait(0) => 0.
  a.lea_pc(Reg::R7, "ev");
  a.movi(Reg::R8, 1);
  a.store(Reg::R7, 0, Reg::R8, 8);
  a.movi(Reg::R8, 1);
  a.store(Reg::R7, 8, Reg::R8, 8);
  a.mov(Reg::R1, Reg::R5);
  a.movi(Reg::R2, 1);  // ADD
  a.movi(Reg::R3, 1);  // fd 1
  a.mov(Reg::R4, Reg::R7);
  emit_syscall(a, Sys::kEpollCtl);
  a.mov(Reg::R1, Reg::R5);
  a.movi(Reg::R2, 2);  // DEL
  a.movi(Reg::R3, 1);
  a.movi(Reg::R4, 0);
  emit_syscall(a, Sys::kEpollCtl);
  a.mov(Reg::R1, Reg::R5);
  a.lea_pc(Reg::R2, "events");
  a.movi(Reg::R3, 4);
  a.movi(Reg::R4, 0);  // timeout 0: poll
  emit_syscall(a, Sys::kEpollWait);
  a.mov(Reg::R1, Reg::R0);
  emit_syscall(a, Sys::kExitGroup);
  a.set_entry("e");
  a.data_zero("ev", 16);
  a.data_zero("events", 64);
  LinuxWorld w(a.build());
  w.k.run(100000);
  EXPECT_EQ(w.p().exit_info().code, 0);  // no events after DEL
}

TEST(Kernel, DestroyProcessReclaims) {
  Kernel k;
  int pid = k.create_process("scratch", vm::Personality::kWindows, 1);
  k.proc(pid).heap_alloc(4096, mem::kPermR | mem::kPermW);
  EXPECT_NE(k.find_proc(pid), nullptr);
  k.destroy_process(pid);
  EXPECT_EQ(k.find_proc(pid), nullptr);
  k.destroy_process(pid);  // idempotent
}

TEST(WinApi, IsBadReadPtrQueriesLayout) {
  Kernel k;
  Assembler a("app");
  a.label("e");
  a.lea_pc(Reg::R1, "e");  // own code: readable
  a.movi(Reg::R2, 8);
  a.apicall(kApiIsBadReadPtr);
  a.mov(Reg::R7, Reg::R0);   // 0 = fine
  a.movi(Reg::R1, 0x400000);
  a.movi(Reg::R2, 8);
  a.apicall(kApiIsBadReadPtr);
  a.add(Reg::R0, Reg::R7);   // 1 + 0
  a.halt();
  a.set_entry("e");
  int pid = k.create_process("app", vm::Personality::kWindows, 5);
  k.proc(pid).load(std::make_shared<isa::Image>(a.build()));
  k.start_process(pid);
  k.run(100000);
  EXPECT_EQ(k.proc(pid).threads()[0].cpu.reg(Reg::R0), 1u);
}

// --- crp::chaos satellites: partial-transfer handling under fault injection ---

// A read loop accumulating into buf+total converges to the full file even
// when every read is cut short: injected short reads return fewer bytes but
// never lose any (the kernel clamps the length *before* consuming the
// stream), so the next iteration picks up exactly where this one stopped.
TEST(Syscalls, ShortReadLoopStillReadsWholeFile) {
  Assembler a("t");
  a.label("e");
  a.lea_pc(Reg::R1, "path");
  a.movi(Reg::R2, 0);
  emit_syscall(a, Sys::kOpen);
  a.mov(Reg::R5, Reg::R0);  // fd
  a.movi(Reg::R7, 0);       // total
  a.label("loop");
  a.mov(Reg::R1, Reg::R5);
  a.lea_pc(Reg::R2, "buf");
  a.add(Reg::R2, Reg::R7);  // buf + total
  a.movi(Reg::R3, 32);
  a.sub(Reg::R3, Reg::R7);  // want - total
  emit_syscall(a, Sys::kRead);
  a.cmpi(Reg::R0, 0);
  a.jcc(Cond::kLe, "done");  // EOF or error: stop
  a.add(Reg::R7, Reg::R0);
  a.cmpi(Reg::R7, 32);
  a.jcc(Cond::kLt, "loop");
  a.label("done");
  a.mov(Reg::R1, Reg::R7);
  emit_syscall(a, Sys::kExitGroup);
  a.set_entry("e");
  a.data_cstr("path", "/f");
  a.data_zero("buf", 32);
  isa::Image img = a.build();

  // The invariant must hold at every seed; at least one seed in the sweep
  // must actually cut a read short, or the test proves nothing.
  size_t fired = 0;
  for (u64 seed = 1; seed <= 8; ++seed) {
    chaos::FaultPlan plan;
    plan.seed = seed;
    plan.rate = 2;
    plan.points = chaos::point_bit(chaos::Point::kShortRead);
    chaos::ScopedPlan scope(plan);
    LinuxWorld w(img);
    w.k.vfs().put_file("/f", "0123456789abcdefghijklmnopqrstuv");
    w.k.run(300000);

    ASSERT_FALSE(w.p().alive()) << "seed " << seed;
    EXPECT_FALSE(w.p().exit_info().crashed) << "seed " << seed;
    EXPECT_EQ(w.p().exit_info().code, 32) << "seed " << seed;  // every byte arrived
    gva_t buf = w.p().machine().modules()[0].symbol_addr("buf");
    u64 first8 = 0, last8 = 0;
    ASSERT_TRUE(w.p().machine().mem().peek_u64(buf, &first8));
    ASSERT_TRUE(w.p().machine().mem().peek_u64(buf + 24, &last8));
    EXPECT_EQ(first8 & 0xff, u64{'0'}) << "seed " << seed;
    EXPECT_EQ(last8 >> 56, u64{'v'}) << "seed " << seed;  // the tail survived
    fired += scope.events().size();
  }
  EXPECT_GT(fired, 0u);  // reads really were cut short somewhere in the sweep
}

// The mirrored write loop: injected short writes consume a prefix; the loop
// advances by the returned count and the vfs file ends up byte-complete.
TEST(Syscalls, ShortWriteLoopStillWritesWholeFile) {
  Assembler a("t");
  a.label("e");
  a.lea_pc(Reg::R1, "path");
  a.movi(Reg::R2, static_cast<i64>(kOWronly | kOCreat));
  emit_syscall(a, Sys::kOpen);
  a.mov(Reg::R5, Reg::R0);  // fd
  a.movi(Reg::R7, 0);       // total
  a.label("loop");
  a.mov(Reg::R1, Reg::R5);
  a.lea_pc(Reg::R2, "msg");
  a.add(Reg::R2, Reg::R7);
  a.movi(Reg::R3, 24);
  a.sub(Reg::R3, Reg::R7);
  emit_syscall(a, Sys::kWrite);
  a.cmpi(Reg::R0, 0);
  a.jcc(Cond::kLe, "done");
  a.add(Reg::R7, Reg::R0);
  a.cmpi(Reg::R7, 24);
  a.jcc(Cond::kLt, "loop");
  a.label("done");
  a.mov(Reg::R1, Reg::R7);
  emit_syscall(a, Sys::kExitGroup);
  a.set_entry("e");
  a.data_cstr("path", "/out");
  a.data_cstr("msg", "the quick brown fox jump");
  isa::Image img = a.build();

  size_t fired = 0;
  for (u64 seed = 1; seed <= 8; ++seed) {
    chaos::FaultPlan plan;
    plan.seed = seed;
    plan.rate = 2;
    plan.points = chaos::point_bit(chaos::Point::kShortWrite);
    chaos::ScopedPlan scope(plan);
    LinuxWorld w(img);
    w.k.run(300000);

    ASSERT_FALSE(w.p().alive()) << "seed " << seed;
    EXPECT_FALSE(w.p().exit_info().crashed) << "seed " << seed;
    EXPECT_EQ(w.p().exit_info().code, 24) << "seed " << seed;
    const VfsNode* node = w.k.vfs().resolve("/out");
    ASSERT_NE(node, nullptr) << "seed " << seed;
    std::string got(node->data.begin(), node->data.end());
    EXPECT_EQ(got, "the quick brown fox jump") << "seed " << seed;
    fired += scope.events().size();
  }
  EXPECT_GT(fired, 0u);
}

// Network variant: the byte-count server from ReadFromClientBlocksUntilData,
// now retrying injected -EINTR and accumulating short reads — the count it
// exits with must still equal exactly what the client sent.
TEST(Syscalls, NetReadLoopSurvivesEintrAndShortReads) {
  Assembler a("srv");
  a.label("e");
  emit_syscall(a, Sys::kSocket);
  a.mov(Reg::R5, Reg::R0);
  a.mov(Reg::R1, Reg::R5);
  a.movi(Reg::R2, 8080);
  emit_syscall(a, Sys::kBind);
  a.mov(Reg::R1, Reg::R5);
  emit_syscall(a, Sys::kListen);
  a.mov(Reg::R1, Reg::R5);
  a.movi(Reg::R2, 0);
  emit_syscall(a, Sys::kAccept);
  a.mov(Reg::R6, Reg::R0);
  a.movi(Reg::R7, 0);  // total
  a.label("loop");
  a.mov(Reg::R1, Reg::R6);
  a.lea_pc(Reg::R2, "buf");
  a.add(Reg::R2, Reg::R7);
  a.movi(Reg::R3, 16);
  a.sub(Reg::R3, Reg::R7);
  emit_syscall(a, Sys::kRead);
  a.cmpi(Reg::R0, -kEINTR);
  a.jcc(Cond::kEq, "loop");  // spurious interrupt: try again
  a.cmpi(Reg::R0, 0);
  a.jcc(Cond::kLe, "done");
  a.add(Reg::R7, Reg::R0);
  a.cmpi(Reg::R7, 16);
  a.jcc(Cond::kLt, "loop");
  a.label("done");
  a.mov(Reg::R1, Reg::R7);
  emit_syscall(a, Sys::kExitGroup);
  a.set_entry("e");
  a.data_zero("buf", 16);
  isa::Image img = a.build();

  size_t fired = 0;
  for (u64 seed = 1; seed <= 8; ++seed) {
    chaos::FaultPlan plan;
    plan.seed = seed;
    plan.rate = 3;
    plan.points =
        chaos::point_bit(chaos::Point::kSysEintr) | chaos::point_bit(chaos::Point::kShortRead);
    chaos::ScopedPlan scope(plan);
    LinuxWorld w(img);
    w.k.run(50000);
    EXPECT_TRUE(w.p().alive()) << "seed " << seed;
    auto client = w.k.connect(8080);
    ASSERT_TRUE(client.has_value()) << "seed " << seed;
    w.k.run(50000);
    client->send("exactly sixteen!");
    w.k.run(200000);

    ASSERT_FALSE(w.p().alive()) << "seed " << seed;
    EXPECT_FALSE(w.p().exit_info().crashed) << "seed " << seed;
    EXPECT_EQ(w.p().exit_info().code, 16) << "seed " << seed;
    fired += scope.events().size();
  }
  EXPECT_GT(fired, 0u);
}

}  // namespace
}  // namespace crp::os
