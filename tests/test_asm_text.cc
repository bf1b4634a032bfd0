#include <gtest/gtest.h>

#include <memory>

#include "isa/asm_text.h"
#include "os/kernel.h"

namespace crp::isa {
namespace {

const char* kHello = R"(
.image hello
; compute 6*7+100, exit with it
.entry main
main:
    movi r1, 6
    movi r2, 7
    mul r1, r2
    addi r1, 100
    movi r0, 24        ; exit_group
    syscall
)";

TEST(AsmText, AssemblesAndRuns) {
  std::string err;
  auto img = assemble_text(kHello, &err);
  ASSERT_TRUE(img.has_value()) << err;
  EXPECT_EQ(img->name, "hello");
  os::Kernel k;
  int pid = k.create_process("hello", vm::Personality::kLinux, 3);
  k.proc(pid).load(std::make_shared<Image>(*img));
  k.start_process(pid);
  k.run(10000);
  EXPECT_FALSE(k.proc(pid).alive());
  EXPECT_EQ(k.proc(pid).exit_info().code, 142);
}

TEST(AsmText, LabelsBranchesAndMemory) {
  const char* src = R"(
.image loops
.entry main
main:
    leapc r2, counter
    movi r3, 0
loop:
    addi r3, 1
    cmpi r3, 5
    jne loop
    store8 [r2+0], r3
    load8 r1, [r2]
    movi r0, 24
    syscall
.data
counter: .u64 0
)";
  std::string err;
  auto img = assemble_text(src, &err);
  ASSERT_TRUE(img.has_value()) << err;
  os::Kernel k;
  int pid = k.create_process("loops", vm::Personality::kLinux, 3);
  k.proc(pid).load(std::make_shared<Image>(*img));
  k.start_process(pid);
  k.run(10000);
  EXPECT_EQ(k.proc(pid).exit_info().code, 5);
}

TEST(AsmText, ScopesExportsAndDll) {
  const char* src = R"(
.image mylib
.dll
.machine x32
guarded:
tb: load8 r1, [r2+16]
te: ret
h:  movi r0, -1
    ret
flt:
    cmpi r1, 0xC0000005
    jeq yes
    movi r0, 0
    ret
yes:
    movi r0, 1
    ret
.export do_guarded, guarded
.scope tb, te, flt, h
.scope tb, te, @catchall, h
)";
  std::string err;
  auto img = assemble_text(src, &err);
  ASSERT_TRUE(img.has_value()) << err;
  EXPECT_TRUE(img->is_dll);
  EXPECT_EQ(img->machine, Machine::kX32);
  ASSERT_EQ(img->scopes.size(), 2u);
  EXPECT_NE(img->scopes[0].filter, kFilterCatchAll);
  EXPECT_EQ(img->scopes[1].filter, kFilterCatchAll);
  ASSERT_NE(img->find_export("do_guarded"), nullptr);
}

TEST(AsmText, DataDirectives) {
  const char* src = R"(
.image d
.entry e
e:  halt
.data
msg:  .asciz "hi\n"
raw:  .bytes de ad be ef
pad:  .zero 32
num:  .u64 0x1122334455667788
)";
  std::string err;
  auto img = assemble_text(src, &err);
  ASSERT_TRUE(img.has_value()) << err;
  const Section& data = img->sections[1];
  const Symbol* msg = img->find_symbol("msg");
  const Symbol* raw = img->find_symbol("raw");
  const Symbol* num = img->find_symbol("num");
  ASSERT_TRUE(msg && raw && num);
  EXPECT_EQ(data.bytes[msg->offset], 'h');
  EXPECT_EQ(data.bytes[msg->offset + 2], '\n');
  EXPECT_EQ(data.bytes[msg->offset + 3], 0);
  EXPECT_EQ(data.bytes[raw->offset], 0xde);
  EXPECT_EQ(data.bytes[raw->offset + 3], 0xef);
  EXPECT_EQ(data.bytes[num->offset], 0x88);
  EXPECT_EQ(data.bytes[num->offset + 7], 0x11);
}

TEST(AsmText, CallImportSyntax) {
  const char* src = R"(
.image app
.entry e
e:  callimp ntdll_sim!EnterCriticalSection
    halt
)";
  auto img = assemble_text(src);
  ASSERT_TRUE(img.has_value());
  ASSERT_EQ(img->imports.size(), 1u);
  EXPECT_EQ(img->imports[0].module, "ntdll_sim");
  EXPECT_EQ(img->imports[0].symbol, "EnterCriticalSection");
}

struct BadCase {
  const char* name;
  const char* src;
  const char* want;  // substring of the diagnostic
};

// Without this gtest prints the raw struct bytes -- three pointers -- so the
// listed test names would change with every load address.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.name; }

class AsmTextErrors : public ::testing::TestWithParam<BadCase> {};

TEST_P(AsmTextErrors, Diagnoses) {
  std::string err;
  auto img = assemble_text(GetParam().src, &err);
  EXPECT_FALSE(img.has_value());
  EXPECT_NE(err.find(GetParam().want), std::string::npos) << err;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AsmTextErrors,
    ::testing::Values(
        BadCase{"bad_reg", ".entry e\ne: mov r99, r1\nhalt", "bad register"},
        BadCase{"bad_mnemonic", ".entry e\ne: frobnicate r1\n", "unknown mnemonic"},
        BadCase{"bad_width", ".entry e\ne: load3 r1, [r2]\n", "bad load width"},
        BadCase{"bad_imm", ".entry e\ne: movi r1, xyz\n", "bad immediate"},
        BadCase{"bad_mem", ".entry e\ne: load8 r1, r2\n", "bad memory operand"},
        BadCase{"bad_dir", ".bogus\n", "unknown directive"},
        BadCase{"shift_range", ".entry e\ne: shli r1, 99\n", "out of range"},
        BadCase{"data_noname", ".entry e\ne: halt\n.data\n.u64 5\n", "needs a name"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(AsmText, WholeFileRoundTripThroughImageFormat) {
  std::string err;
  auto img = assemble_text(kHello, &err);
  ASSERT_TRUE(img.has_value()) << err;
  auto back = read_image(write_image(*img));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->sections[0].bytes, img->sections[0].bytes);
}

}  // namespace
}  // namespace crp::isa
