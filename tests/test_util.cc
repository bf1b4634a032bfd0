#include <sstream>

#include <gtest/gtest.h>

#include "util/common.h"
#include "util/hexdump.h"
#include "util/interval_map.h"
#include "util/rng.h"
#include "util/table.h"

namespace crp {
namespace {

TEST(Strf, FormatsLikePrintf) {
  EXPECT_EQ(strf("x=%d y=%s", 42, "abc"), "x=42 y=abc");
  EXPECT_EQ(strf("%08llx", 0xbeefULL), "0000beef");
  EXPECT_EQ(strf("empty"), "empty");
}

TEST(Align, UpAndDown) {
  EXPECT_EQ(align_down(4097, 4096), 4096u);
  EXPECT_EQ(align_down(4096, 4096), 4096u);
  EXPECT_EQ(align_up(4097, 4096), 8192u);
  EXPECT_EQ(align_up(4096, 4096), 4096u);
  EXPECT_EQ(align_up(0, 4096), 0u);
}

TEST(HumanSize, Units) {
  EXPECT_EQ(human_size(512), "512.0B");
  EXPECT_EQ(human_size(4096), "4.0KiB");
  EXPECT_EQ(human_size(3u << 20), "3.0MiB");
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowIsInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    u64 v = r.range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng r(11);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(13);
  for (int i = 0; i < 1000; ++i) {
    double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(IntervalMap, InsertAndFind) {
  IntervalMap<int> m;
  EXPECT_TRUE(m.insert(10, 20, 1));
  EXPECT_TRUE(m.insert(20, 30, 2));
  EXPECT_FALSE(m.insert(15, 25, 3));  // overlap
  EXPECT_FALSE(m.insert(5, 5, 4));    // empty
  ASSERT_NE(m.find(10), nullptr);
  EXPECT_EQ(m.find(10)->value, 1);
  ASSERT_NE(m.find(19), nullptr);
  EXPECT_EQ(m.find(19)->value, 1);
  ASSERT_NE(m.find(20), nullptr);
  EXPECT_EQ(m.find(20)->value, 2);
  EXPECT_EQ(m.find(9), nullptr);
  EXPECT_EQ(m.find(30), nullptr);
}

TEST(IntervalMap, OverlapQueries) {
  IntervalMap<int> m;
  m.insert(100, 200, 1);
  EXPECT_TRUE(m.overlaps(150, 160));
  EXPECT_TRUE(m.overlaps(50, 101));
  EXPECT_TRUE(m.overlaps(199, 300));
  EXPECT_FALSE(m.overlaps(200, 300));
  EXPECT_FALSE(m.overlaps(0, 100));
}

TEST(IntervalMap, Intersecting) {
  IntervalMap<int> m;
  m.insert(0, 10, 1);
  m.insert(10, 20, 2);
  m.insert(30, 40, 3);
  auto hits = m.intersecting(5, 35);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0]->value, 1);
  EXPECT_EQ(hits[2]->value, 3);
}

TEST(IntervalMap, Erase) {
  IntervalMap<int> m;
  m.insert(0, 10, 1);
  EXPECT_TRUE(m.erase_containing(5));
  EXPECT_EQ(m.find(5), nullptr);
  EXPECT_FALSE(m.erase_containing(5));
  m.insert(0, 10, 2);
  EXPECT_TRUE(m.erase_at(0));
  EXPECT_TRUE(m.empty());
}

TEST(Hexdump, Format) {
  std::vector<u8> data = {'H', 'i', 0x00, 0xff};
  std::string out = hexdump(data, 0x1000);
  EXPECT_NE(out.find("48 69 00 ff"), std::string::npos);
  EXPECT_NE(out.find("|Hi..|"), std::string::npos);
  EXPECT_NE(out.find("000000001000"), std::string::npos);
}

TEST(HexBytes, Format) {
  std::vector<u8> data = {0xde, 0xad};
  EXPECT_EQ(hex_bytes(data), "de ad");
}

TEST(TextTable, RendersAligned) {
  TextTable t;
  t.header({"name", "n"});
  t.row({"alpha", "1"});
  t.row({"b", "22"});
  std::string out = t.render();
  EXPECT_NE(out.find("| name  | n  |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1  |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22 |"), std::string::npos);
}

TEST(TextTable, PadsShortRows) {
  TextTable t;
  t.header({"a", "b", "c"});
  t.row({"x"});
  std::string out = t.render();
  EXPECT_NE(out.find("| x |"), std::string::npos);
}

TEST(PctEscape, RoundTripsWhitespaceAndPercent) {
  std::string e = pct_escape("a b%\n");
  EXPECT_EQ(e, "a%20b%25%0a");
  std::string back;
  ASSERT_TRUE(pct_unescape(e, &back));
  EXPECT_EQ(back, "a b%\n");
}

TEST(PctEscape, UnescapeRejectsTruncatedAndNonHexEscapes) {
  for (const char* bad : {"%", "%2", "ab%", "ab%2", "%zz", "%g0", "%-1"}) {
    std::string out = "untouched";
    EXPECT_FALSE(pct_unescape(bad, &out)) << bad;
    EXPECT_EQ(out, "untouched") << bad;
  }
}

TEST(PutStr, RoundTripsEmptyAndRejectsLengthMismatch) {
  std::ostringstream out;
  put_str(out, "note", "");
  put_str(out, "name", "x y");
  EXPECT_EQ(out.str(), "note 0\nname 5 x%20y\n");
  std::istringstream in(out.str());
  std::string a = "stale", b;
  ASSERT_TRUE(get_str(in, "note", &a));
  ASSERT_TRUE(get_str(in, "name", &b));
  EXPECT_EQ(a, "");
  EXPECT_EQ(b, "x y");

  std::string s;
  std::istringstream wrong_tag("note 0\n");
  EXPECT_FALSE(get_str(wrong_tag, "name", &s));
  std::istringstream wrong_len("name 4 x%20y\n");
  EXPECT_FALSE(get_str(wrong_len, "name", &s));
}

}  // namespace
}  // namespace crp
