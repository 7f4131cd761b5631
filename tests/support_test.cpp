//===- tests/support_test.cpp - Support utilities tests ------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/EventHash.h"
#include "support/Serialize.h"
#include "support/SplitMix64.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace lbp;

namespace {

TEST(StringUtils, Trim) {
  EXPECT_EQ(trim("  abc \t"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("a b"), "a b");
  EXPECT_EQ(trim("abc\r"), "abc") << "carriage returns are stripped";
}

TEST(StringUtils, Split) {
  auto P = split("a,b,,c", ',');
  ASSERT_EQ(P.size(), 4u);
  EXPECT_EQ(P[0], "a");
  EXPECT_EQ(P[2], "");
  EXPECT_EQ(split("abc", ',').size(), 1u);
}

TEST(StringUtils, SplitLines) {
  auto L = splitLines("one\ntwo\nthree");
  ASSERT_EQ(L.size(), 3u);
  EXPECT_EQ(L[2], "three");
  EXPECT_EQ(splitLines("x\n").size(), 1u);
  EXPECT_TRUE(splitLines("").empty());
}

TEST(StringUtils, ParseInteger) {
  EXPECT_EQ(parseInteger("42"), 42);
  EXPECT_EQ(parseInteger("-42"), -42);
  EXPECT_EQ(parseInteger("+7"), 7);
  EXPECT_EQ(parseInteger("0x10"), 16);
  EXPECT_EQ(parseInteger("-0x10"), -16);
  EXPECT_EQ(parseInteger("0b101"), 5);
  EXPECT_EQ(parseInteger(" 9 "), 9);
  EXPECT_FALSE(parseInteger("").has_value());
  EXPECT_FALSE(parseInteger("12x").has_value());
  EXPECT_FALSE(parseInteger("0x").has_value());
  EXPECT_FALSE(parseInteger("-").has_value());
  EXPECT_FALSE(parseInteger("0b2").has_value());
}

TEST(StringUtils, ParseIntegerRefusesDigitsPast64Bits) {
  EXPECT_FALSE(parseInteger("18446744073709551616").has_value());
  EXPECT_FALSE(parseInteger("0x10000000000000000").has_value());
  EXPECT_EQ(parseInteger("0xffffffffffffffff"), -1);
  EXPECT_EQ(parseInteger("-9223372036854775808"), INT64_MIN);
}

/// Runs parseFlagInteger over the command line "tool --n <Text>" (just
/// "tool --n" when Text is null); returns whether it accepted the value
/// and checks that it stepped onto the value's position.
bool parseN(const char *Text, int64_t Lo, int64_t Hi, unsigned &Out) {
  char Tool[] = "tool", Flag[] = "--n";
  std::string Value = Text ? Text : "";
  char *Argv[] = {Tool, Flag, Value.data()};
  int Argc = Text ? 3 : 2, I = 1;
  bool Ok = parseFlagInteger("tool", Argc, Argv, I, Lo, Hi, Out);
  EXPECT_EQ(I, Text ? 2 : 1);
  return Ok;
}

TEST(StringUtils, ParseFlagIntegerChecksTheRange) {
  unsigned Out = 7;
  EXPECT_TRUE(parseN("64", 1, 64, Out));
  EXPECT_EQ(Out, 64u);
  EXPECT_TRUE(parseN("0x10", 1, 64, Out));
  EXPECT_EQ(Out, 16u);
  Out = 7;
  for (const char *Bad : {"0", "65", "-1", "abc", "", "18446744073709551617"})
    EXPECT_FALSE(parseN(Bad, 1, 64, Out)) << Bad;
  EXPECT_FALSE(parseN(nullptr, 1, 64, Out));
  EXPECT_EQ(Out, 7u);
}

/// A record with every kind of archive field.
enum class Color : uint8_t { Red, Green, Blue };
struct Rec {
  Color C = Color::Red;
  int8_t Ref = -1;
  uint32_t Word = 0;
  std::string Name;
  std::vector<std::pair<uint8_t, uint64_t>> Items;
  std::vector<uint32_t> Fixed = std::vector<uint32_t>(3);
};
template <class Ar, class R> void describe(Ar &A, R &X) {
  A.expect(uint32_t{0xfeedu}, "bad magic");
  A.u8(X.C, Color::Blue, "color out of range");
  A.u8(X.Ref);
  A.u32(X.Word);
  A.bytes(X.Name);
  A.seq(X.Items, [](auto &A, auto &I) {
    A.u8(I.first);
    A.u64(I.second);
  });
  A.fixedSeq(X.Fixed, "fixed size mismatch", AsU32);
  A.finish(0xd0e5u, "trailing bytes");
}

std::vector<uint8_t> save(const Rec &X) {
  ArchiveWriter W;
  describe(W, X);
  return W.take();
}

/// Restores \p B into a fresh record; the reader's error, or "" on
/// success.
std::string load(const std::vector<uint8_t> &B, Rec &X) {
  ArchiveReader R(B);
  describe(R, X);
  return R.ok() ? "" : R.error().empty() ? "underrun" : R.error();
}

TEST(Serialize, OneDescriptionRoundTrips) {
  Rec X;
  X.C = Color::Blue;
  X.Ref = -3;
  X.Word = 0xdeadbeef;
  X.Name = "lbp";
  X.Items = {{1, 2}, {3, UINT64_MAX}};
  X.Fixed = {4, 5, 6};
  std::vector<uint8_t> B = save(X);
  // 4 magic + 1 + 1 + 4 + (8 + 3) + (8 + 2 x 9) + (8 + 3 x 4) + 4 trailer.
  EXPECT_EQ(B.size(), 71u);
  Rec Y;
  ASSERT_EQ(load(B, Y), "");
  EXPECT_EQ(Y.C, X.C);
  EXPECT_EQ(Y.Ref, X.Ref);
  EXPECT_EQ(Y.Word, X.Word);
  EXPECT_EQ(Y.Name, X.Name);
  EXPECT_EQ(Y.Items, X.Items);
  EXPECT_EQ(Y.Fixed, X.Fixed);
  EXPECT_EQ(save(Y), B);
}

TEST(Serialize, ReaderRefusesHostileInput) {
  Rec X;
  X.Items = {{1, 2}};
  std::vector<uint8_t> B = save(X);
  auto Patch = [&](size_t At, uint64_t V, unsigned N) {
    std::vector<uint8_t> P = B;
    for (unsigned I = 0; I != N; ++I)
      P.at(At + I) = static_cast<uint8_t>(V >> (8 * I));
    Rec Y;
    return load(P, Y);
  };
  EXPECT_EQ(Patch(0, 0, 1), "bad magic");
  EXPECT_EQ(Patch(4, 3, 1), "color out of range");
  // Counts the 33 bytes left after the item count cannot back: the
  // name's, and 4 items of at least 9 bytes each.
  EXPECT_EQ(Patch(10, uint64_t(1) << 62, 8),
            "element count runs past the end of the input");
  EXPECT_EQ(Patch(18, 4, 8), "element count runs past the end of the input");
  EXPECT_EQ(Patch(35, 2, 8), "fixed size mismatch");
  std::vector<uint8_t> Long = B;
  Long.push_back(0);
  Rec Y;
  EXPECT_EQ(load(Long, Y), "trailing bytes");
  std::vector<uint8_t> Short(B.begin(), B.end() - 6);
  EXPECT_EQ(load(Short, Y), "underrun");
}

TEST(StringUtils, FormatString) {
  EXPECT_EQ(formatString("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(formatString("%08x", 0x1234), "00001234");
  EXPECT_EQ(formatString("plain"), "plain");
}

TEST(SplitMix64, IsDeterministicAndSeedSensitive) {
  SplitMix64 A(1), B(1), C(2);
  for (unsigned I = 0; I != 100; ++I) {
    uint64_t VA = A.next();
    EXPECT_EQ(VA, B.next());
    EXPECT_NE(VA, C.next());
  }
}

TEST(SplitMix64, RangesAreRespected) {
  SplitMix64 R(99);
  for (unsigned I = 0; I != 1000; ++I) {
    uint64_t V = R.nextInRange(10, 20);
    EXPECT_GE(V, 10u);
    EXPECT_LE(V, 20u);
  }
}

/// Byte-wise FNV-1a over \p W's eight bytes, low byte first: the
/// definition EventHash::addWord folds its zero high bytes out of.
uint64_t fnv1aBytewise(uint64_t H, uint64_t W) {
  for (unsigned I = 0; I != 8; ++I) {
    H ^= static_cast<uint8_t>(W >> (8 * I));
    H *= 0x100000001b3ULL;
  }
  return H;
}

TEST(EventHash, FoldedWordEqualsBytewiseFnv1a) {
  std::vector<uint64_t> Words = {0, ~0ULL, 1, 0x80};
  for (unsigned B = 0; B != 8; ++B) {
    Words.push_back(1ULL << (8 * B));        // single set byte
    Words.push_back(0xffULL << (8 * B));     // single full byte
    Words.push_back((1ULL << (8 * B)) - 1);  // low bytes full
    Words.push_back(0x5aULL << (8 * B) | 1); // zero bytes in the middle
  }
  SplitMix64 Rng(0x5eed);
  for (unsigned I = 0; I != 2000; ++I) {
    uint64_t W = Rng.next();
    Words.push_back(W >> (Rng.next() % 64)); // every significant width
  }
  EventHash H;
  uint64_t Want = 0xcbf29ce484222325ULL;
  for (uint64_t W : Words) {
    H.addWord(W);
    Want = fnv1aBytewise(Want, W);
    ASSERT_EQ(H.value(), Want) << std::hex << "word 0x" << W;
  }
}

TEST(EventHash, OrderSensitive) {
  EventHash A, B;
  A.addEvent(1, 2);
  A.addEvent(3, 4);
  B.addEvent(3, 4);
  B.addEvent(1, 2);
  EXPECT_NE(A.value(), B.value());
}

TEST(EventHash, EqualStreamsHashEqual) {
  EventHash A, B;
  for (uint64_t I = 0; I != 100; ++I) {
    A.addEvent(I, I * 3, I * 7);
    B.addEvent(I, I * 3, I * 7);
  }
  EXPECT_EQ(A.value(), B.value());
}

} // namespace
