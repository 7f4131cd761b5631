//===- tests/support_test.cpp - Support utilities tests ------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/EventHash.h"
#include "support/SplitMix64.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

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
