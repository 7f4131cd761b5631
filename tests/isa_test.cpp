//===- tests/isa_test.cpp - ISA encode/decode/print tests ----------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Round-trip properties of the RV32IM + X_PAR binary encoding, register
// naming, hart-reference packing and the disassembler.
//
//===----------------------------------------------------------------------===//

#include "isa/Disasm.h"
#include "isa/Encoding.h"
#include "isa/HartRef.h"
#include "isa/Reg.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

using namespace lbp;
using namespace lbp::isa;

namespace {

//===----------------------------------------------------------------------===//
// Registers
//===----------------------------------------------------------------------===//

TEST(Reg, NamesRoundTrip) {
  for (unsigned R = 0; R != NumRegs; ++R) {
    std::optional<uint8_t> Back = parseRegName(regName(R));
    ASSERT_TRUE(Back.has_value()) << R;
    EXPECT_EQ(*Back, R);
  }
}

TEST(Reg, NumericAndAliasForms) {
  EXPECT_EQ(parseRegName("x0"), RegZero);
  EXPECT_EQ(parseRegName("x31"), RegT6);
  EXPECT_EQ(parseRegName("fp"), RegS0);
  EXPECT_FALSE(parseRegName("x32").has_value());
  EXPECT_FALSE(parseRegName("y1").has_value());
  EXPECT_FALSE(parseRegName("").has_value());
}

//===----------------------------------------------------------------------===//
// Instruction metadata
//===----------------------------------------------------------------------===//

TEST(InstrInfo, MnemonicLookupCoversEveryOpcode) {
  for (unsigned Op = 1;
       Op != static_cast<unsigned>(Opcode::NumOpcodes); ++Op) {
    const InstrInfo &Info = instrInfo(static_cast<Opcode>(Op));
    std::optional<Opcode> Back = opcodeByMnemonic(Info.Mnemonic);
    ASSERT_TRUE(Back.has_value()) << Info.Mnemonic;
    EXPECT_EQ(*Back, static_cast<Opcode>(Op));
  }
}

TEST(InstrInfo, ControlFlowClassification) {
  Instr Branch{Opcode::BEQ, 0, 1, 2, 16};
  EXPECT_FALSE(Branch.nextPcKnownAtDecode());
  Instr Jal{Opcode::JAL, 1, 0, 0, 16};
  EXPECT_TRUE(Jal.nextPcKnownAtDecode());
  Instr Jalr{Opcode::JALR, 1, 5, 0, 0};
  EXPECT_FALSE(Jalr.nextPcKnownAtDecode());
  Instr PJalr{Opcode::P_JALR, 1, 5, 10, 0};
  EXPECT_FALSE(PJalr.nextPcKnownAtDecode());
  Instr Add{Opcode::ADD, 1, 2, 3, 0};
  EXPECT_TRUE(Add.nextPcKnownAtDecode());
}

TEST(InstrInfo, LoadStoreClassification) {
  EXPECT_TRUE((Instr{Opcode::LW, 1, 2, 0, 0}).isLoad());
  EXPECT_TRUE((Instr{Opcode::P_LWCV, 1, 0, 0, 0}).isLoad());
  EXPECT_TRUE((Instr{Opcode::SW, 0, 2, 3, 0}).isStore());
  EXPECT_TRUE((Instr{Opcode::P_SWCV, 0, 2, 3, 0}).isStore());
  EXPECT_FALSE((Instr{Opcode::P_LWRE, 1, 0, 0, 0}).isLoad());
  EXPECT_FALSE((Instr{Opcode::ADD, 1, 2, 3, 0}).isLoad());
}

//===----------------------------------------------------------------------===//
// Encode/decode round trips
//===----------------------------------------------------------------------===//

/// Returns a legal random instruction for the opcode.
Instr randomInstr(Opcode Op, SplitMix64 &Rng) {
  const InstrInfo &Info = instrInfo(Op);
  Instr I;
  I.Op = Op;
  I.Rd = static_cast<uint8_t>(Rng.nextBelow(32));
  I.Rs1 = static_cast<uint8_t>(Rng.nextBelow(32));
  I.Rs2 = static_cast<uint8_t>(Rng.nextBelow(32));
  switch (Info.Form) {
  case Format::R:
  case Format::XParR:
    break;
  case Format::I:
  case Format::XParI:
    if (Op == Opcode::SLLI || Op == Opcode::SRLI || Op == Opcode::SRAI)
      I.Imm = static_cast<int32_t>(Rng.nextBelow(32));
    else if (Op == Opcode::RDCYCLE || Op == Opcode::RDINSTRET)
      I.Imm = I.Rs1 = 0; // the CSR number is part of the opcode
    else
      I.Imm = static_cast<int32_t>(Rng.nextBelow(4096)) - 2048;
    break;
  case Format::S:
  case Format::XParS:
    I.Imm = static_cast<int32_t>(Rng.nextBelow(4096)) - 2048;
    break;
  case Format::B:
    I.Imm = (static_cast<int32_t>(Rng.nextBelow(4096)) - 2048) * 2;
    break;
  case Format::U:
    I.Imm = static_cast<int32_t>(Rng.nextBelow(1 << 20));
    break;
  case Format::J:
    I.Imm = (static_cast<int32_t>(Rng.nextBelow(1 << 20)) -
             (1 << 19)) *
            2;
    break;
  }
  return I;
}

/// Fields the decoder is expected to reproduce for a format.
void expectSameInstr(const Instr &A, const Instr &B) {
  const InstrInfo &Info = instrInfo(A.Op);
  EXPECT_EQ(A.Op, B.Op);
  if (Info.WritesRd) {
    EXPECT_EQ(A.Rd, B.Rd);
  }
  if (Info.ReadsRs1 || Info.Form == Format::I || Info.Form == Format::S ||
      Info.Form == Format::B || Info.Form == Format::XParS) {
    EXPECT_EQ(A.Rs1, B.Rs1) << instrInfo(A.Op).Mnemonic;
  }
  if (Info.ReadsRs2) {
    EXPECT_EQ(A.Rs2, B.Rs2) << instrInfo(A.Op).Mnemonic;
  }
  if (Info.Form != Format::R && Info.Form != Format::XParR) {
    EXPECT_EQ(A.Imm, B.Imm) << instrInfo(A.Op).Mnemonic;
  }
}

class EncodingRoundTrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(EncodingRoundTrip, EveryOpcodeSurvives) {
  Opcode Op = static_cast<Opcode>(GetParam());
  SplitMix64 Rng(GetParam() * 7919 + 1);
  for (unsigned Trial = 0; Trial != 64; ++Trial) {
    Instr I = randomInstr(Op, Rng);
    uint32_t Word = encode(I);
    Instr Back = decode(Word);
    ASSERT_TRUE(Back.isValid())
        << instrInfo(Op).Mnemonic << " word 0x" << std::hex << Word;
    expectSameInstr(I, Back);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, EncodingRoundTrip,
    ::testing::Range(1u, static_cast<unsigned>(Opcode::NumOpcodes)),
    [](const ::testing::TestParamInfo<unsigned> &Info) {
      std::string N(
          instrInfo(static_cast<Opcode>(Info.param)).Mnemonic);
      for (char &C : N)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return N;
    });

TEST(Encoding, InvalidWordsDecodeAsInvalid) {
  EXPECT_FALSE(decode(0x00000000).isValid());
  EXPECT_FALSE(decode(0xFFFFFFFF).isValid());
  // Unused funct3 in the branch major opcode.
  EXPECT_FALSE(decode(0x00002063).isValid());
  // X_PAR register form with out-of-range funct7.
  EXPECT_FALSE(decode((0x3Fu << 25) | XParMajorOpcode).isValid());
}

TEST(Encoding, KnownGoldenWords) {
  // addi sp, sp, -8 == 0xff810113 (standard RISC-V encoding).
  Instr I{Opcode::ADDI, RegSP, RegSP, 0, -8};
  EXPECT_EQ(encode(I), 0xff810113u);
  // jalr x0, 0(ra) == 0x00008067 (ret).
  Instr Ret{Opcode::JALR, RegZero, RegRA, 0, 0};
  EXPECT_EQ(encode(Ret), 0x00008067u);
  // lui a0, 0x20000 == 0x20000537.
  Instr Lui{Opcode::LUI, RegA0, 0, 0, 0x20000};
  EXPECT_EQ(encode(Lui), 0x20000537u);
}

//===----------------------------------------------------------------------===//
// Hart reference word
//===----------------------------------------------------------------------===//

TEST(HartRef, PackAndUnpack) {
  uint32_t Ref = hartRefSet(0xFFFFFFFFu, 13);
  EXPECT_TRUE(hartRefIsValid(Ref));
  EXPECT_EQ(hartRefJoin(Ref), 13u);
  uint32_t Merged = hartRefMerge(Ref, 14);
  EXPECT_EQ(hartRefJoin(Merged), 13u);
  EXPECT_EQ(hartRefSuccessor(Merged), 14u);
}

TEST(HartRef, ExitSentinelIsNotAValidRef) {
  EXPECT_FALSE(hartRefIsValid(HartRefExit));
  EXPECT_FALSE(hartRefIsValid(0));
}

//===----------------------------------------------------------------------===//
// Disassembler
//===----------------------------------------------------------------------===//

TEST(Disasm, PrintsCanonicalSyntax) {
  EXPECT_EQ(printInstr({Opcode::ADDI, RegSP, RegSP, 0, -8}),
            "addi sp, sp, -8");
  EXPECT_EQ(printInstr({Opcode::LW, RegRA, RegSP, 0, 4}),
            "lw ra, 4(sp)");
  EXPECT_EQ(printInstr({Opcode::SW, 0, RegSP, RegRA, 0}),
            "sw ra, 0(sp)");
  EXPECT_EQ(printInstr({Opcode::P_FC, RegT6, 0, 0, 0}), "p_fc t6");
  EXPECT_EQ(printInstr({Opcode::P_JALR, RegRA, RegT0, RegA0, 0}),
            "p_jalr ra, t0, a0");
  EXPECT_EQ(printInstr({Opcode::P_SWCV, 0, RegT6, RegRA, 4}),
            "p_swcv ra, t6, 4");
}

TEST(Disasm, InvalidWordsPrintAsData) {
  EXPECT_EQ(disassembleWord(0), ".word 0x00000000");
}

} // namespace
