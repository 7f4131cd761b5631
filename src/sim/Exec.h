//===- sim/Exec.h - Functional instruction semantics ------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pure-function evaluation of RV32IM data operations, separated from the
/// pipeline so it can be unit-tested exhaustively (including the RISC-V
/// division edge cases).
///
//===----------------------------------------------------------------------===//

#ifndef LBP_SIM_EXEC_H
#define LBP_SIM_EXEC_H

#include "isa/Instr.h"
#include "support/Compiler.h"

#include <cstdint>

namespace lbp {
namespace sim {

/// Computes the register result of the ALU / mul / div / upper-immediate /
/// link-producing opcode \p Op. \p A and \p B are the rs1/rs2 source
/// values, \p SImm the immediate and \p Pc the instruction's own
/// address. Always inlined: the issue stage calls it from one case per
/// opcode with \p Op a constant, which folds the switch below to that
/// opcode's operation.
[[gnu::always_inline]] inline uint32_t evalOp(isa::Opcode Op, uint32_t A,
                                              uint32_t B, int32_t SImm,
                                              uint32_t Pc) {
  using isa::Opcode;
  int32_t SA = static_cast<int32_t>(A);
  int32_t SB = static_cast<int32_t>(B);
  uint32_t Imm = static_cast<uint32_t>(SImm);

  switch (Op) {
  case Opcode::LUI:
    return Imm << 12;
  case Opcode::AUIPC:
    return Pc + (Imm << 12);
  case Opcode::JAL:
  case Opcode::JALR:
    return Pc + 4;

  case Opcode::ADDI:
    return A + Imm;
  case Opcode::SLTI:
    return SA < SImm ? 1 : 0;
  case Opcode::SLTIU:
    return A < Imm ? 1 : 0;
  case Opcode::XORI:
    return A ^ Imm;
  case Opcode::ORI:
    return A | Imm;
  case Opcode::ANDI:
    return A & Imm;
  case Opcode::SLLI:
    return A << (Imm & 31);
  case Opcode::SRLI:
    return A >> (Imm & 31);
  case Opcode::SRAI:
    return static_cast<uint32_t>(SA >> (Imm & 31));

  case Opcode::ADD:
    return A + B;
  case Opcode::SUB:
    return A - B;
  case Opcode::SLL:
    return A << (B & 31);
  case Opcode::SLT:
    return SA < SB ? 1 : 0;
  case Opcode::SLTU:
    return A < B ? 1 : 0;
  case Opcode::XOR:
    return A ^ B;
  case Opcode::SRL:
    return A >> (B & 31);
  case Opcode::SRA:
    return static_cast<uint32_t>(SA >> (B & 31));
  case Opcode::OR:
    return A | B;
  case Opcode::AND:
    return A & B;

  case Opcode::MUL:
    return A * B;
  case Opcode::MULH:
    return static_cast<uint32_t>(
        (static_cast<int64_t>(SA) * static_cast<int64_t>(SB)) >> 32);
  case Opcode::MULHSU:
    return static_cast<uint32_t>(
        (static_cast<int64_t>(SA) * static_cast<uint64_t>(B)) >> 32);
  case Opcode::MULHU:
    return static_cast<uint32_t>(
        (static_cast<uint64_t>(A) * static_cast<uint64_t>(B)) >> 32);

  case Opcode::DIV:
    if (B == 0)
      return 0xFFFFFFFFu;
    if (A == 0x80000000u && B == 0xFFFFFFFFu)
      return 0x80000000u; // overflow: result is the dividend
    return static_cast<uint32_t>(SA / SB);
  case Opcode::DIVU:
    if (B == 0)
      return 0xFFFFFFFFu;
    return A / B;
  case Opcode::REM:
    if (B == 0)
      return A;
    if (A == 0x80000000u && B == 0xFFFFFFFFu)
      return 0;
    return static_cast<uint32_t>(SA % SB);
  case Opcode::REMU:
    if (B == 0)
      return A;
    return A % B;

  default:
    break;
  }
  LBP_UNREACHABLE("evalOp on a non-data opcode");
}

/// Returns true when the conditional branch \p Op is taken given sources
/// \p A and \p B. Always inlined, like evalOp.
[[gnu::always_inline]] inline bool evalBranch(isa::Opcode Op, uint32_t A,
                                              uint32_t B) {
  using isa::Opcode;
  int32_t SA = static_cast<int32_t>(A);
  int32_t SB = static_cast<int32_t>(B);
  switch (Op) {
  case Opcode::BEQ:
    return A == B;
  case Opcode::BNE:
    return A != B;
  case Opcode::BLT:
    return SA < SB;
  case Opcode::BGE:
    return SA >= SB;
  case Opcode::BLTU:
    return A < B;
  case Opcode::BGEU:
    return A >= B;
  default:
    break;
  }
  LBP_UNREACHABLE("evalBranch on a non-branch opcode");
}

} // namespace sim
} // namespace lbp

#endif // LBP_SIM_EXEC_H
