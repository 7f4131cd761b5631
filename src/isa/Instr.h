//===- isa/Instr.h - RV32IM + X_PAR instruction definitions ---------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction set executed by LBP cores: the RV32IM base plus the
/// paper's PISC extension X_PAR (Fig. 5) — twelve instructions that fork,
/// join and send/receive values directly in hardware.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_ISA_INSTR_H
#define LBP_ISA_INSTR_H

#include <array>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string_view>

namespace lbp {
namespace isa {

/// Every instruction an LBP core can execute.
enum class Opcode : uint8_t {
  Invalid = 0,

  // RV32I upper-immediate and control transfer.
  LUI,
  AUIPC,
  JAL,
  JALR,
  BEQ,
  BNE,
  BLT,
  BGE,
  BLTU,
  BGEU,

  // RV32I loads and stores.
  LB,
  LH,
  LW,
  LBU,
  LHU,
  SB,
  SH,
  SW,

  // RV32I register-immediate ALU.
  ADDI,
  SLTI,
  SLTIU,
  XORI,
  ORI,
  ANDI,
  SLLI,
  SRLI,
  SRAI,

  // RV32I register-register ALU.
  ADD,
  SUB,
  SLL,
  SLT,
  SLTU,
  XOR,
  SRL,
  SRA,
  OR,
  AND,

  // RV32M multiply/divide.
  MUL,
  MULH,
  MULHSU,
  MULHU,
  DIV,
  DIVU,
  REM,
  REMU,

  // Counter reads (Zicntr subset): the paper's "internal timers".
  RDCYCLE,   ///< rd = current cycle (csrrs rd, cycle, x0).
  RDINSTRET, ///< rd = instructions retired by this hart.

  // X_PAR (PISC) extension, Fig. 5 of the paper.
  P_FC,    ///< Allocate a free hart on the current core; rd = hart id.
  P_FN,    ///< Allocate a free hart on the next core; rd = hart id.
  P_SET,   ///< rd = hart-reference word naming the current hart as join.
  P_MERGE, ///< rd = join field of rs1 | successor field of rs2.
  P_SYNCM, ///< Block fetch until the hart's in-flight memory ops drain.
  P_JAL,   ///< Fork-call: start rs1 hart at pc+4; rd = 0; pc += imm.
  P_JALR,  ///< Fork-call/return: see the five ending types in DESIGN.md.
  P_SWCV,  ///< Store rs2 to the allocated hart rs1's frame at offset imm.
  P_LWCV,  ///< Load rd from the hart's own continuation frame at imm.
  P_SWRE,  ///< Send rs2 to prior hart rs1's result buffer number imm.
  P_LWRE,  ///< Receive rd from the hart's own result buffer number imm.

  NumOpcodes
};

/// Binary encoding shape of an instruction.
enum class Format : uint8_t {
  R,     ///< rd, rs1, rs2 (funct7/funct3 select the operation)
  I,     ///< rd, rs1, imm12
  S,     ///< rs1, rs2, imm12 (stores)
  B,     ///< rs1, rs2, imm13 branch offset
  U,     ///< rd, imm20 upper
  J,     ///< rd, imm21 jump offset
  XParR, ///< X_PAR register form (funct7 selects among P_FC..P_JALR)
  XParI, ///< X_PAR immediate form (P_LWCV, P_LWRE, P_JAL)
  XParS, ///< X_PAR store form (P_SWCV, P_SWRE)
};

/// Functional unit class; the simulator assigns latencies per class.
enum class ExecClass : uint8_t {
  Alu,    ///< Single-cycle integer operation.
  Mul,    ///< Multi-cycle multiply.
  Div,    ///< Multi-cycle divide/remainder.
  Load,   ///< Memory read (latency depends on the bank reached).
  Store,  ///< Memory write (fire-and-forget, acknowledged for p_syncm).
  Branch, ///< Conditional branch (resolves the suspended fetch).
  Jump,   ///< Unconditional control transfer.
  XPar,   ///< X_PAR fork/join/communication instruction.
};

/// Static properties of one opcode.
struct InstrInfo {
  std::string_view Mnemonic;
  Format Form;
  ExecClass Class;
  bool WritesRd;  ///< The instruction has a destination register field.
  bool ReadsRs1;
  bool ReadsRs2;
};

namespace detail {

constexpr unsigned NumOpcodes = static_cast<unsigned>(Opcode::NumOpcodes);

constexpr InstrInfo makeInfo(std::string_view Mnemonic, Format Form,
                             ExecClass Class, bool WritesRd, bool ReadsRs1,
                             bool ReadsRs2) {
  return InstrInfo{Mnemonic, Form, Class, WritesRd, ReadsRs1, ReadsRs2};
}

constexpr std::array<InstrInfo, NumOpcodes> buildInfoTable() {
  std::array<InstrInfo, NumOpcodes> T{};
  auto Set = [&T](Opcode Op, InstrInfo Info) {
    T[static_cast<unsigned>(Op)] = Info;
  };

  Set(Opcode::Invalid,
      makeInfo("<invalid>", Format::R, ExecClass::Alu, false, false, false));

  Set(Opcode::LUI, makeInfo("lui", Format::U, ExecClass::Alu, true, false,
                            false));
  Set(Opcode::AUIPC, makeInfo("auipc", Format::U, ExecClass::Alu, true, false,
                              false));
  Set(Opcode::JAL, makeInfo("jal", Format::J, ExecClass::Jump, true, false,
                            false));
  Set(Opcode::JALR, makeInfo("jalr", Format::I, ExecClass::Jump, true, true,
                             false));

  Set(Opcode::BEQ, makeInfo("beq", Format::B, ExecClass::Branch, false, true,
                            true));
  Set(Opcode::BNE, makeInfo("bne", Format::B, ExecClass::Branch, false, true,
                            true));
  Set(Opcode::BLT, makeInfo("blt", Format::B, ExecClass::Branch, false, true,
                            true));
  Set(Opcode::BGE, makeInfo("bge", Format::B, ExecClass::Branch, false, true,
                            true));
  Set(Opcode::BLTU, makeInfo("bltu", Format::B, ExecClass::Branch, false, true,
                             true));
  Set(Opcode::BGEU, makeInfo("bgeu", Format::B, ExecClass::Branch, false, true,
                             true));

  Set(Opcode::LB, makeInfo("lb", Format::I, ExecClass::Load, true, true,
                           false));
  Set(Opcode::LH, makeInfo("lh", Format::I, ExecClass::Load, true, true,
                           false));
  Set(Opcode::LW, makeInfo("lw", Format::I, ExecClass::Load, true, true,
                           false));
  Set(Opcode::LBU, makeInfo("lbu", Format::I, ExecClass::Load, true, true,
                            false));
  Set(Opcode::LHU, makeInfo("lhu", Format::I, ExecClass::Load, true, true,
                            false));
  Set(Opcode::SB, makeInfo("sb", Format::S, ExecClass::Store, false, true,
                           true));
  Set(Opcode::SH, makeInfo("sh", Format::S, ExecClass::Store, false, true,
                           true));
  Set(Opcode::SW, makeInfo("sw", Format::S, ExecClass::Store, false, true,
                           true));

  Set(Opcode::ADDI, makeInfo("addi", Format::I, ExecClass::Alu, true, true,
                             false));
  Set(Opcode::SLTI, makeInfo("slti", Format::I, ExecClass::Alu, true, true,
                             false));
  Set(Opcode::SLTIU, makeInfo("sltiu", Format::I, ExecClass::Alu, true, true,
                              false));
  Set(Opcode::XORI, makeInfo("xori", Format::I, ExecClass::Alu, true, true,
                             false));
  Set(Opcode::ORI, makeInfo("ori", Format::I, ExecClass::Alu, true, true,
                            false));
  Set(Opcode::ANDI, makeInfo("andi", Format::I, ExecClass::Alu, true, true,
                             false));
  Set(Opcode::SLLI, makeInfo("slli", Format::I, ExecClass::Alu, true, true,
                             false));
  Set(Opcode::SRLI, makeInfo("srli", Format::I, ExecClass::Alu, true, true,
                             false));
  Set(Opcode::SRAI, makeInfo("srai", Format::I, ExecClass::Alu, true, true,
                             false));

  Set(Opcode::ADD, makeInfo("add", Format::R, ExecClass::Alu, true, true,
                            true));
  Set(Opcode::SUB, makeInfo("sub", Format::R, ExecClass::Alu, true, true,
                            true));
  Set(Opcode::SLL, makeInfo("sll", Format::R, ExecClass::Alu, true, true,
                            true));
  Set(Opcode::SLT, makeInfo("slt", Format::R, ExecClass::Alu, true, true,
                            true));
  Set(Opcode::SLTU, makeInfo("sltu", Format::R, ExecClass::Alu, true, true,
                             true));
  Set(Opcode::XOR, makeInfo("xor", Format::R, ExecClass::Alu, true, true,
                            true));
  Set(Opcode::SRL, makeInfo("srl", Format::R, ExecClass::Alu, true, true,
                            true));
  Set(Opcode::SRA, makeInfo("sra", Format::R, ExecClass::Alu, true, true,
                            true));
  Set(Opcode::OR, makeInfo("or", Format::R, ExecClass::Alu, true, true,
                           true));
  Set(Opcode::AND, makeInfo("and", Format::R, ExecClass::Alu, true, true,
                            true));

  Set(Opcode::MUL, makeInfo("mul", Format::R, ExecClass::Mul, true, true,
                            true));
  Set(Opcode::MULH, makeInfo("mulh", Format::R, ExecClass::Mul, true, true,
                             true));
  Set(Opcode::MULHSU, makeInfo("mulhsu", Format::R, ExecClass::Mul, true, true,
                               true));
  Set(Opcode::MULHU, makeInfo("mulhu", Format::R, ExecClass::Mul, true, true,
                              true));
  Set(Opcode::DIV, makeInfo("div", Format::R, ExecClass::Div, true, true,
                            true));
  Set(Opcode::DIVU, makeInfo("divu", Format::R, ExecClass::Div, true, true,
                             true));
  Set(Opcode::REM, makeInfo("rem", Format::R, ExecClass::Div, true, true,
                            true));
  Set(Opcode::REMU, makeInfo("remu", Format::R, ExecClass::Div, true, true,
                             true));

  Set(Opcode::RDCYCLE, makeInfo("rdcycle", Format::I, ExecClass::Alu,
                                true, false, false));
  Set(Opcode::RDINSTRET, makeInfo("rdinstret", Format::I, ExecClass::Alu,
                                  true, false, false));

  Set(Opcode::P_FC, makeInfo("p_fc", Format::XParR, ExecClass::XPar, true,
                             false, false));
  Set(Opcode::P_FN, makeInfo("p_fn", Format::XParR, ExecClass::XPar, true,
                             false, false));
  Set(Opcode::P_SET, makeInfo("p_set", Format::XParR, ExecClass::XPar, true,
                              true, false));
  Set(Opcode::P_MERGE, makeInfo("p_merge", Format::XParR, ExecClass::XPar,
                                true, true, true));
  Set(Opcode::P_SYNCM, makeInfo("p_syncm", Format::XParR, ExecClass::XPar,
                                false, false, false));
  Set(Opcode::P_JAL, makeInfo("p_jal", Format::XParI, ExecClass::XPar, true,
                              true, false));
  Set(Opcode::P_JALR, makeInfo("p_jalr", Format::XParR, ExecClass::XPar, true,
                               true, true));
  Set(Opcode::P_SWCV, makeInfo("p_swcv", Format::XParS, ExecClass::XPar, false,
                               true, true));
  Set(Opcode::P_LWCV, makeInfo("p_lwcv", Format::XParI, ExecClass::XPar, true,
                               false, false));
  Set(Opcode::P_SWRE, makeInfo("p_swre", Format::XParS, ExecClass::XPar, false,
                               true, true));
  Set(Opcode::P_LWRE, makeInfo("p_lwre", Format::XParI, ExecClass::XPar, true,
                               false, false));
  return T;
}

/// One entry per opcode. In the header so that instrInfo() inlines to a
/// single indexed load in every translation unit.
inline constexpr std::array<InstrInfo, NumOpcodes> InfoTable =
    buildInfoTable();

} // namespace detail

/// Returns the static properties of \p Op.
constexpr const InstrInfo &instrInfo(Opcode Op) {
  unsigned Index = static_cast<unsigned>(Op);
  assert(Index < detail::NumOpcodes && "opcode out of range");
  return detail::InfoTable[Index];
}

/// Looks an opcode up by mnemonic ("addi", "p_fc", ...).
std::optional<Opcode> opcodeByMnemonic(std::string_view Mnemonic);

/// A decoded (or not yet encoded) instruction.
struct Instr {
  Opcode Op = Opcode::Invalid;
  uint8_t Rd = 0;
  uint8_t Rs1 = 0;
  uint8_t Rs2 = 0;
  int32_t Imm = 0;

  bool isValid() const { return Op != Opcode::Invalid; }

  /// True when the instruction architecturally writes a register (has a
  /// destination field and it is not x0).
  bool writesReg() const { return instrInfo(Op).WritesRd && Rd != 0; }

  /// True for memory reads, including the continuation-value load.
  bool isLoad() const {
    ExecClass C = instrInfo(Op).Class;
    return C == ExecClass::Load || Op == Opcode::P_LWCV;
  }

  /// True for memory writes, including the continuation-value store.
  bool isStore() const {
    ExecClass C = instrInfo(Op).Class;
    return C == ExecClass::Store || Op == Opcode::P_SWCV;
  }

  /// True when the next pc is already known at decode: anything that is
  /// not a control transfer, plus direct jumps (jal, p_jal).
  bool nextPcKnownAtDecode() const {
    ExecClass C = instrInfo(Op).Class;
    if (C == ExecClass::Branch)
      return false;
    if (Op == Opcode::JALR || Op == Opcode::P_JALR)
      return false;
    return true;
  }
};

} // namespace isa
} // namespace lbp

#endif // LBP_ISA_INSTR_H
