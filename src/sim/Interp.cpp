//===- sim/Interp.cpp - Sequential reference interpreter ---------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "sim/Interp.h"
#include "isa/AddressMap.h"
#include "isa/Encoding.h"
#include "isa/HartRef.h"
#include "isa/Reg.h"
#include "sim/Exec.h"

using namespace lbp;
using namespace lbp::isa;
using namespace lbp::sim;

Interp::Interp(const assembler::Program &Prog) : Prog(Prog) {
  Pc = Prog.entry();
  Regs[RegSP] = hartStackTop(0);
  Regs[RegT0] = HartRefExit;
}

uint32_t Interp::readWord(uint32_t Addr) const {
  uint32_t A = Addr & ~3u;
  auto It = Written.find(A);
  return It != Written.end() ? It->second : Prog.readWord(A);
}

void Interp::writeWord(uint32_t Addr, uint32_t Value) {
  Written[Addr & ~3u] = Value;
}

uint32_t Interp::readMem(uint32_t Addr, unsigned Width,
                         bool SignExt) const {
  uint32_t Word = readWord(Addr);
  uint32_t Value = Word >> (8 * (Addr & 3u));
  if (Width < 4)
    Value &= (1u << (8 * Width)) - 1u;
  if (SignExt && Width < 4) {
    unsigned Shift = 32 - 8 * Width;
    Value = static_cast<uint32_t>(static_cast<int32_t>(Value << Shift) >>
                                  Shift);
  }
  return Value;
}

void Interp::writeMem(uint32_t Addr, uint32_t Value, unsigned Width) {
  uint32_t Word = readWord(Addr);
  unsigned Shift = 8 * (Addr & 3u);
  uint32_t Mask =
      Width == 4 ? 0xFFFFFFFFu : (((1u << (8 * Width)) - 1u) << Shift);
  writeWord(Addr, (Word & ~Mask) | ((Value << Shift) & Mask));
}

InterpStatus Interp::run(uint64_t MaxSteps) {
  while (MaxSteps-- != 0) {
    Instr I = decode(Prog.readWord(Pc));
    if (!I.isValid())
      return InterpStatus::BadInstr;
    ++Steps;

    const InstrInfo &Info = instrInfo(I.Op);
    uint32_t A = Regs[I.Rs1];
    uint32_t B = Regs[I.Rs2];
    uint32_t Imm = static_cast<uint32_t>(I.Imm);
    uint32_t Next = Pc + 4;

    switch (Info.Class) {
    case ExecClass::Alu:
    case ExecClass::Mul:
    case ExecClass::Div:
      if (I.Op == Opcode::RDCYCLE || I.Op == Opcode::RDINSTRET)
        setReg(I.Rd, static_cast<uint32_t>(Steps)); // 1 "cycle"/step
      else
        setReg(I.Rd, evalOp(I.Op, A, B, I.Imm, Pc));
      break;

    case ExecClass::Branch:
      if (evalBranch(I.Op, A, B))
        Next = Pc + Imm;
      break;

    case ExecClass::Jump:
      setReg(I.Rd, Pc + 4);
      Next = I.Op == Opcode::JAL ? Pc + Imm : (A + Imm) & ~1u;
      break;

    case ExecClass::Load: {
      unsigned W = I.Op == Opcode::LW                            ? 4
                   : (I.Op == Opcode::LH || I.Op == Opcode::LHU) ? 2
                                                                 : 1;
      bool S = I.Op == Opcode::LB || I.Op == Opcode::LH;
      setReg(I.Rd, readMem(A + Imm, W, S));
      break;
    }

    case ExecClass::Store: {
      unsigned W = I.Op == Opcode::SW ? 4 : I.Op == Opcode::SH ? 2 : 1;
      writeMem(A + Imm, B, W);
      break;
    }

    case ExecClass::XPar:
      switch (I.Op) {
      case Opcode::P_SYNCM:
        break; // sequential memory is already ordered
      case Opcode::P_SET:
        setReg(I.Rd, hartRefSet(A, /*CurrentHart=*/0));
        break;
      case Opcode::P_MERGE:
        setReg(I.Rd, hartRefMerge(A, B));
        break;
      case Opcode::P_FC:
      case Opcode::P_FN:
        // Sequential semantics: the "allocated hart" is this one.
        setReg(I.Rd, 0);
        break;
      case Opcode::P_SWCV:
        // The continuation frame degenerates to the current stack.
        writeMem(Regs[RegSP] + Imm, B, 4);
        break;
      case Opcode::P_LWCV:
        setReg(I.Rd, readMem(Regs[RegSP] + Imm, 4, false));
        break;
      case Opcode::P_SWRE:
        if (Imm >= ResultSlots)
          return InterpStatus::Fault;
        Mailbox[Imm] = B;
        break;
      case Opcode::P_LWRE:
        if (Imm >= ResultSlots)
          return InterpStatus::Fault;
        setReg(I.Rd, Mailbox[Imm]);
        break;
      case Opcode::P_JAL:
        // Sequential fork: run the function now, continuation after.
        setReg(I.Rd, 0);
        Next = Pc + Imm;
        break;
      case Opcode::P_JALR:
        if (I.Rd == 0) {
          // The ending protocol, sequentially: exit or return to ra.
          if (A == 0 && B == HartRefExit)
            return InterpStatus::Exited;
          if (A != 0) {
            Next = A;
            break;
          }
          // A hart "ending" has no sequential continuation.
          return InterpStatus::Unsupported;
        }
        // Fork-call: call the function; the continuation (pc+4) is the
        // return address, which is the sequential order by definition.
        // (Set ra last: rd is conventionally ra itself.)
        setReg(I.Rd, 0);
        setReg(RegRA, Pc + 4);
        Next = B;
        break;
      default:
        return InterpStatus::Unsupported;
      }
      break;
    }
    Pc = Next;
  }
  return InterpStatus::MaxSteps;
}
