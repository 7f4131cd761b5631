//===- isa/Instr.cpp - RV32IM + X_PAR instruction definitions -------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "isa/Instr.h"

using namespace lbp;
using namespace lbp::isa;

std::optional<Opcode> isa::opcodeByMnemonic(std::string_view Mnemonic) {
  for (unsigned I = 1; I != detail::NumOpcodes; ++I)
    if (detail::InfoTable[I].Mnemonic == Mnemonic)
      return static_cast<Opcode>(I);
  return std::nullopt;
}
