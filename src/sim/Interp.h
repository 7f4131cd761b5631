//===- sim/Interp.h - Sequential reference interpreter ----------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A plain sequential interpreter over an assembled program: the
/// "referential sequential order" the paper defines LBP's semantics
/// against (Sec. 1, footnote 3). It executes RV32IM in program order
/// with flat memory and treats the X_PAR instructions by their
/// sequential meaning:
///
///   * `p_syncm` is a no-op (memory is already ordered),
///   * `p_set`/`p_merge` manipulate hart-reference words with the
///     single hart id 0,
///   * `p_jal`/`p_jalr` degenerate to calls: the "forked" continuation
///     is simply executed after the function returns — which is exactly
///     the paper's definition of the referential order ("the one
///     observed when the code is run sequentially"),
///   * `p_swcv`/`p_lwcv` become stack stores/loads, `p_swre`/`p_lwre`
///     a sequential result mailbox.
///
/// Uses: a fast functional mode for tools (run_asm --fast), the oracle
/// for the random differential tests, and executable documentation of
/// the referential order.
///
/// Scope note: programs built on the full team runtime
/// (LBP_parallel_start) depend on per-hart continuation frames that
/// alias in a single sequential stack, so they are outside this model —
/// run those on the Machine. The interpreter covers RV32IM programs
/// plus direct, simple X_PAR use.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_SIM_INTERP_H
#define LBP_SIM_INTERP_H

#include "asm/Program.h"
#include "sim/Config.h"

#include <cstdint>
#include <unordered_map>

namespace lbp {
namespace sim {

enum class InterpStatus : uint8_t {
  Exited,      ///< p_ret with ra == 0, t0 == -1.
  MaxSteps,    ///< Budget exhausted.
  BadInstr,    ///< Undecodable word reached.
  Unsupported, ///< An X_PAR form with no sequential meaning here.
  Fault,       ///< p_swre/p_lwre slot >= ResultSlots (the Machine
               ///< faults on it too).
};

/// Sequential reference interpreter.
class Interp {
public:
  explicit Interp(const assembler::Program &Prog);

  /// Runs up to \p MaxSteps instructions.
  InterpStatus run(uint64_t MaxSteps);

  /// Executed-instruction count so far.
  uint64_t steps() const { return Steps; }

  uint32_t reg(unsigned R) const { return Regs[R & 31]; }
  void setReg(unsigned R, uint32_t V) {
    if ((R & 31) != 0)
      Regs[R & 31] = V;
  }

  /// Word-granular memory view (initialized data falls through to the
  /// program image).
  uint32_t readWord(uint32_t Addr) const;
  void writeWord(uint32_t Addr, uint32_t Value);

  uint32_t pc() const { return Pc; }

private:
  const assembler::Program &Prog;
  uint32_t Pc;
  uint32_t Regs[32] = {0};

  /// Written words by aligned address, overlaying the program image:
  /// unwritten words fall through to it.
  std::unordered_map<uint32_t, uint32_t> Written;
  uint64_t Steps = 0;

  // Sequential result mailbox for p_swre/p_lwre.
  uint32_t Mailbox[ResultSlots] = {0};

  uint32_t readMem(uint32_t Addr, unsigned Width, bool SignExt) const;
  void writeMem(uint32_t Addr, uint32_t Value, unsigned Width);
};

} // namespace sim
} // namespace lbp

#endif // LBP_SIM_INTERP_H
