//===- lbpbench/Gen.h - Seeded workload generators ------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the benchmark feeds the simulator is derived from the
/// workload seed here, and nothing else: the same seed gives
/// byte-identical program text and inputs. The generators keep the
/// *amount* of simulated work independent of the seed (matmul cycles
/// do not depend on the values; sync-barrier team sizes are a seeded
/// permutation of a fixed multiset), so host timings of two seeds are
/// comparable while their trace hashes differ.
///
//===----------------------------------------------------------------------===//

#ifndef LBPBENCH_GEN_H
#define LBPBENCH_GEN_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lbpbench {

/// Independent stream \p Stream of the workload seed \p Seed.
uint64_t subSeed(uint64_t Seed, uint64_t Stream);

/// The Sec. 7 matmul at 16 cores: h = 64 harts, X is h x h/2, Y is
/// h/2 x h, both row-major, Z = X * Y with 32-bit wrap-around.
constexpr unsigned MatMulHarts = 64;

struct MatMulInputs {
  std::vector<uint32_t> X, Y, Z;
};

/// Seeded X and Y (full 32-bit values) and their host product Z.
MatMulInputs makeMatMulInputs(uint64_t Seed);

/// The sync-barrier machine: 64 cores / 256 harts.
constexpr unsigned SyncCores = 64;
constexpr unsigned SyncHarts = 4 * SyncCores;
/// Back-to-back parallel regions per program.
constexpr unsigned SyncRegions = 32;
/// Member results land at OutBase + 4 * (Region * SyncHarts + Index).
constexpr uint32_t SyncOutBase = 0x20001000;

/// One member-body instruction: Op applied with a 12-bit immediate.
enum class BodyOp : uint8_t { Xor, Add, Or, And };

struct SyncRegion {
  unsigned Team = 0;  ///< Team size, 1..SyncHarts.
  BodyOp Ops[3] = {}; ///< Applied in order to the member index.
  uint32_t Imm[3] = {};
};

/// A sync-barrier program's schedule. The team sizes are a seeded
/// shuffle of SyncRegions sizes spread evenly over 1..SyncHarts, and
/// every body has the same instruction count, so the simulated work is
/// the same for every seed.
struct SyncSchedule {
  std::vector<SyncRegion> Regions;

  /// The word member \p Index of region \p R stores.
  uint32_t value(unsigned R, unsigned Index) const;
  /// Every (address, value) the program must leave in memory.
  std::vector<std::pair<uint32_t, uint32_t>> expected() const;
};

SyncSchedule makeSyncSchedule(uint64_t Seed);

/// The schedule as assembly, emitted with romp::emitParallelCall.
std::string emitSyncAsm(const SyncSchedule &S);

/// The same schedule as a Det-C program for frontend::compileDetCToAsm;
/// it must leave exactly the same words in memory.
std::string emitSyncDetC(const SyncSchedule &S);

} // namespace lbpbench

#endif // LBPBENCH_GEN_H
