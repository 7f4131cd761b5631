//===- support/EventHash.h - Incremental event-stream hashing ------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FNV-1a based incremental hash used to fingerprint the cycle-by-cycle
/// event stream of a simulation. Two runs are cycle-deterministic exactly
/// when their event hashes match.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_SUPPORT_EVENTHASH_H
#define LBP_SUPPORT_EVENTHASH_H

#include <array>
#include <cstdint>

namespace lbp {

/// Order-sensitive 64-bit FNV-1a accumulator.
class EventHash {
  static constexpr uint64_t Prime = 0x100000001b3ULL;

  /// Prime^K mod 2^64 for K = 0..8.
  static constexpr std::array<uint64_t, 9> PrimePow = [] {
    std::array<uint64_t, 9> P{};
    P[0] = 1;
    for (unsigned K = 1; K != P.size(); ++K)
      P[K] = P[K - 1] * Prime;
    return P;
  }();

  uint64_t Value = 0xcbf29ce484222325ULL;

public:
  /// Folds a 64-bit word into the hash: byte-wise FNV-1a over its eight
  /// bytes, low byte first. A zero byte's xor is the identity, so the K
  /// zero bytes above the highest nonzero one only multiply by the prime
  /// K times; that run is folded into one multiply by Prime^K, which is
  /// the same value mod 2^64. Event fields are mostly small (cycle
  /// numbers, hart ids, pcs), so this skips most of the 8 serial
  /// multiplies per word.
  void addWord(uint64_t W) {
    unsigned Bytes = W == 0 ? 0 : 8 - static_cast<unsigned>(
                                          __builtin_clzll(W)) / 8;
    for (unsigned I = 0; I != Bytes; ++I) {
      Value ^= static_cast<uint8_t>(W >> (8 * I));
      Value *= Prime;
    }
    Value *= PrimePow[8 - Bytes];
  }

  /// Folds an event described by up to four fields into the hash.
  void addEvent(uint64_t A, uint64_t B = 0, uint64_t C = 0, uint64_t D = 0) {
    addWord(A);
    addWord(B);
    addWord(C);
    addWord(D);
  }

  uint64_t value() const { return Value; }

  /// Restores a previously captured accumulator value (checkpoint
  /// restore, sim/Snapshot.h). The chain property is preserved: folding
  /// the same future events after a restore reproduces the value an
  /// uninterrupted accumulation would have reached.
  void restore(uint64_t V) { Value = V; }
};

} // namespace lbp

#endif // LBP_SUPPORT_EVENTHASH_H
