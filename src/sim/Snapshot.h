//===- sim/Snapshot.h - Deterministic machine checkpointing -----------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checkpoint format behind Machine::saveSnapshot / restoreSnapshot
/// (docs/ROBUSTNESS.md, "Checkpoint format"). A snapshot captures the *complete mutable run
/// state* of a machine between cycles, so a restored run is
/// observationally indistinguishable from an uninterrupted one: same
/// trace hash chain, same cycle count, same counter snapshot, same
/// RunStatus — on the reference loop and the fast path alike. That
/// property is what lets the fleet runner
/// (src/fleet/) retry a crashed or preempted worker from its last
/// checkpoint without perturbing the campaign's deterministic report.
///
/// Blob layout (all little-endian, support/Serialize.h):
///
///   u32 magic 'LBPS'   u32 format version
///   u64 config digest  — FNV over the behavior-relevant SimConfig
///                        fields (structure, latencies, checkers,
///                        collection modes, fault plan). The host-only
///                        FastPath is excluded: it cannot change the
///                        simulated state, so a snapshot moves freely
///                        between engines.
///   sections           — memory, interconnect, cores/harts, delivery
///                        wheel + overflow heap, machine scalars,
///                        fault-plan cursor, checker accounting, trace
///                        hash, perf counters, devices
///   memory section     — the code image (u64 length + bytes), then the
///                        bank store's nonzero SnapshotBlockBytes-sized
///                        blocks: u64 count, count x u32 block index
///                        (strictly ascending), count x block bytes.
///                        Every other block is zero. The section is a
///                        pure function of the memory contents, so
///                        save -> restore -> save is byte-identical.
///   trace section      — the trace hash and the PerturbForTest
///                        fired-flag (u8).
///   u32 trailer magic  — truncation guard; nothing may follow it
///
/// What the machine can derive is not stored: the micro-op flags and
/// scheduling summaries follow from the ROBs, and the fast path's
/// per-core sleep cycles restart with every core awake.
///
/// Each record is described once, over the symmetric archive of
/// support/Serialize.h: save and restore run the same description, so
/// they agree on the layout by construction. Restore refuses, with a
/// diagnostic, any count the blob cannot back, any enum past its last
/// value and any index that would leave the machine's arrays.
///
/// Versioning: SnapshotFormatVersion bumps on any layout change;
/// restore rejects a mismatched version or digest outright (no
/// cross-version migration — checkpoints are campaign-lifetime
/// artifacts, not archives).
///
//===----------------------------------------------------------------------===//

#ifndef LBP_SIM_SNAPSHOT_H
#define LBP_SIM_SNAPSHOT_H

#include "sim/Config.h"

#include <cstddef>
#include <cstdint>

namespace lbp {
namespace sim {

/// 'L' 'B' 'P' 'S' in little-endian byte order.
constexpr uint32_t SnapshotMagic = 0x5350424Cu;

/// Bumped on any change to the blob layout.
/// v2: per-hart PendingSendOps, machine SendCount, per-core sleep cycle
/// now sourced from a per-core array of the machine (SoA layout).
/// v3: interval-digest ring + PerturbForTest fired-flag section after
/// the trace hash (docs/OBSERVABILITY.md "Divergence triage").
/// v4: the sharded engine's bookkeeping is gone — no per-hart
/// PendingGateOps/PendingSendOps, no machine GateCount/SendCount.
/// v5: no rename stamps (NextRenameSeq, LastRenameSeq, per-entry
/// RenameSeq) and no per-source SrcReady; RbEntry is one byte. The ROB
/// entries' micro-op flags and each hart's scheduling summary are
/// rebuilt from the saved ROB on restore.
/// v6: the memory section holds only the bank store's nonzero blocks
/// instead of every bank in full.
/// v7: the trace section is the hash and the perturb fired-flag (the
/// interval-digest ring, its cursor and its total are gone), and the
/// cores no longer carry the fast path's per-core sleep cycle.
/// v8: no machine WheelCount after the overflow heap's sequence counter;
/// the wheel section's slots are the only record of what is on the
/// wheel.
constexpr uint32_t SnapshotFormatVersion = 8;

/// Block size of the memory section's sparse bank store (divides
/// MemorySystem::PageBytes).
constexpr size_t SnapshotBlockBytes = 256;

/// Trailer sentinel appended after the last section.
constexpr uint32_t SnapshotTrailer = 0x50414E53u; // 'S' 'N' 'A' 'P'

/// Digest of the SimConfig fields that determine simulated behavior.
/// Two configs with equal digests evolve a loaded machine through the
/// identical state sequence; restore refuses a digest mismatch.
/// The host-side FastPath is deliberately not folded in.
uint64_t snapshotConfigDigest(const SimConfig &Cfg);

} // namespace sim
} // namespace lbp

#endif // LBP_SIM_SNAPSHOT_H
