//===- semantics/Liveness.h - Live-slot masks for store pruning -*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic backward may-use liveness analysis, run once over the whole
/// unfolded supergraph, producing one live-slot bitmask per control
/// point. The Analyzer restricts every forward store to its node's mask
/// (see StoreOps::restrictTo), so dead slots never enter joins, widening
/// sequences or warm-cache rows.
///
/// Two properties make the restriction *exact* (bitwise-equal findings
/// and live-variable states), not merely sound:
///
///  1. **Gens are unconditional.** Every variable an action *evaluates*
///     is live before the action even when the written target is dead,
///     because evaluation can bottom the whole store (a division by
///     zero's empty quotient, an array store with an unreachable index),
///     and bottomness — i.e. reachability — must be preserved slot-for-
///     slot. With all evaluated slots live, a transfer over a restricted
///     store computes exactly the unrestricted value on live slots.
///
///  2. **Interprocedural edges pass live sets through conservatively.**
///     A call makes every slot the callee (transitively) accesses live
///     at the call point, plus the evaluated actual arguments; slots
///     live after the call are live at the callee exit *and* at the
///     call point (the copy-out reads both sides). Channel edges do the
///     same toward their landing point. Over-approximation here only
///     keeps extra slots alive — it never loses precision, it just
///     prunes less.
///
/// Backward (requirement) phases are *not* restricted: their envelope
/// meet folds the pruned forward values in at every node, and the
/// requirement residue a dead slot carries can only refine live slots
/// vacuously (the HC4 constraints it induces are already implied by the
/// forward values the envelope meets in). The 200-seed pruning
/// differential in tests/semantics/liveness_prune_test.cpp is the
/// empirical referee of this argument.
///
/// The same pass computes, per instance, the subset of its SharedKeys
/// the activation actually accesses (transitively); SuperGraph's
/// copy-in/copy-out loops only those keys, so untouched ancestor
/// variables never enter callee stores at all.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_SEMANTICS_LIVENESS_H
#define SYNTOX_SEMANTICS_LIVENESS_H

#include "semantics/Interproc.h"

#include <cstdint>
#include <vector>

namespace syntox {

/// Per-node live-slot masks plus per-instance accessed-key sets for the
/// supergraph of one analysis. Immutable once built.
class LivenessInfo {
public:
  LivenessInfo(const SuperGraph &G, const ProgramCfg &Cfg);

  /// Slots of the underlying VarNumbering.
  unsigned numSlots() const { return Slots; }
  /// 64-bit words per node mask.
  unsigned wordsPerNode() const { return Words; }

  /// The live mask of \p Node (wordsPerNode() words; bit s = slot s).
  const uint64_t *maskFor(unsigned Node) const {
    return Masks.data() + size_t(Node) * Words;
  }

  /// True when \p V's slot is live at \p Node. Top-level UI predicate:
  /// dead variables render as "top (pruned)".
  bool isLive(unsigned Node, const VarDecl *V) const;

  /// The SharedKeys subset instance \p InstanceId (transitively)
  /// accesses, in SharedKeys order, always including the token roots.
  const std::vector<const VarDecl *> &accessedShared(unsigned InstanceId) const {
    return Accessed[InstanceId];
  }

  /// Total live bits across all node masks (metrics: store.live_slots).
  uint64_t liveSlotCount() const { return LiveBits; }
  /// Total (node, slot) pairs — the unpruned universe the masks carve.
  uint64_t slotUniverse() const { return SlotUniverse; }

private:
  unsigned Slots = 0;
  unsigned Words = 0;
  std::vector<uint64_t> Masks;
  std::vector<std::vector<const VarDecl *>> Accessed;
  uint64_t LiveBits = 0;
  uint64_t SlotUniverse = 0;
};

} // namespace syntox

#endif // SYNTOX_SEMANTICS_LIVENESS_H
