//===- semantics/Transfer.h - Action transfer functions ---------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forward and backward abstract transfer functions for the non-call CFG
/// actions — the [x := e], [x := e]⁻¹, [i < 100] primitives of paper §4.
/// Call/return/channel transfer lives in the interprocedural layer.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_SEMANTICS_TRANSFER_H
#define SYNTOX_SEMANTICS_TRANSFER_H

#include "cfg/Cfg.h"
#include "semantics/ExprSemantics.h"
#include "support/Telemetry.h"

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace syntox {

class Transfer {
public:
  Transfer(const StoreOps &Ops, const ExprSemantics &Exprs,
           const ProgramCfg &Cfg)
      : Ops(Ops), Exprs(Exprs), Cfg(Cfg) {}

  /// Forward transfer: the abstract post-state of executing \p A from
  /// \p In.
  AbstractStore fwd(const Action &A, const AbstractStore &In,
                    const FrameMap &F) const;

  /// Backward transfer: an over-approximation of the states whose
  /// successor through \p A lies in \p Out (the [·]⁻¹ primitives).
  AbstractStore bwd(const Action &A, const AbstractStore &Out,
                    const FrameMap &F) const;

private:
  AbstractStore applyCheck(const CheckInfo &Info, AbstractStore S,
                           const FrameMap &F) const;

  const StoreOps &Ops;
  const ExprSemantics &Exprs;
  const ProgramCfg &Cfg;
};

/// A memoizing cache in front of the per-edge transfer functions, keyed
/// on (edge, direction, input-store hash). The transfer functions are
/// pure, so memoization never changes results; lookups confirm hash
/// matches with full store equality, so hash collisions cost time, never
/// soundness. One cache is shared by every phase of the §3 refinement
/// chain: the final forward pass and the backward analyses reuse
/// evaluations from earlier phases whenever the flowing store is
/// unchanged (the envelope meet happens *after* the edge transfer, so a
/// tightened envelope does not invalidate entries).
///
/// Not thread-safe, and it need not be: a cache belongs to one Analyzer,
/// whose solves run on one thread at a time (concurrency lives between
/// requests, each with its own session and engine).
class TransferCache {
public:
  /// \p MaxEntries caps the number of memoized stores (once full, the
  /// cache simply stops inserting — lookups stay correct).
  explicit TransferCache(const StoreOps &Ops, size_t MaxEntries = 1 << 20)
      : Ops(Ops), MaxEntries(MaxEntries) {}

  TransferCache(const TransferCache &) = delete;
  TransferCache &operator=(const TransferCache &) = delete;

  /// Memoized Transfer::fwd for the action of edge \p EdgeId. Returns a
  /// pointer into the cache: a hit costs a hash and a bucket probe, not
  /// a store copy, which is what makes memoization cheaper than
  /// re-running even the inexpensive interval transfers. The pointee is
  /// heap-allocated and never evicted, so the pointer stays valid until
  /// clear() — but callers should consume it immediately (on a full
  /// cache it points to an overflow slot reused by the next overflowing
  /// call).
  const AbstractStore *fwd(const Transfer &Xfer, unsigned EdgeId,
                           const Action &A, const AbstractStore &In,
                           const FrameMap &F);

  /// Memoized Transfer::bwd for the action of edge \p EdgeId. Same
  /// lifetime contract as fwd().
  const AbstractStore *bwd(const Transfer &Xfer, unsigned EdgeId,
                           const Action &A, const AbstractStore &Out,
                           const FrameMap &F);

  uint64_t hits() const { return Hits; }     ///< lookups answered
  uint64_t misses() const { return Misses; } ///< lookups that ran the transfer
  size_t size() const { return Count; }      ///< entries resident
  void clear();

  /// Installs a trace recorder for per-lookup cache_hit/cache_miss
  /// events (high-volume: masked out of TraceRecorder::DefaultEvents).
  void setTrace(TraceRecorder *R) { Trace = R; }

private:
  struct Entry {
    uint64_t Key = 0;
    uint32_t EdgeId = 0;
    bool Forward = true;
    AbstractStore In;
    /// Owned on the heap so the address survives bucket reallocation;
    /// freed only by clear()/destruction.
    std::unique_ptr<const AbstractStore> Result;
  };

  template <typename Compute>
  const AbstractStore *lookupOrCompute(bool Forward, unsigned EdgeId,
                                       const AbstractStore &In,
                                       Compute &&Fn);

  /// A flat hash table: the 64-bit lookup key is already a mixed hash,
  /// so the bucket index is just its low bits — no rehashing policy, no
  /// prime modulo.
  static constexpr unsigned NumBuckets = 16384;
  const StoreOps &Ops;
  size_t MaxEntries;
  TraceRecorder *Trace = nullptr;
  std::array<std::vector<Entry>, NumBuckets> Buckets;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  size_t Count = 0;
  /// Holds a computed result the full cache could not insert; valid
  /// until the next overflowing lookup.
  std::unique_ptr<const AbstractStore> Overflow;
};

} // namespace syntox

#endif // SYNTOX_SEMANTICS_TRANSFER_H
