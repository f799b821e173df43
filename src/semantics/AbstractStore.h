//===- semantics/AbstractStore.h - Abstract memory states ------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The non-relational abstract memory state: a map from variables to
/// abstract values (numeric values for integer-like variables, a
/// four-valued boolean lattice for booleans; arrays are summarized by
/// one value over all elements). Missing keys mean "unconstrained"
/// (top), so the empty store is the top store; bottom (unreachable) is
/// a separate flag.
///
/// Representation: a copy-on-write payload shared through a shared_ptr.
/// The payload is structure-of-arrays: per-slot *row planes* indexed by
/// each variable's dense *store slot* (VarDecl::storeSlot()), a
/// presence bitmap, and a lane bitmap marking boolean slots. The active
/// abstract domain (lattice/Domain.h) decides the planes — this is the
/// row-plane contract every pluggable domain must fit:
///
///  - Interval (the default): two int64 planes Lo/Hi. Bit-identical to
///    the pre-domain-refactor layout, walked by the original kernels.
///  - Congruence and Product: four int64 planes Lo/Hi/CM/CR, where
///    (CM, CR) is the slot's congruence class in the canonical
///    encoding of lattice/Congruence.h (M = -1 bottom, M = 0 constant,
///    M >= 1 with 0 <= R < M). Walked by the generic kernels.
///
/// A payload is *imprinted* with its DomainKind by the first write (or
/// by a kernel copying its input's kind); one store never mixes
/// domains. Boolean values are encoded as pseudo-intervals over {0, 1}
/// in the Lo/Hi planes:
///
///     bottom = [1, 0]   false = [0, 0]   true = [1, 1]   T = [0, 1]
///
/// with the congruence planes (when present) pinned at top (1, 0), so
/// every lattice operation is a uniform min/max/compare over the rows —
/// boolean join/meet/leq coincide with the interval formulas once the
/// lane's domain bounds are taken as (0, 1) instead of (w-, w+), and
/// the dense-word equality fast path can xor all planes alike.
/// StoreOps exploits this: join/meet/widen/narrow/equal are
/// whole-vector kernels that walk 64-slot bitmap words (absent words
/// are skipped wholesale) with branch-light inner loops over the raw
/// rows, never materializing an AbsValue.
///
/// The slot -> VarDecl key table is *shared*, not per-payload: payload
/// copies alias one immutable table (extended copy-on-write when a
/// store introduces a slot the table does not cover), so a COW detach
/// copies two int64 rows and two bitmaps — no pointer vector.
///
/// Copying a store is one refcount increment; mutation detaches
/// (clones) the payload only when it is shared. The lattice operations
/// in StoreOps are delta-aware: join/widen/narrow/meet return an input
/// store (payload pointer and all) whenever the result is semantically
/// identical to it, so the solver's convergence checks hit the O(1)
/// pointer-equality fast path of equal()/leq().
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_SEMANTICS_ABSTRACTSTORE_H
#define SYNTOX_SEMANTICS_ABSTRACTSTORE_H

#include "frontend/Ast.h"
#include "lattice/BoolLattice.h"
#include "lattice/Domain.h"
#include "lattice/Interval.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

namespace syntox {

/// An abstract scalar value: a numeric NumVal (interval x congruence)
/// or an abstract boolean. Interval-domain values simply keep the
/// congruence component at top.
class AbsValue {
public:
  enum class Kind { Int, Bool };

  AbsValue() : K(Kind::Int) {} // numeric bottom
  /*implicit*/ AbsValue(Interval I) : K(Kind::Int), N(NumVal::of(I)) {}
  /*implicit*/ AbsValue(NumVal N) : K(Kind::Int), N(N) {}
  /*implicit*/ AbsValue(BoolLattice B) : K(Kind::Bool), B(B) {}

  Kind kind() const { return K; }
  bool isInt() const { return K == Kind::Int; }
  bool isBool() const { return K == Kind::Bool; }

  /// The interval component of a numeric value (the whole value in the
  /// interval domain).
  const Interval &asInt() const {
    assert(isInt() && "not a numeric value");
    return N.I;
  }
  /// The full numeric value.
  const NumVal &asNum() const {
    assert(isInt() && "not a numeric value");
    return N;
  }
  const BoolLattice &asBool() const {
    assert(isBool() && "not a boolean value");
    return B;
  }

  bool isBottom() const { return isInt() ? N.isBottom() : B.isBottom(); }

  bool operator==(const AbsValue &Other) const {
    if (K != Other.K)
      return false;
    return isInt() ? N == Other.N : B == Other.B;
  }

private:
  Kind K;
  NumVal N;
  BoolLattice B;
};

/// Lattice operations over stores, parameterized by the interval domain.
class StoreOps;

namespace detail {

/// The shared slot -> VarDecl table aliased by payloads (see file
/// comment). Immutable once shared; extended copy-on-write.
using StoreKeyTable = std::vector<const VarDecl *>;

/// The shared, slot-indexed body of a store in structure-of-arrays
/// form. Lo/Hi are the interval value rows (booleans encoded over
/// {0, 1}); CM/CR are the congruence rows, allocated only when the
/// payload is imprinted with a non-interval DomainKind (see the
/// row-plane contract in the file comment); Bits is the presence bitmap
/// (a slot without its bit is an implicit top and its row entries are
/// meaningless); BoolBits marks boolean lanes for every slot ever
/// written. Keys aliases the shared slot -> decl table so the store can
/// be iterated without the numbering at hand.
struct StorePayload {
  std::vector<int64_t> Lo;
  std::vector<int64_t> Hi;
  std::vector<int64_t> CM;
  std::vector<int64_t> CR;
  std::vector<uint64_t> Bits;
  std::vector<uint64_t> BoolBits;
  std::shared_ptr<const StoreKeyTable> Keys;
  /// The abstract domain this payload's planes belong to, imprinted by
  /// the first write (AbstractStore::set) or copied from the kernel
  /// input. One payload never mixes domains.
  DomainKind DK = DomainKind::Interval;
  uint32_t NumPresent = 0;

  StorePayload() = default;
  StorePayload(const StorePayload &) = default;
  StorePayload &operator=(const StorePayload &) = delete;

  size_t capacity() const { return Lo.size(); }

  /// (Re-)imprints the payload's domain, allocating or dropping the
  /// congruence planes. Only legal while the payload has no entries.
  void setKind(DomainKind K) {
    assert(NumPresent == 0 && "re-imprinting a non-empty payload");
    DK = K;
    if (DK == DomainKind::Interval) {
      CM.clear();
      CR.clear();
    } else {
      CM.assign(capacity(), 1);
      CR.assign(capacity(), 0);
    }
  }

  bool present(unsigned Slot) const {
    return Slot < capacity() && (Bits[Slot >> 6] >> (Slot & 63)) & 1;
  }

  bool isBoolLane(unsigned Slot) const {
    return (BoolBits[Slot >> 6] >> (Slot & 63)) & 1;
  }

  void ensureCapacity(unsigned Slot) {
    if (Slot < capacity())
      return;
    size_t NewCap = std::max<size_t>(Slot + 1, capacity() * 2);
    NewCap = std::max<size_t>(NewCap, 8);
    Lo.resize(NewCap);
    Hi.resize(NewCap);
    if (DK != DomainKind::Interval) {
      CM.resize(NewCap, 1);
      CR.resize(NewCap, 0);
    }
    Bits.resize((NewCap + 63) / 64, 0);
    BoolBits.resize((NewCap + 63) / 64, 0);
  }

  /// Boolean lattice value -> pseudo-interval rows.
  static void encodeBool(BoolLattice B, int64_t &L, int64_t &H) {
    L = 1, H = 0;
    switch (B.kind()) {
    case BoolLattice::Bottom:
      return;
    case BoolLattice::False:
      L = 0, H = 0;
      return;
    case BoolLattice::True:
      L = 1, H = 1;
      return;
    case BoolLattice::Top:
      L = 0, H = 1;
      return;
    }
    assert(false && "unknown boolean kind");
  }

  static BoolLattice decodeBool(int64_t L, int64_t H) {
    if (L > H)
      return BoolLattice::bottom();
    if (L != H)
      return BoolLattice::top();
    return BoolLattice(L != 0);
  }

  /// The value of a present slot, rematerialized from the rows.
  AbsValue value(unsigned Slot) const {
    if (isBoolLane(Slot))
      return AbsValue(decodeBool(Lo[Slot], Hi[Slot]));
    if (DK == DomainKind::Interval)
      return AbsValue(Interval(Lo[Slot], Hi[Slot]));
    return AbsValue(NumVal(Interval(Lo[Slot], Hi[Slot]),
                           Congruence(CM[Slot], CR[Slot])));
  }

  /// Records Slot -> V in the shared key table, extending a private
  /// copy when the table is shared or does not cover the slot yet.
  void noteKey(unsigned Slot, const VarDecl *V) {
    if (Keys && Slot < Keys->size() && (*Keys)[Slot] == V)
      return;
    std::shared_ptr<StoreKeyTable> Mut;
    if (Keys && Keys.use_count() == 1) {
      // Sole owner: extend in place (no other payload can observe it).
      Mut = std::const_pointer_cast<StoreKeyTable>(Keys);
    } else {
      Mut = Keys ? std::make_shared<StoreKeyTable>(*Keys)
                 : std::make_shared<StoreKeyTable>();
    }
    if (Mut->size() <= Slot)
      Mut->resize(Slot + 1, nullptr);
    (*Mut)[Slot] = V;
    Keys = std::move(Mut);
  }

  const VarDecl *key(unsigned Slot) const { return (*Keys)[Slot]; }

  /// Writes the raw rows of a slot without touching the key table; the
  /// caller guarantees the shared table already covers the slot (the
  /// kernels do: output slots come from an input payload). \p M and \p R
  /// fill the congruence planes when present; the defaults are the
  /// boolean lane's pinned congruence-top.
  void putRaw(unsigned Slot, int64_t L, int64_t H, bool IsBool,
              int64_t M = 1, int64_t R = 0) {
    Lo[Slot] = L;
    Hi[Slot] = H;
    if (DK != DomainKind::Interval) {
      CM[Slot] = M;
      CR[Slot] = R;
    }
    uint64_t Mask = uint64_t(1) << (Slot & 63);
    if (IsBool)
      BoolBits[Slot >> 6] |= Mask;
    uint64_t &Word = Bits[Slot >> 6];
    NumPresent += !(Word & Mask);
    Word |= Mask;
  }

  void put(unsigned Slot, const VarDecl *V, const AbsValue &Value) {
    ensureCapacity(Slot);
    noteKey(Slot, V);
    int64_t L, H;
    int64_t M = 1, R = 0; // boolean lanes pin congruence-top
    bool IsBool = Value.isBool();
    if (IsBool)
      encodeBool(Value.asBool(), L, H);
    else {
      const NumVal &N = Value.asNum();
      L = N.I.Lo;
      H = N.I.Hi;
      M = N.C.M;
      R = N.C.R;
    }
    uint64_t Mask = uint64_t(1) << (Slot & 63);
    uint64_t &LaneWord = BoolBits[Slot >> 6];
    LaneWord = IsBool ? (LaneWord | Mask) : (LaneWord & ~Mask);
    Lo[Slot] = L;
    Hi[Slot] = H;
    if (DK != DomainKind::Interval) {
      CM[Slot] = M;
      CR[Slot] = R;
    }
    uint64_t &Word = Bits[Slot >> 6];
    NumPresent += !(Word & Mask);
    Word |= Mask;
  }

  void erase(unsigned Slot) {
    if (!present(Slot))
      return;
    Bits[Slot >> 6] &= ~(uint64_t(1) << (Slot & 63));
    --NumPresent;
  }

  /// Calls Fn(Slot, VarDecl, AbsValue) for every present slot,
  /// ascending. Rematerializes values; the lattice kernels read the
  /// rows directly instead.
  template <typename Fn> void forEach(Fn &&F) const {
    for (size_t W = 0; W < Bits.size(); ++W) {
      uint64_t Word = Bits[W];
      while (Word) {
        unsigned Slot =
            static_cast<unsigned>(W * 64) + __builtin_ctzll(Word);
        Word &= Word - 1;
        F(Slot, key(Slot), value(Slot));
      }
    }
  }
};

} // namespace detail

/// An abstract store: variable -> abstract value, with top as the
/// default for missing keys. Copies are O(1) (shared payload); mutation
/// is copy-on-write.
class AbstractStore {
public:
  /// The top store: every variable unconstrained (no payload at all).
  AbstractStore() = default;

  static AbstractStore bottom() {
    AbstractStore S;
    S.IsBottom = true;
    return S;
  }
  static AbstractStore top() { return AbstractStore(); }

  bool isBottom() const { return IsBottom; }

  /// True when no variable is constrained.
  bool isTop() const { return !IsBottom && (!P || P->NumPresent == 0); }

  /// Whether the store has an explicit entry for \p V.
  bool hasEntry(const VarDecl *V) const {
    return !IsBottom && P && P->present(V->storeSlot());
  }

  /// Number of explicit entries.
  size_t numEntries() const { return !IsBottom && P ? P->NumPresent : 0; }

  /// Calls Fn(const VarDecl *, const AbsValue &) for every explicit
  /// entry, in ascending slot order (per-routine declaration order —
  /// deterministic across runs, unlike the pointer order of the old
  /// map representation).
  template <typename Fn> void forEachEntry(Fn &&F) const {
    if (IsBottom || !P)
      return;
    P->forEach([&](unsigned, const VarDecl *V, const AbsValue &Value) {
      F(V, Value);
    });
  }

  /// Sets (strong update). Setting on bottom is a no-op. \p DK imprints
  /// an empty payload with the active domain (StoreOps and the persist
  /// codec pass theirs); writes into a non-empty payload must match its
  /// imprint.
  void set(const VarDecl *V, AbsValue Value,
           DomainKind DK = DomainKind::Interval) {
    if (IsBottom)
      return;
    detach();
    if (P->NumPresent == 0 && P->DK != DK)
      P->setKind(DK);
    assert(P->DK == DK && "mixed-domain writes to one store");
    P->put(V->storeSlot(), V, Value);
  }

  /// Removes the constraint on \p V (makes it top).
  void forget(const VarDecl *V) {
    if (IsBottom || !P || !P->present(V->storeSlot()))
      return;
    detach();
    P->erase(V->storeSlot());
  }

  void setBottom() {
    IsBottom = true;
    P.reset();
  }

  /// Pre-seeds the payload's shared slot -> decl table (typically the
  /// program-wide table owned by VarNumbering), so subsequent writes
  /// never pay a per-store table extension. No-op on bottom or when a
  /// table is already attached.
  void adoptKeyTable(std::shared_ptr<const detail::StoreKeyTable> T) {
    if (IsBottom || !T)
      return;
    detach();
    if (!P->Keys)
      P->Keys = std::move(T);
  }

  /// True when both stores alias the same payload (or are both
  /// payload-free), i.e. equality is decidable without looking at any
  /// entry. The delta-aware lattice ops return their input store when
  /// nothing changed exactly so this fires on convergence.
  bool samePayload(const AbstractStore &Other) const {
    return P == Other.P;
  }
  /// Identity of the shared payload (null for top/bottom); used for
  /// shared-once memory accounting and by tests.
  const void *payloadIdentity() const { return P.get(); }

  /// Rough byte footprint (Figure 4 memory accounting). The payload is
  /// counted in full; use the Seen overload to count shared payloads
  /// (and the shared key table) once across a collection of stores.
  size_t approximateBytes() const {
    return sizeof(*this) + payloadBytes() + keyTableBytes();
  }
  size_t approximateBytes(std::unordered_set<const void *> &Seen) const {
    size_t Bytes = sizeof(*this);
    if (P && Seen.insert(P.get()).second) {
      Bytes += payloadBytes();
      if (P->Keys && Seen.insert(P->Keys.get()).second)
        Bytes += keyTableBytes();
    }
    return Bytes;
  }

private:
  friend class StoreOps;

  size_t payloadBytes() const {
    if (!P)
      return 0;
    return sizeof(detail::StorePayload) +
           (P->Lo.size() + P->Hi.size() + P->CM.size() + P->CR.size()) *
               sizeof(int64_t) +
           (P->Bits.size() + P->BoolBits.size()) * sizeof(uint64_t);
  }
  size_t keyTableBytes() const {
    return P && P->Keys ? P->Keys->size() * sizeof(const VarDecl *) : 0;
  }

  /// Makes the payload exclusively owned (clone on shared write).
  void detach() {
    if (!P) {
      P = std::make_shared<detail::StorePayload>();
    } else if (P.use_count() != 1) {
      P = std::make_shared<detail::StorePayload>(*P);
      // Stores are context-free value types, so detail tracing of COW
      // clones goes through a process-global hook (one relaxed load
      // when off). NumPresent sizes the clone that just happened.
      if (TraceRecorder *R =
              trace::StoreDetachHook.load(std::memory_order_relaxed);
          R && R->wants(TraceEventKind::StoreDetach))
        R->record(TraceEventKind::StoreDetach, P->NumPresent);
    }
  }

  std::shared_ptr<detail::StorePayload> P;
  bool IsBottom = false;
};

/// Store-level lattice operations, parameterized by the active abstract
/// domain. Owns its ValueDomain (a small value object); the legacy
/// IntervalDomain constructor keeps interval-only call sites working.
class StoreOps {
public:
  explicit StoreOps(const IntervalDomain &D)
      : D(DomainKind::Interval, D) {}
  explicit StoreOps(const ValueDomain &D) : D(D) {}

  const ValueDomain &domain() const { return D; }
  DomainKind domainKind() const { return D.kind(); }

  /// Installs widening thresholds (§6.1: "more sophisticated widening
  /// operators can be easily designed"). Must be sorted ascending. Empty
  /// means the standard operator.
  void setWideningThresholds(std::vector<int64_t> Thresholds) {
    WideningThresholds = std::move(Thresholds);
  }
  const std::vector<int64_t> &wideningThresholds() const {
    return WideningThresholds;
  }

  /// Value of \p V (top of the right kind when absent). The variable's
  /// declared base kind decides int vs bool.
  AbsValue get(const AbstractStore &S, const VarDecl *V) const;

  /// The top value of the right kind for \p V. For scalars with a
  /// subrange *type* the top is still the full interval: subranges are
  /// enforced by checks, not silently assumed.
  AbsValue topFor(const VarDecl *V) const;

  /// Declared-type interval of \p V: the subrange for subrange-typed
  /// variables (and array element subranges), full otherwise.
  Interval typeRange(const VarDecl *V) const;

  bool leq(const AbstractStore &A, const AbstractStore &B) const;
  bool equal(const AbstractStore &A, const AbstractStore &B) const;

  /// \name Delta-aware lattice operations
  /// Each returns one of its *inputs* (payload shared, not copied)
  /// whenever the result is semantically equal to it, so converged
  /// solver iterations produce pointer-stable values.
  /// @{
  AbstractStore join(const AbstractStore &A, const AbstractStore &B) const;
  AbstractStore meet(const AbstractStore &A, const AbstractStore &B) const;
  AbstractStore widen(const AbstractStore &A, const AbstractStore &B) const;
  AbstractStore narrow(const AbstractStore &A, const AbstractStore &B) const;
  /// @}

  /// Drops every present slot of \p S whose bit is clear in the
  /// \p MaskWords live bitmap (\p NumWords 64-bit words; slots past the
  /// mask count as dead). Returns \p S itself — payload shared — when
  /// nothing drops, so converged sweeps stay pointer-stable. Bottom and
  /// top pass through. When \p PrunedSlots is non-null it accumulates
  /// the number of dropped slots.
  AbstractStore restrictTo(const AbstractStore &S, const uint64_t *MaskWords,
                           size_t NumWords,
                           uint64_t *PrunedSlots = nullptr) const;

  /// Sets V to Value, normalizing: bottom value -> bottom store.
  void assign(AbstractStore &S, const VarDecl *V, const AbsValue &Value) const;

  /// Meets V's value with Value (refinement); bottom -> bottom store.
  void refine(AbstractStore &S, const VarDecl *V, const AbsValue &Value) const;

  AbsValue joinValues(const AbsValue &A, const AbsValue &B) const;
  AbsValue meetValues(const AbsValue &A, const AbsValue &B) const;
  bool leqValues(const AbsValue &A, const AbsValue &B) const;
  /// One widening step on values, honoring the installed thresholds.
  /// Public alongside the other scalar helpers: the kernel differential
  /// tests use them as the per-key reference semantics.
  AbsValue widenValues(const AbsValue &A, const AbsValue &B) const;

  /// Renders the store, e.g. "{ i -> [0, 100], b -> true }", in slot
  /// (per-routine declaration) order.
  std::string str(const AbstractStore &S) const;

  /// Number of non-empty 64-slot bitmap words the vector kernels have
  /// walked since construction (the store.kernel_blocks counter).
  uint64_t kernelBlocks() const { return KernelBlocks; }

private:
  /// True when \p Value is the top of its own kind (the full numeric
  /// top for ints, T for booleans) — i.e. carries no constraint and is
  /// semantically identical to a missing entry.
  bool isTopValue(const AbsValue &Value) const {
    return Value.isInt() ? D.isTop(Value.asNum()) : Value.asBool().isTop();
  }

  /// \name Kernel bodies
  /// Each public lattice operation dispatches on the payloads' imprint:
  /// HasCong = false walks the two interval planes (code identical to
  /// the pre-domain-refactor kernels), HasCong = true additionally
  /// carries the CM/CR congruence planes through the same delta-aware
  /// structure. Defined in AbstractStore.cpp (only instantiated there).
  /// @{
  template <bool HasCong>
  bool leqK(const AbstractStore &A, const AbstractStore &B) const;
  template <bool HasCong>
  bool equalK(const AbstractStore &A, const AbstractStore &B) const;
  template <bool HasCong>
  AbstractStore joinK(const AbstractStore &A, const AbstractStore &B) const;
  template <bool HasCong>
  AbstractStore meetK(const AbstractStore &A, const AbstractStore &B) const;
  template <bool HasCong>
  AbstractStore widenK(const AbstractStore &A, const AbstractStore &B) const;
  template <bool HasCong>
  AbstractStore narrowK(const AbstractStore &A, const AbstractStore &B) const;
  /// @}

  ValueDomain D;
  std::vector<int64_t> WideningThresholds;
  /// Kernel telemetry (one add per kernel invocation).
  mutable uint64_t KernelBlocks = 0;
};

} // namespace syntox

#endif // SYNTOX_SEMANTICS_ABSTRACTSTORE_H
