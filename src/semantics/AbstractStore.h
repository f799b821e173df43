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
/// Representation: one intrusively refcounted heap block per store
/// (detail::StorePayload), copy-on-write. The block is a header — the
/// reference count, the number of present slots, the row and bitmap
/// capacities, the domain imprint and the shared key table — followed
/// by two bitmaps and the rows:
///
///  - Bits (presence) and BoolBits (boolean lanes), one bit per store
///    slot (VarDecl::storeSlot()), held only for the window of 64-slot
///    words between the lowest and the highest present slot; every word
///    outside the window is zero;
///  - one row per *present* slot, in slot order. A slot's row index is
///    its rank among the present bits, so absent slots cost nothing.
///
/// The active abstract domain (lattice/Domain.h) decides the row width
/// — this is the row-plane contract every pluggable domain must fit:
///
///  - Interval (the default): two int64 words per row, (Lo, Hi).
///  - Congruence and Product: four, (Lo, Hi, CM, CR), where (CM, CR) is
///    the slot's congruence class in the canonical encoding of
///    lattice/Congruence.h (M = -1 bottom, M = 0 constant, M >= 1 with
///    0 <= R < M).
///
/// A payload is *imprinted* with its DomainKind by the first write (or
/// by a kernel copying its input's kind); one store never mixes
/// domains. Boolean values are encoded as pseudo-intervals over {0, 1}
/// in the (Lo, Hi) words:
///
///     bottom = [1, 0]   false = [0, 0]   true = [1, 1]   T = [0, 1]
///
/// with the congruence words (when present) pinned at top (1, 0), so
/// every lattice operation is a uniform min/max/compare over the rows —
/// boolean join/meet/leq coincide with the interval formulas once the
/// lane's domain bounds are taken as (0, 1) instead of (w-, w+), and
/// row equality is a plain memory compare.
/// StoreOps exploits this: join/meet/widen/narrow/equal are
/// whole-store kernels that walk the 64-slot bitmap words (absent words
/// are skipped wholesale) with a row cursor per input advancing in slot
/// order, never materializing an AbsValue; each sizes its output block
/// from bitmap popcounts, so a result is one allocation.
///
/// The slot -> VarDecl key table is *shared*, not per-payload: payload
/// copies alias one table, whose entries go from unset to their slot's
/// declaration and never change while shared (a store introducing a
/// slot the table does not cover fills it in place), so a COW detach
/// copies rows and bitmaps — no pointer vector.
///
/// An AbstractStore is one pointer: null is the top store, a tag value
/// is bottom, anything else is a block. Copying is one refcount
/// increment; mutation detaches (clones) the block only when it is
/// shared, sized for the write. The lattice operations in StoreOps are
/// delta-aware: join/widen/narrow/meet return an input store (block and
/// all) whenever the result is semantically identical to it, so the
/// solver's convergence checks hit the O(1) pointer-equality fast path
/// of equal()/leq().
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_SEMANTICS_ABSTRACTSTORE_H
#define SYNTOX_SEMANTICS_ABSTRACTSTORE_H

#include "frontend/Ast.h"
#include "lattice/BoolLattice.h"
#include "lattice/Domain.h"
#include "lattice/Interval.h"

#include <algorithm>
#include <cstdint>
#include <ext/atomicity.h>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
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
/// comment). Entries go from unset to their slot's declaration and
/// never change while the table is shared (see noteKey).
using StoreKeyTable = std::vector<const VarDecl *>;

/// Population count as plain arithmetic: the default x86-64 target has
/// no popcnt instruction, and the builtin would be a library call per
/// word.
inline unsigned popcount64(uint64_t X) {
  X = X - ((X >> 1) & 0x5555555555555555ull);
  X = (X & 0x3333333333333333ull) + ((X >> 2) & 0x3333333333333333ull);
  X = (X + (X >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<unsigned>((X * 0x0101010101010101ull) >> 56);
}

/// The one heap block behind a store that is neither top nor bottom
/// (see the file comment): this header, then Bits[WordCap],
/// BoolBits[WordCap] and RowCap rows of rowWidth() int64 words. Bits
/// marks present slots (a slot without its bit is an implicit top and
/// has no row); BoolBits marks the boolean lanes among them. Only the
/// words of the window [WordBase, WordBase + NumWords) are held.
struct StorePayload {
  /// References to this block, counted the way std::shared_ptr counts
  /// its own: atomically once the process has started a second thread,
  /// with plain arithmetic before.
  _Atomic_word Refs = 1;
  uint32_t NumPresent = 0;
  uint32_t RowCap = 0;
  uint32_t WordCap = 0;
  uint32_t WordBase = 0;
  uint32_t NumWords = 0;
  /// The abstract domain this payload's rows belong to, imprinted by
  /// the first write (AbstractStore::set) or copied from the kernel
  /// input. One payload never mixes domains.
  DomainKind DK = DomainKind::Interval;
  std::shared_ptr<const StoreKeyTable> Keys;

  StorePayload() = default;
  StorePayload(const StorePayload &) = delete;
  StorePayload &operator=(const StorePayload &) = delete;

  /// A block with room for \p WordCap bitmap words and \p RowCap rows,
  /// holding no entry and one reference.
  static StorePayload *create(DomainKind K, uint32_t WordCap,
                              uint32_t RowCap);
  /// A one-reference copy of \p P whose window is [Lo, Hi) (which must
  /// contain P's), with the given capacities.
  static StorePayload *copyOf(const StorePayload &P, uint32_t Lo,
                              uint32_t Hi, uint32_t WordCap,
                              uint32_t RowCap);
  static void destroy(StorePayload *P);

  static unsigned widthOf(DomainKind K) {
    return K == DomainKind::Interval ? 2 : 4;
  }
  static size_t bytesFor(DomainKind K, uint32_t WordCap, uint32_t RowCap) {
    return sizeof(StorePayload) + 2 * size_t(WordCap) * sizeof(uint64_t) +
           size_t(RowCap) * widthOf(K) * sizeof(int64_t);
  }
  unsigned rowWidth() const { return widthOf(DK); }
  size_t bytes() const { return bytesFor(DK, WordCap, RowCap); }

  uint64_t *bits() { return reinterpret_cast<uint64_t *>(this + 1); }
  const uint64_t *bits() const {
    return reinterpret_cast<const uint64_t *>(this + 1);
  }
  uint64_t *boolBits() { return bits() + WordCap; }
  const uint64_t *boolBits() const { return bits() + WordCap; }
  int64_t *rows() {
    return reinterpret_cast<int64_t *>(bits() + 2 * size_t(WordCap));
  }
  const int64_t *rows() const {
    return reinterpret_cast<const int64_t *>(bits() + 2 * size_t(WordCap));
  }

  /// Presence word \p W (zero outside the window).
  uint64_t word(size_t W) const {
    size_t I = W - WordBase; // wraps below the window
    return I < NumWords ? bits()[I] : 0;
  }
  uint64_t boolWord(size_t W) const {
    size_t I = W - WordBase;
    return I < NumWords ? boolBits()[I] : 0;
  }

  bool present(unsigned Slot) const {
    return (word(Slot >> 6) >> (Slot & 63)) & 1;
  }
  bool isBoolLane(unsigned Slot) const {
    return (boolWord(Slot >> 6) >> (Slot & 63)) & 1;
  }

  /// The smallest window [first, second) holding this block's words and
  /// word \p W.
  std::pair<uint32_t, uint32_t> windowWith(uint32_t W) const {
    if (!NumWords)
      return {W, W + 1};
    return {std::min(WordBase, W), std::max(WordBase + NumWords, W + 1)};
  }

  /// The present slots below bit \p Mask of held word \p I: the row
  /// index of the slot at that bit.
  size_t rank(size_t I, uint64_t Mask) const {
    size_t R = popcount64(bits()[I] & (Mask - 1));
    for (size_t J = 0; J < I; ++J)
      R += popcount64(bits()[J]);
    return R;
  }

  /// The row of \p Slot, or null when the slot is absent.
  const int64_t *find(unsigned Slot) const {
    size_t I = (Slot >> 6) - size_t(WordBase);
    uint64_t Mask = uint64_t(1) << (Slot & 63);
    if (I >= NumWords || !(bits()[I] & Mask))
      return nullptr;
    return rows() + rank(I, Mask) * rowWidth();
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

  /// The value a row holds, rematerialized.
  AbsValue decode(const int64_t *Row, bool IsBool) const {
    if (IsBool)
      return AbsValue(decodeBool(Row[0], Row[1]));
    if (DK == DomainKind::Interval)
      return AbsValue(Interval(Row[0], Row[1]));
    return AbsValue(
        NumVal(Interval(Row[0], Row[1]), Congruence(Row[2], Row[3])));
  }

  /// Records Slot -> V in the key table. A payload reads only the
  /// entries of its present slots, and a shared table's entry only ever
  /// goes from unset to its slot's one declaration, so the table gains
  /// entries in place even while other payloads share it; only a slot
  /// that already names another declaration, in a table someone else
  /// sees, needs a private copy.
  void noteKey(unsigned Slot, const VarDecl *V) {
    if (Keys && Slot < Keys->size() && (*Keys)[Slot] == V)
      return;
    StoreKeyTable *Mut;
    if (!Keys || (Slot < Keys->size() && (*Keys)[Slot] &&
                  Keys.use_count() != 1)) {
      auto Copy = Keys ? std::make_shared<StoreKeyTable>(*Keys)
                       : std::make_shared<StoreKeyTable>();
      Mut = Copy.get();
      Keys = std::move(Copy);
    } else {
      Mut = const_cast<StoreKeyTable *>(Keys.get());
    }
    if (Mut->size() <= Slot)
      Mut->resize(Slot + 1, nullptr);
    (*Mut)[Slot] = V;
  }

  const VarDecl *key(unsigned Slot) const { return (*Keys)[Slot]; }

  /// (Re-)imprints the payload's domain; the row capacity is re-cut to
  /// the new width. Only legal while the payload has no entries.
  void setKind(DomainKind K) {
    assert(NumPresent == 0 && "re-imprinting a non-empty payload");
    size_t RowWords = size_t(RowCap) * rowWidth();
    DK = K;
    RowCap = static_cast<uint32_t>(RowWords / rowWidth());
  }

  /// The row for \p Slot in the exclusively owned block \p P, opened
  /// (in slot order, rows above it shifted up) when the slot is absent.
  /// Reallocates \p P, with geometric growth, when the window or the
  /// rows are full, so appends in slot order are amortized O(1).
  static int64_t *slotRow(StorePayload *&P, unsigned Slot);
  /// Writes Slot -> Value into the exclusively owned block \p P.
  static void put(StorePayload *&P, unsigned Slot, const VarDecl *V,
                  const AbsValue &Value);
  /// Removes a present slot's row (exclusively owned block).
  void erase(unsigned Slot);
  /// Shrinks the window to the words between the lowest and the highest
  /// present slot.
  void trimWindow();

  /// Calls Fn(Slot, VarDecl, AbsValue) for every present slot,
  /// ascending. Rematerializes values; the lattice kernels read the
  /// rows directly instead.
  template <typename Fn> void forEach(Fn &&F) const {
    const int64_t *Row = rows();
    const unsigned Width = rowWidth();
    for (size_t I = 0; I < NumWords; ++I) {
      uint64_t Word = bits()[I], Lanes = boolBits()[I];
      while (Word) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Word));
        Word &= Word - 1;
        unsigned Slot = static_cast<unsigned>((WordBase + I) * 64 + Bit);
        F(Slot, key(Slot), decode(Row, (Lanes >> Bit) & 1));
        Row += Width;
      }
    }
  }

  void retain() { __gnu_cxx::__atomic_add_dispatch(&Refs, 1); }
  void release() {
    if (__gnu_cxx::__exchange_and_add_dispatch(&Refs, -1) == 1)
      destroy(this);
  }
  bool shared() const { return __atomic_load_n(&Refs, __ATOMIC_ACQUIRE) != 1; }
};

} // namespace detail

/// An abstract store: variable -> abstract value, with top as the
/// default for missing keys. One pointer: null is top, a tag value is
/// bottom, anything else is a reference to a shared block. Copies are
/// O(1); mutation is copy-on-write.
class AbstractStore {
public:
  /// The top store: every variable unconstrained (no payload at all).
  AbstractStore() = default;
  AbstractStore(const AbstractStore &O) : P(O.P) {
    if (O.hasBlock())
      P->retain();
  }
  AbstractStore(AbstractStore &&O) noexcept : P(O.P) { O.P = nullptr; }
  AbstractStore &operator=(const AbstractStore &O) {
    if (O.hasBlock())
      O.P->retain();
    drop();
    P = O.P;
    return *this;
  }
  AbstractStore &operator=(AbstractStore &&O) noexcept {
    if (this != &O) {
      drop();
      P = O.P;
      O.P = nullptr;
    }
    return *this;
  }
  ~AbstractStore() { drop(); }

  static AbstractStore bottom() { return AbstractStore(bottomTag()); }
  static AbstractStore top() { return AbstractStore(); }

  bool isBottom() const { return P == bottomTag(); }

  /// True when no variable is constrained.
  bool isTop() const { return !P || (hasBlock() && P->NumPresent == 0); }

  /// Whether the store has an explicit entry for \p V.
  bool hasEntry(const VarDecl *V) const {
    return hasBlock() && P->present(V->storeSlot());
  }

  /// Number of explicit entries.
  size_t numEntries() const { return hasBlock() ? P->NumPresent : 0; }

  /// Calls Fn(const VarDecl *, const AbsValue &) for every explicit
  /// entry, in ascending slot order (per-routine declaration order —
  /// deterministic across runs, unlike the pointer order of the old
  /// map representation).
  template <typename Fn> void forEachEntry(Fn &&F) const {
    if (!hasBlock())
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
           DomainKind DK = DomainKind::Interval);

  /// Removes the constraint on \p V (makes it top).
  void forget(const VarDecl *V);

  void setBottom() {
    drop();
    P = bottomTag();
  }

  /// Pre-seeds the payload's shared slot -> decl table (typically the
  /// program-wide table owned by VarNumbering), so subsequent writes
  /// never pay a per-store table extension. No-op on bottom or when a
  /// table is already attached.
  void adoptKeyTable(std::shared_ptr<const detail::StoreKeyTable> T);

  /// True when both stores alias the same payload (or are both top
  /// without one, or both bottom), i.e. equality is decidable without
  /// looking at any entry. The delta-aware lattice ops return their
  /// input store when nothing changed exactly so this fires on
  /// convergence.
  bool samePayload(const AbstractStore &Other) const { return P == Other.P; }
  /// Identity of the shared payload (null for top/bottom); used for
  /// shared-once memory accounting and by tests.
  const void *payloadIdentity() const { return hasBlock() ? P : nullptr; }

  /// Rough byte footprint (Figure 4 memory accounting): the handle plus
  /// the block as allocated. The payload is counted in full; use the
  /// Seen overload to count shared payloads (and the shared key table)
  /// once across a collection of stores.
  size_t approximateBytes() const {
    return sizeof(*this) + payloadBytes() + keyTableBytes();
  }
  size_t approximateBytes(std::unordered_set<const void *> &Seen) const {
    size_t Bytes = sizeof(*this);
    if (hasBlock() && Seen.insert(P).second) {
      Bytes += payloadBytes();
      if (P->Keys && Seen.insert(P->Keys.get()).second)
        Bytes += keyTableBytes();
    }
    return Bytes;
  }

private:
  friend class StoreOps;

  /// Adopts one reference to \p Block (or a tag).
  explicit AbstractStore(detail::StorePayload *Block) : P(Block) {}

  static detail::StorePayload *bottomTag() {
    return reinterpret_cast<detail::StorePayload *>(uintptr_t(1));
  }
  bool hasBlock() const { return reinterpret_cast<uintptr_t>(P) > 1; }
  void drop() {
    if (hasBlock())
      P->release();
  }

  size_t payloadBytes() const { return hasBlock() ? P->bytes() : 0; }
  size_t keyTableBytes() const {
    return hasBlock() && P->Keys ? P->Keys->size() * sizeof(const VarDecl *)
                                 : 0;
  }

  /// Replace a shared block by an exclusively owned clone, reported as
  /// a store_detach trace event. detachFor() gives the clone room for a
  /// write to \p Slot, so the write that follows allocates nothing.
  void detach();
  void detachFor(unsigned Slot);

  detail::StorePayload *P = nullptr;
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

  /// The solver's convergence checks: the delta-aware operations return
  /// their input payload when nothing changed, so these usually resolve
  /// on payload identity, inline, before any call.
  bool leq(const AbstractStore &A, const AbstractStore &B) const {
    return A.samePayload(B) || leqDistinct(A, B);
  }
  bool equal(const AbstractStore &A, const AbstractStore &B) const {
    return A.samePayload(B) || equalDistinct(A, B);
  }

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
  /// leq() and equal() of two stores that are not the same payload.
  bool leqDistinct(const AbstractStore &A, const AbstractStore &B) const;
  bool equalDistinct(const AbstractStore &A, const AbstractStore &B) const;

  /// \name Kernel bodies
  /// Each public lattice operation dispatches on the payloads' imprint:
  /// HasCong = false walks two-word (Lo, Hi) rows, HasCong = true
  /// four-word rows that carry the (CM, CR) congruence class through the
  /// same delta-aware structure. Defined in AbstractStore.cpp (only
  /// instantiated there).
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
