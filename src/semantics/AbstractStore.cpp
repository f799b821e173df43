//===- semantics/AbstractStore.cpp - Abstract memory states ---------------===//
//
// The lattice operations here are whole-vector kernels over the
// structure-of-arrays payload: each walks the 64-slot presence bitmap
// words (skipping absent words wholesale) and runs a branch-light body
// over the raw row planes. Boolean lanes are pseudo-intervals over
// {0, 1} (see AbstractStore.h), so the same min/max/compare formulas
// serve both kinds once a lane's domain bounds are selected per slot —
// the single exception is narrowing, where the boolean operator is the
// lattice *meet* (max-lo/min-hi), not the omega-bound formula.
//
// Domain dispatch: every kernel is a template over HasCong. The false
// instantiation walks only the Lo/Hi planes and is the original
// interval kernel, byte for byte of behavior (the bench_store floor in
// check.sh holds it to its throughput); the true instantiation carries
// the CM/CR congruence planes through the same delta-aware structure,
// with per-row congruence lattice steps mirroring ValueDomain's scalar
// operations — including the either-component bottom short-circuits
// (a row is bottom as soon as its interval OR congruence plane is).
//
// Every kernel must reproduce the scalar per-entry semantics bit for
// bit (store_soa_test and store_product_test run fuzzed differentials
// against a scalar reference), including non-canonical bottom rows
// (Lo > Hi) that set() may have stored verbatim.
//
//===----------------------------------------------------------------------===//

#include "semantics/AbstractStore.h"

using namespace syntox;
using detail::StorePayload;

AbsValue StoreOps::topFor(const VarDecl *V) const {
  const Type *Ty = V->type();
  if (Ty->isBoolean())
    return AbsValue(BoolLattice::top());
  return AbsValue(D.top());
}

Interval StoreOps::typeRange(const VarDecl *V) const {
  const Type *Ty = V->type();
  if (const auto *Arr = dyn_cast<ArrayType>(Ty))
    Ty = Arr->elementType();
  if (const auto *Sub = dyn_cast<SubrangeType>(Ty))
    return D.intervals().make(Sub->lo(), Sub->hi());
  return D.intervals().top();
}

AbsValue StoreOps::get(const AbstractStore &S, const VarDecl *V) const {
  if (S.isBottom()) {
    if (V->type()->isBoolean())
      return AbsValue(BoolLattice::bottom());
    return AbsValue(Interval::bottom());
  }
  unsigned Slot = V->storeSlot();
  if (S.P && S.P->present(Slot))
    return S.P->value(Slot);
  return topFor(V);
}

AbsValue StoreOps::joinValues(const AbsValue &A, const AbsValue &B) const {
  assert(A.kind() == B.kind() && "joining mismatched kinds");
  if (A.isInt())
    return AbsValue(D.join(A.asNum(), B.asNum()));
  return AbsValue(A.asBool().join(B.asBool()));
}

AbsValue StoreOps::meetValues(const AbsValue &A, const AbsValue &B) const {
  assert(A.kind() == B.kind() && "meeting mismatched kinds");
  if (A.isInt())
    return AbsValue(D.meet(A.asNum(), B.asNum()));
  return AbsValue(A.asBool().meet(B.asBool()));
}

bool StoreOps::leqValues(const AbsValue &A, const AbsValue &B) const {
  assert(A.kind() == B.kind() && "comparing mismatched kinds");
  if (A.isInt())
    return D.leq(A.asNum(), B.asNum());
  return A.asBool().leq(B.asBool());
}

AbsValue StoreOps::widenValues(const AbsValue &A, const AbsValue &B) const {
  assert(A.kind() == B.kind() && "widening mismatched kinds");
  if (A.isInt()) {
    const NumVal &X = A.asNum(), &Y = B.asNum();
    return AbsValue(WideningThresholds.empty()
                        ? D.widen(X, Y)
                        : D.widenWithThresholds(X, Y, WideningThresholds));
  }
  // Boolean lattice is finite: join acts as a widening.
  return AbsValue(A.asBool().join(B.asBool()));
}

//===----------------------------------------------------------------------===//
// Kernel helpers
//===----------------------------------------------------------------------===//

namespace {

/// File-local congruence lattice steps (stateless).
const CongruenceDomain CDK;

inline size_t wordsOf(const StorePayload *P) {
  return P ? P->Bits.size() : 0;
}

/// Per-slot lane bounds: (0, 1) for boolean lanes, (w-, w+) otherwise.
struct Lane {
  int64_t KMin, KMax;
};
inline Lane laneOf(uint64_t BoolWord, unsigned Bit, int64_t MinV,
                   int64_t MaxV) {
  bool IsBool = (BoolWord >> Bit) & 1;
  return {IsBool ? 0 : MinV, IsBool ? 1 : MaxV};
}

/// One slot's raw rows. The congruence plane is loaded (and meaningful)
/// only in HasCong kernels; the false instantiation carries the pinned
/// congruence-top so the field reads fold away.
struct Row {
  int64_t Lo, Hi;
  int64_t M, R;
};

template <bool HasCong>
inline Row loadRow(const StorePayload *P, size_t S) {
  if constexpr (HasCong)
    return {P->Lo[S], P->Hi[S], P->CM[S], P->CR[S]};
  else
    return {P->Lo[S], P->Hi[S], 1, 0};
}

/// Bottom test: either plane empty (mirrors NumVal::isBottom).
template <bool HasCong> inline bool rowBot(const Row &A) {
  if (A.Lo > A.Hi)
    return true;
  if constexpr (HasCong)
    return A.M < 0;
  return false;
}

/// Top test: a non-empty row spanning the whole lane (and, with
/// congruence planes, the top class 1Z+0 — boolean lanes pin it there).
template <bool HasCong> inline bool rowTop(const Row &A, const Lane &L) {
  if (!(A.Lo <= A.Hi && A.Lo <= L.KMin && A.Hi >= L.KMax))
    return false;
  if constexpr (HasCong)
    return A.M == 1;
  return true;
}

/// Scalar operator== on raw rows: all bottom representations compare
/// equal, otherwise the planes must match exactly (non-bottom
/// congruence rows are canonical by construction).
template <bool HasCong> inline bool rowsEq(const Row &A, const Row &B) {
  bool ABot = rowBot<HasCong>(A), BBot = rowBot<HasCong>(B);
  if (ABot || BBot)
    return ABot && BBot;
  if (A.Lo != B.Lo || A.Hi != B.Hi)
    return false;
  if constexpr (HasCong)
    return A.M == B.M && A.R == B.R;
  return true;
}

/// leqValues on raw rows; valid for both lanes (the boolean encoding
/// makes interval inclusion coincide with the flat-lattice order).
template <bool HasCong> inline bool rowLeq(const Row &A, const Row &B) {
  if (rowBot<HasCong>(A))
    return true;
  if (rowBot<HasCong>(B))
    return false;
  if (!(B.Lo <= A.Lo && A.Hi <= B.Hi))
    return false;
  if constexpr (HasCong)
    return CDK.leq(Congruence(A.M, A.R), Congruence(B.M, B.R));
  return true;
}

/// True when this store operation must run the congruence-plane
/// kernels. A payload states its need through its imprint; empty
/// payloads (never written, possibly default-imprinted Interval) are
/// compatible with either instantiation because kernels only read rows
/// of present slots.
inline bool wantCong(const StorePayload *PA, const StorePayload *PB) {
  assert(!(PA && PB && PA->NumPresent && PB->NumPresent &&
           PA->DK != PB->DK) &&
         "mixed-domain stores in one lattice operation");
  return (PA && PA->DK != DomainKind::Interval) ||
         (PB && PB->DK != DomainKind::Interval);
}

/// The imprint a kernel's output payload inherits.
inline DomainKind outKind(const StorePayload *PA, const StorePayload *PB) {
  if (PA && PA->DK != DomainKind::Interval)
    return PA->DK;
  if (PB && PB->DK != DomainKind::Interval)
    return PB->DK;
  return DomainKind::Interval;
}

} // namespace

//===----------------------------------------------------------------------===//
// Comparison kernels
//===----------------------------------------------------------------------===//

template <bool HasCong>
bool StoreOps::leqK(const AbstractStore &A, const AbstractStore &B) const {
  if (A.isBottom())
    return true;
  if (B.isBottom())
    return false;
  // Identical payloads are equal, and leq is reflexive.
  if (A.samePayload(B))
    return true;
  if (!B.P)
    return true; // B is top
  // A <= B iff every constraint of B is implied by A. Slots absent in A
  // are top, which is only below B's entry if that entry is top too.
  const StorePayload *PA = A.P.get(), *PB = B.P.get();
  const int64_t MinV = D.minValue(), MaxV = D.maxValue();
  const size_t WA = wordsOf(PA), WB = wordsOf(PB);
  uint64_t Blocks = 0;
  for (size_t W = 0; W < WB; ++W) {
    uint64_t MB = PB->Bits[W];
    if (!MB)
      continue;
    ++Blocks;
    uint64_t MA = W < WA ? PA->Bits[W] : 0;
    uint64_t BoolW = PB->BoolBits[W];
    size_t Base = W * 64;
    while (MB) {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(MB));
      MB &= MB - 1;
      size_t S = Base + Bit;
      Row BV = loadRow<HasCong>(PB, S);
      Lane L = laneOf(BoolW, Bit, MinV, MaxV);
      if (rowTop<HasCong>(BV, L))
        continue; // top BV constrains nothing
      if (!((MA >> Bit) & 1)) {
        KernelBlocks += Blocks;
        return false; // top !<= a real constraint
      }
      if (!rowLeq<HasCong>(loadRow<HasCong>(PA, S), BV)) {
        KernelBlocks += Blocks;
        return false;
      }
    }
  }
  KernelBlocks += Blocks;
  return true;
}

// The public wrappers repeat the kernels' O(1) early-outs *before* the
// wantCong dispatch: the solver's convergence checks resolve on these
// paths almost every call, and the dispatch's payload-header loads are
// measurable there (bench_store equal_ptr/join_same columns).
bool StoreOps::leq(const AbstractStore &A, const AbstractStore &B) const {
  if (A.isBottom())
    return true;
  if (B.isBottom())
    return false;
  if (A.samePayload(B))
    return true;
  return wantCong(A.P.get(), B.P.get()) ? leqK<true>(A, B)
                                        : leqK<false>(A, B);
}

template <bool HasCong>
bool StoreOps::equalK(const AbstractStore &A, const AbstractStore &B) const {
  if (A.isBottom() || B.isBottom())
    return A.isBottom() == B.isBottom();
  // Pointer-stable convergence fast path: the delta-aware ops return
  // their input payload when nothing changed, so the solver's equality
  // checks usually resolve right here.
  if (A.samePayload(B))
    return true;
  const StorePayload *PA = A.P.get(), *PB = B.P.get();
  // Memoized-hash short-circuit: differing computed hashes mean the
  // stores differ (hash is consistent with equal); do not force a
  // computation just for this.
  if (PA && PB) {
    uint64_t HA = PA->CachedHash.load(std::memory_order_relaxed);
    uint64_t HB = PB->CachedHash.load(std::memory_order_relaxed);
    if (HA && HB && HA != HB)
      return false;
  }
  // Synchronized walk over the union of present slots (missing slot =
  // top; explicit top entries match missing ones).
  const int64_t MinV = D.minValue(), MaxV = D.maxValue();
  const size_t WA = wordsOf(PA), WB = wordsOf(PB);
  uint64_t Blocks = 0;
  bool Eq = true;
  for (size_t W = 0; Eq && W < std::max(WA, WB); ++W) {
    uint64_t MA = W < WA ? PA->Bits[W] : 0;
    uint64_t MB = W < WB ? PB->Bits[W] : 0;
    uint64_t Union = MA | MB;
    if (!Union)
      continue;
    ++Blocks;
    size_t Base = W * 64;
    uint64_t Common = MA & MB;
    if (Common == ~0ull) {
      // Dense word (the dominant shape once a sweep has populated the
      // store): a pure xor/or reduction the compiler vectorizes. Equal
      // raw bits mean equal rows; differing bits *almost* always mean a
      // real difference — the only exception is two bottom rows with
      // different representations, and a non-bottom payload never holds
      // a bottom row (any bottom entry collapses the whole store), so
      // the slow per-slot walk below runs only on genuine mismatches.
      uint64_t Diff = 0;
      for (unsigned I = 0; I < 64; ++I) {
        size_t S = Base + I;
        Diff |= uint64_t(PA->Lo[S] ^ PB->Lo[S]) |
                uint64_t(PA->Hi[S] ^ PB->Hi[S]);
        if constexpr (HasCong)
          Diff |= uint64_t(PA->CM[S] ^ PB->CM[S]) |
                  uint64_t(PA->CR[S] ^ PB->CR[S]);
      }
      if (!Diff)
        continue;
    }
    while (Union) {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Union));
      Union &= Union - 1;
      size_t S = Base + Bit;
      bool InA = (MA >> Bit) & 1, InB = (MB >> Bit) & 1;
      if (InA && InB) {
        if (!rowsEq<HasCong>(loadRow<HasCong>(PA, S),
                             loadRow<HasCong>(PB, S))) {
          Eq = false;
          break;
        }
      } else {
        const StorePayload *PX = InA ? PA : PB;
        Lane L = laneOf(PX->BoolBits[W], Bit, MinV, MaxV);
        if (!rowTop<HasCong>(loadRow<HasCong>(PX, S), L)) {
          Eq = false;
          break;
        }
      }
    }
  }
  KernelBlocks += Blocks;
  return Eq;
}

bool StoreOps::equal(const AbstractStore &A, const AbstractStore &B) const {
  if (A.isBottom() || B.isBottom())
    return A.isBottom() == B.isBottom();
  if (A.samePayload(B))
    return true;
  return wantCong(A.P.get(), B.P.get()) ? equalK<true>(A, B)
                                        : equalK<false>(A, B);
}

template <bool HasCong>
uint64_t StoreOps::hashK(const AbstractStore &S) const {
  if (S.isBottom())
    return 0x452821e638d01377ull;
  if (!S.P || S.P->NumPresent == 0)
    return 0x13198a2e03707344ull; // the top store
  uint64_t Cached = S.P->CachedHash.load(std::memory_order_relaxed);
  if (Cached)
    return Cached;
  const StorePayload *P = S.P.get();
  const int64_t MinV = D.minValue(), MaxV = D.maxValue();
  uint64_t H = 0x13198a2e03707344ull;
  uint64_t Blocks = 0;
  // Slot order is deterministic across runs (per-routine declaration
  // order), unlike the pointer order of the old map representation.
  for (size_t W = 0; W < P->Bits.size(); ++W) {
    uint64_t Mask = P->Bits[W];
    if (!Mask)
      continue;
    ++Blocks;
    uint64_t BoolW = P->BoolBits[W];
    size_t Base = W * 64;
    while (Mask) {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Mask));
      Mask &= Mask - 1;
      size_t Slot = Base + Bit;
      Row RV = loadRow<HasCong>(P, Slot);
      bool IsBool = (BoolW >> Bit) & 1;
      Lane L{IsBool ? 0 : MinV, IsBool ? 1 : MaxV};
      if (rowTop<HasCong>(RV, L))
        continue; // explicit top entry == missing slot
      H = hashCombine(H, static_cast<uint64_t>(Slot));
      if (!IsBool) {
        // Mirrors hashValue(NumVal): the congruence plane contributes
        // only when it constrains (top is silent), so interval-domain
        // payload hashes are unchanged by the refactor.
        uint64_t HV = hashValue(Interval(RV.Lo, RV.Hi));
        if constexpr (HasCong)
          if (RV.M != 1)
            HV = hashCombine(HV, hashValue(Congruence(RV.M, RV.R)));
        H = hashCombine(H, HV);
      } else {
        // BoolLattice::kind(): Bottom=0, False=1, True=2, Top=3,
        // recovered from the pseudo-interval rows.
        uint64_t Kind = RV.Lo > RV.Hi
                            ? 0
                            : static_cast<uint64_t>(1 + RV.Lo +
                                                    2 * (RV.Hi - RV.Lo));
        H = hashCombine(H, 0xa4093822299f31d0ull);
        H = hashCombine(H, Kind);
      }
    }
  }
  if (H == 0)
    H = 0x3f84d5b5b5470917ull; // 0 is the "not yet computed" sentinel
  S.P->CachedHash.store(H, std::memory_order_relaxed);
  KernelBlocks += Blocks;
  return H;
}

uint64_t StoreOps::hash(const AbstractStore &S) const {
  if (S.isBottom())
    return 0x452821e638d01377ull;
  if (!S.P || S.P->NumPresent == 0)
    return 0x13198a2e03707344ull; // the top store
  uint64_t Cached = S.P->CachedHash.load(std::memory_order_relaxed);
  if (Cached)
    return Cached;
  return wantCong(S.P.get(), nullptr) ? hashK<true>(S) : hashK<false>(S);
}

//===----------------------------------------------------------------------===//
// Lattice kernels
//===----------------------------------------------------------------------===//

template <bool HasCong>
AbstractStore StoreOps::joinK(const AbstractStore &A,
                              const AbstractStore &B) const {
  if (A.isBottom())
    return B;
  if (B.isBottom())
    return A;
  if (A.samePayload(B) || A.isTop())
    return A;
  if (B.isTop())
    return B;
  const StorePayload *PA = A.P.get(), *PB = B.P.get();
  const int64_t MinV = D.minValue(), MaxV = D.maxValue();
  const size_t WA = wordsOf(PA), WB = wordsOf(PB);
  uint64_t Blocks = 0;
  // Delta pass 1: result == A when every real constraint of A absorbs
  // B's value (B present and below). Explicit top entries of A never
  // constrain anything, so they cannot break equality. No allocation.
  bool EqA = true;
  for (size_t W = 0; EqA && W < WA; ++W) {
    uint64_t MA = PA->Bits[W];
    if (!MA)
      continue;
    ++Blocks;
    uint64_t MB = W < WB ? PB->Bits[W] : 0;
    uint64_t BoolW = PA->BoolBits[W];
    size_t Base = W * 64;
    while (MA) {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(MA));
      MA &= MA - 1;
      size_t S = Base + Bit;
      Row AV = loadRow<HasCong>(PA, S);
      if (rowTop<HasCong>(AV, laneOf(BoolW, Bit, MinV, MaxV)))
        continue;
      if (!((MB >> Bit) & 1) || !rowLeq<HasCong>(loadRow<HasCong>(PB, S), AV)) {
        EqA = false;
        break;
      }
    }
  }
  if (EqA) {
    KernelBlocks += Blocks;
    return A;
  }
  // Delta pass 2: symmetric check for result == B (the growing phase of
  // an ascending iteration usually lands here).
  bool EqB = true;
  for (size_t W = 0; EqB && W < WB; ++W) {
    uint64_t MB = PB->Bits[W];
    if (!MB)
      continue;
    ++Blocks;
    uint64_t MA = W < WA ? PA->Bits[W] : 0;
    uint64_t BoolW = PB->BoolBits[W];
    size_t Base = W * 64;
    while (MB) {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(MB));
      MB &= MB - 1;
      size_t S = Base + Bit;
      Row BV = loadRow<HasCong>(PB, S);
      if (rowTop<HasCong>(BV, laneOf(BoolW, Bit, MinV, MaxV)))
        continue;
      if (!((MA >> Bit) & 1) || !rowLeq<HasCong>(loadRow<HasCong>(PA, S), BV)) {
        EqB = false;
        break;
      }
    }
  }
  if (EqB) {
    KernelBlocks += Blocks;
    return B;
  }
  // General case: only slots constrained in *both* stores stay
  // constrained. The output rows are written straight from the input
  // rows — no per-entry growth checks, no AbsValue materialization.
  AbstractStore Out;
  Out.P = std::make_shared<StorePayload>();
  StorePayload &PO = *Out.P;
  const size_t Cap = std::min(PA->capacity(), PB->capacity());
  const size_t Words = (Cap + 63) / 64;
  PO.DK = HasCong ? outKind(PA, PB) : DomainKind::Interval;
  PO.Lo.resize(Cap);
  PO.Hi.resize(Cap);
  if constexpr (HasCong) {
    PO.CM.resize(Cap);
    PO.CR.resize(Cap);
  }
  PO.Bits.assign(Words, 0);
  PO.BoolBits.assign(PA->BoolBits.begin(), PA->BoolBits.begin() + Words);
  PO.Keys = PA->Keys;
  uint32_t Num = 0;
  for (size_t W = 0; W < Words; ++W) {
    uint64_t Common = PA->Bits[W] & PB->Bits[W];
    if (!Common)
      continue;
    ++Blocks;
    uint64_t BoolW = PO.BoolBits[W];
    size_t Base = W * 64;
    uint64_t OutBits = 0;
    uint64_t M = Common;
    while (M) {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(M));
      M &= M - 1;
      size_t S = Base + Bit;
      Row AV = loadRow<HasCong>(PA, S);
      Row BV = loadRow<HasCong>(PB, S);
      bool ABot = rowBot<HasCong>(AV), BBot = rowBot<HasCong>(BV);
      Row J;
      if (ABot)
        J = BV;
      else if (BBot)
        J = AV;
      else {
        J.Lo = std::min(AV.Lo, BV.Lo);
        J.Hi = std::max(AV.Hi, BV.Hi);
        if constexpr (HasCong) {
          Congruence JC =
              CDK.join(Congruence(AV.M, AV.R), Congruence(BV.M, BV.R));
          J.M = JC.M;
          J.R = JC.R;
        }
      }
      Lane L = laneOf(BoolW, Bit, MinV, MaxV);
      if (rowTop<HasCong>(J, L))
        continue; // skip entries that became top
      PO.Lo[S] = J.Lo;
      PO.Hi[S] = J.Hi;
      if constexpr (HasCong) {
        PO.CM[S] = J.M;
        PO.CR[S] = J.R;
      }
      OutBits |= uint64_t(1) << Bit;
    }
    PO.Bits[W] = OutBits;
    Num += static_cast<uint32_t>(__builtin_popcountll(OutBits));
  }
  PO.NumPresent = Num;
  KernelBlocks += Blocks;
  return Out;
}

AbstractStore StoreOps::join(const AbstractStore &A,
                             const AbstractStore &B) const {
  if (A.isBottom())
    return B;
  if (B.isBottom())
    return A;
  if (A.samePayload(B) || A.isTop())
    return A;
  if (B.isTop())
    return B;
  return wantCong(A.P.get(), B.P.get()) ? joinK<true>(A, B)
                                        : joinK<false>(A, B);
}

template <bool HasCong>
AbstractStore StoreOps::meetK(const AbstractStore &A,
                              const AbstractStore &B) const {
  if (A.isBottom() || B.isBottom())
    return AbstractStore::bottom();
  if (A.samePayload(B) || B.isTop())
    return A;
  if (A.isTop())
    return B;
  const StorePayload *PA = A.P.get(), *PB = B.P.get();
  const int64_t MinV = D.minValue(), MaxV = D.maxValue();
  const size_t WA = wordsOf(PA), WB = wordsOf(PB);
  uint64_t Blocks = 0;
  // Delta pass: result == A when every constraint of B is already
  // implied by A (the common case once the solver iterates inside a
  // previously computed envelope).
  bool EqA = true;
  for (size_t W = 0; EqA && W < WB; ++W) {
    uint64_t MB = PB->Bits[W];
    if (!MB)
      continue;
    ++Blocks;
    uint64_t MA = W < WA ? PA->Bits[W] : 0;
    uint64_t BoolW = PB->BoolBits[W];
    size_t Base = W * 64;
    while (MB) {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(MB));
      MB &= MB - 1;
      size_t S = Base + Bit;
      Row BV = loadRow<HasCong>(PB, S);
      if (rowTop<HasCong>(BV, laneOf(BoolW, Bit, MinV, MaxV)))
        continue;
      if (!((MA >> Bit) & 1) || !rowLeq<HasCong>(loadRow<HasCong>(PA, S), BV)) {
        EqA = false;
        break;
      }
    }
  }
  if (EqA) {
    KernelBlocks += Blocks;
    return A;
  }
  // General case: clone A's payload and fold every non-top constraint
  // of B into it (meet = max-lo/min-hi plus the congruence-class CRT on
  // the stride planes; an absent A slot adopts B's value).
  AbstractStore Out;
  Out.P = std::make_shared<StorePayload>(*PA);
  StorePayload &PO = *Out.P;
  if constexpr (HasCong) {
    // A may be an empty interval-imprinted payload meeting a
    // congruence-carrying B; give the clone the planes before writing.
    if (PO.DK == DomainKind::Interval)
      PO.setKind(outKind(PA, PB));
  }
  for (size_t W = 0; W < WB; ++W) {
    uint64_t MB = PB->Bits[W];
    if (!MB)
      continue;
    ++Blocks;
    uint64_t BoolW = PB->BoolBits[W];
    size_t Base = W * 64;
    while (MB) {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(MB));
      MB &= MB - 1;
      size_t S = Base + Bit;
      Row BV = loadRow<HasCong>(PB, S);
      bool IsBool = (BoolW >> Bit) & 1;
      Lane L{IsBool ? 0 : MinV, IsBool ? 1 : MaxV};
      if (rowTop<HasCong>(BV, L))
        continue;
      Row MR = BV;
      if (PO.present(static_cast<unsigned>(S))) {
        Row AV = loadRow<HasCong>(&PO, S);
        // meetValues: any bottom operand (or empty overlap) -> bottom.
        if (rowBot<HasCong>(AV) || rowBot<HasCong>(BV)) {
          MR = {1, 0, HasCong ? -1 : 1, 0};
        } else {
          MR.Lo = std::max(AV.Lo, BV.Lo);
          MR.Hi = std::min(AV.Hi, BV.Hi);
          if constexpr (HasCong) {
            Congruence MC =
                CDK.meet(Congruence(AV.M, AV.R), Congruence(BV.M, BV.R));
            MR.M = MC.M;
            MR.R = MC.R;
          }
        }
      }
      if (MR.Lo > MR.Hi || (HasCong && MR.M < 0)) {
        KernelBlocks += Blocks;
        return AbstractStore::bottom();
      }
      PO.ensureCapacity(static_cast<unsigned>(S));
      PO.noteKey(static_cast<unsigned>(S), PB->key(static_cast<unsigned>(S)));
      PO.putRaw(static_cast<unsigned>(S), MR.Lo, MR.Hi, IsBool, MR.M, MR.R);
    }
  }
  PO.CachedHash.store(0, std::memory_order_relaxed);
  KernelBlocks += Blocks;
  return Out;
}

AbstractStore StoreOps::meet(const AbstractStore &A,
                             const AbstractStore &B) const {
  if (A.isBottom() || B.isBottom())
    return AbstractStore::bottom();
  if (A.samePayload(B) || B.isTop())
    return A;
  if (A.isTop())
    return B;
  return wantCong(A.P.get(), B.P.get()) ? meetK<true>(A, B)
                                        : meetK<false>(A, B);
}

template <bool HasCong>
AbstractStore StoreOps::widenK(const AbstractStore &A,
                               const AbstractStore &B) const {
  if (A.isBottom())
    return B;
  if (B.isBottom())
    return A;
  if (A.samePayload(B) || A.isTop())
    return A;
  const StorePayload *PA = A.P.get(), *PB = B.P.get();
  const int64_t MinV = D.minValue(), MaxV = D.maxValue();
  const size_t WA = wordsOf(PA), WB = wordsOf(PB);
  const bool Thresholded = !WideningThresholds.empty();
  uint64_t Blocks = 0;
  // Delta pass: widening is stable (result == A) when every constraint
  // of A already bounds B's value — the standard, threshold, and
  // congruence (widen = join on a finite divisor chain) operators all
  // keep stable entries unchanged.
  bool EqA = true;
  for (size_t W = 0; EqA && W < WA; ++W) {
    uint64_t MA = PA->Bits[W];
    if (!MA)
      continue;
    ++Blocks;
    uint64_t MB = W < WB && PB ? PB->Bits[W] : 0;
    uint64_t BoolW = PA->BoolBits[W];
    size_t Base = W * 64;
    while (MA) {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(MA));
      MA &= MA - 1;
      size_t S = Base + Bit;
      Row AV = loadRow<HasCong>(PA, S);
      if (rowTop<HasCong>(AV, laneOf(BoolW, Bit, MinV, MaxV)))
        continue;
      if (!((MB >> Bit) & 1) || !rowLeq<HasCong>(loadRow<HasCong>(PB, S), AV)) {
        EqA = false;
        break;
      }
    }
  }
  if (EqA) {
    KernelBlocks += Blocks;
    return A;
  }
  // General case: slots of A with B present widen bound-wise (unstable
  // bounds jump to the lane's w-/w+; boolean join is exactly that
  // formula over {0, 1}; congruence widening is its join); slots absent
  // in B are unstable towards top and drop.
  AbstractStore Out;
  Out.P = std::make_shared<StorePayload>();
  StorePayload &PO = *Out.P;
  const size_t Cap = std::min(PA->capacity(), PB ? PB->capacity() : 0);
  const size_t Words = (Cap + 63) / 64;
  PO.DK = HasCong ? outKind(PA, PB) : DomainKind::Interval;
  PO.Lo.resize(Cap);
  PO.Hi.resize(Cap);
  if constexpr (HasCong) {
    PO.CM.resize(Cap);
    PO.CR.resize(Cap);
  }
  PO.Bits.assign(Words, 0);
  PO.BoolBits.assign(PA->BoolBits.begin(), PA->BoolBits.begin() + Words);
  PO.Keys = PA->Keys;
  uint32_t Num = 0;
  for (size_t W = 0; W < Words; ++W) {
    uint64_t Common = PA->Bits[W] & PB->Bits[W];
    if (!Common)
      continue;
    ++Blocks;
    uint64_t BoolW = PO.BoolBits[W];
    size_t Base = W * 64;
    uint64_t OutBits = 0;
    uint64_t M = Common;
    while (M) {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(M));
      M &= M - 1;
      size_t S = Base + Bit;
      Row AV = loadRow<HasCong>(PA, S);
      Row BV = loadRow<HasCong>(PB, S);
      bool IsBool = (BoolW >> Bit) & 1;
      Lane L{IsBool ? 0 : MinV, IsBool ? 1 : MaxV};
      Row WV;
      bool ABot = rowBot<HasCong>(AV), BBot = rowBot<HasCong>(BV);
      if (ABot)
        WV = BV;
      else if (BBot)
        WV = AV;
      else {
        if (Thresholded && !IsBool) {
          // Scalar fallback: the threshold operator scans the threshold
          // list per unstable bound — rare enough to stay off the fast
          // path.
          Interval R = D.intervals().widenWithThresholds(
              Interval(AV.Lo, AV.Hi), Interval(BV.Lo, BV.Hi),
              WideningThresholds);
          WV.Lo = R.Lo;
          WV.Hi = R.Hi;
        } else {
          WV.Lo = BV.Lo < AV.Lo ? L.KMin : AV.Lo;
          WV.Hi = BV.Hi > AV.Hi ? L.KMax : AV.Hi;
        }
        if constexpr (HasCong) {
          Congruence WC =
              CDK.widen(Congruence(AV.M, AV.R), Congruence(BV.M, BV.R));
          WV.M = WC.M;
          WV.R = WC.R;
        } else {
          WV.M = 1;
          WV.R = 0;
        }
      }
      if (rowTop<HasCong>(WV, L))
        continue;
      PO.Lo[S] = WV.Lo;
      PO.Hi[S] = WV.Hi;
      if constexpr (HasCong) {
        PO.CM[S] = WV.M;
        PO.CR[S] = WV.R;
      }
      OutBits |= uint64_t(1) << Bit;
    }
    PO.Bits[W] = OutBits;
    Num += static_cast<uint32_t>(__builtin_popcountll(OutBits));
  }
  PO.NumPresent = Num;
  KernelBlocks += Blocks;
  return Out;
}

AbstractStore StoreOps::widen(const AbstractStore &A,
                              const AbstractStore &B) const {
  if (A.isBottom())
    return B;
  if (B.isBottom())
    return A;
  if (A.samePayload(B) || A.isTop())
    return A;
  return wantCong(A.P.get(), B.P.get()) ? widenK<true>(A, B)
                                        : widenK<false>(A, B);
}

template <bool HasCong>
AbstractStore StoreOps::narrowK(const AbstractStore &A,
                                const AbstractStore &B) const {
  if (A.isBottom() || B.isBottom())
    return AbstractStore::bottom();
  if (A.samePayload(B))
    return A;
  const StorePayload *PA = A.P.get(), *PB = B.P.get();
  const int64_t MinV = D.minValue(), MaxV = D.maxValue();
  const size_t WA = wordsOf(PA), WB = wordsOf(PB);
  uint64_t Blocks = 0;

  // NarrowValues on raw rows. Integer lanes use the §6.1 operator (only
  // omega bounds are refined; the congruence plane refines only a top
  // class); boolean lanes use the lattice meet, which over the
  // pseudo-interval encoding is max-lo/min-hi. Either-plane bottoms
  // yield a bottom row.
  auto NarrowRow = [&](size_t S, bool IsBool) -> Row {
    Row AV = loadRow<HasCong>(PA, S);
    Row BV = loadRow<HasCong>(PB, S);
    if (IsBool) {
      // meet: Top is the identity; disagreeing constants empty out.
      bool ATop = AV.Lo == 0 && AV.Hi == 1, BTop = BV.Lo == 0 && BV.Hi == 1;
      return {ATop ? BV.Lo : (BTop ? AV.Lo : std::max(AV.Lo, BV.Lo)),
              ATop ? BV.Hi : (BTop ? AV.Hi : std::min(AV.Hi, BV.Hi)), 1, 0};
    }
    if (rowBot<HasCong>(AV) || rowBot<HasCong>(BV)) // either bottom -> bottom
      return {1, 0, HasCong ? -1 : 1, 0};
    Row N;
    N.Lo = AV.Lo == MinV ? BV.Lo : std::min(AV.Lo, BV.Lo);
    N.Hi = AV.Hi == MaxV ? BV.Hi : std::max(AV.Hi, BV.Hi);
    if constexpr (HasCong) {
      Congruence NC =
          CDK.narrow(Congruence(AV.M, AV.R), Congruence(BV.M, BV.R));
      N.M = NC.M;
      N.R = NC.R;
    } else {
      N.M = 1;
      N.R = 0;
    }
    return N;
  };

  // Delta pass: result == A when narrowing refines nothing — every slot
  // of A is already past its omega bounds w.r.t. B, and B adds no
  // constraint on slots where A is (implicitly or explicitly) top.
  bool EqA = true;
  for (size_t W = 0; EqA && W < WA; ++W) {
    uint64_t MA = PA->Bits[W];
    if (!MA)
      continue;
    ++Blocks;
    uint64_t MB = W < WB && PB ? PB->Bits[W] : 0;
    uint64_t BoolW = PA->BoolBits[W];
    size_t Base = W * 64;
    uint64_t M = MA & MB;
    while (M) {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(M));
      M &= M - 1;
      size_t S = Base + Bit;
      Row N = NarrowRow(S, (BoolW >> Bit) & 1);
      if (!rowsEq<HasCong>(N, loadRow<HasCong>(PA, S))) {
        EqA = false;
        break;
      }
    }
  }
  if (EqA && PB) {
    for (size_t W = 0; EqA && W < WB; ++W) {
      uint64_t MB = PB->Bits[W];
      if (!MB)
        continue;
      ++Blocks;
      uint64_t MA = W < WA && PA ? PA->Bits[W] : 0;
      uint64_t BoolW = PB->BoolBits[W];
      size_t Base = W * 64;
      uint64_t M = MB & ~MA;
      while (M) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(M));
        M &= M - 1;
        size_t S = Base + Bit;
        // A's entry is top: narrowing adopts B's bound, so equality
        // needs that bound to be vacuous.
        if (!rowTop<HasCong>(loadRow<HasCong>(PB, S),
                             laneOf(BoolW, Bit, MinV, MaxV))) {
          EqA = false;
          break;
        }
      }
    }
  }
  if (EqA) {
    KernelBlocks += Blocks;
    return A;
  }

  // General case. Slots of A are narrowed (B absent keeps A's row:
  // x /\~ T = x); slots only in B refine omega bounds of the implicit
  // top entry of A, which narrowing replaces entirely. Any bottom row
  // collapses the whole store.
  AbstractStore Out;
  Out.P = std::make_shared<StorePayload>();
  StorePayload &PO = *Out.P;
  const size_t CapA = PA ? PA->capacity() : 0;
  const size_t CapB = PB ? PB->capacity() : 0;
  const size_t Cap = std::max(CapA, CapB);
  const size_t Words = (Cap + 63) / 64;
  PO.DK = HasCong ? outKind(PA, PB) : DomainKind::Interval;
  PO.Lo.resize(Cap);
  PO.Hi.resize(Cap);
  if constexpr (HasCong) {
    PO.CM.resize(Cap);
    PO.CR.resize(Cap);
  }
  PO.Bits.assign(Words, 0);
  PO.BoolBits.assign(Words, 0);
  for (size_t W = 0; W < Words; ++W) {
    uint64_t LA = W < WA ? PA->BoolBits[W] : 0;
    uint64_t LB = W < WB ? PB->BoolBits[W] : 0;
    PO.BoolBits[W] = LA | LB;
  }
  PO.Keys = PA ? PA->Keys : nullptr;
  uint32_t Num = 0;
  for (size_t W = 0; W < Words; ++W) {
    uint64_t MA = W < WA ? PA->Bits[W] : 0;
    uint64_t MB = W < WB ? PB->Bits[W] : 0;
    if (!(MA | MB))
      continue;
    ++Blocks;
    uint64_t BoolW = PO.BoolBits[W];
    size_t Base = W * 64;
    uint64_t OutBits = 0;
    uint64_t M = MA | MB;
    while (M) {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(M));
      M &= M - 1;
      size_t S = Base + Bit;
      bool InA = (MA >> Bit) & 1, InB = (MB >> Bit) & 1;
      Row N;
      if (InA && InB) {
        N = NarrowRow(S, (BoolW >> Bit) & 1);
        if (N.Lo > N.Hi || (HasCong && N.M < 0)) {
          KernelBlocks += Blocks;
          return AbstractStore::bottom();
        }
      } else if (InA) {
        N = loadRow<HasCong>(PA, S); // B's entry is top: x /\~ T = x
      } else {
        N = loadRow<HasCong>(PB, S); // A's entry top: narrowing takes B
        if (rowBot<HasCong>(N)) {
          KernelBlocks += Blocks;
          return AbstractStore::bottom();
        }
        PO.noteKey(static_cast<unsigned>(S),
                   PB->key(static_cast<unsigned>(S)));
      }
      PO.Lo[S] = N.Lo;
      PO.Hi[S] = N.Hi;
      if constexpr (HasCong) {
        PO.CM[S] = N.M;
        PO.CR[S] = N.R;
      }
      OutBits |= uint64_t(1) << Bit;
    }
    PO.Bits[W] = OutBits;
    Num += static_cast<uint32_t>(__builtin_popcountll(OutBits));
  }
  PO.NumPresent = Num;
  KernelBlocks += Blocks;
  return Out;
}

AbstractStore StoreOps::narrow(const AbstractStore &A,
                               const AbstractStore &B) const {
  if (A.isBottom() || B.isBottom())
    return AbstractStore::bottom();
  if (A.samePayload(B))
    return A;
  return wantCong(A.P.get(), B.P.get()) ? narrowK<true>(A, B)
                                        : narrowK<false>(A, B);
}

AbstractStore StoreOps::restrictTo(const AbstractStore &S,
                                   const uint64_t *MaskWords, size_t NumWords,
                                   uint64_t *PrunedSlots) const {
  if (S.isBottom() || !S.P || S.P->NumPresent == 0)
    return S;
  const StorePayload *P = S.P.get();
  const size_t Words = P->Bits.size();
  // Identity probe first: converged sweeps must stay pointer-stable, so
  // a store already inside the live mask is returned payload and all.
  uint64_t Dropped = 0;
  for (size_t W = 0; W < Words; ++W) {
    uint64_t Live = W < NumWords ? MaskWords[W] : 0;
    Dropped += static_cast<uint64_t>(
        __builtin_popcountll(P->Bits[W] & ~Live));
  }
  if (!Dropped)
    return S;
  AbstractStore Out = S;
  Out.detach();
  StorePayload &PO = *Out.P;
  uint32_t Removed = 0;
  for (size_t W = 0; W < Words; ++W) {
    uint64_t Live = W < NumWords ? MaskWords[W] : 0;
    uint64_t Extra = PO.Bits[W] & ~Live;
    if (!Extra)
      continue;
    Removed += static_cast<uint32_t>(__builtin_popcountll(Extra));
    PO.Bits[W] &= Live;
  }
  PO.NumPresent -= Removed;
  PO.CachedHash.store(0, std::memory_order_relaxed);
  if (PrunedSlots)
    *PrunedSlots += Removed;
  return Out;
}

void StoreOps::assign(AbstractStore &S, const VarDecl *V,
                      const AbsValue &Value) const {
  if (S.isBottom())
    return;
  if (Value.isBottom()) {
    S.setBottom();
    return;
  }
  if (leqValues(topFor(V), Value))
    S.forget(V);
  else
    S.set(V, Value, D.kind());
}

void StoreOps::refine(AbstractStore &S, const VarDecl *V,
                      const AbsValue &Value) const {
  if (S.isBottom())
    return;
  AbsValue Met = meetValues(get(S, V), Value);
  if (Met.isBottom()) {
    S.setBottom();
    return;
  }
  assign(S, V, Met);
}

std::string StoreOps::str(const AbstractStore &S) const {
  if (S.isBottom())
    return "_|_";
  if (S.isTop())
    return "{ }";
  std::string Out = "{ ";
  bool First = true;
  S.forEachEntry([&](const VarDecl *V, const AbsValue &Value) {
    if (!First)
      Out += ", ";
    First = false;
    Out += V->name();
    Out += " -> ";
    Out += Value.isInt() ? D.str(Value.asNum()) : Value.asBool().str();
  });
  Out += " }";
  return Out;
}
