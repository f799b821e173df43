//===- semantics/AbstractStore.cpp - Abstract memory states ---------------===//
//
// The lattice operations here are whole-store kernels over the packed
// payload block: each walks the 64-slot presence bitmap words
// (skipping absent words wholesale) with one row cursor per input that
// advances in slot order, and runs a branch-light body over the raw
// rows. Boolean lanes are pseudo-intervals over {0, 1} (see
// AbstractStore.h), so the same min/max/compare formulas serve both
// kinds once a lane's domain bounds are selected per slot — the single
// exception is narrowing, where the boolean operator is the lattice
// *meet* (max-lo/min-hi), not the omega-bound formula. A kernel that
// builds a result first sizes its output block from bitmap popcounts,
// then fills it in slot order: one allocation per result.
//
// Domain dispatch: every kernel is a template over HasCong. The false
// instantiation reads two-word (Lo, Hi) rows (the bench_store floor in
// check.sh holds it to its throughput); the true instantiation reads
// four-word rows, carrying the (CM, CR) congruence class through the
// same delta-aware structure, with per-row congruence lattice steps
// mirroring ValueDomain's scalar operations — including the
// either-component bottom short-circuits (a row is bottom as soon as
// its interval OR congruence part is).
//
// Every kernel must reproduce the scalar per-entry semantics bit for
// bit (store_soa_test and store_product_test run fuzzed differentials
// against a scalar reference), including non-canonical bottom rows
// (Lo > Hi) that set() may have stored verbatim.
//
//===----------------------------------------------------------------------===//

#include "semantics/AbstractStore.h"

#include "support/Trace.h"

#include <cstring>
#include <new>

using namespace syntox;
using detail::popcount64;
using detail::StorePayload;

//===----------------------------------------------------------------------===//
// Blocks
//===----------------------------------------------------------------------===//

StorePayload *StorePayload::create(DomainKind K, uint32_t WordCap,
                                   uint32_t RowCap) {
  void *Mem = ::operator new(bytesFor(K, WordCap, RowCap));
  StorePayload *P = new (Mem) StorePayload();
  P->DK = K;
  P->WordCap = WordCap;
  P->RowCap = RowCap;
  return P;
}

void StorePayload::destroy(StorePayload *P) {
  P->~StorePayload();
  ::operator delete(P);
}

StorePayload *StorePayload::copyOf(const StorePayload &P, uint32_t Lo,
                                   uint32_t Hi, uint32_t WordCap,
                                   uint32_t RowCap) {
  assert(Hi - Lo <= WordCap && P.NumPresent <= RowCap && "copy too small");
  assert((P.NumWords == 0 || (Lo <= P.WordBase &&
                              P.WordBase + P.NumWords <= Hi)) &&
         "copy window must cover the source window");
  StorePayload *N = create(P.DK, WordCap, RowCap);
  N->Keys = P.Keys;
  N->NumPresent = P.NumPresent;
  N->WordBase = Lo;
  N->NumWords = Hi - Lo;
  std::memset(N->bits(), 0, N->NumWords * sizeof(uint64_t));
  std::memset(N->boolBits(), 0, N->NumWords * sizeof(uint64_t));
  if (P.NumWords) {
    size_t Off = P.WordBase - Lo;
    std::memcpy(N->bits() + Off, P.bits(), P.NumWords * sizeof(uint64_t));
    std::memcpy(N->boolBits() + Off, P.boolBits(),
                P.NumWords * sizeof(uint64_t));
  }
  std::memcpy(N->rows(), P.rows(),
              size_t(P.NumPresent) * P.rowWidth() * sizeof(int64_t));
  return N;
}

int64_t *StorePayload::slotRow(StorePayload *&P, unsigned Slot) {
  const uint32_t W = Slot >> 6;
  const uint64_t Mask = uint64_t(1) << (Slot & 63);
  const size_t Width = P->rowWidth();
  size_t I = W - size_t(P->WordBase);
  if (I < P->NumWords && (P->bits()[I] & Mask))
    return P->rows() + P->rank(I, Mask) * Width;
  // Absent: the window must reach word W and one more row must fit.
  auto [Lo, Hi] = P->windowWith(W);
  uint32_t NeedRows = P->NumPresent + 1;
  if (Hi - Lo > P->WordCap || NeedRows > P->RowCap) {
    uint32_t WordCap = Hi - Lo <= P->WordCap
                           ? P->WordCap
                           : std::max(Hi - Lo, 2 * P->WordCap);
    uint32_t RowCap =
        NeedRows <= P->RowCap ? P->RowCap : std::max(NeedRows, 2 * P->RowCap);
    StorePayload *N = copyOf(*P, Lo, Hi, WordCap, RowCap);
    destroy(P);
    P = N;
  } else if (Lo != P->WordBase || Hi - Lo != P->NumWords) {
    // Re-window in place: shift the held words up past the new low
    // words and zero whatever the window gained.
    uint32_t Shift = P->NumWords ? P->WordBase - Lo : 0;
    for (uint64_t *B : {P->bits(), P->boolBits()}) {
      std::memmove(B + Shift, B, P->NumWords * sizeof(uint64_t));
      std::memset(B, 0, Shift * sizeof(uint64_t));
      std::memset(B + Shift + P->NumWords, 0,
                  (Hi - Lo - Shift - P->NumWords) * sizeof(uint64_t));
    }
    P->WordBase = Lo;
    P->NumWords = Hi - Lo;
  }
  I = W - P->WordBase;
  size_t Rank = P->rank(I, Mask);
  int64_t *Row = P->rows() + Rank * Width;
  std::memmove(Row + Width, Row,
               (P->NumPresent - Rank) * Width * sizeof(int64_t));
  P->bits()[I] |= Mask;
  ++P->NumPresent;
  return Row;
}

void StorePayload::put(StorePayload *&P, unsigned Slot, const VarDecl *V,
                       const AbsValue &Value) {
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
  int64_t *Row = slotRow(P, Slot);
  P->noteKey(Slot, V);
  uint64_t Mask = uint64_t(1) << (Slot & 63);
  uint64_t &Lanes = P->boolBits()[(Slot >> 6) - P->WordBase];
  Lanes = IsBool ? (Lanes | Mask) : (Lanes & ~Mask);
  Row[0] = L;
  Row[1] = H;
  if (P->DK != DomainKind::Interval) {
    Row[2] = M;
    Row[3] = R;
  }
}

void StorePayload::erase(unsigned Slot) {
  assert(present(Slot) && "erasing an absent slot");
  const size_t Width = rowWidth();
  size_t I = (Slot >> 6) - WordBase;
  uint64_t Mask = uint64_t(1) << (Slot & 63);
  size_t Rank = rank(I, Mask);
  int64_t *Row = rows() + Rank * Width;
  std::memmove(Row, Row + Width,
               (NumPresent - Rank - 1) * Width * sizeof(int64_t));
  bits()[I] &= ~Mask;
  boolBits()[I] &= ~Mask;
  --NumPresent;
  trimWindow();
}

void StorePayload::trimWindow() {
  uint32_t Lo = 0, Hi = NumWords;
  while (Hi > Lo && !bits()[Hi - 1])
    --Hi;
  while (Lo < Hi && !bits()[Lo])
    ++Lo;
  if (Lo) {
    std::memmove(bits(), bits() + Lo, (Hi - Lo) * sizeof(uint64_t));
    std::memmove(boolBits(), boolBits() + Lo, (Hi - Lo) * sizeof(uint64_t));
  }
  WordBase = Hi > Lo ? WordBase + Lo : 0;
  NumWords = Hi - Lo;
}

namespace {

/// Reports one clone of a shared block to the calling thread's
/// store-detach sink (installed by a detail-traced session).
/// \p NumPresent sizes the clone.
void noteDetach(uint32_t NumPresent) {
  if (TraceRecorder *R = trace::StoreDetachSink;
      R && R->wants(TraceEventKind::StoreDetach))
    R->record(TraceEventKind::StoreDetach, NumPresent);
}

} // namespace

void AbstractStore::detach() {
  StorePayload *Old = P;
  P = StorePayload::copyOf(*Old, Old->WordBase, Old->WordBase + Old->NumWords,
                           Old->NumWords, Old->NumPresent);
  noteDetach(P->NumPresent);
  Old->release();
}

void AbstractStore::detachFor(unsigned Slot) {
  StorePayload *Old = P;
  if (Old->present(Slot))
    return detach();
  auto [Lo, Hi] = Old->windowWith(Slot >> 6);
  P = StorePayload::copyOf(*Old, Lo, Hi, Hi - Lo, Old->NumPresent + 1);
  noteDetach(P->NumPresent);
  Old->release();
}

void AbstractStore::set(const VarDecl *V, AbsValue Value, DomainKind DK) {
  if (isBottom())
    return;
  unsigned Slot = V->storeSlot();
  if (!P)
    P = StorePayload::create(DK, 1, 1);
  else if (P->shared())
    detachFor(Slot);
  if (P->NumPresent == 0 && P->DK != DK)
    P->setKind(DK);
  assert(P->DK == DK && "mixed-domain writes to one store");
  StorePayload::put(P, Slot, V, Value);
}

void AbstractStore::forget(const VarDecl *V) {
  unsigned Slot = V->storeSlot();
  if (!hasBlock() || !P->present(Slot))
    return;
  if (P->shared())
    detach();
  P->erase(Slot);
}

void AbstractStore::adoptKeyTable(
    std::shared_ptr<const detail::StoreKeyTable> T) {
  if (isBottom() || !T)
    return;
  if (!P)
    P = StorePayload::create(DomainKind::Interval, 1, 2);
  else if (P->shared())
    detach();
  if (!P->Keys)
    P->Keys = std::move(T);
}

//===----------------------------------------------------------------------===//
// Scalar helpers
//===----------------------------------------------------------------------===//

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
  if (S.P)
    if (const int64_t *Row = S.P->find(Slot))
      return S.P->decode(Row, S.P->isBoolLane(Slot));
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

/// Per-slot lane bounds: (0, 1) for boolean lanes, (w-, w+) otherwise.
struct Lane {
  int64_t KMin, KMax;
};
inline Lane laneOf(uint64_t BoolWord, unsigned Bit, int64_t MinV,
                   int64_t MaxV) {
  bool IsBool = (BoolWord >> Bit) & 1;
  return {IsBool ? 0 : MinV, IsBool ? 1 : MaxV};
}

/// One slot's raw row. The congruence words are loaded (and meaningful)
/// only in HasCong kernels; the false instantiation carries the pinned
/// congruence-top so the field reads fold away.
struct Row {
  int64_t Lo, Hi;
  int64_t M, R;
};

template <bool HasCong> inline Row loadRow(const int64_t *P) {
  if constexpr (HasCong)
    return {P[0], P[1], P[2], P[3]};
  else
    return {P[0], P[1], 1, 0};
}

/// One input payload's bitmap window (a null payload's is empty).
class Window {
public:
  explicit Window(const StorePayload *P)
      : Bits(P ? P->bits() : nullptr), Lanes(P ? P->boolBits() : nullptr),
        Base(P ? P->WordBase : 0), Num(P ? P->NumWords : 0) {}

  uint64_t word(size_t W) const {
    size_t I = W - Base; // wraps below the window
    return I < Num ? Bits[I] : 0;
  }
  uint64_t lanes(size_t W) const {
    size_t I = W - Base;
    return I < Num ? Lanes[I] : 0;
  }
  /// The window's first word (past every word when the window is
  /// empty) and its end.
  size_t begin() const { return Num ? Base : SIZE_MAX; }
  size_t end() const { return Num ? Base + Num : 0; }

private:
  const uint64_t *Bits, *Lanes;
  size_t Base, Num;
};

/// Walks one input payload alongside a kernel's word loop, handing out
/// its rows in slot order: take() once per present bit, ascending, or
/// takeAll() for every slot of a word at once.
template <bool HasCong> class Cursor : public Window {
public:
  static constexpr size_t Width = HasCong ? 4 : 2;

  explicit Cursor(const StorePayload *P)
      : Window(P), Next(P ? P->rows() : nullptr) {}

  const int64_t *take() {
    const int64_t *R = Next;
    Next += Width;
    return R;
  }
  /// The first of \p Word's rows; the cursor moves past all of them.
  const int64_t *takeAll(uint64_t Word) {
    const int64_t *R = Next;
    Next += popcount64(Word) * Width;
    return R;
  }

private:
  const int64_t *Next;
};

/// The window and row count of a result that holds at most the slots
/// present in both inputs (\p Both: join, widen) or in either (meet,
/// narrow).
struct Shape {
  size_t Lo = 0, Hi = 0;
  uint32_t Rows = 0;
};
template <bool Both>
Shape shapeOf(const StorePayload *PA, const StorePayload *PB) {
  Window A(PA), B(PB);
  Shape S;
  size_t First = Both ? std::max(A.begin(), B.begin())
                      : std::min(A.begin(), B.begin());
  size_t Last = Both ? std::min(A.end(), B.end()) : std::max(A.end(), B.end());
  for (size_t W = First; W < Last; ++W)
    if (uint64_t M = Both ? A.word(W) & B.word(W) : A.word(W) | B.word(W)) {
      if (!S.Rows)
        S.Lo = W;
      S.Hi = W + 1;
      S.Rows += popcount64(M);
    }
  return S;
}

/// A kernel's result block, sized up front from bitmap popcounts and
/// filled in slot order. Owns the block until finish(), so an early
/// bottom return frees it.
template <bool HasCong> class OutBlock {
public:
  OutBlock(DomainKind K, const Shape &Fit,
           std::shared_ptr<const detail::StoreKeyTable> Keys)
      : P(StorePayload::create(K, static_cast<uint32_t>(Fit.Hi - Fit.Lo),
                               Fit.Rows)) {
    assert(StorePayload::widthOf(K) == Cursor<HasCong>::Width);
    P->WordBase = static_cast<uint32_t>(Fit.Lo);
    P->NumWords = static_cast<uint32_t>(Fit.Hi - Fit.Lo);
    std::memset(P->bits(), 0, 2 * P->NumWords * sizeof(uint64_t));
    P->Keys = std::move(Keys);
    Next = P->rows();
  }
  ~OutBlock() {
    if (P)
      StorePayload::destroy(P);
  }
  OutBlock(const OutBlock &) = delete;
  OutBlock &operator=(const OutBlock &) = delete;

  void put(const Row &V) {
    Next[0] = V.Lo;
    Next[1] = V.Hi;
    if constexpr (HasCong) {
      Next[2] = V.M;
      Next[3] = V.R;
    }
    Next += Cursor<HasCong>::Width;
  }
  /// Copies \p N rows verbatim.
  void copy(const int64_t *Rows, size_t N) {
    size_t Words = N * Cursor<HasCong>::Width;
    std::memcpy(Next, Rows, Words * sizeof(int64_t));
    Next += Words;
  }
  void setWord(size_t W, uint64_t Present, uint64_t BoolLanes) {
    P->bits()[W - P->WordBase] = Present;
    P->boolBits()[W - P->WordBase] = BoolLanes;
  }
  void noteKey(unsigned Slot, const VarDecl *V) { P->noteKey(Slot, V); }

  /// The filled block, handed over with its one reference.
  StorePayload *finish() {
    P->NumPresent = static_cast<uint32_t>((Next - P->rows()) /
                                          Cursor<HasCong>::Width);
    assert(P->NumPresent <= P->RowCap && "output block overrun");
    P->trimWindow();
    StorePayload *Done = P;
    P = nullptr;
    return Done;
  }

private:
  StorePayload *P;
  int64_t *Next;
};

/// Bottom test: either part empty (mirrors NumVal::isBottom).
template <bool HasCong> inline bool rowBot(const Row &A) {
  if (A.Lo > A.Hi)
    return true;
  if constexpr (HasCong)
    return A.M < 0;
  return false;
}

/// Top test: a non-empty row spanning the whole lane (and, with
/// congruence words, the top class 1Z+0 — boolean lanes pin it there).
template <bool HasCong> inline bool rowTop(const Row &A, const Lane &L) {
  if (!(A.Lo <= A.Hi && A.Lo <= L.KMin && A.Hi >= L.KMax))
    return false;
  if constexpr (HasCong)
    return A.M == 1;
  return true;
}

/// Scalar operator== on raw rows: all bottom representations compare
/// equal, otherwise the rows must match exactly (non-bottom congruence
/// classes are canonical by construction).
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

/// True when this store operation must run the congruence-row
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

/// Whether every non-top row of \p Over lies above the row of the same
/// slot in \p Under (an absent Under slot is top, which lies below
/// only a top row). This is the delta pass that lets join and widen
/// (Over = A) and meet (Over = B, Under = A) return an input without
/// allocating, and it is leq(Under, Over) itself. Adds the non-empty
/// words of \p Over it walks to \p Blocks.
template <bool HasCong>
bool absorbs(const StorePayload *Over, const StorePayload *Under,
             int64_t MinV, int64_t MaxV, uint64_t &Blocks) {
  Cursor<HasCong> CO(Over), CU(Under);
  const size_t End = CO.end();
  for (size_t W = std::min(CO.begin(), CU.begin()); W < End; ++W) {
    uint64_t MO = CO.word(W), MU = CU.word(W);
    if (!MO) {
      CU.takeAll(MU);
      continue;
    }
    ++Blocks;
    uint64_t BoolW = CO.lanes(W);
    auto Absorbs = [&](unsigned Bit, const int64_t *RO, const int64_t *RU) {
      Row OV = loadRow<HasCong>(RO);
      return rowTop<HasCong>(OV, laneOf(BoolW, Bit, MinV, MaxV)) ||
             (RU && rowLeq<HasCong>(loadRow<HasCong>(RU), OV));
    };
    if (MO == MU) { // same slots on both sides: rows pair up in order
      for (uint64_t U = MO; U; U &= U - 1) {
        const int64_t *RO = CO.take();
        if (!Absorbs(static_cast<unsigned>(__builtin_ctzll(U)), RO,
                     CU.take()))
          return false;
      }
      continue;
    }
    for (uint64_t U = MO | MU; U; U &= U - 1) {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(U));
      uint64_t M = uint64_t(1) << Bit;
      const int64_t *RU = (MU & M) ? CU.take() : nullptr;
      if ((MO & M) && !Absorbs(Bit, CO.take(), RU))
        return false;
    }
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Comparison kernels
//===----------------------------------------------------------------------===//

template <bool HasCong>
[[gnu::noinline]] bool
StoreOps::leqK(const AbstractStore &A, const AbstractStore &B) const {
  // A <= B iff every constraint of B is implied by A. Slots absent in A
  // are top, which is only below B's entry if that entry is top too.
  uint64_t Blocks = 0;
  bool Leq = absorbs<HasCong>(B.P, A.P, D.minValue(), D.maxValue(), Blocks);
  KernelBlocks += Blocks;
  return Leq;
}

// The public wrappers take the O(1) cases — the same payload (or both
// top, or both bottom), a bottom or a top operand — before the wantCong
// dispatch: the solver's convergence checks resolve on these paths
// almost every call, and the dispatch's payload-header loads are
// measurable there (bench_store equal_ptr/join_same columns). The
// kernels handle only two distinct inputs, neither of them bottom, and
// stay out of line (noinline) so the fast paths do not pay a kernel's
// register saves.
bool StoreOps::leqDistinct(const AbstractStore &A,
                           const AbstractStore &B) const {
  if (A.isBottom())
    return true;
  if (B.isBottom())
    return false;
  if (!B.P)
    return true; // B is top
  return wantCong(A.P, B.P) ? leqK<true>(A, B) : leqK<false>(A, B);
}

template <bool HasCong>
[[gnu::noinline]] bool
StoreOps::equalK(const AbstractStore &A, const AbstractStore &B) const {
  const StorePayload *PA = A.P, *PB = B.P;
  constexpr size_t Width = Cursor<HasCong>::Width;
  uint64_t Blocks = 0;
  // Identical presence bitmaps: equal raw rows mean equal stores, found
  // with one compare of the row arrays. Differing raw rows *almost*
  // always mean a real difference — the only exception is two bottom
  // rows with different representations — so the walk below runs only
  // on genuine mismatches.
  if (PA && PB && PA->NumPresent == PB->NumPresent &&
      PA->WordBase == PB->WordBase && PA->NumWords == PB->NumWords &&
      !std::memcmp(PA->bits(), PB->bits(), PA->NumWords * sizeof(uint64_t)) &&
      !std::memcmp(PA->rows(), PB->rows(),
                   PA->NumPresent * Width * sizeof(int64_t))) {
    for (size_t I = 0; I < PA->NumWords; ++I)
      Blocks += PA->bits()[I] != 0;
    KernelBlocks += Blocks;
    return true;
  }
  // Synchronized walk over the union of present slots (missing slot =
  // top; explicit top entries match missing ones).
  const int64_t MinV = D.minValue(), MaxV = D.maxValue();
  Cursor<HasCong> CA(PA), CB(PB);
  const size_t End = std::max(CA.end(), CB.end());
  bool Eq = true;
  for (size_t W = std::min(CA.begin(), CB.begin()); Eq && W < End; ++W) {
    uint64_t MA = CA.word(W), MB = CB.word(W);
    uint64_t Union = MA | MB;
    if (!Union)
      continue;
    ++Blocks;
    if ((MA & MB) == ~0ull) {
      // Dense word (the dominant shape once a sweep has populated the
      // store): both inputs hold 64 consecutive rows here, compared by a
      // xor/or reduction the compiler vectorizes.
      const int64_t *RA = CA.takeAll(MA), *RB = CB.takeAll(MB);
      uint64_t Diff = 0;
      for (size_t I = 0; I < 64 * Width; ++I)
        Diff |= uint64_t(RA[I] ^ RB[I]);
      if (!Diff)
        continue;
      for (unsigned Bit = 0; Bit < 64; ++Bit)
        if (!rowsEq<HasCong>(loadRow<HasCong>(RA + Bit * Width),
                             loadRow<HasCong>(RB + Bit * Width))) {
          Eq = false;
          break;
        }
      continue;
    }
    for (uint64_t U = Union; U; U &= U - 1) {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(U));
      uint64_t M = uint64_t(1) << Bit;
      const int64_t *RA = (MA & M) ? CA.take() : nullptr;
      const int64_t *RB = (MB & M) ? CB.take() : nullptr;
      if (RA && RB) {
        if (!rowsEq<HasCong>(loadRow<HasCong>(RA), loadRow<HasCong>(RB))) {
          Eq = false;
          break;
        }
      } else {
        // One-sided entry: equal only if it is an explicit top.
        Lane L = laneOf(RA ? CA.lanes(W) : CB.lanes(W), Bit, MinV, MaxV);
        if (!rowTop<HasCong>(loadRow<HasCong>(RA ? RA : RB), L)) {
          Eq = false;
          break;
        }
      }
    }
  }
  KernelBlocks += Blocks;
  return Eq;
}

bool StoreOps::equalDistinct(const AbstractStore &A,
                             const AbstractStore &B) const {
  if (A.isBottom() || B.isBottom())
    return false;
  return wantCong(A.P, B.P) ? equalK<true>(A, B) : equalK<false>(A, B);
}

//===----------------------------------------------------------------------===//
// Lattice kernels
//===----------------------------------------------------------------------===//

template <bool HasCong>
[[gnu::noinline]] AbstractStore
StoreOps::joinK(const AbstractStore &A, const AbstractStore &B) const {
  const StorePayload *PA = A.P, *PB = B.P;
  const int64_t MinV = D.minValue(), MaxV = D.maxValue();
  uint64_t Blocks = 0;
  // Delta pass 1: result == A when every real constraint of A absorbs
  // B's value (B present and below). Explicit top entries of A never
  // constrain anything, so they cannot break equality. No allocation.
  if (absorbs<HasCong>(PA, PB, MinV, MaxV, Blocks)) {
    KernelBlocks += Blocks;
    return A;
  }
  // Delta pass 2: symmetric check for result == B (the growing phase of
  // an ascending iteration usually lands here).
  if (absorbs<HasCong>(PB, PA, MinV, MaxV, Blocks)) {
    KernelBlocks += Blocks;
    return B;
  }
  // General case: only slots constrained in *both* stores stay
  // constrained. The output rows are written straight from the input
  // rows — no per-entry growth checks, no AbsValue materialization.
  Shape Fit = shapeOf<true>(PA, PB);
  OutBlock<HasCong> Out(HasCong ? outKind(PA, PB) : DomainKind::Interval,
                        Fit, PA->Keys);
  Cursor<HasCong> CA(PA), CB(PB);
  for (size_t W = std::min(CA.begin(), CB.begin()); W < Fit.Hi; ++W) {
    uint64_t MA = CA.word(W), MB = CB.word(W);
    uint64_t Common = MA & MB;
    if (!Common) {
      CA.takeAll(MA);
      CB.takeAll(MB);
      continue;
    }
    ++Blocks;
    uint64_t BoolW = CA.lanes(W);
    uint64_t OutBits = 0;
    auto JoinSlot = [&](unsigned Bit, const int64_t *RA, const int64_t *RB) {
      Row AV = loadRow<HasCong>(RA), BV = loadRow<HasCong>(RB);
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
      if (rowTop<HasCong>(J, laneOf(BoolW, Bit, MinV, MaxV)))
        return; // skip entries that became top
      Out.put(J);
      OutBits |= uint64_t(1) << Bit;
    };
    if (MA == MB) { // same slots on both sides: rows pair up in order
      for (uint64_t U = MA; U; U &= U - 1) {
        const int64_t *RA = CA.take();
        JoinSlot(static_cast<unsigned>(__builtin_ctzll(U)), RA, CB.take());
      }
    } else {
      for (uint64_t U = MA | MB; U; U &= U - 1) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(U));
        uint64_t M = uint64_t(1) << Bit;
        const int64_t *RA = (MA & M) ? CA.take() : nullptr;
        const int64_t *RB = (MB & M) ? CB.take() : nullptr;
        if (Common & M)
          JoinSlot(Bit, RA, RB);
      }
    }
    Out.setWord(W, OutBits, BoolW & OutBits);
  }
  KernelBlocks += Blocks;
  return AbstractStore(Out.finish());
}

AbstractStore StoreOps::join(const AbstractStore &A,
                             const AbstractStore &B) const {
  if (A.samePayload(B) || B.isBottom() || A.isTop())
    return A;
  if (A.isBottom() || B.isTop())
    return B;
  return wantCong(A.P, B.P) ? joinK<true>(A, B) : joinK<false>(A, B);
}

template <bool HasCong>
[[gnu::noinline]] AbstractStore
StoreOps::meetK(const AbstractStore &A, const AbstractStore &B) const {
  const StorePayload *PA = A.P, *PB = B.P;
  const int64_t MinV = D.minValue(), MaxV = D.maxValue();
  uint64_t Blocks = 0;
  // Delta pass: result == A when every constraint of B is already
  // implied by A (the common case once the solver iterates inside a
  // previously computed envelope).
  if (absorbs<HasCong>(PB, PA, MinV, MaxV, Blocks)) {
    KernelBlocks += Blocks;
    return A;
  }
  // General case: A's rows with every non-top constraint of B folded in
  // (meet = max-lo/min-hi plus the congruence-class CRT; an absent A
  // slot adopts B's value). Any bottom row collapses the whole store.
  Shape Fit = shapeOf<false>(PA, PB);
  OutBlock<HasCong> Out(HasCong ? outKind(PA, PB) : DomainKind::Interval,
                        Fit, PA->Keys);
  Cursor<HasCong> CA(PA), CB(PB);
  for (size_t W = Fit.Lo; W < Fit.Hi; ++W) {
    uint64_t MA = CA.word(W), MB = CB.word(W);
    uint64_t LanesA = CA.lanes(W) & MA;
    if (!MB) {
      // B constrains nothing here: A's rows carry over verbatim.
      if (MA) {
        Out.copy(CA.takeAll(MA), popcount64(MA));
        Out.setWord(W, MA, LanesA);
      }
      continue;
    }
    ++Blocks;
    uint64_t BoolW = CB.lanes(W);
    uint64_t OutBits = 0, OutLanes = 0;
    for (uint64_t U = MA | MB; U; U &= U - 1) {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(U));
      uint64_t M = uint64_t(1) << Bit;
      const int64_t *RA = (MA & M) ? CA.take() : nullptr;
      const int64_t *RB = (MB & M) ? CB.take() : nullptr;
      if (RB) {
        Row BV = loadRow<HasCong>(RB);
        bool IsBool = BoolW & M;
        Lane L{IsBool ? 0 : MinV, IsBool ? 1 : MaxV};
        if (!rowTop<HasCong>(BV, L)) {
          Row MR = BV;
          if (RA) {
            Row AV = loadRow<HasCong>(RA);
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
          unsigned S = static_cast<unsigned>(W * 64 + Bit);
          Out.noteKey(S, PB->key(S));
          Out.put(MR);
          OutBits |= M;
          OutLanes |= IsBool ? M : 0;
          continue;
        }
      }
      if (RA) { // B's entry is top (or absent): A's row stays
        Out.put(loadRow<HasCong>(RA));
        OutBits |= M;
        OutLanes |= LanesA & M;
      }
    }
    Out.setWord(W, OutBits, OutLanes);
  }
  KernelBlocks += Blocks;
  return AbstractStore(Out.finish());
}

AbstractStore StoreOps::meet(const AbstractStore &A,
                             const AbstractStore &B) const {
  if (A.samePayload(B))
    return A;
  if (A.isBottom() || B.isBottom())
    return AbstractStore::bottom();
  if (B.isTop())
    return A;
  if (A.isTop())
    return B;
  return wantCong(A.P, B.P) ? meetK<true>(A, B) : meetK<false>(A, B);
}

template <bool HasCong>
[[gnu::noinline]] AbstractStore
StoreOps::widenK(const AbstractStore &A, const AbstractStore &B) const {
  const StorePayload *PA = A.P, *PB = B.P;
  const int64_t MinV = D.minValue(), MaxV = D.maxValue();
  const bool Thresholded = !WideningThresholds.empty();
  uint64_t Blocks = 0;
  // Delta pass: widening is stable (result == A) when every constraint
  // of A already bounds B's value — the standard, threshold, and
  // congruence (widen = join on a finite divisor chain) operators all
  // keep stable entries unchanged.
  if (absorbs<HasCong>(PA, PB, MinV, MaxV, Blocks)) {
    KernelBlocks += Blocks;
    return A;
  }
  // General case: slots of A with B present widen bound-wise (unstable
  // bounds jump to the lane's w-/w+; boolean join is exactly that
  // formula over {0, 1}; congruence widening is its join); slots absent
  // in B are unstable towards top and drop.
  Shape Fit = shapeOf<true>(PA, PB);
  OutBlock<HasCong> Out(HasCong ? outKind(PA, PB) : DomainKind::Interval,
                        Fit, PA->Keys);
  Cursor<HasCong> CA(PA), CB(PB);
  for (size_t W = std::min(CA.begin(), CB.begin()); W < Fit.Hi; ++W) {
    uint64_t MA = CA.word(W), MB = CB.word(W);
    uint64_t Common = MA & MB;
    if (!Common) {
      CA.takeAll(MA);
      CB.takeAll(MB);
      continue;
    }
    ++Blocks;
    uint64_t BoolW = CA.lanes(W);
    uint64_t OutBits = 0;
    auto WidenSlot = [&](unsigned Bit, const int64_t *RA, const int64_t *RB) {
      uint64_t M = uint64_t(1) << Bit;
      Row AV = loadRow<HasCong>(RA), BV = loadRow<HasCong>(RB);
      bool IsBool = BoolW & M;
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
        return;
      Out.put(WV);
      OutBits |= M;
    };
    if (MA == MB) { // same slots on both sides: rows pair up in order
      for (uint64_t U = MA; U; U &= U - 1) {
        const int64_t *RA = CA.take();
        WidenSlot(static_cast<unsigned>(__builtin_ctzll(U)), RA, CB.take());
      }
    } else {
      for (uint64_t U = MA | MB; U; U &= U - 1) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(U));
        uint64_t M = uint64_t(1) << Bit;
        const int64_t *RA = (MA & M) ? CA.take() : nullptr;
        const int64_t *RB = (MB & M) ? CB.take() : nullptr;
        if (Common & M)
          WidenSlot(Bit, RA, RB);
      }
    }
    Out.setWord(W, OutBits, BoolW & OutBits);
  }
  KernelBlocks += Blocks;
  return AbstractStore(Out.finish());
}

AbstractStore StoreOps::widen(const AbstractStore &A,
                              const AbstractStore &B) const {
  if (A.samePayload(B) || B.isBottom() || A.isTop())
    return A;
  if (A.isBottom())
    return B;
  return wantCong(A.P, B.P) ? widenK<true>(A, B) : widenK<false>(A, B);
}

template <bool HasCong>
[[gnu::noinline]] AbstractStore
StoreOps::narrowK(const AbstractStore &A, const AbstractStore &B) const {
  const StorePayload *PA = A.P, *PB = B.P;
  const int64_t MinV = D.minValue(), MaxV = D.maxValue();
  uint64_t Blocks = 0;

  // NarrowValues on raw rows. Integer lanes use the §6.1 operator (only
  // omega bounds are refined; the congruence class refines only a top
  // class); boolean lanes use the lattice meet, which over the
  // pseudo-interval encoding is max-lo/min-hi. Either-part bottoms
  // yield a bottom row.
  auto NarrowRow = [&](const int64_t *RA, const int64_t *RB,
                       bool IsBool) -> Row {
    Row AV = loadRow<HasCong>(RA);
    Row BV = loadRow<HasCong>(RB);
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
  {
    Cursor<HasCong> CA(PA), CB(PB);
    for (size_t W = std::min(CA.begin(), CB.begin()); EqA && W < CA.end();
         ++W) {
      uint64_t MA = CA.word(W), MB = CB.word(W);
      if (!MA) {
        CB.takeAll(MB);
        continue;
      }
      ++Blocks;
      uint64_t BoolW = CA.lanes(W);
      for (uint64_t U = MA | MB; U; U &= U - 1) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(U));
        uint64_t M = uint64_t(1) << Bit;
        const int64_t *RA = (MA & M) ? CA.take() : nullptr;
        const int64_t *RB = (MB & M) ? CB.take() : nullptr;
        if (!RA || !RB)
          continue;
        if (!rowsEq<HasCong>(NarrowRow(RA, RB, BoolW & M),
                             loadRow<HasCong>(RA))) {
          EqA = false;
          break;
        }
      }
    }
  }
  if (EqA && PB) {
    Cursor<HasCong> CA(PA), CB(PB);
    for (size_t W = std::min(CA.begin(), CB.begin()); EqA && W < CB.end();
         ++W) {
      uint64_t MA = CA.word(W), MB = CB.word(W);
      if (!MB)
        continue;
      ++Blocks;
      uint64_t BoolW = CB.lanes(W);
      for (uint64_t U = MB; U; U &= U - 1) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(U));
        const int64_t *RB = CB.take();
        if ((MA >> Bit) & 1)
          continue;
        // A's entry is top: narrowing adopts B's bound, so equality
        // needs that bound to be vacuous.
        if (!rowTop<HasCong>(loadRow<HasCong>(RB),
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
  Shape Fit = shapeOf<false>(PA, PB);
  OutBlock<HasCong> Out(HasCong ? outKind(PA, PB) : DomainKind::Interval,
                        Fit, PA ? PA->Keys : nullptr);
  Cursor<HasCong> CA(PA), CB(PB);
  for (size_t W = Fit.Lo; W < Fit.Hi; ++W) {
    uint64_t MA = CA.word(W), MB = CB.word(W);
    if (!(MA | MB))
      continue;
    ++Blocks;
    uint64_t BoolW = (CA.lanes(W) & MA) | (CB.lanes(W) & MB);
    for (uint64_t U = MA | MB; U; U &= U - 1) {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(U));
      uint64_t M = uint64_t(1) << Bit;
      const int64_t *RA = (MA & M) ? CA.take() : nullptr;
      const int64_t *RB = (MB & M) ? CB.take() : nullptr;
      Row N;
      if (RA && RB) {
        N = NarrowRow(RA, RB, BoolW & M);
        if (N.Lo > N.Hi || (HasCong && N.M < 0)) {
          KernelBlocks += Blocks;
          return AbstractStore::bottom();
        }
      } else if (RA) {
        N = loadRow<HasCong>(RA); // B's entry is top: x /\~ T = x
      } else {
        N = loadRow<HasCong>(RB); // A's entry top: narrowing takes B
        if (rowBot<HasCong>(N)) {
          KernelBlocks += Blocks;
          return AbstractStore::bottom();
        }
        unsigned S = static_cast<unsigned>(W * 64 + Bit);
        Out.noteKey(S, PB->key(S));
      }
      Out.put(N);
    }
    Out.setWord(W, MA | MB, BoolW);
  }
  KernelBlocks += Blocks;
  return AbstractStore(Out.finish());
}

AbstractStore StoreOps::narrow(const AbstractStore &A,
                               const AbstractStore &B) const {
  if (A.samePayload(B))
    return A;
  if (A.isBottom() || B.isBottom())
    return AbstractStore::bottom();
  return wantCong(A.P, B.P) ? narrowK<true>(A, B) : narrowK<false>(A, B);
}

AbstractStore StoreOps::restrictTo(const AbstractStore &S,
                                   const uint64_t *MaskWords, size_t NumWords,
                                   uint64_t *PrunedSlots) const {
  if (S.isBottom() || !S.P || S.P->NumPresent == 0)
    return S;
  const StorePayload *P = S.P;
  auto Live = [&](size_t W) { return W < NumWords ? MaskWords[W] : 0; };
  // Identity probe first: converged sweeps must stay pointer-stable, so
  // a store already inside the live mask is returned payload and all.
  uint32_t Dropped = 0;
  for (size_t I = 0; I < P->NumWords; ++I)
    Dropped += popcount64(P->bits()[I] & ~Live(P->WordBase + I));
  if (!Dropped)
    return S;
  // Dropping slots writes a copy of a shared block: one detach.
  noteDetach(P->NumPresent);
  StorePayload *N = StorePayload::create(P->DK, P->NumWords,
                                         P->NumPresent - Dropped);
  N->Keys = P->Keys;
  N->WordBase = P->WordBase;
  N->NumWords = P->NumWords;
  N->NumPresent = P->NumPresent - Dropped;
  const size_t Width = P->rowWidth();
  const int64_t *From = P->rows();
  int64_t *To = N->rows();
  for (size_t I = 0; I < P->NumWords; ++I) {
    uint64_t Word = P->bits()[I];
    uint64_t Keep = Word & Live(P->WordBase + I);
    N->bits()[I] = Keep;
    N->boolBits()[I] = P->boolBits()[I] & Keep;
    if (Keep == Word) {
      size_t Words = popcount64(Word) * Width;
      std::memcpy(To, From, Words * sizeof(int64_t));
      To += Words;
      From += Words;
      continue;
    }
    for (; Word; Word &= Word - 1, From += Width)
      if (Keep & Word & -Word) {
        std::memcpy(To, From, Width * sizeof(int64_t));
        To += Width;
      }
  }
  N->trimWindow();
  if (PrunedSlots)
    *PrunedSlots += Dropped;
  return AbstractStore(N);
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
