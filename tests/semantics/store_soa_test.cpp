//===- tests/semantics/store_soa_test.cpp - SoA kernel differential -------===//
//
// The structure-of-arrays lattice kernels (word-at-a-time join / meet /
// widen / narrow / equal over the Lo/Hi rows) must be
// observationally identical to the per-key scalar semantics they
// replaced: entry absent = top of the variable's kind, any bottom value
// collapses the store, delta-aware ops return their input payload when
// nothing changed. This battery fuzzes stores wide enough to span
// several 64-slot bitmap words (including +/-oo bounds, singletons,
// boolean lanes, empty and bottom stores) and compares every kernel
// against a get()-based scalar reference, then pins the COW fast paths
// and moved-from safety the solver relies on.
//
//===----------------------------------------------------------------------===//

#include "semantics/AbstractStore.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

using namespace syntox;

namespace {

/// ~2.2 words of slots: enough for partial-word heads and full-word
/// middles in every kernel.
constexpr unsigned NumVars = 140;

class StoreSoaTest : public ::testing::Test {
protected:
  StoreSoaTest() : Ops(D) {
    for (unsigned I = 0; I < NumVars; ++I) {
      // Every third variable is a boolean lane; a few are subranges
      // (their type range matters only to typeRange, not the kernels).
      const Type *Ty = I % 3 == 2        ? Ctx.booleanType()
                       : I % 7 == 0      ? Ctx.getSubrangeType(1, 100)
                                         : Ctx.integerType();
      Vars.push_back(Ctx.create<VarDecl>(SourceLoc(), "v" + std::to_string(I),
                                         Ty, VarKind::Local));
    }
  }

  /// A random non-bottom value of \p V's kind. Integer lanes draw from
  /// a pool heavy on edge cases: +/-oo bounds, singletons, wide spans.
  AbsValue randomValue(std::mt19937_64 &Rng, const VarDecl *V) {
    if (V->type()->isBoolean()) {
      switch (Rng() % 3) {
      case 0:
        return AbsValue(BoolLattice(false));
      case 1:
        return AbsValue(BoolLattice(true));
      default:
        return AbsValue(BoolLattice::top());
      }
    }
    auto Bound = [&](bool IsLo) -> int64_t {
      switch (Rng() % 5) {
      case 0:
        return IsLo ? D.minValue() : D.maxValue();
      case 1:
        return 0;
      case 2:
        return static_cast<int64_t>(Rng() % 7) - 3;
      default:
        return static_cast<int64_t>(Rng() % 2001) - 1000;
      }
    };
    int64_t Lo = Bound(true), Hi = Bound(false);
    if (Lo > Hi)
      std::swap(Lo, Hi);
    return AbsValue(Interval(Lo, Hi));
  }

  /// A random store: each variable present with probability
  /// \p Density/100. Occasionally the bottom or the top store.
  AbstractStore randomStore(std::mt19937_64 &Rng, unsigned Density) {
    if (Rng() % 16 == 0)
      return Rng() % 2 ? AbstractStore::bottom() : AbstractStore::top();
    AbstractStore S;
    for (const VarDecl *V : Vars)
      if (Rng() % 100 < Density)
        S.set(V, randomValue(Rng, V));
    return S;
  }

  AstContext Ctx;
  IntervalDomain D;
  StoreOps Ops;
  std::vector<VarDecl *> Vars;
};

/// The scalar store ops the kernels replaced, rebuilt per key on top of
/// get(): the paper's pointwise lattice with absent-entry = top and
/// bottom-value collapse.
struct ScalarRef {
  const StoreOps &Ops;
  const ValueDomain &D;
  const std::vector<VarDecl *> &Vars;

  enum class Op { Join, Meet, Widen, Narrow };

  AbsValue apply(Op O, const AbsValue &A, const AbsValue &B) const {
    switch (O) {
    case Op::Join:
      return Ops.joinValues(A, B);
    case Op::Meet:
      return Ops.meetValues(A, B);
    case Op::Widen:
      return Ops.widenValues(A, B);
    case Op::Narrow:
      if (A.isInt())
        return AbsValue(D.narrow(A.asNum(), B.asNum()));
      return AbsValue(A.asBool().meet(B.asBool()));
    }
    return A;
  }

  /// Pointwise expected result: kernel output \p Got must read back the
  /// scalar value at every key and agree on bottomness.
  void expectPointwise(Op O, const AbstractStore &A, const AbstractStore &B,
                       const AbstractStore &Got, const char *What) const {
    // Store-level bottom short-circuits (paper §6.1).
    if (O == Op::Join) {
      if (A.isBottom() && B.isBottom()) {
        EXPECT_TRUE(Got.isBottom()) << What;
        return;
      }
      if (A.isBottom() || B.isBottom()) {
        const AbstractStore &Other = A.isBottom() ? B : A;
        EXPECT_TRUE(Ops.equal(Got, Other)) << What;
        return;
      }
    }
    if (O == Op::Widen) {
      if (A.isBottom()) {
        EXPECT_TRUE(Ops.equal(Got, B)) << What;
        return;
      }
      if (B.isBottom()) {
        EXPECT_TRUE(Ops.equal(Got, A)) << What;
        return;
      }
    }
    if ((O == Op::Meet || O == Op::Narrow) &&
        (A.isBottom() || B.isBottom())) {
      EXPECT_TRUE(Got.isBottom()) << What;
      return;
    }
    // Per-key expected value. Narrow is *not* pointwise over get():
    // when B has no explicit entry the store keeps A's entry verbatim
    // (x /\~ absent-T = x — the seed's termination-preserving rule),
    // whereas an explicit top entry in B runs the §6.1 operator, which
    // replaces non-omega bounds. Every other op is pointwise.
    auto Expected = [&](const VarDecl *V) {
      if (O == Op::Narrow && !B.hasEntry(V))
        return Ops.get(A, V);
      return apply(O, Ops.get(A, V), Ops.get(B, V));
    };
    // Pointwise: any bottom value collapses the whole result store.
    bool AnyBottom = false;
    for (const VarDecl *V : Vars)
      if (Expected(V).isBottom())
        AnyBottom = true;
    if (AnyBottom) {
      EXPECT_TRUE(Got.isBottom()) << What << ": expected collapse";
      return;
    }
    ASSERT_FALSE(Got.isBottom()) << What << ": unexpected collapse";
    for (const VarDecl *V : Vars) {
      AbsValue Want = Expected(V);
      AbsValue Have = Ops.get(Got, V);
      EXPECT_TRUE(Want == Have)
          << What << " differs at " << V->name() << " (slot "
          << V->storeSlot() << ")";
    }
  }

  bool scalarEqual(const AbstractStore &A, const AbstractStore &B) const {
    if (A.isBottom() || B.isBottom())
      return A.isBottom() == B.isBottom();
    for (const VarDecl *V : Vars)
      if (!(Ops.get(A, V) == Ops.get(B, V)))
        return false;
    return true;
  }

  bool scalarLeq(const AbstractStore &A, const AbstractStore &B) const {
    if (A.isBottom())
      return true;
    if (B.isBottom())
      return false;
    for (const VarDecl *V : Vars)
      if (!Ops.leqValues(Ops.get(A, V), Ops.get(B, V)))
        return false;
    return true;
  }
};

TEST_F(StoreSoaTest, FuzzedKernelsMatchScalarReference) {
  ScalarRef Ref{Ops, Ops.domain(), Vars};
  std::mt19937_64 Rng(0x50a50a);
  for (unsigned Iter = 0; Iter < 400; ++Iter) {
    // Sweep densities so delta fast paths, sparse/sparse and
    // dense/dense pairs all occur; correlated pairs (B derived from A)
    // exercise the return-input-on-no-change paths.
    unsigned Density = 5 + Rng() % 90;
    AbstractStore A = randomStore(Rng, Density);
    AbstractStore B;
    if (Rng() % 3 == 0) {
      B = A; // shared payload
      if (Rng() % 2) {
        const VarDecl *V = Vars[Rng() % NumVars];
        B.set(V, randomValue(Rng, V)); // detached single-slot delta
      }
    } else {
      B = randomStore(Rng, Density);
    }
    SCOPED_TRACE("iter " + std::to_string(Iter));

    Ref.expectPointwise(ScalarRef::Op::Join, A, B, Ops.join(A, B), "join");
    Ref.expectPointwise(ScalarRef::Op::Meet, A, B, Ops.meet(A, B), "meet");
    Ref.expectPointwise(ScalarRef::Op::Widen, A, B, Ops.widen(A, B), "widen");
    Ref.expectPointwise(ScalarRef::Op::Narrow, A, B, Ops.narrow(A, B),
                        "narrow");

    EXPECT_EQ(Ops.equal(A, B), Ref.scalarEqual(A, B));
    EXPECT_EQ(Ops.leq(A, B), Ref.scalarLeq(A, B));
  }
}

TEST_F(StoreSoaTest, LatticeLawsOnFuzzedStores) {
  std::mt19937_64 Rng(0xbeef);
  for (unsigned Iter = 0; Iter < 200; ++Iter) {
    AbstractStore A = randomStore(Rng, 40);
    AbstractStore B = randomStore(Rng, 40);
    SCOPED_TRACE("iter " + std::to_string(Iter));
    AbstractStore J = Ops.join(A, B);
    EXPECT_TRUE(Ops.leq(A, J));
    EXPECT_TRUE(Ops.leq(B, J));
    AbstractStore M = Ops.meet(A, B);
    EXPECT_TRUE(Ops.leq(M, A));
    EXPECT_TRUE(Ops.leq(M, B));
    // Widening covers the join; narrowing refines from above.
    AbstractStore W = Ops.widen(A, B);
    EXPECT_TRUE(Ops.leq(J, W));
    AbstractStore N = Ops.narrow(W, A);
    EXPECT_TRUE(Ops.leq(N, W));
  }
}

TEST_F(StoreSoaTest, CowFastPathsPreserveIdentity) {
  std::mt19937_64 Rng(0xc0ffee);
  AbstractStore A = randomStore(Rng, 60);
  ASSERT_FALSE(A.isBottom());
  ASSERT_GT(A.numEntries(), 0u);

  // Copies share the payload; all delta-aware ops on a converged pair
  // return the *input* store so samePayload keeps firing.
  AbstractStore Copy = A;
  EXPECT_TRUE(A.samePayload(Copy));
  EXPECT_EQ(Ops.join(A, Copy).payloadIdentity(), A.payloadIdentity());
  EXPECT_EQ(Ops.widen(A, Copy).payloadIdentity(), A.payloadIdentity());
  EXPECT_EQ(Ops.narrow(A, Copy).payloadIdentity(), A.payloadIdentity());
  EXPECT_EQ(Ops.meet(A, Copy).payloadIdentity(), A.payloadIdentity());
  EXPECT_TRUE(Ops.equal(A, Copy));

  // join(A, B) with B strictly below A changes nothing: input returned.
  AbstractStore Below = A;
  const VarDecl *IntVar = Vars[0];
  Below.set(IntVar, AbsValue(Interval(1, 2)));
  AbstractStore A2 = A;
  Ops.assign(A2, IntVar, AbsValue(Interval(0, 5)));
  EXPECT_EQ(Ops.join(A2, Below).payloadIdentity(), A2.payloadIdentity());

  // Writing through a shared payload detaches the writer only.
  const void *Ident = A.payloadIdentity();
  Copy.set(Vars[1], AbsValue(Interval(7, 7)));
  EXPECT_EQ(A.payloadIdentity(), Ident);
  EXPECT_NE(Copy.payloadIdentity(), Ident);
}

TEST_F(StoreSoaTest, MovedFromStoresAreSafe) {
  std::mt19937_64 Rng(1);
  AbstractStore A = randomStore(Rng, 50);
  AbstractStore Taken = std::move(A);
  // The moved-from store is a valid (payload-free, i.e. top) store:
  // every op must be well-defined on it.
  EXPECT_TRUE(A.isTop() || A.isBottom());
  EXPECT_NO_FATAL_FAILURE({
    (void)Ops.join(A, Taken);
    (void)Ops.equal(A, Taken);
    AbstractStore B = A;
    B.set(Vars[0], AbsValue(Interval(1, 1)));
    (void)Ops.get(B, Vars[0]);
  });
}

TEST_F(StoreSoaTest, RestrictToMasksAndIdentity) {
  std::mt19937_64 Rng(2);
  AbstractStore A;
  for (const VarDecl *V : Vars)
    A.set(V, randomValue(Rng, V));
  const size_t Words = (NumVars + 63) / 64;

  // Full mask: nothing drops, the input payload is returned.
  std::vector<uint64_t> All(Words, ~0ull);
  uint64_t Dropped = 0;
  AbstractStore Same = Ops.restrictTo(A, All.data(), All.size(), &Dropped);
  EXPECT_EQ(Same.payloadIdentity(), A.payloadIdentity());
  EXPECT_EQ(Dropped, 0u);

  // Every other slot dead: exactly those entries read top afterwards.
  std::vector<uint64_t> Odd(Words, 0xaaaaaaaaaaaaaaaaull);
  Dropped = 0;
  AbstractStore R = Ops.restrictTo(A, Odd.data(), Odd.size(), &Dropped);
  uint64_t WantDropped = 0;
  for (const VarDecl *V : Vars) {
    bool Live = V->storeSlot() & 1;
    if (!Live)
      ++WantDropped;
    AbsValue Got = Ops.get(R, V);
    if (Live)
      EXPECT_TRUE(Got == Ops.get(A, V)) << V->name();
    else
      EXPECT_TRUE(!Got.isBottom() &&
                  (Got.isInt() ? D.isTop(Got.asInt()) : Got.asBool().isTop()))
          << V->name();
  }
  EXPECT_EQ(Dropped, WantDropped);

  // Bottom and top pass through untouched; slots past the mask words
  // are dead.
  EXPECT_TRUE(
      Ops.restrictTo(AbstractStore::bottom(), Odd.data(), Odd.size(), nullptr)
          .isBottom());
  EXPECT_TRUE(
      Ops.restrictTo(AbstractStore::top(), Odd.data(), Odd.size(), nullptr)
          .isTop());
  AbstractStore Empty = Ops.restrictTo(A, Odd.data(), 0, &Dropped);
  EXPECT_EQ(Empty.numEntries(), 0u);
}

} // namespace
