//===- tests/semantics/store_product_test.cpp - Congruence-plane kernels --===//
//
// The SoA kernel differential of store_soa_test, re-run with the
// congruence row planes live: under --domain=congruence and
// --domain=product every payload carries (CM, CR) next to (Lo, Hi), and
// the word-at-a-time join / meet / widen / narrow / equal
// kernels must still be observationally identical to the per-key scalar
// ValueDomain semantics — including the bottom collapse when a meet
// empties a congruence class, the COW identity fast paths, and the
// payload's DomainKind imprint surviving every kernel.
//
//===----------------------------------------------------------------------===//

#include "semantics/AbstractStore.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

using namespace syntox;

namespace {

/// ~2.2 words of slots, as in store_soa_test: partial-word heads and
/// full-word middles in every kernel.
constexpr unsigned NumVars = 140;

class StoreProductTest : public ::testing::TestWithParam<DomainKind> {
protected:
  StoreProductTest() : VD(GetParam()), Ops(VD) {
    for (unsigned I = 0; I < NumVars; ++I) {
      const Type *Ty = I % 3 == 2   ? Ctx.booleanType()
                       : I % 7 == 0 ? Ctx.getSubrangeType(1, 100)
                                    : Ctx.integerType();
      Vars.push_back(Ctx.create<VarDecl>(SourceLoc(), "v" + std::to_string(I),
                                         Ty, VarKind::Local));
    }
  }

  /// A random non-bottom value of \p V's kind. Integer lanes pair the
  /// edge-heavy interval pool with a congruence pool heavy on top (the
  /// common plane content) but with enough proper classes and constants
  /// that meets empty out and joins cross moduli.
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
        return IsLo ? VD.minValue() : VD.maxValue();
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
    Congruence C = Congruence::top();
    switch (Rng() % 8) {
    case 0:
      C = Congruence(2, 0);
      break;
    case 1:
      C = Congruence(2, 1);
      break;
    case 2:
      C = Congruence(3, static_cast<int64_t>(Rng() % 3));
      break;
    case 3:
      C = Congruence(4, static_cast<int64_t>(Rng() % 4));
      break;
    case 4:
      C = Congruence::constant(static_cast<int64_t>(Rng() % 201) - 100);
      break;
    default:
      break; // top: the plane content interval-only runs would have
    }
    return AbsValue(NumVal(Interval(Lo, Hi), C));
  }

  AbstractStore randomStore(std::mt19937_64 &Rng, unsigned Density) {
    if (Rng() % 16 == 0)
      return Rng() % 2 ? AbstractStore::bottom() : AbstractStore::top();
    AbstractStore S;
    for (const VarDecl *V : Vars)
      if (Rng() % 100 < Density)
        S.set(V, randomValue(Rng, V), VD.kind());
    return S;
  }

  AstContext Ctx;
  ValueDomain VD;
  StoreOps Ops;
  std::vector<VarDecl *> Vars;
};

/// The per-key scalar reference (store_soa_test's ScalarRef, verbatim
/// semantics): absent entry = top of the variable's kind, any bottom
/// value collapses the store.
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

  void expectPointwise(Op O, const AbstractStore &A, const AbstractStore &B,
                       const AbstractStore &Got, const char *What) const {
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
    auto Expected = [&](const VarDecl *V) {
      if (O == Op::Narrow && !B.hasEntry(V))
        return Ops.get(A, V);
      return apply(O, Ops.get(A, V), Ops.get(B, V));
    };
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

TEST_P(StoreProductTest, FuzzedKernelsMatchScalarReference) {
  ScalarRef Ref{Ops, Ops.domain(), Vars};
  std::mt19937_64 Rng(0x9a0d01 + static_cast<uint64_t>(GetParam()));
  for (unsigned Iter = 0; Iter < 400; ++Iter) {
    unsigned Density = 5 + Rng() % 90;
    AbstractStore A = randomStore(Rng, Density);
    AbstractStore B;
    if (Rng() % 3 == 0) {
      B = A;
      if (Rng() % 2) {
        const VarDecl *V = Vars[Rng() % NumVars];
        B.set(V, randomValue(Rng, V), Ops.domainKind());
      }
    } else {
      B = randomStore(Rng, Density);
    }
    SCOPED_TRACE("iter " + std::to_string(Iter));

    Ref.expectPointwise(ScalarRef::Op::Join, A, B, Ops.join(A, B), "join");
    Ref.expectPointwise(ScalarRef::Op::Meet, A, B, Ops.meet(A, B), "meet");
    Ref.expectPointwise(ScalarRef::Op::Widen, A, B, Ops.widen(A, B),
                        "widen");
    Ref.expectPointwise(ScalarRef::Op::Narrow, A, B, Ops.narrow(A, B),
                        "narrow");

    EXPECT_EQ(Ops.equal(A, B), Ref.scalarEqual(A, B));
    EXPECT_EQ(Ops.leq(A, B), Ref.scalarLeq(A, B));
  }
}

TEST_P(StoreProductTest, LatticeLawsOnFuzzedStores) {
  std::mt19937_64 Rng(0xfeed + static_cast<uint64_t>(GetParam()));
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
    AbstractStore W = Ops.widen(A, B);
    EXPECT_TRUE(Ops.leq(J, W));
    AbstractStore N = Ops.narrow(W, A);
    EXPECT_TRUE(Ops.leq(N, W));
  }
}

TEST_P(StoreProductTest, CongruencePlanesRoundTripAndDistinguish) {
  // The planes hold real state: a congruence component written through
  // set() reads back exactly and makes stores unequal that agree on
  // every interval row.
  const VarDecl *V = Vars[0];
  AbstractStore Even, Odd, Plain;
  Even.set(V, AbsValue(NumVal(Interval(0, 100), Congruence(2, 0))),
           VD.kind());
  Odd.set(V, AbsValue(NumVal(Interval(0, 100), Congruence(2, 1))),
          VD.kind());
  Plain.set(V, AbsValue(NumVal(Interval(0, 100), Congruence::top())),
            VD.kind());

  EXPECT_TRUE(Ops.get(Even, V).asNum().C == Congruence(2, 0));
  EXPECT_TRUE(Ops.get(Odd, V).asNum().C == Congruence(2, 1));
  EXPECT_FALSE(Ops.equal(Even, Odd));
  EXPECT_FALSE(Ops.equal(Even, Plain));

  // Kernel results land in the scalar semantics: join crosses moduli,
  // meet of disjoint classes collapses the store.
  AbstractStore J = Ops.join(Even, Odd);
  EXPECT_TRUE(Ops.get(J, V).asNum().C.isTop());
  EXPECT_TRUE(Ops.meet(Even, Odd).isBottom());

  // A top congruence plane reads back as the bare interval, which the
  // cache file then writes exactly as format v2 did.
  EXPECT_TRUE(Ops.get(Plain, V).asNum().C.isTop());
  EXPECT_EQ(Ops.get(Plain, V).asNum().I, Interval(0, 100));
}

TEST_P(StoreProductTest, CowFastPathsPreserveIdentityWithPlanes) {
  std::mt19937_64 Rng(0xc0de + static_cast<uint64_t>(GetParam()));
  AbstractStore A = randomStore(Rng, 60);
  while (A.isBottom() || A.numEntries() == 0)
    A = randomStore(Rng, 60);

  AbstractStore Copy = A;
  EXPECT_TRUE(A.samePayload(Copy));
  EXPECT_EQ(Ops.join(A, Copy).payloadIdentity(), A.payloadIdentity());
  EXPECT_EQ(Ops.widen(A, Copy).payloadIdentity(), A.payloadIdentity());
  EXPECT_EQ(Ops.narrow(A, Copy).payloadIdentity(), A.payloadIdentity());
  EXPECT_EQ(Ops.meet(A, Copy).payloadIdentity(), A.payloadIdentity());
  EXPECT_TRUE(Ops.equal(A, Copy));

  // Writing only a congruence component through a shared payload must
  // still detach the writer (the planes live in the COW body).
  const void *Ident = A.payloadIdentity();
  const VarDecl *V = Vars[1];
  Copy.set(V, AbsValue(NumVal(Interval(7, 9), Congruence(2, 1))),
           VD.kind());
  EXPECT_EQ(A.payloadIdentity(), Ident);
  EXPECT_NE(Copy.payloadIdentity(), Ident);
  EXPECT_TRUE(Ops.get(Copy, V).asNum().C == Congruence(2, 1));
}

INSTANTIATE_TEST_SUITE_P(CongruenceBearingKinds, StoreProductTest,
                         ::testing::Values(DomainKind::Congruence,
                                           DomainKind::Product),
                         [](const ::testing::TestParamInfo<DomainKind> &I) {
                           return std::string(domainKindName(I.param));
                         });

} // namespace
