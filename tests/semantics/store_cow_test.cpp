//===- tests/semantics/store_cow_test.cpp - COW store invariants ----------===//
//
// The copy-on-write store suite: aliasing (mutation after a copy never
// leaks into the sibling), moved-from safety, agreement of the
// pointer-equality fast paths with deep comparison, payload-stability of
// the delta-aware lattice ops — plus a 200-seed
// differential battery that replays random operation sequences against a
// reference reimplementation of the seed's map-based store semantics and
// asserts bit-identical results.
//
//===----------------------------------------------------------------------===//

#include "semantics/AbstractStore.h"

#include <gtest/gtest.h>

#include <map>
#include <random>

using namespace syntox;

namespace {

class StoreCowTest : public ::testing::Test {
protected:
  StoreCowTest() : Ops(D) {
    for (int I = 0; I < 8; ++I)
      Ints.push_back(Ctx.create<VarDecl>(SourceLoc(),
                                         "i" + std::to_string(I),
                                         Ctx.integerType(), VarKind::Local));
    for (int I = 0; I < 2; ++I)
      Bools.push_back(Ctx.create<VarDecl>(SourceLoc(),
                                          "b" + std::to_string(I),
                                          Ctx.booleanType(), VarKind::Local));
  }

  AbstractStore makeStore(int64_t Base) {
    AbstractStore S;
    for (size_t I = 0; I < Ints.size(); ++I)
      S.set(Ints[I], AbsValue(Interval(Base, Base + static_cast<int64_t>(I))));
    return S;
  }

  AstContext Ctx;
  IntervalDomain D;
  StoreOps Ops;
  std::vector<VarDecl *> Ints, Bools;
};

//===----------------------------------------------------------------------===//
// Aliasing
//===----------------------------------------------------------------------===//

TEST_F(StoreCowTest, CopySharesPayload) {
  AbstractStore A = makeStore(0);
  AbstractStore B = A;
  EXPECT_TRUE(A.samePayload(B));
  EXPECT_EQ(A.numEntries(), B.numEntries());
  EXPECT_TRUE(Ops.equal(A, B));
}

TEST_F(StoreCowTest, MutationAfterCopyNeverLeaksIntoSibling) {
  AbstractStore A = makeStore(0);
  AbstractStore B = A;
  B.set(Ints[0], AbsValue(Interval(100, 200)));
  EXPECT_FALSE(A.samePayload(B));
  EXPECT_EQ(Ops.get(A, Ints[0]).asInt(), Interval(0, 0));
  EXPECT_EQ(Ops.get(B, Ints[0]).asInt(), Interval(100, 200));

  // Mutating the *original* must not leak into the copy either.
  AbstractStore C = B;
  B.forget(Ints[1]);
  EXPECT_TRUE(C.hasEntry(Ints[1]));
  EXPECT_FALSE(B.hasEntry(Ints[1]));

  // And an exclusively-owned store mutates in place (no detach).
  const void *Id = B.payloadIdentity();
  B.set(Ints[2], AbsValue(Interval(7, 7)));
  EXPECT_EQ(B.payloadIdentity(), Id);
}

TEST_F(StoreCowTest, ChainedCopiesIsolateCorrectly) {
  AbstractStore A = makeStore(0);
  AbstractStore B = A;
  AbstractStore C = B;
  C.set(Ints[3], AbsValue(Interval(-5, 5)));
  EXPECT_TRUE(A.samePayload(B));
  EXPECT_FALSE(A.samePayload(C));
  EXPECT_EQ(Ops.get(A, Ints[3]).asInt(), Interval(0, 3));
  EXPECT_EQ(Ops.get(B, Ints[3]).asInt(), Interval(0, 3));
  EXPECT_EQ(Ops.get(C, Ints[3]).asInt(), Interval(-5, 5));
}

TEST_F(StoreCowTest, MovedFromStoreIsSafe) {
  AbstractStore A = makeStore(0);
  AbstractStore B = std::move(A);
  EXPECT_EQ(Ops.get(B, Ints[0]).asInt(), Interval(0, 0));
  // The moved-from store must be a valid (top) store: readable,
  // writable, comparable.
  EXPECT_TRUE(A.isTop()); // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(A.hasEntry(Ints[0]));
  EXPECT_TRUE(Ops.equal(A, AbstractStore::top()));
  A.set(Ints[0], AbsValue(Interval(1, 2)));
  EXPECT_EQ(Ops.get(A, Ints[0]).asInt(), Interval(1, 2));
  EXPECT_EQ(Ops.get(B, Ints[0]).asInt(), Interval(0, 0));
}

TEST_F(StoreCowTest, SetBottomDropsThePayload) {
  AbstractStore A = makeStore(0);
  AbstractStore B = A;
  B.setBottom();
  EXPECT_TRUE(B.isBottom());
  EXPECT_EQ(B.payloadIdentity(), nullptr);
  EXPECT_EQ(Ops.get(A, Ints[0]).asInt(), Interval(0, 0));
}

//===----------------------------------------------------------------------===//
// Fast-path agreement
//===----------------------------------------------------------------------===//

TEST_F(StoreCowTest, PointerFastPathAgreesWithDeepEqual) {
  AbstractStore A = makeStore(0);
  AbstractStore Shared = A;             // pointer-equal
  AbstractStore Rebuilt = makeStore(0); // deep-equal, distinct payload
  ASSERT_TRUE(A.samePayload(Shared));
  ASSERT_FALSE(A.samePayload(Rebuilt));
  EXPECT_TRUE(Ops.equal(A, Shared));
  EXPECT_TRUE(Ops.equal(A, Rebuilt));
  EXPECT_TRUE(Ops.leq(A, Shared));
  EXPECT_TRUE(Ops.leq(A, Rebuilt));

  // A diverged-then-restored sibling is deep-equal again even though the
  // payloads stay distinct.
  AbstractStore C = A;
  C.set(Ints[0], AbsValue(Interval(9, 9)));
  EXPECT_FALSE(Ops.equal(A, C));
  C.set(Ints[0], AbsValue(Interval(0, 0)));
  EXPECT_FALSE(A.samePayload(C));
  EXPECT_TRUE(Ops.equal(A, C));
}

TEST_F(StoreCowTest, ExplicitTopEntryEqualsMissingEntry) {
  AbstractStore Empty;
  AbstractStore WithTop;
  WithTop.set(Ints[0], AbsValue(D.top()));
  WithTop.set(Bools[0], AbsValue(BoolLattice::top()));
  EXPECT_TRUE(Ops.equal(Empty, WithTop));
  EXPECT_TRUE(Ops.equal(WithTop, Empty));
  EXPECT_TRUE(Ops.leq(Empty, WithTop));
  EXPECT_TRUE(Ops.leq(WithTop, Empty));
}

//===----------------------------------------------------------------------===//
// Payload stability of the delta-aware ops
//===----------------------------------------------------------------------===//

TEST_F(StoreCowTest, ConvergedOpsReturnTheInputPayload) {
  AbstractStore A = makeStore(0);
  AbstractStore Narrower = makeStore(0); // distinct payload, equal content
  Narrower.set(Ints[0], AbsValue(Interval(0, 0))); // still equal

  // join(A, X) == A when X adds nothing: the result must *be* A.
  EXPECT_TRUE(Ops.join(A, Narrower).samePayload(A));
  // Symmetric case: A absorbed into the second operand.
  AbstractStore Wider = makeStore(0);
  Wider.set(Ints[0], AbsValue(Interval(-10, 10)));
  EXPECT_TRUE(Ops.join(A, Wider).samePayload(Wider));

  // Stable widening returns the first operand.
  EXPECT_TRUE(Ops.widen(A, Narrower).samePayload(A));
  // meet(A, X) == A when A already implies X.
  EXPECT_TRUE(Ops.meet(A, Narrower).samePayload(A));
  // narrow(A, X) == A when X refines no omega bound of A.
  AbstractStore Bounded = makeStore(0); // nothing at omega to refine
  EXPECT_TRUE(Ops.narrow(Bounded, Bounded).samePayload(Bounded));
  AbstractStore SameAgain = makeStore(0);
  EXPECT_TRUE(Ops.narrow(Bounded, SameAgain).samePayload(Bounded));

  // Sanity: when the result genuinely differs, a fresh payload appears.
  AbstractStore Grown = makeStore(-1);
  AbstractStore J = Ops.join(A, Grown);
  EXPECT_FALSE(J.samePayload(A));
  EXPECT_FALSE(J.samePayload(Grown));
  EXPECT_EQ(Ops.get(J, Ints[0]).asInt(), Interval(-1, 0));
}

//===----------------------------------------------------------------------===//
// Differential battery vs. the seed's map-based semantics
//===----------------------------------------------------------------------===//

/// A reference store: the seed's `std::map<const VarDecl*, AbsValue>`
/// representation with the lattice operations transcribed from the seed
/// implementation. The COW store must be observationally identical.
struct RefStore {
  std::map<const VarDecl *, AbsValue> Values;
  bool IsBottom = false;
};

class RefOps {
public:
  explicit RefOps(const StoreOps &Ops) : Ops(Ops), D(Ops.domain()) {}

  AbsValue get(const RefStore &S, const VarDecl *V) const {
    if (S.IsBottom)
      return V->type()->isBoolean() ? AbsValue(BoolLattice::bottom())
                                    : AbsValue(Interval::bottom());
    auto It = S.Values.find(V);
    return It != S.Values.end() ? It->second : Ops.topFor(V);
  }

  bool leq(const RefStore &A, const RefStore &B) const {
    if (A.IsBottom)
      return true;
    if (B.IsBottom)
      return false;
    for (const auto &[V, BV] : B.Values) {
      auto It = A.Values.find(V);
      const AbsValue &AV = It != A.Values.end() ? It->second : Ops.topFor(V);
      if (!Ops.leqValues(AV, BV))
        return false;
    }
    return true;
  }

  bool equal(const RefStore &A, const RefStore &B) const {
    return leq(A, B) && leq(B, A);
  }

  RefStore join(const RefStore &A, const RefStore &B) const {
    if (A.IsBottom)
      return B;
    if (B.IsBottom)
      return A;
    RefStore Out;
    for (const auto &[V, AV] : A.Values) {
      auto It = B.Values.find(V);
      if (It == B.Values.end())
        continue;
      AbsValue J = Ops.joinValues(AV, It->second);
      if (!Ops.leqValues(Ops.topFor(V), J))
        Out.Values.emplace(V, std::move(J));
    }
    return Out;
  }

  RefStore meet(const RefStore &A, const RefStore &B) const {
    if (A.IsBottom || B.IsBottom)
      return RefStore{{}, true};
    RefStore Out = A;
    for (const auto &[V, BV] : B.Values) {
      auto It = Out.Values.find(V);
      AbsValue M =
          It == Out.Values.end() ? BV : Ops.meetValues(It->second, BV);
      if (M.isBottom())
        return RefStore{{}, true};
      Out.Values[V] = std::move(M);
    }
    return Out;
  }

  RefStore widen(const RefStore &A, const RefStore &B) const {
    if (A.IsBottom)
      return B;
    if (B.IsBottom)
      return A;
    RefStore Out;
    for (const auto &[V, AV] : A.Values) {
      auto It = B.Values.find(V);
      if (It == B.Values.end())
        continue;
      if (AV.isInt()) {
        NumVal W = D.widen(AV.asNum(), It->second.asNum());
        if (!D.leq(D.top(), W))
          Out.Values.emplace(V, AbsValue(W));
      } else {
        BoolLattice W = AV.asBool().join(It->second.asBool());
        if (!W.isTop())
          Out.Values.emplace(V, AbsValue(W));
      }
    }
    return Out;
  }

  RefStore narrow(const RefStore &A, const RefStore &B) const {
    if (A.IsBottom || B.IsBottom)
      return RefStore{{}, true};
    RefStore Out;
    for (const auto &[V, AV] : A.Values) {
      auto It = B.Values.find(V);
      if (It == B.Values.end()) {
        Out.Values.emplace(V, AV);
        continue;
      }
      AbsValue N = AV.isInt()
                       ? AbsValue(D.narrow(AV.asNum(), It->second.asNum()))
                       : AbsValue(AV.asBool().meet(It->second.asBool()));
      if (N.isBottom())
        return RefStore{{}, true};
      Out.Values.emplace(V, std::move(N));
    }
    for (const auto &[V, BV] : B.Values) {
      if (Out.Values.count(V) || A.Values.count(V))
        continue;
      if (BV.isBottom())
        return RefStore{{}, true};
      Out.Values.emplace(V, BV);
    }
    return Out;
  }

  void assign(RefStore &S, const VarDecl *V, const AbsValue &Value) const {
    if (S.IsBottom)
      return;
    if (Value.isBottom()) {
      S.IsBottom = true;
      S.Values.clear();
      return;
    }
    if (Ops.leqValues(Ops.topFor(V), Value))
      S.Values.erase(V);
    else
      S.Values[V] = Value;
  }

  void refine(RefStore &S, const VarDecl *V, const AbsValue &Value) const {
    if (S.IsBottom)
      return;
    AbsValue M = Ops.meetValues(get(S, V), Value);
    if (M.isBottom()) {
      S.IsBottom = true;
      S.Values.clear();
      return;
    }
    assign(S, V, M);
  }

private:
  const StoreOps &Ops;
  const ValueDomain &D;
};

class StoreDifferentialTest : public StoreCowTest {
protected:
  /// Asserts the COW store and the reference store are observationally
  /// identical: bottom flag and the value of every variable.
  void expectSame(const AbstractStore &S, const RefStore &R, RefOps &Ref,
                  unsigned Seed) {
    ASSERT_EQ(S.isBottom(), R.IsBottom) << "seed " << Seed;
    auto CheckVar = [&](const VarDecl *V) {
      AbsValue New = Ops.get(S, V), Old = Ref.get(R, V);
      ASSERT_EQ(New.kind(), Old.kind()) << "seed " << Seed;
      ASSERT_TRUE(New == Old)
          << "seed " << Seed << " var " << V->name() << ": cow="
          << (New.isInt() ? D.str(New.asInt()) : New.asBool().str())
          << " ref="
          << (Old.isInt() ? D.str(Old.asInt()) : Old.asBool().str());
    };
    for (VarDecl *V : Ints)
      CheckVar(V);
    for (VarDecl *V : Bools)
      CheckVar(V);
  }
};

TEST_F(StoreDifferentialTest, RandomOpSequencesMatchSeedSemantics200Seeds) {
  RefOps Ref(Ops);
  for (unsigned Seed = 0; Seed < 200; ++Seed) {
    std::mt19937 Rng(Seed);
    auto RandInt = [&](int64_t Lo, int64_t Hi) {
      return std::uniform_int_distribution<int64_t>(Lo, Hi)(Rng);
    };
    auto RandValue = [&](const VarDecl *V) -> AbsValue {
      if (V->type()->isBoolean()) {
        switch (RandInt(0, 3)) {
        case 0:
          return AbsValue(BoolLattice::top());
        case 1:
          return AbsValue(BoolLattice::bottom());
        case 2:
          return AbsValue(BoolLattice(true));
        default:
          return AbsValue(BoolLattice(false));
        }
      }
      // Occasionally produce unbounded and empty intervals.
      switch (RandInt(0, 9)) {
      case 0:
        return AbsValue(D.top());
      case 1:
        return AbsValue(Interval::bottom());
      case 2:
        return AbsValue(D.make(D.minValue(), RandInt(-50, 50)));
      case 3:
        return AbsValue(D.make(RandInt(-50, 50), D.maxValue()));
      default: {
        int64_t Lo = RandInt(-50, 50);
        return AbsValue(Interval(Lo, Lo + RandInt(0, 40)));
      }
      }
    };
    auto RandVar = [&]() -> VarDecl * {
      if (RandInt(0, 4) == 0)
        return Bools[RandInt(0, static_cast<int64_t>(Bools.size()) - 1)];
      return Ints[RandInt(0, static_cast<int64_t>(Ints.size()) - 1)];
    };

    // A small population of paired stores; binary ops draw two members.
    constexpr unsigned PoolSize = 4;
    std::vector<AbstractStore> Cow(PoolSize);
    std::vector<RefStore> Old(PoolSize);

    for (unsigned Step = 0; Step < 150; ++Step) {
      unsigned A = static_cast<unsigned>(RandInt(0, PoolSize - 1));
      unsigned B = static_cast<unsigned>(RandInt(0, PoolSize - 1));
      switch (RandInt(0, 7)) {
      case 0: {
        const VarDecl *V = RandVar();
        AbsValue Val = RandValue(V);
        Ops.assign(Cow[A], V, Val);
        Ref.assign(Old[A], V, Val);
        break;
      }
      case 1: {
        const VarDecl *V = RandVar();
        AbsValue Val = RandValue(V);
        Ops.refine(Cow[A], V, Val);
        Ref.refine(Old[A], V, Val);
        break;
      }
      case 2: {
        const VarDecl *V = RandVar();
        Cow[A].forget(V);
        if (!Old[A].IsBottom)
          Old[A].Values.erase(V);
        break;
      }
      case 3:
        Cow[A] = Ops.join(Cow[A], Cow[B]);
        Old[A] = Ref.join(Old[A], Old[B]);
        break;
      case 4:
        Cow[A] = Ops.meet(Cow[A], Cow[B]);
        Old[A] = Ref.meet(Old[A], Old[B]);
        break;
      case 5:
        Cow[A] = Ops.widen(Cow[A], Cow[B]);
        Old[A] = Ref.widen(Old[A], Old[B]);
        break;
      case 6:
        Cow[A] = Ops.narrow(Cow[A], Cow[B]);
        Old[A] = Ref.narrow(Old[A], Old[B]);
        break;
      default:
        // COW copy through the pool: the aliasing the solver performs.
        Cow[A] = Cow[B];
        Old[A] = Old[B];
        break;
      }
      expectSame(Cow[A], Old[A], Ref, Seed);
      // Cross-pair ordering must agree too (this exercises leq/equal on
      // stores with unrelated payload histories).
      ASSERT_EQ(Ops.leq(Cow[A], Cow[B]), Ref.leq(Old[A], Old[B]))
          << "seed " << Seed;
      ASSERT_EQ(Ops.equal(Cow[A], Cow[B]), Ref.equal(Old[A], Old[B]))
          << "seed " << Seed;
    }
  }
}

} // namespace
