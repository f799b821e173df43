//===- tests/lattice/congruence_test.cpp - aZ+b lattice battery -----------===//
//
// The congruence lattice (Granger) against its set semantics: every
// element denotes { M*k + R | k in Z }, a constant, the empty set or Z.
// A small universe (moduli up to 6 plus constants) is enumerated
// exhaustively:
//  - canonicalization of make(),
//  - leq equals set inclusion (checked over a window wide enough that a
//    counterexample for these moduli must appear inside it),
//  - join is the least upper bound and meet the greatest lower bound
//    *within the universe*, and both are sound against the sets,
//  - widen = join terminates along the divisibility chain; narrow
//    refines only top,
//  - every forward operation contains the image of its concrete
//    members (mathematical semantics; saturation is ValueDomain's job),
//  - the comparison tests never refute a satisfiable comparison.
//
//===----------------------------------------------------------------------===//

#include "lattice/Congruence.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

using namespace syntox;

namespace {

constexpr int64_t Window = 60;

/// The concrete members of \p X inside [-W, W]. The order/meet tests
/// need the full window (a counterexample to inclusion of two proper
/// classes can sit near lcm of the moduli); the arithmetic sweeps use a
/// narrow one to keep the quadratic member loops cheap.
std::vector<int64_t> members(const Congruence &X, int64_t W = Window) {
  std::vector<int64_t> Out;
  for (int64_t V = -W; V <= W; ++V)
    if (X.contains(V))
      Out.push_back(V);
  return Out;
}

class CongruenceUniverseTest : public ::testing::Test {
protected:
  CongruenceUniverseTest() {
    Universe.push_back(Congruence::bottom());
    Universe.push_back(Congruence::top());
    for (int64_t C = -6; C <= 6; ++C)
      Universe.push_back(Congruence::constant(C));
    for (int64_t M = 2; M <= 6; ++M)
      for (int64_t R = 0; R < M; ++R)
        Universe.push_back(Congruence(M, R));
  }

  /// Set inclusion over the window. For this universe (moduli <= 6,
  /// constants within [-6, 6]) a real counterexample to inclusion of
  /// two proper classes exists below lcm of the moduli (<= 30), so
  /// window inclusion is genuine inclusion.
  static bool setIncluded(const Congruence &X, const Congruence &Y) {
    for (int64_t V : members(X))
      if (!Y.contains(V))
        return false;
    return true;
  }

  CongruenceDomain D;
  std::vector<Congruence> Universe;
};

//===----------------------------------------------------------------------===//
// Representation
//===----------------------------------------------------------------------===//

TEST_F(CongruenceUniverseTest, MakeCanonicalizes) {
  // The residue is reduced into [0, |M|) and M is kept positive.
  EXPECT_EQ(D.make(4, 7), Congruence(4, 3));
  EXPECT_EQ(D.make(4, -1), Congruence(4, 3));
  EXPECT_EQ(D.make(-4, 3), Congruence::bottom());
  EXPECT_EQ(D.make(0, -7), Congruence::constant(-7));
  EXPECT_EQ(D.make(1, 5), Congruence::top());
  EXPECT_TRUE(D.make(-1, 99).isBottom());
}

TEST_F(CongruenceUniverseTest, ContainsMatchesDefinition) {
  EXPECT_TRUE(Congruence(2, 0).contains(-4));
  EXPECT_FALSE(Congruence(2, 0).contains(7));
  EXPECT_TRUE(Congruence(2, 1).contains(-3));
  EXPECT_TRUE(Congruence(3, 2).contains(-1));
  EXPECT_TRUE(Congruence::constant(-5).contains(-5));
  EXPECT_FALSE(Congruence::constant(-5).contains(5));
  EXPECT_FALSE(Congruence::bottom().contains(0));
  for (int64_t V = -9; V <= 9; ++V)
    EXPECT_TRUE(Congruence::top().contains(V));
}

TEST_F(CongruenceUniverseTest, Rendering) {
  EXPECT_EQ(Congruence::bottom().str(), "_|_");
  EXPECT_EQ(Congruence::top().str(), "Z");
  EXPECT_EQ(Congruence::constant(3).str(), "{3}");
  EXPECT_EQ(Congruence(2, 0).str(), "2Z");
  EXPECT_EQ(Congruence(2, 1).str(), "2Z+1");
  EXPECT_EQ(Congruence(5, 3).str(), "5Z+3");
}

//===----------------------------------------------------------------------===//
// The order and the lattice operations, exhaustively
//===----------------------------------------------------------------------===//

TEST_F(CongruenceUniverseTest, LeqIsSetInclusion) {
  for (const Congruence &X : Universe)
    for (const Congruence &Y : Universe)
      EXPECT_EQ(D.leq(X, Y), setIncluded(X, Y))
          << X.str() << " vs " << Y.str();
}

TEST_F(CongruenceUniverseTest, LeqIsAPartialOrder) {
  for (const Congruence &X : Universe) {
    EXPECT_TRUE(D.leq(X, X)) << X.str();
    for (const Congruence &Y : Universe) {
      if (D.leq(X, Y) && D.leq(Y, X)) {
        EXPECT_EQ(X, Y) << X.str() << " vs " << Y.str();
      }
      for (const Congruence &Z : Universe)
        if (D.leq(X, Y) && D.leq(Y, Z)) {
          EXPECT_TRUE(D.leq(X, Z))
              << X.str() << " <= " << Y.str() << " <= " << Z.str();
        }
    }
  }
}

TEST_F(CongruenceUniverseTest, JoinIsTheLeastUpperBound) {
  for (const Congruence &X : Universe)
    for (const Congruence &Y : Universe) {
      Congruence J = D.join(X, Y);
      EXPECT_EQ(J, D.join(Y, X)) << X.str() << " v " << Y.str();
      EXPECT_TRUE(D.leq(X, J)) << X.str() << " v " << Y.str();
      EXPECT_TRUE(D.leq(Y, J)) << X.str() << " v " << Y.str();
      // Least among every universe upper bound. The universe is closed
      // under join for these moduli (gcds of 0..6 stay in 0..6), so
      // this pins the exact lub, not just an upper bound.
      for (const Congruence &U : Universe)
        if (D.leq(X, U) && D.leq(Y, U)) {
          EXPECT_TRUE(D.leq(J, U))
              << X.str() << " v " << Y.str() << " vs bound " << U.str();
        }
    }
  // gcd spot checks from the Granger construction.
  EXPECT_EQ(D.join(Congruence(4, 1), Congruence(4, 3)), Congruence(2, 1));
  EXPECT_EQ(D.join(Congruence::constant(3), Congruence::constant(7)),
            Congruence(4, 3));
  EXPECT_EQ(D.join(Congruence(2, 0), Congruence::constant(5)),
            Congruence::top());
  EXPECT_EQ(D.join(Congruence(6, 2), Congruence(4, 0)), Congruence(2, 0));
}

TEST_F(CongruenceUniverseTest, MeetIsExactOnSmallModuli) {
  // No CRT overflow is possible here, so the meet must be the exact
  // intersection: same member set over the window, and the greatest
  // universe lower bound.
  for (const Congruence &X : Universe)
    for (const Congruence &Y : Universe) {
      Congruence M = D.meet(X, Y);
      EXPECT_TRUE(D.leq(M, X)) << X.str() << " ^ " << Y.str();
      EXPECT_TRUE(D.leq(M, Y)) << X.str() << " ^ " << Y.str();
      std::vector<int64_t> Want;
      for (int64_t V : members(X))
        if (Y.contains(V))
          Want.push_back(V);
      EXPECT_EQ(members(M), Want) << X.str() << " ^ " << Y.str();
      for (const Congruence &L : Universe)
        if (D.leq(L, X) && D.leq(L, Y)) {
          EXPECT_TRUE(D.leq(L, M))
              << X.str() << " ^ " << Y.str() << " vs bound " << L.str();
        }
    }
  // CRT spot checks.
  EXPECT_EQ(D.meet(Congruence(2, 0), Congruence(3, 1)), Congruence(6, 4));
  EXPECT_EQ(D.meet(Congruence(4, 1), Congruence(6, 5)), Congruence(12, 5));
  EXPECT_TRUE(D.meet(Congruence(2, 0), Congruence(2, 1)).isBottom());
  EXPECT_TRUE(D.meet(Congruence::constant(3), Congruence(2, 0)).isBottom());
}

TEST_F(CongruenceUniverseTest, WideningStabilizesAlongDivisibility) {
  // widen = join; every ascending chain 0 | ... | 4 | 2 | 1 on the
  // moduli is finite. Folding the whole universe in any order must
  // stabilize, and one more widen with anything already absorbed is a
  // no-op.
  Congruence Acc = Congruence::bottom();
  unsigned Changes = 0;
  for (const Congruence &X : Universe) {
    Congruence Next = D.widen(Acc, X);
    EXPECT_TRUE(D.leq(Acc, Next));
    EXPECT_TRUE(D.leq(X, Next));
    Changes += !(Next == Acc);
    Acc = Next;
  }
  EXPECT_TRUE(Acc.isTop());
  // Modulus chain 0 -> M -> ... -> 1 plus the bottom step: the fold can
  // strictly grow only a handful of times.
  EXPECT_LE(Changes, 6u);
  for (const Congruence &X : Universe)
    EXPECT_EQ(D.widen(Acc, X), Acc);
}

TEST_F(CongruenceUniverseTest, NarrowRefinesOnlyTop) {
  for (const Congruence &X : Universe)
    for (const Congruence &Y : Universe) {
      Congruence N = D.narrow(X, Y);
      if (X.isBottom() || Y.isBottom()) {
        EXPECT_TRUE(N.isBottom());
        continue;
      }
      EXPECT_EQ(N, X.isTop() ? Y : X) << X.str() << " /~ " << Y.str();
      // The §6.1 contract: narrowing never goes above its left input,
      // and keeps anything below it that the right input kept.
      EXPECT_TRUE(D.leq(N, X));
      if (D.leq(Y, X)) {
        EXPECT_TRUE(D.leq(Y, N));
      }
    }
}

//===----------------------------------------------------------------------===//
// Arithmetic soundness against the set semantics
//===----------------------------------------------------------------------===//

TEST_F(CongruenceUniverseTest, ForwardOpsContainConcreteImages) {
  // Mathematical (non-saturating) semantics: for every pair of members
  // the concrete result lands in the abstract result. Division uses
  // C++ truncation, sound here because the domain only answers when
  // every member divides evenly.
  for (const Congruence &A : Universe) {
    if (A.isBottom())
      continue;
    std::vector<int64_t> As = members(A, 12);
    for (const Congruence &B : Universe) {
      if (B.isBottom())
        continue;
      std::vector<int64_t> Bs = members(B, 12);
      Congruence Add = D.add(A, B), Sub = D.sub(A, B), Mul = D.mul(A, B);
      Congruence Div = D.div(A, B), Mod = D.mod(A, B);
      for (int64_t X : As)
        for (int64_t Y : Bs) {
          EXPECT_TRUE(Add.contains(X + Y))
              << A.str() << " + " << B.str() << " at " << X << "," << Y;
          EXPECT_TRUE(Sub.contains(X - Y))
              << A.str() << " - " << B.str() << " at " << X << "," << Y;
          EXPECT_TRUE(Mul.contains(X * Y))
              << A.str() << " * " << B.str() << " at " << X << "," << Y;
          if (Y != 0) {
            EXPECT_TRUE(Div.contains(X / Y))
                << A.str() << " div " << B.str() << " at " << X << "," << Y;
            EXPECT_TRUE(Mod.contains(X % Y))
                << A.str() << " mod " << B.str() << " at " << X << "," << Y;
          }
        }
    }
    Congruence Neg = D.neg(A), Abs = D.abs(A), Sqr = D.sqr(A);
    for (int64_t X : As) {
      EXPECT_TRUE(Neg.contains(-X)) << "-" << A.str() << " at " << X;
      EXPECT_TRUE(Abs.contains(std::llabs(X))) << "|" << A.str() << "| at "
                                               << X;
      EXPECT_TRUE(Sqr.contains(X * X)) << A.str() << "^2 at " << X;
    }
  }
}

TEST_F(CongruenceUniverseTest, StrideLoopAlgebra) {
  // The shapes the product domain lives on: i in 2Z stays in 2Z under
  // i + 2, flips parity under i + 1, scales under i * k.
  Congruence Even(2, 0), Odd(2, 1);
  EXPECT_EQ(D.add(Even, D.constant(2)), Even);
  EXPECT_EQ(D.add(Even, D.constant(1)), Odd);
  EXPECT_EQ(D.add(Odd, Odd), Even);
  EXPECT_EQ(D.mul(Even, D.constant(3)), Congruence(6, 0));
  EXPECT_EQ(D.mul(Odd, D.constant(2)), Congruence(4, 2));
  EXPECT_EQ(D.sub(Odd, D.constant(2)), Odd);
  EXPECT_EQ(D.div(Congruence(6, 0), D.constant(2)), Congruence(3, 0));
  // 6Z+2 is exactly divisible by 2 elementwise: {...,2,8,14,...}/2 = 3Z+1.
  EXPECT_EQ(D.div(Congruence(6, 2), D.constant(2)), Congruence(3, 1));
  // 2 divides 6 but not the residue 5, so exact division must give up.
  EXPECT_EQ(D.div(Congruence(6, 5), D.constant(2)), D.top());
  EXPECT_EQ(D.sqr(Odd), Odd);
  // (2k)^2 lands in 4Z; the implementation keeps the coarser (still sound)
  // parity fact.
  EXPECT_TRUE(D.leq(Congruence(4, 0), D.sqr(Even)));
  EXPECT_EQ(D.sqr(Even), Even);
}

//===----------------------------------------------------------------------===//
// Comparison tests
//===----------------------------------------------------------------------===//

TEST_F(CongruenceUniverseTest, ComparisonsNeverRefuteWitnessedOutcomes) {
  const CmpOp Ops[] = {CmpOp::EQ, CmpOp::NE, CmpOp::LT,
                       CmpOp::LE, CmpOp::GT, CmpOp::GE};
  auto Holds = [](CmpOp Op, int64_t X, int64_t Y) {
    switch (Op) {
    case CmpOp::EQ:
      return X == Y;
    case CmpOp::NE:
      return X != Y;
    case CmpOp::LT:
      return X < Y;
    case CmpOp::LE:
      return X <= Y;
    case CmpOp::GT:
      return X > Y;
    case CmpOp::GE:
      return X >= Y;
    }
    return false;
  };
  for (const Congruence &A : Universe) {
    if (A.isBottom())
      continue;
    for (const Congruence &B : Universe) {
      if (B.isBottom())
        continue;
      std::vector<int64_t> As = members(A, 12), Bs = members(B, 12);
      for (CmpOp Op : Ops) {
        bool SeenTrue = false, SeenFalse = false;
        for (int64_t X : As)
          for (int64_t Y : Bs)
            (Holds(Op, X, Y) ? SeenTrue : SeenFalse) = true;
        if (SeenTrue) {
          EXPECT_TRUE(D.cmpMayBeTrue(Op, A, B))
              << A.str() << " op" << int(Op) << " " << B.str();
        }
        if (SeenFalse) {
          EXPECT_TRUE(D.cmpMayBeFalse(Op, A, B))
              << A.str() << " op" << int(Op) << " " << B.str();
        }
        // assumeCmp keeps every witness of the assumed outcome.
        auto Refined = D.assumeCmp(Op, A, B);
        EXPECT_TRUE(D.leq(Refined.first, A));
        EXPECT_TRUE(D.leq(Refined.second, B));
        for (int64_t X : As)
          for (int64_t Y : Bs)
            if (Holds(Op, X, Y)) {
              EXPECT_TRUE(Refined.first.contains(X))
                  << A.str() << " refined under op" << int(Op);
              EXPECT_TRUE(Refined.second.contains(Y))
                  << B.str() << " refined under op" << int(Op);
            }
      }
    }
  }
  // Disjoint stride classes refute equality -- the precision
  // cmpMayBeTrue adds over intervals.
  EXPECT_FALSE(D.cmpMayBeTrue(CmpOp::EQ, Congruence(2, 0), Congruence(2, 1)));
  EXPECT_FALSE(D.cmpMayBeFalse(CmpOp::NE, Congruence(2, 0), Congruence(2, 1)));
  EXPECT_TRUE(D.assumeCmp(CmpOp::EQ, Congruence(2, 0), Congruence(2, 1))
                  .first.isBottom());
}

} // namespace
