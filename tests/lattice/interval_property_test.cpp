//===- tests/lattice/interval_property_test.cpp - Exhaustive sweeps -------===//
//
// Property tests for the interval domain, checked *exhaustively* against a
// tiny Z_b = [-6, 5]: lattice laws, widening termination, narrowing
// soundness, and — crucially for abstract debugging — soundness of every
// forward and backward operator with respect to the concrete (saturating)
// semantics.
//
//===----------------------------------------------------------------------===//

#include "lattice/Interval.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

using namespace syntox;

namespace {

constexpr int64_t TinyMin = -6;
constexpr int64_t TinyMax = 5;

/// Enumerates every interval of the tiny domain, bottom included.
std::vector<Interval> allIntervals() {
  std::vector<Interval> Out;
  Out.push_back(Interval::bottom());
  for (int64_t Lo = TinyMin; Lo <= TinyMax; ++Lo)
    for (int64_t Hi = Lo; Hi <= TinyMax; ++Hi)
      Out.push_back(Interval(Lo, Hi));
  return Out;
}

int64_t clampTiny(__int128 V) {
  if (V < TinyMin)
    return TinyMin;
  if (V > TinyMax)
    return TinyMax;
  return static_cast<int64_t>(V);
}

/// Concrete saturating semantics matching the abstract domain (division and
/// modulo are partial: nullopt when the divisor is zero).
std::optional<int64_t> concreteOp(int Op, int64_t A, int64_t B) {
  switch (Op) {
  case 0:
    return clampTiny(static_cast<__int128>(A) + B);
  case 1:
    return clampTiny(static_cast<__int128>(A) - B);
  case 2:
    return clampTiny(static_cast<__int128>(A) * B);
  case 3:
    if (B == 0)
      return std::nullopt;
    return clampTiny(static_cast<__int128>(A) / B);
  case 4:
    if (B == 0)
      return std::nullopt;
    return clampTiny(static_cast<__int128>(A) % B);
  }
  return std::nullopt;
}

class IntervalExhaustiveTest : public ::testing::TestWithParam<int> {
protected:
  IntervalDomain D{TinyMin, TinyMax};
  std::vector<Interval> All = allIntervals();

  Interval fwd(int Op, const Interval &A, const Interval &B) {
    switch (Op) {
    case 0:
      return D.add(A, B);
    case 1:
      return D.sub(A, B);
    case 2:
      return D.mul(A, B);
    case 3:
      return D.div(A, B);
    case 4:
      return D.mod(A, B);
    }
    return D.top();
  }

  std::pair<Interval, Interval> bwd(int Op, const Interval &R,
                                    const Interval &A, const Interval &B) {
    switch (Op) {
    case 0:
      return D.bwdAdd(R, A, B);
    case 1:
      return D.bwdSub(R, A, B);
    case 2:
      return D.bwdMul(R, A, B);
    case 3:
      return D.bwdDiv(R, A, B);
    case 4:
      return D.bwdMod(R, A, B);
    }
    return {A, B};
  }
};

/// Forward soundness: for all a in A, b in B, op(a,b) in fwd(A,B).
TEST_P(IntervalExhaustiveTest, ForwardOpIsSound) {
  int Op = GetParam();
  for (const Interval &A : All) {
    for (const Interval &B : All) {
      Interval R = fwd(Op, A, B);
      for (int64_t X = A.Lo; X <= A.Hi; ++X) {
        for (int64_t Y = B.Lo; Y <= B.Hi; ++Y) {
          std::optional<int64_t> C = concreteOp(Op, X, Y);
          if (!C)
            continue;
          ASSERT_TRUE(R.contains(*C))
              << "op=" << Op << " " << X << "," << Y << " -> " << *C
              << " not in " << R.str() << " from " << A.str() << " x "
              << B.str();
        }
      }
    }
  }
}

/// Backward soundness: if op(a,b) in R then (a,b) survives bwd refinement.
TEST_P(IntervalExhaustiveTest, BackwardOpIsSound) {
  int Op = GetParam();
  for (const Interval &R : All) {
    if (R.isBottom())
      continue;
    for (const Interval &A : All) {
      for (const Interval &B : All) {
        auto [NewA, NewB] = bwd(Op, R, A, B);
        ASSERT_TRUE(D.leq(NewA, A)) << "refinement must not grow A";
        ASSERT_TRUE(D.leq(NewB, B)) << "refinement must not grow B";
        for (int64_t X = A.Lo; X <= A.Hi; ++X) {
          for (int64_t Y = B.Lo; Y <= B.Hi; ++Y) {
            std::optional<int64_t> C = concreteOp(Op, X, Y);
            if (!C || !R.contains(*C))
              continue;
            ASSERT_TRUE(NewA.contains(X) && NewB.contains(Y))
                << "op=" << Op << " (" << X << "," << Y << ") -> " << *C
                << " in R=" << R.str() << " lost: A=" << A.str() << "->"
                << NewA.str() << " B=" << B.str() << "->" << NewB.str();
          }
        }
      }
    }
  }
}

std::string binaryOpName(const ::testing::TestParamInfo<int> &Info) {
  static const char *const Names[] = {"Add", "Sub", "Mul", "Div", "Mod"};
  return Names[Info.param];
}

INSTANTIATE_TEST_SUITE_P(AllBinaryOps, IntervalExhaustiveTest,
                         ::testing::Values(0, 1, 2, 3, 4), binaryOpName);

//===----------------------------------------------------------------------===//
// Unary operators
//===----------------------------------------------------------------------===//

TEST(IntervalExhaustiveUnary, NegAbsSqrSoundness) {
  IntervalDomain D(TinyMin, TinyMax);
  for (const Interval &A : allIntervals()) {
    Interval N = D.neg(A), Ab = D.abs(A), Sq = D.sqr(A);
    for (int64_t X = A.Lo; X <= A.Hi; ++X) {
      EXPECT_TRUE(N.contains(clampTiny(-static_cast<__int128>(X))));
      EXPECT_TRUE(Ab.contains(clampTiny(X < 0 ? -static_cast<__int128>(X)
                                              : static_cast<__int128>(X))));
      EXPECT_TRUE(Sq.contains(clampTiny(static_cast<__int128>(X) * X)));
    }
  }
}

TEST(IntervalExhaustiveUnary, BackwardNegAbsSqrSoundness) {
  IntervalDomain D(TinyMin, TinyMax);
  std::vector<Interval> All = allIntervals();
  for (const Interval &R : All) {
    if (R.isBottom())
      continue;
    for (const Interval &A : All) {
      Interval NN = D.bwdNeg(R, A), NA = D.bwdAbs(R, A), NS = D.bwdSqr(R, A);
      EXPECT_TRUE(D.leq(NN, A));
      EXPECT_TRUE(D.leq(NA, A));
      EXPECT_TRUE(D.leq(NS, A));
      for (int64_t X = A.Lo; X <= A.Hi; ++X) {
        if (R.contains(clampTiny(-static_cast<__int128>(X)))) {
          EXPECT_TRUE(NN.contains(X)) << "bwdNeg lost " << X;
        }
        int64_t AbsX = clampTiny(X < 0 ? -static_cast<__int128>(X)
                                       : static_cast<__int128>(X));
        if (R.contains(AbsX)) {
          EXPECT_TRUE(NA.contains(X)) << "bwdAbs lost " << X;
        }
        if (R.contains(clampTiny(static_cast<__int128>(X) * X))) {
          EXPECT_TRUE(NS.contains(X)) << "bwdSqr lost " << X;
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Lattice laws
//===----------------------------------------------------------------------===//

TEST(IntervalLatticeLaws, JoinMeetLaws) {
  IntervalDomain D(TinyMin, TinyMax);
  std::vector<Interval> All = allIntervals();
  for (const Interval &X : All) {
    EXPECT_EQ(D.join(X, X), X) << "join idempotent";
    EXPECT_EQ(D.meet(X, X), X) << "meet idempotent";
    EXPECT_EQ(D.join(X, D.bottom()), X);
    EXPECT_EQ(D.meet(X, D.top()), X);
    for (const Interval &Y : All) {
      EXPECT_EQ(D.join(X, Y), D.join(Y, X)) << "join commutative";
      EXPECT_EQ(D.meet(X, Y), D.meet(Y, X)) << "meet commutative";
      EXPECT_TRUE(D.leq(X, D.join(X, Y))) << "join is an upper bound";
      EXPECT_TRUE(D.leq(D.meet(X, Y), X)) << "meet is a lower bound";
      EXPECT_EQ(D.meet(X, D.join(X, Y)), X) << "absorption";
      // Connection between order and join.
      EXPECT_EQ(D.leq(X, Y), D.join(X, Y) == Y);
    }
  }
}

TEST(IntervalLatticeLaws, JoinMeetAssociative) {
  IntervalDomain D(-3, 3); // smaller: triples are cubic
  std::vector<Interval> All;
  All.push_back(Interval::bottom());
  for (int64_t Lo = -3; Lo <= 3; ++Lo)
    for (int64_t Hi = Lo; Hi <= 3; ++Hi)
      All.push_back(Interval(Lo, Hi));
  for (const Interval &X : All)
    for (const Interval &Y : All)
      for (const Interval &Z : All) {
        EXPECT_EQ(D.join(D.join(X, Y), Z), D.join(X, D.join(Y, Z)));
        EXPECT_EQ(D.meet(D.meet(X, Y), Z), D.meet(X, D.meet(Y, Z)));
      }
}

TEST(IntervalLatticeLaws, WideningIsUpperBound) {
  IntervalDomain D(TinyMin, TinyMax);
  std::vector<Interval> All = allIntervals();
  for (const Interval &X : All)
    for (const Interval &Y : All) {
      Interval W = D.widen(X, Y);
      EXPECT_TRUE(D.leq(X, W)) << "x <= x V y";
      EXPECT_TRUE(D.leq(Y, W)) << "y <= x V y";
      EXPECT_TRUE(D.leq(D.join(X, Y), W)) << "x U y <= x V y";
    }
}

/// The paper §6.1 remark: the widening stabilizes any increasing chain in
/// at most four distinct values (bottom, a finite interval, one bound at
/// omega, both bounds at omega).
TEST(IntervalLatticeLaws, WideningChainsStabilizeInFourSteps) {
  IntervalDomain D(TinyMin, TinyMax);
  std::vector<Interval> All = allIntervals();
  // Drive the chain x_{i+1} = x_i V y_i with every pair sequence of length
  // up to 3 starting from bottom; count distinct chain values.
  for (const Interval &Y0 : All)
    for (const Interval &Y1 : All)
      for (const Interval &Y2 : All) {
        Interval X = Interval::bottom();
        int Changes = 0;
        for (const Interval *Y : {&Y0, &Y1, &Y2, &Y0, &Y1, &Y2}) {
          Interval Next = D.widen(X, *Y);
          if (!(Next == X))
            ++Changes;
          X = Next;
        }
        EXPECT_LE(Changes, 3) << "at most 4 distinct values incl. bottom";
      }
}

TEST(IntervalLatticeLaws, NarrowingSoundOnDecreasingPairs) {
  IntervalDomain D(TinyMin, TinyMax);
  std::vector<Interval> All = allIntervals();
  for (const Interval &X : All)
    for (const Interval &Y : All) {
      if (!D.leq(Y, X))
        continue; // narrowing contract only applies to decreasing chains
      Interval N = D.narrow(X, Y);
      EXPECT_TRUE(D.leq(Y, N)) << "y <= x A y (does not lose y)";
      EXPECT_TRUE(D.leq(N, X)) << "x A y <= x (refines x)";
    }
}

TEST(IntervalLatticeLaws, NarrowingChainsStabilize) {
  IntervalDomain D(TinyMin, TinyMax);
  // Repeatedly narrowing with the same value is stationary after one step.
  std::vector<Interval> All = allIntervals();
  for (const Interval &X : All)
    for (const Interval &Y : All) {
      if (!D.leq(Y, X))
        continue;
      Interval N1 = D.narrow(X, Y);
      Interval N2 = D.narrow(N1, Y);
      EXPECT_EQ(N1, N2);
    }
}

TEST(IntervalLatticeLaws, ThresholdWideningIsAWidening) {
  IntervalDomain D(TinyMin, TinyMax);
  std::vector<int64_t> Thresholds = {-4, 0, 2};
  std::vector<Interval> All = allIntervals();
  for (const Interval &X : All)
    for (const Interval &Y : All) {
      Interval W = D.widenWithThresholds(X, Y, Thresholds);
      EXPECT_TRUE(D.leq(D.join(X, Y), W));
      // Stricter than the standard widening (never coarser).
      EXPECT_TRUE(D.leq(W, D.widen(X, Y)));
    }
}

//===----------------------------------------------------------------------===//
// Comparison assumption soundness
//===----------------------------------------------------------------------===//

bool concreteCmp(CmpOp Op, int64_t A, int64_t B) {
  switch (Op) {
  case CmpOp::EQ:
    return A == B;
  case CmpOp::NE:
    return A != B;
  case CmpOp::LT:
    return A < B;
  case CmpOp::LE:
    return A <= B;
  case CmpOp::GT:
    return A > B;
  case CmpOp::GE:
    return A >= B;
  }
  return false;
}

class CmpExhaustiveTest : public ::testing::TestWithParam<CmpOp> {};

TEST_P(CmpExhaustiveTest, AssumeCmpSound) {
  CmpOp Op = GetParam();
  IntervalDomain D(TinyMin, TinyMax);
  std::vector<Interval> All = allIntervals();
  for (const Interval &A : All) {
    for (const Interval &B : All) {
      auto [NewA, NewB] = D.assumeCmp(Op, A, B);
      EXPECT_TRUE(D.leq(NewA, A));
      EXPECT_TRUE(D.leq(NewB, B));
      bool AnyTrue = false;
      for (int64_t X = A.Lo; X <= A.Hi; ++X)
        for (int64_t Y = B.Lo; Y <= B.Hi; ++Y) {
          if (!concreteCmp(Op, X, Y))
            continue;
          AnyTrue = true;
          EXPECT_TRUE(NewA.contains(X) && NewB.contains(Y))
              << cmpOpName(Op) << " lost (" << X << "," << Y << ") from "
              << A.str() << " x " << B.str();
        }
      EXPECT_EQ(AnyTrue, D.cmpMayBeTrue(Op, A, B))
          << cmpOpName(Op) << " on " << A.str() << " x " << B.str();
      if (!AnyTrue) {
        EXPECT_TRUE(NewA.isBottom());
        EXPECT_TRUE(NewB.isBottom());
      }
    }
  }
}

std::string cmpParamName(const ::testing::TestParamInfo<CmpOp> &Info) {
  switch (Info.param) {
  case CmpOp::EQ:
    return "EQ";
  case CmpOp::NE:
    return "NE";
  case CmpOp::LT:
    return "LT";
  case CmpOp::LE:
    return "LE";
  case CmpOp::GT:
    return "GT";
  case CmpOp::GE:
    return "GE";
  }
  return "unknown";
}

INSTANTIATE_TEST_SUITE_P(AllCmpOps, CmpExhaustiveTest,
                         ::testing::Values(CmpOp::EQ, CmpOp::NE, CmpOp::LT,
                                           CmpOp::LE, CmpOp::GT, CmpOp::GE),
                         cmpParamName);

} // namespace
