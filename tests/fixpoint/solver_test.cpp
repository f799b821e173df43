//===- tests/fixpoint/solver_test.cpp - Fixpoint solver tests -------------===//
//
// Exercises the generic solver on hand-built interval equation systems,
// including the paper's §6.1 example loop, for both iteration strategies
// and both fixpoint kinds.
//
//===----------------------------------------------------------------------===//

#include "fixpoint/Solver.h"
#include "lattice/Interval.h"

#include <gtest/gtest.h>

using namespace syntox;

namespace {

/// A small interval equation system: each node's RHS is the join over
/// incoming edges of a transfer applied to the source value, optionally
/// joined with a constant seed and met with a filter.
struct IntervalSystem {
  using Value = Interval;

  struct EdgeFn {
    unsigned From;
    int64_t AddOffset = 0;   ///< value + offset
    Interval Filter;         ///< meet with this after the offset
    EdgeFn(unsigned From, int64_t Off, Interval Filter)
        : From(From), AddOffset(Off), Filter(Filter) {}
  };

  IntervalDomain D;
  Digraph DepGraph;
  /// The WTO of DepGraph from node 0; the solver takes it as given, so
  /// every edge rebuilds it.
  Wto Order;
  std::vector<std::vector<EdgeFn>> Inflows; // per node
  std::vector<Interval> Seeds;              // per node, joined in

  explicit IntervalSystem(unsigned N)
      : DepGraph(N), Order(DepGraph, {0}), Inflows(N), Seeds(N) {}

  void addEdge(unsigned From, unsigned To, int64_t Off, Interval Filter) {
    Inflows[To].push_back(EdgeFn(From, Off, Filter));
    DepGraph.addEdge(From, To);
    Order = Wto(DepGraph, {0});
  }

  unsigned numNodes() const { return DepGraph.numNodes(); }
  const Digraph &graph() const { return DepGraph; }
  const Wto &wto() const { return Order; }

  Interval initialValue(unsigned, bool FromTop) const {
    return FromTop ? D.top() : D.bottom();
  }

  Interval evaluate(unsigned Node, const std::vector<Interval> &X) const {
    Interval Out = Seeds[Node];
    for (const EdgeFn &E : Inflows[Node]) {
      Interval V = X[E.From];
      if (E.AddOffset != 0)
        V = D.add(V, Interval::singleton(E.AddOffset));
      V = D.meet(V, E.Filter);
      Out = D.join(Out, V);
    }
    return Out;
  }

  bool leq(const Interval &A, const Interval &B) const { return D.leq(A, B); }
  bool equal(const Interval &A, const Interval &B) const { return A == B; }
  Interval widen(const Interval &A, const Interval &B) const {
    return D.widen(A, B);
  }
  Interval narrow(const Interval &A, const Interval &B) const {
    return D.narrow(A, B);
  }
};

/// The classic counting loop (paper §4/§6.1):
///   node 0: i := 0
///   node 1: loop head = join(node 0, node 3)
///   node 2: [i < 100](node 1)
///   node 3: [i := i + 1](node 2)
///   node 4: [i >= 100](node 1)
IntervalSystem countingLoop() {
  IntervalSystem S(5);
  S.Seeds[0] = Interval(0, 0);
  S.addEdge(0, 1, 0, S.D.top());
  S.addEdge(3, 1, 0, S.D.top());
  S.addEdge(1, 2, 0, S.D.make(INT64_MIN, 99));
  S.addEdge(2, 3, 1, S.D.top());
  S.addEdge(1, 4, 0, S.D.make(100, INT64_MAX));
  return S;
}

class StrategyTest : public ::testing::TestWithParam<IterationStrategy> {};

TEST_P(StrategyTest, CountingLoopOptimalAfterNarrowing) {
  IntervalSystem S = countingLoop();
  FixpointSolver<IntervalSystem>::Options Opts;
  Opts.Kind = FixpointKind::Lfp;
  Opts.Strategy = GetParam();
  FixpointSolver<IntervalSystem> Solver(S, Opts);
  std::vector<Interval> X = Solver.solve();
  // The paper's optimum: loop head [0,100], body entry [0,99],
  // after increment [1,100], exit [100,100].
  EXPECT_EQ(X[0], Interval(0, 0));
  EXPECT_EQ(X[1], Interval(0, 100));
  EXPECT_EQ(X[2], Interval(0, 99));
  EXPECT_EQ(X[3], Interval(1, 100));
  EXPECT_EQ(X[4], Interval(100, 100));
  EXPECT_GT(Solver.stats().Widenings, 0u);
  EXPECT_GT(Solver.stats().Narrowings, 0u);
}

TEST_P(StrategyTest, WithoutNarrowingTopRemains) {
  IntervalSystem S = countingLoop();
  FixpointSolver<IntervalSystem>::Options Opts;
  Opts.Strategy = GetParam();
  Opts.NarrowingPasses = 0;
  FixpointSolver<IntervalSystem> Solver(S, Opts);
  std::vector<Interval> X = Solver.solve();
  // Widening alone overshoots the loop head to [0, +oo] (paper §6.1).
  EXPECT_EQ(X[1], Interval(0, INT64_MAX));
  EXPECT_EQ(X[4], Interval(100, INT64_MAX));
}

INSTANTIATE_TEST_SUITE_P(BothStrategies, StrategyTest,
                         ::testing::Values(IterationStrategy::Recursive,
                                           IterationStrategy::Worklist),
                         [](const auto &Info) {
                           return Info.param == IterationStrategy::Recursive
                                      ? "Recursive"
                                      : "Worklist";
                         });

TEST(SolverTest, StraightLinePropagation) {
  IntervalSystem S(3);
  S.Seeds[0] = Interval(5, 10);
  S.addEdge(0, 1, 3, S.D.top());
  S.addEdge(1, 2, -1, S.D.top());
  FixpointSolver<IntervalSystem>::Options Opts;
  FixpointSolver<IntervalSystem> Solver(S, Opts);
  std::vector<Interval> X = Solver.solve();
  EXPECT_EQ(X[1], Interval(8, 13));
  EXPECT_EQ(X[2], Interval(7, 12));
}

TEST(SolverTest, UnreachableNodesStayBottom) {
  IntervalSystem S(3);
  S.Seeds[0] = Interval(1, 1);
  S.addEdge(0, 1, 0, S.D.top());
  // Node 2 has no inflows and no seed.
  FixpointSolver<IntervalSystem>::Options Opts;
  FixpointSolver<IntervalSystem> Solver(S, Opts);
  std::vector<Interval> X = Solver.solve();
  EXPECT_TRUE(X[2].isBottom());
}

TEST(SolverTest, GfpFromTopDescends) {
  // X0 = X0 meet [0,50]; X1 = X0 + 1. Gfp: X0 = [0,50], X1 = [1,51].
  IntervalSystem S(2);
  S.addEdge(0, 0, 0, S.D.make(0, 50));
  S.addEdge(0, 1, 1, S.D.top());
  FixpointSolver<IntervalSystem>::Options Opts;
  Opts.Kind = FixpointKind::Gfp;
  FixpointSolver<IntervalSystem> Solver(S, Opts);
  std::vector<Interval> X = Solver.solve();
  EXPECT_EQ(X[0], Interval(0, 50));
  EXPECT_EQ(X[1], Interval(1, 51));
}

TEST(SolverTest, GfpDecreasingLoopTerminates) {
  // X0 = (X0 - 1) meet [0, 100]: the exact gfp is [0, 99]; narrowing
  // must terminate and produce a sound (larger or equal) result.
  IntervalSystem S(1);
  S.addEdge(0, 0, -1, S.D.make(0, 100));
  FixpointSolver<IntervalSystem>::Options Opts;
  Opts.Kind = FixpointKind::Gfp;
  FixpointSolver<IntervalSystem> Solver(S, Opts);
  std::vector<Interval> X = Solver.solve();
  EXPECT_TRUE(S.D.leq(S.D.make(0, 99), X[0]));
  EXPECT_TRUE(S.D.leq(X[0], S.D.make(0, 100)));
}

TEST(SolverTest, NestedLoopsConverge) {
  // Outer loop over i with an inner loop over j; checks the recursive
  // strategy stabilizes nested components.
  //   0: i := 0
  //   1: outer head = join(0, 5)
  //   2: [i < 10](1)        (enter inner, j plays no role here)
  //   3: inner head = join(2, 4)
  //   4: [i < 10](3)        (inner body keeps i)
  //   5: [i := i + 1](3)    (leave inner, increment)
  //   6: [i >= 10](1)
  IntervalSystem S(7);
  S.Seeds[0] = Interval(0, 0);
  S.addEdge(0, 1, 0, S.D.top());
  S.addEdge(5, 1, 0, S.D.top());
  S.addEdge(1, 2, 0, S.D.make(INT64_MIN, 9));
  S.addEdge(2, 3, 0, S.D.top());
  S.addEdge(3, 4, 0, S.D.make(INT64_MIN, 9));
  S.addEdge(4, 3, 0, S.D.top());
  S.addEdge(3, 5, 1, S.D.top());
  S.addEdge(1, 6, 0, S.D.make(10, INT64_MAX));
  FixpointSolver<IntervalSystem>::Options Opts;
  FixpointSolver<IntervalSystem> Solver(S, Opts);
  std::vector<Interval> X = Solver.solve();
  EXPECT_EQ(X[1], Interval(0, 10));
  EXPECT_EQ(X[6], Interval(10, 10));
  // The WTO must show the nesting.
  EXPECT_TRUE(Solver.wto().isHead(1));
  EXPECT_TRUE(Solver.wto().isHead(3));
  EXPECT_EQ(Solver.wto().depth(4), 2u);
}

/// IntervalSystem plus the optional warm-start concept method: per-node
/// dirty bits modelling "this node's seed was edited between rounds".
/// (The plain IntervalSystem lacks the method, which exercises the
/// trait-default path: absent means always unchanged.)
struct DirtyIntervalSystem : IntervalSystem {
  std::vector<uint8_t> Unchanged;
  explicit DirtyIntervalSystem(unsigned N)
      : IntervalSystem(N), Unchanged(N, 1) {}
  bool externalInputsUnchanged(unsigned Node) const {
    return Unchanged[Node];
  }
};

class WarmStartTest : public ::testing::TestWithParam<IterationStrategy> {};

TEST_P(WarmStartTest, IdenticalResolveIsFullyReplayed) {
  IntervalSystem S = countingLoop();
  WarmStartMemo<Interval> Memo;
  FixpointSolver<IntervalSystem>::Options Opts;
  Opts.Strategy = GetParam();
  Opts.Memo = &Memo;

  FixpointSolver<IntervalSystem> Cold(S, Opts);
  std::vector<Interval> X0 = Cold.solve();
  EXPECT_TRUE(Memo.Valid);
  EXPECT_EQ(Cold.stats().ComponentSkips, 0u);
  uint64_t ColdSteps =
      Cold.stats().AscendingSteps + Cold.stats().DescendingSteps;

  // Nothing changed, so the warm run replays every element: zero live
  // evaluations, and the skipped-step tally accounts for exactly the
  // work the cold run performed.
  FixpointSolver<IntervalSystem> Warm(S, Opts);
  std::vector<Interval> X1 = Warm.solve();
  EXPECT_EQ(X0, X1);
  EXPECT_GT(Warm.stats().ComponentSkips, 0u);
  EXPECT_EQ(Warm.stats().AscendingSteps + Warm.stats().DescendingSteps, 0u);
  EXPECT_EQ(Warm.stats().SkippedSteps, ColdSteps);
  for (uint8_t Replayed : Warm.fullyReplayedElements())
    EXPECT_TRUE(Replayed);
}

TEST_P(WarmStartTest, DirtySeedForcesRecomputationAndStaysExact) {
  DirtyIntervalSystem S(5);
  S.Seeds[0] = Interval(0, 0);
  S.addEdge(0, 1, 0, S.D.top());
  S.addEdge(3, 1, 0, S.D.top());
  S.addEdge(1, 2, 0, S.D.make(INT64_MIN, 99));
  S.addEdge(2, 3, 1, S.D.top());
  S.addEdge(1, 4, 0, S.D.make(100, INT64_MAX));

  WarmStartMemo<Interval> Memo;
  FixpointSolver<DirtyIntervalSystem>::Options Opts;
  Opts.Strategy = GetParam();
  Opts.Memo = &Memo;
  FixpointSolver<DirtyIntervalSystem>(S, Opts).solve();

  // Edit the entry seed and mark node 0 dirty: the warm run must produce
  // exactly what a cold run over the edited system produces.
  S.Seeds[0] = Interval(5, 5);
  S.Unchanged[0] = 0;
  FixpointSolver<DirtyIntervalSystem> Warm(S, Opts);
  std::vector<Interval> XWarm = Warm.solve();

  FixpointSolver<DirtyIntervalSystem>::Options ColdOpts;
  ColdOpts.Strategy = GetParam();
  FixpointSolver<DirtyIntervalSystem> Cold(S, ColdOpts);
  EXPECT_EQ(XWarm, Cold.solve());
}

TEST_P(WarmStartTest, UpstreamEditInvalidatesDownstreamReplay) {
  // Two straight-line nodes feeding a loop: editing the straight-line
  // seed changes the loop's inputs, so the loop component must be
  // re-iterated, not replayed — and the result must match a cold solve.
  DirtyIntervalSystem S(4);
  S.Seeds[0] = Interval(0, 0);
  S.addEdge(0, 1, 2, S.D.top());
  S.addEdge(1, 2, 0, S.D.top());
  S.addEdge(3, 2, 0, S.D.top());
  S.addEdge(2, 3, 1, S.D.make(INT64_MIN, 50));

  WarmStartMemo<Interval> Memo;
  FixpointSolver<DirtyIntervalSystem>::Options Opts;
  Opts.Strategy = GetParam();
  Opts.Memo = &Memo;
  FixpointSolver<DirtyIntervalSystem>(S, Opts).solve();

  S.Seeds[0] = Interval(10, 10);
  S.Unchanged[0] = 0;
  FixpointSolver<DirtyIntervalSystem> Warm(S, Opts);
  std::vector<Interval> XWarm = Warm.solve();
  for (unsigned I = 0; I < 4; ++I)
    EXPECT_FALSE(Warm.fullyReplayedElements()[Warm.wto().topElement(I)])
        << "node " << I << " sits downstream of the edit";

  FixpointSolver<DirtyIntervalSystem>::Options ColdOpts;
  ColdOpts.Strategy = GetParam();
  FixpointSolver<DirtyIntervalSystem> Cold(S, ColdOpts);
  EXPECT_EQ(XWarm, Cold.solve());
}

TEST_P(WarmStartTest, GfpReplayIsExactToo) {
  IntervalSystem S(2);
  S.addEdge(0, 0, 0, S.D.make(0, 50));
  S.addEdge(0, 1, 1, S.D.top());
  WarmStartMemo<Interval> Memo;
  FixpointSolver<IntervalSystem>::Options Opts;
  Opts.Kind = FixpointKind::Gfp;
  Opts.Strategy = GetParam();
  Opts.Memo = &Memo;
  std::vector<Interval> X0 = FixpointSolver<IntervalSystem>(S, Opts).solve();
  FixpointSolver<IntervalSystem> Warm(S, Opts);
  EXPECT_EQ(Warm.solve(), X0);
  EXPECT_GT(Warm.stats().ComponentSkips, 0u);
}

TEST(WarmStartTest, StrategyMismatchInvalidatesMemo) {
  // A memo recorded under one strategy must not seed replay under
  // another: the sweep boundaries are strategy-specific.
  IntervalSystem S = countingLoop();
  WarmStartMemo<Interval> Memo;
  FixpointSolver<IntervalSystem>::Options Rec;
  Rec.Memo = &Memo;
  std::vector<Interval> X0 = FixpointSolver<IntervalSystem>(S, Rec).solve();

  FixpointSolver<IntervalSystem>::Options Wl;
  Wl.Strategy = IterationStrategy::Worklist;
  Wl.Memo = &Memo;
  FixpointSolver<IntervalSystem> Warm(S, Wl);
  EXPECT_EQ(Warm.solve(), X0);
  EXPECT_EQ(Warm.stats().ComponentSkips, 0u);
  // The mismatched run re-records, so a second worklist run replays.
  FixpointSolver<IntervalSystem> Warm2(S, Wl);
  EXPECT_EQ(Warm2.solve(), X0);
  EXPECT_GT(Warm2.stats().ComponentSkips, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, WarmStartTest,
                         ::testing::Values(IterationStrategy::Recursive,
                                           IterationStrategy::Worklist),
                         [](const auto &Info) {
                           return Info.param == IterationStrategy::Recursive
                                      ? "Recursive"
                                      : "Worklist";
                         });

TEST(SolverTest, FourStepConvergenceClaim) {
  // Paper §6.1: with widening and narrowing, the per-equation cost is
  // about four iterations. The counting loop has 5 equations; the total
  // step count must stay within a small constant factor of that.
  IntervalSystem S = countingLoop();
  FixpointSolver<IntervalSystem>::Options Opts;
  FixpointSolver<IntervalSystem> Solver(S, Opts);
  Solver.solve();
  uint64_t Total =
      Solver.stats().AscendingSteps + Solver.stats().DescendingSteps;
  EXPECT_LE(Total, 5u * 8u) << "fixpoint took unexpectedly many steps";
}

} // namespace
