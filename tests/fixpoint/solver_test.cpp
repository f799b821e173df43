//===- tests/fixpoint/solver_test.cpp - Fixpoint solver tests -------------===//
//
// Exercises the generic solver on hand-built interval equation systems,
// including the paper's §6.1 example loop, for both fixpoint kinds.
//
//===----------------------------------------------------------------------===//

#include "fixpoint/Solver.h"
#include "lattice/Interval.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

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
  std::vector<Digraph::Edge> DepEdges;
  Digraph DepGraph;
  /// The WTO of DepGraph from node 0; the solver takes it as given, so
  /// every edge rebuilds it.
  Wto Order;
  std::vector<std::vector<EdgeFn>> Inflows; // per node
  std::vector<Interval> Seeds;              // per node, joined in
  /// evaluate() calls so far: the work a solve actually did.
  mutable uint64_t Evaluations = 0;

  explicit IntervalSystem(unsigned N)
      : DepGraph(N), Order(DepGraph, {0}), Inflows(N), Seeds(N) {}

  void addEdge(unsigned From, unsigned To, int64_t Off, Interval Filter) {
    Inflows[To].push_back(EdgeFn(From, Off, Filter));
    DepEdges.push_back({From, To});
    DepGraph = Digraph(numNodes(), DepEdges);
    Order = Wto(DepGraph, {0});
  }

  unsigned numNodes() const { return DepGraph.numNodes(); }
  const Wto &wto() const { return Order; }

  Interval initialValue(unsigned, bool FromTop) const {
    return FromTop ? D.top() : D.bottom();
  }

  Interval evaluate(unsigned Node, const std::vector<Interval> &X) const {
    ++Evaluations;
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

TEST(SolverTest, CountingLoopOptimalAfterNarrowing) {
  IntervalSystem S = countingLoop();
  FixpointSolver<IntervalSystem>::Options Opts;
  Opts.Kind = FixpointKind::Lfp;
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

TEST(SolverTest, WithoutNarrowingTopRemains) {
  IntervalSystem S = countingLoop();
  FixpointSolver<IntervalSystem>::Options Opts;
  Opts.NarrowingPasses = 0;
  FixpointSolver<IntervalSystem> Solver(S, Opts);
  std::vector<Interval> X = Solver.solve();
  // Widening alone overshoots the loop head to [0, +oo] (paper §6.1).
  EXPECT_EQ(X[1], Interval(0, INT64_MAX));
  EXPECT_EQ(X[4], Interval(100, INT64_MAX));
}

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
  // The inner body and the exit re-run with unchanged inputs while the
  // loops iterate: the skip rule fires, and skips are a subset of the
  // scheduled steps.
  const SolverStats &St = Solver.stats();
  EXPECT_GT(St.StableInputSkips, 0u);
  EXPECT_LE(St.StableInputSkips, St.AscendingSteps + St.DescendingSteps);
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

TEST(WarmStartTest, IdenticalResolveIsFullyReplayed) {
  IntervalSystem S = countingLoop();
  WarmStartMemo<Interval> Memo;
  FixpointSolver<IntervalSystem>::Options Opts;
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

TEST(WarmStartTest, DirtySeedForcesRecomputationAndStaysExact) {
  DirtyIntervalSystem S(5);
  S.Seeds[0] = Interval(0, 0);
  S.addEdge(0, 1, 0, S.D.top());
  S.addEdge(3, 1, 0, S.D.top());
  S.addEdge(1, 2, 0, S.D.make(INT64_MIN, 99));
  S.addEdge(2, 3, 1, S.D.top());
  S.addEdge(1, 4, 0, S.D.make(100, INT64_MAX));

  WarmStartMemo<Interval> Memo;
  FixpointSolver<DirtyIntervalSystem>::Options Opts;
  Opts.Memo = &Memo;
  FixpointSolver<DirtyIntervalSystem>(S, Opts).solve();

  // Edit the entry seed and mark node 0 dirty: the warm run must produce
  // exactly what a cold run over the edited system produces.
  S.Seeds[0] = Interval(5, 5);
  S.Unchanged[0] = 0;
  FixpointSolver<DirtyIntervalSystem> Warm(S, Opts);
  std::vector<Interval> XWarm = Warm.solve();

  FixpointSolver<DirtyIntervalSystem>::Options ColdOpts;
  FixpointSolver<DirtyIntervalSystem> Cold(S, ColdOpts);
  EXPECT_EQ(XWarm, Cold.solve());
}

TEST(WarmStartTest, UpstreamEditInvalidatesDownstreamReplay) {
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
  FixpointSolver<DirtyIntervalSystem> Cold(S, ColdOpts);
  EXPECT_EQ(XWarm, Cold.solve());
}

TEST(WarmStartTest, GfpReplayIsExactToo) {
  IntervalSystem S(2);
  S.addEdge(0, 0, 0, S.D.make(0, 50));
  S.addEdge(0, 1, 1, S.D.top());
  WarmStartMemo<Interval> Memo;
  FixpointSolver<IntervalSystem>::Options Opts;
  Opts.Kind = FixpointKind::Gfp;
  Opts.Memo = &Memo;
  std::vector<Interval> X0 = FixpointSolver<IntervalSystem>(S, Opts).solve();
  FixpointSolver<IntervalSystem> Warm(S, Opts);
  EXPECT_EQ(Warm.solve(), X0);
  EXPECT_GT(Warm.stats().ComponentSkips, 0u);
}

TEST(WarmStartTest, KindMismatchInvalidatesMemo) {
  // A memo recorded by an Lfp solve must not seed replay of a Gfp solve:
  // the sweep boundaries belong to a different iteration.
  IntervalSystem S(2);
  S.addEdge(0, 0, 0, S.D.make(0, 50));
  S.addEdge(0, 1, 1, S.D.top());
  WarmStartMemo<Interval> Memo;
  FixpointSolver<IntervalSystem>::Options Lfp;
  Lfp.Memo = &Memo;
  FixpointSolver<IntervalSystem>(S, Lfp).solve();

  FixpointSolver<IntervalSystem>::Options Gfp;
  Gfp.Kind = FixpointKind::Gfp;
  Gfp.Memo = &Memo;
  FixpointSolver<IntervalSystem> Warm(S, Gfp);
  std::vector<Interval> X0 = Warm.solve();
  EXPECT_EQ(Warm.stats().ComponentSkips, 0u);
  FixpointSolver<IntervalSystem>::Options ColdGfp;
  ColdGfp.Kind = FixpointKind::Gfp;
  EXPECT_EQ(X0, FixpointSolver<IntervalSystem>(S, ColdGfp).solve());
  // The mismatched run re-records, so a second Gfp run replays.
  FixpointSolver<IntervalSystem> Warm2(S, Gfp);
  EXPECT_EQ(Warm2.solve(), X0);
  EXPECT_GT(Warm2.stats().ComponentSkips, 0u);
}

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

/// One equation X0 = X0 - 1 over the integers (ordered by <=), whose
/// "narrowing" just takes the new value: every descending sweep lowers
/// the head, so the descending loops only stop at their safety-net
/// bounds.
struct CountdownSystem {
  using Value = int64_t;
  static constexpr int64_t Top = 2000000;

  Digraph DepGraph = Digraph(1, {{0, 0}});
  Wto Order = Wto(DepGraph, {0});

  unsigned numNodes() const { return 1; }
  const Wto &wto() const { return Order; }
  int64_t initialValue(unsigned, bool FromTop) const {
    return FromTop ? Top : 0;
  }
  int64_t evaluate(unsigned, const std::vector<int64_t> &X) const {
    return X[0] - 1;
  }
  bool leq(int64_t A, int64_t B) const { return A <= B; }
  bool equal(int64_t A, int64_t B) const { return A == B; }
  int64_t widen(int64_t A, int64_t B) const { return std::max(A, B); }
  int64_t narrow(int64_t, int64_t B) const { return B; }
};

TEST(SolverTest, SweepCapHitsAreCountedAndKeepTheCappedIterate) {
  CountdownSystem S;
  ASSERT_TRUE(S.wto().isHead(0));

  // Lfp: the ascent is stable at once (0 - 1 <= 0); the one narrowing
  // pass runs the component loop to its 1000-sweep cap.
  FixpointSolver<CountdownSystem>::Options Lfp;
  FixpointSolver<CountdownSystem> L(S, Lfp);
  EXPECT_EQ(L.solve()[0], -1000);
  EXPECT_EQ(L.stats().SweepCapHits, 1u);
  EXPECT_EQ(L.stats().Widenings, 0u);

  // Gfp: each of the 1000 outer sweeps stops its component loop at the
  // cap, and the outer loop then stops at its own: 1000 + 1 hits.
  FixpointSolver<CountdownSystem>::Options Gfp;
  Gfp.Kind = FixpointKind::Gfp;
  FixpointSolver<CountdownSystem> G(S, Gfp);
  EXPECT_EQ(G.solve()[0], CountdownSystem::Top - 1000 * 1000);
  EXPECT_EQ(G.stats().SweepCapHits, 1001u);
  EXPECT_EQ(G.stats().Narrowings, 1000u * 1000u);

  // A solve that converges reports none.
  IntervalSystem C = countingLoop();
  FixpointSolver<IntervalSystem>::Options Opts;
  FixpointSolver<IntervalSystem> Converged(C, Opts);
  Converged.solve();
  EXPECT_EQ(Converged.stats().SweepCapHits, 0u);
}

//===----------------------------------------------------------------------===//
// Stable-input skips against an always-evaluating reference
//===----------------------------------------------------------------------===//

/// The recursive strategy as it runs without the skip rule: ascent with
/// leaf restarts, descending sweeps, both sweep caps, and demand masks,
/// evaluating every scheduled equation. It shares no epoch bookkeeping
/// with FixpointSolver, so equal solutions and equal step counts show
/// that skipping changes nothing but the work done.
template <typename System> class ReferenceSolver {
public:
  using Value = typename System::Value;

  ReferenceSolver(const System &Sys, FixpointKind Kind,
                  unsigned NarrowingPasses,
                  const std::vector<uint8_t> *Demand = nullptr)
      : Sys(Sys), Kind(Kind), NarrowingPasses(NarrowingPasses),
        Demand(Demand) {}

  std::vector<Value> solve() {
    const Wto &W = Sys.wto();
    bool FromTop = Kind == FixpointKind::Gfp;
    X.clear();
    for (unsigned V = 0; V < Sys.numNodes(); ++V)
      X.push_back(Sys.initialValue(V, FromTop));
    Scheduled.assign(W.elements().size(), Demand ? 0 : 1);
    if (Demand) {
      for (unsigned V = 0; V < Sys.numNodes(); ++V)
        if ((*Demand)[V])
          Scheduled[W.topElement(V)] = 1;
      for (uint8_t S : Scheduled)
        ++(S ? Stats.DemandedComponents : Stats.SkippedByDemand);
    }
    if (Kind == FixpointKind::Lfp) {
      sweep(/*Descending=*/false);
      for (unsigned Pass = 0; Pass < NarrowingPasses; ++Pass)
        if (!sweep(/*Descending=*/true))
          break;
    } else {
      unsigned Sweep = 0;
      while (Sweep < MaxSweeps && sweep(/*Descending=*/true))
        ++Sweep;
      if (Sweep == MaxSweeps)
        ++Stats.SweepCapHits;
    }
    return X;
  }

  const SolverStats &stats() const { return Stats; }

private:
  static constexpr unsigned MaxSweeps = 1000;

  bool sweep(bool Descending) {
    bool Changed = false;
    const std::vector<WtoElement> &Elems = Sys.wto().elements();
    for (unsigned E = 0; E < Elems.size(); ++E) {
      if (!Scheduled[E])
        continue;
      if (Descending)
        descend(Elems[E], Changed);
      else
        ascend(Elems[E]);
    }
    return Changed;
  }

  void reset(const WtoElement &E) {
    X[E.Vertex] = Sys.initialValue(E.Vertex, false);
    for (const WtoElement &Sub : E.Body)
      reset(Sub);
  }

  void ascend(const WtoElement &E) {
    if (!E.IsComponent) {
      ++Stats.AscendingSteps;
      X[E.Vertex] = Sys.evaluate(E.Vertex, X);
      return;
    }
    bool IsLeaf = true;
    for (const WtoElement &Sub : E.Body)
      IsLeaf &= !Sub.IsComponent;
    if (IsLeaf)
      reset(E);
    for (;;) {
      for (const WtoElement &Sub : E.Body)
        ascend(Sub);
      ++Stats.AscendingSteps;
      Value New = Sys.evaluate(E.Vertex, X);
      if (Sys.leq(New, X[E.Vertex]))
        break;
      ++Stats.Widenings;
      X[E.Vertex] = Sys.widen(X[E.Vertex], New);
    }
  }

  void descend(const WtoElement &E, bool &Changed) {
    if (!E.IsComponent) {
      ++Stats.DescendingSteps;
      Value New = Sys.evaluate(E.Vertex, X);
      if (!Sys.equal(New, X[E.Vertex])) {
        X[E.Vertex] = New;
        Changed = true;
      }
      return;
    }
    unsigned Sweep = 0;
    for (; Sweep < MaxSweeps; ++Sweep) {
      ++Stats.DescendingSteps;
      ++Stats.Narrowings;
      Value Narrowed = Sys.narrow(X[E.Vertex], Sys.evaluate(E.Vertex, X));
      bool SweepChanged = !Sys.equal(Narrowed, X[E.Vertex]);
      X[E.Vertex] = Narrowed;
      for (const WtoElement &Sub : E.Body)
        descend(Sub, SweepChanged);
      Changed |= SweepChanged;
      if (!SweepChanged)
        break;
    }
    if (Sweep == MaxSweeps)
      ++Stats.SweepCapHits;
  }

  const System &Sys;
  FixpointKind Kind;
  unsigned NarrowingPasses;
  const std::vector<uint8_t> *Demand;
  std::vector<Value> X;
  std::vector<uint8_t> Scheduled;
  SolverStats Stats;
};

/// A random interval system of 2-40 nodes: every node but 0 is fed from
/// an earlier one, and back edges (self loops included) close cycles
/// that overlap and nest. Edges carry small offsets and, half the time,
/// a filter; node 0 and a few others carry seeds.
DirtyIntervalSystem randomSystem(Rng &R) {
  unsigned N = 2 + static_cast<unsigned>(R.below(39));
  DirtyIntervalSystem S(N);
  auto Filter = [&]() {
    if (R.chance(1, 2))
      return S.D.top();
    int64_t Lo = R.range(-20, 20);
    switch (R.below(3)) {
    case 0:
      return S.D.make(INT64_MIN, Lo);
    case 1:
      return S.D.make(Lo, INT64_MAX);
    default:
      return S.D.make(Lo, Lo + R.range(0, 40));
    }
  };
  auto Seed = [&]() {
    int64_t Lo = R.range(-10, 10);
    return Interval(Lo, Lo + R.range(0, 5));
  };
  S.Seeds[0] = Seed();
  for (unsigned V = 1; V < N; ++V) {
    S.addEdge(static_cast<unsigned>(R.below(V)), V, R.range(-3, 3),
              Filter());
    if (R.chance(1, 3))
      S.addEdge(V, static_cast<unsigned>(R.below(V + 1)), R.range(-3, 3),
                Filter());
    if (R.chance(1, 5))
      S.addEdge(static_cast<unsigned>(R.below(V)), V, R.range(-3, 3),
                Filter());
    if (R.chance(1, 8))
      S.Seeds[V] = Seed();
  }
  return S;
}

/// The dependency cone of node \p Query: the demand mask a demand solve
/// for it takes (closed under graph predecessors).
std::vector<uint8_t> coneOf(const Digraph &G, unsigned Query) {
  std::vector<uint8_t> In(G.numNodes(), 0);
  std::vector<unsigned> Work{Query};
  In[Query] = 1;
  while (!Work.empty()) {
    unsigned V = Work.back();
    Work.pop_back();
    for (unsigned P : G.preds(V))
      if (!In[P]) {
        In[P] = 1;
        Work.push_back(P);
      }
  }
  return In;
}

void expectSameCounts(const SolverStats &Got, const SolverStats &Want) {
  EXPECT_EQ(Got.AscendingSteps, Want.AscendingSteps);
  EXPECT_EQ(Got.DescendingSteps, Want.DescendingSteps);
  EXPECT_EQ(Got.Widenings, Want.Widenings);
  EXPECT_EQ(Got.Narrowings, Want.Narrowings);
  EXPECT_EQ(Got.SweepCapHits, Want.SweepCapHits);
  EXPECT_EQ(Got.DemandedComponents, Want.DemandedComponents);
  EXPECT_EQ(Got.SkippedByDemand, Want.SkippedByDemand);
  EXPECT_LE(Got.StableInputSkips, Got.AscendingSteps + Got.DescendingSteps);
}

/// What a battery of skip checks saw.
struct SkipTally {
  uint64_t Skips = 0;
  /// Scheduled steps of components skipped whole: the steps that
  /// nodeLiveSteps() leaves out.
  uint64_t WholeComponentSteps = 0;
};

/// Solves \p S cold, demand-restricted to the cone of a random node, and
/// warm after a random seed edit, under every fixpoint mode, and expects
/// the always-evaluating reference's solutions and counts each time.
void checkAgainstReference(const DirtyIntervalSystem &S, Rng &R,
                           SkipTally &Tally, const std::string &What) {
  struct Mode {
    FixpointKind Kind;
    unsigned Passes;
  };
  const Mode Modes[] = {{FixpointKind::Lfp, 0},
                        {FixpointKind::Lfp, 1},
                        {FixpointKind::Lfp, 2},
                        {FixpointKind::Gfp, 1}};
  unsigned Query = static_cast<unsigned>(R.below(S.numNodes()));
  std::vector<uint8_t> Cone = coneOf(S.DepGraph, Query);
  unsigned Edited = static_cast<unsigned>(R.below(S.numNodes()));
  Interval EditedSeed(R.range(-10, 10), 10);
  for (const Mode &M : Modes) {
    SCOPED_TRACE(What + ", " +
                 (M.Kind == FixpointKind::Gfp
                      ? std::string("gfp")
                      : "lfp/" + std::to_string(M.Passes)) +
                 ", " + S.Order.str());
    FixpointSolver<DirtyIntervalSystem>::Options Opts;
    Opts.Kind = M.Kind;
    Opts.NarrowingPasses = M.Passes;

    // Cold, full solve. Every scheduled step either evaluated or was
    // skipped, and nodeLiveSteps() misses exactly the members of the
    // components skipped whole.
    ReferenceSolver<DirtyIntervalSystem> Ref(S, M.Kind, M.Passes);
    std::vector<Interval> Want = Ref.solve();
    uint64_t EvalsBefore = S.Evaluations;
    FixpointSolver<DirtyIntervalSystem> Cold(S, Opts);
    EXPECT_EQ(Cold.solve(), Want);
    const SolverStats &CS = Cold.stats();
    expectSameCounts(CS, Ref.stats());
    uint64_t Scheduled = CS.AscendingSteps + CS.DescendingSteps;
    EXPECT_EQ(S.Evaluations - EvalsBefore, Scheduled - CS.StableInputSkips);
    uint64_t PerNode = 0;
    for (uint64_t Steps : Cold.nodeLiveSteps())
      PerNode += Steps;
    EXPECT_LE(PerNode, Scheduled);
    Tally.Skips += CS.StableInputSkips;
    Tally.WholeComponentSteps += Scheduled - PerNode;

    // Demand-restricted solve: the cone's values, and the same work.
    FixpointSolver<DirtyIntervalSystem>::Options DemandOpts = Opts;
    DemandOpts.DemandNodes = &Cone;
    ReferenceSolver<DirtyIntervalSystem> DemandRef(S, M.Kind, M.Passes,
                                                   &Cone);
    std::vector<Interval> DemandWant = DemandRef.solve();
    FixpointSolver<DirtyIntervalSystem> Demanded(S, DemandOpts);
    EXPECT_EQ(Demanded.solve(), DemandWant);
    expectSameCounts(Demanded.stats(), DemandRef.stats());

    // The run that records a memo replays nothing: it matches the
    // reference exactly. The warm re-solve after a seed edit then
    // replays, and its replays plus live steps account for exactly
    // the reference's scheduled steps.
    DirtyIntervalSystem Edit = S;
    WarmStartMemo<Interval> Memo;
    FixpointSolver<DirtyIntervalSystem>::Options WarmOpts = Opts;
    WarmOpts.Memo = &Memo;
    FixpointSolver<DirtyIntervalSystem> Recording(Edit, WarmOpts);
    EXPECT_EQ(Recording.solve(), Want);
    expectSameCounts(Recording.stats(), Ref.stats());
    Edit.Seeds[Edited] = EditedSeed;
    Edit.Unchanged[Edited] = 0;
    ReferenceSolver<DirtyIntervalSystem> EditRef(Edit, M.Kind, M.Passes);
    std::vector<Interval> EditWant = EditRef.solve();
    FixpointSolver<DirtyIntervalSystem> Warm(Edit, WarmOpts);
    EXPECT_EQ(Warm.solve(), EditWant);
    const SolverStats &WS = Warm.stats();
    EXPECT_EQ(WS.AscendingSteps + WS.DescendingSteps + WS.SkippedSteps,
              EditRef.stats().AscendingSteps +
                  EditRef.stats().DescendingSteps);
    EXPECT_LE(WS.StableInputSkips, WS.AscendingSteps + WS.DescendingSteps);
  }
}

TEST(StableInputSkipTest, MatchesAlwaysEvaluatingReferenceOnRandomSystems) {
  SkipTally Tally;
  for (uint64_t Seed = 1; Seed <= 500; ++Seed) {
    Rng R(Seed);
    DirtyIntervalSystem S = randomSystem(R);
    checkAgainstReference(S, R, Tally, "seed " + std::to_string(Seed));
  }
  EXPECT_GT(Tally.Skips, 0u);
}

/// A random interval system nesting 20-30 loops along a path 0 .. 2D
/// (loop k spans k .. 2D - k and is closed by an edge 2D - k -> k), with
/// small leaf loops hanging inside random levels. Each side loop is fed
/// through a clamp — an edge whose filter is a single value — so its
/// input settles while the loops around it still iterate: the
/// components a whole-component skip leaves out. Random extra edges add
/// cross links and irreducible entries.
DirtyIntervalSystem deeplyNestedSystem(Rng &R, unsigned &Depth) {
  Depth = 20 + static_cast<unsigned>(R.below(11));
  unsigned Path = 2 * Depth + 1;
  unsigned Sides = Depth / 2 + static_cast<unsigned>(R.below(Depth));
  DirtyIntervalSystem S(Path + 2 * Sides);
  auto Filter = [&]() {
    if (R.chance(1, 2))
      return S.D.top();
    int64_t Lo = R.range(-20, 20);
    return R.chance(1, 2) ? S.D.make(INT64_MIN, Lo)
                          : S.D.make(Lo, Lo + R.range(0, 40));
  };
  auto Offset = [&]() { return R.range(-2, 2); };
  S.Seeds[0] = Interval(0, R.range(0, 3));
  for (unsigned V = 0; V + 1 < Path; ++V)
    S.addEdge(V, V + 1, Offset(), Filter());
  for (unsigned K = 0; K < Depth; ++K)
    S.addEdge(2 * Depth - K, K, Offset(), Filter());
  for (unsigned J = 0; J < Sides; ++J) {
    unsigned A = Path + 2 * J, B = A + 1;
    unsigned K = static_cast<unsigned>(R.below(Depth));
    int64_t C = R.range(-3, 3);
    S.addEdge(K, A, 0, Interval(C, C)); // the clamp
    S.addEdge(A, B, Offset(), Filter());
    S.addEdge(B, A, Offset(), Filter());
    S.addEdge(B, 2 * Depth - K, Offset(), Filter()); // back into loop K
    if (R.chance(1, 3))
      S.Seeds[A] = Interval(C, C + 1);
  }
  for (unsigned I = 0, Extra = static_cast<unsigned>(R.below(Depth / 2));
       I < Extra; ++I) {
    unsigned From = static_cast<unsigned>(R.below(Path));
    S.addEdge(From, static_cast<unsigned>(R.below(Path)), Offset(),
              Filter());
  }
  return S;
}

TEST(StableInputSkipTest, MatchesReferenceOnDeeplyNestedSystems) {
  SkipTally Tally;
  unsigned MinDepth = ~0u;
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    Rng R(9000 + Seed);
    unsigned Depth = 0;
    DirtyIntervalSystem S = deeplyNestedSystem(R, Depth);
    unsigned WtoDepth = 0;
    for (unsigned V = 0; V < S.numNodes(); ++V)
      WtoDepth = std::max(WtoDepth, S.Order.depth(V));
    MinDepth = std::min(MinDepth, WtoDepth);
    checkAgainstReference(S, R, Tally, "deep seed " + std::to_string(Seed));
  }
  EXPECT_GE(MinDepth, 20u);
  // Whole components were skipped, not only single vertices.
  EXPECT_GT(Tally.WholeComponentSteps, Tally.Skips / 10);
}

/// K + 1 loops nested in a chain: level k has a head H_k = 3k, a clamp
/// C_k = 3k + 1 and a tail T_k = 3k + 2. The head counts up through its
/// tail (T_k = (H_k + 1) meet [-oo, 10], H_k = T_k join the entry), so
/// each level widens and then iterates until its head settles; the
/// clamp (C_k = H_k meet [0, 0]) enters level k + 1, whose tail feeds
/// T_k through a filter nothing passes. Level k + 1's input, C_k, stops
/// changing after the first pass of level k.
IntervalSystem nestedChain(unsigned K) {
  IntervalSystem S(3 * (K + 1));
  S.Seeds[0] = Interval(0, 0);
  for (unsigned L = 0; L <= K; ++L) {
    unsigned H = 3 * L, C = H + 1, T = H + 2;
    S.addEdge(H, T, 1, S.D.make(INT64_MIN, 10));
    S.addEdge(T, H, 0, S.D.top());
    if (L == K)
      break;
    S.addEdge(H, C, 0, Interval(0, 0));
    S.addEdge(C, H + 3, 0, S.D.top());
    S.addEdge(T + 3, T, 0, Interval(1000, 1000));
  }
  return S;
}

TEST(StableInputSkipTest, NestedChainEvaluationsGrowLinearly) {
  // Re-entering every inner level on each iteration of the levels
  // around it costs the sum of the depths, quadratic in K; skipping the
  // levels whose input did not change leaves a constant per level.
  std::vector<uint64_t> Evals;
  for (unsigned K : {10u, 20u, 40u}) {
    IntervalSystem S = nestedChain(K);
    ASSERT_EQ(S.Order.depth(3 * K), K + 1) << S.Order.str();
    FixpointSolver<IntervalSystem>::Options Opts;
    FixpointSolver<IntervalSystem> Solver(S, Opts);
    std::vector<Interval> Got = Solver.solve();
    Evals.push_back(S.Evaluations);
    ReferenceSolver<IntervalSystem> Ref(S, FixpointKind::Lfp, 1);
    EXPECT_EQ(Got, Ref.solve());
    expectSameCounts(Solver.stats(), Ref.stats());
  }
  // Doubling K at most doubles the work (plus a constant).
  EXPECT_LE(Evals[1], 2 * Evals[0] + 10) << Evals[0] << " -> " << Evals[1];
  EXPECT_LE(Evals[2], 2 * Evals[1] + 10) << Evals[1] << " -> " << Evals[2];
}

} // namespace
