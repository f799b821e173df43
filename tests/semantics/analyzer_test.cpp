//===- tests/semantics/analyzer_test.cpp - End-to-end analysis tests ------===//
//
// The acceptance tests for the paper's central claims: every Figure 1
// condition, the McCarthy §6.5 facts, exact aliasing of reference
// parameters, and non-local jumps.
//
//===----------------------------------------------------------------------===//

#include "frontend/PaperPrograms.h"

#include "../common/AnalysisTestUtil.h"

#include <gtest/gtest.h>

using namespace syntox;
using namespace syntox::test;

namespace {

//===----------------------------------------------------------------------===//
// Forward analysis basics
//===----------------------------------------------------------------------===//

// Several tests below assert the concrete value of a variable at a
// point where it is *dead* (typically the program exit): under the
// default liveness pruning those slots are intentionally untracked and
// read as top, so these run with prune(false). They pin transfer
// precision; liveness_prune_test pins pruned-vs-unpruned equivalence.

TEST(ForwardAnalysisTest, CountingLoop) {
  auto A = analyzeProgram("program p; var i : integer;\n"
                          "begin\n"
                          "  i := 0;\n"
                          "  while i < 100 do\n"
                          "    i := i + 1\n"
                          "end.",
                          withOptions().prune(false));
  const VarDecl *I = A.var("", "i");
  unsigned Exit = A.node("", "exit of p");
  EXPECT_EQ(A.fwdInt(Exit, I), Interval(100, 100));
  // The second "after i :=" point is the increment inside the loop:
  // i in [1, 100] there.
  unsigned AfterInc = A.node("", "after i :=", 0, 1);
  EXPECT_EQ(A.fwdInt(AfterInc, I), Interval(1, 100));
}

TEST(ForwardAnalysisTest, BranchJoin) {
  auto A = analyzeProgram("program p; var i, j : integer;\n"
                          "begin\n"
                          "  read(i);\n"
                          "  if i < 0 then j := 0 else j := 1\n"
                          "end.",
                          withOptions().prune(false));
  const VarDecl *J = A.var("", "j");
  unsigned Exit = A.node("", "exit of p");
  EXPECT_EQ(A.fwdInt(Exit, J), Interval(0, 1));
}

TEST(ForwardAnalysisTest, FunctionResultFlows) {
  auto A = analyzeProgram("program p; var x : integer;\n"
                          "function f(n : integer) : integer;\n"
                          "begin f := n + 1 end;\n"
                          "begin x := f(41) end.",
                          withOptions().prune(false));
  const VarDecl *X = A.var("", "x");
  unsigned Exit = A.node("", "exit of p");
  EXPECT_EQ(A.fwdInt(Exit, X), Interval(42, 42));
}

TEST(ForwardAnalysisTest, GlobalUpdatedThroughProcedure) {
  auto A = analyzeProgram("program p; var g : integer;\n"
                          "procedure bump;\n"
                          "begin g := g + 1 end;\n"
                          "begin g := 0; bump; bump end.",
                          withOptions().prune(false));
  const VarDecl *G = A.var("", "g");
  unsigned Exit = A.node("", "exit of p");
  EXPECT_EQ(A.fwdInt(Exit, G), Interval(2, 2));
}

TEST(ForwardAnalysisTest, RecursionConverges) {
  auto A = analyzeProgram(paper::FactProgram);
  const VarDecl *Y = A.var("", "y");
  unsigned Exit = A.node("", "exit of fact");
  // The factorial value itself is unbounded; the analysis must simply
  // terminate with a sound (non-bottom) result.
  EXPECT_FALSE(A.fwdInt(Exit, Y).isBottom());
}

TEST(ForwardAnalysisTest, AckermannConverges) {
  auto A = analyzeProgram(paper::AckermannProgram);
  unsigned Exit = A.node("", "exit of ackermann");
  EXPECT_FALSE(A.An->forwardAt(Exit).isBottom());
}

TEST(ForwardAnalysisTest, SubrangeReadRefines) {
  auto A = analyzeProgram("program p; var n : 1..100; m : integer;\n"
                          "begin read(n); m := n end.",
                          withOptions().prune(false));
  const VarDecl *M = A.var("", "m");
  unsigned Exit = A.node("", "exit of p");
  // The subrange check after read(n) refines n, hence m.
  EXPECT_EQ(A.fwdInt(Exit, M), Interval(1, 100));
}

//===----------------------------------------------------------------------===//
// Exact aliasing via tokens (paper §5 / §6.4)
//===----------------------------------------------------------------------===//

TEST(AliasingTest, VarParamStrongUpdate) {
  auto A = analyzeProgram("program p; var g, h : integer;\n"
                          "procedure q(var x : integer);\n"
                          "begin x := 1 end;\n"
                          "begin g := 0; h := 0; q(g) end.",
                          withOptions().prune(false));
  unsigned Exit = A.node("", "exit of p");
  EXPECT_EQ(A.fwdInt(Exit, A.var("", "g")), Interval(1, 1));
  EXPECT_EQ(A.fwdInt(Exit, A.var("", "h")), Interval(0, 0));
}

TEST(AliasingTest, TwoFormalsSameActualAlias) {
  // q(g, g): x and y share the root g, so x := 1 makes y = 1.
  auto A = analyzeProgram("program p; var g, r : integer;\n"
                          "procedure q(var x : integer; var y : integer);\n"
                          "begin x := 1; r := y end;\n"
                          "begin g := 0; r := 0; q(g, g) end.",
                          withOptions().prune(false));
  unsigned Exit = A.node("", "exit of p");
  EXPECT_EQ(A.fwdInt(Exit, A.var("", "r")), Interval(1, 1));
  EXPECT_EQ(A.fwdInt(Exit, A.var("", "g")), Interval(1, 1));
}

TEST(AliasingTest, DistinctActualsDoNotAlias) {
  auto A = analyzeProgram("program p; var g, h, r : integer;\n"
                          "procedure q(var x : integer; var y : integer);\n"
                          "begin x := 1; r := y end;\n"
                          "begin g := 0; h := 5; r := 0; q(g, h) end.",
                          withOptions().prune(false));
  unsigned Exit = A.node("", "exit of p");
  EXPECT_EQ(A.fwdInt(Exit, A.var("", "r")), Interval(5, 5));
  EXPECT_EQ(A.fwdInt(Exit, A.var("", "h")), Interval(5, 5));
  EXPECT_EQ(A.fwdInt(Exit, A.var("", "g")), Interval(1, 1));
}

TEST(AliasingTest, DifferentPartitionsGetDifferentInstances) {
  // The same call site cannot produce different partitions, but two call
  // sites with different aliasing must not be merged.
  auto A = analyzeProgram("program p; var g, h : integer;\n"
                          "procedure q(var x : integer; var y : integer);\n"
                          "begin x := y + 1 end;\n"
                          "begin g := 0; h := 10; q(g, g); q(g, h) end.",
                          withOptions().prune(false));
  // Instances: main, q@site1 with roots (g,g), q@site2 with roots (g,h).
  EXPECT_EQ(A.An->graph().instances().size(), 3u);
  unsigned Exit = A.node("", "exit of p");
  // q(g,g): g := g + 1 = 1; then q(g,h): g := h + 1 = 11.
  EXPECT_EQ(A.fwdInt(Exit, A.var("", "g")), Interval(11, 11));
}

TEST(AliasingTest, VarParamChainsResolveToRoot) {
  // r is passed by reference through two levels; the root is always g.
  auto A = analyzeProgram(
      "program p; var g : integer;\n"
      "procedure inner(var b : integer);\n"
      "begin b := b + 1 end;\n"
      "procedure outer(var a : integer);\n"
      "begin inner(a) end;\n"
      "begin g := 5; outer(g) end.",
      withOptions().prune(false));
  unsigned Exit = A.node("", "exit of p");
  EXPECT_EQ(A.fwdInt(Exit, A.var("", "g")), Interval(6, 6));
}

//===----------------------------------------------------------------------===//
// Non-local jumps (paper §5)
//===----------------------------------------------------------------------===//

TEST(NonLocalGotoTest, JumpOutOfProcedure) {
  auto A = analyzeProgram("program p;\n"
                          "label 99;\n"
                          "var g : integer;\n"
                          "procedure q;\n"
                          "begin g := 5; goto 99; g := 7 end;\n"
                          "begin g := 0; q; g := 1; 99: g := g + 10 end.",
                          withOptions().prune(false));
  unsigned Exit = A.node("", "exit of p");
  // q never returns normally: 'g := 1' is dead; the label sees g = 5.
  EXPECT_EQ(A.fwdInt(Exit, A.var("", "g")), Interval(15, 15));
}

TEST(NonLocalGotoTest, ReRaiseThroughMiddleRoutine) {
  auto A = analyzeProgram("program p;\n"
                          "label 99;\n"
                          "var g : integer;\n"
                          "procedure inner;\n"
                          "begin g := 42; goto 99 end;\n"
                          "procedure middle;\n"
                          "begin inner; g := 0 end;\n"
                          "begin g := 1; middle; g := 2; 99: g := g + 1 end.",
                          withOptions().prune(false));
  unsigned Exit = A.node("", "exit of p");
  EXPECT_EQ(A.fwdInt(Exit, A.var("", "g")), Interval(43, 43));
}

TEST(NonLocalGotoTest, ConditionalJumpJoins) {
  auto A = analyzeProgram("program p;\n"
                          "label 99;\n"
                          "var g, n : integer;\n"
                          "procedure q;\n"
                          "begin if n > 0 then begin g := 5; goto 99 end\n"
                          "      else g := 3 end;\n"
                          "begin read(n); g := 0; q; 99: g := g + 10 end.",
                          withOptions().prune(false));
  unsigned Exit = A.node("", "exit of p");
  // Either the jump (g = 5) or the normal return (g = 3) reaches 99.
  EXPECT_EQ(A.fwdInt(Exit, A.var("", "g")), Interval(13, 15));
}

//===----------------------------------------------------------------------===//
// Figure 1: the paper's derived necessary conditions
//===----------------------------------------------------------------------===//

TEST(Figure1Test, ForNeedsNegativeN) {
  // Accessing T[0] always fails, so the loop must not run: n < 0.
  auto A = analyzeProgram(paper::ForProgram);
  const VarDecl *N = A.var("", "n");
  unsigned AfterRead = A.node("", "after read n");
  EXPECT_TRUE(A.An->storeOps().domain().intervals().isTop(A.fwdInt(AfterRead, N)));
  EXPECT_EQ(A.envInt(AfterRead, N), Interval(INT64_MIN, -1));
}

TEST(Figure1Test, For1ToNNeedsNAtMost100) {
  // With the loop from 1 to n, the paper's condition becomes n <= 100:
  // "the program will exit when accessing T[101] unless n <= 100". The
  // eventually-analysis ("terminates without a run-time error") carries
  // the bound from the loop exit back to the read: the ascending lfp
  // keeps constraints shared by all paths, where the descending gfp
  // stalls on the disjunction at the loop test.
  auto A =
      analyzeProgram(paper::ForProgram1ToN, withOptions().terminationGoal());
  const VarDecl *N = A.var("", "n");
  unsigned AfterRead = A.node("", "after read n");
  EXPECT_EQ(A.envInt(AfterRead, N), Interval(INT64_MIN, 100));
}

TEST(Figure1Test, WhileNeedsBFalseForTermination) {
  auto A = analyzeProgram(paper::WhileProgram, withOptions().terminationGoal());
  const VarDecl *B = A.var("", "b");
  unsigned AfterRead = A.node("", "after read b");
  EXPECT_EQ(A.envBool(AfterRead, B), BoolLattice(false));
}

TEST(Figure1Test, FactNeedsNonNegativeXForTermination) {
  auto A = analyzeProgram(paper::FactProgram, withOptions().terminationGoal());
  const VarDecl *X = A.var("", "x");
  unsigned AfterRead = A.node("", "after read x");
  EXPECT_EQ(A.envInt(AfterRead, X), Interval(0, INT64_MAX));
}

TEST(Figure1Test, SelectNeedsNAtMost10ForTermination) {
  auto A =
      analyzeProgram(paper::SelectProgram, withOptions().terminationGoal());
  const VarDecl *N = A.var("", "n");
  unsigned AfterRead = A.node("", "after read n");
  EXPECT_EQ(A.envInt(AfterRead, N), Interval(INT64_MIN, 10));
}

TEST(Figure1Test, IntermittentNeedsIAtMost9) {
  // The paper's `i = 10` assertion placed after the increment: reaching
  // it requires i <= 9 right after read(i).
  auto A = analyzeProgram(paper::IntermittentProgram);
  const VarDecl *I = A.var("", "i");
  unsigned AfterRead = A.node("", "after read i");
  EXPECT_EQ(A.envInt(AfterRead, I), Interval(INT64_MIN, 9));
}

//===----------------------------------------------------------------------===//
// McCarthy (paper §6.5)
//===----------------------------------------------------------------------===//

TEST(McCarthyTest, InvariantProvesResultIs91) {
  auto A = analyzeProgram(paper::McCarthyWithInvariant,
                          withOptions().prune(false));
  const VarDecl *M = A.var("", "m");
  unsigned Exit = A.node("", "exit of mccarthy");
  EXPECT_EQ(A.envInt(Exit, M), Interval(91, 91));
}

TEST(McCarthyTest, IntermittentResult91NeedsNAtMost101) {
  std::string Source = paper::McCarthyProgram;
  size_t Pos = Source.find("writeln(m)");
  ASSERT_NE(Pos, std::string::npos);
  Source.insert(Pos, "intermittent(m = 91);\n  ");
  auto A = analyzeProgram(Source);
  const VarDecl *N = A.var("", "n");
  unsigned AfterRead = A.node("", "after read n");
  EXPECT_EQ(A.envInt(AfterRead, N), Interval(INT64_MIN, 101));
}

TEST(McCarthyTest, BuggyVariantTerminationNeedsLargeN) {
  auto A =
      analyzeProgram(paper::McCarthyBuggy, withOptions().terminationGoal());
  const VarDecl *N = A.var("", "n");
  unsigned AfterRead = A.node("", "after read n");
  Interval Cond = A.envInt(AfterRead, N);
  // Paper §6.5: the buggy generalization loops for every n <= 100; the
  // derived necessary condition for termination excludes them.
  EXPECT_GT(Cond.Lo, 100);
}

TEST(McCarthyTest, StableInputSkipsAreReportedPerPhase) {
  // McCarthy's recursive unfolding re-runs loop bodies whose inputs did
  // not move: the solver skips those evaluations, and each phase reports
  // its own share of its scheduled steps.
  auto A = analyzeProgram(paper::McCarthyProgram);
  const AnalysisStats &St = A.An->stats();
  uint64_t Sum = 0, Scheduled = 0;
  for (const PhaseStats &P : St.Phases) {
    EXPECT_LT(P.StableInputSkips, P.WideningSteps + P.NarrowingSteps)
        << P.Name << " round " << P.Round;
    Sum += P.StableInputSkips;
    Scheduled += P.WideningSteps + P.NarrowingSteps;
  }
  EXPECT_EQ(Sum, St.StableInputSkips);
  EXPECT_GT(St.StableInputSkips, 0u);
  EXPECT_LT(St.StableInputSkips, Scheduled);
}

TEST(McCarthyTest, UnfoldingMatchesTokenCount) {
  auto A = analyzeProgram(paper::McCarthyProgram);
  // Main + one instance per call site: 9 nested + 1 outer call.
  EXPECT_EQ(A.An->graph().instances().size(), 11u);
}

//===----------------------------------------------------------------------===//
// Assertions interacting with the forward flow
//===----------------------------------------------------------------------===//

TEST(AssertionTest, InvariantRefinesForward) {
  auto A = analyzeProgram("program p; var i : integer;\n"
                          "begin read(i); invariant(i >= 0);\n"
                          "  i := i + 1 end.",
                          withOptions().prune(false));
  const VarDecl *I = A.var("", "i");
  unsigned Exit = A.node("", "exit of p");
  EXPECT_EQ(A.fwdInt(Exit, I), Interval(1, INT64_MAX));
}

TEST(AssertionTest, InvariantFalseMarksUnreachableRequirement) {
  // 'invariant(false)' demands the point is never reached: the backward
  // phase propagates the blame to the branch condition.
  auto A = analyzeProgram("program p; var i : integer;\n"
                          "begin\n"
                          "  read(i);\n"
                          "  if i > 10 then invariant(false)\n"
                          "end.");
  const VarDecl *I = A.var("", "i");
  unsigned AfterRead = A.node("", "after read i");
  EXPECT_EQ(A.envInt(AfterRead, I), Interval(INT64_MIN, 10));
}

TEST(AssertionTest, IntermittentUnreachableGivesBottomEnvelope) {
  // The intermittent point is unreachable: no state can ever satisfy it,
  // so the whole envelope collapses to bottom (a certain bug).
  auto A = analyzeProgram("program p; var i : integer;\n"
                          "begin\n"
                          "  i := 0;\n"
                          "  if i > 5 then intermittent(true)\n"
                          "end.");
  unsigned Entry = A.node("", "entry of p");
  EXPECT_TRUE(A.An->envelopeAt(Entry).isBottom());
}

//===----------------------------------------------------------------------===//
// Single-use engines
//===----------------------------------------------------------------------===//

/// An analyzer's published results, rendered for comparison: stats,
/// the forward and envelope store at every node, and the demand mask.
std::string results(const Analyzer &An) {
  std::string Out = An.stats().toJson().str();
  for (unsigned Node = 0; Node < An.graph().numNodes(); ++Node)
    Out += "\n" + An.storeOps().str(An.forwardAt(Node)) + " | " +
           An.storeOps().str(An.envelopeAt(Node));
  Out += "\n";
  for (uint8_t In : An.demandMask())
    Out += In ? '1' : '0';
  return Out;
}

TEST(AnalyzerLifetimeTest, SecondRunThrowsAndKeepsFirstResults) {
  // An Analyzer runs once: after a full or a demand run, both run()
  // and runDemand() throw and the first run's results stay as they
  // were.
  AnalysisOptions Opts = withOptions().terminationGoal().backwardRounds(2);
  for (bool FirstFull : {true, false}) {
    SCOPED_TRACE(FirstFull ? "full first" : "demand first");
    AnalyzedProgram P = analyzeProgram(paper::McCarthyProgram, Opts);
    ASSERT_NE(P.An, nullptr);
    std::vector<unsigned> Query{P.An->graph().mainExit()};
    Analyzer An(*P.Cfg, P.FE.Program, Opts);
    if (FirstFull)
      An.run();
    else
      An.runDemand(Query);
    std::string First = results(An);
    size_t Audits = An.demandAudit().size();

    EXPECT_THROW(An.run(), std::logic_error);
    EXPECT_THROW(An.runDemand(Query), std::logic_error);
    EXPECT_EQ(results(An), First);
    EXPECT_EQ(An.demandAudit().size(), Audits);
    EXPECT_EQ(An.demandMask().empty(), FirstFull);
  }
}

} // namespace
