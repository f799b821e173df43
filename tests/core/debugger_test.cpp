//===- tests/core/debugger_test.cpp - AbstractDebugger API tests ----------===//

#include "core/AbstractDebugger.h"
#include "frontend/PaperPrograms.h"

#include <gtest/gtest.h>

using namespace syntox;

namespace {

std::unique_ptr<AbstractDebugger>
makeDebugger(const std::string &Source, bool TerminationGoal = false) {
  DiagnosticsEngine Diags;
  AnalysisOptions Opts;
  Opts.TerminationGoal = TerminationGoal;
  auto Dbg = AbstractDebugger::create(Source, Diags, Opts);
  EXPECT_NE(Dbg, nullptr) << Diags.str();
  if (Dbg)
    Dbg->analyze();
  return Dbg;
}

bool hasCondition(const AbstractDebugger &Dbg, const std::string &Needle) {
  for (const NecessaryCondition &C : Dbg.conditions())
    if (C.str().find(Needle) != std::string::npos)
      return true;
  return false;
}

std::string allConditions(const AbstractDebugger &Dbg) {
  std::string Out;
  for (const NecessaryCondition &C : Dbg.conditions())
    Out += C.str() + "\n";
  return Out;
}

TEST(AbstractDebuggerTest, CreateRejectsBadSource) {
  DiagnosticsEngine Diags;
  EXPECT_EQ(AbstractDebugger::create("program p; begin x := end.", Diags),
            nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(AbstractDebuggerTest, ForProgramReportsNCondition) {
  auto Dbg = makeDebugger(paper::ForProgram);
  ASSERT_NE(Dbg, nullptr);
  EXPECT_TRUE(hasCondition(*Dbg, "n in [-oo, -1]")) << allConditions(*Dbg);
}

TEST(AbstractDebuggerTest, WhileProgramReportsBCondition) {
  auto Dbg = makeDebugger(paper::WhileProgram, /*TerminationGoal=*/true);
  ASSERT_NE(Dbg, nullptr);
  EXPECT_TRUE(hasCondition(*Dbg, "b = false")) << allConditions(*Dbg);
}

TEST(AbstractDebuggerTest, FactProgramReportsXCondition) {
  auto Dbg = makeDebugger(paper::FactProgram, /*TerminationGoal=*/true);
  ASSERT_NE(Dbg, nullptr);
  EXPECT_TRUE(hasCondition(*Dbg, "x in [0, +oo]")) << allConditions(*Dbg);
}

TEST(AbstractDebuggerTest, SelectProgramReportsNCondition) {
  auto Dbg = makeDebugger(paper::SelectProgram, /*TerminationGoal=*/true);
  ASSERT_NE(Dbg, nullptr);
  EXPECT_TRUE(hasCondition(*Dbg, "n in [-oo, 10]")) << allConditions(*Dbg);
}

TEST(AbstractDebuggerTest, ConditionsAreReportedAtOrigin) {
  // The condition must be reported once near the read, not at each of
  // the downstream uses.
  auto Dbg = makeDebugger(paper::ForProgram);
  ASSERT_NE(Dbg, nullptr);
  unsigned NConditions = 0;
  for (const NecessaryCondition &C : Dbg->conditions())
    NConditions += C.Var == "n";
  EXPECT_EQ(NConditions, 1u) << allConditions(*Dbg);
}

TEST(AbstractDebuggerTest, InvariantWarnings) {
  auto Dbg = makeDebugger("program p; var i : integer;\n"
                          "begin read(i); invariant(i >= 0) end.");
  ASSERT_NE(Dbg, nullptr);
  ASSERT_EQ(Dbg->invariantWarnings().size(), 1u);
  EXPECT_NE(Dbg->invariantWarnings()[0].Message.find("may be violated"),
            std::string::npos);
}

TEST(AbstractDebuggerTest, ProvedInvariantHasNoWarning) {
  auto Dbg = makeDebugger("program p; var i : integer;\n"
                          "begin i := 5; invariant(i = 5) end.");
  ASSERT_NE(Dbg, nullptr);
  EXPECT_TRUE(Dbg->invariantWarnings().empty());
}

TEST(AbstractDebuggerTest, AlwaysViolatedInvariant) {
  auto Dbg = makeDebugger("program p; var i : integer;\n"
                          "begin i := 5; invariant(i = 6) end.");
  ASSERT_NE(Dbg, nullptr);
  ASSERT_EQ(Dbg->invariantWarnings().size(), 1u);
  EXPECT_NE(Dbg->invariantWarnings()[0].Message.find("always violated"),
            std::string::npos);
}

TEST(AbstractDebuggerTest, SpecSatisfiabilityVerdict) {
  auto Ok = makeDebugger("program p; var i : integer; begin i := 1 end.");
  EXPECT_TRUE(Ok->someExecutionMaySatisfySpec());
  // The intermittent point is unreachable: no execution can satisfy it.
  auto Bad = makeDebugger("program p; var i : integer;\n"
                          "begin i := 0; if i > 5 then intermittent(true)\n"
                          "end.");
  EXPECT_FALSE(Bad->someExecutionMaySatisfySpec());
}

TEST(AbstractDebuggerTest, MainStatesRendersStores) {
  const char *Source = "program p; var i : integer;\n"
                       "begin i := 0; while i < 100 do i := i + 1 end.";
  // i is dead at the exit: the default liveness pruning stops tracking
  // it there and the inspector flags it as pruned instead of rendering
  // a value.
  auto Dbg = makeDebugger(Source);
  ASSERT_NE(Dbg, nullptr);
  std::vector<PointState> States = Dbg->mainStates("exit");
  ASSERT_FALSE(States.empty());
  bool Pruned = false;
  for (const PointState &S : States) {
    // Filtered query only contains matching points.
    EXPECT_EQ(S.PointDesc.find("while head"), std::string::npos);
    for (const std::string &V : S.PrunedVars)
      Pruned |= V == "i";
  }
  EXPECT_TRUE(Pruned);

  // Unpruned, the exit store renders the loop's final value.
  DiagnosticsEngine Diags;
  auto Full = AbstractDebugger::create(
      Source, Diags, AnalysisOptions().prune(false));
  ASSERT_NE(Full, nullptr) << Diags.str();
  Full->analyze();
  bool Found = false;
  for (const PointState &S : Full->mainStates("exit")) {
    EXPECT_TRUE(S.PrunedVars.empty());
    for (const StateBinding &B : S.Bindings)
      Found |= B.Var == "i" && B.Value == "[100, 100]";
  }
  EXPECT_TRUE(Found);
}

TEST(AbstractDebuggerTest, StatsArePopulated) {
  auto Dbg = makeDebugger(paper::McCarthyProgram);
  ASSERT_NE(Dbg, nullptr);
  const AnalysisStats &S = Dbg->stats();
  EXPECT_GT(S.ControlPoints, 100u); // after unfolding (11 instances)
  EXPECT_GT(S.Unions, 0u);
  EXPECT_GT(S.Widenings, 0u);
  EXPECT_GE(S.Phases.size(), 3u);
  EXPECT_GT(S.CpuSeconds, 0.0);
  std::string Rendered = S.str();
  EXPECT_NE(Rendered.find("Control points"), std::string::npos);
}

TEST(AbstractDebuggerTest, ChecksAccessible) {
  auto Dbg = makeDebugger(paper::BinarySearchProgram);
  ASSERT_NE(Dbg, nullptr);
  EXPECT_TRUE(Dbg->checks().allSafe());
}

TEST(AbstractDebuggerTest, McCarthyInvariantStudy) {
  // m's last read is the writeln at the very end, which evaluates no
  // checks, so m is dead at the exit and pruned by default; disable
  // pruning to inspect the final value the invariant pins.
  DiagnosticsEngine Diags;
  auto Dbg =
      AbstractDebugger::create(paper::McCarthyWithInvariant, Diags,
                               AnalysisOptions().prune(false));
  ASSERT_NE(Dbg, nullptr) << Diags.str();
  Dbg->analyze();
  // m = 91 is visible in the final state at the exit.
  bool Found = false;
  for (const PointState &S : Dbg->mainStates("exit of mccarthy"))
    for (const StateBinding &B : S.Bindings)
      Found |= B.Var == "m" && B.Value == "[91, 91]";
  EXPECT_TRUE(Found);
}

TEST(AbstractDebuggerTest, QueriesBeforeAnalyzeThrow) {
  DiagnosticsEngine Diags;
  auto Dbg = AbstractDebugger::create(
      "program p; var i : integer; begin i := 1 end.", Diags);
  ASSERT_NE(Dbg, nullptr);
  EXPECT_FALSE(Dbg->analyzed());
  EXPECT_THROW(Dbg->stats(), std::logic_error);
  EXPECT_THROW(Dbg->conditions(), std::logic_error);
  EXPECT_THROW(Dbg->invariantWarnings(), std::logic_error);
  EXPECT_THROW(Dbg->checks(), std::logic_error);
  EXPECT_THROW(Dbg->someExecutionMaySatisfySpec(), std::logic_error);
  EXPECT_THROW(Dbg->stateAt(SourceLoc(1, 0)), std::logic_error);
  EXPECT_THROW(Dbg->mainStates(), std::logic_error);
  Dbg->analyze();
  EXPECT_TRUE(Dbg->analyzed());
  EXPECT_NO_THROW(Dbg->stats());
  EXPECT_NO_THROW(Dbg->conditions());
}

/// What a full run publishes, rendered for comparison: findings, check
/// verdicts, the state at every main-routine point, and the stats.
std::string fullResults(const AbstractDebugger &Dbg) {
  json::Value V = json::Value::array();
  for (const NecessaryCondition &C : Dbg.conditions())
    V.push(C.toJson());
  for (const InvariantWarning &W : Dbg.invariantWarnings())
    V.push(W.toJson());
  V.push(Dbg.checks().toJson());
  for (const PointState &S : Dbg.mainStates())
    V.push(S.toJson());
  V.push(Dbg.stats().toJson());
  return V.str();
}

/// The demand-run counterpart: in-cone findings, the state at \p Loc,
/// and the stats.
std::string demandResults(const AbstractDebugger &Dbg, SourceLoc Loc) {
  json::Value V = json::Value::array();
  for (const NecessaryCondition &C : Dbg.demandConditions())
    V.push(C.toJson());
  for (const InvariantWarning &W : Dbg.demandInvariantWarnings())
    V.push(W.toJson());
  for (const PointState &S : Dbg.demandStateAt(Loc))
    V.push(S.toJson());
  V.push(Dbg.stats().toJson());
  return V.str();
}

TEST(AbstractDebuggerTest, SecondRunThrowsAndKeepsFirstResults) {
  // A debugger runs once. In all four orderings (a full or a demand
  // run, after a full or a demand run) the second run throws and the
  // first run's findings, states and stats stay as they were.
  AnalysisOptions Opts = AnalysisOptions().terminationGoal().backwardRounds(3);
  const SourceLoc Loc(13, 0); // m := mc(n)
  const DemandSpec Spec = DemandSpec::point(Loc);
  for (bool FirstFull : {true, false}) {
    for (bool SecondFull : {true, false}) {
      SCOPED_TRACE(std::string(FirstFull ? "full" : "demand") + " then " +
                   (SecondFull ? "full" : "demand"));
      DiagnosticsEngine Diags;
      auto Dbg = AbstractDebugger::create(paper::McCarthyProgram, Diags, Opts);
      ASSERT_NE(Dbg, nullptr) << Diags.str();
      if (FirstFull) {
        Dbg->analyze();
      } else {
        Dbg->analyzeDemand(Spec);
        ASSERT_FALSE(Dbg->demandStateAt(Loc).empty());
      }
      auto Results = [&] {
        return FirstFull ? fullResults(*Dbg) : demandResults(*Dbg, Loc);
      };
      std::string First = Results();

      if (SecondFull) {
        EXPECT_THROW(Dbg->analyze(), std::logic_error);
      } else {
        EXPECT_THROW(Dbg->analyzeDemand(Spec), std::logic_error);
      }
      EXPECT_EQ(Results(), First);
      EXPECT_EQ(Dbg->analyzed(), FirstFull);
      if (!FirstFull) {
        EXPECT_THROW(Dbg->conditions(), std::logic_error)
            << "a demand run never satisfies the full-result guard";
      }
    }
  }
}

} // namespace
