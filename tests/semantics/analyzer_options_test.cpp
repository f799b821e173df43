//===- tests/semantics/analyzer_options_test.cpp - Option matrix tests ----===//
//
// The Analyzer's configuration surface: narrowing passes control
// widening overshoot, Harrison/forward-only/
// context-insensitive modes behave as specified, and thresholds plug in.
// Option identity (operator== and the cache-key hashes) is pinned too.
//
//===----------------------------------------------------------------------===//

#include "frontend/PaperPrograms.h"

#include "../common/AnalysisTestUtil.h"

#include <gtest/gtest.h>

#include <utility>

using namespace syntox;
using namespace syntox::test;

namespace {

TEST(AnalyzerOptionsTest, NoNarrowingOvershoots) {
  const char *Source = "program p; var i : integer;\n"
                       "begin i := 0; while i < 100 do i := i + 1 end.";
  // i is dead at the exit: query unpruned (see analyzer_test.cpp).
  auto A =
      analyzeProgram(Source, withOptions().narrowingPasses(0).prune(false));
  const VarDecl *I = A.var("", "i");
  // Without narrowing the exit keeps the widened upper bound.
  EXPECT_EQ(A.fwdInt(A.node("", "exit of p"), I),
            Interval(100, INT64_MAX));
  auto B = analyzeProgram(Source, withOptions().prune(false));
  EXPECT_EQ(B.fwdInt(B.node("", "exit of p"), B.var("", "i")),
            Interval(100, 100));
}

TEST(AnalyzerOptionsTest, ForwardOnlySkipsBackwardPhases) {
  auto A = analyzeProgram(paper::ForProgram, withOptions().backward(false));
  // The envelope equals the (refined) forward result: no n < 0 anywhere.
  const VarDecl *N = A.var("", "n");
  unsigned AfterRead = A.node("", "after read n");
  EXPECT_TRUE(A.An->storeOps().domain().intervals().isTop(A.envInt(AfterRead, N)));
  for (const PhaseStats &Phase : A.An->stats().Phases) {
    EXPECT_NE(Phase.Name, "Invariant assertions");
    EXPECT_NE(Phase.Name, "Intermittent assertions");
  }
}

TEST(AnalyzerOptionsTest, HarrisonGfpKeepsGarbage) {
  // The forward *greatest* fixpoint has no reachability meaning: the
  // paper's "no semantic justification". On a simple loop it fails to
  // bound the counter at the head from below the machine bounds.
  const char *Source = "program p; var i : integer;\n"
                       "begin i := 0; while i < 100 do i := i + 1 end.";
  auto A = analyzeProgram(Source, withOptions().harrisonGfp());
  auto B = analyzeProgram(Source, withOptions());
  const StoreOps &Ops = B.An->storeOps();
  unsigned Tighter = 0, Looser = 0;
  for (unsigned Node = 0; Node < B.An->graph().numNodes(); ++Node) {
    bool DefaultTighter = Ops.leq(B.An->forwardAt(Node), A.An->forwardAt(Node));
    bool HarrisonTighter =
        Ops.leq(A.An->forwardAt(Node), B.An->forwardAt(Node));
    Tighter += DefaultTighter && !HarrisonTighter;
    Looser += HarrisonTighter && !DefaultTighter;
  }
  // Harrison's gfp is *unsoundly* tight in places (bottom where code is
  // reachable) and uselessly loose in others; it must differ from the
  // lfp-based analysis.
  EXPECT_GT(Tighter + Looser, 0u);
}

TEST(AnalyzerOptionsTest, ContextInsensitiveStillSound) {
  auto A = analyzeProgram(paper::McCarthyProgram,
                          withOptions().contextInsensitive());
  // mc's result for n <= 100 is 91; the merged analysis must still cover
  // every concrete result (soundness), i.e. at least [81, +oo) wide.
  const VarDecl *M = A.var("", "m");
  Interval Fwd = A.fwdInt(A.node("", "exit of mccarthy"), M);
  EXPECT_TRUE(Fwd.contains(91));
  EXPECT_TRUE(Fwd.contains(140)); // mc(150)
}

TEST(AnalyzerOptionsTest, ThresholdsPreserveResults) {
  auto A = analyzeProgram(paper::IntermittentProgramPlain,
                          withOptions().wideningThresholds({0, 10, 100, 101}).prune(
                              false));
  const VarDecl *I = A.var("", "i");
  EXPECT_EQ(A.fwdInt(A.node("", "exit of intermit"), I),
            Interval(100, INT64_MAX));
  // (exit is [100, +oo) here because i's start is read, not 0.)
}

TEST(AnalyzerOptionsTest, ExtraBackwardRoundsRefineMonotonically) {
  for (unsigned Rounds : {1u, 2u, 3u}) {
    auto A = analyzeProgram(
        paper::SelectProgram,
        withOptions().backwardRounds(Rounds).terminationGoal());
    const VarDecl *N = A.var("", "n");
    // The derived condition never degrades with more rounds.
    EXPECT_EQ(A.envInt(A.node("", "after read n"), N),
              Interval(INT64_MIN, 10))
        << "rounds=" << Rounds;
  }
}

TEST(AnalyzerOptionsTest, PhaseSnapshotsMatchSchedule) {
  auto A = analyzeProgram(
      paper::FactProgram, withOptions().backwardRounds(2).terminationGoal());
  // Two forward passes, then 2 x (always, eventually, forward).
  std::vector<std::string> Names;
  for (const PhaseStats &Phase : A.An->stats().Phases)
    Names.push_back(Phase.Name);
  const std::vector<std::string> Expected = {
      "Forward analysis",        "Forward refinement",
      "Invariant assertions",    "Intermittent assertions",
      "Forward analysis",        "Invariant assertions",
      "Intermittent assertions", "Forward analysis"};
  EXPECT_EQ(Names, Expected);
}

TEST(AnalyzerOptionsTest, EqualityComparesEveryMember) {
  // operator== is the one definition of "same configuration": each
  // knob on its own must make two option sets unequal.
  const AnalysisOptions Base;
  EXPECT_TRUE(AnalysisOptions(Base) == Base);
  MetricsRegistry Metrics;
  TraceRecorder Trace;
  const std::pair<const char *, AnalysisOptions> Variants[] = {
      {"domain", AnalysisOptions().domain(DomainKind::Product)},
      {"narrowingPasses", AnalysisOptions().narrowingPasses(2)},
      {"backwardRounds", AnalysisOptions().backwardRounds(2)},
      {"terminationGoal", AnalysisOptions().terminationGoal()},
      {"backward", AnalysisOptions().backward(false)},
      {"harrisonGfp", AnalysisOptions().harrisonGfp()},
      {"contextInsensitive", AnalysisOptions().contextInsensitive()},
      {"warmStart", AnalysisOptions().warmStart(false)},
      {"prune", AnalysisOptions().prune(false)},
      {"wideningThresholds", AnalysisOptions().wideningThresholds({0, 100})},
      {"cacheDir", AnalysisOptions().cacheDir("warm")},
      {"telemetry.metrics", AnalysisOptions().telemetry({nullptr, &Metrics})},
      {"telemetry.trace", AnalysisOptions().telemetry({&Trace, nullptr})},
  };
  for (const auto &[Name, Variant] : Variants) {
    EXPECT_FALSE(Variant == Base) << Name;
    EXPECT_TRUE(AnalysisOptions(Variant) == Variant) << Name;
  }
}

TEST(AnalyzerOptionsTest, OptionsHashesMatchTheRecordedGoldens) {
  // optionsHash() names the on-disk warm files, so cache files written
  // by earlier builds must keep their names. These values were recorded
  // before the iteration-strategy knob was retired; its slot in the
  // hash is now a constant.
  AnalysisOptions R;
  EXPECT_EQ(R.optionsHash(), 0x04e3292583958ff9ull);
  EXPECT_EQ(AnalysisOptions().domain(DomainKind::Product).optionsHash(),
            0x83a3431ac5d22dcfull);
  EXPECT_EQ(
      AnalysisOptions().terminationGoal().backwardRounds(2).optionsHash(),
      0xa5c62d3c4ba0e2f9ull);

  // Domain and pruning change the stored values themselves.
  AnalysisOptions Product = AnalysisOptions().domain(DomainKind::Product);
  EXPECT_NE(R.optionsHash(), Product.optionsHash());
  EXPECT_NE(R.optionsHash(), AnalysisOptions().prune(false).optionsHash());
  // The chain length shapes the recorded state.
  EXPECT_NE(R.optionsHash(), AnalysisOptions().backwardRounds(2).optionsHash());
  // Speed-only knobs leave the hash alone.
  EXPECT_EQ(R.optionsHash(), AnalysisOptions().warmStart(false).optionsHash());
}

} // namespace
