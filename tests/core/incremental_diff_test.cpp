//===- tests/core/incremental_diff_test.cpp - Warm-start differential -----===//
//
// The warm-start machinery (WarmStartMemo replay in the solver, the
// per-edge link-transfer memos in the supergraph, the per-slot dirty
// tracking in the analyzer) is required to be *invisible* in every
// observable result: a warm-started refinement chain must produce
// bitwise-identical invariants, findings and envelope flags to a cold
// chain, differing only in the work counters. This battery pins that
// guarantee on 200 random programs and the paper's examples.
//
//===----------------------------------------------------------------------===//

#include "core/AnalysisSession.h"
#include "frontend/PaperPrograms.h"

#include "../common/AnalysisTestUtil.h"
#include "../common/RandomProgramGen.h"

#include <gtest/gtest.h>

using namespace syntox;
using namespace syntox::test;

namespace {

/// The findings document minus the work counters: warm and cold runs
/// agree on everything except `stats` and `metrics` (evaluation counts,
/// skip counters, timings), which are exactly the keys stripped here.
json::Value semanticFindings(const AnalysisResult &R) {
  json::Value Doc = R.toJson();
  json::Value Out = json::Value::object();
  for (const auto &KV : Doc.members())
    if (KV.first != "stats" && KV.first != "metrics")
      Out.set(KV.first, KV.second);
  return Out;
}

/// Copy of \p Base for deriving the warm/cold variants of one
/// configuration without mutating it in place.
AnalysisOptions derive(const AnalysisOptions &Base) { return Base; }

/// Runs \p Source warm and cold and asserts identical findings JSON and
/// identical per-point envelope states. Returns the warm run's
/// component-skip count so callers can assert the machinery actually
/// engaged.
uint64_t expectWarmColdIdentical(const std::string &Source,
                                 unsigned Rounds) {
  AnalysisOptions Base =
      withOptions().terminationGoal().backwardRounds(Rounds);

  DiagnosticsEngine WarmDiags;
  auto WarmSession =
      AnalysisSession::create(Source, WarmDiags, derive(Base).warmStart(true));
  EXPECT_NE(WarmSession, nullptr) << WarmDiags.str();
  DiagnosticsEngine ColdDiags;
  auto ColdSession =
      AnalysisSession::create(Source, ColdDiags, derive(Base).warmStart(false));
  EXPECT_NE(ColdSession, nullptr) << ColdDiags.str();
  if (!WarmSession || !ColdSession)
    return 0;

  AnalysisResult Warm = WarmSession->run();
  AnalysisResult Cold = ColdSession->run();

  EXPECT_EQ(Cold.stats().ComponentSkips, 0u);
  EXPECT_EQ(Cold.stats().SkippedSteps, 0u);

  json::Value WarmDoc = semanticFindings(Warm);
  json::Value ColdDoc = semanticFindings(Cold);
  EXPECT_TRUE(WarmDoc == ColdDoc)
      << "warm:\n" << WarmDoc.pretty() << "\ncold:\n" << ColdDoc.pretty();

  // The structured per-point states (reachability, InEnvelope, variable
  // bindings) must agree too — they are the debugger's user-facing view
  // of the invariants.
  std::vector<PointState> WarmStates = Warm.mainStates();
  std::vector<PointState> ColdStates = Cold.mainStates();
  EXPECT_EQ(WarmStates.size(), ColdStates.size());
  if (WarmStates.size() != ColdStates.size())
    return 0;
  for (size_t I = 0; I < WarmStates.size(); ++I) {
    EXPECT_EQ(WarmStates[I].Reachable, ColdStates[I].Reachable);
    EXPECT_EQ(WarmStates[I].InEnvelope, ColdStates[I].InEnvelope)
        << "InEnvelope differs at point " << WarmStates[I].PointDesc;
    EXPECT_TRUE(WarmStates[I].toJson() == ColdStates[I].toJson())
        << "state differs at point " << WarmStates[I].PointDesc;
  }
  return Warm.stats().ComponentSkips;
}

TEST(IncrementalDiffTest, TwoHundredSeedsWarmEqualsCold) {
  // 200 random programs, two backward rounds so the later phases have recorded memos to replay. The
  // invariants are compared store-by-store at every supergraph node
  // (sharing one AST between the analyzers keeps StoreOps::equal
  // meaningful).
  uint64_t TotalSkips = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    ProgramGenerator Gen(Seed * 9973);
    std::string Source = Gen.generate();
    SCOPED_TRACE("seed " + std::to_string(Seed) + "\n" + Source);

    auto Warm = analyzeProgram(Source, withOptions()
                                           .terminationGoal()
                                           .backwardRounds(2)
                                           .warmStart(true));
    ASSERT_TRUE(Warm.FE.SemaOk);
    auto Cold = reanalyze(Warm, withOptions()
                                    .terminationGoal()
                                    .backwardRounds(2)
                                    .warmStart(false));

    const StoreOps &Ops = Warm.An->storeOps();
    ASSERT_EQ(Warm.An->graph().numNodes(), Cold->graph().numNodes());
    for (unsigned Node = 0; Node < Warm.An->graph().numNodes(); ++Node) {
      EXPECT_TRUE(Ops.equal(Warm.An->forwardAt(Node), Cold->forwardAt(Node)))
          << "forward invariant differs at node " << Node;
      EXPECT_TRUE(Ops.equal(Warm.An->envelopeAt(Node), Cold->envelopeAt(Node)))
          << "envelope differs at node " << Node;
    }
    EXPECT_EQ(Cold->stats().ComponentSkips, 0u);
    TotalSkips += Warm.An->stats().ComponentSkips;
  }
  // The battery is vacuous if warm starts never replay anything.
  EXPECT_GT(TotalSkips, 0u);
}

TEST(IncrementalDiffTest, FindingsIdenticalOnPaperPrograms) {
  const char *const Programs[] = {
      paper::ForProgram,      paper::WhileProgram,
      paper::FactProgram,     paper::SelectProgram,
      paper::IntermittentProgram, paper::McCarthyProgram,
      paper::McCarthyBuggy,   paper::BinarySearchProgram,
  };
  for (const char *Source : Programs) {
    SCOPED_TRACE(Source);
    EXPECT_GT(expectWarmColdIdentical(Source, /*Rounds=*/3), 0u)
        << "warm start never engaged";
  }
}

TEST(IncrementalDiffTest, FindingsIdenticalOnRandomPrograms) {
  // Full findings-document comparison on a slice of the random battery
  // (the 200-seed store-level test above covers breadth, this covers
  // the serialized findings and states).
  for (uint64_t Seed = 1; Seed <= 24; ++Seed) {
    ProgramGenerator Gen(Seed * 7717);
    std::string Source = Gen.generate();
    SCOPED_TRACE("seed " + std::to_string(Seed) + "\n" + Source);
    expectWarmColdIdentical(Source, /*Rounds=*/2);
  }
}

TEST(IncrementalDiffTest, WarmRunDoesLessWorkOnLaterRounds) {
  // The perf claim behind the machinery: on a multi-round chain over a
  // stable program, the warm run's live evaluation count drops well
  // below the cold run's (every round past the first replays the
  // still-stable components).
  AnalysisOptions Base = withOptions().terminationGoal().backwardRounds(4);
  auto Warm = analyzeProgram(paper::McCarthyProgram,
                             derive(Base).warmStart(true));
  auto Cold = reanalyze(Warm, derive(Base).warmStart(false));
  auto liveSteps = [](const AnalysisStats &S) {
    uint64_t Steps = 0;
    for (const PhaseStats &P : S.Phases)
      Steps += P.WideningSteps + P.NarrowingSteps;
    return Steps;
  };
  uint64_t WarmSteps = liveSteps(Warm.An->stats());
  uint64_t ColdSteps = liveSteps(Cold->stats());
  EXPECT_LE(WarmSteps * 2, ColdSteps)
      << "expected >= 2x step reduction, warm " << WarmSteps << " cold "
      << ColdSteps;
  // Replay must account for exactly the work the cold run performed:
  // live steps plus skipped steps equals the cold total.
  EXPECT_EQ(WarmSteps + Warm.An->stats().SkippedSteps, ColdSteps);
}

} // namespace
