//===- tests/core/liveness_prune_test.cpp - Pruning differential ----------===//
//
// Liveness-driven slot pruning is a pure storage optimization: the
// analysis stops *tracking* dead slots, it never changes what it
// concludes. This battery pins that guarantee as a differential against
// prune(false):
//  - findings documents bitwise identical (verdict, necessary
//    conditions, invariant warnings, check classifications),
//  - every live variable's forward and envelope value bitwise equal at
//    every supergraph node (200 random programs),
//  - the structured point states equal modulo the documented PrunedVars
//    contract: a pruned run shows a subset of the unpruned bindings and
//    names every dropped variable in PrunedVars,
//  - warm-started chains and demand-driven queries behave identically,
//  - the machinery actually engages (pruned-slot counters are nonzero),
//    so the battery cannot pass vacuously.
//
//===----------------------------------------------------------------------===//

#include "core/AnalysisSession.h"
#include "frontend/PaperPrograms.h"
#include "semantics/Liveness.h"
#include "support/Metrics.h"

#include "../common/AnalysisTestUtil.h"
#include "../common/RandomProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

using namespace syntox;
using namespace syntox::test;

namespace {

/// The findings document minus the work counters (`stats`, `metrics`):
/// pruned and unpruned runs agree on everything semantic and differ
/// only in evaluation/pruning telemetry.
json::Value semanticFindings(const AnalysisResult &R) {
  json::Value Doc = R.toJson();
  json::Value Out = json::Value::object();
  for (const auto &KV : Doc.members())
    if (KV.first != "stats" && KV.first != "metrics")
      Out.set(KV.first, KV.second);
  return Out;
}

AnalysisOptions derive(const AnalysisOptions &Base) { return Base; }

/// Every named variable of the program: globals plus each routine's
/// owned locals/formals. The store-level sweep queries all of them at
/// every node — out-of-scope variables read identically (absent) from
/// both runs, so the sweep needs no scope filtering.
std::vector<const VarDecl *> allVars(const AnalyzedProgram &P) {
  std::vector<const VarDecl *> Out;
  for (const VarDecl *V : P.FE.Program->ownedVars())
    Out.push_back(V);
  for (RoutineDecl *R : P.FE.Routines)
    for (const VarDecl *V : R->ownedVars())
      Out.push_back(V);
  return Out;
}

/// The PrunedVars contract, point by point: reachability flags equal;
/// every binding the pruned run shows appears with the identical
/// rendering in the unpruned run; every unpruned binding is either
/// reproduced exactly or its variable is named in PrunedVars; the
/// unpruned run never reports pruning.
void expectStatesMatchModuloPruning(const std::vector<PointState> &Pruned,
                                    const std::vector<PointState> &Full) {
  ASSERT_EQ(Pruned.size(), Full.size());
  for (size_t I = 0; I < Pruned.size(); ++I) {
    const PointState &P = Pruned[I];
    const PointState &F = Full[I];
    EXPECT_EQ(P.Reachable, F.Reachable) << F.PointDesc;
    EXPECT_EQ(P.InEnvelope, F.InEnvelope) << F.PointDesc;
    EXPECT_TRUE(F.PrunedVars.empty())
        << "unpruned run reported pruning at " << F.PointDesc;
    for (const StateBinding &B : P.Bindings) {
      auto It = std::find_if(
          F.Bindings.begin(), F.Bindings.end(),
          [&](const StateBinding &FB) { return FB.Var == B.Var; });
      ASSERT_NE(It, F.Bindings.end())
          << B.Var << " constrained only under pruning at " << F.PointDesc;
      EXPECT_EQ(It->Value, B.Value)
          << B.Var << " differs at " << F.PointDesc;
    }
    for (const StateBinding &B : F.Bindings) {
      bool Shown = std::any_of(
          P.Bindings.begin(), P.Bindings.end(), [&](const StateBinding &PB) {
            return PB.Var == B.Var && PB.Value == B.Value;
          });
      bool PrunedAway = std::find(P.PrunedVars.begin(), P.PrunedVars.end(),
                                  B.Var) != P.PrunedVars.end();
      EXPECT_TRUE(Shown || PrunedAway)
          << B.Var << " = " << B.Value << " lost (not pruned) at "
          << F.PointDesc;
    }
  }
}

/// Runs \p Source pruned and unpruned under \p Base and asserts
/// identical findings plus states-modulo-pruning.
void expectPrunedMatchesFull(const std::string &Source,
                             const AnalysisOptions &Base) {
  DiagnosticsEngine PrunedDiags;
  auto PrunedSession =
      AnalysisSession::create(Source, PrunedDiags, derive(Base).prune(true));
  ASSERT_NE(PrunedSession, nullptr) << PrunedDiags.str();
  DiagnosticsEngine FullDiags;
  auto FullSession =
      AnalysisSession::create(Source, FullDiags, derive(Base).prune(false));
  ASSERT_NE(FullSession, nullptr) << FullDiags.str();

  AnalysisResult Pruned = PrunedSession->run();
  AnalysisResult Full = FullSession->run();

  json::Value PrunedDoc = semanticFindings(Pruned);
  json::Value FullDoc = semanticFindings(Full);
  EXPECT_TRUE(PrunedDoc == FullDoc)
      << "pruned:\n" << PrunedDoc.pretty() << "\nfull:\n" << FullDoc.pretty();

  expectStatesMatchModuloPruning(Pruned.mainStates(), Full.mainStates());
}

//===----------------------------------------------------------------------===//
// Store-level equality on live slots
//===----------------------------------------------------------------------===//

TEST(LivenessPruneTest, TwoHundredSeedsLiveStatesMatchUnpruned) {
  // 200 random programs. The pruned and unpruned analyzers share one
  // AST (reanalyze), so StoreOps::get is comparable key-by-key: every
  // variable whose slot the liveness masks call live must carry the
  // bitwise-identical forward and envelope value in both runs, at
  // every supergraph node.
  uint64_t TotalPruned = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    ProgramGenerator Gen(Seed * 8293);
    std::string Source = Gen.generate();
    SCOPED_TRACE("seed " + std::to_string(Seed) + "\n" + Source);
    AnalysisOptions Base = withOptions().terminationGoal();

    auto Pruned = analyzeProgram(Source, derive(Base).prune(true));
    ASSERT_TRUE(Pruned.FE.SemaOk);
    auto Full = reanalyze(Pruned, derive(Base).prune(false));

    const LivenessInfo *Live = Pruned.An->liveness();
    ASSERT_NE(Live, nullptr);
    const StoreOps &Ops = Pruned.An->storeOps();
    std::vector<const VarDecl *> Vars = allVars(Pruned);
    ASSERT_EQ(Pruned.An->graph().numNodes(), Full->graph().numNodes());
    for (unsigned Node = 0; Node < Pruned.An->graph().numNodes(); ++Node) {
      for (const VarDecl *V : Vars) {
        if (!Live->isLive(Node, V))
          continue;
        EXPECT_TRUE(Ops.get(Pruned.An->forwardAt(Node), V) ==
                    Ops.get(Full->forwardAt(Node), V))
            << "forward value of " << V->name() << " differs at node "
            << Node;
        EXPECT_TRUE(Ops.get(Pruned.An->envelopeAt(Node), V) ==
                    Ops.get(Full->envelopeAt(Node), V))
            << "envelope value of " << V->name() << " differs at node "
            << Node;
      }
    }
    EXPECT_EQ(Full->prunedSlots(), 0u);
    TotalPruned += Pruned.An->prunedSlots();
  }
  // The battery is vacuous if the random programs never have dead slots.
  EXPECT_GT(TotalPruned, 0u);
}

//===----------------------------------------------------------------------===//
// Findings documents and structured point states
//===----------------------------------------------------------------------===//

TEST(LivenessPruneTest, FindingsIdenticalOnPaperPrograms) {
  const char *const Programs[] = {
      paper::ForProgram,          paper::WhileProgram,
      paper::FactProgram,         paper::SelectProgram,
      paper::IntermittentProgram, paper::McCarthyProgram,
      paper::McCarthyBuggy,       paper::McCarthyWithInvariant,
      paper::BinarySearchProgram, paper::AckermannProgram,
  };
  for (const char *Source : Programs) {
    SCOPED_TRACE(Source);
    expectPrunedMatchesFull(Source, withOptions().terminationGoal());
  }
}

TEST(LivenessPruneTest, FindingsIdenticalOnRandomPrograms) {
  // Serialized findings and point states on a slice of the random
  // battery (the 200-seed test above covers store-level breadth).
  for (uint64_t Seed = 1; Seed <= 24; ++Seed) {
    ProgramGenerator Gen(Seed * 6121, /*WithAssertions=*/true);
    std::string Source = Gen.generate();
    SCOPED_TRACE("seed " + std::to_string(Seed) + "\n" + Source);
    expectPrunedMatchesFull(Source, withOptions().terminationGoal());
  }
}

TEST(LivenessPruneTest, WarmStartedChainsMatchUnpruned) {
  // Pruning composes with the warm-start replay machinery: a
  // multi-round warm chain must still be a pure storage optimization.
  for (const char *Source :
       {paper::WhileProgram, paper::McCarthyProgram, paper::SelectProgram}) {
    SCOPED_TRACE(Source);
    expectPrunedMatchesFull(Source, withOptions()
                                        .terminationGoal()
                                        .warmStart(true)
                                        .backwardRounds(3));
  }
}

//===----------------------------------------------------------------------===//
// Demand-driven queries
//===----------------------------------------------------------------------===//

TEST(LivenessPruneTest, DemandQueriesMatchModuloPruning) {
  // At the intermittent assertion of each generated program: the
  // pruned demand answer must equal the pruned full-solve answer
  // bitwise, and the unpruned demand answer modulo PrunedVars.
  for (uint64_t Seed : {2u, 7u, 19u, 33u}) {
    ProgramGenerator Gen(Seed * 7919, /*WithAssertions=*/true);
    std::string Source = Gen.generate();
    SCOPED_TRACE("seed " + std::to_string(Seed) + "\n" + Source);
    size_t Pos = Source.find("intermittent(");
    ASSERT_NE(Pos, std::string::npos);
    uint32_t Line = 1 + static_cast<uint32_t>(
                            std::count(Source.begin(), Source.end(), '\n') -
                            std::count(Source.begin() + Pos, Source.end(),
                                       '\n'));
    SourceLoc Loc(Line, 0);
    AnalysisOptions Base = withOptions();

    DiagnosticsEngine PrunedDiags;
    auto PrunedSession =
        AnalysisSession::create(Source, PrunedDiags, derive(Base).prune(true));
    ASSERT_NE(PrunedSession, nullptr) << PrunedDiags.str();
    AnalysisResult PrunedFull = PrunedSession->run();
    DemandResult PrunedDemand = PrunedSession->demandStateAt(Loc);
    ASSERT_TRUE(PrunedDemand.covers(Loc));

    // Demand vs full within the pruned configuration: bitwise.
    std::vector<PointState> Want = PrunedFull.stateAt(Loc);
    std::vector<PointState> Got = PrunedDemand.stateAt(Loc);
    ASSERT_EQ(Got.size(), Want.size());
    for (size_t I = 0; I < Want.size(); ++I)
      EXPECT_TRUE(Got[I].toJson() == Want[I].toJson())
          << "demand state differs at " << Want[I].PointDesc;

    // Pruned demand vs unpruned demand: equal modulo PrunedVars.
    DiagnosticsEngine FullDiags;
    auto FullSession =
        AnalysisSession::create(Source, FullDiags, derive(Base).prune(false));
    ASSERT_NE(FullSession, nullptr) << FullDiags.str();
    FullSession->run();
    DemandResult FullDemand = FullSession->demandStateAt(Loc);
    ASSERT_TRUE(FullDemand.covers(Loc));
    expectStatesMatchModuloPruning(Got, FullDemand.stateAt(Loc));
  }
}

//===----------------------------------------------------------------------===//
// Persist round-trip
//===----------------------------------------------------------------------===//

TEST(LivenessPruneTest, PersistRoundTripMatchesUnpruned) {
  // The disk cache stores pruned rows (the SoA codec serializes only
  // present slots); a cache-loaded rerun must still match the unpruned
  // analysis. PruneDeadSlots is part of the options hash, so the pruned
  // and unpruned caches never collide in one directory.
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "syntox_liveness_prune_test";
  std::error_code EC;
  fs::remove_all(Dir, EC);
  fs::create_directories(Dir, EC);

  auto runOnce = [&](bool Prune, uint64_t &Loaded) {
    MetricsRegistry Metrics;
    AnalysisOptions Opts = withOptions().terminationGoal().prune(Prune);
    Opts.CacheDir = Dir.string();
    Opts.Telem.Metrics = &Metrics;
    DiagnosticsEngine Diags;
    auto Session =
        AnalysisSession::create(paper::McCarthyProgram, Diags, Opts);
    EXPECT_NE(Session, nullptr) << Diags.str();
    AnalysisResult R = Session->run();
    Loaded = Metrics.counterValue("persist.loaded");
    return R;
  };

  uint64_t Ld = 0;
  AnalysisResult PrunedCold = runOnce(true, Ld);
  EXPECT_EQ(Ld, 0u);
  AnalysisResult PrunedWarm = runOnce(true, Ld);
  EXPECT_EQ(Ld, 1u) << "pruned rerun did not load its cache";
  AnalysisResult FullCold = runOnce(false, Ld);
  EXPECT_EQ(Ld, 0u) << "unpruned run loaded the pruned cache";
  AnalysisResult FullWarm = runOnce(false, Ld);
  EXPECT_EQ(Ld, 1u) << "unpruned rerun did not load its cache";

  EXPECT_TRUE(semanticFindings(PrunedCold) == semanticFindings(PrunedWarm));
  EXPECT_TRUE(semanticFindings(FullCold) == semanticFindings(FullWarm));
  EXPECT_TRUE(semanticFindings(PrunedWarm) == semanticFindings(FullWarm))
      << "cache-loaded pruned findings differ from unpruned";
  expectStatesMatchModuloPruning(PrunedWarm.mainStates(),
                                 FullWarm.mainStates());
  fs::remove_all(Dir, EC);
}

//===----------------------------------------------------------------------===//
// The machinery engages and reports
//===----------------------------------------------------------------------===//

TEST(LivenessPruneTest, PruningEngagesAndReportsCounters) {
  // The While program writes its counter but never reads it after the
  // loop, so slots die before the exit: the default run must prune,
  // flag the dead variables in PrunedVars, and publish the counters;
  // the prune(false) run must do none of that.
  MetricsRegistry PrunedMetrics;
  AnalysisOptions PrunedOpts = withOptions().terminationGoal();
  PrunedOpts.Telem.Metrics = &PrunedMetrics;
  DiagnosticsEngine PrunedDiags;
  auto PrunedSession =
      AnalysisSession::create(paper::WhileProgram, PrunedDiags, PrunedOpts);
  ASSERT_NE(PrunedSession, nullptr) << PrunedDiags.str();
  AnalysisResult Pruned = PrunedSession->run();

  EXPECT_GT(PrunedMetrics.counterValue("store.pruned_slots"), 0u);
  size_t PrunedFlags = 0;
  for (const PointState &S : Pruned.mainStates())
    PrunedFlags += S.PrunedVars.size();
  EXPECT_GT(PrunedFlags, 0u);

  MetricsRegistry FullMetrics;
  AnalysisOptions FullOpts = withOptions().terminationGoal().prune(false);
  FullOpts.Telem.Metrics = &FullMetrics;
  DiagnosticsEngine FullDiags;
  auto FullSession =
      AnalysisSession::create(paper::WhileProgram, FullDiags, FullOpts);
  ASSERT_NE(FullSession, nullptr) << FullDiags.str();
  AnalysisResult Full = FullSession->run();

  EXPECT_EQ(FullMetrics.counterValue("store.pruned_slots"), 0u);
  for (const PointState &S : Full.mainStates())
    EXPECT_TRUE(S.PrunedVars.empty()) << S.PointDesc;
}

TEST(LivenessPruneTest, LivenessMasksNeverExceedUniverse) {
  // Sanity on the mask bookkeeping the counters are derived from.
  auto P = analyzeProgram(paper::FactProgram, withOptions().terminationGoal());
  ASSERT_TRUE(P.FE.SemaOk);
  const LivenessInfo *Live = P.An->liveness();
  ASSERT_NE(Live, nullptr);
  EXPECT_GT(Live->liveSlotCount(), 0u);
  EXPECT_LE(Live->liveSlotCount(), Live->slotUniverse());
  EXPECT_EQ(Live->slotUniverse(),
            uint64_t(P.An->graph().numNodes()) * Live->numSlots());
}

} // namespace
