//===- tests/core/batch_test.cpp - Cross-request batch scheduling ---------===//
//
// AnalysisBatch runs many sessions on one fixed-size request pool;
// scheduling must affect only when a request runs, never what it
// computes. The battery here pins that: a 200-seed random corpus (all
// four generator families) analyzed through a batch must produce
// findings bitwise-identical to running each program through its own
// sequential AnalysisSession — cold, and warm through per-program
// persistent cache directories. A tsan build of this binary
// doubles as the whole-analysis stress for the request pool.
//
//===----------------------------------------------------------------------===//

#include "core/AnalysisBatch.h"

#include "../common/RandomProgramGen.h"
#include "frontend/PaperPrograms.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

using namespace syntox;
using test::ProgramGenerator;

namespace {

std::string corpusProgram(uint64_t Seed) {
  static const ProgramGenerator::Family Fams[] = {
      ProgramGenerator::Family::Plain,
      ProgramGenerator::Family::GotoHeavy,
      ProgramGenerator::Family::DeepUnfolding,
      ProgramGenerator::Family::AliasingHeavy,
  };
  ProgramGenerator G(Seed, /*WithAssertions=*/true);
  return G.generate(Fams[Seed % 4]);
}

/// The findings document minus the timing/telemetry members.
std::string findingsOnly(const AnalysisResult &R) {
  json::Value Full = R.toJson();
  json::Value V = json::Value::object();
  for (const auto &KV : Full.members())
    if (KV.first != "stats" && KV.first != "metrics")
      V.set(KV.first, KV.second);
  return V.str();
}

std::string sequentialFindings(const std::string &Source,
                               AnalysisOptions Opts) {
  DiagnosticsEngine Diags;
  auto Session = AnalysisSession::create(Source, Diags, std::move(Opts));
  if (!Session)
    return "frontend error: " + Diags.str();
  return findingsOnly(Session->run());
}

TEST(AnalysisBatchTest, OutcomesArriveInAddOrder) {
  AnalysisBatch Batch;
  Batch.add("program a; var x : integer; begin x := 1 end.");
  Batch.add("program b; var y : integer; begin y := 2 end.");
  auto Outcomes = Batch.runAll();
  ASSERT_EQ(Outcomes.size(), 2u);
  EXPECT_EQ(Outcomes[0].Index, 0u);
  EXPECT_EQ(Outcomes[1].Index, 1u);
  EXPECT_TRUE(Outcomes[0].OK);
  EXPECT_TRUE(Outcomes[1].OK);
  EXPECT_EQ(Batch.metrics().counterValue("batch.requests"), 2u);
}

TEST(AnalysisBatchTest, FrontendErrorsSurfaceAsFailedOutcomes) {
  AnalysisBatch Batch;
  Batch.add("program a; var x : integer; begin x := 1 end.");
  Batch.add("program broken; begin x := end.");
  auto Outcomes = Batch.runAll();
  ASSERT_EQ(Outcomes.size(), 2u);
  EXPECT_TRUE(Outcomes[0].OK);
  EXPECT_FALSE(Outcomes[1].OK);
  EXPECT_FALSE(Outcomes[1].Error.empty());
  EXPECT_FALSE(Outcomes[1].Result.has_value());
}

TEST(AnalysisBatchTest, AddOnlyQueuesAndRunAllBuildsEachProgramOnce) {
  // add() parses nothing; runAll() builds each program once on the
  // pool, and the run adopts that build. The batch registry's
  // construction counters therefore hold exactly one build per program.
  std::vector<std::string> Sources = {
      "program p; procedure q(n : integer); "
      "begin if n > 0 then q(n - 1) end; begin q(3) end.",
      paper::mcCarthyK(12)};
  for (uint64_t Seed = 0; Seed < 8; ++Seed)
    Sources.push_back(corpusProgram(Seed));

  uint64_t Instances = 0;
  for (const std::string &Source : Sources) {
    DiagnosticsEngine Diags;
    auto Session = AnalysisSession::create(Source, Diags);
    ASSERT_NE(Session, nullptr) << Diags.str();
    Instances += Session->run().analyzer().graph().instances().size();
  }

  AnalysisBatch::Config Cfg;
  Cfg.TotalThreads = 2;
  AnalysisBatch Batch(Cfg);
  for (const std::string &Source : Sources)
    Batch.add(Source);
  Batch.add("program broken; begin x := end.");
  EXPECT_EQ(Batch.metrics().counterValue("interproc.instances"), 0u);

  auto Outcomes = Batch.runAll();
  ASSERT_EQ(Outcomes.size(), Sources.size() + 1);
  for (size_t I = 0; I < Sources.size(); ++I)
    EXPECT_TRUE(Outcomes[I].OK) << Outcomes[I].Error;
  EXPECT_FALSE(Outcomes.back().OK);
  EXPECT_FALSE(Outcomes.back().Error.empty());
  EXPECT_EQ(Batch.metrics().counterValue("interproc.instances"), Instances);

  // A second wave builds every request again: the frontend error is
  // the same failed outcome.
  std::string Error = Outcomes.back().Error;
  Outcomes.clear();
  auto Second = Batch.runAll();
  EXPECT_FALSE(Second.back().OK);
  EXPECT_EQ(Second.back().Error, Error);
}

TEST(AnalysisBatchTest, ColdBatchIsBitwiseIdenticalToSequential) {
  constexpr uint64_t Seeds = 200;
  AnalysisBatch::Config Cfg;
  Cfg.TotalThreads = 4;
  AnalysisBatch Batch(Cfg);
  std::vector<std::string> Sources;
  for (uint64_t Seed = 0; Seed < Seeds; ++Seed) {
    Sources.push_back(corpusProgram(Seed));
    Batch.add(Sources.back());
  }
  auto Outcomes = Batch.runAll();
  ASSERT_EQ(Outcomes.size(), Seeds);
  for (uint64_t Seed = 0; Seed < Seeds; ++Seed) {
    ASSERT_TRUE(Outcomes[Seed].OK) << "seed " << Seed << ": "
                                   << Outcomes[Seed].Error;
    EXPECT_EQ(findingsOnly(*Outcomes[Seed].Result),
              sequentialFindings(Sources[Seed], AnalysisOptions()))
        << "seed " << Seed;
  }
}

TEST(AnalysisBatchTest, WarmBatchIsBitwiseIdenticalToSequential) {
  // Warm traffic: per-seed persistent cache dirs primed by a first
  // sequential run; both the warm sequential reference and the warm
  // batch replay from the same primed state (the waves are serialized,
  // so sharing each seed's directory across them is race-free).
  constexpr uint64_t Seeds = 60;
  namespace fs = std::filesystem;
  fs::path Root = fs::temp_directory_path() / "syntox_batch_test_warm";
  std::error_code EC;
  fs::remove_all(Root, EC);

  std::vector<std::string> Sources, Dirs, Expected;
  for (uint64_t Seed = 0; Seed < Seeds; ++Seed) {
    Sources.push_back(corpusProgram(Seed));
    fs::path Dir = Root / ("p" + std::to_string(Seed));
    fs::create_directories(Dir, EC);
    Dirs.push_back(Dir.string());
    AnalysisOptions Prime;
    Prime.CacheDir = Dirs.back();
    sequentialFindings(Sources.back(), std::move(Prime)); // prime only
    AnalysisOptions Warm;
    Warm.CacheDir = Dirs.back();
    Expected.push_back(
        sequentialFindings(Sources.back(), std::move(Warm)));
  }

  AnalysisBatch::Config Cfg;
  Cfg.TotalThreads = 4;
  AnalysisBatch Batch(Cfg);
  for (uint64_t Seed = 0; Seed < Seeds; ++Seed) {
    AnalysisOptions Opts;
    Opts.CacheDir = Dirs[Seed];
    Batch.add(Sources[Seed], std::move(Opts));
  }
  auto Outcomes = Batch.runAll();
  ASSERT_EQ(Outcomes.size(), Seeds);
  for (uint64_t Seed = 0; Seed < Seeds; ++Seed) {
    ASSERT_TRUE(Outcomes[Seed].OK) << "seed " << Seed << ": "
                                   << Outcomes[Seed].Error;
    EXPECT_EQ(findingsOnly(*Outcomes[Seed].Result), Expected[Seed])
        << "seed " << Seed;
  }
  fs::remove_all(Root, EC);
}

TEST(AnalysisBatchTest, RepeatedRunAllIsStable) {
  AnalysisBatch Batch;
  Batch.add(corpusProgram(7));
  auto First = Batch.runAll();
  auto Second = Batch.runAll(); // e.g. a warm second wave
  ASSERT_TRUE(First[0].OK);
  ASSERT_TRUE(Second[0].OK);
  EXPECT_EQ(findingsOnly(*First[0].Result),
            findingsOnly(*Second[0].Result));
}

} // namespace
