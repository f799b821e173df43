//===- tests/core/persist_cache_test.cpp - On-disk cache differential -----===//
//
// The persistent warm-start cache (src/persist/WarmCache.*) must be
// invisible in every observable result and fail safe on every broken
// input: a rerun against a valid cache replays the whole refinement
// chain (zero live solver steps) with findings bitwise-identical to a
// cold run, and a truncated, corrupted, version-skewed or
// options-skewed cache file falls back to a cold solve with — again —
// identical findings. The fuzzed battery pins the save/load round trip
// on 200 random programs across the three iteration strategies.
//
//===----------------------------------------------------------------------===//

#include "core/AnalysisSession.h"
#include "frontend/PaperPrograms.h"
#include "persist/WarmCache.h"
#include "support/Metrics.h"

#include "../common/AnalysisTestUtil.h"
#include "../common/RandomProgramGen.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

using namespace syntox;
using namespace syntox::test;

namespace fs = std::filesystem;

namespace {

const char *const TwoProcProgram = R"(
program two;
var a, b : integer;

procedure p1(var x : integer);
var i : integer;
begin
  i := 0;
  while i < 50 do begin
    i := i + 1;
    x := i
  end
end;

procedure p2(var y : integer);
var j : integer;
begin
  j := 10;
  while j > 0 do begin
    j := j - 1;
    y := j
  end
end;

begin
  a := 0;
  b := 0;
  p1(a);
  p2(b);
  assert(a >= 0);
  assert(b >= 0)
end.
)";

/// A scratch cache directory, wiped on construction and destruction.
struct ScratchDir {
  fs::path Dir;
  explicit ScratchDir(const std::string &Name)
      : Dir(fs::temp_directory_path() / ("syntox_persist_test_" + Name)) {
    std::error_code EC;
    fs::remove_all(Dir, EC);
    fs::create_directories(Dir, EC);
  }
  ~ScratchDir() {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
  std::string str() const { return Dir.string(); }
};

struct RunOutcome {
  json::Value Findings;     ///< toJson() minus stats/metrics
  uint64_t LiveSteps = 0;   ///< widening + narrowing steps actually run
  uint64_t Loaded = 0;      ///< persist.loaded counter
  uint64_t Fallback = 0;    ///< persist.fallback counter
  bool Ok = false;
};

json::Value stripCounters(const json::Value &Doc) {
  json::Value Out = json::Value::object();
  for (const auto &KV : Doc.members())
    if (KV.first != "stats" && KV.first != "metrics")
      Out.set(KV.first, KV.second);
  return Out;
}

/// One full analysis of \p Source with its own metrics registry.
/// \p CacheDir empty = plain cold run.
RunOutcome runOnce(const std::string &Source, const std::string &CacheDir,
                   AnalysisOptions Opts = withOptions().terminationGoal()) {
  MetricsRegistry Metrics;
  Opts.CacheDir = CacheDir;
  Opts.Telem.Metrics = &Metrics;
  RunOutcome O;
  DiagnosticsEngine Diags;
  auto Session = AnalysisSession::create(Source, Diags, Opts);
  EXPECT_NE(Session, nullptr) << Diags.str();
  if (!Session)
    return O;
  AnalysisResult R = Session->run();
  O.Findings = stripCounters(R.toJson());
  for (const PhaseStats &P : R.stats().Phases)
    O.LiveSteps += P.WideningSteps + P.NarrowingSteps;
  O.Loaded = Metrics.counterValue("persist.loaded");
  O.Fallback = Metrics.counterValue("persist.fallback");
  O.Ok = true;
  return O;
}

/// Expects the cache at \p Dir (already seeded for \p Source) to be
/// rejected: the run must report a fallback, perform live work, and
/// still match \p Cold's findings.
void expectFallbackIdentical(const std::string &Source,
                             const std::string &Dir,
                             const RunOutcome &Cold, const char *What) {
  RunOutcome R = runOnce(Source, Dir);
  ASSERT_TRUE(R.Ok) << What;
  EXPECT_EQ(R.Loaded, 0u) << What << ": cache was unexpectedly accepted";
  EXPECT_EQ(R.Fallback, 1u) << What;
  EXPECT_GT(R.LiveSteps, 0u) << What;
  EXPECT_TRUE(R.Findings == Cold.Findings)
      << What << "\nfallback:\n" << R.Findings.pretty() << "\ncold:\n"
      << Cold.Findings.pretty();
}

/// The single cache file written for \p Opts under \p Dir.
fs::path cacheFile(const std::string &Dir,
                   AnalysisOptions Opts = withOptions().terminationGoal()) {
  return persist::cacheFilePath(Dir, Opts);
}

std::vector<char> readFile(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(In), {});
}

void writeFile(const fs::path &P, const std::vector<char> &Bytes) {
  std::ofstream Out(P, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

TEST(PersistCacheTest, UnchangedRerunReplaysWholeChain) {
  ScratchDir Dir("rerun");
  RunOutcome Cold = runOnce(TwoProcProgram, Dir.str());
  ASSERT_TRUE(Cold.Ok);
  EXPECT_EQ(Cold.Loaded, 0u);
  EXPECT_GT(Cold.LiveSteps, 0u);
  ASSERT_TRUE(fs::exists(cacheFile(Dir.str())));

  RunOutcome Warm = runOnce(TwoProcProgram, Dir.str());
  ASSERT_TRUE(Warm.Ok);
  EXPECT_EQ(Warm.Loaded, 1u);
  EXPECT_EQ(Warm.Fallback, 0u);
  EXPECT_EQ(Warm.LiveSteps, 0u)
      << "unchanged rerun must replay every component from disk";
  EXPECT_TRUE(Warm.Findings == Cold.Findings);
}

TEST(PersistCacheTest, EditedRoutineResolvesOnlyItsComponents) {
  ScratchDir Dir("edit");
  RunOutcome Seed = runOnce(TwoProcProgram, Dir.str());
  ASSERT_TRUE(Seed.Ok);

  // Same program with one constant changed inside p2: p1's components
  // keep their fingerprints and replay; p2 (and the main-body suffix
  // its result feeds) re-solves live.
  std::string Edited = TwoProcProgram;
  size_t At = Edited.find("j := 10");
  ASSERT_NE(At, std::string::npos);
  Edited.replace(At, 7, "j := 20");

  RunOutcome EditedCold = runOnce(Edited, "");
  RunOutcome EditedWarm = runOnce(Edited, Dir.str());
  ASSERT_TRUE(EditedCold.Ok && EditedWarm.Ok);
  EXPECT_EQ(EditedWarm.Loaded, 1u);
  EXPECT_GT(EditedWarm.LiveSteps, 0u);
  EXPECT_LT(EditedWarm.LiveSteps, EditedCold.LiveSteps)
      << "partial invalidation must beat the cold edited run";
  EXPECT_TRUE(EditedWarm.Findings == EditedCold.Findings);
}

TEST(PersistCacheTest, ReorderedIdenticalProgramKeepsFindingsIntact) {
  // The same two routines declared in the opposite order: every node
  // index shifts. Whatever the key remap salvages (all of it when the
  // reorder leaves the fingerprints alone, nothing when the enclosing
  // program's fingerprint absorbs the declaration order), the findings
  // must equal a cold run's — grafting state onto the wrong node would
  // show up here.
  std::string Reordered = TwoProcProgram;
  size_t P1 = Reordered.find("procedure p1");
  size_t P2 = Reordered.find("procedure p2");
  size_t End = Reordered.find("begin\n  a := 0;");
  ASSERT_TRUE(P1 != std::string::npos && P2 != std::string::npos &&
              End != std::string::npos);
  Reordered = Reordered.substr(0, P1) + Reordered.substr(P2, End - P2) +
              Reordered.substr(P1, P2 - P1) + Reordered.substr(End);

  ScratchDir Dir("reorder");
  RunOutcome Seed = runOnce(TwoProcProgram, Dir.str());
  ASSERT_TRUE(Seed.Ok);
  RunOutcome Warm = runOnce(Reordered, Dir.str());
  RunOutcome Cold = runOnce(Reordered, "");
  ASSERT_TRUE(Warm.Ok && Cold.Ok);
  EXPECT_EQ(Warm.Loaded + Warm.Fallback, 1u);
  EXPECT_TRUE(Warm.Findings == Cold.Findings);
}

TEST(PersistCacheTest, TruncatedCacheFallsBackCold) {
  ScratchDir Dir("trunc");
  RunOutcome Cold = runOnce(TwoProcProgram, Dir.str());
  ASSERT_TRUE(Cold.Ok);
  std::vector<char> Full = readFile(cacheFile(Dir.str()));
  ASSERT_GT(Full.size(), 64u);

  for (size_t Keep : {size_t(0), size_t(3), size_t(17), size_t(40),
                      Full.size() / 2, Full.size() - 1}) {
    SCOPED_TRACE("truncated to " + std::to_string(Keep) + " bytes");
    writeFile(cacheFile(Dir.str()),
              std::vector<char>(Full.begin(), Full.begin() + Keep));
    expectFallbackIdentical(TwoProcProgram, Dir.str(), Cold, "truncated");
    // The fallback run re-saved a fresh cache; re-truncate from the
    // original bytes each iteration to keep the cases independent.
  }
}

TEST(PersistCacheTest, CorruptedBytesFallBackCold) {
  ScratchDir Dir("corrupt");
  RunOutcome Cold = runOnce(TwoProcProgram, Dir.str());
  ASSERT_TRUE(Cold.Ok);
  std::vector<char> Full = readFile(cacheFile(Dir.str()));
  ASSERT_GT(Full.size(), 64u);

  // One flipped byte in the body breaks the checksum; in the magic or
  // version fields it breaks the header checks.
  for (size_t At : {size_t(0), size_t(5), size_t(48), Full.size() - 1}) {
    SCOPED_TRACE("flipped byte " + std::to_string(At));
    std::vector<char> Bad = Full;
    Bad[At] = static_cast<char>(Bad[At] ^ 0x5A);
    writeFile(cacheFile(Dir.str()), Bad);
    expectFallbackIdentical(TwoProcProgram, Dir.str(), Cold, "corrupted");
  }
}

TEST(PersistCacheTest, FormatVersionMismatchFallsBackCold) {
  ScratchDir Dir("version");
  RunOutcome Cold = runOnce(TwoProcProgram, Dir.str());
  ASSERT_TRUE(Cold.Ok);
  std::vector<char> Full = readFile(cacheFile(Dir.str()));
  ASSERT_GT(Full.size(), 8u);
  // Bytes 4..7 hold the little-endian format version.
  Full[4] = static_cast<char>(persist::CacheFormatVersion + 1);
  writeFile(cacheFile(Dir.str()), Full);
  expectFallbackIdentical(TwoProcProgram, Dir.str(), Cold,
                          "version mismatch");
}

TEST(PersistCacheTest, OptionsMismatchFallsBackCold) {
  // A cache saved under one configuration, copied over the file name of
  // another: the embedded options hash disagrees and the load must
  // reject it (the two configurations genuinely solve different
  // systems).
  ScratchDir Dir("opts");
  RunOutcome Seed = runOnce(TwoProcProgram, Dir.str());
  ASSERT_TRUE(Seed.Ok);

  AnalysisOptions Other = withOptions().terminationGoal();
  Other.NarrowingPasses = 3;
  fs::path OtherFile = cacheFile(Dir.str(), Other);
  ASSERT_NE(OtherFile, cacheFile(Dir.str()));
  std::error_code EC;
  fs::copy_file(cacheFile(Dir.str()), OtherFile, EC);
  ASSERT_FALSE(EC);

  MetricsRegistry Metrics;
  AnalysisOptions Opts = Other;
  Opts.CacheDir = Dir.str();
  Opts.Telem.Metrics = &Metrics;
  DiagnosticsEngine Diags;
  auto Session = AnalysisSession::create(TwoProcProgram, Diags, Opts);
  ASSERT_NE(Session, nullptr) << Diags.str();
  AnalysisResult R = Session->run();
  EXPECT_EQ(Metrics.counterValue("persist.loaded"), 0u);
  EXPECT_EQ(Metrics.counterValue("persist.fallback"), 1u);

  RunOutcome Cold = runOnce(TwoProcProgram, "", Other);
  EXPECT_TRUE(stripCounters(R.toJson()) == Cold.Findings);
}

TEST(PersistCacheTest, PaperProgramsRoundTripAllStrategies) {
  const char *const Programs[] = {
      paper::ForProgram,          paper::WhileProgram,
      paper::FactProgram,         paper::SelectProgram,
      paper::IntermittentProgram, paper::McCarthyProgram,
      paper::McCarthyBuggy,       paper::BinarySearchProgram,
  };
  unsigned Idx = 0;
  for (const char *Source : Programs) {
    SCOPED_TRACE(Source);
    for (IterationStrategy S :
         {IterationStrategy::Recursive, IterationStrategy::Worklist}) {
      ScratchDir Dir("paper" + std::to_string(Idx++));
      AnalysisOptions Opts = withOptions().terminationGoal().strategy(S);
      RunOutcome Cold = runOnce(Source, Dir.str(), Opts);
      RunOutcome Warm = runOnce(Source, Dir.str(), Opts);
      ASSERT_TRUE(Cold.Ok && Warm.Ok);
      EXPECT_EQ(Warm.Loaded, 1u);
      EXPECT_EQ(Warm.LiveSteps, 0u);
      EXPECT_TRUE(Warm.Findings == Cold.Findings);
    }
  }
}

TEST(PersistCacheTest, FuzzedRoundTripIdenticalFindings) {
  // 200 random programs, strategies cycling per seed: save on the first
  // run, full replay on the second, identical findings both times.
  uint64_t TotalReplayedRuns = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    ProgramGenerator Gen(Seed * 12289);
    std::string Source = Gen.generate();
    SCOPED_TRACE("seed " + std::to_string(Seed) + "\n" + Source);
    IterationStrategy S = Seed % 3 == 1 ? IterationStrategy::Worklist
                                        : IterationStrategy::Recursive;
    AnalysisOptions Opts = withOptions().terminationGoal().strategy(S);

    ScratchDir Dir("fuzz");
    RunOutcome Cold = runOnce(Source, Dir.str(), Opts);
    ASSERT_TRUE(Cold.Ok);
    RunOutcome Warm = runOnce(Source, Dir.str(), Opts);
    ASSERT_TRUE(Warm.Ok);
    EXPECT_EQ(Warm.Loaded, 1u);
    EXPECT_EQ(Warm.LiveSteps, 0u) << "live steps after replay";
    EXPECT_TRUE(Warm.Findings == Cold.Findings)
        << "warm:\n" << Warm.Findings.pretty() << "\ncold:\n"
        << Cold.Findings.pretty();
    TotalReplayedRuns += Warm.LiveSteps == 0;
  }
  EXPECT_EQ(TotalReplayedRuns, 200u);
}

} // namespace
