//===- tests/core/persist_cache_test.cpp - On-disk cache differential -----===//
//
// The persistent warm-start cache (src/persist/WarmCache.*) must be
// invisible in every observable result and fail safe on every broken
// input: a rerun against a valid cache replays the whole refinement
// chain (zero live solver steps) with findings bitwise-identical to a
// cold run, and a truncated, corrupted, version-skewed or
// options-skewed cache file falls back to a cold solve with — again —
// identical findings. The fuzzed battery pins the save/load round trip
// on 200 random programs. The file itself: its store pool holds each
// store once, an unchanged rerun leaves it byte for byte as it was,
// and concurrent saves never tear it.
//
//===----------------------------------------------------------------------===//

#include "core/AnalysisSession.h"
#include "frontend/PaperPrograms.h"
#include "persist/Serial.h"
#include "persist/WarmCache.h"
#include "support/Metrics.h"

#include "../common/AnalysisTestUtil.h"
#include "../common/RandomProgramGen.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <set>
#include <thread>

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
  uint64_t Saved = 0;       ///< persist.saved counter
  uint64_t SaveSkipped = 0; ///< persist.save_skipped counter
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
  O.Saved = Metrics.counterValue("persist.saved");
  O.SaveSkipped = Metrics.counterValue("persist.save_skipped");
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

/// Same program with one constant changed inside p2.
std::string editedTwoProc() {
  std::string Edited = TwoProcProgram;
  size_t At = Edited.find("j := 10");
  EXPECT_NE(At, std::string::npos);
  if (At != std::string::npos)
    Edited.replace(At, 7, "j := 20");
  return Edited;
}

TEST(PersistCacheTest, UnchangedRerunSkipsTheSave) {
  // A rerun that replays everything it loaded would re-encode the very
  // bytes on disk: it advances the file's mtime instead, which the
  // cache index reads as a save. An edited rerun still saves.
  ScratchDir Dir("skip");
  RunOutcome Cold = runOnce(TwoProcProgram, Dir.str());
  ASSERT_TRUE(Cold.Ok);
  EXPECT_EQ(Cold.Saved, 1u);
  EXPECT_EQ(Cold.SaveSkipped, 0u);
  fs::path File = cacheFile(Dir.str());
  std::vector<char> Bytes = readFile(File);
  fs::file_time_type MTime = fs::last_write_time(File);

  RunOutcome Warm = runOnce(TwoProcProgram, Dir.str());
  ASSERT_TRUE(Warm.Ok);
  EXPECT_EQ(Warm.Loaded, 1u);
  EXPECT_EQ(Warm.LiveSteps, 0u);
  EXPECT_EQ(Warm.SaveSkipped, 1u);
  EXPECT_EQ(Warm.Saved, 0u);
  EXPECT_EQ(readFile(File), Bytes);
  EXPECT_GT(fs::last_write_time(File), MTime);
  EXPECT_TRUE(Warm.Findings == Cold.Findings);

  RunOutcome Edited = runOnce(editedTwoProc(), Dir.str());
  ASSERT_TRUE(Edited.Ok);
  EXPECT_EQ(Edited.Loaded, 1u);
  EXPECT_GT(Edited.LiveSteps, 0u);
  EXPECT_EQ(Edited.Saved, 1u);
  EXPECT_EQ(Edited.SaveSkipped, 0u);
  EXPECT_NE(readFile(File), Bytes);

  // With the file gone there is nothing to advance: the caller saves.
  ScratchDir Empty("skip_gone");
  EXPECT_FALSE(persist::touchWarmCache(Empty.str(),
                                       withOptions().terminationGoal()));
}

TEST(PersistCacheTest, EditedRoutineResolvesOnlyItsComponents) {
  ScratchDir Dir("edit");
  RunOutcome Seed = runOnce(TwoProcProgram, Dir.str());
  ASSERT_TRUE(Seed.Ok);

  // Same program with one constant changed inside p2: p1's components
  // keep their fingerprints and replay; p2 (and the main-body suffix
  // its result feeds) re-solves live.
  std::string Edited = editedTwoProc();

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

/// Size of the cache file header: magic, version, options hash,
/// supergraph hash, body length, body checksum.
constexpr size_t HeaderBytes = 4 + 4 + 8 + 8 + 8 + 8;

/// Walks a cache file's body layout (persist/WarmCache.h) through the
/// store pool: four key tables, then the pool's entries (rows in the
/// codec of WarmCache.cpp's writeValue), each appended to \p Entries as
/// its encoded bytes when given. Returns the reader, positioned at the
/// chain slots.
persist::ByteReader walkPool(const std::vector<char> &File,
                             std::vector<std::string> *Entries = nullptr) {
  persist::ByteReader R(File.data() + HeaderBytes,
                        File.size() - HeaderBytes);
  for (int Table = 0; Table < 4; ++Table)
    for (uint64_t I = 0, N = R.varint(); I < N && !R.failed(); ++I)
      R.u64();
  for (uint64_t I = 0, N = R.varint(); I < N && !R.failed(); ++I) {
    size_t Start = File.size() - R.remaining();
    for (uint64_t E = 0, M = R.varint(); E < M && !R.failed(); ++E) {
      R.varint(); // variable index
      uint8_t Flags = R.u8();
      if (Flags & 3)
        continue; // a bool row, or a bottom interval: no bounds follow
      if (!(Flags & 4))
        R.svarint();
      if (!(Flags & 8))
        R.svarint();
      if (Flags & 16) {
        R.svarint();
        R.svarint();
      }
    }
    if (Entries)
      Entries->emplace_back(File.data() + Start,
                            File.size() - R.remaining() - Start);
  }
  return R;
}

/// File offset of the first valid chain slot's iteration-strategy byte.
/// 0 when the walk fails.
size_t strategyByteOffset(const std::vector<char> &File) {
  persist::ByteReader R = walkPool(File);
  for (uint64_t I = 0, N = R.varint(); I < N && !R.failed(); ++I) {
    if (!R.u8())
      continue; // an unsaved slot is a single 0 byte
    R.u8(); // phase signature
    R.u8(); // solved inside an envelope
    R.u8(); // fixpoint kind
    return R.failed() ? 0 : File.size() - R.remaining();
  }
  return 0;
}

TEST(PersistCacheTest, PoolHoldsEachStoreOnce) {
  // The pool is keyed by content: equal stores held in different
  // payloads (an equation skipped in one sweep keeps its older payload;
  // another phase recomputes an equal store into a fresh one) are one
  // entry, so no two entries of the file are byte-equal.
  ScratchDir Dir("pool");
  RunOutcome Cold = runOnce(paper::McCarthyProgram, Dir.str());
  ASSERT_TRUE(Cold.Ok);
  std::vector<char> File = readFile(cacheFile(Dir.str()));
  std::vector<std::string> Entries;
  persist::ByteReader R = walkPool(File, &Entries);
  ASSERT_FALSE(R.failed());
  ASSERT_GT(Entries.size(), 10u);
  std::set<std::string> Distinct(Entries.begin(), Entries.end());
  EXPECT_EQ(Distinct.size(), Entries.size());

  // The round trip stays exact.
  RunOutcome Warm = runOnce(paper::McCarthyProgram, Dir.str());
  ASSERT_TRUE(Warm.Ok);
  EXPECT_EQ(Warm.Loaded, 1u);
  EXPECT_EQ(Warm.LiveSteps, 0u);
  EXPECT_TRUE(Warm.Findings == Cold.Findings);
}

TEST(PersistCacheTest, ConcurrentSavesNeverTearTheFile) {
  // Two threads save McCarthy_6 and McCarthy_9 into one file (the same
  // options name the same file) while a third loads it. Each save
  // writes a temp file of its own and renames it into place, so every
  // save succeeds and every load sees one whole file.
  ScratchDir Dir("race");
  AnalysisOptions Opts = withOptions().terminationGoal();
  AnalyzedProgram Six = analyzeProgram(paper::mcCarthyK(6), Opts);
  AnalyzedProgram Nine = analyzeProgram(paper::mcCarthyK(9), Opts);
  AnalyzedProgram Loader = analyzeProgram(paper::mcCarthyK(9), Opts);
  ASSERT_TRUE(Six.An && Nine.An && Loader.An);

  constexpr unsigned Saves = 2000;
  std::atomic<unsigned> FailedSaves{0};
  std::atomic<bool> Done{false};
  auto Saver = [&](const Analyzer *An) {
    for (unsigned I = 0; I < Saves; ++I)
      if (!persist::saveWarmCache(Dir.str(), *An))
        ++FailedSaves;
  };
  std::vector<std::string> Torn;
  unsigned Loads = 0;
  std::thread LoadThread([&] {
    while (!Done.load()) {
      persist::CacheLoadResult L = persist::loadWarmCache(Dir.str(),
                                                          *Loader.An);
      ++Loads;
      if (!L.Loaded && L.FallbackReason != "no cache file")
        Torn.push_back(L.FallbackReason);
    }
  });
  std::thread A(Saver, Six.An.get()), B(Saver, Nine.An.get());
  A.join();
  B.join();
  Done = true;
  LoadThread.join();
  EXPECT_EQ(FailedSaves.load(), 0u);
  EXPECT_TRUE(Torn.empty()) << Torn.size() << " torn loads, first: "
                            << Torn.front();
  EXPECT_GT(Loads, 0u);
  // Nothing but the entry is left behind: no temp file survives.
  unsigned Files = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir.Dir))
    Files += E.is_regular_file();
  EXPECT_EQ(Files, 2u); // the .warm file and its sidecar
}

TEST(PersistCacheTest, NonZeroStrategyByteFallsBackCold) {
  // Format v3 keeps the byte the iteration strategy once filled; files
  // always hold 0 there, and any other value is a malformed slot.
  ScratchDir Dir("strategy");
  RunOutcome Cold = runOnce(TwoProcProgram, Dir.str());
  ASSERT_TRUE(Cold.Ok);
  std::vector<char> Full = readFile(cacheFile(Dir.str()));
  size_t At = strategyByteOffset(Full);
  ASSERT_GT(At, HeaderBytes);
  EXPECT_EQ(Full[At], 0);
  Full[At] = 1;
  // Re-seal the body so the checksum cannot be what rejects the file.
  uint64_t Sum =
      persist::fnv1a(Full.data() + HeaderBytes, Full.size() - HeaderBytes);
  for (int I = 0; I < 8; ++I)
    Full[HeaderBytes - 8 + I] = static_cast<char>(Sum >> (8 * I));
  writeFile(cacheFile(Dir.str()), Full);

  AnalyzedProgram P =
      analyzeProgram(TwoProcProgram, withOptions().terminationGoal());
  persist::CacheLoadResult Load = persist::loadWarmCache(Dir.str(), *P.An);
  EXPECT_FALSE(Load.Loaded);
  EXPECT_EQ(Load.FallbackReason, "malformed slot");
  expectFallbackIdentical(TwoProcProgram, Dir.str(), Cold, "strategy byte");
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
    ScratchDir Dir("paper" + std::to_string(Idx++));
    RunOutcome Cold = runOnce(Source, Dir.str());
    RunOutcome Warm = runOnce(Source, Dir.str());
    ASSERT_TRUE(Cold.Ok && Warm.Ok);
    EXPECT_EQ(Warm.Loaded, 1u);
    EXPECT_EQ(Warm.LiveSteps, 0u);
    EXPECT_TRUE(Warm.Findings == Cold.Findings);
  }
}

TEST(PersistCacheTest, FuzzedRoundTripIdenticalFindings) {
  // 200 random programs: save on the first run, full replay on the
  // second, identical findings both times.
  uint64_t TotalReplayedRuns = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    ProgramGenerator Gen(Seed * 12289);
    std::string Source = Gen.generate();
    SCOPED_TRACE("seed " + std::to_string(Seed) + "\n" + Source);

    ScratchDir Dir("fuzz");
    RunOutcome Cold = runOnce(Source, Dir.str());
    ASSERT_TRUE(Cold.Ok);
    RunOutcome Warm = runOnce(Source, Dir.str());
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
