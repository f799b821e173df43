//===- tests/core/persist_cache_test.cpp - On-disk cache differential -----===//
//
// The persistent warm-start cache (src/persist/WarmCache.*) must be
// invisible in every observable result and fail safe on every broken
// input: a rerun against a valid cache replays the whole refinement
// chain (zero live solver steps) with findings bitwise-identical to a
// cold run, and so does a rerun of the program with only comments,
// layout or keyword case edited; an edited program's run, or one
// against a truncated, corrupted, version-skewed, options-skewed or
// crafted cache file, falls back to a cold solve with — again —
// identical findings. The fuzzed battery pins the save/load round trip
// and the edit fallback on 200 random programs. The file itself: its
// store pool holds each store once, an unchanged rerun leaves it byte
// for byte as it was, it is the only file an entry leaves (the first
// save creates it, later ones swap it), and concurrent saves never tear
// it or make it vanish.
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
  // cache index reads as a save. An edited rerun loads nothing and
  // saves.
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
  EXPECT_EQ(Edited.Loaded, 0u);
  EXPECT_EQ(Edited.Fallback, 1u);
  EXPECT_GT(Edited.LiveSteps, 0u);
  EXPECT_EQ(Edited.Saved, 1u);
  EXPECT_EQ(Edited.SaveSkipped, 0u);
  EXPECT_NE(readFile(File), Bytes);

  // With the file gone there is nothing to advance: the caller saves.
  ScratchDir Empty("skip_gone");
  EXPECT_FALSE(persist::touchWarmCache(Empty.str(),
                                       withOptions().terminationGoal()));
}

TEST(PersistCacheTest, EditedProgramNeverLoadsTheOldFile) {
  // A file replays only into the program that wrote it. The program
  // with one constant changed inside p2 has another program hash: its
  // run falls back before reading the body, solves exactly as an
  // uncached run does, and saves its own file, which a rerun of the
  // edited program then replays in full.
  ScratchDir Dir("edit");
  RunOutcome Seed = runOnce(TwoProcProgram, Dir.str());
  ASSERT_TRUE(Seed.Ok);
  std::string Edited = editedTwoProc();

  AnalyzedProgram P = analyzeProgram(Edited, withOptions().terminationGoal());
  ASSERT_TRUE(P.An);
  persist::CacheLoadResult Load = persist::loadWarmCache(Dir.str(), *P.An);
  EXPECT_FALSE(Load.Loaded);
  EXPECT_EQ(Load.FallbackReason, "program changed");

  RunOutcome Uncached = runOnce(Edited, "");
  RunOutcome First = runOnce(Edited, Dir.str());
  ASSERT_TRUE(Uncached.Ok && First.Ok);
  EXPECT_EQ(First.Fallback, 1u);
  EXPECT_EQ(First.Loaded, 0u);
  EXPECT_EQ(First.Saved, 1u);
  EXPECT_EQ(First.LiveSteps, Uncached.LiveSteps);
  EXPECT_TRUE(First.Findings == Uncached.Findings);

  RunOutcome Rerun = runOnce(Edited, Dir.str());
  ASSERT_TRUE(Rerun.Ok);
  EXPECT_EQ(Rerun.Loaded, 1u);
  EXPECT_EQ(Rerun.LiveSteps, 0u);
  EXPECT_TRUE(Rerun.Findings == Uncached.Findings);
}

TEST(PersistCacheTest, ReorderedIdenticalProgramKeepsFindingsIntact) {
  // The same two routines declared in the opposite order. The
  // supergraph keeps its shape, but the store slots are numbered in
  // declaration order, so p1's recorded rows would name p2's
  // variables: the token stream differs, and the run falls back with
  // the findings of a cold run.
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
  EXPECT_EQ(Warm.Loaded, 0u);
  EXPECT_EQ(Warm.Fallback, 1u);
  EXPECT_TRUE(Warm.Findings == Cold.Findings);
}

/// \p Source with every \p From replaced by \p To.
std::string replaceAll(std::string Source, const std::string &From,
                       const std::string &To) {
  for (size_t At = Source.find(From); At != std::string::npos;
       At = Source.find(From, At + To.size()))
    Source.replace(At, From.size(), To);
  return Source;
}

TEST(PersistCacheTest, CommentLayoutAndCaseEditsReplayTheFile) {
  // A file is keyed by the program's token stream, which comments,
  // blank lines, indentation and keyword case do not touch: each such
  // edit replays the whole file, skips the save and leaves the file as
  // it was, and its findings (at the edited text's locations) are those
  // of an uncached run. Redundant parentheses change the tokens but not
  // the syntax tree: another program to the cache, which solves cold.
  ScratchDir Dir("layout");
  RunOutcome Seed = runOnce(TwoProcProgram, Dir.str());
  ASSERT_TRUE(Seed.Ok);
  fs::path File = cacheFile(Dir.str());
  std::vector<char> Bytes = readFile(File);

  const std::string Source = TwoProcProgram;
  const std::pair<const char *, std::string> Edits[] = {
      {"comment",
       replaceAll(Source, "procedure p2", "{ counts down }\nprocedure p2")},
      {"blank lines", replaceAll(Source, ";\n", ";\n\n")},
      {"indentation", replaceAll(Source, "\n  ", "\n\t  ")},
      {"keyword case",
       replaceAll(replaceAll(Source, "begin", "BEGIN"), "while", "While")},
  };
  for (const auto &[What, Edited] : Edits) {
    SCOPED_TRACE(What);
    ASSERT_NE(Edited, Source);
    RunOutcome Warm = runOnce(Edited, Dir.str());
    RunOutcome Uncached = runOnce(Edited, "");
    ASSERT_TRUE(Warm.Ok && Uncached.Ok);
    EXPECT_EQ(Warm.Loaded, 1u);
    EXPECT_EQ(Warm.LiveSteps, 0u);
    EXPECT_EQ(Warm.SaveSkipped, 1u);
    EXPECT_EQ(Warm.Saved, 0u);
    EXPECT_EQ(readFile(File), Bytes);
    EXPECT_TRUE(Warm.Findings == Uncached.Findings)
        << "warm:\n" << Warm.Findings.pretty() << "\nuncached:\n"
        << Uncached.Findings.pretty();
  }

  std::string Parenthesized = replaceAll(Source, "x := i", "x := (i)");
  ASSERT_NE(Parenthesized, Source);
  AnalyzedProgram P =
      analyzeProgram(Parenthesized, withOptions().terminationGoal());
  ASSERT_TRUE(P.An);
  persist::CacheLoadResult Load = persist::loadWarmCache(Dir.str(), *P.An);
  EXPECT_FALSE(Load.Loaded);
  EXPECT_EQ(Load.FallbackReason, "program changed");
  RunOutcome Uncached = runOnce(Parenthesized, "");
  ASSERT_TRUE(Uncached.Ok);
  expectFallbackIdentical(Parenthesized, Dir.str(), Uncached,
                          "redundant parentheses");
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

  // A save flushes nothing, so a power loss after it swapped its file in
  // can leave the file at its full length with its data never written:
  // all zeros.
  writeFile(cacheFile(Dir.str()), std::vector<char>(Full.size(), 0));
  expectFallbackIdentical(TwoProcProgram, Dir.str(), Cold, "zero-filled");
}

TEST(PersistCacheTest, FirstSaveCreatesAndLaterSavesSwapOneFile) {
  // The entry's first save creates its file (there is nothing to swap
  // with yet); the next program's save swaps its own file in and drops
  // the old bytes. After each save the directory holds the one `.warm`
  // file, which its program's engine replays in full. A reader that
  // opened the old file before the swap still reads all of it.
  ScratchDir Dir("swap");
  auto ExpectOneEntryFor = [&](const std::string &Source, const char *What) {
    std::vector<fs::path> Files;
    for (const fs::directory_entry &E : fs::directory_iterator(Dir.Dir))
      Files.push_back(E.path());
    ASSERT_EQ(Files.size(), 1u) << What;
    EXPECT_EQ(Files.front(), cacheFile(Dir.str())) << What;
    RunOutcome Warm = runOnce(Source, Dir.str());
    ASSERT_TRUE(Warm.Ok) << What;
    EXPECT_EQ(Warm.Loaded, 1u) << What;
    EXPECT_EQ(Warm.LiveSteps, 0u) << What;
  };

  RunOutcome First = runOnce(TwoProcProgram, Dir.str());
  ASSERT_TRUE(First.Ok);
  EXPECT_EQ(First.Saved, 1u);
  ExpectOneEntryFor(TwoProcProgram, "after the first save");
  std::vector<char> OldBytes = readFile(cacheFile(Dir.str()));
  std::ifstream Held(cacheFile(Dir.str()), std::ios::binary);
  ASSERT_TRUE(Held.good());

  std::string Edited = editedTwoProc();
  RunOutcome Second = runOnce(Edited, Dir.str());
  ASSERT_TRUE(Second.Ok);
  EXPECT_EQ(Second.Fallback, 1u);
  EXPECT_EQ(Second.Saved, 1u);
  ExpectOneEntryFor(Edited, "after the swap");
  EXPECT_NE(readFile(cacheFile(Dir.str())), OldBytes);
  EXPECT_EQ(std::vector<char>(std::istreambuf_iterator<char>(Held), {}),
            OldBytes);
}

/// Size of the cache file header: magic, version, options hash,
/// program hash, body length, body checksum.
constexpr size_t HeaderBytes = 4 + 4 + 8 + 8 + 8 + 8;

/// Walks a cache file's body layout (persist/WarmCache.h) through the
/// store pool: the node, forward element, backward element and slot
/// counts, then the pool's entries (rows in the codec of
/// WarmCache.cpp's writeValue), each appended to \p Entries as its
/// encoded bytes when given. Returns the reader, positioned at the
/// chain slots.
persist::ByteReader walkPool(const std::vector<char> &File,
                             std::vector<std::string> *Entries = nullptr) {
  persist::ByteReader R(File.data() + HeaderBytes,
                        File.size() - HeaderBytes);
  for (int Count = 0; Count < 4; ++Count)
    R.varint();
  for (uint64_t I = 0, N = R.varint(); I < N && !R.failed(); ++I) {
    size_t Start = File.size() - R.remaining();
    for (uint64_t E = 0, M = R.varint(); E < M && !R.failed(); ++E) {
      R.varint(); // store slot
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

/// File offset of the first valid chain slot's boundary count. 0 when
/// the walk fails.
size_t boundaryCountOffset(const std::vector<char> &File) {
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

/// Rewrites \p File's header body length and checksum to match its
/// body, so neither can be what rejects an edited file.
void reseal(std::vector<char> &File) {
  uint64_t Len = File.size() - HeaderBytes;
  uint64_t Sum = persist::fnv1a(File.data() + HeaderBytes, Len);
  for (int I = 0; I < 8; ++I) {
    File[HeaderBytes - 16 + I] = static_cast<char>(Len >> (8 * I));
    File[HeaderBytes - 8 + I] = static_cast<char>(Sum >> (8 * I));
  }
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
  // writes a temp file of its own and swaps it into place, so every
  // save succeeds and every load sees one whole file; once a save has
  // completed, the file is never missing either.
  ScratchDir Dir("race");
  AnalysisOptions Opts = withOptions().terminationGoal();
  AnalyzedProgram Six = analyzeProgram(paper::mcCarthyK(6), Opts);
  AnalyzedProgram Nine = analyzeProgram(paper::mcCarthyK(9), Opts);
  AnalyzedProgram Loader = analyzeProgram(paper::mcCarthyK(9), Opts);
  ASSERT_TRUE(Six.An && Nine.An && Loader.An);

  constexpr unsigned Saves = 2000;
  std::atomic<unsigned> FailedSaves{0};
  std::atomic<bool> Done{false}, Saved{false};
  auto Saver = [&](const Analyzer *An) {
    for (unsigned I = 0; I < Saves; ++I) {
      if (persist::saveWarmCache(Dir.str(), *An))
        Saved = true;
      else
        ++FailedSaves;
    }
  };
  std::vector<std::string> Torn;
  unsigned Loads = 0;
  std::thread LoadThread([&] {
    while (!Done.load()) {
      bool AfterASave = Saved.load();
      persist::CacheLoadResult L = persist::loadWarmCache(Dir.str(),
                                                          *Loader.An);
      ++Loads;
      // McCarthy_6's whole file is "program changed" to McCarthy_9.
      if (!L.Loaded && L.FallbackReason != "program changed" &&
          (AfterASave || L.FallbackReason != "no cache file"))
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
  std::vector<fs::path> Files;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir.Dir))
    Files.push_back(E.path());
  ASSERT_EQ(Files.size(), 1u);
  EXPECT_EQ(Files.front(), cacheFile(Dir.str(), Opts));
}

TEST(PersistCacheTest, OversizedBoundaryCountFallsBackBeforeAllocating) {
  // A slot's boundary rows are allocated from its boundary count, so a
  // count the recorded solve could not take, or whose rows cannot fit
  // in the rest of the body, must be rejected before anything is
  // allocated: anyone can re-seal a file, so the checksum does not stop
  // it. The program stays small, since without the bound the load
  // allocates 100,000 rows of its recorded nodes and elements before it
  // fails.
  ScratchDir Dir("boundaries");
  RunOutcome Cold = runOnce(TwoProcProgram, Dir.str());
  ASSERT_TRUE(Cold.Ok);
  std::vector<char> Full = readFile(cacheFile(Dir.str()));
  size_t CountBegin = boundaryCountOffset(Full);
  ASSERT_GT(CountBegin, HeaderBytes);
  size_t CountEnd = CountBegin;
  while (CountEnd < Full.size() && (Full[CountEnd] & 0x80))
    ++CountEnd;
  ASSERT_LT(CountEnd, Full.size());
  persist::ByteWriter Count;
  Count.varint(100000);
  Full.erase(Full.begin() + CountBegin, Full.begin() + CountEnd + 1);
  Full.insert(Full.begin() + CountBegin, Count.buffer().begin(),
              Count.buffer().end());
  reseal(Full);
  writeFile(cacheFile(Dir.str()), Full);

  AnalyzedProgram P =
      analyzeProgram(TwoProcProgram, withOptions().terminationGoal());
  persist::CacheLoadResult Load = persist::loadWarmCache(Dir.str(), *P.An);
  EXPECT_FALSE(Load.Loaded);
  EXPECT_EQ(Load.FallbackReason, "malformed boundary count");
  expectFallbackIdentical(TwoProcProgram, Dir.str(), Cold,
                          "boundary count");
}

/// The counts a v5 body opens with: nodes, forward and backward WTO
/// elements, store slots.
struct Shape {
  uint64_t Nodes, FwdElems, BwdElems, Slots;
};

Shape shapeOf(const Analyzer &An) {
  return {An.graph().numNodes(), An.forwardOrder().elements().size(),
          An.backwardOrder().elements().size(),
          An.graph().varNumbering().numSlots()};
}

/// \p Header followed by a crafted body opening with the counts of
/// \p Counts, resealed: a store pool holding \p PoolEntry when it is
/// not empty and one saved slot with signature \p Sig, fixpoint kind
/// \p Kind and \p Boundaries rows of zero bytes sized for \p S (a
/// reference to the top store per node, then a change flag and a step
/// count per element of the signature's system), no envelope and no
/// seeds.
std::vector<char> craftedFile(std::vector<char> Header, const Shape &Counts,
                              const Shape &S, Analyzer::PhaseSig Sig,
                              FixpointKind Kind, uint64_t Boundaries,
                              const std::vector<uint8_t> &PoolEntry = {}) {
  bool Fwd = Sig == Analyzer::PhaseSig::FwdNoEnv ||
             Sig == Analyzer::PhaseSig::FwdEnv;
  persist::ByteWriter Body;
  for (uint64_t Count :
       {Counts.Nodes, Counts.FwdElems, Counts.BwdElems, Counts.Slots})
    Body.varint(Count);
  Body.varint(PoolEntry.empty() ? 0 : 1); // store pool entries
  Body.bytes(PoolEntry.data(), PoolEntry.size());
  Body.varint(1); // chain slots
  Body.u8(1);     // saved
  Body.u8(static_cast<uint8_t>(Sig));
  Body.u8(0); // solved without an envelope
  Body.u8(static_cast<uint8_t>(Kind));
  Body.varint(Boundaries);
  uint64_t RowBytes = S.Nodes + 2 * (Fwd ? S.FwdElems : S.BwdElems);
  for (uint64_t B = 0; B < Boundaries * RowBytes; ++B)
    Body.u8(0);
  Body.u8(0); // no envelope
  Body.u8(0); // no seeds
  Header.resize(HeaderBytes);
  Header.insert(Header.end(), Body.buffer().begin(), Body.buffer().end());
  reseal(Header);
  return Header;
}

/// A program small enough that a crafted file with 100,000 boundary
/// rows stays under a megabyte.
const char *const TinyProgram = R"(
program tiny;
var x : integer;
begin
  x := 1
end.
)";

TEST(PersistCacheTest, BoundaryCountBoundedByTheRecordedSolve) {
  // The memo a load builds holds boundaries x nodes and elements, so a
  // re-sealed file whose rows fit its body could still ask for far more
  // boundaries than any solve records. A slot's count is bounded by the
  // sweeps its solve could take: an lfp takes 1 + NarrowingPasses, a
  // gfp at most MaxGfpSweeps. Its kind must match its signature under
  // the current options.
  using Sig = Analyzer::PhaseSig;
  ScratchDir Dir("shape");
  RunOutcome Cold = runOnce(TinyProgram, Dir.str());
  ASSERT_TRUE(Cold.Ok);
  std::vector<char> Header = readFile(cacheFile(Dir.str()));
  ASSERT_GT(Header.size(), HeaderBytes);
  AnalyzedProgram P =
      analyzeProgram(TinyProgram, withOptions().terminationGoal());
  ASSERT_TRUE(P.An);
  Shape S = shapeOf(*P.An);
  auto Load = [&](Sig Signature, FixpointKind K, uint64_t Boundaries) {
    writeFile(cacheFile(Dir.str()),
              craftedFile(Header, S, S, Signature, K, Boundaries));
    return persist::loadWarmCache(Dir.str(), *P.An);
  };

  // The crafted file is well formed: within the bound it loads.
  EXPECT_TRUE(Load(Sig::FwdNoEnv, FixpointKind::Lfp, 2).Loaded);
  EXPECT_TRUE(Load(Sig::Always, FixpointKind::Gfp, MaxGfpSweeps).Loaded);

  struct Case {
    Sig Signature;
    FixpointKind K;
    uint64_t Boundaries;
    const char *Reason;
  } const Cases[] = {
      {Sig::FwdNoEnv, FixpointKind::Lfp, 100000, "malformed boundary count"},
      {Sig::FwdEnv, FixpointKind::Lfp, 3, "malformed boundary count"},
      {Sig::Always, FixpointKind::Gfp, MaxGfpSweeps + 1,
       "malformed boundary count"},
      {Sig::Always, FixpointKind::Lfp, 2, "slot kind mismatch"},
      {Sig::Eventually, FixpointKind::Gfp, 2, "slot kind mismatch"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(std::to_string(C.Boundaries) + " boundaries, " +
                 C.Reason);
    persist::CacheLoadResult R = Load(C.Signature, C.K, C.Boundaries);
    EXPECT_FALSE(R.Loaded);
    EXPECT_EQ(R.FallbackReason, C.Reason);
    expectFallbackIdentical(TinyProgram, Dir.str(), Cold, C.Reason);
  }
}

TEST(PersistCacheTest, ProgramShapeMismatchFallsBackBeforeAllocating) {
  // The header's program hash is only as strong as its checksum: a
  // re-sealed file can carry the right hash over a body written for
  // another shape. Its rows are addressed by node, element and slot
  // index, so every count must equal the program's before anything is
  // allocated from it; the huge counts below would ask for terabytes.
  using Sig = Analyzer::PhaseSig;
  ScratchDir Dir("counts");
  RunOutcome Cold = runOnce(TwoProcProgram, Dir.str());
  ASSERT_TRUE(Cold.Ok);
  std::vector<char> Header = readFile(cacheFile(Dir.str()));
  AnalyzedProgram P =
      analyzeProgram(TwoProcProgram, withOptions().terminationGoal());
  ASSERT_TRUE(P.An);
  const Shape Real = shapeOf(*P.An);
  writeFile(cacheFile(Dir.str()),
            craftedFile(Header, Real, Real, Sig::FwdNoEnv,
                        FixpointKind::Lfp, 2));
  EXPECT_TRUE(persist::loadWarmCache(Dir.str(), *P.An).Loaded);

  constexpr uint64_t Huge = uint64_t(1) << 40;
  const Shape Bad[] = {
      {Real.Nodes + 1, Real.FwdElems, Real.BwdElems, Real.Slots},
      {Huge, Real.FwdElems, Real.BwdElems, Real.Slots},
      {Real.Nodes, Huge, Real.BwdElems, Real.Slots},
      {Real.Nodes, Real.FwdElems, Real.BwdElems - 1, Real.Slots},
      {Real.Nodes, Real.FwdElems, Real.BwdElems, Huge},
  };
  for (const Shape &S : Bad) {
    SCOPED_TRACE(std::to_string(S.Nodes) + " nodes, " +
                 std::to_string(S.FwdElems) + "/" +
                 std::to_string(S.BwdElems) + " elements, " +
                 std::to_string(S.Slots) + " slots");
    writeFile(cacheFile(Dir.str()),
              craftedFile(Header, S, Real, Sig::FwdNoEnv,
                          FixpointKind::Lfp, 1));
    persist::CacheLoadResult R = persist::loadWarmCache(Dir.str(), *P.An);
    EXPECT_FALSE(R.Loaded);
    EXPECT_EQ(R.FallbackReason, "program shape mismatch");
    expectFallbackIdentical(TwoProcProgram, Dir.str(), Cold,
                            "program shape");
  }
}

TEST(PersistCacheTest, StoreRowOfTheWrongLaneFallsBack) {
  // A pool row names its variable by store slot, and its flags byte
  // says whether it holds a boolean or a number. A re-sealed file can
  // put a boolean row in an integer slot; nothing downstream checks the
  // lane again, so the load must.
  using Sig = Analyzer::PhaseSig;
  ScratchDir Dir("lane");
  RunOutcome Cold = runOnce(TinyProgram, Dir.str());
  ASSERT_TRUE(Cold.Ok);
  std::vector<char> Header = readFile(cacheFile(Dir.str()));
  AnalyzedProgram P =
      analyzeProgram(TinyProgram, withOptions().terminationGoal());
  ASSERT_TRUE(P.An);
  const VarDecl *X = P.var("", "x");
  ASSERT_NE(X, nullptr);
  Shape S = shapeOf(*P.An);
  auto Load = [&](uint8_t Flags) {
    // One entry: x's slot, then one row with no bound bytes.
    std::vector<uint8_t> Entry = {1, static_cast<uint8_t>(X->storeSlot()),
                                  Flags};
    writeFile(cacheFile(Dir.str()), craftedFile(Header, S, S, Sig::FwdNoEnv,
                                                FixpointKind::Lfp, 2, Entry));
    return persist::loadWarmCache(Dir.str(), *P.An);
  };
  EXPECT_TRUE(Load(0x0C).Loaded); // the integer row [-oo, +oo]
  persist::CacheLoadResult R = Load(0x07); // the boolean row top
  EXPECT_FALSE(R.Loaded);
  EXPECT_EQ(R.FallbackReason, "malformed store pool");
  expectFallbackIdentical(TinyProgram, Dir.str(), Cold, "wrong lane");
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
  // second, identical findings both times. Then one literal edit: the
  // edited program never loads the file, and its findings equal an
  // uncached run's.
  uint64_t TotalReplayedRuns = 0, Edits = 0;
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

    // The new literal can equal the old one; that is no edit.
    std::string Edited = Gen.mutate(Source);
    if (Edited == Source)
      continue;
    ++Edits;
    SCOPED_TRACE("edited\n" + Edited);
    RunOutcome EditedRun = runOnce(Edited, Dir.str());
    RunOutcome Uncached = runOnce(Edited, "");
    ASSERT_TRUE(EditedRun.Ok && Uncached.Ok);
    EXPECT_EQ(EditedRun.Loaded, 0u);
    EXPECT_EQ(EditedRun.Fallback, 1u);
    EXPECT_EQ(EditedRun.LiveSteps, Uncached.LiveSteps);
    EXPECT_TRUE(EditedRun.Findings == Uncached.Findings)
        << "edited:\n" << EditedRun.Findings.pretty() << "\nuncached:\n"
        << Uncached.Findings.pretty();
  }
  EXPECT_EQ(TotalReplayedRuns, 200u);
  EXPECT_GT(Edits, 180u);
}

} // namespace
