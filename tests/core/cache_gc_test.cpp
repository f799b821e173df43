//===- tests/core/cache_gc_test.cpp - Cache-tree index and collector ------===//
//
// persist::CacheTree is the daemon's in-memory index of its disk cache,
// and gcCacheDir() is a rescan plus a shrink on a temporary one. These
// tests drive both directly over hand-built trees and pin the eviction
// policy the daemon relies on:
//
//  - a walk ages entries by mtime, the path breaking ties; after that a
//    re-saved entry becomes the newest (so does one whose mtime alone
//    advanced, as a skipped save leaves it), saves keep their order even
//    when their mtimes tie, and an entry no save rewrote keeps its place;
//  - a `.warm` file and its `.meta.json` sidecar count and go together,
//    while files that are not entries (a save's temp file included)
//    stay;
//  - a victim's emptied shard directory goes, the root never does;
//  - the index stays equal to the disk when files vanish behind it, and
//    over a randomized save/edit sequence under a cap.
//
//===----------------------------------------------------------------------===//

#include "persist/CacheGc.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <unistd.h>

using namespace syntox;
using namespace syntox::persist;

namespace fs = std::filesystem;

namespace {

/// A fresh directory per test (ctest runs the cases in parallel),
/// removed again at the end.
class CacheGcTest : public ::testing::Test {
protected:
  void SetUp() override {
    Root = fs::temp_directory_path() /
           ("syntox_cache_gc_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(Root);
    fs::create_directories(Root);
  }
  void TearDown() override {
    std::error_code EC;
    fs::remove_all(Root, EC);
  }

  /// Writes \p Bytes bytes to \p Rel under the root, creating its
  /// directory.
  fs::path write(const std::string &Rel, size_t Bytes) {
    fs::path P = Root / Rel;
    fs::create_directories(P.parent_path());
    std::ofstream(P, std::ios::binary | std::ios::trunc)
        << std::string(Bytes, 'x');
    return P;
  }

  /// Writes an entry the way the saver does: the `.warm` file through a
  /// `.tmp` file renamed into place, then its sidecar.
  fs::path save(const std::string &Rel, size_t WarmBytes, size_t MetaBytes) {
    fs::path Warm = Root / Rel;
    fs::path Tmp = write(Rel + ".tmp", WarmBytes);
    fs::rename(Tmp, Warm);
    write(Rel + ".meta.json", MetaBytes);
    return Warm;
  }

  /// Writes one cache entry (a `.warm` file and, unless \p MetaBytes is
  /// 0, its sidecar) whose `.warm` mtime is \p Age seconds in the past.
  fs::path entry(const std::string &Rel, size_t WarmBytes, size_t MetaBytes,
                 int Age) {
    fs::path Warm = write(Rel, WarmBytes);
    if (MetaBytes)
      write(Rel + ".meta.json", MetaBytes);
    setAge(Warm, Age);
    return Warm;
  }

  static void setAge(const fs::path &P, int Age) {
    fs::last_write_time(P, fs::file_time_type::clock::now() -
                               std::chrono::seconds(Age));
  }

  bool exists(const std::string &Rel) const { return fs::exists(Root / Rel); }

  /// Every regular file's bytes under the root.
  uint64_t diskBytes() const {
    uint64_t Total = 0;
    for (const auto &E : fs::recursive_directory_iterator(Root))
      if (E.is_regular_file())
        Total += E.file_size();
    return Total;
  }

  fs::path Root;
};

TEST_F(CacheGcTest, EvictsOldestFirst) {
  entry("syntox-a.warm", 100, 20, 300);
  entry("syntox-b.warm", 100, 20, 200);
  entry("syntox-c.warm", 100, 20, 100);

  CacheGcResult R = gcCacheDir(Root.string(), 250);
  EXPECT_EQ(R.BytesBefore, 360u);
  EXPECT_EQ(R.BytesAfter, 240u);
  EXPECT_EQ(R.FilesRemoved, 2u);
  EXPECT_EQ(R.FilesKept, 4u);
  EXPECT_FALSE(exists("syntox-a.warm"));
  EXPECT_TRUE(exists("syntox-b.warm"));
  EXPECT_TRUE(exists("syntox-c.warm"));

  // Zero collects everything.
  R = gcCacheDir(Root.string(), 0);
  EXPECT_EQ(R.BytesAfter, 0u);
  EXPECT_EQ(R.FilesRemoved, 4u);
  EXPECT_EQ(R.FilesKept, 0u);
  EXPECT_EQ(diskBytes(), 0u);
}

TEST_F(CacheGcTest, ResavedEntryBecomesTheNewest) {
  entry("syntox-a.warm", 100, 0, 300);
  entry("syntox-b.warm", 100, 0, 200);
  entry("syntox-c.warm", 100, 0, 100);
  CacheTree Tree(Root.string());
  Tree.rescan();
  EXPECT_EQ(Tree.bytes(), 300u);

  // Re-save the oldest entry, bigger this time: it moves to the back.
  fs::path A = write("syntox-a.warm", 150);
  Tree.touch(A.string());
  EXPECT_EQ(Tree.bytes(), 350u);

  CacheGcResult R = Tree.shrinkTo(250);
  EXPECT_EQ(R.BytesBefore, 350u);
  EXPECT_EQ(R.BytesAfter, 250u);
  EXPECT_EQ(R.FilesRemoved, 1u);
  EXPECT_TRUE(exists("syntox-a.warm"));
  EXPECT_FALSE(exists("syntox-b.warm"));
  EXPECT_TRUE(exists("syntox-c.warm"));
}

TEST_F(CacheGcTest, MtimeOnlyAdvanceMakesTheEntryNewest) {
  // An unchanged rerun skips its save and only advances the `.warm`
  // file's mtime (persist::touchWarmCache): same inode, same bytes. The
  // index still ranks the entry newest, as it would after a rewrite,
  // and so does a restart's walk.
  fs::path A = entry("syntox-a.warm", 100, 20, 300);
  entry("syntox-b.warm", 100, 20, 200);
  entry("syntox-c.warm", 100, 20, 100);
  CacheTree Tree(Root.string());
  Tree.rescan();
  setAge(A, 10);
  Tree.touch(A.string());
  EXPECT_EQ(Tree.bytes(), 360u);

  CacheGcResult R = Tree.shrinkTo(240);
  EXPECT_EQ(R.FilesRemoved, 2u);
  EXPECT_TRUE(exists("syntox-a.warm"));
  EXPECT_FALSE(exists("syntox-b.warm"));
  EXPECT_TRUE(exists("syntox-c.warm"));

  CacheTree Restarted(Root.string());
  Restarted.rescan();
  Restarted.shrinkTo(120);
  EXPECT_TRUE(exists("syntox-a.warm"));
  EXPECT_FALSE(exists("syntox-c.warm"));
}

TEST_F(CacheGcTest, SavesThatTieOnMtimeKeepTheirSaveOrder) {
  // Two saves inside one filesystem timestamp tick: the walk would
  // order them by path, the index keeps the order they were saved in.
  CacheTree Tree(Root.string());
  Tree.rescan();
  auto Tick = fs::file_time_type::clock::now() - std::chrono::seconds(60);
  fs::path First = save("b/syntox-0.warm", 100, 0);
  fs::last_write_time(First, Tick);
  Tree.touch(First.string());
  fs::path Second = save("a/syntox-0.warm", 100, 0);
  fs::last_write_time(Second, Tick);
  Tree.touch(Second.string());

  Tree.shrinkTo(100);
  EXPECT_FALSE(exists("b/syntox-0.warm"));
  EXPECT_TRUE(exists("a/syntox-0.warm"));
}

TEST_F(CacheGcTest, EntryNoSaveRewroteKeepsItsPlace) {
  // A run that saved nothing (warm starts off, say) touches an entry
  // whose file is unchanged: it must not become the newest.
  fs::path A = entry("syntox-a.warm", 100, 0, 300);
  entry("syntox-b.warm", 100, 0, 200);
  CacheTree Tree(Root.string());
  Tree.rescan();
  Tree.touch(A.string());
  Tree.shrinkTo(100);
  EXPECT_FALSE(exists("syntox-a.warm"));
  EXPECT_TRUE(exists("syntox-b.warm"));
}

TEST_F(CacheGcTest, VictimRewrittenSinceIndexedIsKept) {
  // A save rewrote the oldest entry but has not touched the index yet
  // (the daemon saves outside its index lock): the shrink re-stats the
  // victim, finds it fresh, and evicts the next-oldest instead.
  fs::path A = entry("syntox-a.warm", 100, 0, 300);
  entry("syntox-b.warm", 100, 0, 200);
  CacheTree Tree(Root.string());
  Tree.rescan();
  setAge(A, 10);

  CacheGcResult R = Tree.shrinkTo(100);
  EXPECT_EQ(R.FilesRemoved, 1u);
  EXPECT_TRUE(exists("syntox-a.warm"));
  EXPECT_FALSE(exists("syntox-b.warm"));
  EXPECT_EQ(Tree.bytes(), 100u);
}

TEST_F(CacheGcTest, SidecarCountsAndGoesWithItsWarmFile) {
  entry("syntox-a.warm", 100, 40, 200);
  entry("syntox-b.warm", 100, 0, 100); // no sidecar: one file
  CacheTree Tree(Root.string());
  Tree.rescan();
  EXPECT_EQ(Tree.bytes(), 240u);
  EXPECT_EQ(Tree.files(), 3u);

  CacheGcResult R = Tree.shrinkTo(139);
  EXPECT_EQ(R.FilesRemoved, 2u);
  EXPECT_EQ(R.FilesKept, 1u);
  EXPECT_EQ(R.BytesAfter, 100u);
  EXPECT_FALSE(exists("syntox-a.warm"));
  EXPECT_FALSE(exists("syntox-a.warm.meta.json"));
  EXPECT_TRUE(exists("syntox-b.warm"));
  EXPECT_EQ(diskBytes(), 100u);
}

TEST_F(CacheGcTest, FilesThatAreNotEntriesAreLeftAlone) {
  entry("syntox-a.warm", 100, 20, 100);
  write("syntox-b.warm.tmp", 50);        // an older save's temp file
  write("syntox-e.warm.4242.7.tmp", 70); // a save in progress
  write("syntox-c.warm.meta.json", 30); // a sidecar without its file
  write("other.warm", 40);              // not a syntox- cache file
  write("shard/notes.txt", 60);
  fs::create_directories(Root / "syntox-d.warm"); // a directory

  CacheGcResult R = gcCacheDir(Root.string(), 0);
  EXPECT_EQ(R.BytesBefore, 120u);
  EXPECT_EQ(R.FilesRemoved, 2u);
  EXPECT_FALSE(exists("syntox-a.warm"));
  for (const char *Kept :
       {"syntox-b.warm.tmp", "syntox-e.warm.4242.7.tmp",
        "syntox-c.warm.meta.json", "other.warm", "shard/notes.txt",
        "syntox-d.warm"})
    EXPECT_TRUE(exists(Kept)) << Kept;
  EXPECT_EQ(diskBytes(), 250u);
}

TEST_F(CacheGcTest, EmptiedShardDirectoriesGoButNeverTheRoot) {
  entry("s1/syntox-a.warm", 100, 20, 400);
  entry("s2/syntox-b.warm", 100, 20, 300);
  write("s2/keep.txt", 10);
  entry("s3/deeper/syntox-c.warm", 100, 20, 200);
  entry("syntox-d.warm", 100, 20, 100);

  CacheGcResult R = gcCacheDir(Root.string(), 0);
  EXPECT_EQ(R.FilesRemoved, 8u);
  EXPECT_FALSE(exists("s1"));
  EXPECT_TRUE(exists("s2/keep.txt")); // not empty: stays
  EXPECT_FALSE(exists("s2/syntox-b.warm"));
  EXPECT_FALSE(exists("s3")); // emptied all the way up to the root
  EXPECT_TRUE(fs::is_directory(Root));

  // A tree whose only entries sit at the root keeps the root.
  entry("syntox-e.warm", 100, 0, 100);
  gcCacheDir(Root.string(), 0);
  EXPECT_TRUE(fs::is_directory(Root));
}

TEST_F(CacheGcTest, SeedOrdersByMtimeWithThePathBreakingTies) {
  // Equal sizes, so each one-entry shrink names the oldest survivor.
  fs::path Z = entry("z/syntox-0.warm", 100, 0, 0);
  fs::path B = entry("b/syntox-0.warm", 100, 0, 0);
  fs::path A = entry("a/syntox-0.warm", 100, 0, 0);
  fs::path C = entry("c/syntox-0.warm", 100, 0, 0);
  auto Now = fs::file_time_type::clock::now();
  fs::last_write_time(Z, Now - std::chrono::seconds(300));
  fs::last_write_time(A, Now - std::chrono::seconds(200));
  fs::last_write_time(B, Now - std::chrono::seconds(200)); // tie with A
  fs::last_write_time(C, Now - std::chrono::seconds(100));

  CacheTree Tree(Root.string());
  Tree.rescan();
  ASSERT_EQ(Tree.bytes(), 400u);
  const char *Expected[] = {"z", "a", "b", "c"};
  for (unsigned I = 0; I < 4; ++I) {
    Tree.shrinkTo(Tree.bytes() - 1);
    for (unsigned J = 0; J < 4; ++J)
      EXPECT_EQ(exists(std::string(Expected[J]) + "/syntox-0.warm"), J > I)
          << "after evicting " << I + 1 << " entries, " << Expected[J];
  }
  EXPECT_EQ(Tree.bytes(), 0u);
}

TEST_F(CacheGcTest, FileDeletedBehindTheIndexIsDroppedAtItsTouch) {
  fs::path A = entry("s/syntox-a.warm", 100, 20, 200);
  entry("s/syntox-b.warm", 100, 20, 100);
  CacheTree Tree(Root.string());
  Tree.rescan();
  ASSERT_EQ(Tree.bytes(), 240u);

  fs::remove(A);
  fs::remove(Root / "s/syntox-a.warm.meta.json");
  Tree.touch(A.string());
  EXPECT_EQ(Tree.bytes(), 120u);
  EXPECT_EQ(Tree.files(), 2u);
  Tree.touch(A.string()); // dropping twice underflows nothing
  EXPECT_EQ(Tree.bytes(), 120u);

  // An entry that vanished without a touch is dropped when it comes up
  // as a victim, without being counted as removed.
  fs::remove(Root / "s/syntox-b.warm");
  CacheGcResult R = Tree.shrinkTo(0);
  EXPECT_EQ(R.FilesRemoved, 1u); // its orphaned sidecar
  EXPECT_EQ(Tree.bytes(), 0u);
  EXPECT_EQ(Tree.files(), 0u);
  EXPECT_FALSE(exists("s"));
}

TEST_F(CacheGcTest, TouchIgnoresPathsThatAreNotEntriesUnderTheRoot) {
  CacheTree Tree((Root / "cache").string());
  fs::path Outside = write("elsewhere/syntox-a.warm", 100);
  fs::path NotEntry = write("cache/s/notes.txt", 100);
  Tree.touch(Outside.string());
  Tree.touch(NotEntry.string());
  Tree.touch((Root / "cache/../elsewhere/syntox-a.warm").string());
  EXPECT_EQ(Tree.bytes(), 0u);
  Tree.shrinkTo(0);
  EXPECT_TRUE(fs::exists(Outside));
  EXPECT_TRUE(fs::exists(NotEntry));
}

TEST_F(CacheGcTest, OneEntryHoweverTheRootIsSpelled) {
  // The daemon names shards as <cache-dir>/<hash>, so a --cache-dir
  // with a trailing slash must still index the walked and the touched
  // path as one entry.
  fs::path A = entry("s/syntox-a.warm", 100, 20, 100);
  CacheTree Tree(Root.string() + "/");
  Tree.rescan();
  Tree.touch(Root.string() + "//s/syntox-a.warm");
  EXPECT_EQ(Tree.bytes(), 120u);
  EXPECT_EQ(Tree.files(), 2u);
}

TEST_F(CacheGcTest, MissingDirectoryIsAnEmptyCache) {
  CacheGcResult R = gcCacheDir((Root / "absent").string(), 0);
  EXPECT_EQ(R.BytesBefore, 0u);
  EXPECT_EQ(R.FilesKept, 0u);
  R = gcCacheDir("", 0);
  EXPECT_EQ(R.BytesBefore, 0u);
  CacheTree Tree((Root / "absent").string());
  Tree.rescan();
  EXPECT_EQ(Tree.bytes(), 0u);
}

TEST_F(CacheGcTest, MaxCapOnlyReportsTheTree) {
  entry("s/syntox-a.warm", 100, 20, 200);
  entry("syntox-b.warm", 100, 20, 100);
  CacheGcResult R = gcCacheDir(Root.string(), UINT64_MAX);
  EXPECT_EQ(R.BytesBefore, 240u);
  EXPECT_EQ(R.BytesAfter, 240u);
  EXPECT_EQ(R.FilesRemoved, 0u);
  EXPECT_EQ(R.FilesKept, 4u);
  EXPECT_EQ(diskBytes(), 240u);
}

TEST_F(CacheGcTest, RandomSavesKeepTheIndexEqualToTheDiskUnderTheCap) {
  // Saves and edits over 8 shards x 2 option hashes, each followed by
  // the daemon's touch + shrink: after every step the index total is
  // the bytes on disk, within the cap, and what a fresh walk would see,
  // and no emptied shard directory is left behind. Real mtimes, so
  // saves inside one timestamp tick tie.
  const uint64_t Cap = 6000;
  for (unsigned Seed = 1; Seed <= 3; ++Seed) {
    std::mt19937 Rng(Seed);
    fs::remove_all(Root);
    fs::create_directories(Root);
    CacheTree Tree(Root.string());
    Tree.rescan();
    for (unsigned Step = 0; Step < 200; ++Step) {
      std::string Rel = "shard" + std::to_string(Rng() % 8) + "/syntox-" +
                        std::to_string(Rng() % 2) + ".warm";
      fs::path Warm = save(Rel, 200 + Rng() % 1800, 50 + Rng() % 100);
      Tree.touch(Warm.string());
      Tree.shrinkTo(Cap);

      ASSERT_LE(Tree.bytes(), Cap) << "seed " << Seed << " step " << Step;
      ASSERT_EQ(Tree.bytes(), diskBytes()) << "seed " << Seed << " step "
                                           << Step;
      CacheTree Fresh(Root.string());
      Fresh.rescan();
      ASSERT_EQ(Tree.bytes(), Fresh.bytes());
      ASSERT_EQ(Tree.files(), Fresh.files());
      for (const auto &E : fs::recursive_directory_iterator(Root))
        ASSERT_FALSE(E.is_directory() && fs::is_empty(E.path()))
            << E.path();
    }
  }
}

} // namespace
