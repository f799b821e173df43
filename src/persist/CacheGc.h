//===- persist/CacheGc.h - Size-capped cache-directory GC -------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Garbage collection for a warm-start cache tree: bounds the total
/// bytes under a directory by deleting the oldest cache entries first.
/// An *entry* is one `syntox-<hash>.warm` file together with its
/// `.meta.json` sidecar — the pair is removed (or kept) together, and
/// anything else in the tree (the `*.tmp` file of a save in progress
/// included) is left untouched. The saver rewrites an entry on every
/// run, so the least recently *saved* entry goes first (an LRU policy
/// over cache entries).
///
/// CacheTree is the one implementation: an in-memory index of a tree's
/// entries, oldest first, with their running byte total. rescan() seeds
/// it with one recursive walk, aging entries by their `.warm` file's
/// mtime; touch() re-stats the single entry a save just wrote, which
/// makes it the newest; shrinkTo() deletes only the victims an eviction
/// needs. The walk is recursive because the serving layer shards its
/// cache into one subdirectory per client document (see
/// serve/Server.h). The server keeps one index for its whole life and
/// touches it after every save instead of walking the tree again.
/// gcCacheDir() is a one-shot collection: a rescan and a shrink on a
/// temporary index.
///
/// The index sees only what it walked or was told about: a file written
/// into the tree behind its back is unknown until the next rescan(),
/// and one deleted behind its back is dropped at its next touch() or
/// when it comes up as a victim.
///
/// Losing an entry is always safe — the cache is strictly an
/// optimization and the next run of the evicted configuration simply
/// solves cold and re-saves.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_PERSIST_CACHEGC_H
#define SYNTOX_PERSIST_CACHEGC_H

#include <cstdint>
#include <filesystem>
#include <list>
#include <string>
#include <unordered_map>

namespace syntox {
namespace persist {

/// Outcome of one collection, for telemetry and the serve `gc` admin
/// response.
struct CacheGcResult {
  uint64_t BytesBefore = 0; ///< cache-entry bytes indexed before it
  uint64_t BytesAfter = 0;  ///< cache-entry bytes surviving it
  uint64_t FilesRemoved = 0; ///< files deleted (.warm and sidecars)
  uint64_t FilesKept = 0;    ///< files surviving
};

/// An in-memory index of the cache entries under one root directory
/// (see the file comment). Not thread-safe: the owner serializes calls.
class CacheTree {
public:
  /// An empty index of the tree under \p Dir (nothing is read yet).
  explicit CacheTree(const std::string &Dir);

  /// Replaces the index with one recursive walk of the tree: entries
  /// ordered by their `.warm` file's mtime, oldest first, the path
  /// breaking ties. A missing directory is an empty cache.
  void rescan();

  /// Re-stats the entry whose `.warm` file is \p WarmPath (two stats:
  /// the file and its sidecar) after a save wrote it: the entry becomes
  /// the newest, with its new size. If the file is gone, the entry is
  /// dropped; if it is unchanged since it was indexed (no save
  /// happened), it keeps its place. A path that is not a cache entry
  /// under the root is ignored.
  void touch(const std::string &WarmPath);

  /// Deletes the oldest entries until the indexed total is at most
  /// \p MaxBytes, and removes each victim's directory if that left it
  /// empty (never the root). Each victim is re-stat'ed first: one that
  /// a save rewrote since it was indexed becomes the newest instead of
  /// being deleted. An entry whose `.warm` file cannot be deleted stays
  /// indexed and keeps counting toward the total.
  CacheGcResult shrinkTo(uint64_t MaxBytes);

  uint64_t bytes() const { return Total; } ///< indexed entry bytes
  uint64_t files() const { return Files; } ///< indexed files

private:
  /// One entry as last stat'ed: a save (a new file renamed into place)
  /// changes its inode, an in-place rewrite its mtime or size.
  struct Entry {
    std::filesystem::path Warm;
    uint64_t Inode = 0;
    int64_t MTimeNs = 0;
    uint64_t Bytes = 0;   ///< the .warm file plus its sidecar
    bool HasMeta = false; ///< the sidecar exists
    bool operator==(const Entry &) const = default;
  };
  using List = std::list<Entry>;

  /// Fills \p E from its `.warm` file and sidecar (two stats); false
  /// when the `.warm` file is not a regular file.
  static bool statEntry(Entry &E);
  /// Appends \p E as the newest entry.
  void add(Entry E);
  List::iterator erase(List::iterator It);

  std::filesystem::path Root;
  List Order; ///< oldest first
  std::unordered_map<std::string, List::iterator> ByPath;
  uint64_t Total = 0;
  uint64_t Files = 0;
};

/// Deletes oldest-first cache entries under \p Dir (recursively) until
/// the surviving entries total at most \p MaxBytes: a rescan and a
/// shrink on a temporary CacheTree. \p MaxBytes == 0 means "collect
/// everything"; UINT64_MAX only reports the tree. A missing directory
/// is an empty cache, not an error; individual deletion failures are
/// skipped (the entry then still counts toward BytesAfter). Never
/// throws.
CacheGcResult gcCacheDir(const std::string &Dir, uint64_t MaxBytes);

} // namespace persist
} // namespace syntox

#endif // SYNTOX_PERSIST_CACHEGC_H
