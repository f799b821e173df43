//===- persist/WarmCache.h - On-disk warm-start cache -----------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Persistence of the analyzer's warm-start state (the chain-slot memos
/// and the boundary store snapshots they replay) to a versioned cache
/// file. A file replays only into the program that wrote it:
///
///   file name        syntox-<options hash>.warm     (one file per
///                    options configuration)
///   header           magic "SYXC", format version, options hash,
///                    program hash, body length, FNV-1a body checksum
///                    (40 bytes)
///   body             the node count, the forward and backward WTO
///                    element counts and the store-slot count; a store
///                    pool deduplicated by content (rows addressed by
///                    store slot, interval bounds as zigzag varints
///                    with +/-oo sentinel flags); the chain slots, whose
///                    rows are addressed by node index and WTO element
///                    index
///
/// The file is the whole entry: nothing is written next to it.
///
/// The program hash folds the program's identity, the hash of its token
/// stream that the parser stores (RoutineDecl::tokenHash()), then the
/// node count, the store-slot count and every supergraph edge's kind
/// and endpoints, which tell apart builds that lower the same text to
/// other equations. Equal hashes mean the same equation system over
/// the same index spaces, so the body needs no key tables: a row is
/// where its index says. Comment, layout and keyword-case edits keep
/// the token stream and replay; any other edit, even one that leaves
/// the syntax tree as it was, solves cold.
///
/// A save encodes the file into one buffer (each distinct store once,
/// the header last), writes it to a temp file of its own (pid plus a
/// per-process counter, created with O_EXCL) and swaps that into place:
/// an existing file by exchanging the two names and unlinking the old
/// bytes, a new entry (or any file, where the filesystem cannot
/// exchange) by a rename. A reader sees the old file or the new one,
/// never a torn or missing one, even while two saves of one file race
/// (two daemon requests sharing a cache_key), and a process crash
/// leaves the old file intact. Nothing is flushed to the device: a
/// power loss can leave a short or zero-filled file, which the load
/// rejects (header, magic, length or checksum) like any corrupted one.
///
/// A load reads the header first and rejects a file on its magic,
/// version, options hash or program hash (an edited program: "program
/// changed") before it reads the body, in one sized read. Any body
/// that does not describe the current program exactly (checksum, the
/// counts above, a dangling store reference, a boundary count the
/// recorded solve could not take) falls back to cold solving too. The
/// load is strictly an optimization and the solver re-verifies every
/// replayed element's inputs, so a stale or corrupted cache can cost
/// time but never change a result.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_PERSIST_WARMCACHE_H
#define SYNTOX_PERSIST_WARMCACHE_H

#include <cstdint>
#include <string>

namespace syntox {

class Analyzer;
struct AnalysisOptions;

namespace persist {

/// Cache file format version; bumped on any layout change.
/// v2: single-flags-byte store row codec matching the SoA payload
/// layout (bool kind folded into the flags, zigzag varint bounds).
/// v3: int rows carry an optional congruence component (flags bit4 +
/// two svarints) for the congruence/product domains; interval-domain
/// rows are byte-identical to v2.
/// v4: a checked program hash in the header; rows addressed by node,
/// element and slot index (no key tables, no partial-validity masks,
/// no edge-transfer memos).
/// v5: the program hash starts from the token-stream identity instead
/// of per-routine fingerprints; a chain slot drops the retired
/// iteration-strategy byte.
inline constexpr uint32_t CacheFormatVersion = 5;
/// The four header magic bytes.
inline constexpr char CacheMagic[4] = {'S', 'Y', 'X', 'C'};

/// Outcome of a load attempt, for telemetry and tests.
struct CacheLoadResult {
  bool Loaded = false;        ///< chain slots were imported
  std::string FallbackReason; ///< human-readable cause when !Loaded
  uint64_t Slots = 0;         ///< chain slots restored
  uint64_t RestoredNodes = 0; ///< nodes given recorded values: all of them
};

/// Path of the cache file for \p Dir and \p Opts (one per options
/// configuration).
std::string cacheFilePath(const std::string &Dir,
                          const AnalysisOptions &Opts);

/// Serializes the warm-start state recorded by \p An's last run() to
/// the cache file, creating \p Dir if needed. Returns false with \p ErrorOut set on I/O failure or when
/// there is nothing to save yet.
bool saveWarmCache(const std::string &Dir, const Analyzer &An,
                   std::string *ErrorOut = nullptr);

/// Advances the modification time of the cache file for \p Opts under
/// \p Dir to now (or 1 ns past its old mtime, if the clock has not
/// moved on), as a rewrite of the same bytes would, so the cache index
/// (persist/CacheGc.h) ranks the entry newest. Returns false when the
/// file is gone.
bool touchWarmCache(const std::string &Dir, const AnalysisOptions &Opts);

/// Loads the cache file for \p An's options and, when it was written
/// for this very program, installs its chain slots in \p An
/// (Analyzer::importChainSlots). Never throws; every failure mode is a
/// clean fallback with CacheLoadResult::FallbackReason set.
CacheLoadResult loadWarmCache(const std::string &Dir, Analyzer &An);

} // namespace persist
} // namespace syntox

#endif // SYNTOX_PERSIST_WARMCACHE_H
