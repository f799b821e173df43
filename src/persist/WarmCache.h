//===- persist/WarmCache.h - On-disk warm-start cache -----------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Persistence of the analyzer's warm-start state (chain-slot memos,
/// boundary store snapshots, interprocedural edge-transfer memos) to a
/// versioned cache file, keyed entirely by the content-addressed keys of
/// semantics/StableIds.h so that a re-parse — or an edited program —
/// maps recorded state onto its structural counterparts:
///
///   file name        syntox-<options hash>.warm     (one file per
///                    options configuration; the supergraph hash lives
///                    in the header, informationally, because after an
///                    edit it never matches and mapping is per-key)
///   header           magic "SYXC", format version, options hash,
///                    supergraph hash, body length, FNV-1a body checksum
///   body             var-key table, recorded node-key table, forward /
///                    backward WTO element-key tables, a store pool
///                    deduplicated by content (interval bounds as zigzag
///                    varints with +/-oo sentinel flags), the chain
///                    slots, and the edge-transfer memos keyed by edge
///                    key
///   sidecar          <file>.meta.json — the header decoded to JSON,
///                    validated by schemas/cache.schema.json
///
/// A save writes the whole file to a temp file of its own (pid plus a
/// per-process counter, created with O_EXCL) and renames it into place,
/// so a reader sees the old file or the new one, never a torn mix, even
/// while two saves of one file race (two daemon requests sharing a
/// cache_key). The sidecar is written in place: nothing reads it back.
///
/// Loading maps recorded node keys onto the current supergraph: matched
/// nodes get their recorded boundary values, unmatched ones get
/// placeholder values with WarmStartMemo::NodeValid = 0 (the solver
/// then refuses to replay or verify anything touching them); WTO
/// elements whose sorted member-key set matches a recorded element
/// reuse its per-sweep change/cost rows, others are marked
/// non-replayable. Any header mismatch, checksum failure, or truncation
/// falls back to cold solving — the load is strictly an optimization
/// and the solver re-verifies every replayed value, so a stale or
/// corrupted cache can cost time but never change a result.
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
inline constexpr uint32_t CacheFormatVersion = 3;
/// The four header magic bytes.
inline constexpr char CacheMagic[4] = {'S', 'Y', 'X', 'C'};

/// Outcome of a load attempt, for telemetry and tests.
struct CacheLoadResult {
  bool Loaded = false;        ///< chain slots were imported
  std::string FallbackReason; ///< human-readable cause when !Loaded
  uint64_t Slots = 0;         ///< chain slots restored
  uint64_t RestoredNodes = 0; ///< current nodes with a recorded value
  uint64_t InvalidatedNodes = 0; ///< current nodes without one
  uint64_t MatchedElements = 0;  ///< fwd+bwd WTO elements with rows
  uint64_t UnmatchedElements = 0;
  uint64_t RestoredEdgeMemos = 0;
};

/// Path of the cache file for \p Dir and \p Opts (one per options
/// configuration).
std::string cacheFilePath(const std::string &Dir,
                          const AnalysisOptions &Opts);

/// Serializes the warm-start state recorded by \p An's last run() to
/// the cache file (plus the .meta.json sidecar), creating \p Dir if
/// needed. Returns false with \p ErrorOut set on I/O failure or when
/// there is nothing to save yet.
bool saveWarmCache(const std::string &Dir, const Analyzer &An,
                   std::string *ErrorOut = nullptr);

/// Advances the modification time of the cache file for \p Opts under
/// \p Dir to now (or 1 ns past its old mtime, if the clock has not
/// moved on), as a rewrite of the same bytes would, so the cache index
/// (persist/CacheGc.h) ranks the entry newest. Returns false when the
/// file is gone.
bool touchWarmCache(const std::string &Dir, const AnalysisOptions &Opts);

/// Loads the cache file for \p An's options and maps its state into
/// \p An (chain slots via Analyzer::importChainSlots, edge memos via
/// Analyzer::importEdgeMemo). Never throws; every failure mode is a
/// clean fallback with CacheLoadResult::FallbackReason set.
CacheLoadResult loadWarmCache(const std::string &Dir, Analyzer &An);

} // namespace persist
} // namespace syntox

#endif // SYNTOX_PERSIST_WARMCACHE_H
