//===- serve/Server.h - Long-lived analysis daemon --------------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer: a Server reads JSON-lines requests (see
/// serve/Protocol.h) from a descriptor, schedules analyze requests on a
/// fixed-size worker pool, and writes one response line per request. It
/// is the third driver of the shared AnalysisRequest / AnalysisOutcome
/// submission model, after the CLI and AnalysisBatch.
///
/// Scheduling. Analyze requests run on a server-owned ThreadPool of
/// Config::TotalThreads workers — exactly the AnalysisBatch scheme. Each
/// request is solved on the one worker that picked it up, so the pool
/// size alone bounds the requests in flight and the analysis threads.
/// Admin requests (gc, metrics, ping, shutdown) are answered inline on
/// the reading thread, ahead of queued analyses.
///
/// Resource bounds. Memory holds only the requests in flight: each
/// analyze request creates its own AnalysisSession, runs it, renders
/// the response, and frees the session and its engine before it writes
/// that response. What outlives a request is on disk: requests carrying
/// a cache_key persist warm-start state under
/// CacheDir/<fnv1a(cache_key)>/ (one shard per client document, so
/// distinct documents never fight over one cache file): an unchanged
/// resubmission replays from its shard, and an edited document solves
/// cold and saves its own state there. Under a
/// Config::CacheMaxBytes cap the server keeps an in-memory index of the
/// tree (persist::CacheTree), seeded by one walk at construction: after
/// every full run that saved, it re-stats just that entry and evicts
/// the oldest entries until the tree is back under the cap, so the cap
/// holds after every save without walking the tree again. The `gc`
/// admin request runs a full collection (persist::gcCacheDir) and
/// re-seeds the index from disk — the way to reconcile anything written
/// into the tree behind the daemon's back. An unbounded daemon (cap 0)
/// keeps no index, and its `gc` reports the tree without deleting
/// anything.
///
/// Timeouts are enforced at admission: the solver has no preemption
/// point, so a deadline cannot cancel a running fixpoint — instead a
/// request that has already exceeded its deadline when a worker picks
/// it up is answered status:"timeout" without running. An overloaded
/// server therefore sheds queued work at the deadline, and every
/// accepted request is answered in bounded queue time plus at most one
/// full solve.
///
/// Shutdown. requestDrain() (wired to SIGTERM/SIGINT by syntox_serve)
/// or a `shutdown` request stops the read loop; every admitted request
/// still runs to completion and writes its response before serve()
/// returns — a graceful drain, never a mid-response cut.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_SERVE_SERVER_H
#define SYNTOX_SERVE_SERVER_H

#include "core/AnalysisRequest.h"
#include "persist/CacheGc.h"
#include "serve/Protocol.h"
#include "support/Metrics.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

namespace syntox {

class ThreadPool;

namespace serve {

struct ServerConfig {
  /// Per-request analysis defaults; a request's "options" object
  /// overrides them member by member.
  AnalysisOptions Defaults;
  /// Request-pool workers, and so the cap on analyze requests in
  /// flight (0 = one per hardware thread).
  unsigned TotalThreads = 0;
  /// Default admission deadline per analyze request, in milliseconds
  /// (0 = none). A request's timeout_ms member overrides it.
  unsigned RequestTimeoutMs = 0;
  /// Root of the on-disk warm cache (empty = disk cache off). Requests
  /// name their shard with cache_key; requests without one never touch
  /// the disk.
  std::string CacheDir;
  /// Size cap the cache tree is held to after every save
  /// (0 = unbounded).
  uint64_t CacheMaxBytes = 0;
  /// Test hook: every analyze job sleeps this long at the start of its
  /// run phase, making in-flight windows deterministic for the drain
  /// and timeout tests. Zero in production.
  unsigned TestStartDelayMs = 0;
};

class Server {
public:
  explicit Server(ServerConfig Cfg);
  ~Server();

  /// Serves one client connection: requests from \p InFd, responses to
  /// \p OutFd, until end of input, a shutdown request, or
  /// requestDrain(). Admitted work is drained before returning.
  /// Returns false when the client asked the daemon to shut down (the
  /// accept loop should then stop), true when more clients may follow.
  bool serve(int InFd, int OutFd);

  /// Initiates a graceful drain from any thread (async-signal-safe: a
  /// lock-free atomic store).
  void requestDrain() { Draining.store(true, std::memory_order_relaxed); }
  bool draining() const { return Draining.load(std::memory_order_relaxed); }

  /// The server-wide registry every request reports into.
  MetricsRegistry &metrics() { return Metrics; }

private:
  struct Pending; // one admitted analyze request

  void handleLine(const std::string &Line, ThreadPool &Pool, int OutFd);
  void runAnalyze(std::shared_ptr<Pending> P, int OutFd);
  json::Value gcPayload();
  /// Re-indexes the entry a save just wrote at \p WarmPath and evicts
  /// down to the cap.
  void evictAfterSave(const std::string &WarmPath);
  void writeLine(int OutFd, const json::Value &Response);

  ServerConfig Cfg;
  MetricsRegistry Metrics;
  std::atomic<bool> Draining{false};
  std::atomic<bool> ShutdownRequested{false};
  std::mutex WriteMutex; ///< one response line at a time
  std::mutex GcMutex; ///< guards CacheIndex: one eviction or gc at a time
  /// The cache tree's entries and bytes (empty when unbounded).
  persist::CacheTree CacheIndex;
};

} // namespace serve
} // namespace syntox

#endif // SYNTOX_SERVE_SERVER_H
