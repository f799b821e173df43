//===- perfbench/driver/Spans.h - In-memory layer spans ---------*- C++ -*-===//
///
/// \file
/// The traced run's span recorder. A span is one call into a layer's
/// public entry point: its name, start and end (steady clock), the span
/// that caused it and the request it belongs to. Spans are kept in
/// memory and written out when the run ends.
///
/// One recorder serves the whole process (ActiveRecorder). A replayed
/// request crosses three threads — the replaying client, the server's
/// reading thread (wire parse) and its one worker (everything else) —
/// but only one of them works at a time, so a span nests under the
/// innermost open one whichever thread opens it. The recorder is
/// installed only while a traced replay runs; the reference checks run
/// afterwards through the same wrapped entry points, untraced.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

namespace perfbench {

struct Span {
  const char *Name;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint32_t Parent = 0;  ///< index + 1 of the causing span; 0 = a request root
  uint32_t Request = 0; ///< request id shared by every span of a request
};

/// Work the wrapped entry points observe for the current request.
struct LayerCounts {
  uint64_t Tokens = 0;        ///< tokens lexed
  uint64_t CfgPoints = 0;     ///< control points of the CFGs built
  uint64_t Solves = 0;        ///< Analyzer::run calls
  uint64_t Instances = 0;     ///< ... their unfolded instances
  uint64_t Nodes = 0;         ///< ... and supergraph nodes
  uint64_t CacheOnSolves = 0; ///< ... run with the transfer cache on
  uint64_t Loads = 0;         ///< persist::loadWarmCache calls
  uint64_t LoadHits = 0;      ///< ... that imported recorded state
  uint64_t RestoredNodes = 0; ///< ... nodes given a recorded value
  uint64_t LoadedNodes = 0;   ///< ... nodes of the analyzers loaded into
  uint64_t Saves = 0;         ///< successful persist::saveWarmCache calls
  uint64_t SavedBytes = 0;    ///< ... size of the cache files they wrote
  uint64_t GcRuns = 0;        ///< persist::gcCacheDir calls
  uint64_t TreeFiles = 0;     ///< ... files they kept
};

class SpanRecorder {
public:
  SpanRecorder() : Epoch(std::chrono::steady_clock::now()) {}

  /// Opens a span under the innermost open one; returns its id.
  uint32_t open(const char *Name) {
    std::lock_guard<std::mutex> Lock(M);
    Spans.push_back({Name, nowNs(), 0, Current, Request});
    Current = static_cast<uint32_t>(Spans.size());
    return Current;
  }
  void close(uint32_t Id) {
    std::lock_guard<std::mutex> Lock(M);
    Span &S = Spans[Id - 1];
    S.EndNs = nowNs();
    Current = S.Parent;
  }
  /// True when the innermost open span is a request root.
  bool atRoot() {
    std::lock_guard<std::mutex> Lock(M);
    return Current && Spans[Current - 1].Parent == 0;
  }

  /// Spans opened from now on belong to request \p Id, whose counts
  /// start at zero.
  void beginRequest(uint32_t Id) {
    std::lock_guard<std::mutex> Lock(M);
    Request = Id;
    Counts = LayerCounts();
  }
  void add(uint64_t LayerCounts::*Field, uint64_t N) {
    std::lock_guard<std::mutex> Lock(M);
    Counts.*Field += N;
  }
  LayerCounts counts() {
    std::lock_guard<std::mutex> Lock(M);
    return Counts;
  }

  /// Every span so far; read once the replay has ended.
  const std::vector<Span> &spans() const { return Spans; }

private:
  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Epoch)
            .count());
  }

  std::chrono::steady_clock::time_point Epoch;
  std::mutex M; ///< guards everything below
  std::vector<Span> Spans;
  LayerCounts Counts;
  uint32_t Current = 0;
  uint32_t Request = 0;
};

/// The process's recorder; null = not tracing.
extern std::atomic<SpanRecorder *> ActiveRecorder;

/// RAII span on the active recorder (no-op without one).
class SpanScope {
public:
  explicit SpanScope(const char *Name)
      : R(ActiveRecorder.load(std::memory_order_acquire)),
        Id(R ? R->open(Name) : 0) {}
  ~SpanScope() {
    if (R)
      R->close(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  SpanRecorder *R;
  uint32_t Id;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
