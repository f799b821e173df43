//===- core/AnalysisBatch.h - Cross-request analysis scheduling -*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Batch execution of many AnalysisSessions on one fixed-size request
/// pool — the throughput layer syntox_serve shares its scheduling
/// scheme with. Requests run concurrently on a batch-owned ThreadPool of
/// Config::TotalThreads workers; each request is solved serially on the
/// worker that picked it up, so the pool size alone bounds the live
/// analysis threads.
///
/// Isolation: each request runs through the one-shot runRequest, in an
/// AnalysisSession of its own over its own source text; the engine's
/// copy-on-write stores share nothing across requests, so no
/// cross-request synchronization is needed beyond the scheduler itself.
/// All sessions report into the batch-owned MetricsRegistry
/// (thread-safe), giving one aggregate metrics snapshot for the whole
/// batch.
///
/// Results are bitwise-identical to running each program through its own
/// sequential AnalysisSession: scheduling affects only *when* a request
/// runs, never what it computes.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_CORE_ANALYSISBATCH_H
#define SYNTOX_CORE_ANALYSISBATCH_H

#include "core/AnalysisRequest.h"

#include <string>
#include <vector>

namespace syntox {

class AnalysisBatch {
public:
  struct Config {
    /// Request-pool workers, and so the cap on requests in flight
    /// (0 = one per hardware thread).
    unsigned TotalThreads = 0;
  };

  AnalysisBatch() = default;
  explicit AnalysisBatch(Config Cfg) : Cfg(Cfg) {}

  /// Queues \p R (the shared submission type — source, options,
  /// optional demand query) and returns its request index. Nothing is
  /// parsed or built here: runAll() validates each program on the
  /// pool. Telemetry metrics are routed to the batch registry.
  unsigned add(AnalysisRequest R);

  /// Convenience: a full-analysis request for \p Source under \p Opts.
  unsigned add(std::string Source, AnalysisOptions Opts = {});

  /// Number of queued requests.
  unsigned size() const { return static_cast<unsigned>(Requests.size()); }

  /// One request's result, in the shared outcome type: OK with the
  /// frozen findings (or the partial demand result for query requests),
  /// or the frontend/runtime error that stopped it. Index is the add()
  /// order, which runAll()'s return preserves.
  using Outcome = AnalysisOutcome;

  /// Runs every queued request to completion and returns the outcomes in
  /// add() order. Each request is validated, built once and run on the
  /// pool worker that picks it up; a frontend error becomes that
  /// request's failed outcome (runAll never throws for it). May be
  /// called again: each call runs every request afresh (a warm second
  /// wave replays through AnalysisOptions::CacheDir).
  std::vector<Outcome> runAll();

  /// The batch-owned registry all sessions report into. Snapshot it for
  /// the batch-level metrics document.
  MetricsRegistry &metrics() { return Metrics; }

private:
  Config Cfg;
  MetricsRegistry Metrics;
  std::vector<AnalysisRequest> Requests;
};

} // namespace syntox

#endif // SYNTOX_CORE_ANALYSISBATCH_H
