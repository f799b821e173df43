//===- core/AnalysisSession.h - Session/result analysis API -----*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The preferred entry point to the abstract debugger: an AnalysisSession
/// holds a program's analysis engine (built once, when create()
/// validates the source) plus the analysis configuration and the
/// telemetry plumbing (an owned MetricsRegistry, an optional owned
/// TraceRecorder); run() executes the full schedule and returns an
/// *immutable* AnalysisResult that owns every finding — necessary
/// conditions, invariant warnings, check classifications, statistics, a
/// metrics snapshot, and structured per-point state queries.
///
/// The split fixes the footgun of the bare AbstractDebugger API, where
/// results were mutable views into an object that a later analyze()
/// could silently invalidate: each run() freezes its engine behind
/// shared const ownership, so results outlive the session and never
/// change under the caller.
///
/// The session is also the sole owner of the persistent warm-start
/// cache composition (AnalysisOptions::CacheDir): it loads matching
/// recordings into the engine before the first run and saves them back
/// after every full run, so the CLI, AnalysisBatch and syntox_serve all
/// share one entry path — the engine itself knows nothing about disk.
///
/// Engine reuse: the first run adopts the engine create() built to
/// validate the program, so a fresh session parses and lowers its
/// source once. Changing options() or calling enableTracing() before
/// that run rebuilds it, like any option change (the engine captures
/// its telemetry sinks at construction). After a run, run() keeps the
/// analyzed engine and, when nothing observable holds a reference to it
/// (no live AnalysisResult) and the configuration is unchanged,
/// re-analyzes it in place — the in-memory warm-start chain then
/// replays stable components at zero live steps. Results are
/// bitwise-identical either way; only iteration counters differ.
/// Any outstanding result pins the engine and forces the next run onto
/// a fresh one, preserving immutability.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_CORE_ANALYSISSESSION_H
#define SYNTOX_CORE_ANALYSISSESSION_H

#include "core/AbstractDebugger.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <memory>
#include <string>
#include <vector>

namespace syntox {

/// Immutable findings of one completed analysis run. Cheap to copy
/// (shared const ownership of the underlying debugger); valid after the
/// creating session is gone.
class AnalysisResult {
public:
  /// The whole-program verdict: false when the analysis proved that *no*
  /// input can satisfy the specification.
  bool someExecutionMaySatisfySpec() const {
    return Dbg->someExecutionMaySatisfySpec();
  }

  /// Derived necessary conditions of correctness at their origin points.
  const std::vector<NecessaryCondition> &conditions() const {
    return Dbg->conditions();
  }

  /// Invariant assertions the forward analysis could not discharge.
  const std::vector<InvariantWarning> &invariantWarnings() const {
    return Dbg->invariantWarnings();
  }

  /// Classification of every runtime check.
  const CheckAnalysis &checks() const { return Dbg->checks(); }

  /// Figure 2 statistics of this run.
  const AnalysisStats &stats() const { return Dbg->stats(); }

  /// Metrics snapshot taken when the run finished. Counters accumulate
  /// over the owning session's lifetime, so in a multi-run session this
  /// is "session totals as of this run".
  const json::Value &metrics() const { return MetricsSnapshot; }

  /// The abstract state at every control point matching \p Loc (zero
  /// column matches the whole line) — the structured statement
  /// inspector.
  std::vector<PointState> stateAt(SourceLoc Loc) const {
    return Dbg->stateAt(Loc);
  }

  /// The abstract state at every control point of the main routine
  /// (optionally filtered by point-description substring).
  std::vector<PointState> mainStates(const std::string &DescFilter = "") const {
    return Dbg->mainStates(DescFilter);
  }

  /// The complete findings document (verdict, conditions, warnings,
  /// checks, stats, metrics) with stable keys — see
  /// schemas/findings.schema.json.
  json::Value toJson() const;

  /// Read-only access to the underlying engine for advanced queries.
  const Analyzer &analyzer() const { return Dbg->analyzer(); }
  const AbstractDebugger &debugger() const { return *Dbg; }

private:
  friend class AnalysisSession;
  AnalysisResult(std::shared_ptr<const AbstractDebugger> Dbg,
                 json::Value MetricsSnapshot)
      : Dbg(std::move(Dbg)), MetricsSnapshot(std::move(MetricsSnapshot)) {}

  std::shared_ptr<const AbstractDebugger> Dbg;
  json::Value MetricsSnapshot;
};

/// Immutable result of one demand-driven query: the answer plus the
/// findings derived inside the solved cone. A *partial* result — only
/// the points inside the cone carry trustworthy values, and every
/// accessor that could touch an out-of-cone point refuses
/// (std::out_of_range) instead of answering from unspecified state.
/// Cheap to copy; valid after the creating session is gone.
class DemandResult {
public:
  /// What was asked.
  const DemandSpec &spec() const { return Spec; }

  /// Point query: the abstract state at every control point matching
  /// the queried location (empty for check queries and for locations
  /// matching no point — same contract as AnalysisResult::stateAt).
  const std::vector<PointState> &states() const { return States; }

  /// Check query: the classification of the queried check, or null for
  /// point queries. The CheckInfo pointer stays valid for this
  /// result's lifetime.
  const CheckResult *check() const {
    return Check.Info ? &Check : nullptr;
  }

  /// Follow-up state query against the same demand run. Throws
  /// std::out_of_range when any matching point is outside the cone.
  std::vector<PointState> stateAt(SourceLoc Loc) const {
    return Dbg->demandStateAt(Loc);
  }

  /// True when stateAt(\p Loc) will answer (every matching point is
  /// inside the solved cone).
  bool covers(SourceLoc Loc) const { return Dbg->demandCovers(Loc); }

  /// Necessary conditions whose origin lies inside the cone (equal to
  /// the full-analysis conditions at those points).
  const std::vector<NecessaryCondition> &conditions() const {
    return Dbg->demandConditions();
  }

  /// Invariant warnings derived inside the cone.
  const std::vector<InvariantWarning> &invariantWarnings() const {
    return Dbg->demandInvariantWarnings();
  }

  /// Statistics of the demand run (DemandedComponents/SkippedByDemand
  /// carry the cone accounting).
  const AnalysisStats &stats() const { return Dbg->stats(); }

  /// Metrics snapshot taken when the query finished.
  const json::Value &metrics() const { return MetricsSnapshot; }

  /// The partial-findings document — see schemas/demand.schema.json.
  json::Value toJson() const;

  /// Read-only access to the underlying engine (demandMask() etc.).
  const Analyzer &analyzer() const { return Dbg->analyzer(); }
  const AbstractDebugger &debugger() const { return *Dbg; }

private:
  friend class AnalysisSession;
  DemandResult(std::shared_ptr<const AbstractDebugger> Dbg,
               DemandSpec Spec, std::vector<PointState> States,
               CheckResult Check, json::Value MetricsSnapshot)
      : Dbg(std::move(Dbg)), Spec(Spec), States(std::move(States)),
        Check(Check), MetricsSnapshot(std::move(MetricsSnapshot)) {}

  std::shared_ptr<const AbstractDebugger> Dbg;
  DemandSpec Spec;
  std::vector<PointState> States;
  CheckResult Check; ///< Info null for point queries
  json::Value MetricsSnapshot;
};

/// A program's engine plus configuration; factory of AnalysisResults.
class AnalysisSession {
public:
  /// Parses and validates \p Source, building the engine the first
  /// run() adopts. Returns null (with diagnostics in \p Diags) when the
  /// program has frontend errors. The build reports into the registry
  /// \p Opts names, else the session's own, and records no trace
  /// events; enableTracing() before the first run makes that run
  /// rebuild the engine under the recorder, so the trace covers it.
  static std::unique_ptr<AnalysisSession>
  create(std::string Source, DiagnosticsEngine &Diags,
         AnalysisOptions Opts = {});

  ~AnalysisSession();

  /// Enables event tracing for subsequent run() calls and returns the
  /// recorder. Repeated calls replace the recorder (and drop any
  /// unflushed events) only when \p Mask differs.
  TraceRecorder &enableTracing(uint32_t Mask = TraceRecorder::DefaultEvents);

  /// The recorder installed by enableTracing, or null.
  TraceRecorder *traceRecorder() { return Trace.get(); }

  /// Merges and clears the events recorded so far into \p Sink.
  /// No-op without enableTracing().
  void flushTrace(TraceSink &Sink);

  /// The session-owned metrics registry (live values; results carry
  /// frozen snapshots).
  MetricsRegistry &metrics() { return Metrics; }

  /// Runs the full analysis schedule and returns the frozen findings.
  /// May be called repeatedly (e.g. after changing options()); earlier
  /// results remain valid and unchanged — when one is still alive the
  /// run analyzes a fresh engine, otherwise the previous engine is
  /// re-analyzed in place and its warm chain replays stable work.
  AnalysisResult run();

  /// Demand-driven point query: solves only the backward dependency
  /// cone of the control points matching \p Loc (replaying everything
  /// outside the cone from warm memos at zero live steps) and returns
  /// the frozen partial result. Answers are bitwise-identical to the
  /// same query against run(). Like run(), may be called repeatedly,
  /// with the same engine-reuse rule.
  DemandResult demandStateAt(SourceLoc Loc);

  /// Demand-driven check query: solves only the cone of runtime check
  /// \p CheckId (an id from the findings document / check table) and
  /// returns its classification. Throws std::out_of_range for an
  /// unknown check id.
  DemandResult demandCheck(unsigned CheckId);

  /// The analysis configuration used by the next run(). Telemetry
  /// members are managed by the session and reset on run().
  AnalysisOptions &options() { return Opts; }
  const AnalysisOptions &options() const { return Opts; }

private:
  AnalysisSession() = default;
  DemandResult runDemandQuery(const DemandSpec &Spec);
  /// Points Opts' telemetry at the sinks a run reports into: the
  /// recorder of enableTracing() (or none) and the caller's registry,
  /// else the session's own.
  void installTelemetry();
  /// The engine the next run will use: the kept one when it is
  /// uniquely owned, compatible with the current options, and \p
  /// ForDemand-admissible; a freshly created one otherwise. Bumps the
  /// "session.engine_reuses" counter when the kept engine has run
  /// before (adopting create()'s engine is not a reuse).
  std::shared_ptr<AbstractDebugger> engineForRun(bool ForDemand);
  /// One-time per-engine load of the persistent warm cache, with the
  /// persist.* telemetry counters. No-op without CacheDir/WarmStart.
  void loadPersistCache(AbstractDebugger &Dbg);
  /// Saves the engine's recordings back to the cache directory after a
  /// full run (demand runs never save). No-op without CacheDir.
  void savePersistCache(const AbstractDebugger &Dbg);

  std::string Source;
  AnalysisOptions Opts;
  MetricsRegistry Metrics;
  std::unique_ptr<TraceRecorder> Trace;
  /// The engine create() built, then the engine of the last run, kept
  /// for the next run to adopt or reuse warm. A live
  /// AnalysisResult/DemandResult shares ownership, which is exactly
  /// the reuse gate: use_count() > 1 means someone can observe the
  /// engine, so the next run must not touch it.
  std::shared_ptr<AbstractDebugger> Engine;
  /// Options the kept engine was built with (reuse requires equality).
  AnalysisOptions EngineOpts;
  /// Whether the kept engine already probed the on-disk cache (the
  /// load happens once per engine, like the old per-debugger probe).
  bool EnginePersistProbed = false;
};

} // namespace syntox

#endif // SYNTOX_CORE_ANALYSISSESSION_H
