//===- core/AnalysisSession.h - Session/result analysis API -----*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The preferred entry point to the abstract debugger: an AnalysisSession
/// holds a program's source, its analysis configuration and the
/// telemetry sinks the runs report into, all fixed at create(); run()
/// executes the full schedule and returns an *immutable* AnalysisResult
/// that owns every finding — necessary conditions, invariant warnings,
/// check classifications, statistics, a metrics snapshot, and
/// structured per-point state queries.
///
/// The split fixes the footgun of the bare AbstractDebugger API, whose
/// results are views into an object the caller must keep alive: each
/// run() freezes its engine behind shared const ownership, so results
/// outlive the session and never change under the caller.
///
/// The session is also the sole owner of the persistent warm-start
/// cache composition (AnalysisOptions::CacheDir): it loads matching
/// recordings into each engine before its run and saves them back
/// after every full run, so the CLI, AnalysisBatch and syntox_serve all
/// share one entry path — the engine itself knows nothing about disk.
///
/// Engines: create() builds the engine it validates the program with,
/// and the first run() or demand query adopts it, so a session that
/// runs once parses and lowers its source once. Every later run builds
/// and solves an engine of its own; warm reruns go through the on-disk
/// cache.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_CORE_ANALYSISSESSION_H
#define SYNTOX_CORE_ANALYSISSESSION_H

#include "core/AbstractDebugger.h"
#include "support/Metrics.h"

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

/// A program plus its fixed configuration; factory of AnalysisResults.
class AnalysisSession {
public:
  /// Parses and validates \p Source, building the engine the first
  /// run() or demand query adopts. Returns null (with diagnostics in
  /// \p Diags) when the program has frontend errors. \p Opts holds the
  /// caller's telemetry sinks too: every build and run records into
  /// Opts.Telem.Trace when set, and reports into Opts.Telem.Metrics,
  /// else into the session's own registry.
  static std::unique_ptr<AnalysisSession>
  create(std::string Source, DiagnosticsEngine &Diags,
         AnalysisOptions Opts = {});

  ~AnalysisSession();

  /// The session-owned metrics registry (live values; results carry
  /// frozen snapshots).
  MetricsRegistry &metrics() { return Metrics; }

  /// Runs the full analysis schedule and returns the frozen findings.
  /// May be called repeatedly: each later run solves an engine of its
  /// own, so earlier results remain valid and unchanged.
  AnalysisResult run();

  /// Demand-driven point query: solves only the backward dependency
  /// cone of the control points matching \p Loc (everything outside the
  /// cone runs zero live steps) and returns the frozen partial result.
  /// Answers are bitwise-identical to the same query against run().
  /// Like run(), may be called repeatedly.
  DemandResult demandStateAt(SourceLoc Loc);

  /// Demand-driven check query: solves only the cone of runtime check
  /// \p CheckId (an id from the findings document / check table) and
  /// returns its classification. Throws std::out_of_range for an
  /// unknown check id.
  DemandResult demandCheck(unsigned CheckId);

  /// The analysis configuration every run uses, with the telemetry
  /// sinks it reports into.
  const AnalysisOptions &options() const { return Opts; }

private:
  AnalysisSession() = default;
  DemandResult runDemandQuery(const DemandSpec &Spec);
  /// The engine the next run solves: the one create() built, the first
  /// time; a freshly built one after that.
  std::shared_ptr<AbstractDebugger> engineForRun();
  /// Loads the persistent warm cache into \p Dbg before its run, with
  /// the persist.* telemetry counters. No-op without
  /// CacheDir/WarmStart. Returns whether this call loaded the file.
  bool loadPersistCache(AbstractDebugger &Dbg);
  /// Saves the engine's recordings back to the cache directory after a
  /// full run (demand runs never save). No-op without CacheDir. A run
  /// that \p Loaded the file and then took no live solver step
  /// replayed everything it loaded, so the save would write the bytes
  /// already on disk: it only advances the file's mtime instead
  /// (persist.save_skipped), or saves after all if the file is gone.
  void savePersistCache(const AbstractDebugger &Dbg, bool Loaded);

  std::string Source;
  AnalysisOptions Opts;
  MetricsRegistry Metrics;
  /// The engine create() built, until the first run adopts it.
  std::unique_ptr<AbstractDebugger> Engine;
};

} // namespace syntox

#endif // SYNTOX_CORE_ANALYSISSESSION_H
