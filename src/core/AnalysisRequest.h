//===- core/AnalysisRequest.h - One submission model ------------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one submission model shared by every driver of the analysis:
/// an AnalysisRequest is program text + options + an optional demand
/// query, and an AnalysisOutcome is the error-or-result of running it.
/// The CLI one-shot, AnalysisBatch and syntox_serve all build the same
/// request type and hand it to the same runner, instead of three ad-hoc
/// signatures — adding a capability (like the demand query) reaches all
/// three at once.
///
/// Two runners: the one-shot overload validates and runs in one step
/// (frontend errors surface in the outcome, never as exceptions), and
/// is what AnalysisBatch runs; the session overload runs a query
/// against a caller-created AnalysisSession (the CLI and syntox_serve
/// report frontend diagnostics themselves before they run).
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_CORE_ANALYSISREQUEST_H
#define SYNTOX_CORE_ANALYSISREQUEST_H

#include "core/AnalysisSession.h"

#include <optional>
#include <string>

namespace syntox {

/// One unit of analysis work: what to analyze, how, and (optionally)
/// the single demand-driven question to answer instead of the full
/// schedule.
struct AnalysisRequest {
  std::string Source;
  AnalysisOptions Opts;
  /// When set, the request is a demand-driven query: only the query's
  /// backward dependency cone is solved and Outcome::Demand carries
  /// the partial result; otherwise the full schedule runs and
  /// Outcome::Result carries the frozen findings.
  std::optional<DemandSpec> Query;
};

/// The error-or-result of one request. Exactly one of Result / Demand
/// is set on success (matching AnalysisRequest::Query); Error is
/// non-empty on failure (frontend diagnostics, an out-of-cone demand
/// refusal, or a runtime error).
struct AnalysisOutcome {
  unsigned Index = 0; ///< submission order, for batch drivers
  bool OK = false;
  std::string Error;
  std::optional<AnalysisResult> Result;
  std::optional<DemandResult> Demand;
  double Seconds = 0.0; ///< wall-clock of the run itself

  /// The findings document of whichever result is present — the full
  /// findings (schemas/findings.schema.json) or the partial demand
  /// document. Must only be called when OK.
  json::Value findingsJson() const;
};

/// Runs \p Query (or, when unset, the full schedule) on \p S. Never
/// throws: exceptions from the engine surface as a failed outcome.
AnalysisOutcome runRequest(AnalysisSession &S,
                           const std::optional<DemandSpec> &Query =
                               std::nullopt);

/// One-shot: validates \p R's source and runs it. Frontend errors land
/// in the outcome (diagnostics rendered into Error). Metrics are routed
/// wherever R.Opts.Telem.Metrics points (a private registry otherwise).
AnalysisOutcome runRequest(AnalysisRequest R);

} // namespace syntox

#endif // SYNTOX_CORE_ANALYSISREQUEST_H
