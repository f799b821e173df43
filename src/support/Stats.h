//===- support/Stats.h - Analysis statistics --------------------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters mirroring the statistics panel of the original Syntox session
/// (Figure 2 of the paper): control points, equations, unions, widenings,
/// narrowings, per-phase iteration counts, CPU time and memory. Benchmarks
/// E2 and E4 print these.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_SUPPORT_STATS_H
#define SYNTOX_SUPPORT_STATS_H

#include "support/Json.h"

#include <cstdint>
#include <string>
#include <vector>

namespace syntox {

/// Iteration counts for one fixpoint phase (e.g. "Forward analysis:
/// widening (84), narrowing (56)" in Figure 2).
struct PhaseStats {
  std::string Name;            ///< e.g. "forward", "intermittent", "invariant"
  uint64_t WideningSteps = 0;  ///< equation evaluations in the ascending phase
  uint64_t NarrowingSteps = 0; ///< equation evaluations in the descending phase
  /// Refinement round this phase ran in: 0 for the initial forward
  /// analyses, 1..BackwardRounds for the (always, eventually, forward)
  /// chain. Phases of the same name recur across rounds; reporting them
  /// per round is what lets E2 plot the convergence of the decreasing
  /// chain instead of one summed entry.
  unsigned Round = 0;
  /// Stable top-level WTO elements replayed from the warm-start memo
  /// (one count per element per sweep) instead of re-iterated.
  uint64_t ComponentSkips = 0;
  /// Equation evaluations those skips avoided (the recorded cost of the
  /// replayed elements in the round that computed them).
  uint64_t SkippedSteps = 0;
  /// Of WideningSteps + NarrowingSteps, the scheduled steps whose
  /// evaluation the solver skipped because none of the equation's
  /// inputs changed since its last evaluation in this phase.
  uint64_t StableInputSkips = 0;
  double Seconds = 0.0;        ///< wall-clock time of this phase

  /// Stable JSON rendering (schemas/findings.schema.json).
  json::Value toJson() const;
};

/// Aggregate statistics for one complete abstract-debugging run.
struct AnalysisStats {
  uint64_t ControlPoints = 0; ///< control points after call-graph unfolding
  uint64_t Equations = 0;     ///< semantic equations solved
  uint64_t Unions = 0;        ///< abstract joins performed
  uint64_t Widenings = 0;     ///< widening applications
  uint64_t Narrowings = 0;    ///< narrowing applications
  /// Stable WTO elements replayed by the warm-started refinement chain
  /// instead of re-iterated, summed over all phases.
  uint64_t ComponentSkips = 0;
  /// Equation evaluations avoided by those replays.
  uint64_t SkippedSteps = 0;
  /// Callee instances whose every WTO element was replayed in some
  /// phase — rounds that left the token's entry state unchanged and
  /// reused its exit summary outright.
  uint64_t SummaryReuses = 0;
  /// Top-level WTO elements scheduled under a demand cone, summed over
  /// all phases (demand-driven queries only; 0 on a full run).
  uint64_t DemandedComponents = 0;
  /// Top-level WTO elements outside the demand cone, excluded from the
  /// schedule (zero live evaluations), summed over all phases.
  uint64_t SkippedByDemand = 0;
  /// Descending loops the solver cut off at a safety-net sweep bound
  /// while still changing, summed over all phases (see
  /// SolverStats::SweepCapHits). 0 when every phase converged.
  uint64_t SweepCapHits = 0;
  /// Scheduled solver steps skipped because the equation's inputs were
  /// unchanged since its last evaluation, summed over all phases.
  uint64_t StableInputSkips = 0;
  uint64_t BytesUsed = 0;     ///< live analysis structures, in bytes
  double CpuSeconds = 0.0;    ///< wall-clock analysis time
  std::vector<PhaseStats> Phases;

  /// Renders a Figure-2-style summary block.
  std::string str() const;

  /// Stable JSON rendering (schemas/findings.schema.json).
  json::Value toJson() const;
};

} // namespace syntox

#endif // SYNTOX_SUPPORT_STATS_H
