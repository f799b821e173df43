//===- baselines/Baselines.h - Comparator analyses --------------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The comparison analyses of the paper's evaluation (§6.4/§6.5):
///  - the full abstract debugger (forward + backward, token unfolding),
///  - forward-only interval analysis (no backward propagation),
///  - Harrison-77 style: *greatest* fixpoint of the forward system
///    ("no semantic justification and gives poor results"),
///  - context-insensitive interprocedural analysis (call sites merged,
///    "at the cost of a loss of precision").
/// Each configuration is run over a program and summarized by precision
/// (check discharge, range tightness) and cost.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_BASELINES_BASELINES_H
#define SYNTOX_BASELINES_BASELINES_H

#include "checks/CheckAnalysis.h"
#include "semantics/Analyzer.h"

#include <string>
#include <vector>

namespace syntox {

/// Which analysis configuration to run.
enum class BaselineKind {
  FullAbstractDebugging,
  ForwardOnly,
  HarrisonGfp,
  ContextInsensitive,
};

const char *baselineKindName(BaselineKind Kind);

/// Translates a baseline into analyzer options.
AnalysisOptions baselineOptions(BaselineKind Kind);

/// Measured outcome of one configuration on one program.
struct BaselineOutcome {
  BaselineKind Kind = BaselineKind::FullAbstractDebugging;
  CheckSummary Checks;
  /// Sum over all reachable points and integer variables of the count of
  /// finite interval bounds — a simple, monotone precision score (higher
  /// is tighter).
  uint64_t FiniteBounds = 0;
  /// Number of unreachable (bottom) points proved.
  uint64_t BottomPoints = 0;
  double Seconds = 0.0;
  uint64_t ControlPoints = 0;

  std::string str() const;
};

/// Runs one configuration over an already-built program CFG.
BaselineOutcome runBaseline(BaselineKind Kind, const ProgramCfg &Cfg,
                            RoutineDecl *Program);

/// Runs every configuration.
std::vector<BaselineOutcome> runAllBaselines(const ProgramCfg &Cfg,
                                             RoutineDecl *Program);

} // namespace syntox

#endif // SYNTOX_BASELINES_BASELINES_H
