//===- core/AbstractDebugger.h - Public abstract-debugging API --*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level API of the abstract debugger: load a Pascal program,
/// run the iterated forward/backward analyses, then query
///  - derived *necessary conditions of correctness* at their origin
///    (paper §2: conditions are back-propagated as far as possible and
///    reported once, e.g. "n <= 100 right after read(n)" rather than a
///    warning at every array access),
///  - possibly-violated invariant assertions,
///  - the classification of every runtime check,
///  - the abstract memory state at any statement (the paper's
///    click-on-a-statement inspector, Figure 2),
///  - the Figure 2 analysis statistics.
///
/// Querying before analyze() throws std::logic_error — it used to read
/// uninitialized state. Prefer the AnalysisSession/AnalysisResult API
/// (core/AnalysisSession.h), which makes the run/query phases explicit
/// in the types.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_CORE_ABSTRACTDEBUGGER_H
#define SYNTOX_CORE_ABSTRACTDEBUGGER_H

#include "checks/CheckAnalysis.h"
#include "frontend/Ast.h"
#include "semantics/Analyzer.h"
#include "support/Diagnostics.h"
#include "support/Json.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace syntox {

/// A derived necessary condition of correctness: unless the condition
/// holds at the given point, the program will certainly violate its
/// specification later (loop, fail a check, or miss an intermittent
/// assertion).
struct NecessaryCondition {
  SourceLoc Loc;
  std::string Var;       ///< variable the condition constrains
  std::string Condition; ///< e.g. "n in [-oo, 100]" or "b = false"
  std::string PointDesc; ///< description of the control point

  std::string str() const {
    return Loc.str() + ": necessary condition: " + Condition + " (" +
           PointDesc + ")";
  }

  /// Stable JSON rendering (schemas/findings.schema.json).
  json::Value toJson() const;
};

/// A possibly-violated user invariant assertion.
struct InvariantWarning {
  SourceLoc Loc;
  std::string Message;

  /// Stable JSON rendering (schemas/findings.schema.json).
  json::Value toJson() const;
};

/// One variable binding in a point-state query result.
struct StateBinding {
  std::string Var;
  std::string Value; ///< rendered abstract value, e.g. "[1, 100]"
};

/// The abstract memory state at one control point of one activation
/// instance — the paper's click-on-a-statement inspector, structured.
struct PointState {
  SourceLoc Loc;
  std::string Routine;   ///< routine of the containing instance
  unsigned InstanceId = 0;
  std::string PointDesc; ///< e.g. "before i := i + 1"
  bool Reachable = false;   ///< forward analysis reaches this point
  bool InEnvelope = false;  ///< reachable within the refined invariant
  /// Envelope constraints on the named program variables (analysis
  /// temporaries are omitted); unconstrained variables are absent.
  std::vector<StateBinding> Bindings;
  /// Variables whose store slot is *dead* at this point under
  /// liveness-driven pruning (--no-prune disables it): the analysis
  /// never tracked them here, so they read as top regardless of any
  /// value the unpruned analysis would have shown. JSON: "pruned".
  std::vector<std::string> PrunedVars;

  json::Value toJson() const;
};

/// What a demand-driven analysis is asked about: the abstract state at
/// one source point, or the verdict of one runtime check. The demand
/// cone — the set of control points actually solved — is derived from
/// the spec.
struct DemandSpec {
  enum class Kind { Point, Check };
  Kind K = Kind::Point;
  SourceLoc Loc;        ///< Kind::Point: the queried source location
  unsigned CheckId = 0; ///< Kind::Check: id in the program's check table

  static DemandSpec point(SourceLoc Loc) {
    DemandSpec S;
    S.K = Kind::Point;
    S.Loc = Loc;
    return S;
  }
  static DemandSpec check(unsigned Id) {
    DemandSpec S;
    S.K = Kind::Check;
    S.CheckId = Id;
    return S;
  }
};

class AbstractDebugger {
public:
  /// Historical spelling of the shared options struct. The old nested
  /// `Options::Analysis` member is gone: what used to be
  /// `Opts.Analysis.Domain` is now just `Opts.Domain`.
  using Options = AnalysisOptions;

  /// Parses, checks, lowers and prepares \p Source. Returns null (with
  /// diagnostics in \p Diags) when the program has frontend errors.
  static std::unique_ptr<AbstractDebugger>
  create(const std::string &Source, DiagnosticsEngine &Diags,
         Options Opts = Options());

  ~AbstractDebugger();

  /// Runs the analysis schedule; must be called before the queries.
  /// May be called again: a re-analysis warm-starts from the previous
  /// run's recordings (unless WarmStart is off) and produces identical
  /// results.
  void analyze();

  /// Whether analyze() has completed (the queries below require it).
  bool analyzed() const { return Analyzed; }

  /// \name Demand-driven queries
  /// Solves only the backward dependency cone of one query instead of
  /// the whole program: the same refinement-chain schedule as
  /// analyze(), restricted per phase to the cone, with out-of-cone
  /// components replayed from warm memos (or the on-disk cache) at
  /// zero live solver steps. Answers at in-cone points are
  /// bitwise-identical to a full analyze(); queries outside the solved
  /// cone are refused (std::out_of_range), never answered wrongly.
  /// @{

  /// Runs the cone-restricted analysis for \p Spec. Composes with
  /// WarmStart exactly like analyze() — a warm chain (in-memory, or
  /// one the session layer loaded from the on-disk cache) replays
  /// everything outside the cone — but never writes back (the chain
  /// slots and the on-disk cache only ever hold full recordings).
  /// Throws std::logic_error on a debugger that already ran a full
  /// analyze() (the demand run would overwrite its published
  /// results); std::out_of_range for an unknown check id. May be
  /// called repeatedly with different specs.
  void analyzeDemand(const DemandSpec &Spec);

  /// Whether analyzeDemand() has completed (the demand queries below
  /// require it).
  bool demandAnalyzed() const { return DemandAnalyzed; }

  /// The abstract state at every control point matching \p Loc, like
  /// stateAt(), but answered from the demand run. Throws
  /// std::logic_error before analyzeDemand(), and std::out_of_range
  /// when any matching point lies outside the solved cone.
  std::vector<PointState> demandStateAt(SourceLoc Loc) const;

  /// True when every control point matching \p Loc is inside the
  /// solved cone, i.e. demandStateAt(Loc) will answer.
  bool demandCovers(SourceLoc Loc) const;

  /// The classification of runtime check \p CheckId from the demand
  /// run. Throws std::logic_error before analyzeDemand(), and
  /// std::out_of_range when the check's sites are outside the cone.
  CheckResult demandCheck(unsigned CheckId) const;

  /// Necessary conditions derived inside the solved cone. At in-cone
  /// points these equal the full-analysis conditions; conditions whose
  /// origin lies outside the cone are absent.
  const std::vector<NecessaryCondition> &demandConditions() const {
    requireDemandAnalyzed("demandConditions()");
    return Conditions;
  }

  /// Invariant warnings derived inside the solved cone (same caveat as
  /// demandConditions()).
  const std::vector<InvariantWarning> &demandInvariantWarnings() const {
    requireDemandAnalyzed("demandInvariantWarnings()");
    return InvariantWarnings;
  }

  /// @}

  /// The whole-program verdict: false when the analysis proved that *no*
  /// input can satisfy the specification (envelope empty at entry).
  bool someExecutionMaySatisfySpec() const;

  /// Derived necessary conditions at their origin points.
  const std::vector<NecessaryCondition> &conditions() const {
    requireAnalyzed("conditions()");
    return Conditions;
  }

  /// Invariant assertions the forward analysis could not discharge.
  const std::vector<InvariantWarning> &invariantWarnings() const {
    requireAnalyzed("invariantWarnings()");
    return InvariantWarnings;
  }

  /// Classification of every runtime check.
  const CheckAnalysis &checks() const {
    requireAnalyzed("checks()");
    return *Checks;
  }

  /// The abstract state at every control point whose source location
  /// matches \p Loc — all activation instances, main and callees. A
  /// zero column matches the whole line. Empty when no point matches.
  std::vector<PointState> stateAt(SourceLoc Loc) const;

  /// Structured form of the whole-program statement inspector: the
  /// abstract state at every control point of the main routine whose
  /// description contains \p DescFilter (empty = all points).
  std::vector<PointState>
  mainStates(const std::string &DescFilter = "") const;

  /// Figure 2 statistics (of the full or the demand run, whichever
  /// completed).
  const AnalysisStats &stats() const {
    if (!Analyzed)
      requireDemandAnalyzed("stats()");
    return An->stats();
  }

  RoutineDecl *program() const { return Program; }
  const Analyzer &analyzer() const { return *An; }
  const ProgramCfg &cfg() const { return *Cfg; }
  AstContext &context() { return *Ctx; }

private:
  AbstractDebugger() = default;
  /// \p Cone restricts derivation to in-cone nodes (demand runs; null
  /// = all nodes). The cone is predecessor-closed over the forward
  /// dependencies, so every value the frontier tests read is in-cone.
  void deriveConditions(const std::vector<uint8_t> *Cone = nullptr);
  void deriveInvariantWarnings(const std::vector<uint8_t> *Cone = nullptr);
  /// Throws std::logic_error mentioning \p Query when analyze() has not
  /// completed (such reads returned garbage before this guard existed).
  void requireAnalyzed(const char *Query) const;
  /// Same contract for the demand-query entry points: pre-run queries
  /// throw std::logic_error, exactly like the full-analysis queries.
  void requireDemandAnalyzed(const char *Query) const;

  /// The session layer owns the persistent-cache composition (loading
  /// warm state into the analyzer before a run, saving it after) and
  /// needs mutable engine access for it; everyone else goes through the
  /// const surface above.
  friend class AnalysisSession;

  std::unique_ptr<AstContext> Ctx;
  std::unique_ptr<ProgramCfg> Cfg;
  std::unique_ptr<Analyzer> An;
  std::unique_ptr<CheckAnalysis> Checks;
  RoutineDecl *Program = nullptr;
  Options Opts;
  bool Analyzed = false;
  bool DemandAnalyzed = false;
  std::vector<NecessaryCondition> Conditions;
  std::vector<InvariantWarning> InvariantWarnings;
};

} // namespace syntox

#endif // SYNTOX_CORE_ABSTRACTDEBUGGER_H
