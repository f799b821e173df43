//===- semantics/Analyzer.h - The abstract debugging analyses ---*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static-debugging engine of paper §3/§4: an iterated sequence of
///  1. a *forward* least-fixpoint analysis of the reachable states,
///  2. a *backward* greatest-fixpoint analysis of `always(Pi_a)` — the
///     states whose descendants keep satisfying the invariant assertions
///     and the runtime checks,
///  3. a *backward* least-fixpoint analysis of `eventually(Pi_e)` — the
///     states with a descendant satisfying some intermittent assertion,
///  4. a final forward pass inside the refined invariant,
/// each phase computed inside the *envelope* produced by the previous
/// ones (the decreasing chain I_k of §3). The default schedule matches
/// Syntox §6.4: forward, two backward analyses, final forward.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_SEMANTICS_ANALYZER_H
#define SYNTOX_SEMANTICS_ANALYZER_H

#include "fixpoint/Solver.h"
#include "semantics/AnalysisOptions.h"
#include "semantics/Interproc.h"
#include "support/Stats.h"

#include <memory>

namespace syntox {

class LivenessInfo;

/// An Analyzer is single-use: it runs run() or runDemand() once, and a
/// second run of either kind throws std::logic_error without touching
/// the first run's results. Recorded warm-start state reaches another
/// solve only through importChainSlots() (the on-disk cache).
class Analyzer {
public:
  Analyzer(const ProgramCfg &Cfg, RoutineDecl *Program, AnalysisOptions Opts);
  Analyzer(const ProgramCfg &Cfg, RoutineDecl *Program);
  ~Analyzer();

  /// Runs the full analysis schedule.
  void run();

  /// Demand-driven solve: runs the same refinement-chain schedule as
  /// run(), but restricts every phase to the backward dependency cone
  /// of \p QueryNodes — the phase masks are computed back-to-front
  /// (each phase must deliver correct values wherever the next phase's
  /// cone reads its envelope/seeds, and those reads are per-node), so
  /// the values at every node of demandMask() are bitwise-identical to
  /// a full run() while out-of-cone components perform zero live
  /// evaluations. The run replays from and records into the engine's
  /// chain like run(), so a later round replays the earlier round's
  /// cone; nothing replays the cone-partial recordings afterwards (the
  /// engine cannot run again, and demand runs are never saved).
  /// Results outside demandMask() are unspecified and must not be read.
  void runDemand(const std::vector<unsigned> &QueryNodes);

  /// After runDemand(): the per-node answerable mask (the final
  /// phase's cone). Empty after a full run(), where every node is
  /// answerable.
  const std::vector<uint8_t> &demandMask() const { return DemandMask; }

  /// Audit record of one phase of a demand-driven run: the cone the
  /// phase was restricted to, and the per-node live evaluation counts
  /// its solver performed. Tests assert the zero-out-of-cone-steps
  /// guarantee directly from this.
  struct DemandPhaseAudit {
    std::string Phase;
    std::vector<uint8_t> Mask;
    std::vector<uint64_t> NodeLiveSteps;
  };
  const std::vector<DemandPhaseAudit> &demandAudit() const {
    return DemandAudit;
  }

  /// Predecessor closure of \p Query in \p Dep: the nodes whose values
  /// the queried equations transitively depend on. The cone primitive
  /// behind runDemand(), exposed for direct unit testing on hand-built
  /// dependency digraphs.
  static std::vector<uint8_t> dependencyCone(const Digraph &Dep,
                                             const std::vector<unsigned> &Query);

  /// The equation-system signature of one slot of the refinement chain.
  /// Replay is only exact against a run of the same system, so each
  /// chain slot remembers which system recorded it and resets when the
  /// schedule changes shape under its ordinal.
  enum class PhaseSig : uint8_t { FwdNoEnv, FwdEnv, Always, Eventually };

  /// One phase of the refinement-chain schedule, computable *before*
  /// solving: run() and runDemand() both execute exactly this plan, so
  /// demand masks derived from it line up with the executed phases by
  /// construction.
  struct PlannedPhase {
    PhaseSig Sig;
    unsigned Round;   ///< 0 for the initial forward passes
    const char *Name; ///< PhaseStats display name
  };

  /// The schedule run()/runDemand() executes, from the options and the
  /// program's assertion structure.
  std::vector<PlannedPhase> phasePlan() const;

  /// Warm-start state for one slot of the refinement chain: the memo
  /// the solver records/replays, plus the external inputs the recorded
  /// run solved under (to mark the nodes whose inputs changed since).
  /// One slot exists per *phase ordinal* of the chain (F0, F1, A1, E1,
  /// F2, ... in execution order), so a run warm-started from the cache
  /// replays each phase against the same phase of the saved run —
  /// including the envelope-free initial forward pass, which a shared
  /// slot would poison with the final pass's envelope.
  struct WarmSlot {
    WarmStartMemo<AbstractStore> Memo;
    PhaseSig Sig = PhaseSig::FwdNoEnv;
    bool HadEnv = false; ///< the recorded run solved inside an envelope
    std::vector<AbstractStore> Env;   ///< envelope of the recorded run
    std::vector<AbstractStore> Seeds; ///< seeds of the recorded run
  };

  const SuperGraph &graph() const { return *Graph; }
  const AnalysisOptions &options() const { return Opts; }
  const StoreOps &storeOps() const { return Ops; }
  const ExprSemantics &exprSemantics() const { return Exprs; }
  /// The registered runtime checks (shared with the ProgramCfg).
  const std::vector<CheckInfo> &checkTable() const { return Cfg.checks(); }

  /// The initial forward analysis result (pure reachability; the sound
  /// basis for check elimination).
  const AbstractStore &forwardAt(unsigned Node) const {
    return Forward[Node];
  }
  /// The final program invariant I (forward meet backward refinements).
  const AbstractStore &envelopeAt(unsigned Node) const {
    return Envelope[Node];
  }

  const AnalysisStats &stats() const { return Stats; }

  /// The live-slot masks driving dead-slot pruning, or null when
  /// pruning is off (--no-prune). UI layers use this to tell a
  /// genuinely-top variable from a pruned one.
  const LivenessInfo *liveness() const { return Live.get(); }
  /// Slots dropped by store restriction during the run.
  uint64_t prunedSlots() const { return PrunedSlots; }

  /// \name Warm-start state access (persistence)
  /// @{
  /// The chain slots in phase-ordinal order, as recorded by the run.
  /// Empty before a warm-started run.
  const std::vector<WarmSlot> &chainSlots() const { return ChainSlots; }
  /// Installs externally restored chain slots (loaded from the on-disk
  /// cache, which holds them only for this very program) before the
  /// run. The solver re-validates every memo header and every replayed
  /// element's inputs, so a stale import degrades to cold solving,
  /// never to wrong results.
  void importChainSlots(std::vector<WarmSlot> Slots) {
    ChainSlots = std::move(Slots);
  }
  /// The forward / backward dependency digraphs and their WTOs (rooted
  /// at the main entry / exit). Built once at construction, these are
  /// the very objects every phase's solver iterates, so the demand
  /// cones and the persisted element rows indexed by them describe
  /// exactly the solved systems.
  const Digraph &forwardDependencies() const { return FwdDep; }
  const Digraph &backwardDependencies() const { return BwdDep; }
  const Wto &forwardOrder() const { return FwdOrder; }
  const Wto &backwardOrder() const { return BwdOrder; }
  /// Always false: the transfer cache is gone. Kept only because
  /// perfbench_traced calls it; it goes with the next benchmark change
  /// (ROADMAP.md, "For the next benchmark change").
  bool transferCacheEnabled() const { return false; }
  /// @}

private:
  /// Claims the next chain slot of the run and tags it \p Sig. An
  /// imported slot whose recorded signature differs is reset (the saved
  /// schedule had another shape under its ordinal); a fresh slot is
  /// seeded with a copy of the nearest earlier same-signature slot, so
  /// within the run round k+1 replays against round k.
  WarmSlot &chainSlot(PhaseSig Sig);

  /// Executes the phase plan; \p Masks (one per planned phase) restricts
  /// each phase to its demand cone, null = full run.
  void runImpl(const std::vector<std::vector<uint8_t>> *Masks);

  std::vector<AbstractStore> solveForward(
      const std::vector<AbstractStore> *Env, PhaseStats &Phase,
      const std::vector<uint8_t> *Demand = nullptr);
  std::vector<AbstractStore> solveBackward(
      bool Eventually, const std::vector<AbstractStore> &Env,
      PhaseStats &Phase, const std::vector<uint8_t> *Demand = nullptr);
  bool hasEventuallySeeds() const;
  void meetInto(std::vector<AbstractStore> &Env,
                const std::vector<AbstractStore> &Refinement);
  void tracePhase(bool Begin, const PhaseStats &Phase);
  void accumulateSolverStats(const SolverStats &S, uint64_t SysUnions,
                             PhaseStats &Phase);
  std::vector<uint8_t> unchangedInputs(
      const WarmSlot &Slot, const std::vector<AbstractStore> *Env,
      const std::vector<AbstractStore> *Seeds) const;

  const ProgramCfg &Cfg;
  RoutineDecl *Program;
  AnalysisOptions Opts;
  ValueDomain Domain;
  StoreOps Ops;
  ExprSemantics Exprs;
  Transfer Xfer;
  std::unique_ptr<SuperGraph> Graph;
  Digraph FwdDep, BwdDep;
  Wto FwdOrder, BwdOrder;
  std::unique_ptr<LivenessInfo> Live;
  uint64_t PrunedSlots = 0;
  std::vector<AbstractStore> Forward;
  std::vector<AbstractStore> Envelope;
  AnalysisStats Stats;
  /// Set when run() or runDemand() starts: the engine runs once.
  bool Ran = false;
  /// One warm slot per phase ordinal of the refinement chain (importable
  /// from the persistent cache).
  std::vector<WarmSlot> ChainSlots;
  /// Ordinal of the next phase of the run.
  unsigned ChainOrdinal = 0;
  /// Answerable mask of a runDemand(); empty after a full run().
  std::vector<uint8_t> DemandMask;
  /// Per-phase audit of a runDemand(); empty after a full run().
  std::vector<DemandPhaseAudit> DemandAudit;
};

} // namespace syntox

#endif // SYNTOX_SEMANTICS_ANALYZER_H
