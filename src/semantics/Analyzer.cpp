//===- semantics/Analyzer.cpp - The abstract debugging analyses -----------===//

#include "semantics/Analyzer.h"

#include "semantics/Liveness.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <unordered_set>

using namespace syntox;

namespace {

/// Shared helpers for the three equation systems.
struct SystemBase {
  const SuperGraph &G;
  const StoreOps &Ops;
  /// The WTO of the system's dependency digraph, owned by the Analyzer.
  const Wto &Order;
  mutable uint64_t Unions = 0;
  /// Warm-start dirty bits: per node, whether the non-graph inputs of
  /// its equation (envelope slot, seed) are unchanged since the run
  /// that recorded the warm-start memo. Empty (conservative: nothing
  /// provably unchanged) unless the Analyzer filled it in.
  std::vector<uint8_t> ExternalUnchanged;

  SystemBase(const SuperGraph &G, const StoreOps &Ops, const Wto &Order)
      : G(G), Ops(Ops), Order(Order) {}

  using Value = AbstractStore;

  unsigned numNodes() const { return G.numNodes(); }
  const Wto &wto() const { return Order; }

  bool externalInputsUnchanged(unsigned Node) const {
    return Node < ExternalUnchanged.size() && ExternalUnchanged[Node];
  }

  bool leq(const AbstractStore &A, const AbstractStore &B) const {
    return Ops.leq(A, B);
  }
  bool equal(const AbstractStore &A, const AbstractStore &B) const {
    return Ops.equal(A, B);
  }
  AbstractStore widen(const AbstractStore &A, const AbstractStore &B) const {
    return Ops.widen(A, B);
  }
  AbstractStore narrow(const AbstractStore &A, const AbstractStore &B) const {
    return Ops.narrow(A, B);
  }
};

/// Builds the forward dependency digraph: every supergraph edge, plus
/// the NodeP -> NodeQ dependency of the copy-out/channel-out transfers
/// (they read the frozen caller store at NodeP).
Digraph buildForwardDep(const SuperGraph &G) {
  std::vector<Digraph::Edge> Edges;
  Edges.reserve(2 * G.edges().size());
  for (const SuperEdge &E : G.edges()) {
    Edges.push_back({E.From, E.To});
    if (E.K == SuperEdge::Kind::CallOut ||
        E.K == SuperEdge::Kind::ChannelOut)
      Edges.push_back({G.links()[E.Link].NodeP, E.To});
  }
  return Digraph(G.numNodes(), Edges);
}

/// Backward dependency digraph: the inversion of every supergraph edge.
Digraph buildBackwardDep(const SuperGraph &G) {
  std::vector<Digraph::Edge> Edges;
  Edges.reserve(G.edges().size());
  for (const SuperEdge &E : G.edges())
    Edges.push_back({E.To, E.From});
  return Digraph(G.numNodes(), Edges);
}

/// Forward reachability: X_c = (entry seed) |_| join over incoming edges
/// of the forward transfer, met with the envelope when present.
struct ForwardSystem : SystemBase {
  const Transfer &Xfer;
  const std::vector<AbstractStore> *Envelope;
  /// Per-node live-slot masks; null = no dead-slot pruning. The
  /// restriction runs *after* the envelope meet, so requirement residue
  /// a backward phase left on dead slots never re-enters the forward
  /// values.
  const LivenessInfo *Live;
  mutable uint64_t PrunedSlots = 0;

  ForwardSystem(const SuperGraph &G, const StoreOps &Ops, const Wto &Order,
                const Transfer &Xfer,
                const std::vector<AbstractStore> *Envelope,
                const LivenessInfo *Live)
      : SystemBase(G, Ops, Order), Xfer(Xfer),
        Envelope(Envelope), Live(Live) {}

  AbstractStore initialValue(unsigned, bool) const {
    return AbstractStore::bottom();
  }

  AbstractStore evaluate(unsigned Node,
                         const std::vector<AbstractStore> &X) const {
    AbstractStore Out = Node == G.mainEntry() ? AbstractStore::top()
                                              : AbstractStore::bottom();
    for (unsigned EdgeIdx : G.inEdges(Node)) {
      const SuperEdge &E = G.edges()[EdgeIdx];
      AbstractStore V;
      switch (E.K) {
      case SuperEdge::Kind::Local:
        V = Xfer.fwd(*E.Act, X[E.From], G.instanceOf(E.From).Frame);
        break;
      case SuperEdge::Kind::CallIn:
      case SuperEdge::Kind::CallOut:
      case SuperEdge::Kind::ChannelOut:
        V = G.fwdTransfer(EdgeIdx, X);
        break;
      }
      ++Unions;
      Out = Ops.join(Out, V);
    }
    if (Envelope)
      Out = Ops.meet(Out, (*Envelope)[Node]);
    if (Live) {
      Out = Ops.restrictTo(Out, Live->maskFor(Node), Live->wordsPerNode(),
                           &PrunedSlots);
    }
    return Out;
  }
};

/// Backward systems: the inversion of the forward one. For
/// `always` (gfp) the seed is top at the program exit; for `eventually`
/// (lfp) the seeds are the intermittent assertions. In both cases
///   X_c = seed_c |_| join over outgoing edges of the backward transfer,
/// met with the envelope.
struct BackwardSystem : SystemBase {
  const Transfer &Xfer;
  const std::vector<AbstractStore> &Envelope;
  std::vector<AbstractStore> Seeds;

  BackwardSystem(const SuperGraph &G, const StoreOps &Ops, const Wto &Order,
                 const Transfer &Xfer,
                 const std::vector<AbstractStore> &Envelope)
      : SystemBase(G, Ops, Order), Xfer(Xfer), Envelope(Envelope) {
    Seeds.assign(G.numNodes(), AbstractStore::bottom());
  }

  AbstractStore initialValue(unsigned, bool FromTop) const {
    return FromTop ? AbstractStore::top() : AbstractStore::bottom();
  }

  AbstractStore evaluate(unsigned Node,
                         const std::vector<AbstractStore> &X) const {
    AbstractStore Out = Seeds[Node];
    for (unsigned EdgeIdx : G.outEdges(Node)) {
      const SuperEdge &E = G.edges()[EdgeIdx];
      AbstractStore V;
      switch (E.K) {
      case SuperEdge::Kind::Local:
        V = Xfer.bwd(*E.Act, X[E.To], G.instanceOf(E.From).Frame);
        break;
      case SuperEdge::Kind::CallIn:
      case SuperEdge::Kind::CallOut:
      case SuperEdge::Kind::ChannelOut:
        V = G.bwdTransfer(EdgeIdx, X);
        break;
      }
      ++Unions;
      Out = Ops.join(Out, V);
    }
    return Ops.meet(Out, Envelope[Node]);
  }
};

/// Callee instances whose every control point sat in a fully-replayed
/// WTO element of this solve: the round left the token's entry state
/// unchanged and reused its exit summary without evaluating a single
/// equation of the instance.
template <typename SolverT>
uint64_t countFullInstanceReplays(const SolverT &Solver,
                                  const SuperGraph &G) {
  const std::vector<uint8_t> &Replayed = Solver.fullyReplayedElements();
  if (Replayed.empty())
    return 0;
  std::vector<uint8_t> Seen(G.instances().size(), 0);
  std::vector<uint8_t> AllReplayed(G.instances().size(), 1);
  for (unsigned V = 0; V < G.numNodes(); ++V) {
    unsigned Inst = G.instanceOf(V).Id;
    Seen[Inst] = 1;
    if (!Replayed[Solver.wto().topElement(V)])
      AllReplayed[Inst] = 0;
  }
  uint64_t Count = 0;
  for (size_t I = 0; I < Seen.size(); ++I)
    Count += Seen[I] && AllReplayed[I];
  return Count;
}

} // namespace

Analyzer::Analyzer(const ProgramCfg &Cfg, RoutineDecl *Program,
                   AnalysisOptions Opts)
    : Cfg(Cfg), Program(Program), Opts(std::move(Opts)),
      Domain(this->Opts.Domain), Ops(Domain), Exprs(Ops),
      Xfer(Ops, Exprs, Cfg) {
  if (!this->Opts.WideningThresholds.empty())
    Ops.setWideningThresholds(this->Opts.WideningThresholds);
  Graph = std::make_unique<SuperGraph>(Cfg, Program, Ops, Exprs, Xfer,
                                       this->Opts.ContextInsensitive,
                                       this->Opts.Telem);
  // Both directions' equation orders depend only on the supergraph:
  // build them once, for every phase, demand cone and cache load/save.
  FwdDep = buildForwardDep(*Graph);
  BwdDep = buildBackwardDep(*Graph);
  FwdOrder = Wto(FwdDep, {Graph->mainEntry()});
  BwdOrder = Wto(BwdDep, {Graph->mainExit()});
  if (this->Opts.WarmStart)
    Graph->enableTransferMemo();
  if (this->Opts.PruneDeadSlots) {
    Live = std::make_unique<LivenessInfo>(*Graph, Cfg);
    for (unsigned I = 0; I < Graph->instances().size(); ++I)
      Graph->setAccessedKeys(I, Live->accessedShared(I));
  }
}

Analyzer::Analyzer(const ProgramCfg &Cfg, RoutineDecl *Program)
    : Analyzer(Cfg, Program, AnalysisOptions()) {}

Analyzer::~Analyzer() = default;

Analyzer::WarmSlot &Analyzer::chainSlot(PhaseSig Sig) {
  unsigned Ord = ChainOrdinal++;
  if (Ord >= ChainSlots.size())
    ChainSlots.emplace_back();
  WarmSlot &S = ChainSlots[Ord];
  if (S.Memo.Valid && S.Sig != Sig)
    S = WarmSlot(); // the saved schedule had another shape here
  if (!S.Memo.Valid) {
    // Fresh ordinal: seed from the nearest earlier slot of the same
    // system, so a later round replays against the previous round's
    // recording (COW stores make the copy cheap).
    for (unsigned I = Ord; I-- > 0;)
      if (ChainSlots[I].Memo.Valid && ChainSlots[I].Sig == Sig) {
        S = ChainSlots[I];
        break;
      }
  }
  S.Sig = Sig;
  return S;
}

bool Analyzer::hasEventuallySeeds() const {
  if (Opts.TerminationGoal)
    return true;
  for (const Instance &Inst : Graph->instances())
    if (!Inst.Cfg->intermittents().empty())
      return true;
  return false;
}

/// Phase begin/end events around a solver run, with the phase name as
/// the span label.
void Analyzer::tracePhase(bool Begin, const PhaseStats &Phase) {
  TraceRecorder *R = Opts.Telem.Trace;
  TraceEventKind K =
      Begin ? TraceEventKind::PhaseBegin : TraceEventKind::PhaseEnd;
  if (R && R->wants(K))
    R->record(K, Stats.Phases.size() - 1, 0, Phase.Name);
}

/// Folds one solver run's counters into the aggregate stats and the
/// metrics registry.
void Analyzer::accumulateSolverStats(const SolverStats &S,
                                     uint64_t SysUnions,
                                     PhaseStats &Phase) {
  Phase.WideningSteps = S.AscendingSteps;
  Phase.NarrowingSteps = S.DescendingSteps;
  Phase.ComponentSkips = S.ComponentSkips;
  Phase.SkippedSteps = S.SkippedSteps;
  Phase.StableInputSkips = S.StableInputSkips;
  Stats.Widenings += S.Widenings;
  Stats.Narrowings += S.Narrowings;
  Stats.ComponentSkips += S.ComponentSkips;
  Stats.SkippedSteps += S.SkippedSteps;
  Stats.DemandedComponents += S.DemandedComponents;
  Stats.SkippedByDemand += S.SkippedByDemand;
  Stats.SweepCapHits += S.SweepCapHits;
  Stats.StableInputSkips += S.StableInputSkips;
  Stats.Unions += SysUnions;
  if (MetricsRegistry *M = Opts.Telem.Metrics) {
    M->counter("solver.ascending_steps").inc(S.AscendingSteps);
    M->counter("solver.descending_steps").inc(S.DescendingSteps);
    M->counter("solver.widenings").inc(S.Widenings);
    M->counter("solver.narrowings").inc(S.Narrowings);
    M->counter("solver.component_skips").inc(S.ComponentSkips);
    M->counter("solver.skipped_steps").inc(S.SkippedSteps);
    M->counter("solver.stable_input_skips").inc(S.StableInputSkips);
    M->counter("solver.unions").inc(SysUnions);
    if (S.DemandedComponents + S.SkippedByDemand > 0) {
      M->counter("demand.components").inc(S.DemandedComponents);
      M->counter("demand.skipped_components").inc(S.SkippedByDemand);
    }
    // Created on the first hit only: a snapshot of a run that converged
    // everywhere has no such counter.
    if (S.SweepCapHits > 0)
      M->counter("solver.sweep_cap_hits").inc(S.SweepCapHits);
    M->histogram("phase.seconds").observe(Phase.Seconds);
    M->histogram("phase." + Phase.Name + ".seconds").observe(Phase.Seconds);
  }
}

/// Marks the nodes whose non-graph inputs match what \p Slot's recorded
/// run solved under. Payload-identity equality makes the common case —
/// an envelope slot the previous round did not refine — O(1) per node.
std::vector<uint8_t>
Analyzer::unchangedInputs(const WarmSlot &Slot,
                          const std::vector<AbstractStore> *Env,
                          const std::vector<AbstractStore> *Seeds) const {
  unsigned N = Graph->numNodes();
  std::vector<uint8_t> U(N, 0);
  if (!Slot.Memo.Valid)
    return U; // first run of the slot: nothing to compare against
  if ((Env != nullptr) != Slot.HadEnv)
    return U; // no-envelope vs. envelope run: every input is dirty
  if ((Env && Slot.Env.size() != N) || (Seeds && Slot.Seeds.size() != N))
    return U;
  for (unsigned I = 0; I < N; ++I) {
    bool Same = !Env || Ops.equal((*Env)[I], Slot.Env[I]);
    if (Same && Seeds)
      Same = Ops.equal((*Seeds)[I], Slot.Seeds[I]);
    U[I] = Same;
  }
  return U;
}

std::vector<AbstractStore>
Analyzer::solveForward(const std::vector<AbstractStore> *Env,
                       PhaseStats &Phase,
                       const std::vector<uint8_t> *Demand) {
  auto Start = std::chrono::steady_clock::now();
  tracePhase(/*Begin=*/true, Phase);
  ForwardSystem Sys(*Graph, Ops, FwdOrder, Xfer, Env,
                    Live.get());
  FixpointSolver<ForwardSystem>::Options SolverOpts;
  SolverOpts.Kind = Opts.HarrisonGfp ? FixpointKind::Gfp : FixpointKind::Lfp;
  SolverOpts.NarrowingPasses = Opts.NarrowingPasses;
  SolverOpts.Telem = Opts.Telem;
  SolverOpts.DemandNodes = Demand;
  WarmSlot *Slot = nullptr;
  if (Opts.WarmStart) {
    Slot = &chainSlot(Env ? PhaseSig::FwdEnv : PhaseSig::FwdNoEnv);
    Sys.ExternalUnchanged = unchangedInputs(*Slot, Env, nullptr);
    SolverOpts.Memo = &Slot->Memo;
  }
  FixpointSolver<ForwardSystem> Solver(Sys, SolverOpts);
  std::vector<AbstractStore> Result = Solver.solve();
  if (Slot) {
    Slot->HadEnv = Env != nullptr;
    Slot->Env = Env ? *Env : std::vector<AbstractStore>();
    if (!Demand)
      Stats.SummaryReuses += countFullInstanceReplays(Solver, *Graph);
  }
  Phase.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  accumulateSolverStats(Solver.stats(), Sys.Unions, Phase);
  if (Live) {
    uint64_t Dropped = Sys.PrunedSlots;
    PrunedSlots += Dropped;
    if (TraceRecorder *Rec = Opts.Telem.Trace;
        Rec && Rec->wants(TraceEventKind::StorePrune))
      Rec->record(TraceEventKind::StorePrune, Dropped,
                  Live->liveSlotCount(), Phase.Name);
  }
  if (Demand)
    DemandAudit.push_back({Phase.Name, *Demand, Solver.nodeLiveSteps()});
  tracePhase(/*Begin=*/false, Phase);
  return Result;
}

std::vector<AbstractStore>
Analyzer::solveBackward(bool Eventually,
                        const std::vector<AbstractStore> &Env,
                        PhaseStats &Phase,
                        const std::vector<uint8_t> *Demand) {
  auto Start = std::chrono::steady_clock::now();
  tracePhase(/*Begin=*/true, Phase);
  BackwardSystem Sys(*Graph, Ops, BwdOrder, Xfer, Env);
  if (Eventually) {
    // Seeds: the intermittent assertions (and optionally termination).
    for (const Instance &Inst : Graph->instances()) {
      for (const IntermittentAssertion &A : Inst.Cfg->intermittents()) {
        unsigned Node = Graph->node(Inst, A.Point);
        AbstractStore Seed = AbstractStore::top();
        Exprs.refineBool(A.Cond, true, Seed, Inst.Frame);
        Sys.Seeds[Node] = Ops.join(Sys.Seeds[Node], Seed);
      }
    }
    if (Opts.TerminationGoal)
      Sys.Seeds[Graph->mainExit()] = AbstractStore::top();
  } else {
    // always(Pi): output states are stable and satisfy Pi trivially.
    Sys.Seeds[Graph->mainExit()] = AbstractStore::top();
  }

  FixpointSolver<BackwardSystem>::Options SolverOpts;
  SolverOpts.Kind = Eventually ? FixpointKind::Lfp : FixpointKind::Gfp;
  SolverOpts.NarrowingPasses = Opts.NarrowingPasses;
  SolverOpts.Telem = Opts.Telem;
  SolverOpts.DemandNodes = Demand;
  WarmSlot *Slot = nullptr;
  if (Opts.WarmStart) {
    Slot = &chainSlot(Eventually ? PhaseSig::Eventually : PhaseSig::Always);
    Sys.ExternalUnchanged = unchangedInputs(*Slot, &Env, &Sys.Seeds);
    SolverOpts.Memo = &Slot->Memo;
  }
  FixpointSolver<BackwardSystem> Solver(Sys, SolverOpts);
  std::vector<AbstractStore> Result = Solver.solve();
  if (Slot) {
    Slot->HadEnv = true;
    Slot->Env = Env;
    Slot->Seeds = Sys.Seeds;
    if (!Demand)
      Stats.SummaryReuses += countFullInstanceReplays(Solver, *Graph);
  }
  Phase.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  accumulateSolverStats(Solver.stats(), Sys.Unions, Phase);
  if (Demand)
    DemandAudit.push_back({Phase.Name, *Demand, Solver.nodeLiveSteps()});
  tracePhase(/*Begin=*/false, Phase);
  return Result;
}

void Analyzer::meetInto(std::vector<AbstractStore> &Env,
                        const std::vector<AbstractStore> &Refinement) {
  for (size_t I = 0; I < Env.size(); ++I)
    Env[I] = Ops.meet(Env[I], Refinement[I]);
}

std::vector<Analyzer::PlannedPhase> Analyzer::phasePlan() const {
  std::vector<PlannedPhase> Plan;
  Plan.push_back({PhaseSig::FwdNoEnv, 0, "Forward analysis"});
  Plan.push_back({PhaseSig::FwdEnv, 0, "Forward refinement"});
  bool Backward = Opts.UseBackward && !Opts.HarrisonGfp;
  for (unsigned Round = 0; Round < Opts.BackwardRounds && Backward;
       ++Round) {
    Plan.push_back({PhaseSig::Always, Round + 1, "Invariant assertions"});
    if (hasEventuallySeeds())
      Plan.push_back(
          {PhaseSig::Eventually, Round + 1, "Intermittent assertions"});
    Plan.push_back({PhaseSig::FwdEnv, Round + 1, "Forward analysis"});
  }
  return Plan;
}

std::vector<uint8_t>
Analyzer::dependencyCone(const Digraph &Dep,
                         const std::vector<unsigned> &Query) {
  std::vector<uint8_t> In(Dep.numNodes(), 0);
  std::vector<unsigned> Work;
  for (unsigned Q : Query)
    if (Q < In.size() && !In[Q]) {
      In[Q] = 1;
      Work.push_back(Q);
    }
  while (!Work.empty()) {
    unsigned V = Work.back();
    Work.pop_back();
    for (unsigned P : Dep.preds(V))
      if (!In[P]) {
        In[P] = 1;
        Work.push_back(P);
      }
  }
  return In;
}

void Analyzer::run() { runImpl(nullptr); }

void Analyzer::runDemand(const std::vector<unsigned> &QueryNodes) {
  // One mask per planned phase, computed back-to-front: the cone of
  // phase k is everything whose value phase k+1's cone reads — its own
  // transitive dependencies under phase k's equation system, seeded by
  // the *nodes* of phase k+1's cone (envelope/seed reads are per-node).
  // Masks therefore grow monotonically backward (Masks.back() is the
  // smallest), every mask contains the query nodes, and each is closed
  // under its phase's dependency-graph predecessors — the invariant
  // Solver::Options::DemandNodes requires for exact sub-solutions.
  std::vector<PlannedPhase> Plan = phasePlan();
  std::vector<std::vector<uint8_t>> Masks(Plan.size());
  std::vector<unsigned> Want = QueryNodes;
  for (size_t I = Plan.size(); I-- > 0;) {
    const Digraph &Dep = (Plan[I].Sig == PhaseSig::Always ||
                          Plan[I].Sig == PhaseSig::Eventually)
                             ? BwdDep
                             : FwdDep;
    Masks[I] = dependencyCone(Dep, Want);
    Want.clear();
    for (unsigned V = 0; V < Masks[I].size(); ++V)
      if (Masks[I][V])
        Want.push_back(V);
  }
  runImpl(&Masks);
}

void Analyzer::runImpl(const std::vector<std::vector<uint8_t>> *Masks) {
  if (Ran)
    throw std::logic_error(
        "this analysis engine already ran; an engine runs once, so build "
        "a new one to analyze again");
  Ran = true;
  auto Start = std::chrono::steady_clock::now();
  Stats.ControlPoints = Graph->numNodes();
  Stats.Equations = Graph->numNodes();

  std::vector<PlannedPhase> Plan = phasePlan();
  for (size_t I = 0; I < Plan.size(); ++I) {
    const PlannedPhase &P = Plan[I];
    const std::vector<uint8_t> *Mask = Masks ? &(*Masks)[I] : nullptr;
    Stats.Phases.push_back(PhaseStats{P.Name, 0, 0});
    Stats.Phases.back().Round = P.Round;
    PhaseStats &Phase = Stats.Phases.back();
    switch (P.Sig) {
    case PhaseSig::FwdNoEnv:
      Forward = solveForward(nullptr, Phase, Mask);
      break;
    case PhaseSig::FwdEnv:
      if (P.Round == 0) {
        // Second ascent from bottom *inside* the first result: widening
        // at nested component heads mixes iterations of enclosing loops
        // (an outer loop's variable overshoots at an inner head, and
        // narrowing cannot descend past the first finite bound it
        // finds). Restarting within the sound envelope removes that
        // loss — this is what proves the Matrix accesses of §6.5.
        // Still pure reachability, so check elimination may rely on it.
        Forward = solveForward(&Forward, Phase, Mask);
        Envelope = Forward;
      } else {
        Envelope = solveForward(&Envelope, Phase, Mask);
      }
      break;
    case PhaseSig::Always: {
      std::vector<AbstractStore> Always =
          solveBackward(/*Eventually=*/false, Envelope, Phase, Mask);
      meetInto(Envelope, Always);
      break;
    }
    case PhaseSig::Eventually:
      Envelope =
          solveBackward(/*Eventually=*/true, Envelope, Phase, Mask);
      break;
    }
  }

  // The answerable set of a demand run is the final phase's cone (the
  // last phase is always forward, so the mask is predecessor-closed
  // under the forward dependencies the findings derivations read).
  if (Masks)
    DemandMask = Masks->back();

  Stats.BytesUsed = Graph->approximateBytes();
  // COW stores structurally share payloads across program points; count
  // each distinct payload once so Figure 4 reports the real footprint.
  std::unordered_set<const void *> SeenPayloads;
  for (const AbstractStore &S : Forward)
    Stats.BytesUsed += S.approximateBytes(SeenPayloads);
  for (const AbstractStore &S : Envelope)
    Stats.BytesUsed += S.approximateBytes(SeenPayloads);
  Stats.CpuSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  if (MetricsRegistry *M = Opts.Telem.Metrics) {
    M->gauge("graph.control_points")
        .set(static_cast<int64_t>(Stats.ControlPoints));
    M->gauge("graph.equations").set(static_cast<int64_t>(Stats.Equations));
    M->gauge("graph.instances")
        .set(static_cast<int64_t>(Graph->instances().size()));
    M->gauge("memory.bytes").set(static_cast<int64_t>(Stats.BytesUsed));
    if (Opts.WarmStart) {
      M->counter("interproc.summary_reuse").inc(Stats.SummaryReuses);
      M->counter("interproc.link_memo_hits").inc(Graph->transferMemoHits());
    }
    if (Live) {
      M->gauge("store.live_slots")
          .set(static_cast<int64_t>(Live->liveSlotCount()));
      M->counter("store.pruned_slots").inc(PrunedSlots);
    }
    M->counter("store.kernel_blocks").inc(Ops.kernelBlocks());
    M->histogram("analysis.seconds").observe(Stats.CpuSeconds);
  }
}
