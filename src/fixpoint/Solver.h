//===- fixpoint/Solver.h - Chaotic iteration with widening ------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A generic equation-system solver implementing the fixpoint machinery
/// of paper §4:
///  - least fixpoints: an ascending *widening phase* from bottom followed
///    by a descending *narrowing phase* (a configurable number of
///    passes),
///  - greatest fixpoints: a single narrowing phase starting from top.
///
/// Every phase iterates with the *recursive* strategy of the companion
/// FMPA'93 paper (paper §6.3): each WTO component is stabilized before
/// the iteration leaves it. Widening/narrowing is applied at the WTO
/// component heads, which cut every dependency cycle.
///
/// The System type parameter supplies the lattice and the equations:
///
///   struct System {
///     using Value = ...;
///     unsigned numNodes() const;
///     const Wto &wto() const;                // WTO of the dependencies
///     Value initialValue(unsigned Node, bool FromTop) const;
///     // Evaluate the RHS of equation Node given current values. It
///     // may read X only at wto().preds(Node), plus inputs that stay
///     // fixed for the solve (the skip rule below relies on this).
///     Value evaluate(unsigned Node, const std::vector<Value> &X) const;
///     bool leq(const Value &A, const Value &B) const;
///     bool equal(const Value &A, const Value &B) const;
///     Value widen(const Value &A, const Value &B) const;
///     Value narrow(const Value &A, const Value &B) const;
///   };
///
/// Warm starts. A refinement chain re-solves the same equation system
/// with slightly different external inputs (envelope slots, seeds).
/// Passing a caller-owned WarmStartMemo through Options::Memo makes the
/// solver (a) record its per-sweep trajectory into the memo and (b) on
/// the next run, *replay* every top-level WTO element whose inputs
/// provably match the recording — the element's values are copied from
/// the memo instead of re-iterated, which is exact (not merely sound):
/// the element's stabilization is a deterministic function of its
/// external feeder values, its seed/envelope slice and its start state,
/// and all three are verified equal before a replay. Systems with
/// inputs that are not values of other nodes additionally implement
///
///   // True when Node's non-graph inputs (envelope slot, seed) are
///   // unchanged since the run that recorded the memo.
///   bool externalInputsUnchanged(unsigned Node) const;
///
/// (detected at compile time; absent means "always unchanged", which is
/// correct for closed systems whose equations read only other nodes).
///
/// The WTO, and with it the per-element member and feeder tables the
/// warm and demand schedules use and the per-vertex predecessor and
/// per-component input tables the skip rules read, comes from the
/// system: its owner builds it once per dependency graph and every solve
/// of the system iterates the same order.
///
/// Stable-input skips. The recursive strategy re-runs a component's
/// whole body each time its head iterates, and most of those
/// evaluations would recompute the value already stored. The solver
/// keeps two epochs per node — when its value last changed, and when
/// its equation was last evaluated — and skips a plain (non-head) WTO
/// vertex that was evaluated earlier in this solve when none of its
/// predecessors (Wto::preds) changed since. The skip is exact, not an
/// approximation: evaluate() reads only X at preds(Node) plus inputs
/// that are fixed for the solve (envelope, seeds), so with equal inputs
/// it returns a value equal to the one stored, which the iteration
/// would have kept. That holds because every write to X that is not
/// the stored result of evaluate() stamps the node as changed: a
/// widening or narrowing at a head, and a leaf restart or a memo
/// replay — the last two also forget the node's evaluation, since the
/// value they write is not evaluate() of its current predecessors.
///
/// The same rule covers whole components. When an enclosing head
/// iterates, the solver re-enters each nested component; it skips the
/// component when the component stabilized earlier in the same phase
/// and none of its external inputs (Wto::componentInputs, the vertices
/// outside it that feed a member) changed since. The ascent and the
/// descent are different phases (the marks are cleared in between);
/// the descending sweeps share one set of marks, and a memo replay
/// clears the marks of every component it writes. Why a skip is exact:
///  - Nothing but a replay or the component's own iteration writes its
///    members, and every input of a member comes from the component or
///    from its external inputs. So at re-entry the members hold the
///    values they stabilized to, fed by the same inputs.
///  - Ascent, leaf component: re-entry restarts it from bottom, and the
///    same inputs replay the same trajectory to the same values, with
///    the same steps and widenings (recorded when it last ran).
///  - Ascent, other component: its last pass left every body vertex
///    evaluated on its current inputs (they all precede it in the
///    order) and the head's check satisfied, so re-entry is one pass:
///    the head and each plain body vertex once, each nested component
///    at its own re-entry cost, and the same check ends it.
///  - Descent: the last sweep of a stabilized component changed
///    nothing, so re-entry is one sweep that changes nothing: every
///    member evaluates once and every head narrows once. (A loop cut
///    off by its sweep cap is not marked stable.)
///
/// Component heads that run always evaluate, so widening and narrowing
/// see exactly the sequences of an always-evaluating iteration. A
/// skipped evaluation, and every step a skipped component's re-entry
/// would have scheduled, still counts as a scheduled step
/// (AscendingSteps, DescendingSteps, the memo's ElemSteps: Figure 2's
/// iteration counts), and the widenings or narrowings of a skipped
/// component are counted too; the steps are reported separately as
/// SolverStats::StableInputSkips. nodeLiveSteps() counts single-vertex
/// skips but not the members of a component skipped whole, and a
/// skipped component emits no trace events.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_FIXPOINT_SOLVER_H
#define SYNTOX_FIXPOINT_SOLVER_H

#include "fixpoint/Wto.h"
#include "support/Telemetry.h"

#include <cstdint>
#include <type_traits>
#include <vector>

namespace syntox {

/// Which fixpoint to approximate.
enum class FixpointKind {
  /// Least fixpoint: ascending widening phase from bottom, then
  /// descending narrowing passes.
  Lfp,
  /// Greatest fixpoint: single descending narrowing phase from top
  /// (paper §4).
  Gfp,
};

/// The Gfp descending loop's safety net: a Gfp solve runs at most this
/// many sweeps, so its memo holds at most this many boundaries.
inline constexpr unsigned MaxGfpSweeps = 1000;

/// Counters reported by one solver run.
struct SolverStats {
  uint64_t AscendingSteps = 0;  ///< equation evaluations while ascending
  uint64_t DescendingSteps = 0; ///< equation evaluations while descending
  uint64_t Widenings = 0;
  uint64_t Narrowings = 0;
  /// Stable top-level WTO elements replayed from the warm-start memo
  /// instead of re-iterated (one count per element per sweep).
  uint64_t ComponentSkips = 0;
  /// Equation evaluations those replays avoided: the cost the run that
  /// recorded the memo spent on the replayed elements.
  uint64_t SkippedSteps = 0;
  /// Top-level WTO elements scheduled under the demand mask (demand
  /// solves only; 0 on a full solve).
  uint64_t DemandedComponents = 0;
  /// Top-level WTO elements outside the demand cone, excluded from the
  /// schedule entirely — they perform zero live evaluations.
  uint64_t SkippedByDemand = 0;
  /// Descending loops cut off by a safety-net bound while still
  /// changing: a component loop at MaxComponentSweeps, or the Gfp loop
  /// at MaxGfpSweeps. Each hit leaves a truncated, unproven iterate.
  uint64_t SweepCapHits = 0;
  /// Scheduled steps (counted in AscendingSteps/DescendingSteps) whose
  /// evaluation was skipped because no input changed since: of a plain
  /// vertex, or of a whole component (see the file comment).
  uint64_t StableInputSkips = 0;
};

/// Cross-run memo connecting consecutive solver runs of one slot of a
/// refinement chain (see the file comment). Owned by the caller and
/// reused across rounds; a run with Options::Memo set replays whatever
/// the previous contents allow and then overwrites them with its own
/// trajectory.
template <typename ValueT> struct WarmStartMemo {
  bool Valid = false; ///< a completed run recorded the fields below
  FixpointKind Kind = FixpointKind::Lfp;
  unsigned NumNodes = 0;
  /// Full solution snapshot at each sweep boundary, in sweep order: for
  /// Lfp, snapshot 0 is the post-ascending state and the rest follow
  /// the descending passes; for Gfp every snapshot is one descending
  /// sweep. Copy-on-write values make a snapshot O(numNodes) pointer
  /// copies, not a deep copy.
  std::vector<std::vector<ValueT>> Boundaries;
  /// Per boundary, per top-level WTO element: whether the element
  /// changed during that sweep. Replayed elements contribute this flag
  /// to the descending convergence test, so a warm run performs exactly
  /// the sweeps the cold run would. (Ascending sweeps record 1; the
  /// flag is unused there.)
  std::vector<std::vector<uint8_t>> ElemChanged;
  /// Per boundary, per element: equation evaluations the recorded run
  /// spent on it (reported as SkippedSteps when replayed).
  std::vector<std::vector<uint64_t>> ElemSteps;
};

namespace solver_detail {
/// Detects the optional System::externalInputsUnchanged(unsigned).
template <typename S, typename = void>
struct HasExternalInputs : std::false_type {};
template <typename S>
struct HasExternalInputs<
    S, std::void_t<decltype(static_cast<bool>(
           std::declval<const S &>().externalInputsUnchanged(0u)))>>
    : std::true_type {};

} // namespace solver_detail

template <typename System> class FixpointSolver {
public:
  using Value = typename System::Value;

  struct Options {
    FixpointKind Kind = FixpointKind::Lfp;
    /// Descending passes after the ascending phase (Lfp only). The
    /// paper's Syntox runs one narrowing phase per analysis.
    unsigned NarrowingPasses = 1;
    /// Optional trace/metrics sinks; every hook is a null-pointer check
    /// when absent.
    Telemetry Telem;
    /// Caller-owned warm-start memo (see the file comment). When set,
    /// the run replays provably-stable top-level WTO elements from it
    /// and then overwrites it with this run's trajectory. Null = cold
    /// solve, bit-for-bit the pre-warm-start behavior.
    WarmStartMemo<typename System::Value> *Memo = nullptr;
    /// Demand-driven solve: per-node mask (numNodes() entries, 1 =
    /// demanded). Top-level WTO elements containing no demanded node
    /// are excluded from the schedule — never evaluated, never
    /// activated — and keep their initial values. The mask must be
    /// closed under graph predecessors; closure makes
    /// every feeder of a demanded element demanded itself, so the
    /// demanded sub-solution is bitwise-identical to the same nodes of
    /// a full solve. Null = full solve.
    const std::vector<uint8_t> *DemandNodes = nullptr;
  };

  FixpointSolver(const System &Sys, Options Opts)
      : Sys(Sys), Opts(Opts), Order(Sys.wto()), Trace(Opts.Telem.Trace),
        NumElems(static_cast<unsigned>(Order.elements().size())) {}

  /// Runs the solver and returns the per-node solution.
  std::vector<Value> solve() {
    unsigned N = Sys.numNodes();
    X.clear();
    X.reserve(N);
    bool FromTop = Opts.Kind == FixpointKind::Gfp;
    for (unsigned Node = 0; Node < N; ++Node)
      X.push_back(Sys.initialValue(Node, FromTop));

    NodeSteps.assign(N, 0);
    ChangedAt.assign(N, 0);
    EvaluatedAt.assign(N, 0);
    Marks.assign(Order.numComponents(), ComponentMark());
    Clock = 0;
    prepareWarm();
    prepareDemand();

    if (Opts.Kind == FixpointKind::Lfp) {
      ascend();
      // A component's ascent and descent are different iterations: the
      // descent starts with no component known stable.
      for (ComponentMark &M : Marks)
        M.StableAt = 0;
      for (unsigned Pass = 0; Pass < Opts.NarrowingPasses; ++Pass)
        if (!descend())
          break;
    } else {
      // Gfp: descending narrowing iterations until stable. The sweep
      // bound is a safety net; narrowing at the heads makes the chain
      // finite in practice long before it triggers.
      unsigned Sweep = 0;
      while (Sweep < MaxGfpSweeps && descend())
        ++Sweep;
      if (Sweep == MaxGfpSweeps)
        ++Stats.SweepCapHits;
    }
    finishWarm();
    return X;
  }

  const SolverStats &stats() const { return Stats; }
  const Wto &wto() const { return Order; }

  /// Per top-level WTO element (in WTO order): 1 when every sweep of
  /// this run replayed the element from the memo — none of its
  /// equations were re-evaluated. Empty when no memo was passed;
  /// all-zero on the run that records a memo for the first time. The
  /// element's head vertex is wto().elements()[i].Vertex.
  const std::vector<uint8_t> &fullyReplayedElements() const {
    return FullyReplayed;
  }

  /// Per node: equation evaluations this run scheduled on it, the
  /// stable-input skips of single vertices included (replays, demand
  /// skips and components skipped whole contribute nothing). The audit
  /// trail behind the demand-mode guarantee that out-of-cone nodes run
  /// zero live steps.
  const std::vector<uint64_t> &nodeLiveSteps() const { return NodeSteps; }

private:
  //===--------------------------------------------------------------------===//
  // Warm start: exact replay of stable top-level elements
  //===--------------------------------------------------------------------===//
  //
  // Top-level WTO elements only depend on *earlier* top-level elements
  // (every cycle is inside one component, and the WTO orders the rest
  // topologically), so the values an element stabilizes to are a
  // deterministic function of three inputs: the final values of its
  // external feeder nodes for the current sweep, its non-graph inputs
  // (envelope slot, seeds), and its own start values. When all three
  // are verified equal to what the recorded run saw at the same sweep
  // boundary, copying the recorded values *is* the cold computation —
  // the replay is exact by induction over WTO order and sweeps, not an
  // approximation. Anything unverifiable is solved cold, so a warm run
  // and a cold run produce identical solutions (and identical sweep
  // counts, since replayed elements re-emit their recorded change
  // flags).

  bool nodeInputsUnchanged(unsigned V) const {
    if constexpr (solver_detail::HasExternalInputs<System>::value)
      return Sys.externalInputsUnchanged(V);
    else
      return true;
  }

  void prepareWarm() {
    if (!Opts.Memo)
      return;
    Recording = true;
    unsigned N = Sys.numNodes();
    SeedClean.assign(NumElems, 1);
    for (unsigned E = 0; E < NumElems; ++E)
      for (unsigned V : Order.members(E))
        if (!nodeInputsUnchanged(V)) {
          SeedClean[E] = 0;
          break;
        }
    const WarmStartMemo<Value> &M = *Opts.Memo;
    WarmReplay = M.Valid && M.Kind == Opts.Kind && M.NumNodes == N &&
                 !M.Boundaries.empty() &&
                 M.ElemChanged.size() == M.Boundaries.size() &&
                 M.ElemSteps.size() == M.Boundaries.size() &&
                 M.ElemChanged.front().size() == NumElems;
    // Matched[e]: the element's current values equal the recorded
    // snapshot of the boundary last processed. True initially: both
    // runs start from the same initialValue() state.
    Matched.assign(NumElems, 1);
    FullyReplayed.assign(NumElems, WarmReplay ? 1 : 0);
    CurBoundary = 0;
    NewMemo = WarmStartMemo<Value>();
    NewMemo.Kind = Opts.Kind;
    NewMemo.NumNodes = N;
  }

  void finishWarm() {
    if (!Recording)
      return;
    // A demand-restricted run's recording describes a partial schedule
    // (genuine rows for scheduled elements, placeholder rows elsewhere),
    // so only a solve whose cone lies inside the recorded one may
    // replay it. Single-use analyzers keep that invariant: a demand
    // run's chain serves only its own later rounds (whose cones shrink
    // along the plan), the engine cannot run again, and demand runs are
    // never saved.
    NewMemo.Valid = true;
    *Opts.Memo = std::move(NewMemo);
  }

  //===--------------------------------------------------------------------===//
  // Demand-driven scheduling: cone-restricted solves
  //===--------------------------------------------------------------------===//
  //
  // The demand mask is closed under graph predecessors, and a top-level
  // WTO component is a strongly connected set of its cyclic dependency
  // structure: one demanded member node therefore implies every member
  // is demanded (each member reaches the demanded one, so the closure
  // pulls the whole component in). Element-level demand flags are thus
  // exact, every feeder of a demanded element lives in a demanded
  // element, and the restricted iteration reads only values the full
  // schedule would produce identically — the demanded sub-solution is
  // bitwise-equal to the full solve by the same induction that makes
  // warm replay exact. Skipped elements are never evaluated and keep
  // their initial values: demand callers must not read out-of-cone
  // results, and the analyzer's query layer refuses to answer there.

  void prepareDemand() {
    if (!Opts.DemandNodes)
      return;
    unsigned N = Sys.numNodes();
    const std::vector<uint8_t> &D = *Opts.DemandNodes;
    ElemDemanded.assign(NumElems, 0);
    for (unsigned V = 0; V < N && V < D.size(); ++V)
      if (D[V])
        ElemDemanded[Order.topElement(V)] = 1;
    for (unsigned E = 0; E < NumElems; ++E) {
      if (ElemDemanded[E]) {
        ++Stats.DemandedComponents;
        continue;
      }
      ++Stats.SkippedByDemand;
      if (!FullyReplayed.empty())
        FullyReplayed[E] = 0; // excluded, not replayed
      traceEvent(Trace, TraceEventKind::DemandSkip,
                 Order.elements()[E].Vertex);
    }
  }

  /// Whether top-level element \p E is scheduled (always true on a full
  /// solve).
  bool elemDemanded(unsigned E) const {
    return ElemDemanded.empty() || ElemDemanded[E] != 0;
  }

  void beginSweep() {
    if (!Recording)
      return;
    SweepChangedBuf.assign(NumElems, 0);
    SweepStepsBuf.assign(NumElems, 0);
  }

  void endSweep() {
    if (!Recording)
      return;
    NewMemo.Boundaries.push_back(X);
    NewMemo.ElemChanged.push_back(SweepChangedBuf);
    NewMemo.ElemSteps.push_back(SweepStepsBuf);
    ++CurBoundary;
  }

  /// Whether element \p E of the current sweep can be replayed from the
  /// memo. Checked *before* the element runs: feeder elements have
  /// already been processed this sweep (they precede E in WTO order), so
  /// their Matched flags are current, while Matched[E] still describes the
  /// previous boundary — exactly the element's start state.
  bool canReplay(unsigned E) const {
    if (!WarmReplay || CurBoundary >= Opts.Memo->Boundaries.size())
      return false;
    if (!SeedClean[E] || (CurBoundary > 0 && !Matched[E]))
      return false;
    const std::vector<Value> &B = Opts.Memo->Boundaries[CurBoundary];
    // External feeders live in strictly earlier top-level elements, so
    // their values are final for the current sweep by now.
    for (unsigned U : Order.feeders(E))
      if (!Matched[Order.topElement(U)] && !Sys.equal(X[U], B[U]))
        return false;
    return true;
  }

  /// Copies the recorded boundary values over element \p E and re-emits
  /// its recorded change flag and cost. COW values keep this O(1) per
  /// node and preserve payload identity for downstream comparisons.
  void replayElement(unsigned E, bool Descending, bool &Changed) {
    const WarmStartMemo<Value> &M = *Opts.Memo;
    const std::vector<Value> &B = M.Boundaries[CurBoundary];
    for (unsigned V : Order.members(E))
      overwrite(V, B[V]);
    // The copied values are not what the components last stabilized to.
    const WtoElement &Elem = Order.elements()[E];
    if (Elem.IsComponent)
      for (unsigned C = Order.component(Elem.Vertex),
                    End = Order.componentEnd(C);
           C < End; ++C)
        Marks[C].StableAt = 0;
    Matched[E] = 1;
    bool Flag = M.ElemChanged[CurBoundary][E] != 0;
    uint64_t Steps = M.ElemSteps[CurBoundary][E];
    Changed |= Flag;
    ++Stats.ComponentSkips;
    Stats.SkippedSteps += Steps;
    SweepChangedBuf[E] = Flag;
    SweepStepsBuf[E] = Steps;
    traceEvent(Trace, TraceEventKind::ComponentSkip,
               Order.elements()[E].Vertex, Descending);
  }

  /// Refreshes Matched[E] after the element was solved cold this sweep.
  void updateMatched(unsigned E) {
    FullyReplayed[E] = 0;
    Matched[E] = 0;
    if (!WarmReplay || CurBoundary >= Opts.Memo->Boundaries.size())
      return;
    const std::vector<Value> &B = Opts.Memo->Boundaries[CurBoundary];
    for (unsigned V : Order.members(E))
      if (!Sys.equal(X[V], B[V]))
        return;
    Matched[E] = 1;
  }

  //===--------------------------------------------------------------------===//
  // Stable-input skips: the per-node epochs
  //===--------------------------------------------------------------------===//

  /// Records that X[V] changed.
  void stamp(unsigned V) { ChangedAt[V] = ++Clock; }

  /// Writes a value that is not evaluate() of V's current predecessors
  /// (a leaf restart or a memo replay): V changed, and its next
  /// evaluation must run.
  void overwrite(unsigned V, Value New) {
    X[V] = std::move(New);
    stamp(V);
    EvaluatedAt[V] = 0;
  }

  /// One scheduled step of plain vertex \p V, counted in \p Steps:
  /// evaluates V's equation unless V was evaluated earlier in this
  /// solve and none of its predecessors changed since. Keeps the stored
  /// value when the result is equal to it. Returns whether X[V] changed.
  bool stepPlain(unsigned V, uint64_t &Steps) {
    ++Steps;
    ++NodeSteps[V];
    if (uint64_t At = EvaluatedAt[V]) {
      bool Stable = true;
      for (unsigned P : Order.preds(V))
        Stable &= ChangedAt[P] < At;
      if (Stable) {
        ++Stats.StableInputSkips;
        return false;
      }
    }
    EvaluatedAt[V] = ++Clock;
    Value New = Sys.evaluate(V, X);
    // Converged equations resolve in O(1) when the lattice ops are
    // delta-aware: evaluate() then returns a value sharing its
    // representation with X[V], and equal() short-circuits on that
    // identity before any entry-wise comparison.
    if (Sys.equal(New, X[V]))
      return false;
    X[V] = std::move(New);
    stamp(V);
    return true;
  }

  /// Whether component \p C stabilized earlier in this phase and none of
  /// its external inputs changed since: its re-entry would then repeat
  /// its last stabilization exactly (see the file comment).
  bool componentStable(unsigned C) const {
    uint64_t At = Marks[C].StableAt;
    if (At == 0)
      return false;
    for (unsigned U : Order.componentInputs(C))
      if (ChangedAt[U] > At)
        return false;
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Sweeps over the top-level WTO elements
  //===--------------------------------------------------------------------===//

  /// One sweep in WTO order, shared by the ascending and descending
  /// phases: skips elements outside the demand cone, replays the ones
  /// the memo proves stable, solves the rest with \p SolveElement (which
  /// returns whether the element changed) and records each element's
  /// change flag and cost. Returns true when any element changed.
  template <typename SolveFn>
  bool sweep(bool Descending, SolveFn SolveElement) {
    const uint64_t &Steps =
        Descending ? Stats.DescendingSteps : Stats.AscendingSteps;
    beginSweep();
    bool Changed = false;
    for (unsigned E = 0; E < NumElems; ++E) {
      if (!elemDemanded(E))
        continue;
      if (canReplay(E)) {
        replayElement(E, Descending, Changed);
        continue;
      }
      uint64_t Before = Steps;
      bool ElemChanged = SolveElement(Order.elements()[E]);
      Changed |= ElemChanged;
      if (Recording) {
        SweepChangedBuf[E] = ElemChanged;
        SweepStepsBuf[E] = Steps - Before;
        updateMatched(E);
      }
    }
    endSweep();
    return Changed;
  }

  //===--------------------------------------------------------------------===//
  // Ascending phase
  //===--------------------------------------------------------------------===//

  /// The widening sweep. Ascending elements record change flag 1; the
  /// flag is unused there.
  void ascend() {
    sweep(/*Descending=*/false, [this](const WtoElement &E) {
      ascendElement(E);
      return true;
    });
  }

  /// Resets every vertex of a component (head and body, recursively) to
  /// its ascending start value.
  void resetComponent(const WtoElement &E) {
    overwrite(E.Vertex, Sys.initialValue(E.Vertex, /*FromTop=*/false));
    for (const WtoElement &Sub : E.Body)
      if (Sub.IsComponent)
        resetComponent(Sub);
      else
        overwrite(Sub.Vertex,
                  Sys.initialValue(Sub.Vertex, /*FromTop=*/false));
  }

  void ascendElement(const WtoElement &E) {
    if (!E.IsComponent) {
      stepPlain(E.Vertex, Stats.AscendingSteps);
      return;
    }
    unsigned C = Order.component(E.Vertex);
    if (componentStable(C)) {
      Stats.AscendingSteps += Marks[C].Steps;
      Stats.StableInputSkips += Marks[C].Steps;
      Stats.Widenings += Marks[C].Widenings;
      return;
    }
    // Restart *leaf* components from bottom: when an enclosing component
    // iterates, re-widening this head against values from the previous
    // outer iteration mixes unrelated ascents and overshoots on the
    // outer loop's variables (they look unstable here even though they
    // are invariant within this component). A clean local ascent per
    // outer iteration avoids that. Only leaves are restarted: resetting
    // at every nesting level would multiply the work of each level into
    // its parents (exponential in nesting depth, which deeply recursive
    // programs like McCarthy_30 cannot afford), while the leaf loops are
    // where the loss shows up in practice (see the Matrix program of
    // paper §6.5).
    bool IsLeaf = Order.componentEnd(C) == C + 1;
    uint64_t Steps0 = Stats.AscendingSteps, Widenings0 = Stats.Widenings;
    if (IsLeaf)
      resetComponent(E);
    traceEvent(Trace, TraceEventKind::ComponentBegin, E.Vertex,
               /*Descending=*/0);
    // Stabilize: body then head, widening at the head, until the head's
    // equation is satisfied. The body runs first so that equations with
    // their own sources inside the component (e.g. intermittent
    // assertion seeds in the backward system) are picked up even when
    // the head starts out stable.
    for (;;) {
      for (const WtoElement &Sub : E.Body)
        ascendElement(Sub);
      ++Stats.AscendingSteps;
      ++NodeSteps[E.Vertex];
      Value New = Sys.evaluate(E.Vertex, X);
      if (Sys.leq(New, X[E.Vertex]))
        break;
      ++Stats.Widenings;
      traceEvent(Trace, TraceEventKind::Widening, E.Vertex);
      X[E.Vertex] = Sys.widen(X[E.Vertex], New);
      stamp(E.Vertex);
    }
    // What re-entering the now stable component would cost: a leaf
    // restarts from bottom and repeats this trajectory; any other
    // component runs one pass, its head and plain body vertices once
    // each and its nested components at their own re-entry cost.
    ComponentMark &M = Marks[C];
    if (IsLeaf) {
      M.Steps = Stats.AscendingSteps - Steps0;
      M.Widenings = Stats.Widenings - Widenings0;
    } else {
      M.Steps = 1;
      M.Widenings = 0;
      for (const WtoElement &Sub : E.Body) {
        if (!Sub.IsComponent) {
          ++M.Steps;
          continue;
        }
        const ComponentMark &Inner = Marks[Order.component(Sub.Vertex)];
        M.Steps += Inner.Steps;
        M.Widenings += Inner.Widenings;
      }
    }
    M.StableAt = ++Clock;
    traceEvent(Trace, TraceEventKind::ComponentEnd, E.Vertex,
               /*Descending=*/0);
  }

  //===--------------------------------------------------------------------===//
  // Descending phase (shared by Lfp narrowing and Gfp)
  //===--------------------------------------------------------------------===//

  /// One full descending sweep in WTO order, stabilizing components with
  /// narrowing at their heads. Returns true when any value changed.
  bool descend() {
    return sweep(/*Descending=*/true, [this](const WtoElement &E) {
      bool Changed = false;
      descendElement(E, Changed);
      return Changed;
    });
  }

  void descendElement(const WtoElement &E, bool &Changed) {
    if (!E.IsComponent) {
      Changed |= stepPlain(E.Vertex, Stats.DescendingSteps);
      return;
    }
    // A stable component's re-entry is one sweep that changes nothing:
    // every member evaluates once and every head narrows once.
    unsigned C = Order.component(E.Vertex);
    if (componentStable(C)) {
      Stats.DescendingSteps += Order.componentSize(C);
      Stats.StableInputSkips += Order.componentSize(C);
      Stats.Narrowings += Order.componentEnd(C) - C;
      return;
    }
    // Stabilize the component: iterate while the head *or* its body
    // still changes. Termination: every cycle passes through a head, and
    // heads use narrowing (finite chains); between heads the body is
    // acyclic. The sweep bound is a safety net only.
    traceEvent(Trace, TraceEventKind::ComponentBegin, E.Vertex,
               /*Descending=*/1);
    unsigned Sweep = 0;
    for (; Sweep < MaxComponentSweeps; ++Sweep) {
      ++Stats.DescendingSteps;
      ++NodeSteps[E.Vertex];
      Value New = Sys.evaluate(E.Vertex, X);
      ++Stats.Narrowings;
      traceEvent(Trace, TraceEventKind::Narrowing, E.Vertex);
      Value Narrowed = Sys.narrow(X[E.Vertex], New);
      // A stable head comes back pointer-identical (delta-aware
      // narrow), so this equality check — the convergence test of the
      // whole descending phase — is O(1) on the steady state, and the
      // assignment below is skipped to keep the stored value's
      // identity untouched.
      bool SweepChanged = !Sys.equal(Narrowed, X[E.Vertex]);
      if (SweepChanged) {
        X[E.Vertex] = std::move(Narrowed);
        stamp(E.Vertex);
      }
      for (const WtoElement &Sub : E.Body)
        descendElement(Sub, SweepChanged);
      Changed |= SweepChanged;
      if (!SweepChanged)
        break;
    }
    if (Sweep == MaxComponentSweeps)
      ++Stats.SweepCapHits;
    // Stable when its last sweep changed nothing (not when cut off).
    Marks[C].StableAt = Sweep == MaxComponentSweeps ? 0 : ++Clock;
    traceEvent(Trace, TraceEventKind::ComponentEnd, E.Vertex,
               /*Descending=*/1);
  }

  static constexpr unsigned MaxComponentSweeps = 1000;

  const System &Sys;
  Options Opts;
  const Wto &Order; ///< the system's, built once by its owner
  TraceRecorder *Trace; ///< null = tracing off
  unsigned NumElems; ///< top-level WTO elements
  std::vector<Value> X;
  SolverStats Stats;
  /// Per-node scheduled step counts (see nodeLiveSteps()).
  std::vector<uint64_t> NodeSteps;
  /// Skip-rule epochs, per node, on one clock: when X[V] last changed,
  /// and when V's equation last ran (0 = not since the solve began or
  /// since the last overwrite()).
  std::vector<uint64_t> ChangedAt;
  std::vector<uint64_t> EvaluatedAt;
  uint64_t Clock = 0;
  /// Per component (Wto::component()): when it last stabilized in this
  /// phase (0 = not since the phase began, or since a replay wrote it),
  /// and the scheduled steps and widenings its ascending re-entry costs.
  struct ComponentMark {
    uint64_t StableAt = 0;
    uint64_t Steps = 0;
    uint64_t Widenings = 0;
  };
  std::vector<ComponentMark> Marks;

  /// Demand-driven scheduling state, per top-level element; empty on a
  /// full solve.
  std::vector<uint8_t> ElemDemanded;

  // Warm-start state; all empty/false when Options::Memo is null.
  bool Recording = false;  ///< memo present: record this run into it
  bool WarmReplay = false; ///< memo valid: replay stable elements
  unsigned CurBoundary = 0; ///< sweep boundary the current sweep targets
  std::vector<uint8_t> SeedClean;
  std::vector<uint8_t> Matched;
  std::vector<uint8_t> FullyReplayed;
  std::vector<uint8_t> SweepChangedBuf;
  std::vector<uint64_t> SweepStepsBuf;
  WarmStartMemo<Value> NewMemo;
};

} // namespace syntox

#endif // SYNTOX_FIXPOINT_SOLVER_H
