//===- core/AbstractDebugger.cpp - Public abstract-debugging API ----------===//

#include "core/AbstractDebugger.h"

#include "cfg/CfgBuilder.h"
#include "frontend/Lexer.h"
#include "semantics/Liveness.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

using namespace syntox;

std::unique_ptr<AbstractDebugger>
AbstractDebugger::create(const std::string &Source, DiagnosticsEngine &Diags,
                         AnalysisOptions Opts) {
  auto Ctx = std::make_unique<AstContext>();
  Lexer Lex(Source, Diags);
  Parser P(Lex.lexAll(), *Ctx, Diags);
  RoutineDecl *Program = P.parseProgram();
  if (!Program || Diags.hasErrors())
    return nullptr;
  Sema S(*Ctx, Diags);
  if (!S.analyze(Program))
    return nullptr;
  CfgBuilder Builder(*Ctx, Diags);
  auto Cfg = Builder.build(Program);
  if (Diags.hasErrors())
    return nullptr;

  std::unique_ptr<AbstractDebugger> Dbg(new AbstractDebugger());
  Dbg->Ctx = std::move(Ctx);
  Dbg->Cfg = std::move(Cfg);
  Dbg->Program = Program;
  Dbg->An = std::make_unique<Analyzer>(*Dbg->Cfg, Program, std::move(Opts));
  return Dbg;
}

AbstractDebugger::~AbstractDebugger() = default;

void AbstractDebugger::analyze() {
  // The analyzer refuses a second run before touching any result. The
  // persistent on-disk cache (AnalysisOptions::CacheDir) is the session
  // layer's business: AnalysisSession loads warm state into the engine
  // before this call and saves the recordings after it.
  An->run();
  Checks = std::make_unique<CheckAnalysis>(*An);
  Ran = RunKind::Full;
  deriveConditions();
  deriveInvariantWarnings();
}

/// Every control point of \p G, as (instance, point), whose source
/// location matches \p Loc: the same line, and the same column unless
/// \p Loc's column is 0 (which matches the whole line).
static std::vector<std::pair<const Instance *, unsigned>>
pointsAt(const SuperGraph &G, SourceLoc Loc) {
  std::vector<std::pair<const Instance *, unsigned>> Out;
  for (const Instance &Inst : G.instances())
    for (unsigned P = 0; P < Inst.Cfg->numPoints(); ++P) {
      SourceLoc PLoc = Inst.Cfg->pointLoc(P);
      if (PLoc.isValid() && PLoc.Line == Loc.Line &&
          (Loc.Column == 0 || PLoc.Column == Loc.Column))
        Out.emplace_back(&Inst, P);
    }
  return Out;
}

void AbstractDebugger::analyzeDemand(const DemandSpec &Spec) {
  const SuperGraph &G = An->graph();
  std::vector<unsigned> Query;
  if (Spec.K == DemandSpec::Kind::Check) {
    Query = CheckAnalysis::checkNodes(*An, Spec.CheckId);
    bool Known = false;
    for (const CheckInfo &I : An->checkTable())
      Known |= I.Id == Spec.CheckId;
    if (!Known)
      throw std::out_of_range("no runtime check with id " +
                              std::to_string(Spec.CheckId));
  } else {
    for (auto [Inst, P] : pointsAt(G, Spec.Loc))
      Query.push_back(G.node(*Inst, P));
  }

  // Demand runs compose with a loaded chain exactly like full runs
  // (out-of-cone components replay from it) but are never saved: the
  // on-disk cache only ever holds full recordings.
  An->runDemand(Query);
  Ran = RunKind::Demand;
  deriveConditions(&An->demandMask());
  deriveInvariantWarnings(&An->demandMask());
}

void AbstractDebugger::requireRun(RunKind Want, const char *Query) const {
  if (Ran != Want)
    throw std::logic_error(std::string(Query) +
                           (Want == RunKind::Full
                                ? " requires a completed analyze() call"
                                : " requires a completed analyzeDemand() "
                                  "call"));
}

bool AbstractDebugger::someExecutionMaySatisfySpec() const {
  requireRun(RunKind::Full, "someExecutionMaySatisfySpec()");
  return !An->envelopeAt(An->graph().mainEntry()).isBottom();
}

void AbstractDebugger::deriveConditions(const std::vector<uint8_t> *Cone) {
  Conditions.clear();
  const SuperGraph &G = An->graph();
  // Every node whose value the node's equation reads: the source of
  // each in-edge, plus the caller's frozen frame at a call return.
  const Digraph &Dep = An->forwardDependencies();
  const StoreOps &Ops = An->storeOps();
  const ValueDomain &D = Ops.domain();
  std::set<std::string> Dedup;

  // Is the envelope strictly below the forward value for (Node, Var)?
  auto Tighter = [&](unsigned Node, const VarDecl *V) {
    AbsValue Env = Ops.get(An->envelopeAt(Node), V);
    AbsValue Fwd = Ops.get(An->forwardAt(Node), V);
    return Ops.leqValues(Env, Fwd) && !Ops.leqValues(Fwd, Env);
  };

  for (unsigned Node = 0; Node < G.numNodes(); ++Node) {
    if (Cone && !(*Cone)[Node])
      continue; // demand run: values outside the cone are unspecified
    const AbstractStore &Fwd = An->forwardAt(Node);
    const AbstractStore &Env = An->envelopeAt(Node);
    if (Fwd.isBottom())
      continue; // not reachable at all: nothing to report
    const Instance &Inst = G.instanceOf(Node);
    unsigned Point = G.pointOf(Node);
    SourceLoc Loc = Inst.Cfg->pointLoc(Point);

    if (Env.isBottom()) {
      // The whole point is excluded by the specification: report the
      // frontier only (first such point on a path).
      bool IsFrontier = true;
      for (unsigned Pred : Dep.preds(Node))
        IsFrontier &= !(An->envelopeAt(Pred).isBottom() &&
                        !An->forwardAt(Pred).isBottom());
      if (!IsFrontier || !Loc.isValid())
        continue;
      NecessaryCondition C;
      C.Loc = Loc;
      C.Condition = "this point is never reached in any execution "
                    "satisfying the specification";
      C.PointDesc = Inst.Cfg->pointDesc(Point);
      if (Dedup.insert(C.str()).second)
        Conditions.push_back(std::move(C));
      continue;
    }

    Env.forEachEntry([&](const VarDecl *V, const AbsValue &EnvVal) {
      if (!V->name().empty() && V->name()[0] == '$')
        return; // analysis temporaries
      if (!Tighter(Node, V))
        return;
      // Report only at the origin: no predecessor already carries the
      // same tightening for this variable.
      bool IsFrontier = true;
      for (unsigned Pred : Dep.preds(Node)) {
        if (An->forwardAt(Pred).isBottom())
          continue;
        if (An->envelopeAt(Pred).isBottom() || Tighter(Pred, V))
          IsFrontier = false;
      }
      if (!IsFrontier || !Loc.isValid())
        return;
      NecessaryCondition C;
      C.Loc = Loc;
      C.Var = V->name();
      if (EnvVal.isInt())
        C.Condition = V->name() + " in " + D.str(EnvVal.asNum());
      else
        C.Condition = V->name() + " = " + EnvVal.asBool().str();
      C.PointDesc = Inst.Cfg->pointDesc(Point);
      if (Dedup.insert(C.str()).second)
        Conditions.push_back(std::move(C));
    });
  }
}

void AbstractDebugger::deriveInvariantWarnings(
    const std::vector<uint8_t> *Cone) {
  InvariantWarnings.clear();
  const SuperGraph &G = An->graph();
  const ExprSemantics &Exprs = An->exprSemantics();
  std::set<std::string> Dedup;
  for (const SuperEdge &E : G.edges()) {
    if (E.K != SuperEdge::Kind::Local ||
        E.Act->K != Action::Kind::Invariant)
      continue;
    if (Cone && !(*Cone)[E.From])
      continue; // demand run: values outside the cone are unspecified
    const AbstractStore &In = An->forwardAt(E.From);
    if (In.isBottom())
      continue;
    const Instance &Inst = G.instanceOf(E.From);
    BoolLattice V = Exprs.evalBool(E.Act->Value, In, Inst.Frame);
    if (!V.mayBeFalse())
      continue;
    InvariantWarning W;
    W.Loc = E.Act->Value->loc();
    W.Message = V.mayBeTrue()
                    ? "invariant assertion may be violated"
                    : "invariant assertion is always violated here";
    std::string Key = W.Loc.str() + W.Message;
    if (Dedup.insert(Key).second)
      InvariantWarnings.push_back(std::move(W));
  }
}

/// Builds the PointState of control point \p P of \p Inst.
static PointState pointState(const Analyzer &An, const Instance &Inst,
                             unsigned P) {
  const SuperGraph &G = An.graph();
  const ValueDomain &D = An.storeOps().domain();
  unsigned Node = G.node(Inst, P);
  const AbstractStore &Env = An.envelopeAt(Node);
  PointState S;
  S.Loc = Inst.Cfg->pointLoc(P);
  S.Routine = Inst.R->name();
  S.InstanceId = Inst.Id;
  S.PointDesc = Inst.Cfg->pointDesc(P);
  S.Reachable = !An.forwardAt(Node).isBottom();
  S.InEnvelope = !Env.isBottom();
  const LivenessInfo *Live = An.liveness();
  Env.forEachEntry([&](const VarDecl *V, const AbsValue &Val) {
    if (!V->name().empty() && V->name()[0] == '$')
      return; // analysis temporaries
    if (Live && !Live->isLive(Node, V)) {
      // Dead slot: any envelope entry here is backward-requirement
      // residue, not a forward fact — the pruned analysis reads it as
      // top. Flag it instead of showing a value the unpruned analysis
      // might not agree with.
      S.PrunedVars.push_back(V->name());
      return;
    }
    StateBinding B;
    B.Var = V->name();
    B.Value = Val.isInt() ? D.str(Val.asNum()) : Val.asBool().str();
    S.Bindings.push_back(std::move(B));
  });
  if (Live && !Env.isBottom()) {
    // Most dead slots have no residual entry at all — the restriction
    // drops them from the stores before they are ever written — so the
    // envelope walk above never sees them. Flag every dead variable of
    // the point's frame (the routine's own variables plus the ancestor
    // variables copied across its boundary) so a reader comparing
    // against an unpruned run can account for each missing binding.
    auto FlagDead = [&](const VarDecl *V) {
      if (!V->name().empty() && V->name()[0] == '$')
        return;
      if (!Env.hasEntry(V) && !Live->isLive(Node, V))
        S.PrunedVars.push_back(V->name());
    };
    for (const VarDecl *V : Inst.R->ownedVars())
      FlagDead(V);
    for (const VarDecl *V : Inst.SharedKeys)
      FlagDead(V);
  }
  // forEachEntry iterates in slot order, which is stable but arbitrary
  // to a reader; present alphabetically.
  std::sort(S.Bindings.begin(), S.Bindings.end(),
            [](const StateBinding &A, const StateBinding &B) {
              return A.Var < B.Var;
            });
  std::sort(S.PrunedVars.begin(), S.PrunedVars.end());
  return S;
}

std::vector<PointState> AbstractDebugger::stateAt(SourceLoc Loc) const {
  requireRun(RunKind::Full, "stateAt()");
  std::vector<PointState> Out;
  for (auto [Inst, P] : pointsAt(An->graph(), Loc))
    Out.push_back(pointState(*An, *Inst, P));
  return Out;
}

std::vector<PointState>
AbstractDebugger::demandStateAt(SourceLoc Loc) const {
  requireRun(RunKind::Demand, "demandStateAt()");
  const SuperGraph &G = An->graph();
  const std::vector<uint8_t> &Cone = An->demandMask();
  std::vector<PointState> Out;
  for (auto [Inst, P] : pointsAt(G, Loc)) {
    unsigned Node = G.node(*Inst, P);
    if (Cone.empty() || !Cone[Node])
      throw std::out_of_range(
          "demandStateAt(): " + Inst->Cfg->pointLoc(P).str() +
          " is outside the solved demand cone; re-query through "
          "analyzeDemand() for this point or run a full analyze()");
    Out.push_back(pointState(*An, *Inst, P));
  }
  return Out;
}

bool AbstractDebugger::demandCovers(SourceLoc Loc) const {
  requireRun(RunKind::Demand, "demandCovers()");
  const SuperGraph &G = An->graph();
  const std::vector<uint8_t> &Cone = An->demandMask();
  for (auto [Inst, P] : pointsAt(G, Loc))
    if (Cone.empty() || !Cone[G.node(*Inst, P)])
      return false;
  return true;
}

CheckResult AbstractDebugger::demandCheck(unsigned CheckId) const {
  requireRun(RunKind::Demand, "demandCheck()");
  const std::vector<uint8_t> &Cone = An->demandMask();
  for (unsigned Node : CheckAnalysis::checkNodes(*An, CheckId))
    if (Cone.empty() || !Cone[Node])
      throw std::out_of_range(
          "demandCheck(): check " + std::to_string(CheckId) +
          " has sites outside the solved demand cone; query it through "
          "analyzeDemand(DemandSpec::check(id))");
  return CheckAnalysis::classifyCheck(*An, CheckId);
}

std::vector<PointState>
AbstractDebugger::mainStates(const std::string &DescFilter) const {
  requireRun(RunKind::Full, "mainStates()");
  const SuperGraph &G = An->graph();
  const Instance &Main = G.instances()[0];
  std::vector<PointState> Out;
  for (unsigned P = 0; P < Main.Cfg->numPoints(); ++P) {
    if (!DescFilter.empty() &&
        Main.Cfg->pointDesc(P).find(DescFilter) == std::string::npos)
      continue;
    Out.push_back(pointState(*An, Main, P));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// JSON renderings (stable keys; see schemas/findings.schema.json)
//===----------------------------------------------------------------------===//

json::Value NecessaryCondition::toJson() const {
  json::Value V = json::Value::object();
  V.set("line", Loc.Line);
  V.set("column", Loc.Column);
  if (!Var.empty())
    V.set("var", Var);
  V.set("condition", Condition);
  V.set("point", PointDesc);
  return V;
}

json::Value InvariantWarning::toJson() const {
  json::Value V = json::Value::object();
  V.set("line", Loc.Line);
  V.set("column", Loc.Column);
  V.set("message", Message);
  return V;
}

json::Value PointState::toJson() const {
  json::Value V = json::Value::object();
  V.set("line", Loc.Line);
  V.set("column", Loc.Column);
  V.set("routine", Routine);
  V.set("instance", InstanceId);
  V.set("point", PointDesc);
  V.set("reachable", Reachable);
  V.set("in_envelope", InEnvelope);
  json::Value Bs = json::Value::object();
  for (const StateBinding &B : Bindings)
    Bs.set(B.Var, B.Value);
  V.set("state", std::move(Bs));
  if (!PrunedVars.empty()) {
    json::Value Ps = json::Value::array();
    for (const std::string &P : PrunedVars)
      Ps.push(json::Value(P));
    V.set("pruned", std::move(Ps));
  }
  return V;
}
