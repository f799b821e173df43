//===- semantics/Interproc.cpp - Token-based call-graph unfolding ---------===//

#include "semantics/Interproc.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace syntox;

VarNumbering::VarNumbering(const ProgramCfg &Cfg) {
  // CFG order is declaration order (program first), and ownedVars() is
  // registration order (params, result, locals, then CfgBuilder temps),
  // so the assignment below is deterministic for a given AST and safe
  // to re-run: every analysis of the same program sees the same slots.
  for (const RoutineCfg *C : Cfg.cfgs())
    for (VarDecl *V : C->routine()->ownedVars())
      V->setStoreSlot(NumSlots++);
}

SuperGraph::SuperGraph(const ProgramCfg &Cfg, RoutineDecl *Program,
                       const StoreOps &Ops, const ExprSemantics &Exprs,
                       const Transfer &Xfer, bool ContextInsensitive,
                       Telemetry Telem)
    : Cfg(Cfg), Numbering(Cfg), Ops(Ops), Exprs(Exprs), Telem(Telem),
      Xfer(Xfer), ContextInsensitive(ContextInsensitive) {
  // The constant slot -> declaration table behind every store payload:
  // VarNumbering just assigned the slots, so one pass over the owned
  // variables fills it completely and no payload ever grows its own.
  {
    auto Table =
        std::make_shared<detail::StoreKeyTable>(Numbering.numSlots(), nullptr);
    for (const RoutineCfg *C : Cfg.cfgs())
      for (VarDecl *V : C->routine()->ownedVars())
        (*Table)[V->storeSlot()] = V;
    KeyTable = std::move(Table);
  }
  discoverInstances(Program);
  buildEdges();
  if (Telem.Metrics)
    Telem.Metrics->counter("interproc.instances").inc(Instances.size());
}

unsigned SuperGraph::mainEntry() const {
  return Instances[0].FirstNode + Instances[0].Cfg->entry();
}

unsigned SuperGraph::mainExit() const {
  return Instances[0].FirstNode + Instances[0].Cfg->exit();
}

const Instance &SuperGraph::instanceOf(unsigned Node) const {
  return Instances[NodeInstance[Node]];
}

unsigned SuperGraph::pointOf(unsigned Node) const {
  return Node - instanceOf(Node).FirstNode;
}

unsigned SuperGraph::getOrCreateInstance(RoutineDecl *R, ActivationToken Tok) {
  auto It = InstanceByToken.find(Tok);
  if (It != InstanceByToken.end())
    return It->second;

  Instance Inst;
  Inst.Id = static_cast<unsigned>(Instances.size());
  Inst.R = R;
  Inst.Cfg = Cfg.cfgFor(R);
  assert(Inst.Cfg && "routine without CFG");
  Inst.Tok = Tok;
  Inst.FirstNode = NumNodes;
  NumNodes += Inst.Cfg->numPoints();

  // Frame: redirect each reference formal to its root.
  unsigned RootIdx = 0;
  for (VarDecl *Formal : R->params()) {
    if (!Formal->isVarParam())
      continue;
    assert(RootIdx < Tok.Roots.size() && "token/parameter mismatch");
    Inst.Frame.redirect(Formal, Tok.Roots[RootIdx++]);
  }

  // Shared keys: every variable of every proper ancestor, plus the roots.
  std::set<const VarDecl *> Shared;
  for (const RoutineDecl *A = R->parent(); A; A = A->parent())
    for (VarDecl *V : A->ownedVars())
      Shared.insert(V);
  for (const VarDecl *Root : Tok.Roots)
    Shared.insert(Root);
  Inst.SharedKeys.assign(Shared.begin(), Shared.end());
  Inst.AccessedKeys = Inst.SharedKeys;

  InstanceByToken[Tok] = Inst.Id;
  // One token_unfold event per activation class created (§6.4): the
  // routine name labels the event, the call site ties it to the source.
  if (TraceRecorder *Rec = Telem.Trace;
      Rec && Rec->wants(TraceEventKind::TokenUnfold))
    Rec->record(TraceEventKind::TokenUnfold, Inst.Id, Tok.CallSiteId,
                R->name());
  Instances.push_back(std::move(Inst));
  return Instances.back().Id;
}

void SuperGraph::discoverInstances(RoutineDecl *Program) {
  ActivationToken MainTok;
  MainTok.Routine = Program;
  getOrCreateInstance(Program, MainTok);
  // Instances.size() grows during the scan: classic worklist.
  for (unsigned Idx = 0; Idx < Instances.size(); ++Idx) {
    // Note: Instances may reallocate inside the loop; index it afresh.
    for (const CfgEdge &E : Instances[Idx].Cfg->edges()) {
      if (E.Act.K != Action::Kind::Call)
        continue;
      const CallExpr *CE = E.Act.Call;
      RoutineDecl *Callee = CE->routine();
      ActivationToken Tok;
      Tok.Routine = Callee;
      Tok.CallSiteId = ContextInsensitive ? 0 : CE->callSiteId();
      const std::vector<VarDecl *> &Formals = Callee->params();
      for (size_t I = 0; I < Formals.size() && I < CE->args().size(); ++I) {
        if (!Formals[I]->isVarParam())
          continue;
        const auto *Ref = cast<VarRefExpr>(CE->args()[I]);
        // Resolve through the caller's own frame: roots stay roots.
        Tok.Roots.push_back(
            Instances[Idx].Frame.resolve(Ref->varDecl()));
      }
      unsigned CalleeId = getOrCreateInstance(Callee, std::move(Tok));
      CallLink Link;
      Link.CallerInstance = Idx;
      Link.CalleeInstance = CalleeId;
      Link.Call = CE;
      Link.ResultTemp = E.Act.ResultVar;
      Link.NodeP = Instances[Idx].FirstNode + E.From;
      Link.NodeQ = Instances[Idx].FirstNode + E.To;
      Links.push_back(Link);
    }
  }
  NodeInstance.resize(NumNodes);
  for (const Instance &Inst : Instances)
    for (unsigned P = 0; P < Inst.Cfg->numPoints(); ++P)
      NodeInstance[Inst.FirstNode + P] = Inst.Id;
}

void SuperGraph::buildEdges() {
  // Local edges.
  for (const Instance &Inst : Instances) {
    for (const CfgEdge &E : Inst.Cfg->edges()) {
      if (E.Act.K == Action::Kind::Call)
        continue;
      SuperEdge SE;
      SE.K = SuperEdge::Kind::Local;
      SE.From = Inst.FirstNode + E.From;
      SE.To = Inst.FirstNode + E.To;
      SE.Act = &E.Act;
      Edges.push_back(SE);
    }
  }
  // Call, return and channel edges.
  for (unsigned LinkIdx = 0; LinkIdx < Links.size(); ++LinkIdx) {
    const CallLink &L = Links[LinkIdx];
    const Instance &Caller = Instances[L.CallerInstance];
    const Instance &Callee = Instances[L.CalleeInstance];

    SuperEdge InE;
    InE.K = SuperEdge::Kind::CallIn;
    InE.From = L.NodeP;
    InE.To = Callee.FirstNode + Callee.Cfg->entry();
    InE.Link = LinkIdx;
    Edges.push_back(InE);

    SuperEdge OutE;
    OutE.K = SuperEdge::Kind::CallOut;
    OutE.From = Callee.FirstNode + Callee.Cfg->exit();
    OutE.To = L.NodeQ;
    OutE.Link = LinkIdx;
    Edges.push_back(OutE);

    for (const auto &[Chan, ChanPoint] : Callee.Cfg->channelExits()) {
      SuperEdge ChanE;
      ChanE.K = SuperEdge::Kind::ChannelOut;
      ChanE.From = Callee.FirstNode + ChanPoint;
      ChanE.Link = LinkIdx;
      if (Chan.Target == Caller.R) {
        // The jump lands on the caller's own labeled statement.
        auto It = Caller.Cfg->labelPoints().find(Chan.Label);
        assert(It != Caller.Cfg->labelPoints().end() &&
               "non-local target label without a point");
        ChanE.To = Caller.FirstNode + It->second;
      } else {
        // Re-raise: the caller forwards the channel to its own caller.
        auto It = Caller.Cfg->channelExits().find(Chan);
        assert(It != Caller.Cfg->channelExits().end() &&
               "channel not propagated to caller");
        ChanE.To = Caller.FirstNode + It->second;
      }
      Edges.push_back(ChanE);
    }
  }

  // Counting sort of the edge indices by target and by source.
  auto Index = [&](EdgeLists &L, unsigned SuperEdge::*End) {
    L.Begin.assign(NumNodes + 1, 0);
    for (const SuperEdge &E : Edges)
      ++L.Begin[E.*End + 1];
    for (unsigned V = 0; V < NumNodes; ++V)
      L.Begin[V + 1] += L.Begin[V];
    L.Edges.resize(Edges.size());
    std::vector<unsigned> Next(L.Begin.begin(), L.Begin.end() - 1);
    for (unsigned I = 0; I < Edges.size(); ++I)
      L.Edges[Next[Edges[I].*End]++] = I;
  };
  Index(In, &SuperEdge::To);
  Index(Out, &SuperEdge::From);
}

//===----------------------------------------------------------------------===//
// Interprocedural transfer
//===----------------------------------------------------------------------===//

AbstractStore SuperGraph::copyIn(const CallLink &L,
                                 const AbstractStore &AtP) const {
  if (AtP.isBottom())
    return AbstractStore::bottom();
  const Instance &Caller = Instances[L.CallerInstance];
  const Instance &Callee = Instances[L.CalleeInstance];

  AbstractStore S; // top: callee locals start undefined
  S.adoptKeyTable(KeyTable);
  for (const VarDecl *K : Callee.AccessedKeys)
    Ops.assign(S, K, Ops.get(AtP, K));
  if (S.isBottom())
    return S;

  const std::vector<VarDecl *> &Formals = Callee.R->params();
  const std::vector<Expr *> &Args = L.Call->args();
  for (size_t I = 0; I < Formals.size() && I < Args.size(); ++I) {
    VarDecl *Formal = Formals[I];
    if (Formal->isVarParam()) {
      // The root was copied with the shared keys; the formal's declared
      // subrange (checked at the caller) refines it.
      const VarDecl *Root = Callee.Frame.resolve(Formal);
      if (Formal->type()->isIntegerLike())
        Ops.refine(S, Root, AbsValue(Ops.typeRange(Formal)));
      continue;
    }
    if (Formal->type()->isBoolean()) {
      Ops.assign(S, Formal,
                 AbsValue(Exprs.evalBool(Args[I], AtP, Caller.Frame)));
    } else {
      NumVal V = Exprs.evalInt(Args[I], AtP, Caller.Frame);
      V = Ops.domain().meet(V, Ops.domain().fromInterval(Ops.typeRange(Formal)));
      Ops.assign(S, Formal, AbsValue(V));
    }
  }
  return S;
}

AbstractStore SuperGraph::copyOut(const CallLink &L,
                                  const AbstractStore &AtExit,
                                  const AbstractStore &AtP) const {
  if (AtExit.isBottom() || AtP.isBottom())
    return AbstractStore::bottom();
  const Instance &Callee = Instances[L.CalleeInstance];
  // Keys the activation never touches keep their caller value: the
  // callee state is exact on AccessedKeys and vacuous elsewhere.
  AbstractStore S = AtP;
  for (const VarDecl *K : Callee.AccessedKeys)
    Ops.assign(S, K, Ops.get(AtExit, K));
  if (L.ResultTemp && Callee.R->resultVar())
    Ops.assign(S, L.ResultTemp, Ops.get(AtExit, Callee.R->resultVar()));
  return S;
}

AbstractStore SuperGraph::channelOut(const CallLink &L,
                                     const AbstractStore &AtChan,
                                     const AbstractStore &AtP) const {
  if (AtChan.isBottom() || AtP.isBottom())
    return AbstractStore::bottom();
  const Instance &Callee = Instances[L.CalleeInstance];
  AbstractStore S = AtP;
  for (const VarDecl *K : Callee.AccessedKeys)
    Ops.assign(S, K, Ops.get(AtChan, K));
  return S;
}

AbstractStore SuperGraph::bwdCopyIn(const CallLink &L,
                                    const AbstractStore &AtEntry) const {
  if (AtEntry.isBottom())
    return AbstractStore::bottom();
  const Instance &Caller = Instances[L.CallerInstance];
  const Instance &Callee = Instances[L.CalleeInstance];

  AbstractStore S;
  S.adoptKeyTable(KeyTable);
  for (const VarDecl *K : Callee.SharedKeys)
    Ops.assign(S, K, Ops.get(AtEntry, K));
  if (S.isBottom())
    return S;

  const std::vector<VarDecl *> &Formals = Callee.R->params();
  const std::vector<Expr *> &Args = L.Call->args();
  for (size_t I = 0; I < Formals.size() && I < Args.size(); ++I) {
    VarDecl *Formal = Formals[I];
    if (Formal->isVarParam())
      continue; // covered by the shared keys
    // The requirement on the formal constrains the argument expression.
    if (Formal->type()->isBoolean()) {
      BoolLattice B = Ops.get(AtEntry, Formal).asBool();
      if (B.isBottom())
        return AbstractStore::bottom();
      if (B.isConstant())
        Exprs.refineBool(Args[I], B.constantValue(), S, Caller.Frame);
    } else {
      Exprs.refineInt(Args[I], Ops.get(AtEntry, Formal).asNum(), S,
                      Caller.Frame);
    }
    if (S.isBottom())
      return S;
  }
  return S;
}

AbstractStore SuperGraph::bwdCopyOut(const CallLink &L,
                                     const AbstractStore &AtQ) const {
  if (AtQ.isBottom())
    return AbstractStore::bottom();
  const Instance &Callee = Instances[L.CalleeInstance];
  AbstractStore S;
  S.adoptKeyTable(KeyTable);
  for (const VarDecl *K : Callee.SharedKeys)
    Ops.assign(S, K, Ops.get(AtQ, K));
  if (S.isBottom())
    return S;
  if (L.ResultTemp && Callee.R->resultVar())
    Ops.assign(S, Callee.R->resultVar(), Ops.get(AtQ, L.ResultTemp));
  return S;
}

AbstractStore
SuperGraph::bwdChannelOut(const CallLink &L,
                          const AbstractStore &AtTarget) const {
  if (AtTarget.isBottom())
    return AbstractStore::bottom();
  const Instance &Callee = Instances[L.CalleeInstance];
  AbstractStore S;
  S.adoptKeyTable(KeyTable);
  for (const VarDecl *K : Callee.SharedKeys)
    Ops.assign(S, K, Ops.get(AtTarget, K));
  return S;
}

AbstractStore
SuperGraph::fwdTransfer(unsigned EdgeIdx,
                        const std::vector<AbstractStore> &X) const {
  const SuperEdge &E = Edges[EdgeIdx];
  const CallLink &L = Links[E.Link];
  const AbstractStore &In1 = X[E.From];
  // CallOut/ChannelOut combine the callee state with the frozen caller
  // state before the call.
  const AbstractStore *In2 =
      E.K == SuperEdge::Kind::CallIn ? nullptr : &X[L.NodeP];
  LinkTransferMemo *M =
      TransferMemoEnabled ? &EdgeMemos[EdgeIdx][0] : nullptr;
  if (M && M->Valid && Ops.equal(M->In1, In1) &&
      (!In2 || Ops.equal(M->In2, *In2))) {
    ++TransferMemoHits;
    return M->Out;
  }
  AbstractStore Out;
  switch (E.K) {
  case SuperEdge::Kind::CallIn:
    Out = copyIn(L, In1);
    break;
  case SuperEdge::Kind::CallOut:
    Out = copyOut(L, In1, *In2);
    break;
  case SuperEdge::Kind::ChannelOut:
    Out = channelOut(L, In1, *In2);
    break;
  case SuperEdge::Kind::Local:
    break; // not an interprocedural edge; unreachable by contract
  }
  if (M) {
    M->Valid = true;
    M->In1 = In1;
    if (In2)
      M->In2 = *In2;
    M->Out = Out;
  }
  return Out;
}

AbstractStore
SuperGraph::bwdTransfer(unsigned EdgeIdx,
                        const std::vector<AbstractStore> &X) const {
  const SuperEdge &E = Edges[EdgeIdx];
  const CallLink &L = Links[E.Link];
  const AbstractStore &In = X[E.To];
  LinkTransferMemo *M =
      TransferMemoEnabled ? &EdgeMemos[EdgeIdx][1] : nullptr;
  if (M && M->Valid && Ops.equal(M->In1, In)) {
    ++TransferMemoHits;
    return M->Out;
  }
  AbstractStore Out;
  switch (E.K) {
  case SuperEdge::Kind::CallIn:
    Out = bwdCopyIn(L, In);
    break;
  case SuperEdge::Kind::CallOut:
    Out = bwdCopyOut(L, In);
    break;
  case SuperEdge::Kind::ChannelOut:
    Out = bwdChannelOut(L, In);
    break;
  case SuperEdge::Kind::Local:
    break; // unreachable by contract
  }
  if (M) {
    M->Valid = true;
    M->In1 = In;
    M->Out = Out;
  }
  return Out;
}

size_t SuperGraph::approximateBytes() const {
  size_t Bytes = sizeof(*this);
  Bytes += Instances.size() * sizeof(Instance);
  for (const Instance &Inst : Instances)
    Bytes += Inst.SharedKeys.size() * sizeof(void *) +
             Inst.Frame.map().size() * 2 * sizeof(void *);
  Bytes += Links.size() * sizeof(CallLink);
  Bytes += Edges.size() * sizeof(SuperEdge);
  for (const EdgeLists *L : {&In, &Out})
    Bytes += (L->Begin.size() + L->Edges.size()) * sizeof(unsigned);
  return Bytes;
}
