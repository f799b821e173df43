//===- semantics/Liveness.cpp - Live-slot masks for store pruning ---------===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "semantics/Liveness.h"

#include <algorithm>
#include <bit>

namespace syntox {

namespace {

constexpr size_t NoGen = ~size_t(0);

/// Collects the store slots an expression evaluates, frame-resolved.
/// Constant-bound references have no slot and are skipped; Call nodes
/// are builtins (action expressions are otherwise call-free) and
/// evaluate inline over their arguments.
void collectVars(const Expr *E, const FrameMap &F,
                 std::vector<const VarDecl *> &Out) {
  if (!E)
    return;
  switch (E->kind()) {
  case Expr::Kind::VarRef:
    if (const VarDecl *V = cast<VarRefExpr>(E)->varDecl())
      Out.push_back(F.resolve(V));
    return;
  case Expr::Kind::Index: {
    const auto *I = cast<IndexExpr>(E);
    collectVars(I->base(), F, Out);
    collectVars(I->index(), F, Out);
    return;
  }
  case Expr::Kind::Call:
    for (const Expr *A : cast<CallExpr>(E)->args())
      collectVars(A, F, Out);
    return;
  case Expr::Kind::Unary:
    collectVars(cast<UnaryExpr>(E)->subExpr(), F, Out);
    return;
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    collectVars(B->lhs(), F, Out);
    collectVars(B->rhs(), F, Out);
    return;
  }
  default:
    return; // literals
  }
}

/// The slots an action's forward transfer *evaluates* — unconditionally
/// live before the action (see the header: evaluation can bottom the
/// store, so even writes into dead targets must see exact operands).
void genVarsOf(const Action &A, const FrameMap &F,
               std::vector<const VarDecl *> &Out) {
  switch (A.K) {
  case Action::Kind::Assign:
    collectVars(A.Value, F, Out);
    return;
  case Action::Kind::ArrayStore:
    Out.push_back(F.resolve(A.Var)); // weak update reads the summary
    collectVars(A.Index, F, Out);
    collectVars(A.Value, F, Out);
    return;
  case Action::Kind::ReadScalar:
    return;
  case Action::Kind::ReadArray:
    Out.push_back(F.resolve(A.Var));
    collectVars(A.Index, F, Out);
    return;
  case Action::Kind::Assume:
  case Action::Kind::Check:
  case Action::Kind::Invariant:
    collectVars(A.Value, F, Out);
    return;
  case Action::Kind::Call:
    // Call edges become CallIn/CallOut superedges; this path is only
    // reached by the accessed-key scan, where the evaluated actual
    // arguments are what the *caller* touches.
    for (const Expr *Arg : A.Call->args())
      collectVars(Arg, F, Out);
    return;
  case Action::Kind::Nop:
    return;
  }
}

/// Slot strongly (destructively) written by the action, or -1. Array
/// stores are weak updates and kill nothing.
int killSlotOf(const Action &A, const FrameMap &F) {
  if (A.K == Action::Kind::Assign || A.K == Action::Kind::ReadScalar)
    return static_cast<int>(F.resolve(A.Var)->storeSlot());
  return -1;
}

} // namespace

LivenessInfo::LivenessInfo(const SuperGraph &G, const ProgramCfg &) {
  Slots = G.varNumbering().numSlots();
  Words = (Slots + 63) / 64;
  const unsigned NumNodes = G.numNodes();
  const auto &Instances = G.instances();
  SlotUniverse = uint64_t(NumNodes) * Slots;
  if (Words == 0 || NumNodes == 0) {
    Accessed.resize(Instances.size());
    return;
  }

  std::vector<const VarDecl *> Tmp;
  auto MarkIn = [&](std::vector<uint64_t> &M, const VarDecl *V) {
    unsigned S = V->storeSlot();
    M[S >> 6] |= 1ull << (S & 63);
  };

  // --- Per-instance accessed slots, closed over the call links -------
  std::vector<std::vector<uint64_t>> Acc(Instances.size(),
                                         std::vector<uint64_t>(Words, 0));
  for (const Instance &I : Instances) {
    auto &M = Acc[I.Id];
    for (const CfgEdge &E : I.Cfg->edges()) {
      Tmp.clear();
      genVarsOf(E.Act, I.Frame, Tmp);
      if (E.Act.K == Action::Kind::Assign ||
          E.Act.K == Action::Kind::ReadScalar)
        Tmp.push_back(I.Frame.resolve(E.Act.Var));
      if (E.Act.ResultVar)
        Tmp.push_back(I.Frame.resolve(E.Act.ResultVar));
      for (const VarDecl *V : Tmp)
        MarkIn(M, V);
    }
    for (const IntermittentAssertion &IA : I.Cfg->intermittents()) {
      Tmp.clear();
      collectVars(IA.Cond, I.Frame, Tmp);
      for (const VarDecl *V : Tmp)
        MarkIn(M, V);
    }
    // Roots are always accessed: copy-in refines them by the formal's
    // declared subrange even when the callee never mentions them.
    for (const VarDecl *R : I.Tok.Roots)
      MarkIn(M, R);
  }
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (const CallLink &L : G.links()) {
      auto &Caller = Acc[L.CallerInstance];
      const auto &Callee = Acc[L.CalleeInstance];
      for (unsigned W = 0; W < Words; ++W)
        if (Callee[W] & ~Caller[W]) {
          Caller[W] |= Callee[W];
          Changed = true;
        }
    }
  }
  Accessed.resize(Instances.size());
  for (const Instance &I : Instances) {
    auto &Keys = Accessed[I.Id];
    for (const VarDecl *K : I.SharedKeys) {
      unsigned S = K->storeSlot();
      if (Acc[I.Id][S >> 6] & (1ull << (S & 63)))
        Keys.push_back(K);
    }
  }

  // --- Per-node live masks -------------------------------------------
  Masks.assign(size_t(NumNodes) * Words, 0);
  auto MaskAt = [&](unsigned N) { return Masks.data() + size_t(N) * Words; };

  // Point gens: an intermittent assertion's condition is evaluated at
  // its control point by the eventually-phase seeds.
  for (const Instance &I : Instances)
    for (const IntermittentAssertion &IA : I.Cfg->intermittents()) {
      Tmp.clear();
      collectVars(IA.Cond, I.Frame, Tmp);
      uint64_t *M = MaskAt(G.node(I, IA.Point));
      for (const VarDecl *V : Tmp) {
        unsigned S = V->storeSlot();
        M[S >> 6] |= 1ull << (S & 63);
      }
    }

  // --- Edge propagation rules, precomputed ---------------------------
  struct EdgeProp {
    unsigned From = 0;
    unsigned To = 0;
    unsigned Extra = ~0u; ///< also propagate live(To) here (NodeP)
    int Kill = -1;
    size_t Gen = NoGen; ///< offset of the edge's gen words in Gens
  };
  std::vector<EdgeProp> Props;
  Props.reserve(G.edges().size());
  // Every edge's gen mask, Words words each, in one block.
  std::vector<uint64_t> Gens;
  auto GenWords = [&](EdgeProp &P) {
    if (P.Gen == NoGen) {
      P.Gen = Gens.size();
      Gens.resize(Gens.size() + Words, 0);
    }
    return Gens.data() + P.Gen;
  };
  auto GenBits = [&](EdgeProp &P, const std::vector<const VarDecl *> &Vs) {
    if (Vs.empty())
      return;
    uint64_t *M = GenWords(P);
    for (const VarDecl *V : Vs) {
      unsigned S = V->storeSlot();
      M[S >> 6] |= 1ull << (S & 63);
    }
  };
  for (const SuperEdge &E : G.edges()) {
    EdgeProp P;
    P.From = E.From;
    P.To = E.To;
    switch (E.K) {
    case SuperEdge::Kind::Local: {
      const Instance &I = G.instanceOf(E.From);
      Tmp.clear();
      genVarsOf(*E.Act, I.Frame, Tmp);
      GenBits(P, Tmp);
      P.Kill = killSlotOf(*E.Act, I.Frame);
      // Point-gen every referenced slot (operands and the written
      // target) at the *destination* too: the backward transfers
      // evaluate conditions against the forward store at the edge's To
      // node to resolve disjunctions (e.g. "¬(b and i < 100)" needs
      // i's forward value right after the loop to pin the blame on b),
      // and the duals of writes consult the written value there. One
      // extra node per reference — the backward phases stay exact
      // without being mask-restricted themselves.
      {
        uint64_t *MT = MaskAt(E.To);
        if (P.Kill >= 0)
          MT[P.Kill >> 6] |= 1ull << (P.Kill & 63);
        for (const VarDecl *V : Tmp) {
          unsigned S = V->storeSlot();
          MT[S >> 6] |= 1ull << (S & 63);
        }
      }
      break;
    }
    case SuperEdge::Kind::CallIn: {
      const CallLink &L = G.links()[E.Link];
      // All slots the activation touches.
      std::copy(Acc[L.CalleeInstance].begin(), Acc[L.CalleeInstance].end(),
                GenWords(P));
      Tmp.clear();
      for (const Expr *Arg : L.Call->args())
        collectVars(Arg, Instances[L.CallerInstance].Frame, Tmp);
      GenBits(P, Tmp);
      break;
    }
    case SuperEdge::Kind::CallOut: {
      const CallLink &L = G.links()[E.Link];
      P.Extra = L.NodeP; // copy-out also reads the caller store at P
      if (L.ResultTemp && Instances[L.CalleeInstance].R->resultVar()) {
        Tmp.assign(1, Instances[L.CalleeInstance].R->resultVar());
        GenBits(P, Tmp);
      }
      break;
    }
    case SuperEdge::Kind::ChannelOut:
      P.Extra = G.links()[E.Link].NodeP;
      break;
    }
    Props.push_back(std::move(P));
  }

  // --- Chaotic OR-iteration to the least fixpoint --------------------
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (auto It = Props.rbegin(); It != Props.rend(); ++It) {
      const EdgeProp &P = *It;
      const uint64_t *LT = MaskAt(P.To);
      uint64_t *LF = MaskAt(P.From);
      const uint64_t *Gen = P.Gen == NoGen ? nullptr : Gens.data() + P.Gen;
      for (unsigned W = 0; W < Words; ++W) {
        uint64_t V = LT[W];
        if (P.Kill >= 0 && unsigned(P.Kill >> 6) == W)
          V &= ~(1ull << (P.Kill & 63));
        if (Gen)
          V |= Gen[W];
        if (V & ~LF[W]) {
          LF[W] |= V;
          Changed = true;
        }
      }
      if (P.Extra != ~0u) {
        uint64_t *LX = MaskAt(P.Extra);
        for (unsigned W = 0; W < Words; ++W)
          if (LT[W] & ~LX[W]) {
            LX[W] |= LT[W];
            Changed = true;
          }
      }
    }
  }

  for (uint64_t W : Masks)
    LiveBits += std::popcount(W);
}

bool LivenessInfo::isLive(unsigned Node, const VarDecl *V) const {
  if (Masks.empty())
    return true;
  unsigned S = V->storeSlot();
  if (S >= Slots)
    return true;
  return maskFor(Node)[S >> 6] & (1ull << (S & 63));
}

} // namespace syntox
