//===- semantics/StableIds.cpp - Content-addressed supergraph keys --------===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "semantics/StableIds.h"

#include "frontend/Ast.h"
#include "semantics/Interproc.h"

#include <cassert>
#include <functional>

using namespace syntox;

namespace {

/// Deterministic pre-order walk over every CallExpr of a statement tree
/// (nested routine declarations are not entered: their call sites get
/// ordinals of their own routine). The traversal order matches source
/// structure, so a routine's call ordinals are stable as long as its
/// fingerprint is.
void walkCalls(const Expr *E, const std::function<void(const CallExpr *)> &F);

void walkCalls(const Stmt *S, const std::function<void(const CallExpr *)> &F) {
  if (!S)
    return;
  switch (S->kind()) {
  case Stmt::Kind::Assign: {
    const auto *AS = cast<AssignStmt>(S);
    walkCalls(AS->target(), F);
    walkCalls(AS->value(), F);
    break;
  }
  case Stmt::Kind::Compound:
    for (const Stmt *Sub : cast<CompoundStmt>(S)->body())
      walkCalls(Sub, F);
    break;
  case Stmt::Kind::If: {
    const auto *IS = cast<IfStmt>(S);
    walkCalls(IS->cond(), F);
    walkCalls(IS->thenStmt(), F);
    walkCalls(IS->elseStmt(), F);
    break;
  }
  case Stmt::Kind::While: {
    const auto *WS = cast<WhileStmt>(S);
    walkCalls(WS->cond(), F);
    walkCalls(WS->body(), F);
    break;
  }
  case Stmt::Kind::Repeat: {
    const auto *RS = cast<RepeatStmt>(S);
    for (const Stmt *Sub : RS->body())
      walkCalls(Sub, F);
    walkCalls(RS->cond(), F);
    break;
  }
  case Stmt::Kind::For: {
    const auto *FS = cast<ForStmt>(S);
    walkCalls(FS->from(), F);
    walkCalls(FS->to(), F);
    walkCalls(FS->body(), F);
    break;
  }
  case Stmt::Kind::Case: {
    const auto *CS = cast<CaseStmt>(S);
    walkCalls(CS->selector(), F);
    for (const CaseArm &Arm : CS->arms())
      walkCalls(Arm.Body, F);
    walkCalls(CS->elseStmt(), F);
    break;
  }
  case Stmt::Kind::Call:
    walkCalls(cast<CallStmt>(S)->call(), F);
    break;
  case Stmt::Kind::Read:
    for (const Expr *T : cast<ReadStmt>(S)->targets())
      walkCalls(T, F);
    break;
  case Stmt::Kind::Write:
    for (const Expr *V : cast<WriteStmt>(S)->values())
      walkCalls(V, F);
    break;
  case Stmt::Kind::Labeled:
    walkCalls(cast<LabeledStmt>(S)->subStmt(), F);
    break;
  case Stmt::Kind::Assert:
    walkCalls(cast<AssertStmt>(S)->cond(), F);
    break;
  case Stmt::Kind::Goto:
  case Stmt::Kind::Empty:
    break;
  }
}

void walkCalls(const Expr *E, const std::function<void(const CallExpr *)> &F) {
  if (!E)
    return;
  switch (E->kind()) {
  case Expr::Kind::Index: {
    const auto *IE = cast<IndexExpr>(E);
    walkCalls(IE->base(), F);
    walkCalls(IE->index(), F);
    break;
  }
  case Expr::Kind::Call: {
    const auto *CE = cast<CallExpr>(E);
    F(CE);
    for (const Expr *A : CE->args())
      walkCalls(A, F);
    break;
  }
  case Expr::Kind::Unary:
    walkCalls(cast<UnaryExpr>(E)->subExpr(), F);
    break;
  case Expr::Kind::Binary: {
    const auto *BE = cast<BinaryExpr>(E);
    walkCalls(BE->lhs(), F);
    walkCalls(BE->rhs(), F);
    break;
  }
  default:
    break;
  }
}

} // namespace

StableIds::StableIds(const SuperGraph &G, const ProgramCfg &Cfg,
                     RoutineDecl *Program) {
  computeFingerprints(Program);

  // Call-site keys: (caller fingerprint, per-caller call ordinal). The
  // Sema-assigned CallSiteId is positional program-wide; this map
  // re-keys it so an edit to one routine leaves every other routine's
  // call-site keys intact. Id 0 is the program activation (and every
  // token in context-insensitive mode) — keyed as 0.
  std::unordered_map<unsigned, uint64_t> CallSiteKey;
  for (const RoutineCfg *C : Cfg.cfgs()) {
    const RoutineDecl *R = C->routine();
    uint64_t Ordinal = 0;
    if (R->block())
      walkCalls(R->block()->Body, [&](const CallExpr *CE) {
        if (!CE->routine())
          return; // builtins never become instances
        CallSiteKey[CE->callSiteId()] =
            fpMix(fpMix(R->fingerprint(), 0xC511), Ordinal++);
      });
  }

  // Variable keys: (owner fingerprint, index in owner). Owner variable
  // lists (params, result, locals, CfgBuilder temps) are rebuilt in the
  // same order whenever the owner's fingerprint is unchanged, so the
  // pair is content-stable.
  for (const RoutineCfg *C : Cfg.cfgs()) {
    const RoutineDecl *R = C->routine();
    for (const VarDecl *V : R->ownedVars()) {
      uint64_t K = fpMix(fpMix(R->fingerprint(), 0x7A12), V->indexInOwner());
      VarKeys.emplace(V, K);
      // Duplicate keys (textually identical twin routines) are
      // ambiguous: resolving one would graft cached state onto the
      // wrong twin, so the inverse map poisons them instead.
      auto [It, Inserted] = VarByKey.emplace(K, V);
      if (!Inserted)
        It->second = nullptr;
    }
  }

  // Instance keys: the routine's fingerprint, its lexical ancestor
  // chain (covers binding and shared-key changes from enclosing
  // routines), the call-site key, and the reference-parameter roots.
  NodeKeys.assign(G.numNodes(), 0);
  for (const Instance &Inst : G.instances()) {
    uint64_t K = fpMix(fpSeed(), Inst.R->fingerprint());
    for (const RoutineDecl *A = Inst.R->parent(); A; A = A->parent())
      K = fpMix(K, A->fingerprint());
    auto CsIt = CallSiteKey.find(Inst.Tok.CallSiteId);
    K = fpMix(K, Inst.Tok.CallSiteId == 0 ? 0
              : CsIt != CallSiteKey.end() ? CsIt->second
                                          : Inst.Tok.CallSiteId);
    for (const VarDecl *Root : Inst.Tok.Roots)
      K = fpMix(K, varKey(Root));
    for (unsigned P = 0; P < Inst.Cfg->numPoints(); ++P)
      NodeKeys[Inst.FirstNode + P] = fpMix(fpMix(K, 0x4E0D), P);
  }

  // Edge keys: kind + endpoint keys, disambiguated by an occurrence
  // ordinal (parallel Local edges — e.g. the two assume edges of a
  // branch — share endpoints).
  std::unordered_map<uint64_t, unsigned> Seen;
  EdgeKeys.reserve(G.edges().size());
  for (const SuperEdge &E : G.edges()) {
    uint64_t K = fpMix(fpSeed(), 0xE0 + static_cast<unsigned>(E.K));
    K = fpMix(K, NodeKeys[E.From]);
    K = fpMix(K, NodeKeys[E.To]);
    K = fpMix(K, Seen[K]++);
    EdgeKeys.push_back(K);
  }

  GraphHash = fpMix(fpSeed(), G.numNodes());
  for (uint64_t K : NodeKeys)
    GraphHash = fpMix(GraphHash, K);
  for (uint64_t K : EdgeKeys)
    GraphHash = fpMix(GraphHash, K);
}

uint64_t StableIds::varKey(const VarDecl *V) const {
  auto It = VarKeys.find(V);
  assert(It != VarKeys.end() && "variable outside the numbered program");
  return It->second;
}

const VarDecl *StableIds::varForKey(uint64_t Key) const {
  auto It = VarByKey.find(Key);
  return It == VarByKey.end() ? nullptr : It->second;
}

size_t StableIds::approximateBytes() const {
  size_t Bytes = sizeof(*this);
  Bytes += (NodeKeys.size() + EdgeKeys.size()) * sizeof(uint64_t);
  // Hash-map entries: key/value plus a bucket pointer's worth of
  // overhead each.
  Bytes += VarKeys.size() * (sizeof(void *) + 2 * sizeof(uint64_t));
  Bytes += VarByKey.size() * (sizeof(void *) + 2 * sizeof(uint64_t));
  return Bytes;
}
