//===- frontend/Fingerprint.cpp - Structural routine fingerprints ---------===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Fingerprint.h"

#include "frontend/Ast.h"
#include "support/Casting.h"

#include <string>

namespace syntox {
namespace {

uint64_t mixStr(uint64_t H, const std::string &S) {
  H = fpMix(H, S.size());
  for (char C : S)
    H = fpMix(H, static_cast<uint8_t>(C));
  return H;
}

/// Streams the structure of expressions and statements into a hash.
/// Source locations are deliberately excluded: moving a routine around
/// in the file (or reformatting it) must not change its fingerprint.
class StructHasher {
public:
  uint64_t H = fpSeed();

  void tag(unsigned T) { H = fpMix(H, 0xA0 + T); }

  void hashExpr(const Expr *E) {
    if (!E) {
      tag(0);
      return;
    }
    tag(1 + static_cast<unsigned>(E->kind()));
    switch (E->kind()) {
    case Expr::Kind::IntLiteral:
      H = fpMix(H, static_cast<uint64_t>(cast<IntLiteralExpr>(E)->value()));
      break;
    case Expr::Kind::BoolLiteral:
      H = fpMix(H, cast<BoolLiteralExpr>(E)->value() ? 1 : 2);
      break;
    case Expr::Kind::StringLiteral:
      H = mixStr(H, cast<StringLiteralExpr>(E)->value());
      break;
    case Expr::Kind::VarRef:
      // By name, not by resolved declaration: binding changes caused by
      // edits to enclosing routines are covered by the ancestor
      // fingerprint chain in instance keys, and hashing the name keeps
      // the fingerprint computable from this routine's text alone.
      H = mixStr(H, cast<VarRefExpr>(E)->name());
      break;
    case Expr::Kind::Index: {
      const auto *IE = cast<IndexExpr>(E);
      hashExpr(IE->base());
      hashExpr(IE->index());
      break;
    }
    case Expr::Kind::Call: {
      const auto *CE = cast<CallExpr>(E);
      H = mixStr(H, CE->callee());
      H = fpMix(H, static_cast<unsigned>(CE->builtin()));
      // The caller's lowering depends on the callee's *signature*
      // (parameter kinds decide reference vs. copy passing), so embed
      // it — but never the callee's body.
      if (CE->routine())
        H = fpMix(H, hashRoutineSignature(CE->routine()));
      H = fpMix(H, CE->args().size());
      for (const Expr *A : CE->args())
        hashExpr(A);
      break;
    }
    case Expr::Kind::Unary: {
      const auto *UE = cast<UnaryExpr>(E);
      H = fpMix(H, static_cast<unsigned>(UE->op()));
      hashExpr(UE->subExpr());
      break;
    }
    case Expr::Kind::Binary: {
      const auto *BE = cast<BinaryExpr>(E);
      H = fpMix(H, static_cast<unsigned>(BE->op()));
      hashExpr(BE->lhs());
      hashExpr(BE->rhs());
      break;
    }
    }
  }

  void hashStmt(const Stmt *S) {
    if (!S) {
      tag(32);
      return;
    }
    tag(33 + static_cast<unsigned>(S->kind()));
    switch (S->kind()) {
    case Stmt::Kind::Assign: {
      const auto *AS = cast<AssignStmt>(S);
      hashExpr(AS->target());
      hashExpr(AS->value());
      break;
    }
    case Stmt::Kind::Compound: {
      const auto *CS = cast<CompoundStmt>(S);
      H = fpMix(H, CS->body().size());
      for (const Stmt *Sub : CS->body())
        hashStmt(Sub);
      break;
    }
    case Stmt::Kind::If: {
      const auto *IS = cast<IfStmt>(S);
      hashExpr(IS->cond());
      hashStmt(IS->thenStmt());
      hashStmt(IS->elseStmt());
      break;
    }
    case Stmt::Kind::While: {
      const auto *WS = cast<WhileStmt>(S);
      hashExpr(WS->cond());
      hashStmt(WS->body());
      break;
    }
    case Stmt::Kind::Repeat: {
      const auto *RS = cast<RepeatStmt>(S);
      H = fpMix(H, RS->body().size());
      for (const Stmt *Sub : RS->body())
        hashStmt(Sub);
      hashExpr(RS->cond());
      break;
    }
    case Stmt::Kind::For: {
      const auto *FS = cast<ForStmt>(S);
      hashExpr(FS->var());
      hashExpr(FS->from());
      hashExpr(FS->to());
      H = fpMix(H, FS->isDownward() ? 1 : 2);
      hashStmt(FS->body());
      break;
    }
    case Stmt::Kind::Case: {
      const auto *CS = cast<CaseStmt>(S);
      hashExpr(CS->selector());
      H = fpMix(H, CS->arms().size());
      for (const CaseArm &Arm : CS->arms()) {
        H = fpMix(H, Arm.Labels.size());
        for (int64_t L : Arm.Labels)
          H = fpMix(H, static_cast<uint64_t>(L));
        hashStmt(Arm.Body);
      }
      hashStmt(CS->elseStmt());
      break;
    }
    case Stmt::Kind::Call:
      hashExpr(cast<CallStmt>(S)->call());
      break;
    case Stmt::Kind::Read: {
      const auto *RS = cast<ReadStmt>(S);
      H = fpMix(H, RS->targets().size());
      for (const Expr *T : RS->targets())
        hashExpr(T);
      break;
    }
    case Stmt::Kind::Write: {
      const auto *WS = cast<WriteStmt>(S);
      H = fpMix(H, WS->values().size());
      for (const Expr *V : WS->values())
        hashExpr(V);
      break;
    }
    case Stmt::Kind::Goto:
      H = fpMix(H, static_cast<uint64_t>(cast<GotoStmt>(S)->label()));
      break;
    case Stmt::Kind::Labeled: {
      const auto *LS = cast<LabeledStmt>(S);
      H = fpMix(H, static_cast<uint64_t>(LS->label()));
      hashStmt(LS->subStmt());
      break;
    }
    case Stmt::Kind::Empty:
      break;
    case Stmt::Kind::Assert: {
      const auto *AS = cast<AssertStmt>(S);
      H = fpMix(H, AS->isIntermittent() ? 1 : 2);
      hashExpr(AS->cond());
      break;
    }
    }
  }
};

uint64_t fingerprintRoutine(const RoutineDecl *R) {
  StructHasher SH;
  SH.H = fpMix(hashRoutineSignature(R), 0x51677478ull);
  const Block *B = R->block();
  if (!B)
    return SH.H;
  SH.H = fpMix(SH.H, B->Labels.size());
  for (int64_t L : B->Labels)
    SH.H = fpMix(SH.H, static_cast<uint64_t>(L));
  SH.H = fpMix(SH.H, B->Consts.size());
  for (const ConstDecl *C : B->Consts) {
    SH.H = mixStr(SH.H, C->name());
    SH.H = fpMix(SH.H, static_cast<uint64_t>(C->value()));
    SH.H = fpMix(SH.H, C->isBool() ? 1 : 2);
  }
  SH.H = fpMix(SH.H, B->TypeAliases.size());
  for (const TypeAliasDecl *A : B->TypeAliases) {
    SH.H = mixStr(SH.H, A->name());
    SH.H = fpMix(SH.H, hashType(A->type()));
  }
  SH.H = fpMix(SH.H, B->Vars.size());
  for (const VarDecl *V : B->Vars) {
    SH.H = mixStr(SH.H, V->name());
    SH.H = fpMix(SH.H, static_cast<unsigned>(V->varKind()));
    SH.H = fpMix(SH.H, hashType(V->type()));
  }
  // Nested routines are elided: editing one must not dirty this
  // fingerprint. Call sites inside the body embed callee signatures.
  SH.hashStmt(B->Body);
  return SH.H;
}

/// Nested routines first, so a set fingerprint on \p R means its whole
/// tree is done.
void computeTree(RoutineDecl *R) {
  if (R->block())
    for (RoutineDecl *Sub : R->block()->Routines)
      computeTree(Sub);
  R->setFingerprint(fingerprintRoutine(R));
}

} // namespace

uint64_t hashType(const Type *T) {
  if (!T)
    return 0x7f4a7c15ull;
  uint64_t H = fpMix(fpSeed(), 0x54 + static_cast<unsigned>(T->kind()));
  if (const auto *Sub = dyn_cast<SubrangeType>(T)) {
    H = fpMix(H, static_cast<uint64_t>(Sub->lo()));
    H = fpMix(H, static_cast<uint64_t>(Sub->hi()));
  } else if (const auto *Arr = dyn_cast<ArrayType>(T)) {
    H = fpMix(H, static_cast<uint64_t>(Arr->indexLo()));
    H = fpMix(H, static_cast<uint64_t>(Arr->indexHi()));
    H = fpMix(H, hashType(Arr->elementType()));
  }
  return H;
}

uint64_t hashRoutineSignature(const RoutineDecl *R) {
  uint64_t H = fpMix(fpSeed(), 0x52 + static_cast<unsigned>(R->routineKind()));
  H = mixStr(H, R->name());
  H = fpMix(H, R->params().size());
  for (const VarDecl *P : R->params()) {
    H = mixStr(H, P->name());
    H = fpMix(H, static_cast<unsigned>(P->varKind()));
    H = fpMix(H, hashType(P->type()));
  }
  H = fpMix(H, hashType(R->resultType()));
  return H;
}

void computeFingerprints(RoutineDecl *Program) {
  if (Program->fingerprint() == 0)
    computeTree(Program);
}

} // namespace syntox
