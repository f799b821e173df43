//===- semantics/Transfer.cpp - Action transfer functions -----------------===//

#include "semantics/Transfer.h"

#include <cassert>

using namespace syntox;

AbstractStore Transfer::applyCheck(const CheckInfo &Info, AbstractStore S,
                                   const FrameMap &F) const {
  const ValueDomain &D = Ops.domain();
  switch (Info.Kind) {
  case CheckKind::ArrayBound:
  case CheckKind::SubrangeBound:
    Exprs.refineInt(Info.Value, D.make(Info.Lo, Info.Hi), S, F);
    return S;
  case CheckKind::DivByZero: {
    NumVal V = Exprs.evalInt(Info.Value, S, F);
    if (V.isBottom() || (V.isSingleton() && V.singleValue() == 0))
      return AbstractStore::bottom();
    // Trim a zero endpoint; straddling intervals cannot be refined.
    if (V.I.Lo == 0)
      Exprs.refineInt(Info.Value, D.make(1, D.maxValue()), S, F);
    else if (V.I.Hi == 0)
      Exprs.refineInt(Info.Value, D.make(D.minValue(), -1), S, F);
    return S;
  }
  case CheckKind::CaseMatch:
    // Reaching the fallthrough of an else-less case is always an error:
    // no state survives.
    return AbstractStore::bottom();
  }
  return S;
}

AbstractStore Transfer::fwd(const Action &A, const AbstractStore &In,
                            const FrameMap &F) const {
  if (In.isBottom())
    return In;
  switch (A.K) {
  case Action::Kind::Nop:
    return In;
  case Action::Kind::Assign: {
    AbstractStore Out = In;
    const VarDecl *Target = F.resolve(A.Var);
    if (Target->type()->isBoolean())
      Ops.assign(Out, Target, AbsValue(Exprs.evalBool(A.Value, In, F)));
    else
      Ops.assign(Out, Target, AbsValue(Exprs.evalInt(A.Value, In, F)));
    return Out;
  }
  case Action::Kind::ArrayStore: {
    if (Exprs.evalInt(A.Index, In, F).isBottom())
      return AbstractStore::bottom();
    NumVal Value = Exprs.evalInt(A.Value, In, F);
    if (Value.isBottom())
      return AbstractStore::bottom();
    AbstractStore Out = In;
    // Weak update: the summary covers both old and new elements.
    NumVal Summary =
        Ops.domain().join(Ops.get(In, A.Var).asNum(), Value);
    Ops.assign(Out, A.Var, AbsValue(Summary));
    return Out;
  }
  case Action::Kind::ReadScalar: {
    AbstractStore Out = In;
    const VarDecl *Target = F.resolve(A.Var);
    Ops.assign(Out, Target, Ops.topFor(Target));
    return Out;
  }
  case Action::Kind::ReadArray: {
    if (Exprs.evalInt(A.Index, In, F).isBottom())
      return AbstractStore::bottom();
    AbstractStore Out = In;
    Ops.assign(Out, A.Var, Ops.topFor(A.Var));
    return Out;
  }
  case Action::Kind::Assume: {
    AbstractStore Out = In;
    Exprs.refineBool(A.Value, A.Sense, Out, F);
    return Out;
  }
  case Action::Kind::Check:
    return applyCheck(Cfg.check(A.CheckId), In, F);
  case Action::Kind::Invariant: {
    AbstractStore Out = In;
    Exprs.refineBool(A.Value, true, Out, F);
    return Out;
  }
  case Action::Kind::Call:
    assert(false && "call transfer handled interprocedurally");
    return In;
  }
  return In;
}

AbstractStore Transfer::bwd(const Action &A, const AbstractStore &Out,
                            const FrameMap &F) const {
  if (Out.isBottom())
    return Out;
  switch (A.K) {
  case Action::Kind::Nop:
    return Out;
  case Action::Kind::Assign: {
    // [v := e]^-1(S) = { m : m[v -> e(m)] in S }: release v, then require
    // e to evaluate into S's constraint on v.
    const VarDecl *Target = F.resolve(A.Var);
    AbsValue Required = Ops.get(Out, Target);
    AbstractStore Pre = Out;
    Pre.forget(Target);
    if (Target->type()->isBoolean()) {
      const BoolLattice &B = Required.asBool();
      if (B.isBottom())
        return AbstractStore::bottom();
      if (B.isConstant())
        Exprs.refineBool(A.Value, B.constantValue(), Pre, F);
      return Pre;
    }
    Exprs.refineInt(A.Value, Required.asNum(), Pre, F);
    return Pre;
  }
  case Action::Kind::ArrayStore: {
    // Weak update: only the stored value is required to satisfy the
    // summary requirement; the pre-store summary is released.
    AbsValue Required = Ops.get(Out, A.Var);
    AbstractStore Pre = Out;
    Pre.forget(A.Var);
    Exprs.refineInt(A.Value, Required.asNum(), Pre, F);
    return Pre;
  }
  case Action::Kind::ReadScalar: {
    // read is non-deterministic: a state is an ancestor if *some* input
    // satisfies the requirement, so the requirement on the target must
    // merely be satisfiable.
    const VarDecl *Target = F.resolve(A.Var);
    if (Ops.get(Out, Target).isBottom())
      return AbstractStore::bottom();
    AbstractStore Pre = Out;
    Pre.forget(Target);
    return Pre;
  }
  case Action::Kind::ReadArray: {
    if (Ops.get(Out, A.Var).isBottom())
      return AbstractStore::bottom();
    AbstractStore Pre = Out;
    Pre.forget(A.Var);
    return Pre;
  }
  case Action::Kind::Assume: {
    // Tests filter states symmetrically in both directions.
    AbstractStore Pre = Out;
    Exprs.refineBool(A.Value, A.Sense, Pre, F);
    return Pre;
  }
  case Action::Kind::Check:
    return applyCheck(Cfg.check(A.CheckId), Out, F);
  case Action::Kind::Invariant: {
    AbstractStore Pre = Out;
    Exprs.refineBool(A.Value, true, Pre, F);
    return Pre;
  }
  case Action::Kind::Call:
    assert(false && "call transfer handled interprocedurally");
    return Out;
  }
  return Out;
}
