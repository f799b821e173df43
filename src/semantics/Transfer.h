//===- semantics/Transfer.h - Action transfer functions ---------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forward and backward abstract transfer functions for the non-call CFG
/// actions — the [x := e], [x := e]⁻¹, [i < 100] primitives of paper §4.
/// Call/return/channel transfer lives in the interprocedural layer.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_SEMANTICS_TRANSFER_H
#define SYNTOX_SEMANTICS_TRANSFER_H

#include "cfg/Cfg.h"
#include "semantics/ExprSemantics.h"

namespace syntox {

class Transfer {
public:
  Transfer(const StoreOps &Ops, const ExprSemantics &Exprs,
           const ProgramCfg &Cfg)
      : Ops(Ops), Exprs(Exprs), Cfg(Cfg) {}

  /// Forward transfer: the abstract post-state of executing \p A from
  /// \p In.
  AbstractStore fwd(const Action &A, const AbstractStore &In,
                    const FrameMap &F) const;

  /// Backward transfer: an over-approximation of the states whose
  /// successor through \p A lies in \p Out (the [·]⁻¹ primitives).
  AbstractStore bwd(const Action &A, const AbstractStore &Out,
                    const FrameMap &F) const;

private:
  AbstractStore applyCheck(const CheckInfo &Info, AbstractStore S,
                           const FrameMap &F) const;

  const StoreOps &Ops;
  const ExprSemantics &Exprs;
  const ProgramCfg &Cfg;
};

} // namespace syntox

#endif // SYNTOX_SEMANTICS_TRANSFER_H
