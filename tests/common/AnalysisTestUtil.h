//===- tests/common/AnalysisTestUtil.h - Analysis test helpers --*- C++ -*-===//

#ifndef SYNTOX_TESTS_COMMON_ANALYSISTESTUTIL_H
#define SYNTOX_TESTS_COMMON_ANALYSISTESTUTIL_H

#include "cfg/CfgBuilder.h"
#include "semantics/Analyzer.h"

#include "FrontendTestUtil.h"

#include <gtest/gtest.h>

namespace syntox {
namespace test {

/// A fully analyzed program: frontend + CFG + analyzer results.
struct AnalyzedProgram {
  FrontendResult FE;
  std::unique_ptr<ProgramCfg> Cfg;
  std::unique_ptr<Analyzer> An;

  /// Finds a routine by name ("" = the program itself).
  RoutineDecl *routine(const std::string &Name) const {
    if (Name.empty())
      return FE.Program;
    for (RoutineDecl *R : FE.Routines)
      if (R->name() == Name)
        return R;
    return nullptr;
  }

  /// Finds a variable by name within a routine's owned variables, or in
  /// the program's globals when not found there.
  const VarDecl *var(const std::string &RoutineName,
                     const std::string &VarName) const {
    RoutineDecl *R = routine(RoutineName);
    if (!R)
      return nullptr;
    for (const VarDecl *V : R->ownedVars())
      if (V->name() == VarName)
        return V;
    for (const VarDecl *V : FE.Program->ownedVars())
      if (V->name() == VarName)
        return V;
    return nullptr;
  }

  /// Supergraph node of the \p Occurrence-th CFG point of instance
  /// \p InstIdx of \p RoutineName whose description contains
  /// \p DescSubstr.
  unsigned node(const std::string &RoutineName, const std::string &DescSubstr,
                unsigned InstIdx = 0, unsigned Occurrence = 0) const {
    RoutineDecl *R = routine(RoutineName);
    EXPECT_NE(R, nullptr) << "no routine " << RoutineName;
    unsigned Seen = 0;
    for (const Instance &Inst : An->graph().instances()) {
      if (Inst.R != R)
        continue;
      if (Seen++ != InstIdx)
        continue;
      unsigned Hits = 0;
      for (unsigned P = 0; P < Inst.Cfg->numPoints(); ++P)
        if (Inst.Cfg->pointDesc(P).find(DescSubstr) != std::string::npos &&
            Hits++ == Occurrence)
          return An->graph().node(Inst, P);
    }
    ADD_FAILURE() << "no point matching '" << DescSubstr << "' in "
                  << RoutineName;
    return 0;
  }

  Interval envInt(unsigned Node, const VarDecl *V) const {
    return An->storeOps().get(An->envelopeAt(Node), V).asInt();
  }
  Interval fwdInt(unsigned Node, const VarDecl *V) const {
    return An->storeOps().get(An->forwardAt(Node), V).asInt();
  }
  BoolLattice envBool(unsigned Node, const VarDecl *V) const {
    return An->storeOps().get(An->envelopeAt(Node), V).asBool();
  }
};

/// Fluent one-expression construction of AnalysisOptions, so tests
/// don't repeat the declare-mutate-pass boilerplate:
///   analyzeProgram(Src, withOptions().terminationGoal().backwardRounds(2))
/// The chainable setters live on AnalysisOptions itself now; this is
/// just the spelled-out starting point.
inline AnalysisOptions withOptions() { return {}; }

/// Runs the whole pipeline over \p Source.
inline AnalyzedProgram analyzeProgram(const std::string &Source,
                                      AnalysisOptions Opts = {}) {
  AnalyzedProgram Out;
  Out.FE = runFrontend(Source);
  EXPECT_TRUE(Out.FE.SemaOk) << Out.FE.Diags->str();
  if (!Out.FE.SemaOk)
    return Out;
  CfgBuilder Builder(*Out.FE.Ctx, *Out.FE.Diags);
  Out.Cfg = Builder.build(Out.FE.Program);
  Out.An = std::make_unique<Analyzer>(*Out.Cfg, Out.FE.Program, Opts);
  Out.An->run();
  return Out;
}

/// Runs a second analysis over an already-built frontend + CFG. The
/// returned analyzer shares \p P's AST, so its stores are comparable
/// key-by-key with \p P.An's (a fresh analyzeProgram() call would
/// allocate distinct VarDecls, making StoreOps::equal vacuously false).
inline std::unique_ptr<Analyzer> reanalyze(const AnalyzedProgram &P,
                                           AnalysisOptions Opts = {}) {
  auto An = std::make_unique<Analyzer>(*P.Cfg, P.FE.Program, Opts);
  An->run();
  return An;
}

} // namespace test
} // namespace syntox

#endif // SYNTOX_TESTS_COMMON_ANALYSISTESTUTIL_H
