//===- tests/semantics/endtoend_random_test.cpp - Differential fuzzing ----===//
//
// Generates random *terminating* Pascal programs (bounded for-loops,
// branches, total arithmetic) and checks the whole pipeline end to end:
// the concrete interpreter runs the program, and every final variable
// value it prints must be contained in the forward abstract invariant at
// the program exit. Any containment failure is a soundness bug in some
// layer (frontend, CFG lowering, transfer functions, fixpoint engine or
// the interprocedural plumbing).
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "support/Rng.h"

#include "../common/AnalysisTestUtil.h"
#include "../common/RandomProgramGen.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace syntox;
using namespace syntox::test;

namespace {

TEST(EndToEndRandomTest, ForwardInvariantCoversConcreteRuns) {
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    ProgramGenerator Gen(Seed * 7919);
    std::string Source = Gen.generate();
    SCOPED_TRACE("seed " + std::to_string(Seed) + "\n" + Source);

    auto A = analyzeProgram(Source);
    ASSERT_TRUE(A.FE.SemaOk);

    Interpreter I(A.FE.Program);
    Interpreter::Options Opts;
    Opts.MaxSteps = 500000;
    Interpreter::Result Res = I.run(Opts);
    ASSERT_EQ(Res.St, Interpreter::Status::Ok) << Res.Error;

    // Parse the printed final values.
    std::istringstream Values(Res.Output);
    unsigned ExitNode = A.node("", "exit of gen");
    for (int V = 0; V < 5; ++V) {
      int64_t Concrete = 0;
      ASSERT_TRUE(static_cast<bool>(Values >> Concrete)) << Res.Output;
      const VarDecl *Var = A.var("", "v" + std::to_string(V));
      Interval Abstract = A.fwdInt(ExitNode, Var);
      EXPECT_TRUE(Abstract.contains(Concrete))
          << "v" << V << " = " << Concrete << " not in "
          << A.An->storeOps().domain().intervals().str(Abstract);
    }
  }
}

TEST(EndToEndRandomTest, EnvelopeCoversSuccessfulRunsToo) {
  // With the termination goal, successful runs must also sit inside the
  // final envelope (these programs always terminate, so the eventually
  // analysis must not exclude any reachable state).
  for (uint64_t Seed = 100; Seed <= 120; ++Seed) {
    ProgramGenerator Gen(Seed * 104729);
    std::string Source = Gen.generate();
    SCOPED_TRACE("seed " + std::to_string(Seed) + "\n" + Source);

    auto A = analyzeProgram(Source, withOptions().terminationGoal());
    ASSERT_TRUE(A.FE.SemaOk);

    Interpreter I(A.FE.Program);
    Interpreter::Options RunOpts;
    RunOpts.MaxSteps = 500000;
    Interpreter::Result Res = I.run(RunOpts);
    ASSERT_EQ(Res.St, Interpreter::Status::Ok) << Res.Error;

    std::istringstream Values(Res.Output);
    unsigned ExitNode = A.node("", "exit of gen");
    for (int V = 0; V < 5; ++V) {
      int64_t Concrete = 0;
      ASSERT_TRUE(static_cast<bool>(Values >> Concrete));
      const VarDecl *Var = A.var("", "v" + std::to_string(V));
      Interval Env = A.envInt(ExitNode, Var);
      EXPECT_TRUE(Env.contains(Concrete))
          << "v" << V << " = " << Concrete << " not in envelope "
          << A.An->storeOps().domain().intervals().str(Env);
    }
  }
}

TEST(EndToEndRandomTest, CachedRecursiveStrategyIsSound) {
  // The soundness oracle over 200 random programs, analyzed as every
  // caller analyzes them: the concrete final state observed by the
  // interpreter must stay inside the computed intervals.
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    ProgramGenerator Gen(Seed * 6271);
    std::string Source = Gen.generate();
    SCOPED_TRACE("seed " + std::to_string(Seed) + "\n" + Source);

    auto A = analyzeProgram(Source);
    ASSERT_TRUE(A.FE.SemaOk);

    Interpreter I(A.FE.Program);
    Interpreter::Options RunOpts;
    RunOpts.MaxSteps = 500000;
    Interpreter::Result Res = I.run(RunOpts);
    ASSERT_EQ(Res.St, Interpreter::Status::Ok) << Res.Error;

    std::istringstream Values(Res.Output);
    unsigned ExitNode = A.node("", "exit of gen");
    for (int V = 0; V < 5; ++V) {
      int64_t Concrete = 0;
      ASSERT_TRUE(static_cast<bool>(Values >> Concrete)) << Res.Output;
      const VarDecl *Var = A.var("", "v" + std::to_string(V));
      Interval Abstract = A.fwdInt(ExitNode, Var);
      EXPECT_TRUE(Abstract.contains(Concrete))
          << "v" << V << " = " << Concrete << " not in "
          << A.An->storeOps().domain().intervals().str(Abstract);
    }
  }
}

} // namespace
