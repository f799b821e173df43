//===- tests/semantics/soundness_test.cpp - Concrete/abstract agreement ---===//
//
// Property tests cross-validating the analyses against the concrete
// interpreter: the derived conditions must be *necessary* — whenever a
// concrete run satisfies the specification (terminates without a runtime
// error), its input must be inside the abstract envelope at the read
// point. A reported condition that a successful run violates would be a
// soundness bug.
//
//===----------------------------------------------------------------------===//

#include "frontend/PaperPrograms.h"
#include "interp/Interpreter.h"
#include "support/Rng.h"

#include "../common/AnalysisTestUtil.h"

#include <gtest/gtest.h>

using namespace syntox;
using namespace syntox::test;

namespace {

Interpreter::Result runConcrete(const FrontendResult &FE,
                                std::vector<int64_t> Inputs,
                                uint64_t MaxSteps = 2000000) {
  Interpreter I(FE.Program);
  Interpreter::Options Opts;
  Opts.Inputs = std::move(Inputs);
  Opts.MaxSteps = MaxSteps;
  return I.run(Opts);
}

/// Single-integer-input programs with the termination goal: any n for
/// which the program terminates cleanly must be inside the envelope right
/// after the read.
struct SingleReadCase {
  const char *Name; ///< the program's name, used as the printed value
  const char *Source;
  const char *ReadDesc; ///< point description of the read
  const char *Var;
  int64_t SweepLo, SweepHi;
};

/// Prints a case as its program name. Without it gtest dumps the raw
/// bytes, pointers included, so the value shown in test listings (and in
/// the ctest names derived from them) would change from run to run.
void PrintTo(const SingleReadCase &C, std::ostream *OS) { *OS << C.Name; }

class SingleReadSoundness : public ::testing::TestWithParam<SingleReadCase> {
};

TEST_P(SingleReadSoundness, SuccessfulInputsAreInEnvelope) {
  const SingleReadCase &C = GetParam();
  auto A = analyzeProgram(C.Source, withOptions().terminationGoal());
  const VarDecl *V = A.var("", C.Var);
  ASSERT_NE(V, nullptr);
  unsigned Node = A.node("", C.ReadDesc);
  Interval Env = A.envInt(Node, V);

  for (int64_t N = C.SweepLo; N <= C.SweepHi; ++N) {
    auto R = runConcrete(A.FE, {N});
    if (R.St != Interpreter::Status::Ok)
      continue; // failed or looped: no claim
    EXPECT_TRUE(Env.contains(N))
        << C.Var << " = " << N << " terminated OK but envelope is "
        << A.An->storeOps().domain().intervals().str(Env);
  }
  // And the envelope must exclude at least one bad input (usefulness).
  bool ExcludesSomething = false;
  for (int64_t N = C.SweepLo; N <= C.SweepHi; ++N)
    ExcludesSomething |= !Env.contains(N);
  EXPECT_TRUE(ExcludesSomething);
}

INSTANTIATE_TEST_SUITE_P(
    PaperPrograms, SingleReadSoundness,
    ::testing::Values(
        SingleReadCase{"Fact", paper::FactProgram, "after read x", "x", -5,
                       20},
        SingleReadCase{"Select", paper::SelectProgram, "after read n", "n",
                       -5, 25},
        SingleReadCase{"McCarthyBuggy", paper::McCarthyBuggy, "after read n",
                       "n", 90, 130}));

TEST(SoundnessTest, ForProgramConditionIsNecessary) {
  // Every terminating run of For must have n < 0 (the loop body always
  // fails the bound check at i = 0).
  auto A = analyzeProgram(paper::ForProgram);
  const VarDecl *N = A.var("", "n");
  Interval Env = A.envInt(A.node("", "after read n"), N);
  for (int64_t Val = -5; Val <= 5; ++Val) {
    std::vector<int64_t> Inputs(1, Val);
    for (int I = 0; I <= Val; ++I)
      Inputs.push_back(I); // array values, if the loop runs
    auto R = runConcrete(A.FE, Inputs);
    if (R.St == Interpreter::Status::Ok) {
      EXPECT_TRUE(Env.contains(Val)) << "n = " << Val;
      EXPECT_LT(Val, 0);
    } else if (Val >= 0) {
      EXPECT_EQ(R.St, Interpreter::Status::RuntimeError);
    }
  }
}

TEST(SoundnessTest, WhileProgramConditionIsNecessary) {
  auto A = analyzeProgram(paper::WhileProgram, withOptions().terminationGoal());
  const VarDecl *B = A.var("", "b");
  BoolLattice Env =
      A.An->storeOps().get(A.An->envelopeAt(A.node("", "after read b")), B)
          .asBool();
  // b = true loops; b = false terminates. Envelope must cover false.
  auto RFalse = runConcrete(A.FE, {0});
  EXPECT_EQ(RFalse.St, Interpreter::Status::Ok);
  EXPECT_TRUE(Env.mayBeFalse());
  auto RTrue = runConcrete(A.FE, {1}, /*MaxSteps=*/50000);
  EXPECT_EQ(RTrue.St, Interpreter::Status::StepLimit);
  EXPECT_FALSE(Env.mayBeTrue());
}

TEST(SoundnessTest, McCarthyForwardCoversConcreteResults) {
  // Forward analysis at the exit must cover every concrete result.
  auto A = analyzeProgram(paper::McCarthyProgram);
  const VarDecl *M = A.var("", "m");
  Interval Fwd = A.fwdInt(A.node("", "exit of mccarthy"), M);
  for (int64_t N : {-50, 0, 77, 100, 101, 150, 1000}) {
    auto R = runConcrete(A.FE, {N}, 10000000);
    ASSERT_EQ(R.St, Interpreter::Status::Ok) << "n=" << N;
    int64_t Result = std::stoll(R.Output);
    EXPECT_TRUE(Fwd.contains(Result)) << "mc(" << N << ") = " << Result;
  }
}

TEST(SoundnessTest, RandomGuardedAccessPrograms) {
  // Generated family: read(i); if lo <= i <= hi then T[i] := i.
  // The analysis must prove the guarded access safe, and the concrete
  // interpreter must agree for every input.
  Rng R(99);
  for (int Trial = 0; Trial < 20; ++Trial) {
    int64_t Lo = R.range(1, 50);
    int64_t Hi = R.range(Lo, 100);
    std::string Source =
        "program p; var T : array [1..100] of integer; i : integer;\n"
        "begin read(i);\n"
        "  if (i >= " + std::to_string(Lo) + ") and (i <= " +
        std::to_string(Hi) + ") then T[i] := i\nend.";
    auto A = analyzeProgram(Source);
    // The abstract claim: the access is safe.
    unsigned CheckNode = A.node("", "bound check");
    (void)CheckNode;
    for (int Probe = 0; Probe < 10; ++Probe) {
      int64_t Input = R.range(-20, 120);
      auto Res = runConcrete(A.FE, {Input});
      EXPECT_EQ(Res.St, Interpreter::Status::Ok)
          << Source << "input " << Input << ": " << Res.Error;
    }
  }
}

TEST(SoundnessTest, IntermittentConditionIsNecessary) {
  // For the paper's Intermittent program, the analysis says reaching
  // i = 10 after an increment requires i <= 9 initially; check against
  // the interpreter (instrumented via the final value: the loop always
  // ends at 100, so we detect "reached 10" by the initial value).
  auto A = analyzeProgram(paper::IntermittentProgram);
  Interval Env = A.envInt(A.node("", "after read i"), A.var("", "i"));
  for (int64_t Init = 0; Init <= 20; ++Init) {
    bool ReachesTen = Init <= 9; // i climbs Init+1, ..., 100
    if (ReachesTen) {
      EXPECT_TRUE(Env.contains(Init)) << Init;
    }
  }
  EXPECT_FALSE(Env.contains(10));
}

} // namespace
