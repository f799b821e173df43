//===- tests/interp/interp_test.cpp - Concrete interpreter tests ----------===//

#include "frontend/PaperPrograms.h"
#include "interp/Interpreter.h"

#include "../common/FrontendTestUtil.h"

#include <gtest/gtest.h>

using namespace syntox;
using namespace syntox::test;

namespace {

Interpreter::Result runProgram(const std::string &Source,
                               std::vector<int64_t> Inputs,
                               bool EnableChecks = true,
                               uint64_t MaxSteps = 1000000) {
  auto FE = runFrontend(Source);
  EXPECT_TRUE(FE.SemaOk) << FE.Diags->str();
  Interpreter I(FE.Program);
  Interpreter::Options Opts;
  Opts.Inputs = std::move(Inputs);
  Opts.EnableChecks = EnableChecks;
  Opts.MaxSteps = MaxSteps;
  return I.run(Opts);
}

TEST(InterpreterTest, ArithmeticAndOutput) {
  auto R = runProgram("program p; var i : integer;\n"
                      "begin i := 2 + 3 * 4; writeln(i, i div 2, i mod 4,\n"
                      "  abs(-7), sqr(3)) end.",
                      {});
  EXPECT_EQ(R.St, Interpreter::Status::Ok);
  EXPECT_EQ(R.Output, "14 7 2 7 9 \n");
}

TEST(InterpreterTest, BooleanOutput) {
  auto R = runProgram("program p; var b : boolean;\n"
                      "begin b := (1 < 2) and not (3 = 4);\n"
                      "writeln(b, odd(3), odd(4)) end.",
                      {});
  EXPECT_EQ(R.St, Interpreter::Status::Ok);
  EXPECT_EQ(R.Output, "true true false \n");
}

TEST(InterpreterTest, RunsProgramsNestedToTheParserLimit) {
  // The parser accepts at most Parser::MaxNestingDepth open levels; the
  // recursive evaluator must run any program it accepts. Each source
  // below holds exactly that many at its innermost `1` (the statement and
  // the factor count one level each).
  const unsigned K = Parser::MaxNestingDepth - 2;
  auto Repeat = [](const std::string &S, unsigned N) {
    std::string Out;
    for (unsigned I = 0; I < N; ++I)
      Out += S;
    return Out;
  };
  for (const std::string &Body :
       {Repeat("begin ", K) + "i := 1" + Repeat(" end", K),
        "i := " + Repeat("(", K) + "1" + Repeat(")", K),
        Repeat("if i = 0 then ", K) + "i := 1",
        "i := 1" + Repeat(" * 1", K)}) {
    auto R = runProgram("program p; var i : integer; begin i := 0; " +
                            Body + "; writeln(i) end.",
                        {});
    EXPECT_EQ(R.St, Interpreter::Status::Ok) << Body.substr(0, 40);
    EXPECT_EQ(R.Output, "1 \n") << Body.substr(0, 40);
  }
}

TEST(InterpreterTest, FactorialRecursion) {
  auto R = runProgram("program p; var y : integer;\n"
                      "function f(n : integer) : integer;\n"
                      "begin if n = 0 then f := 1 else f := n * f(n - 1)\n"
                      "end;\n"
                      "begin y := f(5); writeln(y) end.",
                      {});
  EXPECT_EQ(R.St, Interpreter::Status::Ok);
  EXPECT_EQ(R.Output, "120 \n");
}

TEST(InterpreterTest, WhileRepeatFor) {
  auto R = runProgram("program p; var i, s : integer;\n"
                      "begin\n"
                      "  s := 0; i := 0;\n"
                      "  while i < 5 do begin s := s + i; i := i + 1 end;\n"
                      "  repeat s := s + 100 until s > 100;\n"
                      "  for i := 1 to 3 do s := s + 1000;\n"
                      "  for i := 3 downto 5 do s := 0;\n" // empty loop
                      "  writeln(s)\n"
                      "end.",
                      {});
  EXPECT_EQ(R.St, Interpreter::Status::Ok);
  EXPECT_EQ(R.Output, "3110 \n");
}

TEST(InterpreterTest, CaseStatement) {
  auto R = runProgram("program p; var n, x : integer;\n"
                      "begin read(n);\n"
                      "  case n of 1: x := 10; 2, 3: x := 20\n"
                      "  else x := 99 end;\n"
                      "  writeln(x)\n"
                      "end.",
                      {3});
  EXPECT_EQ(R.St, Interpreter::Status::Ok);
  EXPECT_EQ(R.Output, "20 \n");
}

TEST(InterpreterTest, CaseFallthroughIsError) {
  auto R = runProgram("program p; var n, x : integer;\n"
                      "begin read(n); case n of 1: x := 1 end end.",
                      {7});
  EXPECT_EQ(R.St, Interpreter::Status::RuntimeError);
}

TEST(InterpreterTest, VarParamAliasing) {
  auto R = runProgram("program p; var g : integer;\n"
                      "procedure q(var x : integer; var y : integer);\n"
                      "begin x := x + 1; y := y + 1 end;\n"
                      "begin g := 0; q(g, g); writeln(g) end.",
                      {});
  EXPECT_EQ(R.St, Interpreter::Status::Ok);
  EXPECT_EQ(R.Output, "2 \n"); // both formals alias g
}

TEST(InterpreterTest, NonLocalGoto) {
  auto R = runProgram("program p;\n"
                      "label 99;\n"
                      "var g : integer;\n"
                      "procedure q;\n"
                      "begin g := 5; goto 99; g := 7 end;\n"
                      "begin g := 0; q; g := 1; 99: writeln(g) end.",
                      {});
  EXPECT_EQ(R.St, Interpreter::Status::Ok);
  EXPECT_EQ(R.Output, "5 \n");
}

TEST(InterpreterTest, LocalGotoLoop) {
  auto R = runProgram("program p;\n"
                      "label 10, 20;\n"
                      "var i : integer;\n"
                      "begin\n"
                      "  i := 0;\n"
                      "  10: i := i + 1;\n"
                      "  if i < 5 then goto 10;\n"
                      "  goto 20;\n"
                      "  i := 999;\n"
                      "  20: writeln(i)\n"
                      "end.",
                      {});
  EXPECT_EQ(R.St, Interpreter::Status::Ok);
  EXPECT_EQ(R.Output, "5 \n");
}

TEST(InterpreterTest, ArrayBoundError) {
  auto R = runProgram("program p; var T : array [1..10] of integer;\n"
                      "    i : integer;\n"
                      "begin i := 0; T[i] := 1 end.",
                      {});
  EXPECT_EQ(R.St, Interpreter::Status::RuntimeError);
  EXPECT_NE(R.Error.find("out of bounds"), std::string::npos);
}

TEST(InterpreterTest, ArrayBoundUncheckedWraps) {
  auto R = runProgram("program p; var T : array [1..10] of integer;\n"
                      "    i : integer;\n"
                      "begin i := 0; T[i] := 1; writeln(T[10]) end.",
                      {}, /*EnableChecks=*/false);
  // Without checks the store silently wraps (simulated unchecked code).
  EXPECT_EQ(R.St, Interpreter::Status::Ok);
}

TEST(InterpreterTest, SubrangeError) {
  auto R = runProgram("program p; var n : 1..100;\n"
                      "begin read(n) end.",
                      {500});
  EXPECT_EQ(R.St, Interpreter::Status::RuntimeError);
  EXPECT_NE(R.Error.find("out of range"), std::string::npos);
}

TEST(InterpreterTest, DivByZeroError) {
  auto R = runProgram("program p; var i : integer;\n"
                      "begin read(i); i := 10 div i end.",
                      {0});
  EXPECT_EQ(R.St, Interpreter::Status::RuntimeError);
}

TEST(InterpreterTest, StepLimitOnInfiniteLoop) {
  auto R = runProgram(paper::WhileProgram, {1}, true, 10000);
  EXPECT_EQ(R.St, Interpreter::Status::StepLimit);
}

TEST(InterpreterTest, WhileProgramTerminatesWithFalse) {
  auto R = runProgram(paper::WhileProgram, {0}, true, 10000);
  EXPECT_EQ(R.St, Interpreter::Status::Ok);
}

TEST(InterpreterTest, FrameLimitOnRunawayRecursion) {
  auto R = runProgram(paper::SelectProgram, {11}, true, 10000000);
  EXPECT_TRUE(R.St == Interpreter::Status::FrameLimit ||
              R.St == Interpreter::Status::StepLimit);
}

TEST(InterpreterTest, SelectTerminatesBelow10) {
  auto R = runProgram(paper::SelectProgram, {7});
  EXPECT_EQ(R.St, Interpreter::Status::Ok);
  EXPECT_EQ(R.Output, "0 \n");
  R = runProgram(paper::SelectProgram, {10});
  EXPECT_EQ(R.St, Interpreter::Status::Ok);
  EXPECT_EQ(R.Output, "1 \n");
}

TEST(InterpreterTest, InputExhausted) {
  auto R = runProgram("program p; var i : integer; begin read(i) end.", {});
  EXPECT_EQ(R.St, Interpreter::Status::InputExhausted);
}

TEST(InterpreterTest, McCarthyComputes91) {
  for (int64_t N : {0, 50, 99, 100}) {
    auto R = runProgram(paper::McCarthyProgram, {N}, true, 10000000);
    EXPECT_EQ(R.St, Interpreter::Status::Ok) << "n=" << N;
    EXPECT_EQ(R.Output, "91 \n") << "n=" << N;
  }
  auto R = runProgram(paper::McCarthyProgram, {150});
  EXPECT_EQ(R.Output, "140 \n");
}

TEST(InterpreterTest, McCarthyBuggyLoops) {
  auto R = runProgram(paper::McCarthyBuggy, {0}, true, 200000);
  EXPECT_NE(R.St, Interpreter::Status::Ok); // paper: loops for n <= 100
}

TEST(InterpreterTest, BinarySearchFinds) {
  // n=5, key=7, array = 1 3 7 9 11.
  auto R = runProgram(paper::BinarySearchProgram, {5, 7, 1, 3, 7, 9, 11});
  EXPECT_EQ(R.St, Interpreter::Status::Ok);
  EXPECT_EQ(R.Output, "true \n");
  R = runProgram(paper::BinarySearchProgram, {5, 8, 1, 3, 7, 9, 11});
  EXPECT_EQ(R.St, Interpreter::Status::Ok);
  EXPECT_EQ(R.Output, "false \n");
}

std::vector<int64_t> sortInputs(std::vector<int64_t> Values) {
  std::vector<int64_t> Inputs;
  Inputs.push_back(static_cast<int64_t>(Values.size()));
  Inputs.insert(Inputs.end(), Values.begin(), Values.end());
  return Inputs;
}

std::string sortedOutput(std::vector<int64_t> Values) {
  std::sort(Values.begin(), Values.end());
  std::string Out;
  for (int64_t V : Values) {
    Out += std::to_string(V);
    Out += " \n";
  }
  return Out;
}

class SortTest : public ::testing::TestWithParam<const char *> {};

TEST_P(SortTest, SortsCorrectly) {
  std::vector<int64_t> Values = {5, -3, 42, 0, 17, 17, -100, 8};
  auto R = runProgram(GetParam(), sortInputs(Values));
  ASSERT_EQ(R.St, Interpreter::Status::Ok) << R.Error;
  EXPECT_EQ(R.Output, sortedOutput(Values));
}

TEST_P(SortTest, SingleElement) {
  auto R = runProgram(GetParam(), {1, 42});
  ASSERT_EQ(R.St, Interpreter::Status::Ok) << R.Error;
  EXPECT_EQ(R.Output, "42 \n");
}

INSTANTIATE_TEST_SUITE_P(AllSorts, SortTest,
                         ::testing::Values(paper::QuickSortProgram,
                                           paper::HeapSortProgram,
                                           paper::BubbleSortProgram));

} // namespace
