//===- tests/frontend/parser_test.cpp - Parser unit tests -----------------===//

#include "frontend/PaperPrograms.h"
#include "frontend/PrettyPrinter.h"

#include "../common/FrontendTestUtil.h"

#include <gtest/gtest.h>

using namespace syntox;
using namespace syntox::test;

namespace {

TEST(ParserTest, MinimalProgram) {
  auto R = runFrontend("program p; begin end.", /*RunSema=*/false);
  ASSERT_NE(R.Program, nullptr);
  EXPECT_FALSE(R.Diags->hasErrors());
  EXPECT_EQ(R.Program->name(), "p");
  EXPECT_TRUE(R.Program->isProgram());
  ASSERT_NE(R.Program->block(), nullptr);
  EXPECT_TRUE(R.Program->block()->Body->body().empty());
}

TEST(ParserTest, ProgramFileParameters) {
  auto R = runFrontend("program p(input, output); begin end.",
                       /*RunSema=*/false);
  ASSERT_NE(R.Program, nullptr);
  EXPECT_FALSE(R.Diags->hasErrors());
}

TEST(ParserTest, VarSectionSharedType) {
  auto R = runFrontend("program p;\n"
                       "var a, b, c : integer;\n"
                       "    d : boolean;\n"
                       "begin end.",
                       /*RunSema=*/false);
  ASSERT_NE(R.Program, nullptr);
  const Block *B = R.Program->block();
  ASSERT_EQ(B->Vars.size(), 4u);
  EXPECT_EQ(B->Vars[0]->name(), "a");
  EXPECT_EQ(B->Vars[2]->name(), "c");
  EXPECT_TRUE(B->Vars[0]->type()->isIntegerLike());
  EXPECT_TRUE(B->Vars[3]->type()->isBoolean());
}

TEST(ParserTest, SubrangeAndArrayTypes) {
  auto R = runFrontend("program p;\n"
                       "type index = 1..100;\n"
                       "var T : array [index] of integer;\n"
                       "    U : array [0..9] of boolean;\n"
                       "    i : index;\n"
                       "begin end.",
                       /*RunSema=*/false);
  ASSERT_NE(R.Program, nullptr);
  EXPECT_FALSE(R.Diags->hasErrors()) << R.Diags->str();
  const Block *B = R.Program->block();
  ASSERT_EQ(B->Vars.size(), 3u);
  const auto *T = dyn_cast<ArrayType>(B->Vars[0]->type());
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->indexLo(), 1);
  EXPECT_EQ(T->indexHi(), 100);
  EXPECT_TRUE(T->elementType()->isIntegerLike());
  const auto *I = dyn_cast<SubrangeType>(B->Vars[2]->type());
  ASSERT_NE(I, nullptr);
  EXPECT_EQ(I->lo(), 1);
  EXPECT_EQ(I->hi(), 100);
}

TEST(ParserTest, ConstFoldingInSubrangeBounds) {
  auto R = runFrontend("program p;\n"
                       "const n = 50; m = -3;\n"
                       "type small = m..n;\n"
                       "var x : small;\n"
                       "begin end.",
                       /*RunSema=*/false);
  EXPECT_FALSE(R.Diags->hasErrors()) << R.Diags->str();
  const auto *S = dyn_cast<SubrangeType>(R.Program->block()->Vars[0]->type());
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->lo(), -3);
  EXPECT_EQ(S->hi(), 50);
}

TEST(ParserTest, EmptySubrangeIsAnError) {
  auto R = runFrontend("program p; type bad = 10..1; begin end.",
                       /*RunSema=*/false);
  EXPECT_TRUE(R.Diags->hasErrors());
}

TEST(ParserTest, RoutineDeclarations) {
  auto R = runFrontend(
      "program p;\n"
      "var g : integer;\n"
      "procedure q(x : integer; var y : integer); begin y := x end;\n"
      "function f(n : integer) : integer; begin f := n end;\n"
      "begin q(1, g) end.",
      /*RunSema=*/false);
  EXPECT_FALSE(R.Diags->hasErrors()) << R.Diags->str();
  const Block *B = R.Program->block();
  ASSERT_EQ(B->Routines.size(), 2u);
  const RoutineDecl *Q = B->Routines[0];
  EXPECT_EQ(Q->name(), "q");
  EXPECT_FALSE(Q->isFunction());
  ASSERT_EQ(Q->params().size(), 2u);
  EXPECT_EQ(Q->params()[0]->varKind(), VarKind::ValueParam);
  EXPECT_EQ(Q->params()[1]->varKind(), VarKind::VarParam);
  const RoutineDecl *F = B->Routines[1];
  EXPECT_TRUE(F->isFunction());
  EXPECT_TRUE(F->resultType()->isIntegerLike());
}

TEST(ParserTest, NestedRoutines) {
  auto R = runFrontend("program p;\n"
                       "procedure outer;\n"
                       "  procedure inner; begin end;\n"
                       "begin inner end;\n"
                       "begin outer end.",
                       /*RunSema=*/false);
  EXPECT_FALSE(R.Diags->hasErrors()) << R.Diags->str();
  const Block *B = R.Program->block();
  ASSERT_EQ(B->Routines.size(), 1u);
  ASSERT_EQ(B->Routines[0]->block()->Routines.size(), 1u);
  EXPECT_EQ(B->Routines[0]->block()->Routines[0]->name(), "inner");
}

TEST(ParserTest, OperatorPrecedence) {
  auto R = runFrontend("program p; var x : boolean; a, b, c : integer;\n"
                       "begin x := a + b * c < a - b div c end.",
                       /*RunSema=*/false);
  EXPECT_FALSE(R.Diags->hasErrors()) << R.Diags->str();
  const auto *Assign =
      cast<AssignStmt>(R.Program->block()->Body->body()[0]);
  // Top node is the comparison.
  const auto *Cmp = dyn_cast<BinaryExpr>(Assign->value());
  ASSERT_NE(Cmp, nullptr);
  EXPECT_EQ(Cmp->op(), BinaryOp::Lt);
  // LHS of < is a + (b * c).
  const auto *Add = dyn_cast<BinaryExpr>(Cmp->lhs());
  ASSERT_NE(Add, nullptr);
  EXPECT_EQ(Add->op(), BinaryOp::Add);
  const auto *Mul = dyn_cast<BinaryExpr>(Add->rhs());
  ASSERT_NE(Mul, nullptr);
  EXPECT_EQ(Mul->op(), BinaryOp::Mul);
}

TEST(ParserTest, BooleanOperatorsParenthesized) {
  // Pascal precedence makes `b and (i < 100)` require the parentheses;
  // our grammar must parse this exactly as Figure 1 writes it.
  auto R = runFrontend("program p; var b : boolean; i : integer;\n"
                       "begin while b and (i < 100) do i := i - 1 end.",
                       /*RunSema=*/false);
  EXPECT_FALSE(R.Diags->hasErrors()) << R.Diags->str();
  const auto *W = cast<WhileStmt>(R.Program->block()->Body->body()[0]);
  const auto *And = dyn_cast<BinaryExpr>(W->cond());
  ASSERT_NE(And, nullptr);
  EXPECT_EQ(And->op(), BinaryOp::And);
}

TEST(ParserTest, IfElseChain) {
  auto R = runFrontend("program p; var n, x : integer;\n"
                       "begin\n"
                       "  if n > 10 then x := 1\n"
                       "  else if n = 10 then x := 2\n"
                       "  else x := 3\n"
                       "end.",
                       /*RunSema=*/false);
  EXPECT_FALSE(R.Diags->hasErrors()) << R.Diags->str();
  const auto *If = cast<IfStmt>(R.Program->block()->Body->body()[0]);
  ASSERT_NE(If->elseStmt(), nullptr);
  EXPECT_TRUE(isa<IfStmt>(If->elseStmt()));
}

TEST(ParserTest, RepeatUntil) {
  auto R = runFrontend("program p; var i : integer;\n"
                       "begin repeat i := i + 1; i := i + 2 until i > 10 end.",
                       /*RunSema=*/false);
  EXPECT_FALSE(R.Diags->hasErrors()) << R.Diags->str();
  const auto *Rep = cast<RepeatStmt>(R.Program->block()->Body->body()[0]);
  EXPECT_EQ(Rep->body().size(), 2u);
}

TEST(ParserTest, ForUpAndDown) {
  auto R = runFrontend("program p; var i : integer;\n"
                       "begin\n"
                       "  for i := 1 to 10 do i := i;\n"
                       "  for i := 10 downto 1 do i := i\n"
                       "end.",
                       /*RunSema=*/false);
  EXPECT_FALSE(R.Diags->hasErrors()) << R.Diags->str();
  const auto &Body = R.Program->block()->Body->body();
  EXPECT_FALSE(cast<ForStmt>(Body[0])->isDownward());
  EXPECT_TRUE(cast<ForStmt>(Body[1])->isDownward());
}

TEST(ParserTest, CaseStatement) {
  auto R = runFrontend("program p; var n, x : integer;\n"
                       "begin\n"
                       "  case n of\n"
                       "    1: x := 1;\n"
                       "    2, 3: x := 2\n"
                       "  else x := 0\n"
                       "  end\n"
                       "end.",
                       /*RunSema=*/false);
  EXPECT_FALSE(R.Diags->hasErrors()) << R.Diags->str();
  const auto *C = cast<CaseStmt>(R.Program->block()->Body->body()[0]);
  ASSERT_EQ(C->arms().size(), 2u);
  EXPECT_EQ(C->arms()[1].Labels, (std::vector<int64_t>{2, 3}));
  ASSERT_NE(C->elseStmt(), nullptr);
}

TEST(ParserTest, LabelsAndGoto) {
  auto R = runFrontend("program p;\n"
                       "label 10, 20;\n"
                       "var i : integer;\n"
                       "begin\n"
                       "  10: i := 0;\n"
                       "  goto 20;\n"
                       "  i := 1;\n"
                       "  20: i := 2\n"
                       "end.",
                       /*RunSema=*/false);
  EXPECT_FALSE(R.Diags->hasErrors()) << R.Diags->str();
  const Block *B = R.Program->block();
  EXPECT_EQ(B->Labels, (std::vector<int64_t>{10, 20}));
  const auto &Body = B->Body->body();
  EXPECT_TRUE(isa<LabeledStmt>(Body[0]));
  EXPECT_TRUE(isa<GotoStmt>(Body[1]));
  EXPECT_EQ(cast<GotoStmt>(Body[1])->label(), 20);
}

TEST(ParserTest, AssertStatements) {
  auto R = runFrontend("program p; var i : integer;\n"
                       "begin\n"
                       "  invariant(i >= 0);\n"
                       "  intermittent(i = 10);\n"
                       "  assert(i < 100)\n"
                       "end.",
                       /*RunSema=*/false);
  EXPECT_FALSE(R.Diags->hasErrors()) << R.Diags->str();
  const auto &Body = R.Program->block()->Body->body();
  ASSERT_EQ(Body.size(), 3u);
  EXPECT_TRUE(cast<AssertStmt>(Body[0])->isInvariant());
  EXPECT_TRUE(cast<AssertStmt>(Body[1])->isIntermittent());
  EXPECT_TRUE(cast<AssertStmt>(Body[2])->isInvariant());
}

TEST(ParserTest, ReadWriteStatements) {
  auto R = runFrontend("program p; var i : integer;\n"
                       "    T : array [1..10] of integer;\n"
                       "begin\n"
                       "  read(i, T[i]);\n"
                       "  writeln('i = ', i)\n"
                       "end.",
                       /*RunSema=*/false);
  EXPECT_FALSE(R.Diags->hasErrors()) << R.Diags->str();
  const auto &Body = R.Program->block()->Body->body();
  EXPECT_EQ(cast<ReadStmt>(Body[0])->targets().size(), 2u);
  EXPECT_EQ(cast<WriteStmt>(Body[1])->values().size(), 2u);
}

TEST(ParserTest, MissingSemicolonRecovers) {
  auto R = runFrontend("program p; var i : integer;\n"
                       "begin\n"
                       "  i := 1\n"
                       "  i := 2\n"
                       "end.",
                       /*RunSema=*/false);
  ASSERT_NE(R.Program, nullptr);
  EXPECT_TRUE(R.Diags->hasErrors());
}

TEST(ParserTest, RealDivisionRejected) {
  auto R = runFrontend("program p; var i : integer; begin i := 4 / 2 end.",
                       /*RunSema=*/false);
  EXPECT_TRUE(R.Diags->hasErrors());
}

TEST(ParserTest, ErrorRecoveryKeepsLaterStatements) {
  auto R = runFrontend("program p; var i : integer;\n"
                       "begin\n"
                       "  i := ;\n" // broken
                       "  i := 2\n" // must still be parsed
                       "end.",
                       /*RunSema=*/false);
  ASSERT_NE(R.Program, nullptr);
  EXPECT_TRUE(R.Diags->hasErrors());
  EXPECT_GE(R.Program->block()->Body->body().size(), 2u);
}

//===----------------------------------------------------------------------===//
// Paper programs and round-tripping
//===----------------------------------------------------------------------===//

class PaperProgramTest : public ::testing::TestWithParam<const char *> {};

TEST_P(PaperProgramTest, ParsesCleanly) {
  auto R = runFrontend(GetParam(), /*RunSema=*/false);
  ASSERT_NE(R.Program, nullptr);
  EXPECT_FALSE(R.Diags->hasErrors()) << R.Diags->str();
  EXPECT_NE(R.Program->tokenHash(), 0u);
}

TEST_P(PaperProgramTest, PrettyPrintRoundTripIsAFixpoint) {
  auto R1 = runFrontend(GetParam(), /*RunSema=*/false);
  ASSERT_NE(R1.Program, nullptr);
  std::string Printed1 = printProgram(R1.Program);
  auto R2 = runFrontend(Printed1, /*RunSema=*/false);
  ASSERT_NE(R2.Program, nullptr) << Printed1 << "\n" << R2.Diags->str();
  EXPECT_FALSE(R2.Diags->hasErrors()) << Printed1 << "\n" << R2.Diags->str();
  std::string Printed2 = printProgram(R2.Program);
  EXPECT_EQ(Printed1, Printed2);
}

INSTANTIATE_TEST_SUITE_P(
    AllPaperPrograms, PaperProgramTest,
    ::testing::Values(paper::ForProgram, paper::ForProgram1ToN,
                      paper::WhileProgram, paper::FactProgram,
                      paper::SelectProgram, paper::IntermittentProgram,
                      paper::IntermittentProgramPlain, paper::McCarthyProgram,
                      paper::McCarthyWithInvariant, paper::McCarthyBuggy,
                      paper::BinarySearchProgram, paper::AckermannProgram,
                      paper::QuickSortProgram, paper::HeapSortProgram,
                      paper::BubbleSortProgram));

TEST(ParserTest, TokenHashIdentifiesTheTokenStream) {
  // The program's identity sees token kinds, identifier and string
  // spellings and integer values, never locations: comments, layout and
  // case (identifiers and keywords are lower-cased) keep it, and any
  // other edit changes it, even one the syntax tree does not show.
  const std::string Base = "program p;\n"
                           "var x, y : integer;\n"
                           "begin\n"
                           "  x := 1;\n"
                           "  y := x + 2;\n"
                           "  writeln('done')\n"
                           "end.\n";
  auto HashOf = [](const std::string &Source) -> uint64_t {
    auto R = runFrontend(Source, /*RunSema=*/false);
    EXPECT_NE(R.Program, nullptr) << Source;
    EXPECT_FALSE(R.Diags->hasErrors()) << Source << R.Diags->str();
    return R.Program ? R.Program->tokenHash() : 0;
  };
  uint64_t H = HashOf(Base);
  EXPECT_NE(H, 0u);

  const char *const Same[] = {
      "{ a comment } program p;\n"
      "var x, y : integer; (* another *)\n"
      "begin\n"
      "  x := 1;\n"
      "  y := x + 2;\n"
      "  writeln('done')\n"
      "end.\n",
      "program p; var x, y : integer;\n\n\nbegin x := 1;\n"
      "\t\ty := x + 2; writeln('done') end.",
      "PROGRAM P;\n"
      "Var X, y : INTEGER;\n"
      "BEGIN\n"
      "  x := 1;\n"
      "  Y := X + 2;\n"
      "  WriteLn('done')\n"
      "End.\n",
  };
  for (const char *Source : Same)
    EXPECT_EQ(HashOf(Source), H) << Source;

  auto Edit = [&](const std::string &From, const std::string &To) {
    std::string Out = Base;
    for (size_t At = Out.find(From); At != std::string::npos;
         At = Out.find(From, At + To.size()))
      Out.replace(At, From.size(), To);
    EXPECT_NE(Out, Base) << From;
    return Out;
  };
  const std::string Differ[] = {
      Edit("x := 1", "x := 3"),     // one literal
      Edit("y", "z"),               // a renamed variable
      Edit("var x, y", "var y, x"), // swapped declarations
      Edit("'done'", "'Done'"),     // a string's spelling
      Edit("x + 2", "(x) + 2"),     // redundant parentheses
  };
  for (const std::string &Source : Differ)
    EXPECT_NE(HashOf(Source), H) << Source;
}

TEST(ParserTest, McCarthyKGenerator) {
  for (unsigned K : {1u, 2u, 9u, 30u}) {
    auto R = runFrontend(paper::mcCarthyK(K), /*RunSema=*/false);
    ASSERT_NE(R.Program, nullptr);
    EXPECT_FALSE(R.Diags->hasErrors()) << "K=" << K << "\n" << R.Diags->str();
  }
}

} // namespace
