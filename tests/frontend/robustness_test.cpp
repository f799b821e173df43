//===- tests/frontend/robustness_test.cpp - Frontend failure injection ----===//
//
// The frontend must never crash, hang, or emit zero diagnostics on bad
// input: random token soup, truncated programs, deeply nested
// expressions, and mutations of valid programs.
//
//===----------------------------------------------------------------------===//

#include "frontend/PaperPrograms.h"
#include "frontend/PrettyPrinter.h"
#include "support/Rng.h"

#include "../common/FrontendTestUtil.h"

#include <gtest/gtest.h>

using namespace syntox;
using namespace syntox::test;

namespace {

TEST(RobustnessTest, EmptyAndTrivialInputs) {
  for (const char *Source : {"", ".", ";", "program", "program ;",
                             "begin end.", "program p", "program p;",
                             "program p; begin", "program p; begin end"}) {
    auto R = runFrontend(Source, /*RunSema=*/false);
    EXPECT_TRUE(R.Diags->hasErrors() || R.Program != nullptr) << Source;
  }
}

TEST(RobustnessTest, TruncatedPrograms) {
  std::string Source = paper::BinarySearchProgram;
  // Cut the program at every 20-byte step; the frontend must survive.
  for (size_t Len = 0; Len < Source.size(); Len += 20) {
    auto R = runFrontend(Source.substr(0, Len));
    // Either it errors or (for tiny prefixes that happen to parse) it
    // produces a tree; never a crash.
    (void)R;
  }
  SUCCEED();
}

TEST(RobustnessTest, RandomTokenSoup) {
  static const char *const Fragments[] = {
      "program", "begin", "end", "if", "then", "else", "while", "do",
      "repeat", "until", "for", "to", "downto", "var", "const", "type",
      "procedure", "function", "label", "goto", "read", "write", "div",
      "mod", "and", "or", "not", "array", "of", "integer", "boolean",
      "p", "q", "x", "i", "42", "0", ":=", "=", "<>", "<", "<=", ">",
      ">=", "(", ")", "[", "]", ",", ";", ":", ".", "..", "+", "-", "*",
      "invariant", "intermittent", "'str'",
  };
  Rng R(20240707);
  for (int Trial = 0; Trial < 300; ++Trial) {
    std::string Source;
    unsigned Len = 1 + R.below(60);
    for (unsigned I = 0; I < Len; ++I) {
      Source += Fragments[R.below(std::size(Fragments))];
      Source += ' ';
    }
    auto Result = runFrontend(Source);
    (void)Result; // must not crash or hang
  }
  SUCCEED();
}

TEST(RobustnessTest, MutatedValidPrograms) {
  Rng R(555);
  const char *Sources[] = {paper::HeapSortProgram, paper::McCarthyProgram,
                           paper::BinarySearchProgram};
  for (const char *Base : Sources) {
    std::string Source = Base;
    for (int Trial = 0; Trial < 60; ++Trial) {
      std::string Mutated = Source;
      switch (R.below(3)) {
      case 0: // delete a chunk
      {
        size_t Pos = R.below(Mutated.size());
        Mutated.erase(Pos, R.below(10) + 1);
        break;
      }
      case 1: // duplicate a chunk
      {
        size_t Pos = R.below(Mutated.size());
        size_t Len = std::min<size_t>(R.below(10) + 1,
                                      Mutated.size() - Pos);
        Mutated.insert(Pos, Mutated.substr(Pos, Len));
        break;
      }
      default: // flip a character
      {
        size_t Pos = R.below(Mutated.size());
        Mutated[Pos] = static_cast<char>('a' + R.below(26));
        break;
      }
      }
      auto Result = runFrontend(Mutated);
      (void)Result; // no crash, no hang
    }
  }
  SUCCEED();
}

TEST(RobustnessTest, DeeplyNestedExpressions) {
  // 200 nested parentheses: well inside Parser::MaxNestingDepth.
  std::string Expr(200, '(');
  Expr += "1";
  Expr += std::string(200, ')');
  auto R = runFrontend("program p; var i : integer; begin i := " + Expr +
                       " end.");
  EXPECT_FALSE(R.Diags->hasErrors());
}

TEST(RobustnessTest, DeeplyNestedStatements) {
  std::string Source = "program p; var i : integer; begin ";
  for (int I = 0; I < 150; ++I)
    Source += "if i = 0 then begin ";
  Source += "i := 1 ";
  for (int I = 0; I < 150; ++I)
    Source += "end ";
  Source += "end.";
  auto R = runFrontend(Source);
  EXPECT_FALSE(R.Diags->hasErrors()) << R.Diags->str();
}

//===----------------------------------------------------------------------===//
// The nesting limit (Parser::MaxNestingDepth)
//===----------------------------------------------------------------------===//

std::string repeat(const std::string &S, unsigned N) {
  std::string Out;
  Out.reserve(S.size() * N);
  for (unsigned I = 0; I < N; ++I)
    Out += S;
  return Out;
}

/// Programs whose deepest point holds exactly \p Depth nesting levels
/// open. The assignment statement holds one level and each expression
/// factor one more, so `i := (((1)))` is 3 + 2 levels deep.
std::string nestedParens(unsigned Depth) {
  return "program p; var i : integer; begin i := " +
         repeat("(", Depth - 2) + "1" + repeat(")", Depth - 2) + " end.";
}
std::string nestedBegins(unsigned Depth) {
  return "program p; begin " + repeat("begin ", Depth) +
         repeat("end ", Depth) + "end.";
}
std::string nestedRoutines(unsigned Depth) {
  std::string Source = "program p; ";
  for (unsigned I = 0; I < Depth; ++I)
    Source += "procedure q" + std::to_string(I) + "; ";
  return Source + repeat("begin end; ", Depth) + "begin end.";
}
/// A flat sum still builds a left-deep tree: each operator is a level.
std::string operatorChain(unsigned Depth) {
  return "program p; var i : integer; begin i := 1" +
         repeat(" + 1", Depth - 2) + " end.";
}

void expectStoppedAtLimit(const std::string &Source) {
  auto R = runFrontend(Source);
  EXPECT_EQ(R.Program, nullptr);
  ASSERT_EQ(R.Diags->errorCount(), 1u) << R.Diags->str().substr(0, 500);
  const std::string &Message = R.Diags->diagnostics().front().Message;
  EXPECT_NE(Message.find("nesting deeper than " +
                         std::to_string(Parser::MaxNestingDepth)),
            std::string::npos)
      << Message;
}

TEST(RobustnessTest, NestingAtTheLimitParsesChecksAndPrints) {
  const unsigned Max = Parser::MaxNestingDepth;
  for (const std::string &Source :
       {nestedParens(Max), nestedBegins(Max), nestedRoutines(Max),
        operatorChain(Max)}) {
    SCOPED_TRACE(Source.substr(0, 80));
    auto R = runFrontend(Source);
    ASSERT_NE(R.Program, nullptr) << R.Diags->str().substr(0, 500);
    EXPECT_FALSE(R.Diags->hasErrors()) << R.Diags->str().substr(0, 500);
    EXPECT_TRUE(R.SemaOk);
    EXPECT_FALSE(printProgram(R.Program).empty());
  }
}

TEST(RobustnessTest, NestingPastTheLimitIsOneDiagnostic) {
  const unsigned Max = Parser::MaxNestingDepth;
  for (const std::string &Source :
       {nestedParens(Max + 1), nestedBegins(Max + 1),
        nestedRoutines(Max + 1), operatorChain(Max + 1)}) {
    SCOPED_TRACE(Source.substr(0, 80));
    expectStoppedAtLimit(Source);
  }
}

TEST(RobustnessTest, HostileNestingStopsInsteadOfCrashing) {
  // Each of these overflowed the stack before the limit existed.
  expectStoppedAtLimit(nestedParens(200000));
  expectStoppedAtLimit(nestedBegins(200000));
  expectStoppedAtLimit(operatorChain(200000));
  expectStoppedAtLimit("program p; var i : integer; begin " +
                       repeat("if i > 0 then ", 100000) + "i := 1 end.");
  expectStoppedAtLimit("program p; var b : boolean; begin b := " +
                       repeat("not ", 200000) + "true end.");
}

TEST(RobustnessTest, ErrorsAlwaysHaveMessages) {
  for (const char *Source :
       {"program p; begin x := 1 end.", "program p; begin i := ( end.",
        "program p; var i : froz; begin end.",
        "program p; begin goto 9 end."}) {
    auto R = runFrontend(Source);
    EXPECT_TRUE(R.Diags->hasErrors()) << Source;
    for (const Diagnostic &D : R.Diags->diagnostics())
      EXPECT_FALSE(D.Message.empty());
  }
}

TEST(RobustnessTest, LongIdentifiersAndNumbers) {
  std::string LongName(500, 'a');
  auto R = runFrontend("program p; var " + LongName +
                       " : integer; begin " + LongName + " := 1 end.");
  EXPECT_FALSE(R.Diags->hasErrors());
}

} // namespace
