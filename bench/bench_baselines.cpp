//===- bench/bench_baselines.cpp - E6: comparison vs baselines ------------===//
//
// Paper §6.5 compares Syntox against Harrison's 1977 analysis ("computes
// the greatest fixed point of the forward system, which has no semantic
// justification and gives poor results") and discusses the
// context-insensitive fallback of §6.4. This bench prints, per program
// and configuration: checks discharged, range precision (count of finite
// interval bounds), unfolded size and time.
//
// Shape to check: abstract-debugging >= forward-only = check discharge;
// harrison-gfp collapses in range precision; context-insensitive is
// smaller/cheaper but can lose per-site precision.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "baselines/Baselines.h"
#include "cfg/CfgBuilder.h"
#include "frontend/Lexer.h"
#include "frontend/PaperPrograms.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"

#include <cstdio>

using namespace syntox;

static void runProgram(bench::Harness &H, const char *Name,
                       const std::string &Source) {
  AstContext Ctx;
  DiagnosticsEngine Diags;
  Lexer L(Source, Diags);
  Parser P(L.lexAll(), Ctx, Diags);
  RoutineDecl *Prog = P.parseProgram();
  Sema S(Ctx, Diags);
  if (!S.analyze(Prog)) {
    std::printf("%s: frontend error\n", Name);
    return;
  }
  CfgBuilder Builder(Ctx, Diags);
  auto Cfg = Builder.build(Prog);
  std::printf("---- %s ----\n", Name);
  for (const BaselineOutcome &O : runAllBaselines(*Cfg, Prog)) {
    std::printf("  %s\n", O.str().c_str());
    json::Value Row = json::Value::object();
    Row.set("program", Name);
    Row.set("outcome", O.str());
    H.row(std::move(Row));
  }
  std::printf("\n");
}

int main(int argc, char **argv) {
  bench::Harness H("baselines", argc, argv);
  std::printf("==== E6: abstract debugging vs baseline analyses ====\n\n");
  runProgram(H, "BinarySearch", paper::BinarySearchProgram);
  runProgram(H, "HeapSort", paper::HeapSortProgram);
  runProgram(H, "QuickSort", paper::QuickSortProgram);
  runProgram(H, "BubbleSort", paper::BubbleSortProgram);
  runProgram(H, "McCarthy9", paper::mcCarthyK(9));
  runProgram(H, "Ackermann", paper::AckermannProgram);
  H.write();
  return 0;
}
