//===- bench/bench_ablation.cpp - E7: design-choice ablations -------------===//
//
// Ablates the design points the paper calls out:
//  - narrowing passes (§6.1: without narrowing, widening overshoots;
//    Harrison's lack of narrowing is "extremely costly" in precision),
//  - widening thresholds (§6.1: "more sophisticated widening operators
//    can easily be designed").
// Reported per configuration: precision (finite interval bounds summed
// over the forward solution), solver steps, and time.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "cfg/CfgBuilder.h"
#include "checks/CheckAnalysis.h"
#include "frontend/Lexer.h"
#include "frontend/PaperPrograms.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "semantics/Analyzer.h"

#include <chrono>
#include <cstdio>

using namespace syntox;

namespace {

struct Built {
  AstContext Ctx;
  DiagnosticsEngine Diags;
  RoutineDecl *Prog = nullptr;
  std::unique_ptr<ProgramCfg> Cfg;
};

void build(Built &B, const std::string &Source) {
  Lexer L(Source, B.Diags);
  Parser P(L.lexAll(), B.Ctx, B.Diags);
  B.Prog = P.parseProgram();
  Sema S(B.Ctx, B.Diags);
  S.analyze(B.Prog);
  CfgBuilder Builder(B.Ctx, B.Diags);
  B.Cfg = Builder.build(B.Prog);
}

/// Runs one ablation configuration cold, on its own engine. The
/// component_skips/saved_steps columns count the replays within the
/// run (a later refinement round replaying an earlier one).
void runConfig(bench::Harness &H, const char *Name, const Built &B,
               const char *Label, const AnalysisOptions &Opts) {
  auto Start = std::chrono::steady_clock::now();
  auto An = std::make_unique<Analyzer>(*B.Cfg, B.Prog, Opts);
  An->run();
  double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  H.recordPhases(std::string(Name) + "/" + Label, An->stats(), Seconds);
  const ValueDomain &D = An->storeOps().domain();
  uint64_t FiniteBounds = 0;
  for (unsigned Node = 0; Node < An->graph().numNodes(); ++Node) {
    const AbstractStore &S = An->forwardAt(Node);
    if (S.isBottom())
      continue;
    S.forEachEntry([&](const VarDecl *, const AbsValue &Value) {
      if (!Value.isInt())
        return;
      FiniteBounds += Value.asInt().Lo > D.minValue();
      FiniteBounds += Value.asInt().Hi < D.maxValue();
    });
  }
  uint64_t Steps = 0, Skips = 0, Saved = 0;
  for (const PhaseStats &P : An->stats().Phases) {
    Steps += P.WideningSteps + P.NarrowingSteps;
    Skips += P.ComponentSkips;
    Saved += P.SkippedSteps;
  }
  CheckSummary Checks = CheckAnalysis(*An).summary();
  std::printf("  %-34s precision: %6llu finite bounds, checks: %u/%u "
              "safe, steps: %7llu, time: %.4fs\n",
              Label, (unsigned long long)FiniteBounds,
              Checks.Safe + Checks.Unreachable, Checks.Total,
              (unsigned long long)Steps, Seconds);
  json::Value Row = json::Value::object();
  Row.set("program", Name);
  Row.set("config", Label);
  Row.set("domain", domainKindName(Opts.Domain));
  Row.set("finite_bounds", FiniteBounds);
  Row.set("checks_safe", Checks.Safe + Checks.Unreachable);
  Row.set("checks_total", Checks.Total);
  Row.set("steps", Steps);
  Row.set("seconds", Seconds);
  Row.set("component_skips", Skips);
  Row.set("saved_steps", Saved);
  H.row(std::move(Row));
}

void ablate(bench::Harness &H, const char *Name, const std::string &Source) {
  Built B;
  build(B, Source);
  if (B.Diags.hasErrors()) {
    std::printf("%s: frontend error\n", Name);
    return;
  }
  std::printf("---- %s ----\n", Name);

  AnalysisOptions Base = H.options();
  runConfig(H, Name, B, "recursive strategy (default)", Base);

  AnalysisOptions NoNarrow = Base;
  NoNarrow.NarrowingPasses = 0;
  runConfig(H, Name, B, "no narrowing (overshoots)", NoNarrow);

  AnalysisOptions TwoNarrow = Base;
  TwoNarrow.NarrowingPasses = 2;
  runConfig(H, Name, B, "two narrowing passes", TwoNarrow);

  AnalysisOptions Thresholds = Base;
  Thresholds.WideningThresholds = {-1, 0, 1, 10, 100, 101};
  runConfig(H, Name, B, "threshold widening {0,1,10,100,...}", Thresholds);

  AnalysisOptions Rounds = Base;
  Rounds.BackwardRounds = 2;
  runConfig(H, Name, B, "two backward/forward rounds", Rounds);

  // The domain dimension.
  AnalysisOptions Congr = Base;
  Congr.Domain = DomainKind::Congruence;
  runConfig(H, Name, B, "congruence domain (aZ+b)", Congr);

  AnalysisOptions Product = Base;
  Product.Domain = DomainKind::Product;
  runConfig(H, Name, B, "product domain (interval x congr)", Product);

  std::printf("\n");
}

} // namespace

int main(int argc, char **argv) {
  bench::Harness H("ablation", argc, argv);
  std::printf("==== E7: design-choice ablations ====\n\n");
  ablate(H, "McCarthy9", paper::mcCarthyK(9));
  ablate(H, "HeapSort", paper::HeapSortProgram);
  ablate(H, "BinarySearch", paper::BinarySearchProgram);
  ablate(H, "Intermittent", paper::IntermittentProgram);
  ablate(H, "StrideSearch", paper::StrideSearchProgram);
  ablate(H, "StrideSort", paper::StrideSortProgram);
  std::printf("Shape: narrowing recovers the precision widening gives up "
              "(no-narrowing has\nfewer finite bounds); thresholds never "
              "hurt.\n");
  H.write();
  return 0;
}
