//===- bench/bench_complexity.cpp - E5: the §6.3 complexity claim ---------===//
//
// Paper §6.3: the fixpoint complexity is h*n(c+p+l) — at most quadratic —
// but "practice shows that complexity is rarely quadratic", staying near
// linear except for tightly-coupled recursive programs like McCarthy_k.
// Two sweeps:
//   1. sequential loop chains of growing size       -> near-linear time,
//   2. the McCarthy_k generalization for growing k  -> super-linear time
//      (the unfolded size itself grows quadratically with k).
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "core/AbstractDebugger.h"
#include "frontend/PaperPrograms.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace syntox;

namespace {

/// K sequential counting loops over distinct variables.
std::string loopChain(unsigned K) {
  std::string Out = "program gen;\nvar\n";
  for (unsigned I = 0; I < K; ++I)
    Out += "  v" + std::to_string(I) + " : integer;\n";
  Out += "begin\n";
  for (unsigned I = 0; I < K; ++I) {
    std::string V = "v" + std::to_string(I);
    Out += "  " + V + " := 0;\n";
    Out += "  while " + V + " < 100 do " + V + " := " + V + " + 1;\n";
  }
  Out += "  v0 := 0\nend.\n";
  return Out;
}

struct Measurement {
  unsigned Points = 0;
  double Seconds = 0;
  /// A 3-round refinement chain, warm-started vs cold: the `warm`
  /// column is Cold3Seconds / Warm3Seconds.
  double Warm3Seconds = 0;
  double Cold3Seconds = 0;
};

/// Each configuration runs until it has run at least MinRuns times and
/// for at least MinSeconds in all; its row reports the median run. The
/// smallest rows take well under a millisecond, too short for a few
/// runs to outlast the host's noise.
constexpr size_t MinRuns = 5;
constexpr double MinSeconds = 0.05;

double timeOnce(bench::Harness &H, const std::string &Label,
                const std::string &Source,
                const AnalysisOptions &Opts, unsigned *Points) {
  std::vector<double> Runs;
  double Total = 0;
  std::unique_ptr<AbstractDebugger> Last;
  while (Runs.size() < MinRuns || Total < MinSeconds) {
    // A fresh debugger per repetition: an engine runs once.
    DiagnosticsEngine Diags;
    auto Dbg = AbstractDebugger::create(Source, Diags, Opts);
    if (!Dbg) {
      std::printf("frontend error\n%s", Diags.str().c_str());
      return 0;
    }
    auto Start = std::chrono::steady_clock::now();
    Dbg->analyze();
    Runs.push_back(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count());
    Total += Runs.back();
    Last = std::move(Dbg);
  }
  if (Points)
    *Points = static_cast<unsigned>(Last->stats().ControlPoints);
  std::sort(Runs.begin(), Runs.end());
  double Median = Runs[Runs.size() / 2];
  H.recordPhases(Label, Last->stats(), Median);
  return Median;
}

Measurement measure(bench::Harness &H, const std::string &Label,
                    const std::string &Source) {
  Measurement M;
  M.Seconds = timeOnce(H, Label, Source, H.options(), &M.Points);
  AnalysisOptions Chain = H.options();
  Chain.BackwardRounds = 3;
  Chain.WarmStart = true;
  M.Warm3Seconds = timeOnce(H, Label + "/warm3", Source, Chain, nullptr);
  Chain.WarmStart = false;
  M.Cold3Seconds = timeOnce(H, Label + "/cold3", Source, Chain, nullptr);
  return M;
}

void reportRow(bench::Harness &H, const char *Family, unsigned K,
               const Measurement &M) {
  json::Value Row = json::Value::object();
  Row.set("family", Family);
  Row.set("k", K);
  Row.set("points", M.Points);
  Row.set("seconds", M.Seconds);
  Row.set("warm3_seconds", M.Warm3Seconds);
  Row.set("cold3_seconds", M.Cold3Seconds);
  H.row(std::move(Row));
}

} // namespace

int main(int argc, char **argv) {
  bench::Harness H("complexity", argc, argv);
  std::printf("==== E5: analysis complexity (paper 6.3) ====\n\n");

  std::printf("-- Loop chains (expected: near-linear time in size) --\n");
  std::printf("%8s %10s %12s %16s %8s\n", "loops", "points",
              "time (s)", "us per point", "warm");
  for (unsigned K : {5u, 10u, 20u, 40u, 80u, 160u}) {
    Measurement M =
        measure(H, "loopChain/" + std::to_string(K), loopChain(K));
    reportRow(H, "loopChain", K, M);
    std::printf("%8u %10u %12.5f %16.2f %7.2fx\n", K, M.Points,
                M.Seconds, 1e6 * M.Seconds / M.Points,
                M.Cold3Seconds / M.Warm3Seconds);
  }
  std::printf("(a flat us-per-point column = linear scaling)\n\n");

  std::printf("-- McCarthy_k (expected: super-linear, the paper's "
              "pathological case) --\n");
  std::printf("%8s %10s %12s %16s %8s\n", "k", "points", "time (s)",
              "us per point", "warm");
  for (unsigned K : {3u, 6u, 9u, 12u, 18u, 24u, 30u}) {
    Measurement M =
        measure(H, "mcCarthy/" + std::to_string(K), paper::mcCarthyK(K));
    reportRow(H, "mcCarthy", K, M);
    std::printf("%8u %10u %12.5f %16.2f %7.2fx\n", K, M.Points,
                M.Seconds, 1e6 * M.Seconds / M.Points,
                M.Cold3Seconds / M.Warm3Seconds);
  }
  std::printf("(points grow ~quadratically with k: the unfolded call "
              "graph has k+1 instances\n of a body whose size is itself "
              "proportional to k)\n");
  H.write();
  return 0;
}
