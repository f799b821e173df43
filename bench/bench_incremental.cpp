//===- bench/bench_incremental.cpp - E-incr: warm-started refinement ------===//
//
// Measures what the warm-start machinery buys across the refinement
// chain: the same programs are analyzed cold (--no-warm-start, every
// round re-iterates every component) and warm (the default; rounds that
// leave a component's inputs unchanged replay its recorded sweeps), and
// the per-round live equation evaluations are compared. On programs
// whose envelope stabilizes after the first round — the common case —
// every round past the first replays almost everything, so the live
// evaluation count for rounds >= 2 must drop by at least 2x. Families:
// the sequential loop chain (wide, loosely coupled) and McCarthy_k (the
// paper's tightly-coupled recursive pathology).
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "core/AbstractDebugger.h"
#include "frontend/PaperPrograms.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace syntox;

namespace {

/// K sequential counting loops over distinct variables (the bench_
/// complexity chain family).
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

/// Live evaluations, replays and wall-clock per refinement round of one
/// completed run.
struct RoundBreakdown {
  uint64_t Evals = 0;        ///< widening + narrowing steps actually run
  uint64_t Skips = 0;        ///< components replayed from the memo
  uint64_t SkippedEvals = 0; ///< evaluations those replays avoided
  double Seconds = 0;
};

std::vector<RoundBreakdown> perRound(const AnalysisStats &S) {
  std::vector<RoundBreakdown> Rounds;
  for (const PhaseStats &P : S.Phases) {
    if (P.Round >= Rounds.size())
      Rounds.resize(P.Round + 1);
    RoundBreakdown &R = Rounds[P.Round];
    R.Evals += P.WideningSteps + P.NarrowingSteps;
    R.Skips += P.ComponentSkips;
    R.SkippedEvals += P.SkippedSteps;
    R.Seconds += P.Seconds;
  }
  return Rounds;
}

void runFamily(bench::Harness &H, const char *Family, unsigned K,
               const std::string &Source, unsigned Rounds) {
  AnalysisOptions Warm = H.options();
  Warm.TerminationGoal = true;
  Warm.BackwardRounds = Rounds;
  Warm.WarmStart = true;
  AnalysisOptions Cold = Warm;
  Cold.WarmStart = false;

  std::string Label = std::string(Family) + "/" + std::to_string(K);
  double ColdSeconds = 0, WarmSeconds = 0;
  auto ColdDbg = H.analyze(Label + "/cold", Source, Cold, &ColdSeconds);
  auto WarmDbg = H.analyze(Label + "/warm", Source, Warm, &WarmSeconds);
  if (!ColdDbg || !WarmDbg)
    return;

  std::vector<RoundBreakdown> ColdRounds = perRound(ColdDbg->stats());
  std::vector<RoundBreakdown> WarmRounds = perRound(WarmDbg->stats());

  std::printf("%s: %u points, cold %.4fs, warm %.4fs\n", Label.c_str(),
              static_cast<unsigned>(ColdDbg->stats().ControlPoints),
              ColdSeconds, WarmSeconds);
  std::printf("%8s %12s %12s %10s %12s %8s\n", "round", "cold evals",
              "warm evals", "replays", "avoided", "factor");
  for (size_t R = 0; R < ColdRounds.size() && R < WarmRounds.size(); ++R) {
    const RoundBreakdown &C = ColdRounds[R];
    const RoundBreakdown &W = WarmRounds[R];
    std::printf("%8zu %12llu %12llu %10llu %12llu ", R,
                static_cast<unsigned long long>(C.Evals),
                static_cast<unsigned long long>(W.Evals),
                static_cast<unsigned long long>(W.Skips),
                static_cast<unsigned long long>(W.SkippedEvals));
    if (W.Evals)
      std::printf("%7.1fx\n", static_cast<double>(C.Evals) / W.Evals);
    else
      std::printf("%8s\n", C.Evals ? "inf" : "-");

    json::Value Row = json::Value::object();
    Row.set("family", Family);
    Row.set("k", K);
    Row.set("round", static_cast<uint64_t>(R));
    Row.set("cold_evals", C.Evals);
    Row.set("warm_evals", W.Evals);
    Row.set("warm_component_skips", W.Skips);
    Row.set("warm_skipped_evals", W.SkippedEvals);
    Row.set("cold_unions", ColdDbg->stats().Unions);
    Row.set("warm_unions", WarmDbg->stats().Unions);
    Row.set("cold_seconds", C.Seconds);
    Row.set("warm_seconds", W.Seconds);
    H.row(std::move(Row));
  }
  std::printf("  summary reuses: %llu (callee instances replayed whole; "
              "see metrics interproc.*)\n\n",
              static_cast<unsigned long long>(
                  WarmDbg->stats().SummaryReuses));
}

} // namespace

int main(int argc, char **argv) {
  bench::Harness H("incremental", argc, argv);
  unsigned Rounds = 4;
  for (const std::string &Arg : H.args())
    if (Arg.rfind("--bench-rounds=", 0) == 0)
      Rounds = H.unsignedFlag<unsigned>(Arg, "--bench-rounds=");
  H.setField("rounds", Rounds);
  H.setField("note", "per-round live evaluations, cold vs warm-started "
                     "refinement chain; factor = cold/warm");

  std::printf("==== E-incr: incremental refinement-chain solving ====\n\n");
  for (unsigned K : {20u, 80u})
    runFamily(H, "loopChain", K, loopChain(K), Rounds);
  for (unsigned K : {6u, 12u})
    runFamily(H, "mcCarthy", K, paper::mcCarthyK(K), Rounds);

  H.write();
  return 0;
}
