//===- bench/bench_persist.cpp - E-persist: on-disk warm-start cache ------===//
//
// Measures the persistent warm-start cache end to end, through the same
// AnalysisSession entry point the CLI uses (the session layer owns the
// CacheDir composition). Three scenarios per program family:
//
//   cold       first run against an empty cache directory (pays the
//              full fixpoint plus the serialization cost),
//   persisted  a fresh process-equivalent rerun of the *unchanged*
//              program against the populated cache — every component
//              must replay, so live evaluations drop to 0,
//   edited     one routine of the program is edited; a cache file
//              replays only into the program that wrote it, so the
//              rerun falls back and pays what the edited-cold row (the
//              no-cache baseline for the same edited source) pays.
//
// Families: procChain(K) (K independent procedures) and McCarthy_k
// (mutually dependent recursion).
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "frontend/PaperPrograms.h"

#include <cstdio>
#include <filesystem>
#include <string>

using namespace syntox;

namespace {

/// K procedures, each a self-contained counting loop over a var
/// parameter, called in sequence from the main body.
std::string procChain(unsigned K, unsigned EditedProc = ~0u) {
  std::string Out = "program gen;\nvar\n";
  for (unsigned I = 0; I < K; ++I)
    Out += "  g" + std::to_string(I) + " : integer;\n";
  for (unsigned I = 0; I < K; ++I) {
    std::string P = std::to_string(I);
    // The edit: a different loop bound in one procedure.
    std::string Bound = I == EditedProc ? "60" : "100";
    Out += "procedure p" + P + "(var x : integer);\n";
    Out += "var i : integer;\nbegin\n";
    Out += "  i := 0;\n";
    Out += "  while i < " + Bound + " do begin\n";
    Out += "    i := i + 1;\n";
    Out += "    x := i\n";
    Out += "  end\nend;\n";
  }
  Out += "begin\n";
  for (unsigned I = 0; I < K; ++I) {
    std::string P = std::to_string(I);
    Out += "  g" + P + " := 0;\n  p" + P + "(g" + P + ");\n";
  }
  Out += "  g0 := 0\nend.\n";
  return Out;
}

struct RunNumbers {
  uint64_t LiveEvals = 0;
  uint64_t Skips = 0;
  uint64_t SkippedEvals = 0;
  double Seconds = 0;
};

RunNumbers numbersOf(const AnalysisStats &S, double Seconds) {
  RunNumbers N;
  N.Seconds = Seconds;
  for (const PhaseStats &P : S.Phases) {
    N.LiveEvals += P.WideningSteps + P.NarrowingSteps;
    N.Skips += P.ComponentSkips;
    N.SkippedEvals += P.SkippedSteps;
  }
  return N;
}

RunNumbers scenario(bench::Harness &H, const std::string &Label,
                    const std::string &Source, const std::string &CacheDir) {
  AnalysisOptions Opts = H.options();
  Opts.CacheDir = CacheDir;
  double Seconds = 0;
  auto R = H.run(Label, Source, Opts, &Seconds);
  if (!R)
    return RunNumbers();
  return numbersOf(R->stats(), Seconds);
}

void runFamily(bench::Harness &H, const char *Family, unsigned K,
               const std::string &Source, const std::string &Edited) {
  namespace fs = std::filesystem;
  fs::path Dir =
      fs::temp_directory_path() / ("syntox_bench_persist_" + std::string(Family));
  std::error_code EC;
  fs::remove_all(Dir, EC);
  fs::create_directories(Dir, EC);

  std::string Label = std::string(Family) + "/" + std::to_string(K);
  RunNumbers Cold = scenario(H, Label + "/cold", Source, Dir.string());
  RunNumbers Persisted =
      scenario(H, Label + "/persisted", Source, Dir.string());
  RunNumbers EditedWarm =
      scenario(H, Label + "/edited", Edited, Dir.string());
  RunNumbers EditedCold = scenario(H, Label + "/edited-cold", Edited, "");

  std::printf("%s:\n", Label.c_str());
  std::printf("  %-12s %12s %10s %12s %10s\n", "scenario", "live evals",
              "replays", "avoided", "seconds");
  auto Line = [](const char *Name, const RunNumbers &N) {
    std::printf("  %-12s %12llu %10llu %12llu %10.4f\n", Name,
                (unsigned long long)N.LiveEvals,
                (unsigned long long)N.Skips,
                (unsigned long long)N.SkippedEvals, N.Seconds);
  };
  Line("cold", Cold);
  Line("persisted", Persisted);
  Line("edited", EditedWarm);
  Line("edited-cold", EditedCold);
  if (Persisted.LiveEvals == 0)
    std::printf("  unchanged rerun: full replay (0 live evaluations)\n");
  if (EditedWarm.LiveEvals == EditedCold.LiveEvals)
    std::printf("  edited rerun: fell back, a cold solve\n");
  std::printf("\n");

  json::Value Row = json::Value::object();
  Row.set("family", Family);
  Row.set("k", K);
  Row.set("cold_evals", Cold.LiveEvals);
  Row.set("persisted_evals", Persisted.LiveEvals);
  Row.set("persisted_replays", Persisted.Skips);
  Row.set("persisted_avoided", Persisted.SkippedEvals);
  Row.set("edited_evals", EditedWarm.LiveEvals);
  Row.set("edited_cold_evals", EditedCold.LiveEvals);
  Row.set("cold_seconds", Cold.Seconds);
  Row.set("persisted_seconds", Persisted.Seconds);
  Row.set("edited_seconds", EditedWarm.Seconds);
  Row.set("edited_cold_seconds", EditedCold.Seconds);
  H.row(std::move(Row));

  fs::remove_all(Dir, EC);
}

} // namespace

int main(int argc, char **argv) {
  bench::Harness H("persist", argc, argv);
  std::printf("==== E-persist: on-disk warm-start cache ====\n\n");
  H.setField("note",
             json::Value("persisted_evals must be 0: the unchanged rerun "
                         "replays every component from disk; "
                         "edited_evals equals edited_cold_evals: an "
                         "edited program never loads the old file"));
  for (unsigned K : {4u, 8u, 16u})
    runFamily(H, "procchain", K, procChain(K),
              procChain(K, /*EditedProc=*/0));
  runFamily(H, "mccarthy", 9, paper::mcCarthyK(9), paper::mcCarthyK(8));
  H.write();
  return 0;
}
