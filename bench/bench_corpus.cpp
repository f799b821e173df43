//===- bench/bench_corpus.cpp - Corpus throughput benchmark ---------------===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis-server load generator: a randomized corpus (plain,
/// goto-heavy, deep-unfolding and aliasing-heavy families, round-robin)
/// pushed through mixed cold / warm / edit traffic, sequentially and
/// through AnalysisBatch. Reports aggregate programs/sec and p50/p99
/// per-request latency per wave, and checks that every batch wave's
/// findings are bitwise-identical to the sequential run of the same
/// traffic.
///
/// Sequential and batch waves use disjoint per-program disk-cache trees,
/// both copied from one prime pass, so warm and edit waves start from
/// identical cache state on both sides.
///
/// A sequential wave of 200 small programs lasts about a tenth of a
/// second, short enough for host noise to swing one run by half. Every
/// wave therefore runs three times, each run from the same cache state,
/// and its row reports the run with the median wall time; the aggregate
/// speedup comes from those medians.
///
/// Extra flags (beyond the shared analysis/telemetry set):
///   --programs=N   corpus size          (default 200)
///   --batch=K      batch pool workers   (default 4)
///   --seed=S       corpus base seed     (default 7001)
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "core/AnalysisBatch.h"
#include "core/AnalysisSession.h"

#include "../tests/common/RandomProgramGen.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace syntox;
using test::ProgramGenerator;

namespace {

struct CorpusProgram {
  std::string Name;
  uint64_t Seed = 0;
  std::string Source;
  std::string SeqDir;   ///< disk-cache dir for sequential waves
  std::string BatchDir; ///< disk-cache dir for batch waves
};

enum class DirUse { None, Seq, Batch };

std::vector<CorpusProgram> buildCorpus(unsigned N, uint64_t BaseSeed) {
  static const ProgramGenerator::Family Fams[] = {
      ProgramGenerator::Family::Plain,
      ProgramGenerator::Family::GotoHeavy,
      ProgramGenerator::Family::DeepUnfolding,
      ProgramGenerator::Family::AliasingHeavy,
  };
  std::vector<CorpusProgram> Corpus;
  Corpus.reserve(N);
  for (unsigned I = 0; I < N; ++I) {
    CorpusProgram P;
    ProgramGenerator::Family F = Fams[I % 4];
    P.Seed = BaseSeed + I;
    P.Name = std::string(ProgramGenerator::familyName(F)) + "-" +
             std::to_string(P.Seed);
    ProgramGenerator G(P.Seed, /*WithAssertions=*/true);
    P.Source = G.generate(F);
    Corpus.push_back(std::move(P));
  }
  return Corpus;
}

/// The findings document minus its timing-dependent members — the
/// bitwise-comparison payload (verdict, conditions, invariant warnings,
/// check classifications).
json::Value findingsOnly(const AnalysisResult &R) {
  json::Value Full = R.toJson();
  json::Value V = json::Value::object();
  for (const auto &KV : Full.members())
    if (KV.first != "stats" && KV.first != "metrics")
      V.set(KV.first, KV.second);
  return V;
}

double percentile(std::vector<double> Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  std::sort(Sorted.begin(), Sorted.end());
  size_t Idx = static_cast<size_t>(P * (Sorted.size() - 1) + 0.5);
  return Sorted[std::min(Idx, Sorted.size() - 1)];
}

struct WaveResult {
  double Seconds = 0.0;
  std::vector<double> PerRequest;    ///< per-program run seconds
  std::vector<json::Value> Findings; ///< per-program findings-only doc
  bool OK = true;
};

const std::string &dirFor(const CorpusProgram &P, DirUse Use) {
  static const std::string Empty;
  switch (Use) {
  case DirUse::Seq:
    return P.SeqDir;
  case DirUse::Batch:
    return P.BatchDir;
  default:
    return Empty;
  }
}

/// Sequential reference: one AnalysisSession per program, created and
/// run back to back on this thread. The wave times what a batch's
/// runAll() does: each session's creation and run. Rendering the
/// findings and destroying the sessions happen after the clock stops,
/// as they do for the batch.
WaveResult runSequential(const std::vector<CorpusProgram> &Corpus,
                         const AnalysisOptions &Base, DirUse Use) {
  WaveResult W;
  // One registry for the whole wave, as a batch records into its own.
  MetricsRegistry Metrics;
  std::vector<std::unique_ptr<AnalysisSession>> Sessions;
  std::vector<AnalysisResult> Results;
  auto WaveStart = std::chrono::steady_clock::now();
  for (const CorpusProgram &P : Corpus) {
    AnalysisOptions Opts = Base;
    Opts.Telem.Metrics = &Metrics;
    Opts.CacheDir = dirFor(P, Use);
    DiagnosticsEngine Diags;
    auto Session = AnalysisSession::create(P.Source, Diags, Opts);
    if (!Session) {
      std::printf("%s: frontend error\n%s", P.Name.c_str(),
                  Diags.str().c_str());
      W.OK = false;
      continue;
    }
    auto Start = std::chrono::steady_clock::now();
    Results.push_back(Session->run());
    W.PerRequest.push_back(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - Start)
                               .count());
    Sessions.push_back(std::move(Session));
  }
  W.Seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - WaveStart)
                  .count();
  for (const AnalysisResult &R : Results)
    W.Findings.push_back(findingsOnly(R));
  return W;
}

/// Batch execution on one request pool of \p BatchSlots workers. add()
/// only queues, so the timed runAll() creates and runs every session.
WaveResult runBatch(const std::vector<CorpusProgram> &Corpus,
                    const AnalysisOptions &Base, DirUse Use,
                    unsigned BatchSlots) {
  WaveResult W;
  AnalysisBatch::Config Cfg;
  Cfg.TotalThreads = BatchSlots;
  AnalysisBatch Batch(Cfg);
  for (const CorpusProgram &P : Corpus) {
    AnalysisOptions Opts = Base;
    Opts.CacheDir = dirFor(P, Use);
    Batch.add(P.Source, std::move(Opts));
  }
  auto WaveStart = std::chrono::steady_clock::now();
  std::vector<AnalysisBatch::Outcome> Outcomes = Batch.runAll();
  W.Seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - WaveStart)
                  .count();
  for (AnalysisBatch::Outcome &O : Outcomes) {
    if (!O.OK) {
      std::printf("request %u failed: %s\n", O.Index, O.Error.c_str());
      W.OK = false;
      continue;
    }
    W.PerRequest.push_back(O.Seconds);
    W.Findings.push_back(findingsOnly(*O.Result));
  }
  return W;
}

/// The run with the median wall time.
WaveResult medianRun(std::vector<WaveResult> Runs) {
  std::sort(Runs.begin(), Runs.end(),
            [](const WaveResult &A, const WaveResult &B) {
              return A.Seconds < B.Seconds;
            });
  return std::move(Runs[Runs.size() / 2]);
}

bool sameFindings(const WaveResult &A, const WaveResult &B) {
  if (A.Findings.size() != B.Findings.size())
    return false;
  for (size_t I = 0; I < A.Findings.size(); ++I)
    if (!(A.Findings[I] == B.Findings[I]))
      return false;
  return true;
}

json::Value waveRow(const char *Wave, const char *Mode, const WaveResult &W,
                    int MatchesSeq /* -1 = not applicable */) {
  json::Value Row = json::Value::object();
  Row.set("wave", Wave);
  Row.set("mode", Mode);
  Row.set("programs", static_cast<uint64_t>(W.PerRequest.size()));
  Row.set("seconds", W.Seconds);
  Row.set("programs_per_sec",
          W.Seconds > 0 ? W.PerRequest.size() / W.Seconds : 0.0);
  Row.set("p50_ms", percentile(W.PerRequest, 0.50) * 1e3);
  Row.set("p99_ms", percentile(W.PerRequest, 0.99) * 1e3);
  if (MatchesSeq >= 0)
    Row.set("matches_sequential", MatchesSeq != 0);
  return Row;
}

void printWave(const char *Wave, const char *Mode, const WaveResult &W,
               int MatchesSeq) {
  std::printf("  %-5s %-5s %5zu prog %8.2fs %8.1f prog/s  p50 %7.2fms  "
              "p99 %7.2fms%s\n",
              Wave, Mode, W.PerRequest.size(), W.Seconds,
              W.Seconds > 0 ? W.PerRequest.size() / W.Seconds : 0.0,
              percentile(W.PerRequest, 0.50) * 1e3,
              percentile(W.PerRequest, 0.99) * 1e3,
              MatchesSeq < 0    ? ""
              : MatchesSeq != 0 ? "  ==seq"
                                : "  MISMATCH");
}

} // namespace

int main(int argc, char **argv) {
  bench::Harness H("corpus", argc, argv);

  unsigned Programs = 200;
  unsigned BatchSlots = 4;
  uint64_t Seed = 7001;
  for (const std::string &Arg : H.args()) {
    if (Arg.rfind("--programs=", 0) == 0)
      Programs = H.unsignedFlag<unsigned>(Arg, "--programs=");
    else if (Arg.rfind("--batch=", 0) == 0)
      BatchSlots = H.unsignedFlag<unsigned>(Arg, "--batch=");
    else if (Arg.rfind("--seed=", 0) == 0)
      Seed = H.unsignedFlag<uint64_t>(Arg, "--seed=");
    else {
      std::fprintf(stderr, "bench_corpus: unknown flag %s\n", Arg.c_str());
      return 2;
    }
  }

  unsigned Cores = std::thread::hardware_concurrency();
  std::printf("== corpus throughput: %u programs, %u-way batch, %u cores "
              "==\n\n",
              Programs, BatchSlots, Cores);
  if (Cores < 2)
    std::printf("  note: single hardware thread — batch waves measure "
                "scheduling overhead only;\n  wall-clock speedup needs "
                ">= 2 cores.\n\n");

  std::vector<CorpusProgram> Corpus = buildCorpus(Programs, Seed);

  namespace fs = std::filesystem;
  fs::path CacheRoot = fs::temp_directory_path() / "syntox_bench_corpus";
  std::error_code EC;
  fs::remove_all(CacheRoot, EC);
  for (size_t I = 0; I < Corpus.size(); ++I) {
    fs::path Seq = CacheRoot / "seq" / ("p" + std::to_string(I));
    fs::path Bat = CacheRoot / "batch" / ("p" + std::to_string(I));
    fs::create_directories(Seq, EC);
    fs::create_directories(Bat, EC);
    Corpus[I].SeqDir = Seq.string();
    Corpus[I].BatchDir = Bat.string();
  }

  AnalysisOptions Base = H.options();
  // Per-wave registries are wired by the runners; the harness registry
  // would smear counters across waves.
  Base.Telem.Metrics = nullptr;
  bool AllMatch = true;
  bool AllOk = true;

  // Every wave runs WaveRuns times, sequential and batch alternating,
  // each run after Restore() has put back the cache state the wave
  // starts from; a batch run must match the sequential run before it.
  const unsigned WaveRuns = 3;
  fs::path Snapshot = CacheRoot / "snapshot";
  auto Restore = [&]() {
    for (const char *Tree : {"seq", "batch"}) {
      fs::remove_all(CacheRoot / Tree, EC);
      fs::copy(Snapshot, CacheRoot / Tree, fs::copy_options::recursive, EC);
      if (EC)
        std::printf("  warning: cache-tree restore failed: %s\n",
                    EC.message().c_str());
    }
  };
  auto Wave = [&](const char *Name, DirUse Seq, DirUse Batch,
                  const std::function<void()> &Before) {
    std::vector<WaveResult> SeqRuns, BatchRuns;
    bool Match = true;
    for (unsigned Run = 0; Run < WaveRuns; ++Run) {
      Before();
      SeqRuns.push_back(runSequential(Corpus, Base, Seq));
      BatchRuns.push_back(runBatch(Corpus, Base, Batch, BatchSlots));
      Match &= sameFindings(SeqRuns.back(), BatchRuns.back());
      AllOk &= SeqRuns.back().OK && BatchRuns.back().OK;
    }
    WaveResult S = medianRun(std::move(SeqRuns));
    WaveResult B = medianRun(std::move(BatchRuns));
    printWave(Name, "seq", S, -1);
    H.row(waveRow(Name, "seq", S, -1));
    printWave(Name, "batch", B, Match);
    H.row(waveRow(Name, "batch", B, Match));
    AllMatch &= Match;
    return std::make_pair(S.Seconds, B.Seconds);
  };

  // Wave 1: cold traffic, no disk cache.
  auto Cold = Wave("cold", DirUse::None, DirUse::None, [] {});

  // Prime the sequential cache tree (each run into an empty one), then
  // keep it as the state the warm wave starts from on both sides.
  std::vector<WaveResult> PrimeRuns;
  for (unsigned Run = 0; Run < WaveRuns; ++Run) {
    fs::remove_all(CacheRoot / "seq", EC);
    for (const CorpusProgram &P : Corpus)
      fs::create_directories(P.SeqDir, EC);
    PrimeRuns.push_back(runSequential(Corpus, Base, DirUse::Seq));
    AllOk &= PrimeRuns.back().OK;
  }
  WaveResult Prime = medianRun(std::move(PrimeRuns));
  printWave("prime", "seq", Prime, -1);
  H.row(waveRow("prime", "seq", Prime, -1));
  fs::copy(CacheRoot / "seq", Snapshot, fs::copy_options::recursive, EC);
  if (EC)
    std::printf("  warning: cache-tree snapshot failed: %s\n",
                EC.message().c_str());

  // Wave 2: warm traffic — unchanged programs replay from disk.
  auto Warm = Wave("warm", DirUse::Seq, DirUse::Batch, Restore);

  // Wave 3: edit traffic — every program mutated once (a keystroke),
  // re-analyzed with its disk cache: the old file belongs to another
  // program, so each run solves cold and saves. Every run starts from
  // the cache state the warm wave left.
  fs::remove_all(Snapshot, EC);
  fs::copy(CacheRoot / "seq", Snapshot, fs::copy_options::recursive, EC);
  for (size_t I = 0; I < Corpus.size(); ++I) {
    ProgramGenerator G(Seed + 100000 + I);
    Corpus[I].Source = G.mutate(std::move(Corpus[I].Source));
  }
  auto Edit = Wave("edit", DirUse::Seq, DirUse::Batch, Restore);

  double SeqTotal = Cold.first + Warm.first + Edit.first;
  double BatchTotal = Cold.second + Warm.second + Edit.second;
  std::printf("\n  aggregate (cold+warm+edit): seq %.2fs, batch %.2fs "
              "(%.2fx)\n",
              SeqTotal, BatchTotal,
              BatchTotal > 0 ? SeqTotal / BatchTotal : 0.0);
  std::printf("  findings: %s\n",
              AllMatch ? "batch == sequential on every wave"
                       : "BATCH/SEQUENTIAL MISMATCH");

  H.setField("programs", Programs);
  H.setField("batch_slots", BatchSlots);
  H.setField("hardware_threads", Cores);
  H.setField("batch_matches_sequential", AllMatch);
  H.setField("aggregate_speedup",
             BatchTotal > 0 ? SeqTotal / BatchTotal : 0.0);
  H.setField("wave_runs", WaveRuns);
  H.setField("note", "programs/sec per wave, the median of wave_runs "
                     "runs; batch waves run on one request pool of "
                     "batch_slots workers, each request solved serially; "
                     "single-core hosts cannot show wall-clock speedup");

  fs::remove_all(CacheRoot, EC);

  if (!H.write())
    return 1;
  return (AllMatch && AllOk) ? 0 : 1;
}
