//===- bench/BenchSupport.h - Shared benchmark harness ----------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One harness for the benchmark binaries. Every bench accepts the
/// shared analysis/telemetry flags (parseAnalysisFlags: --domain=,
/// --rounds=, --trace=FILE, --trace-format=json|chrome,
/// --metrics-json=FILE, ...) plus
///
///   --out=FILE   machine-readable report path (default BENCH_<name>.json)
///
/// and writes a JSON report holding its table rows, the per-phase
/// breakdown of every analysis routed through the harness, and the
/// metrics snapshot accumulated across them — so successive PRs can
/// track per-phase trajectories, not just end-to-end seconds.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_BENCH_BENCHSUPPORT_H
#define SYNTOX_BENCH_BENCHSUPPORT_H

#include "core/AbstractDebugger.h"
#include "core/AnalysisFlags.h"
#include "core/AnalysisRequest.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace syntox {
namespace bench {

class Harness {
public:
  Harness(const char *BenchName, int Argc, char **Argv)
      : Name(BenchName),
        OutPath(std::string("BENCH_") + BenchName + ".json") {
    std::vector<std::string> Args(Argv + 1, Argv + Argc);
    std::string Error;
    if (!parseAnalysisFlags(Args, BaseOpts, Telem, Error)) {
      std::fprintf(stderr, "bench_%s: %s\n%s", Name.c_str(), Error.c_str(),
                   analysisFlagsHelp());
      std::exit(2);
    }
    for (std::string &Arg : Args) {
      if (Arg.rfind("--out=", 0) == 0) {
        OutPath = Arg.substr(6);
      } else if (Arg == "--help" || Arg == "-h") {
        std::fprintf(stderr,
                     "usage: bench_%s [options]\n"
                     "  --out=FILE           report path (default %s)\n%s",
                     Name.c_str(), OutPath.c_str(), analysisFlagsHelp());
        std::exit(0);
      } else {
        Rest.push_back(std::move(Arg));
      }
    }
    if (Telem.wantsTrace())
      Trace = std::make_unique<TraceRecorder>(Telem.traceMask());
    Rows = json::Value::array();
    Analyses = json::Value::array();
  }

  /// Command-line arguments the shared parser did not consume.
  const std::vector<std::string> &args() const { return Rest; }

  /// The value of the numeric flag \p Arg, which starts with \p Prefix
  /// ("--programs="), read by the checked parseUnsigned: a sign, a
  /// non-digit or a value too wide for \p T exits 2 with a message
  /// instead of aborting or wrapping.
  template <typename T>
  T unsignedFlag(const std::string &Arg, const std::string &Prefix) const {
    T Out = 0;
    std::string Value = Arg.substr(Prefix.size());
    if (!parseUnsigned(Value, Out)) {
      std::fprintf(stderr, "bench_%s: invalid %s'%s'\n", Name.c_str(),
                   Prefix.c_str(), Value.c_str());
      std::exit(2);
    }
    return Out;
  }

  /// The configuration selected on the command line, with the harness
  /// telemetry attached. Copy and adjust per run.
  AnalysisOptions options() {
    AnalysisOptions O = BaseOpts;
    O.Telem.Metrics = &Metrics;
    O.Telem.Trace = Trace.get();
    return O;
  }

  MetricsRegistry &metrics() { return Metrics; }

  /// Creates and analyzes a fresh debugger for \p Source, timing
  /// analyze() and folding the per-phase breakdown into the report
  /// under \p Label. Returns null after printing on frontend errors.
  std::unique_ptr<AbstractDebugger> analyze(const std::string &Label,
                                            const std::string &Source,
                                            const AnalysisOptions &Opts,
                                            double *Seconds = nullptr) {
    DiagnosticsEngine Diags;
    auto Dbg = AbstractDebugger::create(Source, Diags, Opts);
    if (!Dbg) {
      std::printf("%s: frontend error\n%s", Label.c_str(),
                  Diags.str().c_str());
      return nullptr;
    }
    auto Start = std::chrono::steady_clock::now();
    Dbg->analyze();
    double T = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - Start)
                   .count();
    if (Seconds)
      *Seconds = T;
    recordPhases(Label, Dbg->stats(), T);
    return Dbg;
  }

  /// Session-layer counterpart of analyze(): runs \p Source through a
  /// fresh AnalysisSession (the entry path that owns the persistent
  /// CacheDir composition), timing the run and folding the per-phase
  /// breakdown into the report under \p Label. Returns nullopt after
  /// printing on frontend or runtime errors.
  std::optional<AnalysisResult> run(const std::string &Label,
                                    const std::string &Source,
                                    const AnalysisOptions &Opts,
                                    double *Seconds = nullptr) {
    AnalysisRequest R;
    R.Source = Source;
    R.Opts = Opts;
    AnalysisOutcome O = runRequest(std::move(R));
    if (!O.OK) {
      std::printf("%s: %s\n", Label.c_str(), O.Error.c_str());
      return std::nullopt;
    }
    if (Seconds)
      *Seconds = O.Seconds;
    recordPhases(Label, O.Result->stats(), O.Seconds);
    return std::move(O.Result);
  }

  /// Demand-query counterpart of run(): answers \p Spec through a
  /// fresh AnalysisSession (cone-restricted solve; a non-empty
  /// Opts.CacheDir replays the cone from the on-disk cache).
  std::optional<DemandResult> demand(const std::string &Label,
                                     const std::string &Source,
                                     const DemandSpec &Spec,
                                     const AnalysisOptions &Opts,
                                     double *Seconds = nullptr) {
    AnalysisRequest R;
    R.Source = Source;
    R.Opts = Opts;
    R.Query = Spec;
    AnalysisOutcome O = runRequest(std::move(R));
    if (!O.OK) {
      std::printf("%s: %s\n", Label.c_str(), O.Error.c_str());
      return std::nullopt;
    }
    if (Seconds)
      *Seconds = O.Seconds;
    recordPhases(Label, O.Demand->stats(), O.Seconds);
    return std::move(O.Demand);
  }

  /// Appends one per-phase breakdown entry to the report, for benches
  /// that drive the engine (and the stopwatch) themselves.
  void recordPhases(const std::string &Label, const AnalysisStats &S,
                    double Seconds) {
    json::Value E = json::Value::object();
    E.set("label", Label);
    E.set("seconds", Seconds);
    E.set("stats", S.toJson());
    Analyses.push(std::move(E));
  }

  /// Appends one table row to the report.
  void row(json::Value Row) { Rows.push(std::move(Row)); }

  /// Sets an extra top-level field of the report (e.g. a unit note).
  void setField(const std::string &Key, json::Value V) {
    Extra.emplace_back(Key, std::move(V));
  }

  /// Writes BENCH_<name>.json plus any --trace / --metrics-json
  /// outputs. Returns false after printing a message on I/O failure.
  bool write() {
    json::Value Report = json::Value::object();
    Report.set("benchmark", "bench_" + Name);
    // Host provenance: the ROADMAP's deferred multi-core comparisons
    // need reports from different machines to be comparable.
    Report.set("hardware_threads",
               static_cast<int64_t>(std::thread::hardware_concurrency()));
    {
      json::Value Host = json::Value::object();
#if defined(__linux__)
      Host.set("os", "linux");
#elif defined(__APPLE__)
      Host.set("os", "darwin");
#elif defined(_WIN32)
      Host.set("os", "windows");
#else
      Host.set("os", "unknown");
#endif
#if defined(__aarch64__) || defined(_M_ARM64)
      Host.set("arch", "arm64");
#elif defined(__x86_64__) || defined(_M_X64)
      Host.set("arch", "x86_64");
#else
      Host.set("arch", "unknown");
#endif
#if defined(__clang__)
      Host.set("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
      Host.set("compiler", "gcc " __VERSION__);
#else
      Host.set("compiler", "unknown");
#endif
      Report.set("host", std::move(Host));
    }
    for (auto &KV : Extra)
      Report.set(KV.first, std::move(KV.second));
    Report.set("rows", std::move(Rows));
    Report.set("analyses", std::move(Analyses));
    Report.set("metrics", Metrics.snapshot());
    {
      std::ofstream Out(OutPath);
      if (Out)
        Out << Report.pretty() << '\n';
      if (!Out) {
        std::printf("could not write %s\n", OutPath.c_str());
        return false;
      }
    }
    std::printf("\nwrote %s\n", OutPath.c_str());
    std::string Error;
    if (!writeTelemetryOutputs(Trace.get(), &Metrics, Telem, Error)) {
      std::fprintf(stderr, "bench_%s: %s\n", Name.c_str(), Error.c_str());
      return false;
    }
    return true;
  }

private:
  std::string Name;
  std::string OutPath;
  AnalysisOptions BaseOpts;
  TelemetryFlags Telem;
  std::vector<std::string> Rest;
  MetricsRegistry Metrics;
  std::unique_ptr<TraceRecorder> Trace;
  json::Value Rows;
  json::Value Analyses;
  std::vector<std::pair<std::string, json::Value>> Extra;
};

} // namespace bench
} // namespace syntox

#endif // SYNTOX_BENCH_BENCHSUPPORT_H
