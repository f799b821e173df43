//===- perfbench/driver/Harness.h - Shared run scaffolding ------*- C++ -*-===//
///
/// \file
/// What the timed and the traced run share: the command line, the
/// build-fitness gate, launching the daemon with its set-up timing,
/// the answer checks over a window, and the result printer (every
/// metric by name with its unit, then the one-line JSON result).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "Daemon.h"
#include "HostSpeed.h"
#include "Workload.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Command line shared by both binaries:
///   --workload cold|edit|deep  --seed N  --seconds S  --trace 0|1
///   --daemon PATH (syntox_serve)  --out-dir DIR (run files, reports)
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  int Trace = 0;
  std::string DaemonBinary;
  std::string OutDir;
};

/// Parses \p Argv; prints usage and exits 2 on error. Also refuses (exit
/// 2) to time a sanitizer or unoptimised build, or inputs that differ
/// from the recorded ones (recordedInputsFingerprint()), and moves the
/// process into a fresh run directory under OutDir.
RunOptions parseRunOptions(int Argc, char **Argv, const char *Tool);

/// "nproc=4 compiler=GCC 12.2.0 build=Release".
std::string buildInfo();

/// Percentile (\p P in [0, 1]) of \p Values, interpolated linearly
/// between the two nearest ranks, so that it moves smoothly with the
/// sample count.
double percentile(std::vector<double> Values, double P);

/// Median of \p Values: the mean of the two middle ones for an even count.
double median(std::vector<double> Values);

/// Named metrics with units, in insertion order.
class MetricSet {
public:
  void add(const std::string &Name, double Value, const std::string &Unit);
  /// Prints "  name  value unit" lines.
  void print() const;
  /// {"name": {"value": v, "unit": u}, ...}
  std::string json() const;

private:
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Entry> Entries;
};

/// Prints the result line the benchmark contract ends stdout with.
void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const MetricSet &Metrics);

/// Per-response outcome of the answer checks.
struct Answer {
  enum class Kind { Ok, Error, Timeout, Missing, Wrong } K = Kind::Missing;
  double LatencyMs = 0; ///< client clock, send to receipt
  double QueueMs = 0, RunMs = 0, TotalMs = 0; ///< the envelope's timing
};

/// The verdict of every request of a window.
struct AnswerCheck {
  std::vector<Answer> Answers; ///< one per exchange, in send order
  uint64_t Failed = 0;         ///< error + timeout + missing + wrong
  uint64_t InterpreterExits = 0;   ///< concrete runs checked at exit
  uint64_t InterpreterAsserts = 0; ///< concrete runs cut by an assertion
  uint64_t AllSafeChecked = 0;     ///< paper 6.5 programs checked
  std::vector<std::string> Notes;  ///< first few failures, for stderr
};

/// Checks every exchange of \p W against its reference (computed here,
/// outside any timed window, on \p Threads threads).
AnswerCheck checkAnswers(const Window &W, unsigned Threads);

/// A daemon launched for a workload, with the set-up time of every
/// launch: from exec until it answers `ping`, plus priming.
struct Launched {
  std::unique_ptr<Daemon> D;
  std::vector<double> SetupSeconds;
  /// The reference work (HostSpeed.h) timed just before each launch.
  std::vector<HostSample> Before;
};

/// Launches the daemon \p Launches times (each on a fresh cache
/// directory, priming included), keeping the last one running, and times
/// the reference work on \p RefThreads threads before each launch (none
/// for 0). Exits the process (code 1) when the daemon cannot start or
/// priming fails.
Launched launchDaemon(const RunOptions &Opts, Workload &W, unsigned Launches,
                      unsigned RefThreads = 0);

/// The `metrics` admin payload of \p D.
syntox::json::Value daemonMetrics(Daemon &D);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
