//===- perfbench/driver/timed.cpp - The timed (untraced) run --------------===//
///
/// \file
/// One timed run of a workload against a syntox_serve child: set-up
/// (launch until `ping` answers, plus priming) several times, then a
/// closed-loop window of load periods, each followed by the reference
/// work of HostSpeed.h while nothing is in flight, then the answer
/// checks. The metrics are taken over the load periods the hypervisor
/// stole least from, --seconds of them, with their times scaled to the
/// reference host. Prints every end-to-end metric with its unit, then
/// the same figures as measured, the daemon counters over the window,
/// and the one-line JSON result. Exits 1 on any wrong or missing answer,
/// 3 when the load generator itself was the bottleneck or the daemon
/// kept working while the reference work ran.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "HostSpeed.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace syntox;

/// Load between two timings of the reference work.
static constexpr double LoadPeriodSeconds = 0.5;
/// A period in which the hypervisor stole more than this share of the
/// processors' time is not clean. /proc/stat counts steal in clock
/// ticks, and a single tick in a period already stretches its latency
/// tail by up to 15%, so a clean period has none.
static constexpr double MaxStealShare = 0;
/// The window ends once it holds --seconds of clean periods, or after
/// this many times --seconds of load.
static constexpr double MaxWindowFactor = 2.5;

/// Steal time of all CPUs so far (/proc/stat), in ms: time the
/// hypervisor gave this machine's processors to something else.
static double stealMs() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  unsigned long long Fields[8] = {};
  In >> Cpu;
  for (unsigned long long &F : Fields)
    In >> F;
  return Fields[7] * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// One load period and the reference work that follows it.
struct Period {
  double Seconds = 0;     ///< first send to last receipt
  double DaemonCpuMs = 0; ///< daemon CPU over the load
  double StealShare = 0;  ///< steal over the load / processor time
  size_t Begin = 0, End = 0; ///< the period's exchanges
  HostSample After;          ///< the reference work after it
};

int main(int Argc, char **Argv) {
  RunOptions Opts = parseRunOptions(Argc, Argv, "perfbench");
  std::unique_ptr<Workload> W = Workload::create(Opts.Workload, Opts.Seed);
  unsigned Threads = std::max(1u, std::thread::hardware_concurrency());

  // Set-up is timed on several launches; the window runs on the last.
  Launched L =
      launchDaemon(Opts, *W, Opts.Workload == "edit" ? 5 : 15, Threads);
  json::Value Before = daemonMetrics(*L.D);
  Window Win;
  std::vector<Period> Periods;
  double CleanSeconds = 0, LoadSeconds = 0, RefCpuMs = 0;
  while (CleanSeconds < Opts.Seconds &&
         LoadSeconds < MaxWindowFactor * Opts.Seconds && !Win.Broken) {
    Period P;
    double Cpu0 = L.D->cpuMs(), Steal0 = stealMs();
    Window Part = runClosedLoop(L.D->connection(), *W, W->outstanding(),
                                LoadPeriodSeconds);
    double Cpu1 = L.D->cpuMs(), Steal1 = stealMs();
    P.After = referenceWork(Threads);
    RefCpuMs += L.D->cpuMs() - Cpu1;
    P.DaemonCpuMs = Cpu1 - Cpu0;
    P.Seconds = Part.Seconds;
    P.StealShare = P.Seconds > 0
                       ? (Steal1 - Steal0) / (1000 * P.Seconds * Threads)
                       : 0;
    P.Begin = Win.Exchanges.size();
    for (Exchange &E : Part.Exchanges)
      Win.Exchanges.push_back(std::move(E));
    P.End = Win.Exchanges.size();
    Win.ClientCpuSeconds += Part.ClientCpuSeconds;
    Win.Broken = Part.Broken;
    LoadSeconds += P.Seconds;
    if (P.StealShare <= MaxStealShare)
      CleanSeconds += P.Seconds;
    Periods.push_back(P);
  }
  Win.Seconds = LoadSeconds;
  json::Value After = daemonMetrics(*L.D);
  double PeakRssMb = L.D->peakRssMb();
  L.D.reset();
  std::error_code EC;
  std::filesystem::remove_all(CacheDir, EC);

  // Every answer is checked; the timing metrics come from the periods
  // stolen from least, --seconds of them: the clean ones, unless the
  // host never calmed down for long enough.
  AnswerCheck Check = checkAnswers(Win, Threads);
  std::vector<size_t> Order(Periods.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Periods[A].StealShare < Periods[B].StealShare;
  });
  std::vector<double> LatencyMs;
  std::vector<HostSample> Ref;
  double Seconds = 0, CpuMs = 0, WorstShare = 0;
  size_t Measured = 0;
  for (size_t I : Order) {
    if (Seconds >= Opts.Seconds)
      break;
    const Period &P = Periods[I];
    for (size_t E = P.Begin; E < P.End; ++E)
      if (Win.Exchanges[E].Answered)
        LatencyMs.push_back(Check.Answers[E].LatencyMs);
    Ref.push_back(P.After);
    Seconds += P.Seconds;
    CpuMs += P.DaemonCpuMs;
    WorstShare = P.StealShare;
    ++Measured;
  }
  double P50 = median(LatencyMs), P99 = percentile(LatencyMs, 0.99);
  size_t Sent = Win.Exchanges.size();
  size_t Completed = LatencyMs.size();
  size_t BeyondP99 = static_cast<size_t>(std::count_if(
      LatencyMs.begin(), LatencyMs.end(), [&](double L) { return L > P99; }));
  double BusyShare = Win.Seconds > 0 ? Win.ClientCpuSeconds / Win.Seconds : 1;
  std::map<std::string, double> Counters = metricsDelta(Before, After);
  bool Correct = Check.Failed == 0 && !Win.Broken && Completed > 0;

  // Times as measured, then scaled to the reference host: wall times by
  // the reference work's wall time, CPU times by its CPU time, set-up
  // launch by launch.
  double FWall = hostFactor(Ref, &HostSample::WallMs);
  double FCpu = hostFactor(Ref, &HostSample::CpuMs);
  std::vector<double> SetupScaled;
  for (size_t I = 0; I < L.SetupSeconds.size(); ++I)
    SetupScaled.push_back(L.SetupSeconds[I] *
                          hostFactor({L.Before[I]}, &HostSample::WallMs));
  MetricSet Raw, M;
  auto Add = [&](const char *Name, double Value, double Scaled,
                 const char *Unit) {
    Raw.add(Name, Value, Unit);
    M.add(Name, Scaled, Unit);
  };
  double Rps = Seconds > 0 ? Completed / Seconds : 0;
  Add("throughput_rps", Rps, Rps / FWall, "1/s");
  Add("latency_p50_ms", P50, P50 * FWall, "ms");
  double CpuPerReq = Completed ? CpuMs / Completed : 0;
  Add("cpu_ms_per_req", CpuPerReq, CpuPerReq * FCpu, "ms");
  Add("peak_rss_mb", PeakRssMb, PeakRssMb, "MiB");
  Add("setup_s", median(L.SetupSeconds), median(SetupScaled), "s");
  double RefWallMs = 0;
  for (const Period &P : Periods)
    RefWallMs += P.After.WallMs;
  double RefBusyShare = RefWallMs > 0 ? RefCpuMs / RefWallMs : 0;

  std::printf("perfbench %s seed=%llu seconds=%g (%s)\n",
              Opts.Workload.c_str(),
              static_cast<unsigned long long>(Opts.Seed), Opts.Seconds,
              buildInfo().c_str());
  std::printf("  closed loop, %u outstanding: %zu sent in %zu load periods, "
              "%.3f s; measured %zu periods, %.3f s, %zu completed, %zu "
              "samples beyond p99\n",
              W->outstanding(), Sent, Periods.size(), Win.Seconds, Measured,
              Seconds, Completed, BeyondP99);
  std::printf("  host: steal share <= %.3f in the measured periods; factor "
              "wall %.4f, cpu %.4f (reference work on %u threads, %.3f ms "
              "on the reference host)\n",
              WorstShare, FWall, FCpu, Threads, ReferenceWorkMs);
  std::printf("  scaled to the reference host:\n");
  M.print();
  std::printf("  as measured on this host:\n");
  Raw.print();
  // Not a result metric: a steal phase that outlasts the window stretches
  // the tail far more than the median (perfbench/README.md, "Measuring").
  std::printf("  %-36s %14.6g %s (as measured %.6g ms)\n", "latency_p99_ms",
              P99 * FWall, "ms", P99);
  std::printf("  %-36s %14.6g %s\n", "error_rate",
              Sent ? static_cast<double>(Check.Failed) / Sent : 0.0,
              "fraction");
  std::printf("  %-36s %14.6g %s\n", "client.busy_share", BusyShare,
              "fraction");
  std::printf("  %-36s %14.6g %s\n", "daemon busy during reference work",
              RefBusyShare, "fraction");
  std::printf("  set-up launches (s):");
  for (double S : L.SetupSeconds)
    std::printf(" %.4f", S);
  std::printf("\n  answer checks: %llu interpreter runs checked at exit, "
              "%llu cut by a violated assertion, %llu paper-6.5 programs "
              "all-safe\n",
              static_cast<unsigned long long>(Check.InterpreterExits),
              static_cast<unsigned long long>(Check.InterpreterAsserts),
              static_cast<unsigned long long>(Check.AllSafeChecked));
  std::printf("  daemon counters over the window (metrics admin request):\n");
  for (const auto &[Name, Delta] : Counters)
    if (Delta != 0 && (Name.rfind("serve.", 0) == 0 ||
                       Name.rfind("session.", 0) == 0 ||
                       Name.rfind("persist.", 0) == 0))
      std::printf("    %-34s %14.6g\n", Name.c_str(), Delta);
  {
    std::ofstream PS("periods.tsv");
    PS << "period\tseconds\trequests\tdaemon_cpu_ms\tsteal_share\tref_wall_ms"
          "\tref_cpu_ms\n";
    for (size_t I = 0; I < Periods.size(); ++I) {
      const Period &P = Periods[I];
      PS << I << '\t' << P.Seconds << '\t' << P.End - P.Begin << '\t'
         << P.DaemonCpuMs << '\t' << P.StealShare << '\t' << P.After.WallMs
         << '\t' << P.After.CpuMs << '\n';
    }
    std::ofstream XS("exchanges.tsv");
    XS << "period\tsent_ms\tlatency_ms\tgroup\n";
    for (size_t I = 0; I < Periods.size(); ++I)
      for (size_t E = Periods[I].Begin; E < Periods[I].End; ++E)
        XS << I << '\t' << msBetween(Win.Exchanges[0].Sent, Win.Exchanges[E].Sent)
           << '\t' << Check.Answers[E].LatencyMs << '\t'
           << Win.Exchanges[E].Req.Group << '\n';
  }
  for (const std::string &N : Check.Notes)
    std::fprintf(stderr, "perfbench: wrong answer: %s\n", N.c_str());
  if (WorstShare > MaxStealShare)
    std::fprintf(stderr,
                 "perfbench: warning: the host never calmed down: measured "
                 "periods lost up to %.0f%% of their time to steal\n",
                 100 * WorstShare);
  if (BeyondP99 < 10)
    std::fprintf(stderr,
                 "perfbench: warning: %zu samples support no p99 with ten "
                 "samples beyond it\n",
                 Completed);

  // A generator busy most of the window, not the daemon, set the pace:
  // its numbers would measure the client. A daemon working while the
  // reference work ran would slow it, and so flatter its own times.
  if (BusyShare > 0.5 || RefBusyShare > 0.25) {
    std::fprintf(stderr,
                 "perfbench: invalid run: the load generator was busy %.0f%% "
                 "of the window, the daemon %.0f%% of the reference work\n",
                 100 * BusyShare, 100 * RefBusyShare);
    return 3;
  }
  printResult(Correct, Sent, Check.Failed, M);
  return Correct ? 0 : 1;
}
