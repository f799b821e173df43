//===- perfbench/driver/HostSpeed.cpp - Host speed reference --------------===//

#include "HostSpeed.h"

#include "Harness.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

/// One step of the reference work: small allocations, an ordered map, a
/// sort and hashing, the kinds of work the analyzer does. It must never
/// change: every time the benchmark reports is scaled by it.
uint64_t referenceStep(uint32_t Seed) {
  std::map<uint32_t, std::string> Map;
  std::vector<uint32_t> Keys;
  uint32_t X = Seed;
  for (int I = 0; I < 256; ++I) {
    X = X * 1664525u + 1013904223u;
    Map[X % 509].push_back(static_cast<char>('a' + X % 26));
    Keys.push_back(X);
  }
  std::sort(Keys.begin(), Keys.end());
  uint64_t H = Keys[Keys.size() / 2];
  for (const auto &[K, S] : Map)
    H = (H ^ (K + S.size())) * 1099511628211ull;
  return H;
}

/// Steps of the reference work.
constexpr unsigned Steps = 170;

std::atomic<uint64_t> Sink{0};

double threadCpuMs() {
  timespec T{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return T.tv_sec * 1e3 + T.tv_nsec / 1e6;
}

HostSample oneThread() {
  Clock::time_point T0 = Clock::now();
  double C0 = threadCpuMs();
  uint64_t H = 0;
  for (unsigned I = 0; I < Steps; ++I)
    H += referenceStep(I);
  Sink.fetch_add(H, std::memory_order_relaxed);
  return {msBetween(T0, Clock::now()), threadCpuMs() - C0};
}

} // namespace

HostSample perfbench::referenceWork(unsigned Threads) {
  std::vector<HostSample> S(std::max(1u, Threads));
  std::vector<std::thread> Pool;
  for (size_t T = 1; T < S.size(); ++T)
    Pool.emplace_back([&S, T] { S[T] = oneThread(); });
  S[0] = oneThread();
  for (std::thread &T : Pool)
    T.join();
  HostSample Mean;
  for (const HostSample &X : S) {
    Mean.WallMs += X.WallMs / S.size();
    Mean.CpuMs += X.CpuMs / S.size();
  }
  return Mean;
}

double perfbench::hostFactor(const std::vector<HostSample> &Samples,
                             double HostSample::*Field) {
  std::vector<double> Ms;
  for (const HostSample &S : Samples)
    Ms.push_back(S.*Field);
  double Typical = median(Ms);
  return Typical > 0 ? ReferenceWorkMs / Typical : 1;
}
