//===- support/Metrics.h - Named counters, gauges, histograms ---*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A registry of named metrics that subsumes and extends the Figure 2
/// AnalysisStats aggregate: counters (monotone, thread-safe), gauges
/// (last value), and histograms (count/sum/min/max). The analyzer
/// publishes one metric per statistic it tracks ("solver.widenings",
/// "phase.seconds", ...; full taxonomy in DESIGN.md §Telemetry), and
/// exporters snapshot the registry into JSON for --metrics-json and the
/// BENCH_*.json per-phase breakdowns.
///
/// Instrument accessors return stable references: hot paths resolve the
/// name once and bump the returned object without further locking.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_SUPPORT_METRICS_H
#define SYNTOX_SUPPORT_METRICS_H

#include "support/Json.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace syntox {

/// Monotonically increasing counter.
class Counter {
public:
  void inc(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// A point-in-time value; set() overwrites.
class Gauge {
public:
  void set(int64_t New) { V.store(New, std::memory_order_relaxed); }
  int64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// Distribution summary over double observations: count, sum, min and
/// max.
class Histogram {
public:
  void observe(double X);

  uint64_t count() const { return N.load(std::memory_order_relaxed); }
  double sum() const;
  double minValue() const;
  double maxValue() const;

private:
  std::atomic<uint64_t> N{0};
  std::atomic<uint64_t> SumBits{0}; ///< double bit-pattern, CAS-updated
  std::atomic<uint64_t> MinBits{0x7FF0000000000000ull};  ///< +inf
  std::atomic<uint64_t> MaxBits{0xFFF0000000000000ull};  ///< -inf
};

/// Owner of all metrics of one analysis session. Lookup registers on
/// first use; returned references stay valid for the registry lifetime.
class MetricsRegistry {
public:
  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  /// Point-in-time JSON snapshot:
  ///   {"counters":{...},"gauges":{...},"histograms":{name:
  ///    {"count":..,"sum":..,"min":..,"max":..}}}
  /// Names are emitted sorted so snapshots are diffable.
  json::Value snapshot() const;

  /// Convenience for tests and text reports: counter value or 0.
  uint64_t counterValue(const std::string &Name) const;

private:
  mutable std::mutex M;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

} // namespace syntox

#endif // SYNTOX_SUPPORT_METRICS_H
