//===- support/Metrics.cpp ------------------------------------------------===//

#include "support/Metrics.h"

#include <bit>

using namespace syntox;

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

namespace {

double bitsToDouble(uint64_t Bits) { return std::bit_cast<double>(Bits); }
uint64_t doubleToBits(double D) { return std::bit_cast<uint64_t>(D); }

/// CAS-accumulates Bits with Fn(old, X) — used for sum/min/max since
/// std::atomic<double>::fetch_add needs hardware support we don't assume.
template <typename Fn>
void accumulateBits(std::atomic<uint64_t> &Bits, double X, Fn &&F) {
  uint64_t Cur = Bits.load(std::memory_order_relaxed);
  for (;;) {
    double New = F(bitsToDouble(Cur), X);
    if (Bits.compare_exchange_weak(Cur, doubleToBits(New),
                                   std::memory_order_relaxed))
      return;
  }
}

} // namespace

void Histogram::observe(double X) {
  N.fetch_add(1, std::memory_order_relaxed);
  accumulateBits(SumBits, X, [](double A, double B) { return A + B; });
  accumulateBits(MinBits, X,
                 [](double A, double B) { return B < A ? B : A; });
  accumulateBits(MaxBits, X,
                 [](double A, double B) { return B > A ? B : A; });
}

double Histogram::sum() const {
  return bitsToDouble(SumBits.load(std::memory_order_relaxed));
}
double Histogram::minValue() const {
  return count() ? bitsToDouble(MinBits.load(std::memory_order_relaxed))
                 : 0.0;
}
double Histogram::maxValue() const {
  return count() ? bitsToDouble(MaxBits.load(std::memory_order_relaxed))
                 : 0.0;
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

Counter &MetricsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &MetricsRegistry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto &Slot = Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &MetricsRegistry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto &Slot = Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>();
  return *Slot;
}

uint64_t MetricsRegistry::counterValue(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second->value();
}

json::Value MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  json::Value Out = json::Value::object();
  json::Value Cs = json::Value::object();
  for (const auto &[Name, C] : Counters) // std::map: already sorted
    Cs.set(Name, C->value());
  json::Value Gs = json::Value::object();
  for (const auto &[Name, G] : Gauges)
    Gs.set(Name, G->value());
  json::Value Hs = json::Value::object();
  for (const auto &[Name, H] : Histograms) {
    json::Value Summary = json::Value::object();
    Summary.set("count", H->count());
    Summary.set("sum", H->sum());
    Summary.set("min", H->minValue());
    Summary.set("max", H->maxValue());
    Hs.set(Name, std::move(Summary));
  }
  Out.set("counters", std::move(Cs));
  Out.set("gauges", std::move(Gs));
  Out.set("histograms", std::move(Hs));
  return Out;
}
