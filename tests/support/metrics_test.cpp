//===- tests/support/metrics_test.cpp - MetricsRegistry tests -------------===//

#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace syntox;

namespace {

TEST(MetricsTest, CounterAccumulates) {
  MetricsRegistry M;
  M.counter("solver.widenings").inc();
  M.counter("solver.widenings").inc(9);
  EXPECT_EQ(M.counterValue("solver.widenings"), 10u);
  EXPECT_EQ(M.counterValue("never.registered"), 0u);
}

TEST(MetricsTest, LookupReturnsStableReference) {
  MetricsRegistry M;
  Counter &C = M.counter("x");
  M.counter("a"); // rebalances the map, not the nodes
  M.counter("z");
  C.inc(3);
  EXPECT_EQ(M.counterValue("x"), 3u);
  EXPECT_EQ(&C, &M.counter("x"));
}

TEST(MetricsTest, GaugeSetOverwrites) {
  MetricsRegistry M;
  Gauge &G = M.gauge("graph.instances");
  EXPECT_EQ(G.value(), 0);
  G.set(5);
  EXPECT_EQ(G.value(), 5);
  G.set(3);
  EXPECT_EQ(G.value(), 3);
}

TEST(MetricsTest, HistogramSummary) {
  MetricsRegistry M;
  Histogram &H = M.histogram("phase.seconds");
  H.observe(0.25);
  H.observe(0.5);
  H.observe(4.0);
  EXPECT_EQ(H.count(), 3u);
  EXPECT_DOUBLE_EQ(H.sum(), 4.75);
  EXPECT_DOUBLE_EQ(H.minValue(), 0.25);
  EXPECT_DOUBLE_EQ(H.maxValue(), 4.0);
}

TEST(MetricsTest, ConcurrentCountersAreExact) {
  MetricsRegistry M;
  constexpr unsigned Writers = 4, PerThread = 10000;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Writers; ++T)
    Threads.emplace_back([&M] {
      Counter &C = M.counter("shared");
      for (unsigned I = 0; I < PerThread; ++I)
        C.inc();
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(M.counterValue("shared"), Writers * PerThread);
}

TEST(MetricsTest, SnapshotIsSortedJson) {
  MetricsRegistry M;
  M.counter("zeta").inc(1);
  M.counter("alpha").inc(2);
  M.gauge("g").set(-4);
  M.histogram("h").observe(2.0);
  json::Value Snap = M.snapshot();
  ASSERT_TRUE(Snap.isObject());
  const json::Value *Counters = Snap.find("counters");
  ASSERT_TRUE(Counters && Counters->isObject());
  ASSERT_EQ(Counters->members().size(), 2u);
  EXPECT_EQ(Counters->members()[0].first, "alpha");
  EXPECT_EQ(Counters->members()[1].first, "zeta");
  EXPECT_EQ(Counters->find("zeta")->asInt(), 1);
  const json::Value *Gauges = Snap.find("gauges");
  ASSERT_TRUE(Gauges && Gauges->find("g"));
  EXPECT_EQ(Gauges->find("g")->asInt(), -4);
  const json::Value *Hists = Snap.find("histograms");
  ASSERT_TRUE(Hists && Hists->find("h"));
  EXPECT_EQ(Hists->find("h")->find("count")->asInt(), 1);
  EXPECT_DOUBLE_EQ(Hists->find("h")->find("sum")->asDouble(), 2.0);
  // The snapshot round-trips through the writer and parser.
  std::optional<json::Value> Back = json::parse(Snap.pretty());
  ASSERT_TRUE(Back.has_value());
  EXPECT_TRUE(*Back == Snap);
}

} // namespace
