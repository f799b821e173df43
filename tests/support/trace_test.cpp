//===- tests/support/trace_test.cpp - TraceRecorder and exporters ---------===//

#include "support/Telemetry.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

using namespace syntox;

namespace {

TEST(TraceRecorderTest, RecordsInTimestampOrder) {
  TraceRecorder R(TraceRecorder::AllEvents);
  R.record(TraceEventKind::PhaseBegin, 0, 0, "Forward analysis");
  R.record(TraceEventKind::Widening, 7);
  R.record(TraceEventKind::Narrowing, 7);
  R.record(TraceEventKind::PhaseEnd, 0, 0, "Forward analysis");
  std::vector<TraceEvent> Events = R.take();
  ASSERT_EQ(Events.size(), 4u);
  EXPECT_EQ(Events[0].Kind, TraceEventKind::PhaseBegin);
  EXPECT_EQ(Events[0].Label, "Forward analysis");
  EXPECT_EQ(Events[1].Kind, TraceEventKind::Widening);
  EXPECT_EQ(Events[1].Arg0, 7u);
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_LE(Events[I - 1].TimeNs, Events[I].TimeNs);
  // All from the same (main) thread.
  for (const TraceEvent &E : Events)
    EXPECT_EQ(E.Tid, Events[0].Tid);
}

TEST(TraceRecorderTest, TakeResetsBuffers) {
  TraceRecorder R(TraceRecorder::AllEvents);
  R.record(TraceEventKind::Widening, 1);
  EXPECT_EQ(R.take().size(), 1u);
  EXPECT_TRUE(R.take().empty());
  R.record(TraceEventKind::Narrowing, 2);
  EXPECT_EQ(R.take().size(), 1u);
}

TEST(TraceRecorderTest, MaskDropsDisabledKinds) {
  TraceRecorder R(traceEventBit(TraceEventKind::Widening));
  EXPECT_TRUE(R.wants(TraceEventKind::Widening));
  EXPECT_FALSE(R.wants(TraceEventKind::Narrowing));
  R.record(TraceEventKind::Widening, 1);
  R.record(TraceEventKind::Narrowing, 2);
  R.record(TraceEventKind::StoreDetach, 3);
  std::vector<TraceEvent> Events = R.take();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Kind, TraceEventKind::Widening);
}

TEST(TraceRecorderTest, DefaultMaskExcludesDetailKinds) {
  constexpr uint32_t M = TraceRecorder::DefaultEvents;
  EXPECT_EQ(M & traceEventBit(TraceEventKind::StoreDetach), 0u);
  EXPECT_EQ(M & traceEventBit(TraceEventKind::StorePrune), 0u);
  EXPECT_NE(M & traceEventBit(TraceEventKind::PhaseBegin), 0u);
  EXPECT_NE(M & traceEventBit(TraceEventKind::Widening), 0u);
  EXPECT_NE(M & traceEventBit(TraceEventKind::ComponentSkip), 0u);
  EXPECT_EQ(TraceRecorder::AllEvents, (1u << NumTraceEventKinds) - 1);
}

TEST(TraceRecorderTest, MultiThreadedMergePreservesPerThreadOrder) {
  TraceRecorder R(TraceRecorder::AllEvents);
  constexpr unsigned Writers = 4;
  constexpr unsigned PerThread = 500;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Writers; ++T)
    Threads.emplace_back([&R, T] {
      for (unsigned I = 0; I < PerThread; ++I)
        R.record(TraceEventKind::Widening, /*Arg0=*/T, /*Arg1=*/I);
    });
  for (std::thread &T : Threads)
    T.join();

  std::vector<TraceEvent> Events = R.take();
  ASSERT_EQ(Events.size(), Writers * PerThread);
  // Merged stream is globally timestamp-ordered.
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_LE(Events[I - 1].TimeNs, Events[I].TimeNs);
  // Each recording thread got a distinct tid and its events keep their
  // program order (Arg1 ascending per Arg0).
  std::map<uint64_t, std::pair<uint64_t, uint16_t>> LastPerThread;
  std::set<uint16_t> Tids;
  for (const TraceEvent &E : Events) {
    Tids.insert(E.Tid);
    auto It = LastPerThread.find(E.Arg0);
    if (It != LastPerThread.end()) {
      EXPECT_EQ(It->second.first + 1, E.Arg1);
      EXPECT_EQ(It->second.second, E.Tid);
    } else {
      EXPECT_EQ(E.Arg1, 0u);
    }
    LastPerThread[E.Arg0] = {E.Arg1, E.Tid};
  }
  EXPECT_EQ(Tids.size(), Writers);
  EXPECT_GE(R.numThreads(), Writers);
}

TEST(TraceHookTest, NoRecorderMeansNoop) {
  // The inline hook is a null check; with no recorder nothing happens
  // and nothing crashes.
  traceEvent(nullptr, TraceEventKind::Widening, 1, 2);
  TraceRecorder R(traceEventBit(TraceEventKind::Narrowing));
  traceEvent(&R, TraceEventKind::Widening, 1, 2); // masked out
  EXPECT_TRUE(R.take().empty());
  traceEvent(&R, TraceEventKind::Narrowing, 3);
  std::vector<TraceEvent> Events = R.take();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Arg0, 3u);
}

TEST(TraceExportTest, JsonLinesMatchesSchema) {
  TraceRecorder R(TraceRecorder::AllEvents);
  R.record(TraceEventKind::PhaseBegin, 0, 0, "Forward analysis");
  R.record(TraceEventKind::ComponentBegin, 4, 0);
  R.record(TraceEventKind::Widening, 4);
  R.record(TraceEventKind::ComponentEnd, 4, 0);
  R.record(TraceEventKind::TokenUnfold, 1, 2, "mc \"quoted\"");
  R.record(TraceEventKind::PhaseEnd, 0, 0, "Forward analysis");

  std::ostringstream OS;
  writeJsonLinesTrace(R.take(), OS);
  std::istringstream In(OS.str());
  std::string Line;
  unsigned NumLines = 0;
  while (std::getline(In, Line)) {
    ++NumLines;
    std::string Error;
    std::optional<json::Value> V = json::parse(Line, &Error);
    ASSERT_TRUE(V.has_value()) << Error << " in: " << Line;
    ASSERT_TRUE(V->isObject());
    // Required fields of schemas/trace-jsonl.schema.json.
    ASSERT_TRUE(V->find("ev") && V->find("ev")->isString()) << Line;
    ASSERT_TRUE(V->find("t") && V->find("t")->isInt()) << Line;
    ASSERT_TRUE(V->find("tid") && V->find("tid")->isInt()) << Line;
    ASSERT_TRUE(V->find("arg0") && V->find("arg0")->isInt()) << Line;
    ASSERT_TRUE(V->find("arg1") && V->find("arg1")->isInt()) << Line;
    if (const json::Value *L = V->find("label")) {
      EXPECT_TRUE(L->isString());
    }
  }
  EXPECT_EQ(NumLines, 6u);
  // The escaped label round-trips.
  EXPECT_NE(OS.str().find("mc \\\"quoted\\\""), std::string::npos);
}

TEST(TraceExportTest, ChromeTraceIsValidAndPairsSpans) {
  TraceRecorder R(TraceRecorder::AllEvents);
  R.record(TraceEventKind::PhaseBegin, 0, 0, "Forward analysis");
  R.record(TraceEventKind::ComponentBegin, 9, 0);
  R.record(TraceEventKind::Widening, 9);
  R.record(TraceEventKind::ComponentEnd, 9, 0);
  R.record(TraceEventKind::PhaseEnd, 0, 0, "Forward analysis");

  std::ostringstream OS;
  writeChromeTrace(R.take(), OS);
  std::string Error;
  std::optional<json::Value> Doc = json::parse(OS.str(), &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  const json::Value *Events = Doc->find("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());
  int Depth = 0;
  unsigned Instants = 0;
  for (const json::Value &E : Events->elements()) {
    ASSERT_TRUE(E.isObject());
    const json::Value *Ph = E.find("ph");
    ASSERT_TRUE(Ph && Ph->isString());
    ASSERT_TRUE(E.find("name") && E.find("name")->isString());
    ASSERT_TRUE(E.find("ts") && E.find("ts")->isNumber());
    ASSERT_TRUE(E.find("pid") && E.find("tid"));
    if (Ph->asString() == "B")
      ++Depth;
    else if (Ph->asString() == "E")
      --Depth;
    else if (Ph->asString() == "i")
      ++Instants;
    EXPECT_GE(Depth, 0);
  }
  EXPECT_EQ(Depth, 0) << "unbalanced B/E spans";
  EXPECT_EQ(Instants, 1u) << "the widening instant";
}

TEST(TraceExportTest, EventKindNamesAreStable) {
  EXPECT_STREQ(traceEventKindName(TraceEventKind::PhaseBegin),
               "phase_begin");
  EXPECT_STREQ(traceEventKindName(TraceEventKind::ComponentBegin),
               "component_begin");
  EXPECT_STREQ(traceEventKindName(TraceEventKind::Widening), "widening");
  EXPECT_STREQ(traceEventKindName(TraceEventKind::TokenUnfold),
               "token_unfold");
  EXPECT_STREQ(traceEventKindName(TraceEventKind::ComponentSkip),
               "component_skip");
  EXPECT_STREQ(traceEventKindName(TraceEventKind::StoreDetach),
               "store_detach");
}

} // namespace
