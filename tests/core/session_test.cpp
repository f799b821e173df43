//===- tests/core/session_test.cpp - AnalysisSession/Result API tests -----===//

#include "core/AnalysisSession.h"
#include "frontend/PaperPrograms.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <latch>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace syntox;

namespace {

std::unique_ptr<AnalysisSession> makeSession(const std::string &Source,
                                             AnalysisOptions Opts = {}) {
  DiagnosticsEngine Diags;
  auto Session = AnalysisSession::create(Source, Diags, Opts);
  EXPECT_NE(Session, nullptr) << Diags.str();
  return Session;
}

std::vector<std::string> conditionStrings(
    const std::vector<NecessaryCondition> &Conds) {
  std::vector<std::string> Out;
  for (const NecessaryCondition &C : Conds)
    Out.push_back(C.str());
  return Out;
}

TEST(AnalysisSessionTest, CreateRejectsBadSource) {
  DiagnosticsEngine Diags;
  EXPECT_EQ(AnalysisSession::create("program p; begin x := end.", Diags),
            nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(AnalysisSessionTest, MigrationOldAndNewApiFindingsAgree) {
  // The same program and options through the deprecated direct-debugger
  // path and through the session must produce identical findings.
  std::string McIntermittent = paper::McCarthyProgram;
  McIntermittent.insert(McIntermittent.find("writeln(m)"),
                        "intermittent(m = 91);\n  ");
  for (const std::string &Source :
       {std::string(paper::ForProgram), McIntermittent}) {
    DiagnosticsEngine Diags;
    auto Dbg = AbstractDebugger::create(Source, Diags);
    ASSERT_NE(Dbg, nullptr);
    Dbg->analyze();

    auto Session = makeSession(Source);
    ASSERT_NE(Session, nullptr);
    AnalysisResult Result = Session->run();

    EXPECT_EQ(conditionStrings(Dbg->conditions()),
              conditionStrings(Result.conditions()));
    EXPECT_EQ(Dbg->invariantWarnings().size(),
              Result.invariantWarnings().size());
    EXPECT_EQ(Dbg->checks().summary().Total, Result.checks().summary().Total);
    EXPECT_EQ(Dbg->checks().summary().Safe, Result.checks().summary().Safe);
    EXPECT_EQ(Dbg->someExecutionMaySatisfySpec(),
              Result.someExecutionMaySatisfySpec());
    EXPECT_EQ(Dbg->stats().ControlPoints, Result.stats().ControlPoints);
  }
}

TEST(AnalysisSessionTest, ResultsSurviveLaterRuns) {
  auto Session = makeSession(paper::ForProgram);
  ASSERT_NE(Session, nullptr);
  AnalysisResult First = Session->run();
  std::vector<std::string> FirstConds = conditionStrings(First.conditions());
  ASSERT_FALSE(FirstConds.empty());

  // A second run must not disturb the first result (it solves an
  // engine of its own).
  AnalysisResult Second = Session->run();
  EXPECT_EQ(conditionStrings(First.conditions()), FirstConds);

  // Results outlive the session.
  Session.reset();
  EXPECT_EQ(conditionStrings(First.conditions()), FirstConds);
  EXPECT_FALSE(conditionStrings(Second.conditions()).empty());
}

TEST(AnalysisSessionTest, StateAtQueriesTheStatementInspector) {
  auto Session = makeSession(paper::ForProgram);
  ASSERT_NE(Session, nullptr);
  AnalysisResult Result = Session->run();
  // Line 6 of the For program is `read(n)`.
  std::vector<PointState> States = Result.stateAt(SourceLoc(6, 0));
  ASSERT_FALSE(States.empty());
  bool SawN = false;
  for (const PointState &S : States) {
    EXPECT_EQ(S.Loc.Line, 6u);
    for (const StateBinding &B : S.Bindings)
      SawN |= B.Var == "n";
  }
  EXPECT_TRUE(SawN);
  // A line with no control point yields no states, not an error.
  EXPECT_TRUE(Result.stateAt(SourceLoc(9999, 0)).empty());
}

TEST(AnalysisSessionTest, FindingsJsonRoundTripsAndMatchesSchema) {
  auto Session = makeSession(paper::ForProgram);
  ASSERT_NE(Session, nullptr);
  AnalysisResult Result = Session->run();
  json::Value Doc = Result.toJson();

  // Required top-level keys of schemas/findings.schema.json.
  for (const char *Key : {"domain", "verdict", "conditions",
                          "invariant_warnings", "checks", "stats", "metrics"})
    EXPECT_TRUE(Doc.has(Key)) << Key;
  EXPECT_EQ(Doc.find("domain")->asString(), "interval");
  EXPECT_EQ(Doc.find("verdict")->asString(),
            "some_execution_may_satisfy_spec");
  const json::Value *Conds = Doc.find("conditions");
  ASSERT_TRUE(Conds && Conds->isArray());
  ASSERT_EQ(Conds->size(), Result.conditions().size());
  for (const json::Value &C : Conds->elements()) {
    EXPECT_TRUE(C.find("line") && C.find("line")->isInt());
    EXPECT_TRUE(C.find("condition") && C.find("condition")->isString());
    EXPECT_TRUE(C.find("point") && C.find("point")->isString());
  }
  const json::Value *Checks = Doc.find("checks");
  ASSERT_TRUE(Checks && Checks->find("summary") && Checks->find("results"));
  EXPECT_EQ(Checks->find("summary")->find("total")->asInt(),
            static_cast<int64_t>(Result.checks().summary().Total));
  for (const json::Value &R : Checks->find("results")->elements()) {
    EXPECT_TRUE(R.find("kind") && R.find("kind")->isString());
    EXPECT_TRUE(R.find("verdict") && R.find("verdict")->isString());
  }
  EXPECT_TRUE(Doc.find("stats")->find("phases")->isArray());

  // Writer -> parser round trip is the identity.
  std::optional<json::Value> Back = json::parse(Doc.pretty());
  ASSERT_TRUE(Back.has_value());
  EXPECT_TRUE(*Back == Doc);
}

TEST(AnalysisSessionTest, MetricsAccumulateAcrossRuns) {
  auto Session = makeSession(paper::ForProgram);
  ASSERT_NE(Session, nullptr);
  AnalysisResult First = Session->run();
  const json::Value *C1 = First.metrics().find("counters");
  ASSERT_TRUE(C1 && C1->find("solver.ascending_steps"));
  int64_t Steps1 = C1->find("solver.ascending_steps")->asInt();
  EXPECT_GT(Steps1, 0);
  EXPECT_EQ(C1->find("solver.sweep_cap_hits"), nullptr)
      << "the sweep-cap counter exists only once a loop hits the cap";

  AnalysisResult Second = Session->run();
  const json::Value *C2 = Second.metrics().find("counters");
  int64_t Steps2 = C2->find("solver.ascending_steps")->asInt();
  EXPECT_EQ(Steps2, 2 * Steps1) << "counters are session totals";
  // The first result's snapshot is frozen.
  EXPECT_EQ(First.metrics().find("counters")
                ->find("solver.ascending_steps")
                ->asInt(),
            Steps1);
}

/// Options that record into \p Trace.
AnalysisOptions tracedOptions(TraceRecorder &Trace) {
  AnalysisOptions Opts;
  Opts.Telem.Trace = &Trace;
  return Opts;
}

TEST(AnalysisSessionTest, TraceJsonLinesGolden) {
  TraceRecorder Trace;
  auto Session = makeSession(paper::ForProgram, tracedOptions(Trace));
  ASSERT_NE(Session, nullptr);
  Session->run();

  std::ostringstream OS;
  StreamTraceSink Sink(OS, TraceFormat::JsonLines);
  Trace.flushTo(Sink);

  const std::set<std::string> Vocabulary{
      "phase_begin",  "phase_end",    "component_begin", "component_end",
      "widening",     "narrowing",    "token_unfold",    "store_detach",
      "component_skip", "demand_skip"};
  std::vector<std::string> PhaseBegins;
  int PhaseDepth = 0;
  uint64_t LastTs = 0;
  std::istringstream In(OS.str());
  std::string Line;
  unsigned NumEvents = 0;
  while (std::getline(In, Line)) {
    ++NumEvents;
    std::optional<json::Value> V = json::parse(Line);
    ASSERT_TRUE(V.has_value()) << Line;
    std::string Ev = V->find("ev")->asString();
    EXPECT_TRUE(Vocabulary.count(Ev)) << Ev;
    // The default mask excludes the detail kinds.
    EXPECT_NE(Ev, "store_detach");
    uint64_t Ts = static_cast<uint64_t>(V->find("t")->asInt());
    EXPECT_GE(Ts, LastTs);
    LastTs = Ts;
    if (Ev == "phase_begin") {
      ++PhaseDepth;
      PhaseBegins.push_back(V->find("label")->asString());
    } else if (Ev == "phase_end") {
      --PhaseDepth;
    }
    EXPECT_GE(PhaseDepth, 0);
  }
  EXPECT_EQ(PhaseDepth, 0);
  EXPECT_GT(NumEvents, 4u);
  // The §3 schedule begins with the forward lfp phase.
  ASSERT_FALSE(PhaseBegins.empty());
  EXPECT_EQ(PhaseBegins.front(), "Forward analysis");

  // Flushing consumed the events.
  std::ostringstream OS2;
  StreamTraceSink Sink2(OS2, TraceFormat::JsonLines);
  Trace.flushTo(Sink2);
  EXPECT_TRUE(OS2.str().empty());
}

TEST(AnalysisSessionTest, ChromeTraceOfDefaultRunIsOneBalancedThread) {
  // An analysis runs on one thread: every span of the default run sits
  // on a single tid, and its B/E events balance.
  TraceRecorder Trace;
  auto Session = makeSession(paper::McCarthyProgram, tracedOptions(Trace));
  ASSERT_NE(Session, nullptr);
  Session->run();

  std::ostringstream OS;
  StreamTraceSink Sink(OS, TraceFormat::Chrome);
  Trace.flushTo(Sink);

  std::string Error;
  std::optional<json::Value> Doc = json::parse(OS.str(), &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  const json::Value *Events = Doc->find("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());

  std::set<int64_t> Tids;
  int Depth = 0;
  unsigned PhaseSpans = 0, ComponentSpans = 0;
  for (const json::Value &E : Events->elements()) {
    const std::string &Ph = E.find("ph")->asString();
    Tids.insert(E.find("tid")->asInt());
    const std::string &Kind = E.find("args")->find("kind")->asString();
    if (Ph == "B") {
      ++Depth;
      PhaseSpans += Kind == "phase_begin";
      ComponentSpans += Kind == "component_begin";
    } else if (Ph == "E") {
      --Depth;
      EXPECT_GE(Depth, 0);
    }
  }
  EXPECT_EQ(Depth, 0) << "unbalanced B/E spans";
  EXPECT_EQ(Tids.size(), 1u);
  EXPECT_GE(PhaseSpans, 4u) << "forward, always, eventually, forward";
  EXPECT_GT(ComponentSpans, 0u);
}

/// toJson() minus the stats/metrics counters (which legitimately differ
/// between cold and warm-replayed runs).
json::Value findingsOnly(const AnalysisResult &R) {
  json::Value Doc = R.toJson();
  json::Value Out = json::Value::object();
  for (const auto &KV : Doc.members())
    if (KV.first != "stats" && KV.first != "metrics")
      Out.set(KV.first, KV.second);
  return Out;
}

uint64_t liveSteps(const AnalysisResult &R) {
  uint64_t Live = 0;
  for (const PhaseStats &P : R.stats().Phases)
    Live += P.WideningSteps + P.NarrowingSteps;
  return Live;
}

TEST(AnalysisSessionTest, LaterRunBuildsItsOwnEngine) {
  // The first run adopts the engine create() built; every later run
  // solves an engine of its own, cold, whether or not an earlier
  // result still holds the previous one. Findings are identical.
  auto Session = makeSession(paper::McCarthyProgram);
  ASSERT_NE(Session, nullptr);
  AnalysisResult First = Session->run();
  json::Value ColdFindings = findingsOnly(First);
  uint64_t ColdLive = liveSteps(First);
  EXPECT_GT(ColdLive, 0u);

  {
    AnalysisResult Second = Session->run();
    EXPECT_NE(&Second.debugger(), &First.debugger());
    EXPECT_TRUE(findingsOnly(Second) == ColdFindings);
    EXPECT_EQ(liveSteps(Second), ColdLive);
  } // Second dropped: nothing holds its engine any more

  AnalysisResult Third = Session->run();
  EXPECT_TRUE(findingsOnly(Third) == ColdFindings);
  EXPECT_EQ(liveSteps(Third), ColdLive);
  // The earlier result is unchanged.
  EXPECT_TRUE(findingsOnly(First) == ColdFindings);
  EXPECT_EQ(liveSteps(First), ColdLive);
}

/// The events of kind \p Kind in \p Trace, flushed.
unsigned eventsOfKind(TraceRecorder &Trace, const std::string &Kind) {
  std::ostringstream OS;
  StreamTraceSink Sink(OS, TraceFormat::JsonLines);
  Trace.flushTo(Sink);
  unsigned N = 0;
  std::istringstream In(OS.str());
  std::string Line;
  while (std::getline(In, Line)) {
    std::optional<json::Value> V = json::parse(Line);
    N += V && V->find("ev")->asString() == Kind;
  }
  return N;
}

unsigned tokenUnfoldEvents(TraceRecorder &Trace) {
  return eventsOfKind(Trace, "token_unfold");
}

TEST(AnalysisSessionTest, RecorderPassedToCreateSeesOneBuild) {
  // create() builds the engine under the recorder its options name, and
  // the run adopts that engine: the trace holds one token unfolding per
  // instance, and the build's counters are counted once.
  TraceRecorder Trace;
  auto Session = makeSession(paper::McCarthyProgram, tracedOptions(Trace));
  ASSERT_NE(Session, nullptr);
  AnalysisResult R = Session->run();
  unsigned Instances =
      static_cast<unsigned>(R.analyzer().graph().instances().size());
  EXPECT_GT(Instances, 1u);
  EXPECT_EQ(tokenUnfoldEvents(Trace), Instances);
  const json::Value *Counters = R.metrics().find("counters");
  const json::Value *Gauges = R.metrics().find("gauges");
  ASSERT_TRUE(Counters && Counters->find("interproc.instances"));
  ASSERT_TRUE(Gauges && Gauges->find("graph.instances"));
  EXPECT_EQ(Counters->find("interproc.instances")->asInt(),
            Gauges->find("graph.instances")->asInt());
  EXPECT_EQ(Gauges->find("graph.instances")->asInt(),
            static_cast<int64_t>(Instances));
}

TEST(AnalysisSessionTest, ConcurrentDetailTracedSessionsKeepTheirDetaches) {
  // A store detach goes to the recorder of the session whose thread
  // made it: two detail-traced sessions running at once on two threads
  // each record exactly the store_detach events of a solo run.
  const std::string Source = paper::mcCarthyK(12);
  constexpr unsigned Runs = 3;
  auto RunTraced = [&](TraceRecorder &Trace) {
    AnalysisOptions Opts;
    Opts.Telem.Trace = &Trace;
    auto Session = makeSession(Source, Opts);
    ASSERT_NE(Session, nullptr);
    Session->run();
  };
  TraceRecorder Solo(TraceRecorder::AllEvents);
  RunTraced(Solo);
  unsigned SoloDetaches = eventsOfKind(Solo, "store_detach");
  ASSERT_GT(SoloDetaches, 0u);

  TraceRecorder First(TraceRecorder::AllEvents),
      Second(TraceRecorder::AllEvents);
  std::latch Start(2);
  auto Worker = [&](TraceRecorder &Trace) {
    Start.arrive_and_wait();
    for (unsigned R = 0; R < Runs; ++R)
      RunTraced(Trace);
  };
  std::thread A(Worker, std::ref(First)), B(Worker, std::ref(Second));
  A.join();
  B.join();
  EXPECT_EQ(eventsOfKind(First, "store_detach"), Runs * SoloDetaches);
  EXPECT_EQ(eventsOfKind(Second, "store_detach"), Runs * SoloDetaches);
}

} // namespace
