//===- tests/core/session_test.cpp - AnalysisSession/Result API tests -----===//

#include "core/AnalysisSession.h"
#include "frontend/PaperPrograms.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>
#include <string>
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

  // A second run with different options must not disturb the first
  // result (it owns a separate frozen engine).
  Session->options().terminationGoal(true);
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

TEST(AnalysisSessionTest, TraceJsonLinesGolden) {
  auto Session = makeSession(paper::ForProgram);
  ASSERT_NE(Session, nullptr);
  Session->enableTracing();
  Session->run();

  std::ostringstream OS;
  StreamTraceSink Sink(OS, TraceFormat::JsonLines);
  Session->flushTrace(Sink);

  const std::set<std::string> Vocabulary{
      "phase_begin",  "phase_end",      "component_begin", "component_end",
      "widening",     "narrowing",      "token_unfold",    "cache_hit",
      "cache_miss",   "store_detach",   "component_skip",  "demand_skip"};
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
    EXPECT_NE(Ev, "cache_hit");
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
  Session->flushTrace(Sink2);
  EXPECT_TRUE(OS2.str().empty());
}

TEST(AnalysisSessionTest, ChromeTraceOfDefaultRunIsOneBalancedThread) {
  // An analysis runs on one thread: every span of the default run sits
  // on a single tid, and its B/E events balance.
  auto Session = makeSession(paper::McCarthyProgram);
  ASSERT_NE(Session, nullptr);
  Session->enableTracing();
  Session->run();

  std::ostringstream OS;
  StreamTraceSink Sink(OS, TraceFormat::Chrome);
  Session->flushTrace(Sink);

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

TEST(AnalysisSessionTest, EngineReuseOnlyWhenUnobserved) {
  // A dropped result frees the engine for warm in-place reuse; a held
  // one pins it and forces the next run onto a fresh engine. Findings
  // are identical either way.
  MetricsRegistry Metrics;
  AnalysisOptions Opts;
  Opts.Telem.Metrics = &Metrics;
  auto Session = makeSession(paper::McCarthyProgram, Opts);
  ASSERT_NE(Session, nullptr);

  json::Value ColdFindings;
  uint64_t ColdLive = 0;
  {
    AnalysisResult First = Session->run();
    ColdFindings = findingsOnly(First);
    ColdLive = liveSteps(First);
  } // First dropped: nothing can observe the engine anymore
  EXPECT_EQ(Metrics.counterValue("session.engine_reuses"), 0u);
  EXPECT_GT(ColdLive, 0u);

  AnalysisResult Warm = Session->run();
  EXPECT_EQ(Metrics.counterValue("session.engine_reuses"), 1u);
  EXPECT_TRUE(findingsOnly(Warm) == ColdFindings);
  // The in-memory warm chain replays every stable component.
  EXPECT_EQ(liveSteps(Warm), 0u);

  // Warm is still alive and shares the engine: this run must not touch
  // it (immutability of published results) and builds a fresh engine.
  AnalysisResult Pinned = Session->run();
  EXPECT_EQ(Metrics.counterValue("session.engine_reuses"), 1u);
  EXPECT_TRUE(findingsOnly(Pinned) == ColdFindings);
  EXPECT_EQ(liveSteps(Pinned), ColdLive);
}

TEST(AnalysisSessionTest, OptionChangeForcesFreshEngine) {
  MetricsRegistry Metrics;
  AnalysisOptions Opts;
  Opts.Telem.Metrics = &Metrics;
  auto Session = makeSession(paper::ForProgram, Opts);
  ASSERT_NE(Session, nullptr);
  Session->run(); // result dropped immediately
  Session->options().NarrowingPasses += 1;
  AnalysisResult R = Session->run();
  // Changed configuration: the kept engine is not compatible, so no
  // reuse happened and the run paid a cold solve under the new knobs.
  EXPECT_EQ(Metrics.counterValue("session.engine_reuses"), 0u);
  EXPECT_GT(liveSteps(R), 0u);
}

/// Number of pruned (dead-slot) bindings over every main-routine point.
size_t prunedBindings(const AnalysisResult &R) {
  size_t N = 0;
  for (const PointState &S : R.mainStates())
    N += S.PrunedVars.size();
  return N;
}

TEST(AnalysisSessionTest, PruneChangeForcesFreshEngine) {
  // Engine reuse compares every option member: turning pruning off
  // after a pruned run must rebuild the engine, not re-run the pruned
  // one and keep reporting dead slots.
  const char *Source = "program p;\n"
                       "var i, n : integer;\n"
                       "    T : array [1..100] of integer;\n"
                       "begin\n"
                       "  read(n);\n"
                       "  for i := 0 to n do\n"
                       "    read(T[i])\n"
                       "end.\n";
  auto Session = makeSession(Source);
  ASSERT_NE(Session, nullptr);
  EXPECT_GT(prunedBindings(Session->run()), 0u);

  Session->options().prune(false);
  AnalysisResult Unpruned = Session->run();
  auto Fresh = makeSession(Source, AnalysisOptions().prune(false));
  ASSERT_NE(Fresh, nullptr);
  AnalysisResult Reference = Fresh->run();
  EXPECT_EQ(prunedBindings(Reference), 0u);
  EXPECT_EQ(prunedBindings(Unpruned), 0u);
  EXPECT_TRUE(findingsOnly(Unpruned) == findingsOnly(Reference));
}

TEST(AnalysisSessionTest, OptionChangeBeforeFirstRunRebuildsTheEngine) {
  // create() builds the engine the first run adopts, but only under the
  // options it was built with. Under intervals StrideSearch keeps a
  // strided bound check open that the product discharges, so a run that
  // adopted the stale interval engine would show.
  auto Session = makeSession(paper::StrideSearchProgram);
  ASSERT_NE(Session, nullptr);
  Session->options().domain(DomainKind::Product);
  AnalysisResult R = Session->run();
  EXPECT_EQ(R.toJson().find("domain")->asString(), "product");
  EXPECT_TRUE(R.checks().allSafe());

  auto Product = makeSession(paper::StrideSearchProgram,
                             AnalysisOptions().domain(DomainKind::Product));
  auto Interval = makeSession(paper::StrideSearchProgram);
  ASSERT_NE(Product, nullptr);
  ASSERT_NE(Interval, nullptr);
  json::Value Expected = findingsOnly(Product->run());
  EXPECT_TRUE(findingsOnly(R) == Expected);
  EXPECT_FALSE(findingsOnly(Interval->run()) == Expected);
}

/// The token_unfold events in \p Session's recorder, flushed.
unsigned tokenUnfoldEvents(AnalysisSession &Session) {
  std::ostringstream OS;
  StreamTraceSink Sink(OS, TraceFormat::JsonLines);
  Session.flushTrace(Sink);
  unsigned N = 0;
  std::istringstream In(OS.str());
  std::string Line;
  while (std::getline(In, Line)) {
    std::optional<json::Value> V = json::parse(Line);
    N += V && V->find("ev")->asString() == "token_unfold";
  }
  return N;
}

TEST(AnalysisSessionTest, TracingEnabledAfterCreateRecordsTheEngineBuild) {
  // create() builds without a recorder; enabling tracing afterwards
  // changes the engine's telemetry, so the first run rebuilds under the
  // recorder and the build's token unfoldings reach the trace.
  auto Session = makeSession(paper::McCarthyProgram);
  ASSERT_NE(Session, nullptr);
  Session->enableTracing();
  AnalysisResult R = Session->run();
  unsigned Instances =
      static_cast<unsigned>(R.analyzer().graph().instances().size());
  EXPECT_GT(Instances, 1u);
  EXPECT_EQ(tokenUnfoldEvents(*Session), Instances);
}

} // namespace
