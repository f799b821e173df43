//===- core/AnalysisSession.cpp - Session/result analysis API -------------===//

#include "core/AnalysisSession.h"

#include "persist/WarmCache.h"

#include <cassert>

using namespace syntox;

json::Value AnalysisResult::toJson() const {
  json::Value V = json::Value::object();
  V.set("domain",
        domainKindName(Dbg->analyzer().storeOps().domainKind()));
  V.set("verdict", someExecutionMaySatisfySpec()
                       ? "some_execution_may_satisfy_spec"
                       : "no_execution_satisfies_spec");
  json::Value Cs = json::Value::array();
  for (const NecessaryCondition &C : conditions())
    Cs.push(C.toJson());
  V.set("conditions", std::move(Cs));
  json::Value Ws = json::Value::array();
  for (const InvariantWarning &W : invariantWarnings())
    Ws.push(W.toJson());
  V.set("invariant_warnings", std::move(Ws));
  V.set("checks", checks().toJson());
  V.set("stats", stats().toJson());
  V.set("metrics", MetricsSnapshot);
  return V;
}

json::Value DemandResult::toJson() const {
  json::Value V = json::Value::object();
  V.set("domain",
        domainKindName(Dbg->analyzer().storeOps().domainKind()));
  json::Value Q = json::Value::object();
  if (Spec.K == DemandSpec::Kind::Point) {
    Q.set("kind", "point");
    Q.set("line", Spec.Loc.Line);
    Q.set("column", Spec.Loc.Column);
  } else {
    Q.set("kind", "check");
    Q.set("check_id", Spec.CheckId);
  }
  V.set("query", std::move(Q));
  json::Value Ss = json::Value::array();
  for (const PointState &S : States)
    Ss.push(S.toJson());
  V.set("states", std::move(Ss));
  if (const CheckResult *C = check())
    V.set("check", C->toJson(Dbg->analyzer().storeOps().domain()));
  json::Value Cs = json::Value::array();
  for (const NecessaryCondition &C : conditions())
    Cs.push(C.toJson());
  V.set("conditions", std::move(Cs));
  json::Value Ws = json::Value::array();
  for (const InvariantWarning &W : invariantWarnings())
    Ws.push(W.toJson());
  V.set("invariant_warnings", std::move(Ws));
  V.set("stats", stats().toJson());
  V.set("metrics", MetricsSnapshot);
  return V;
}

namespace {

/// Store detaches happen inside a value type with no telemetry context;
/// while a build or run is in scope, route them to the session's
/// recorder, when it asks for them, through the calling thread's sink.
/// A build or run executes on the thread that calls it, so sessions on
/// other threads never see this one's events.
class StoreDetachScope {
public:
  explicit StoreDetachScope(TraceRecorder *Trace)
      : Prev(trace::StoreDetachSink) {
    if (Trace && Trace->wants(TraceEventKind::StoreDetach))
      trace::StoreDetachSink = Trace;
  }
  ~StoreDetachScope() { trace::StoreDetachSink = Prev; }
  StoreDetachScope(const StoreDetachScope &) = delete;
  StoreDetachScope &operator=(const StoreDetachScope &) = delete;

private:
  TraceRecorder *Prev;
};

} // namespace

std::unique_ptr<AnalysisSession>
AnalysisSession::create(std::string Source, DiagnosticsEngine &Diags,
                        AnalysisOptions Opts) {
  // Validate the program up front so run() cannot fail: frontend errors
  // surface here, once, with diagnostics. The validation build is the
  // engine the first run adopts, built under the same telemetry, so
  // the program is built once.
  std::unique_ptr<AnalysisSession> S(new AnalysisSession());
  S->Source = std::move(Source);
  S->Opts = std::move(Opts);
  if (!S->Opts.Telem.Metrics)
    S->Opts.Telem.Metrics = &S->Metrics;
  StoreDetachScope Detach(S->Opts.Telem.Trace);
  S->Engine = AbstractDebugger::create(S->Source, Diags, S->Opts);
  if (!S->Engine)
    return nullptr;
  return S;
}

AnalysisSession::~AnalysisSession() = default;

std::shared_ptr<AbstractDebugger> AnalysisSession::engineForRun() {
  if (Engine)
    return std::move(Engine);
  DiagnosticsEngine Diags;
  std::shared_ptr<AbstractDebugger> Dbg =
      AbstractDebugger::create(Source, Diags, Opts);
  assert(Dbg && "session source was validated by create()");
  return Dbg;
}

bool AnalysisSession::loadPersistCache(AbstractDebugger &Dbg) {
  // With a cache directory configured, each engine warm-starts from
  // the persisted recordings of an earlier run, falling back to cold
  // on any mismatch.
  if (Opts.CacheDir.empty() || !Opts.WarmStart)
    return false;
  MetricsRegistry *M = Opts.Telem.Metrics;
  persist::CacheLoadResult R = persist::loadWarmCache(Opts.CacheDir, *Dbg.An);
  if (R.Loaded) {
    M->counter("persist.loaded").inc();
    M->counter("persist.slots").inc(R.Slots);
    M->counter("persist.restored_nodes").inc(R.RestoredNodes);
  } else {
    M->counter("persist.fallback").inc();
  }
  return R.Loaded;
}

void AnalysisSession::savePersistCache(const AbstractDebugger &Dbg,
                                       bool Loaded) {
  if (Opts.CacheDir.empty() || !Opts.WarmStart)
    return;
  MetricsRegistry *M = Opts.Telem.Metrics;
  if (Loaded) {
    uint64_t LiveSteps = 0;
    for (const PhaseStats &P : Dbg.An->stats().Phases)
      LiveSteps += P.WideningSteps + P.NarrowingSteps;
    if (LiveSteps == 0 && persist::touchWarmCache(Opts.CacheDir, Opts)) {
      M->counter("persist.save_skipped").inc();
      return;
    }
  }
  if (persist::saveWarmCache(Opts.CacheDir, *Dbg.An))
    M->counter("persist.saved").inc();
}

AnalysisResult AnalysisSession::run() {
  StoreDetachScope Detach(Opts.Telem.Trace);
  std::shared_ptr<AbstractDebugger> Dbg = engineForRun();
  bool Loaded = loadPersistCache(*Dbg);
  Dbg->analyze();
  savePersistCache(*Dbg, Loaded);
  return AnalysisResult(std::move(Dbg), Metrics.snapshot());
}

DemandResult AnalysisSession::runDemandQuery(const DemandSpec &Spec) {
  StoreDetachScope Detach(Opts.Telem.Trace);
  std::shared_ptr<AbstractDebugger> Dbg = engineForRun();
  // Demand runs compose with the on-disk cache exactly like full runs
  // (out-of-cone components replay from the loaded chain) but never
  // save: the cache must only ever hold full recordings.
  loadPersistCache(*Dbg);
  Dbg->analyzeDemand(Spec);
  std::vector<PointState> States;
  CheckResult Check;
  if (Spec.K == DemandSpec::Kind::Point)
    States = Dbg->demandStateAt(Spec.Loc);
  else
    Check = Dbg->demandCheck(Spec.CheckId);
  return DemandResult(std::move(Dbg), Spec, std::move(States), Check,
                      Metrics.snapshot());
}

DemandResult AnalysisSession::demandStateAt(SourceLoc Loc) {
  return runDemandQuery(DemandSpec::point(Loc));
}

DemandResult AnalysisSession::demandCheck(unsigned CheckId) {
  return runDemandQuery(DemandSpec::check(CheckId));
}
