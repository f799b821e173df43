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

std::unique_ptr<AnalysisSession>
AnalysisSession::create(std::string Source, DiagnosticsEngine &Diags,
                        AnalysisOptions Opts) {
  // Validate the program up front so run() cannot fail: frontend errors
  // surface here, once, with diagnostics. The validation build is the
  // engine itself, built under the telemetry run() installs, so the
  // first run adopts it instead of building the program again.
  std::unique_ptr<AnalysisSession> S(new AnalysisSession());
  S->Source = std::move(Source);
  S->Opts = std::move(Opts);
  S->installTelemetry();
  S->Engine = AbstractDebugger::create(S->Source, Diags, S->Opts);
  if (!S->Engine)
    return nullptr;
  S->EngineOpts = S->Opts;
  return S;
}

AnalysisSession::~AnalysisSession() = default;

TraceRecorder &AnalysisSession::enableTracing(uint32_t Mask) {
  if (!Trace || Trace->mask() != Mask)
    Trace = std::make_unique<TraceRecorder>(Mask);
  return *Trace;
}

void AnalysisSession::flushTrace(TraceSink &Sink) {
  if (Trace)
    Trace->flushTo(Sink);
}

void AnalysisSession::installTelemetry() {
  Opts.Telem.Trace = Trace.get();
  if (!Opts.Telem.Metrics)
    Opts.Telem.Metrics = &Metrics;
}

std::shared_ptr<AbstractDebugger> AnalysisSession::engineForRun(
    bool ForDemand) {
  // Reuse requires: we kept an engine, nothing else can observe it (a
  // live AnalysisResult/DemandResult shares ownership), the options
  // are unchanged member for member (the telemetry pointers too: the
  // Analyzer captures them at construction), and the run kinds
  // compose — a full run must not recycle a demand engine (the
  // published chain only ever held a private demand replay) and a
  // demand run must not recycle a fully analyzed engine
  // (analyzeDemand() refuses, to protect published results).
  bool Reusable = Engine && Engine.use_count() == 1 &&
                  EngineOpts == Opts &&
                  (ForDemand ? !Engine->Analyzed : !Engine->DemandAnalyzed);
  if (Reusable) {
    // Adopting the engine create() validated with is the first run's
    // build, not a reuse: only an engine that has run before counts.
    if (Engine->Analyzed || Engine->DemandAnalyzed)
      if (MetricsRegistry *M = Opts.Telem.Metrics)
        M->counter("session.engine_reuses").inc();
    return Engine;
  }
  DiagnosticsEngine Diags;
  Engine = AbstractDebugger::create(Source, Diags, Opts);
  assert(Engine && "session source was validated by create()");
  EngineOpts = Opts;
  EnginePersistProbed = false;
  return Engine;
}

void AnalysisSession::loadPersistCache(AbstractDebugger &Dbg) {
  // With a cache directory configured, the first run on a fresh engine
  // warm-starts from the persisted recordings of an earlier process,
  // falling back to cold on any mismatch.
  if (Opts.CacheDir.empty() || !Opts.WarmStart || EnginePersistProbed)
    return;
  EnginePersistProbed = true;
  MetricsRegistry *M = Opts.Telem.Metrics;
  persist::CacheLoadResult R = persist::loadWarmCache(Opts.CacheDir, *Dbg.An);
  if (M) {
    if (R.Loaded) {
      M->counter("persist.loaded").inc();
      M->counter("persist.slots").inc(R.Slots);
      M->counter("persist.restored_nodes").inc(R.RestoredNodes);
      M->counter("persist.invalidated_nodes").inc(R.InvalidatedNodes);
      M->counter("persist.matched_elements").inc(R.MatchedElements);
      M->counter("persist.unmatched_elements").inc(R.UnmatchedElements);
      M->counter("persist.restored_edge_memos").inc(R.RestoredEdgeMemos);
    } else {
      M->counter("persist.fallback").inc();
    }
  }
}

void AnalysisSession::savePersistCache(const AbstractDebugger &Dbg) {
  if (Opts.CacheDir.empty() || !Opts.WarmStart)
    return;
  if (persist::saveWarmCache(Opts.CacheDir, *Dbg.An))
    if (MetricsRegistry *M = Opts.Telem.Metrics)
      M->counter("persist.saved").inc();
}

AnalysisResult AnalysisSession::run() {
  installTelemetry();

  // Store detaches happen inside a value type with no telemetry
  // context; route them through the process-global hook for the
  // duration of this run when detail tracing asked for them.
  TraceRecorder *DetachHook =
      Trace && Trace->wants(TraceEventKind::StoreDetach) ? Trace.get()
                                                         : nullptr;
  if (DetachHook)
    trace::StoreDetachHook.store(DetachHook, std::memory_order_relaxed);

  std::shared_ptr<AbstractDebugger> Dbg = engineForRun(/*ForDemand=*/false);
  loadPersistCache(*Dbg);
  Dbg->analyze();
  savePersistCache(*Dbg);

  if (DetachHook)
    trace::StoreDetachHook.store(nullptr, std::memory_order_relaxed);

  return AnalysisResult(std::move(Dbg), Metrics.snapshot());
}

DemandResult AnalysisSession::runDemandQuery(const DemandSpec &Spec) {
  installTelemetry();

  TraceRecorder *DetachHook =
      Trace && Trace->wants(TraceEventKind::StoreDetach) ? Trace.get()
                                                         : nullptr;
  if (DetachHook)
    trace::StoreDetachHook.store(DetachHook, std::memory_order_relaxed);

  std::shared_ptr<AbstractDebugger> Dbg = engineForRun(/*ForDemand=*/true);
  // Demand runs compose with the on-disk cache exactly like full runs
  // (out-of-cone components replay from the loaded chain) but never
  // save: the cache must only ever hold full recordings.
  loadPersistCache(*Dbg);
  std::vector<PointState> States;
  CheckResult Check;
  try {
    Dbg->analyzeDemand(Spec);
    if (Spec.K == DemandSpec::Kind::Point)
      States = Dbg->demandStateAt(Spec.Loc);
    else
      Check = Dbg->demandCheck(Spec.CheckId);
  } catch (...) {
    if (DetachHook)
      trace::StoreDetachHook.store(nullptr, std::memory_order_relaxed);
    throw;
  }

  if (DetachHook)
    trace::StoreDetachHook.store(nullptr, std::memory_order_relaxed);

  return DemandResult(std::move(Dbg), Spec, std::move(States), Check,
                      Metrics.snapshot());
}

DemandResult AnalysisSession::demandStateAt(SourceLoc Loc) {
  return runDemandQuery(DemandSpec::point(Loc));
}

DemandResult AnalysisSession::demandCheck(unsigned CheckId) {
  return runDemandQuery(DemandSpec::check(CheckId));
}
