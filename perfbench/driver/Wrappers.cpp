//===- perfbench/driver/Wrappers.cpp - Spans around layer entry points ----===//
///
/// \file
/// Times the calls into each layer's public entry point from outside the
/// library. perfbench_traced links with `--wrap=<symbol>` for every
/// function below (the list in perfbench/CMakeLists.txt), so each call
/// that crosses from one library object into another lands in
/// __wrap_<symbol>, which opens a span and forwards to the original
/// (__real_<symbol>):
///  - serve::Server into the wire parser, AnalysisSession::create,
///    runRequest, the findings render, the response-line render,
///    ~AnalysisSession (a session evicted from the parked LRU) and
///    persist::gcCacheDir;
///  - AnalysisSession into AbstractDebugger::create/analyze and the
///    persist load and save;
///  - AbstractDebugger into the Lexer, the Parser, Sema, the CfgBuilder,
///    the Analyzer constructor, Analyzer::run and CheckAnalysis.
///
/// The declarations follow the Itanium C++ ABI: `this` is an explicit
/// first parameter, a class returned by value keeps its C++ return type
/// (the compiler passes the hidden result pointer ahead of `this`, as
/// for the member function), and a class parameter passed by value is a
/// pointer to the caller's temporary, forwarded untouched.
///
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "cfg/CfgBuilder.h"
#include "checks/CheckAnalysis.h"
#include "core/AbstractDebugger.h"
#include "core/AnalysisRequest.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "persist/CacheGc.h"
#include "persist/WarmCache.h"
#include "semantics/Analyzer.h"
#include "serve/Protocol.h"

#include <filesystem>

using namespace syntox;

std::atomic<perfbench::SpanRecorder *> perfbench::ActiveRecorder{nullptr};

using perfbench::LayerCounts;
using perfbench::SpanRecorder;
using perfbench::SpanScope;

/// Adds \p N to the current request's \p Field while tracing.
static void count(uint64_t LayerCounts::*Field, uint64_t N) {
  if (SpanRecorder *R =
          perfbench::ActiveRecorder.load(std::memory_order_acquire))
    R->add(Field, N);
}

#define PASTE(A, B) A##B
#define WRAP(Sym) PASTE(__wrap_, Sym)
#define REAL(Sym) PASTE(__real_, Sym)

// bool serve::parseServeRequest(const std::string &, const AnalysisOptions &,
//                               serve::ServeRequest &, std::string &)
#define WIRE_PARSE                                                             \
  _ZN6syntox5serve17parseServeRequestERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_15AnalysisOptionsERNS0_12ServeRequestERS6_
// static std::unique_ptr<AnalysisSession>
// AnalysisSession::create(std::string, DiagnosticsEngine &, AnalysisOptions)
#define SESSION_CREATE                                                         \
  _ZN6syntox15AnalysisSession6createENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERNS_17DiagnosticsEngineENS_15AnalysisOptionsE
// AnalysisSession::~AnalysisSession()
#define SESSION_DESTROY _ZN6syntox15AnalysisSessionD1Ev
// AnalysisOutcome runRequest(AnalysisSession &,
//                            const std::optional<DemandSpec> &)
#define SESSION_RUN                                                            \
  _ZN6syntox10runRequestERNS_15AnalysisSessionERKSt8optionalINS_10DemandSpecEE
// json::Value AnalysisOutcome::findingsJson() const
#define FINDINGS _ZNK6syntox15AnalysisOutcome12findingsJsonEv
// std::string json::Value::str() const
#define RESPONSE_LINE _ZNK6syntox4json5Value3strB5cxx11Ev
// persist::CacheGcResult persist::gcCacheDir(const std::string &, uint64_t)
#define GC                                                                     \
  _ZN6syntox7persist10gcCacheDirERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEm
// std::vector<Token> Lexer::lexAll()
#define LEX _ZN6syntox5Lexer6lexAllEv
// RoutineDecl *Parser::parseProgram()
#define PARSE _ZN6syntox6Parser12parseProgramEv
// bool Sema::analyze(RoutineDecl *)
#define SEMA _ZN6syntox4Sema7analyzeEPNS_11RoutineDeclE
// std::unique_ptr<ProgramCfg> CfgBuilder::build(RoutineDecl *)
#define CFG _ZN6syntox10CfgBuilder5buildEPNS_11RoutineDeclE
// Analyzer::Analyzer(const ProgramCfg &, RoutineDecl *, AnalysisOptions)
#define GRAPH                                                                  \
  _ZN6syntox8AnalyzerC1ERKNS_10ProgramCfgEPNS_11RoutineDeclENS_15AnalysisOptionsE
// void Analyzer::run()
#define SOLVE _ZN6syntox8Analyzer3runEv
// CheckAnalysis::CheckAnalysis(const Analyzer &)
#define CLASSIFY _ZN6syntox13CheckAnalysisC1ERKNS_8AnalyzerE
// static std::unique_ptr<AbstractDebugger>
// AbstractDebugger::create(const std::string &, DiagnosticsEngine &,
//                          AnalysisOptions)
#define CREATE                                                                 \
  _ZN6syntox16AbstractDebugger6createERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERNS_17DiagnosticsEngineENS_15AnalysisOptionsE
// void AbstractDebugger::analyze()
#define ANALYZE _ZN6syntox16AbstractDebugger7analyzeEv
// persist::CacheLoadResult persist::loadWarmCache(const std::string &,
//                                                 Analyzer &)
#define LOAD                                                                   \
  _ZN6syntox7persist13loadWarmCacheERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERNS_8AnalyzerE
// bool persist::saveWarmCache(const std::string &, const Analyzer &,
//                             std::string *)
#define SAVE                                                                   \
  _ZN6syntox7persist13saveWarmCacheERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_8AnalyzerEPS6_

extern "C" {

bool REAL(WIRE_PARSE)(const std::string &Line, const AnalysisOptions &Defaults,
                      serve::ServeRequest &Out, std::string &Error);
bool WRAP(WIRE_PARSE)(const std::string &Line, const AnalysisOptions &Defaults,
                      serve::ServeRequest &Out, std::string &Error) {
  SpanScope S("serve.wire_parse");
  return REAL(WIRE_PARSE)(Line, Defaults, Out, Error);
}

std::unique_ptr<AnalysisSession> REAL(SESSION_CREATE)(std::string *Source,
                                                      DiagnosticsEngine &Diags,
                                                      AnalysisOptions *Opts);
std::unique_ptr<AnalysisSession> WRAP(SESSION_CREATE)(std::string *Source,
                                                      DiagnosticsEngine &Diags,
                                                      AnalysisOptions *Opts) {
  SpanScope S("core.session_create");
  return REAL(SESSION_CREATE)(Source, Diags, Opts);
}

void REAL(SESSION_DESTROY)(AnalysisSession *Self);
void WRAP(SESSION_DESTROY)(AnalysisSession *Self) {
  SpanScope S("core.session_destroy");
  REAL(SESSION_DESTROY)(Self);
}

AnalysisOutcome REAL(SESSION_RUN)(AnalysisSession &Session,
                                  const std::optional<DemandSpec> &Query);
AnalysisOutcome WRAP(SESSION_RUN)(AnalysisSession &Session,
                                  const std::optional<DemandSpec> &Query) {
  SpanScope S("core.session_run");
  return REAL(SESSION_RUN)(Session, Query);
}

json::Value REAL(FINDINGS)(const AnalysisOutcome *Self);
json::Value WRAP(FINDINGS)(const AnalysisOutcome *Self) {
  SpanScope S("core.render");
  return REAL(FINDINGS)(Self);
}

// The response line is the one str() call the server makes directly
// under a request root; a call nested in another layer's span (the
// cache sidecar, say) belongs to that layer.
std::string REAL(RESPONSE_LINE)(const json::Value *Self);
std::string WRAP(RESPONSE_LINE)(const json::Value *Self) {
  SpanRecorder *R = perfbench::ActiveRecorder.load(std::memory_order_acquire);
  if (!R || !R->atRoot())
    return REAL(RESPONSE_LINE)(Self);
  SpanScope S("core.render");
  return REAL(RESPONSE_LINE)(Self);
}

persist::CacheGcResult REAL(GC)(const std::string &Dir, uint64_t MaxBytes);
persist::CacheGcResult WRAP(GC)(const std::string &Dir, uint64_t MaxBytes) {
  persist::CacheGcResult G;
  {
    SpanScope S("persist.gc");
    G = REAL(GC)(Dir, MaxBytes);
  }
  count(&LayerCounts::GcRuns, 1);
  count(&LayerCounts::TreeFiles, G.FilesKept);
  return G;
}

std::vector<Token> REAL(LEX)(Lexer *Self);
std::vector<Token> WRAP(LEX)(Lexer *Self) {
  SpanScope S("frontend.lex");
  std::vector<Token> Tokens = REAL(LEX)(Self);
  count(&LayerCounts::Tokens, Tokens.size());
  return Tokens;
}

RoutineDecl *REAL(PARSE)(Parser *Self);
RoutineDecl *WRAP(PARSE)(Parser *Self) {
  SpanScope S("frontend.parse");
  return REAL(PARSE)(Self);
}

bool REAL(SEMA)(Sema *Self, RoutineDecl *Program);
bool WRAP(SEMA)(Sema *Self, RoutineDecl *Program) {
  SpanScope S("frontend.sema");
  return REAL(SEMA)(Self, Program);
}

std::unique_ptr<ProgramCfg> REAL(CFG)(CfgBuilder *Self, RoutineDecl *Program);
std::unique_ptr<ProgramCfg> WRAP(CFG)(CfgBuilder *Self, RoutineDecl *Program) {
  SpanScope S("cfg.build");
  std::unique_ptr<ProgramCfg> Cfg = REAL(CFG)(Self, Program);
  if (Cfg)
    count(&LayerCounts::CfgPoints, Cfg->totalPoints());
  return Cfg;
}

void REAL(GRAPH)(Analyzer *Self, const ProgramCfg &Cfg, RoutineDecl *Program,
                 AnalysisOptions *Opts);
void WRAP(GRAPH)(Analyzer *Self, const ProgramCfg &Cfg, RoutineDecl *Program,
                 AnalysisOptions *Opts) {
  SpanScope S("semantics.graph");
  REAL(GRAPH)(Self, Cfg, Program, Opts);
}

void REAL(SOLVE)(Analyzer *Self);
void WRAP(SOLVE)(Analyzer *Self) {
  {
    SpanScope S("semantics.solve");
    REAL(SOLVE)(Self);
  }
  count(&LayerCounts::Solves, 1);
  count(&LayerCounts::Instances, Self->graph().instances().size());
  count(&LayerCounts::Nodes, Self->graph().numNodes());
  count(&LayerCounts::CacheOnSolves, Self->transferCacheEnabled());
}

void REAL(CLASSIFY)(CheckAnalysis *Self, const Analyzer &An);
void WRAP(CLASSIFY)(CheckAnalysis *Self, const Analyzer &An) {
  SpanScope S("checks.classify");
  REAL(CLASSIFY)(Self, An);
}

std::unique_ptr<AbstractDebugger> REAL(CREATE)(const std::string &Source,
                                               DiagnosticsEngine &Diags,
                                               AnalysisOptions *Opts);
std::unique_ptr<AbstractDebugger> WRAP(CREATE)(const std::string &Source,
                                               DiagnosticsEngine &Diags,
                                               AnalysisOptions *Opts) {
  SpanScope S("core.debugger_create");
  return REAL(CREATE)(Source, Diags, Opts);
}

void REAL(ANALYZE)(AbstractDebugger *Self);
void WRAP(ANALYZE)(AbstractDebugger *Self) {
  SpanScope S("core.analyze");
  REAL(ANALYZE)(Self);
}

persist::CacheLoadResult REAL(LOAD)(const std::string &Dir, Analyzer &An);
persist::CacheLoadResult WRAP(LOAD)(const std::string &Dir, Analyzer &An) {
  persist::CacheLoadResult R;
  {
    SpanScope S("persist.load");
    R = REAL(LOAD)(Dir, An);
  }
  count(&LayerCounts::Loads, 1);
  count(&LayerCounts::LoadHits, R.Loaded);
  count(&LayerCounts::RestoredNodes, R.RestoredNodes);
  count(&LayerCounts::LoadedNodes, An.graph().numNodes());
  return R;
}

bool REAL(SAVE)(const std::string &Dir, const Analyzer &An,
                std::string *ErrorOut);
bool WRAP(SAVE)(const std::string &Dir, const Analyzer &An,
                std::string *ErrorOut) {
  bool Saved;
  {
    SpanScope S("persist.save");
    Saved = REAL(SAVE)(Dir, An, ErrorOut);
  }
  // The file's size, read outside the span (the stat lands in the
  // caller's self time).
  if (Saved && perfbench::ActiveRecorder.load(std::memory_order_acquire)) {
    std::error_code EC;
    uintmax_t Bytes = std::filesystem::file_size(
        persist::cacheFilePath(Dir, An.options()), EC);
    count(&LayerCounts::Saves, 1);
    count(&LayerCounts::SavedBytes, EC ? 0 : Bytes);
  }
  return Saved;
}

} // extern "C"
