//===- perfbench/driver/traced.cpp - The traced run -----------------------===//
///
/// \file
/// The per-layer breakdown of a workload, in two parts:
///  1. a daemon window of --seconds/3, for what only the daemon can
///     tell: the envelopes' queue and run times, the transport time
///     around them, the session-hit and collection counters, the
///     client's busy share;
///  2. two replays of the workload's request sequence through the real
///     serve::Server, running in this process on socketpairs with one
///     worker slot each, for --seconds/2: every request goes, one at a
///     time, untraced to one server and traced to the other, the order
///     alternating from request to request. Each server keeps its own
///     parked-session LRU, cache shards and post-save collection, so
///     each request pays the layers it pays in the daemon, and
///     Wrappers.cpp records a span around every call into a layer's
///     entry point on the traced side.
/// Prints the per-layer self-time table, per-family (cold, edit) or
/// per-program (deep) rows, span coverage, and the tracing overhead
/// (the traced replay's exchange time against the untraced one's),
/// writes trace.json (Chrome trace_event) and layers.txt, and ends with
/// the JSON result of every per-layer metric.
/// Every daemon answer and every replayed answer is checked against the
/// cold in-process reference; any mismatch exits 1.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Reference.h"
#include "Spans.h"

#include "serve/Server.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace syntox;

namespace {

/// The layer spans, in pipeline order (the table's row order).
const char *const Layers[] = {
    "serve.request",        "serve.wire_parse", "core.session_create",
    "core.debugger_create", "frontend.lex",     "frontend.parse",
    "frontend.sema",        "cfg.build",        "semantics.graph",
    "core.session_run",     "persist.load",     "core.analyze",
    "semantics.solve",      "checks.classify",  "persist.save",
    "core.render",          "core.session_destroy", "persist.gc"};

const char *const PhaseKeys[] = {"forward", "refine", "always", "eventually",
                                 "final"};

/// Stable short key of a refinement phase: forward, refine, always,
/// eventually (round 1+) or final (the forward pass of round 1+).
std::string phaseKey(const std::string &Name, bool FirstRound) {
  if (Name == "Forward analysis")
    return FirstRound ? "forward" : "final";
  if (Name == "Forward refinement")
    return "refine";
  if (Name == "Invariant assertions")
    return "always";
  if (Name == "Intermittent assertions")
    return "eventually";
  return "other";
}

double safeDiv(double A, double B) { return B != 0 ? A / B : 0; }

/// The real serve::Server in this process, behind its wire protocol on
/// a socketpair. It is configured as the daemon is for the workload,
/// except for its single worker slot and its cache root \p CacheDir.
class InProcessServer {
public:
  InProcessServer(const Workload &W, const std::string &CacheDir) {
    serve::ServerConfig Cfg;
    Cfg.TotalThreads = 1;
    if (W.cacheMaxBytes()) {
      Cfg.CacheDir = CacheDir;
      Cfg.CacheMaxBytes = W.cacheMaxBytes();
    }
    Srv = std::make_unique<serve::Server>(Cfg);
    int Fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, Fds) != 0) {
      std::perror("perfbench: socketpair");
      std::exit(1);
    }
    ClientFd = Fds[0];
    ServerFd = Fds[1];
    Conn.emplace(ClientFd);
    Thread = std::thread([this] { Srv->serve(ServerFd, ServerFd); });
  }
  ~InProcessServer() {
    ::shutdown(ClientFd, SHUT_WR); // end of input: serve() drains, returns
    Thread.join();
    ::close(ServerFd);
  }
  InProcessServer(const InProcessServer &) = delete;
  InProcessServer &operator=(const InProcessServer &) = delete;

  Connection &connection() { return *Conn; }

private:
  std::unique_ptr<serve::Server> Srv;
  std::optional<Connection> Conn; ///< owns ClientFd
  int ClientFd = -1;
  int ServerFd = -1;
  std::thread Thread;
};

/// The workload's request sequence replayed through two in-process
/// servers side by side, one request at a time: untraced through one,
/// traced through the other.
struct Replays {
  std::vector<Request> Reqs;
  std::vector<std::string> Plain, Traced; ///< responses; empty = none
  std::vector<LayerCounts> Counts;        ///< per traced request
  double PlainSeconds = 0, TracedSeconds = 0; ///< summed exchange times
};

/// Replays requests for \p Seconds. Each request goes to both servers,
/// the traced one first on every other request, so that a change of host
/// speed or an order effect hits both replays alike.
Replays replay(const RunOptions &Opts, SpanRecorder &Rec, double Seconds) {
  std::unique_ptr<Workload> W = Workload::create(Opts.Workload, Opts.Seed);
  const char *const Roots[] = {"replay-plain", "replay-traced"};
  std::error_code EC;
  for (const char *Root : Roots)
    std::filesystem::remove_all(Root, EC);
  Replays Out;
  {
    InProcessServer Plain(*W, Roots[0]), Traced(*W, Roots[1]);
    for (const Request &R : W->priming()) // set-up, untraced
      for (InProcessServer *S : {&Plain, &Traced}) {
        std::optional<std::string> Resp =
            S->connection().exchange(requestLine(R), wireId(R));
        if (!Resp || Resp->find("\"status\":\"ok\"") == std::string::npos) {
          std::fprintf(stderr, "perfbench: replay priming request %s failed\n",
                       wireId(R).c_str());
          std::exit(1);
        }
      }
    auto Exchange = [](InProcessServer &S, const std::string &Line,
                       const std::string &Id, double &Seconds) {
      Clock::time_point T0 = Clock::now();
      std::optional<std::string> Resp;
      {
        SpanScope Root("serve.request");
        Resp = S.connection().exchange(Line, Id);
      }
      Seconds += msBetween(T0, Clock::now()) / 1000;
      return Resp.value_or(std::string());
    };
    Clock::time_point T0 = Clock::now();
    for (uint32_t I = 0; msBetween(T0, Clock::now()) < 1000 * Seconds; ++I) {
      const Request &R = Out.Reqs.emplace_back(W->next());
      std::string Line = requestLine(R), Id = wireId(R);
      auto RunPlain = [&] {
        Out.Plain.push_back(Exchange(Plain, Line, Id, Out.PlainSeconds));
      };
      if (I % 2)
        RunPlain();
      Rec.beginRequest(I + 1);
      ActiveRecorder.store(&Rec, std::memory_order_release);
      Out.Traced.push_back(Exchange(Traced, Line, Id, Out.TracedSeconds));
      ActiveRecorder.store(nullptr, std::memory_order_release);
      Out.Counts.push_back(Rec.counts());
      if (!(I % 2))
        RunPlain();
    }
  }
  for (const char *Root : Roots)
    std::filesystem::remove_all(Root, EC);
  return Out;
}

/// What a replayed response says, beyond its spans: its findings
/// fingerprint and the engine statistics of the findings' `stats`.
struct Replayed {
  bool Ok = false;
  std::string Error;
  uint64_t FindingsHash = 0;
  std::map<std::string, double> PhaseMs; ///< by phaseKey()
  double LiveEvals = 0, SkippedSteps = 0, Widenings = 0, Narrowings = 0,
         Unions = 0, StoreBytes = 0, CacheHits = 0, CacheMisses = 0;
};

Replayed digest(const std::string &Response) {
  Replayed Out;
  std::optional<json::Value> V = json::parse(Response);
  const json::Value *Status = V ? V->find("status") : nullptr;
  const json::Value *F = V ? V->find("findings") : nullptr;
  const json::Value *S = F ? F->find("stats") : nullptr;
  if (!Status || Status->asString() != "ok" || !S) {
    const json::Value *Err = V ? V->find("error") : nullptr;
    Out.Error = Err ? Err->asString() : "no answer";
    return Out;
  }
  auto Num = [](const json::Value &Obj, const char *Key) {
    const json::Value *X = Obj.find(Key);
    return X ? X->asDouble() : 0.0;
  };
  Out.Ok = true;
  Out.FindingsHash = findingsHash(*F);
  if (const json::Value *Ps = S->find("phases"))
    for (const json::Value &P : Ps->elements()) {
      const json::Value *Name = P.find("name");
      Out.PhaseMs[phaseKey(Name ? Name->asString() : "",
                           Num(P, "round") == 0)] += 1000 * Num(P, "seconds");
      Out.LiveEvals += Num(P, "widening_steps") + Num(P, "narrowing_steps");
    }
  Out.SkippedSteps = Num(*S, "skipped_steps");
  Out.Widenings = Num(*S, "widenings");
  Out.Narrowings = Num(*S, "narrowings");
  Out.Unions = Num(*S, "unions");
  Out.StoreBytes = Num(*S, "bytes_used");
  Out.CacheHits = Num(*S, "cache_hits");
  Out.CacheMisses = Num(*S, "cache_misses");
  return Out;
}

/// Self and inclusive time of every span, per request and layer.
struct SpanTotals {
  /// [request id][layer] -> self ms
  std::map<uint32_t, std::map<std::string, double>> SelfMs;
  std::map<uint32_t, std::map<std::string, double>> InclusiveMs;
  std::map<std::string, uint64_t> Calls;
  double RootMs = 0, CoveredMs = 0;
};

SpanTotals totals(const std::vector<Span> &Spans) {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent)
      ChildNs[S.Parent - 1] += S.EndNs - S.StartNs;
  SpanTotals T;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    double Dur = (S.EndNs - S.StartNs) / 1e6;
    double Self = Dur - ChildNs[I] / 1e6;
    T.SelfMs[S.Request][S.Name] += Self;
    T.InclusiveMs[S.Request][S.Name] += Dur;
    ++T.Calls[S.Name];
    if (!S.Parent) {
      T.RootMs += Dur;
      T.CoveredMs += Dur - Self;
    }
  }
  return T;
}

/// Chrome trace_event file: each span is a B/E pair named after its
/// layer, args.arg0 = request id, args.arg1 = parent span (index + 1).
void writeTrace(const std::vector<Span> &Spans, const std::string &Path) {
  std::vector<TraceEvent> Events;
  std::vector<uint32_t> Open;
  auto End = [&] {
    const Span &S = Spans[Open.back() - 1];
    Events.push_back({TraceEventKind::PhaseEnd, 0, S.EndNs, S.Request,
                      S.Parent, S.Name});
    Open.pop_back();
  };
  for (uint32_t I = 1; I <= Spans.size(); ++I) {
    const Span &S = Spans[I - 1];
    while (!Open.empty() && Open.back() != S.Parent)
      End();
    Events.push_back({TraceEventKind::PhaseBegin, 0, S.StartNs, S.Request,
                      S.Parent, S.Name});
    Open.push_back(I);
  }
  while (!Open.empty())
    End();
  std::ofstream OS(Path);
  writeChromeTrace(Events, OS);
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions Opts = parseRunOptions(Argc, Argv, "perfbench_traced");
  unsigned Threads = std::max(1u, std::thread::hardware_concurrency());
  double Part = Opts.Seconds / 3;

  // 1. The daemon window.
  std::unique_ptr<Workload> W = Workload::create(Opts.Workload, Opts.Seed);
  Launched L = launchDaemon(Opts, *W, 1);
  json::Value Before = daemonMetrics(*L.D);
  Window Win = runClosedLoop(L.D->connection(), *W, W->outstanding(), Part);
  json::Value After = daemonMetrics(*L.D);
  L.D.reset();
  std::error_code EC;
  std::filesystem::remove_all(CacheDir, EC);
  AnswerCheck Check = checkAnswers(Win, Threads);
  std::map<std::string, double> Counters = metricsDelta(Before, After);
  double QueueMs = 0, RunMs = 0, TransportMs = 0;
  size_t Answered = 0;
  std::vector<double> LatencyMs;
  for (const Answer &A : Check.Answers)
    if (A.K != Answer::Kind::Missing) {
      ++Answered;
      LatencyMs.push_back(A.LatencyMs);
      QueueMs += A.QueueMs;
      RunMs += A.RunMs;
      TransportMs += A.LatencyMs - A.TotalMs;
    }

  // 2. The replays, for the rest of the time.
  SpanRecorder Rec;
  Replays Rp = replay(Opts, Rec, 1.5 * Part);
  size_t N = Rp.Reqs.size();

  // Replayed answers must match the reference, and each other.
  std::vector<Replayed> Outs;
  std::vector<const Request *> ReqPtrs;
  for (size_t I = 0; I < N; ++I) {
    Outs.push_back(digest(Rp.Traced[I]));
    ReqPtrs.push_back(&Rp.Reqs[I]);
  }
  std::vector<Reference> Refs = computeReferences(ReqPtrs, Threads);
  uint64_t ReplayFailed = 0;
  for (size_t I = 0; I < N; ++I) {
    const Replayed &O = Outs[I];
    std::string Why;
    if (!O.Ok)
      Why = O.Error;
    else if (!Refs[I].OK)
      Why = Refs[I].Error;
    else if (O.FindingsHash != Refs[I].FindingsHash ||
             digest(Rp.Plain[I]).FindingsHash != O.FindingsHash)
      Why = "findings differ from the reference";
    if (!Why.empty() && ReplayFailed++ < 5)
      std::fprintf(stderr, "perfbench: wrong replayed answer r%zu (%s): %s\n",
                   I, Rp.Reqs[I].Group.c_str(), Why.c_str());
  }

  // Per-request layer numbers and per-group rows.
  SpanTotals T = totals(Rec.spans());
  const std::vector<LayerCounts> &C = Rp.Counts;
  auto Sum = [&](auto Field) {
    double S = 0;
    for (size_t I = 0; I < N; ++I)
      S += Field(I);
    return S;
  };
  auto Mean = [&](auto Field) { return safeDiv(Sum(Field), N); };
  auto SelfMean = [&](const char *Layer) {
    return Mean([&](size_t I) { return T.SelfMs[I + 1][Layer]; });
  };
  auto Total = [&](uint64_t LayerCounts::*Field) {
    return Sum([&](size_t I) { return static_cast<double>(C[I].*Field); });
  };
  double LiveEvals = Sum([&](size_t I) { return Outs[I].LiveEvals; });
  double Skipped = Sum([&](size_t I) { return Outs[I].SkippedSteps; });
  double Hits = Sum([&](size_t I) { return Outs[I].CacheHits; });
  double Probes = Hits + Sum([&](size_t I) { return Outs[I].CacheMisses; });
  double Solves = Total(&LayerCounts::Solves);
  double SessionHits = Counters["serve.session_hits"];
  double SessionProbes = SessionHits + Counters["serve.session_misses"];

  MetricSet M;
  M.add("frontend.lex_ms", SelfMean("frontend.lex"), "ms");
  M.add("frontend.parse_ms", SelfMean("frontend.parse"), "ms");
  M.add("frontend.sema_ms", SelfMean("frontend.sema"), "ms");
  M.add("frontend.tokens", safeDiv(Total(&LayerCounts::Tokens), N), "count");
  M.add("cfg.build_ms", SelfMean("cfg.build"), "ms");
  M.add("cfg.points", safeDiv(Total(&LayerCounts::CfgPoints), N), "count");
  M.add("core.session_create_ms", Mean([&](size_t I) {
          return T.InclusiveMs[I + 1]["core.session_create"];
        }),
        "ms");
  M.add("semantics.graph_ms", SelfMean("semantics.graph"), "ms");
  M.add("semantics.instances", safeDiv(Total(&LayerCounts::Instances), Solves),
        "count");
  M.add("semantics.nodes", safeDiv(Total(&LayerCounts::Nodes), Solves),
        "count");
  M.add("semantics.solve_ms", SelfMean("semantics.solve"), "ms");
  for (const char *K : PhaseKeys)
    M.add(std::string("semantics.phase.") + K + "_ms",
          Mean([&](size_t I) {
            auto It = Outs[I].PhaseMs.find(K);
            return It == Outs[I].PhaseMs.end() ? 0.0 : It->second;
          }),
          "ms");
  M.add("fixpoint.live_evals", safeDiv(LiveEvals, N), "count");
  M.add("fixpoint.widenings",
        Mean([&](size_t I) { return Outs[I].Widenings; }), "count");
  M.add("fixpoint.narrowings",
        Mean([&](size_t I) { return Outs[I].Narrowings; }), "count");
  M.add("lattice.unions", Mean([&](size_t I) { return Outs[I].Unions; }),
        "count");
  M.add("store.bytes", Mean([&](size_t I) { return Outs[I].StoreBytes; }),
        "bytes");
  M.add("semantics.transfer_cache_hit_ratio", safeDiv(Hits, Probes), "ratio");
  M.add("fixpoint.replayed_share", safeDiv(Skipped, Skipped + LiveEvals),
        "ratio");
  M.add("checks.classify_ms", SelfMean("checks.classify"), "ms");
  M.add("core.derive_ms", SelfMean("core.analyze"), "ms");
  M.add("core.render_ms", SelfMean("core.render"), "ms");
  M.add("core.session_destroy_ms", SelfMean("core.session_destroy"), "ms");
  M.add("persist.load_ms", SelfMean("persist.load"), "ms");
  M.add("persist.save_ms", SelfMean("persist.save"), "ms");
  M.add("persist.gc_ms", SelfMean("persist.gc"), "ms");
  M.add("persist.file_bytes",
        safeDiv(Total(&LayerCounts::SavedBytes), Total(&LayerCounts::Saves)),
        "bytes");
  M.add("persist.tree_files",
        safeDiv(Total(&LayerCounts::TreeFiles), Total(&LayerCounts::GcRuns)),
        "count");
  M.add("persist.load_hit_ratio",
        safeDiv(Total(&LayerCounts::LoadHits), Total(&LayerCounts::Loads)),
        "ratio");
  M.add("persist.restored_node_share",
        safeDiv(Total(&LayerCounts::RestoredNodes),
                Total(&LayerCounts::LoadedNodes)),
        "ratio");
  M.add("latency_p99_ms", percentile(LatencyMs, 0.99), "ms");
  M.add("serve.wire_parse_ms", SelfMean("serve.wire_parse"), "ms");
  M.add("serve.queue_ms", safeDiv(QueueMs, Answered), "ms");
  M.add("serve.run_ms", safeDiv(RunMs, Answered), "ms");
  M.add("serve.transport_ms", safeDiv(TransportMs, Answered), "ms");
  M.add("serve.session_hit_ratio", safeDiv(SessionHits, SessionProbes),
        "ratio");
  M.add("serve.gc_runs", safeDiv(Counters["serve.gc_runs"], Answered),
        "1/req");
  M.add("client.busy_share", safeDiv(Win.ClientCpuSeconds, Win.Seconds),
        "ratio");
  M.add("trace.span_coverage", safeDiv(T.CoveredMs, T.RootMs), "ratio");
  M.add("trace.overhead", safeDiv(Rp.TracedSeconds, Rp.PlainSeconds) - 1,
        "ratio");

  // The self-time table.
  std::string Table;
  char Line[256];
  std::snprintf(Line, sizeof(Line), "%-22s %8s %12s %12s %8s\n", "layer",
                "calls", "self ms", "ms/request", "share");
  Table += Line;
  for (const char *Layer : Layers) {
    double Self = Sum([&](size_t I) { return T.SelfMs[I + 1][Layer]; });
    std::snprintf(Line, sizeof(Line), "%-22s %8llu %12.3f %12.4f %7.1f%%\n",
                  Layer, static_cast<unsigned long long>(T.Calls[Layer]), Self,
                  safeDiv(Self, N), 100 * safeDiv(Self, T.RootMs));
    Table += Line;
  }

  // Per-family (cold, edit) or per-program (deep) rows.
  std::map<std::string, std::vector<size_t>> Groups;
  for (size_t I = 0; I < N; ++I)
    Groups[Rp.Reqs[I].Group].push_back(I);
  std::string Rows;
  std::snprintf(Line, sizeof(Line),
                "%-16s %5s %5s %6s %-9s %9s %9s %9s %9s %9s %9s %9s %10s\n",
                "group", "n", "inst", "nodes", "xfercache", "req_ms",
                "front_ms", "graph_ms", "solve_ms", "chk+drv", "render_ms",
                "persist", "live_evals");
  Rows += Line;
  for (const auto &[Group, Is] : Groups) {
    auto G = [&](auto Field) {
      double S = 0;
      for (size_t I : Is)
        S += Field(I);
      return S / Is.size();
    };
    auto L = [&](std::initializer_list<const char *> Names) {
      return G([&](size_t I) {
        double S = 0;
        for (const char *Nm : Names)
          S += T.SelfMs[I + 1][Nm];
        return S;
      });
    };
    double GroupSolves = G([&](size_t I) { return C[I].Solves; });
    double CacheOn =
        safeDiv(G([&](size_t I) { return C[I].CacheOnSolves; }), GroupSolves);
    std::snprintf(
        Line, sizeof(Line),
        "%-16s %5zu %5.0f %6.0f %-9s %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f "
        "%9.3f %10.0f\n",
        Group.c_str(), Is.size(),
        safeDiv(G([&](size_t I) { return C[I].Instances; }), GroupSolves),
        safeDiv(G([&](size_t I) { return C[I].Nodes; }), GroupSolves),
        CacheOn == 1 ? "on" : CacheOn == 0 ? "off" : "mixed",
        G([&](size_t I) { return T.InclusiveMs[I + 1]["serve.request"]; }),
        L({"frontend.lex", "frontend.parse", "frontend.sema", "cfg.build"}),
        L({"semantics.graph"}), L({"semantics.solve"}),
        L({"checks.classify", "core.analyze"}), L({"core.render"}),
        L({"persist.load", "persist.save", "persist.gc"}),
        G([&](size_t I) { return Outs[I].LiveEvals; }));
    Rows += Line;
  }

  uint64_t Failed = Check.Failed + ReplayFailed;
  bool Correct = Failed == 0 && !Win.Broken && N > 0;
  std::printf("perfbench traced %s seed=%llu seconds=%g (%s)\n",
              Opts.Workload.c_str(),
              static_cast<unsigned long long>(Opts.Seed), Opts.Seconds,
              buildInfo().c_str());
  std::printf("  daemon window: %zu requests in %.3f s; in-process server "
              "replays: %zu requests, %.3f s untraced, %.3f s traced\n",
              Win.Exchanges.size(), Win.Seconds, N, Rp.PlainSeconds,
              Rp.TracedSeconds);
  std::printf("\nper-layer self time over the traced replay:\n%s",
              Table.c_str());
  std::printf("\nper-%s rows (xfercache: adaptive transfer cache, on at >= "
              "%u instances):\n%s\n",
              Opts.Workload == "deep" ? "program" : "family",
              AnalysisOptions().AdaptiveCacheInstanceThreshold, Rows.c_str());
  M.print();
  for (const std::string &Note : Check.Notes)
    std::fprintf(stderr, "perfbench: wrong answer: %s\n", Note.c_str());

  writeTrace(Rec.spans(), "trace.json");
  std::ofstream("layers.txt") << Table << "\n" << Rows << "\n"
                              << M.json() << "\n";
  printResult(Correct, Win.Exchanges.size() + N, Failed, M);
  return Correct ? 0 : 1;
}
