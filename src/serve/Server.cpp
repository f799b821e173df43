//===- serve/Server.cpp - Long-lived analysis daemon ----------------------===//

#include "serve/Server.h"

#include "frontend/Fingerprint.h"
#include "persist/WarmCache.h"
#include "support/Diagnostics.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <thread>
#include <unistd.h>

using namespace syntox;
using namespace syntox::serve;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start, Clock::time_point End) {
  return std::chrono::duration<double, std::milli>(End - Start).count();
}

uint64_t fpString(const std::string &S) {
  uint64_t H = fpSeed();
  for (unsigned char C : S)
    H = fpMix(H, C);
  return H;
}

} // namespace

/// One admitted analyze request, shared between the read loop and the
/// worker that runs it.
struct Server::Pending {
  ServeRequest R;
  Clock::time_point Enqueued;
};

Server::Server(ServerConfig Cfg)
    : Cfg(std::move(Cfg)), CacheIndex(this->Cfg.CacheDir) {
  if (this->Cfg.CacheMaxBytes)
    CacheIndex.rescan(); // the one walk; saves then update it per entry
}
Server::~Server() = default;

void Server::writeLine(int OutFd, const json::Value &Response) {
  std::string Line = Response.str();
  Line += '\n';
  std::lock_guard<std::mutex> Lock(WriteMutex);
  size_t Off = 0;
  while (Off < Line.size()) {
    ssize_t N = ::write(OutFd, Line.data() + Off, Line.size() - Off);
    if (N <= 0)
      return; // client gone; the drain still completes server-side
    Off += static_cast<size_t>(N);
  }
}

json::Value Server::gcPayload() {
  persist::CacheGcResult G;
  {
    std::lock_guard<std::mutex> Lock(GcMutex);
    // A full pass over the tree on disk. To gcCacheDir a cap of 0 means
    // "collect everything", so an unbounded daemon's pass only reports.
    G = persist::gcCacheDir(Cfg.CacheDir, Cfg.CacheMaxBytes
                                              ? Cfg.CacheMaxBytes
                                              : UINT64_MAX);
    if (Cfg.CacheMaxBytes)
      CacheIndex.rescan();
  }
  Metrics.counter("serve.gc_runs").inc();
  Metrics.counter("serve.gc_files_removed").inc(G.FilesRemoved);
  json::Value V = json::Value::object();
  V.set("bytes_before", G.BytesBefore);
  V.set("bytes_after", G.BytesAfter);
  V.set("files_removed", G.FilesRemoved);
  V.set("files_kept", G.FilesKept);
  V.set("max_bytes", Cfg.CacheMaxBytes);
  return V;
}

void Server::evictAfterSave(const std::string &WarmPath) {
  persist::CacheGcResult G;
  {
    std::lock_guard<std::mutex> Lock(GcMutex);
    CacheIndex.touch(WarmPath);
    G = CacheIndex.shrinkTo(Cfg.CacheMaxBytes);
  }
  Metrics.counter("serve.gc_files_removed").inc(G.FilesRemoved);
}

void Server::runAnalyze(std::shared_ptr<Pending> P, int OutFd) {
  const ServeRequest &R = P->R;
  Clock::time_point Picked = Clock::now();
  double QueueMs = msSince(P->Enqueued, Picked);
  Metrics.histogram("serve.queue_ms").observe(QueueMs);

  // Admission-time deadline: the solver has no preemption point, so an
  // expired request is shed here, before it can occupy a worker for a
  // full solve.
  unsigned TimeoutMs = R.TimeoutMs ? R.TimeoutMs : Cfg.RequestTimeoutMs;
  if (TimeoutMs && QueueMs > static_cast<double>(TimeoutMs)) {
    Metrics.counter("serve.timeouts").inc();
    json::Value Resp = makeEnvelope(R.Id, R.Kind, "timeout");
    Resp.set("error", "request spent " + std::to_string(QueueMs) +
                          "ms in queue, past its " +
                          std::to_string(TimeoutMs) + "ms deadline");
    setTiming(Resp, QueueMs, 0.0);
    writeLine(OutFd, Resp);
    return;
  }

  if (Cfg.TestStartDelayMs)
    std::this_thread::sleep_for(
        std::chrono::milliseconds(Cfg.TestStartDelayMs));

  AnalysisOptions Opts = R.Opts;
  Opts.Telem.Metrics = &Metrics;
  Opts.Telem.Trace = nullptr;
  if (!R.CacheKey.empty() && !Cfg.CacheDir.empty()) {
    char Shard[24];
    std::snprintf(Shard, sizeof(Shard), "/%016llx",
                  static_cast<unsigned long long>(fpString(R.CacheKey)));
    Opts.CacheDir = Cfg.CacheDir + Shard;
  } else {
    Opts.CacheDir.clear();
  }

  json::Value Resp;
  {
    // The outcome (whose result co-owns the engine) and then the session
    // end with this block, so the engine is freed before the response
    // is written: its teardown never overlaps the client's next request.
    DiagnosticsEngine Diags;
    std::unique_ptr<AnalysisSession> Session =
        AnalysisSession::create(R.Source, Diags, Opts);
    if (!Session) {
      Metrics.counter("serve.errors").inc();
      Resp = makeEnvelope(R.Id, R.Kind, "error");
      Resp.set("error", Diags.str());
      setTiming(Resp, QueueMs, msSince(Picked, Clock::now()));
      writeLine(OutFd, Resp);
      return;
    }

    AnalysisOutcome O = runRequest(*Session, R.Query);
    double RunMs = msSince(Picked, Clock::now());
    Metrics.histogram("serve.run_ms").observe(RunMs);

    Resp = makeEnvelope(R.Id, R.Kind, O.OK ? "ok" : "error");
    if (!O.OK) {
      Metrics.counter("serve.errors").inc();
      Resp.set("error", O.Error);
    } else if (O.Demand) {
      Resp.set("demand", O.findingsJson());
    } else {
      Resp.set("findings", O.findingsJson());
    }
    setTiming(Resp, QueueMs, RunMs);

    // Hold the tree under its cap after every save (demand runs never
    // save).
    if (O.OK && !O.Demand && !Opts.CacheDir.empty() && Cfg.CacheMaxBytes)
      evictAfterSave(persist::cacheFilePath(Opts.CacheDir, Opts));
  }
  writeLine(OutFd, Resp);
}

void Server::handleLine(const std::string &Line, ThreadPool &Pool,
                        int OutFd) {
  ServeRequest R;
  std::string Error;
  if (!parseServeRequest(Line, Cfg.Defaults, R, Error)) {
    Metrics.counter("serve.errors").inc();
    json::Value Resp = makeEnvelope(R.Id, R.Kind, "error");
    Resp.set("error", Error);
    setTiming(Resp, 0.0, 0.0);
    writeLine(OutFd, Resp);
    return;
  }

  Metrics.counter("serve.requests").inc();
  switch (R.Kind) {
  case RequestKind::Analyze: {
    auto P = std::make_shared<Pending>();
    P->R = std::move(R);
    P->Enqueued = Clock::now();
    Pool.submit([this, P, OutFd] { runAnalyze(P, OutFd); });
    return;
  }
  case RequestKind::Gc: {
    json::Value Resp = makeEnvelope(R.Id, R.Kind, "ok");
    Resp.set("gc", gcPayload());
    setTiming(Resp, 0.0, 0.0);
    writeLine(OutFd, Resp);
    return;
  }
  case RequestKind::Metrics: {
    json::Value Resp = makeEnvelope(R.Id, R.Kind, "ok");
    Resp.set("metrics", Metrics.snapshot());
    setTiming(Resp, 0.0, 0.0);
    writeLine(OutFd, Resp);
    return;
  }
  case RequestKind::Ping: {
    json::Value Resp = makeEnvelope(R.Id, R.Kind, "ok");
    setTiming(Resp, 0.0, 0.0);
    writeLine(OutFd, Resp);
    return;
  }
  case RequestKind::Shutdown: {
    ShutdownRequested.store(true, std::memory_order_relaxed);
    requestDrain();
    json::Value Resp = makeEnvelope(R.Id, R.Kind, "ok");
    setTiming(Resp, 0.0, 0.0);
    writeLine(OutFd, Resp);
    return;
  }
  }
}

bool Server::serve(int InFd, int OutFd) {
  ThreadPool Pool(Cfg.TotalThreads);
  LineReader Reader(InFd);
  std::string Line;
  while (!draining()) {
    LineReader::Status S = Reader.next(Line, /*TimeoutMs=*/100);
    if (S == LineReader::Status::Eof)
      break;
    if (S == LineReader::Status::Idle)
      continue;
    if (Line.empty())
      continue;
    handleLine(Line, Pool, OutFd);
  }
  // Graceful drain: every admitted request completes and responds
  // before the pool (and with it this connection's serving) winds down.
  Pool.wait();
  return !ShutdownRequested.load(std::memory_order_relaxed);
}
