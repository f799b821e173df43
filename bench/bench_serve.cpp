//===- bench/bench_serve.cpp - Analysis daemon throughput benchmark ------===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving-layer load generator: the bench_corpus randomized corpus
/// (plain, goto-heavy, deep-unfolding and aliasing-heavy families,
/// round-robin) pushed through a live serve::Server as pipelined
/// JSON-lines wire traffic over a socketpair — the exact bytes a
/// syntox_serve client would send. Three waves model an editor fleet:
///
///   cold   every document analyzed for the first time
///   warm   every document resubmitted unchanged (each replays its
///          per-document disk shard)
///   edit   every document mutated once (a keystroke) and resubmitted
///          (each falls back from its shard's old file and saves anew)
///
/// Reports programs/sec and p50/p99 response latency per wave (from the
/// envelopes' own timing.total_ms), checks every response's findings
/// bitwise against a direct sequential AnalysisSession run of the same
/// source, and checks that the per-save evictions held the cache tree
/// at or under its byte cap across the edit wave. Any mismatch or a
/// cache overrun fails the run.
///
/// Extra flags (beyond the shared analysis/telemetry set):
///   --programs=N          corpus size                 (default 120)
///   --server-threads=N    server request-pool workers (default 4)
///   --cache-max-bytes=N   server cache-tree cap
///                         (default 8192 per program: tight enough that
///                         the fattest documents overflow it and the
///                         server must evict, loose enough that most
///                         warm-wave loads still find their file)
///   --seed=S              corpus base seed            (default 8101)
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "core/AnalysisRequest.h"
#include "serve/Server.h"

#include "../tests/common/RandomProgramGen.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace syntox;
using namespace syntox::serve;
using test::ProgramGenerator;

namespace {

struct CorpusProgram {
  std::string Name;
  uint64_t Seed = 0;
  std::string Source;
};

std::vector<CorpusProgram> buildCorpus(unsigned N, uint64_t BaseSeed) {
  static const ProgramGenerator::Family Fams[] = {
      ProgramGenerator::Family::Plain,
      ProgramGenerator::Family::GotoHeavy,
      ProgramGenerator::Family::DeepUnfolding,
      ProgramGenerator::Family::AliasingHeavy,
  };
  std::vector<CorpusProgram> Corpus;
  Corpus.reserve(N);
  for (unsigned I = 0; I < N; ++I) {
    CorpusProgram P;
    ProgramGenerator::Family F = Fams[I % 4];
    P.Seed = BaseSeed + I;
    P.Name = std::string(ProgramGenerator::familyName(F)) + "-" +
             std::to_string(P.Seed);
    ProgramGenerator G(P.Seed, /*WithAssertions=*/true);
    P.Source = G.generate(F);
    Corpus.push_back(std::move(P));
  }
  return Corpus;
}

/// The findings document minus its timing-dependent members — the
/// bitwise-comparison payload.
json::Value findingsOnly(const json::Value &Findings) {
  json::Value V = json::Value::object();
  for (const auto &KV : Findings.members())
    if (KV.first != "stats" && KV.first != "metrics")
      V.set(KV.first, KV.second);
  return V;
}

double percentile(std::vector<double> Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  std::sort(Sorted.begin(), Sorted.end());
  size_t Idx = static_cast<size_t>(P * (Sorted.size() - 1) + 0.5);
  return Sorted[std::min(Idx, Sorted.size() - 1)];
}

/// One in-process daemon behind its wire protocol: requests and
/// responses cross a socketpair exactly as a syntox_serve client's
/// bytes would.
class ServeClient {
public:
  explicit ServeClient(const ServerConfig &Cfg)
      : Srv(std::make_unique<Server>(Cfg)) {
    int Fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0) {
      std::fprintf(stderr, "bench_serve: socketpair failed\n");
      std::exit(1);
    }
    Fd = Fds[0];
    ServerFd = Fds[1];
    Thread = std::thread(
        [this, SFd = ServerFd] { Srv->serve(SFd, SFd); });
  }

  ~ServeClient() {
    if (Thread.joinable()) {
      ::shutdown(Fd, SHUT_WR);
      Thread.join();
    }
    ::close(ServerFd);
    ::close(Fd);
  }

  Server &server() { return *Srv; }

  bool send(const std::string &Line) {
    std::string L = Line + "\n";
    size_t Off = 0;
    while (Off < L.size()) {
      ssize_t N = ::write(Fd, L.data() + Off, L.size() - Off);
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  /// Blocks for the next response line (30s cap).
  bool recv(json::Value &Out) {
    if (!Reader)
      Reader = std::make_unique<LineReader>(Fd);
    std::string Line;
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < Deadline) {
      LineReader::Status S = Reader->next(Line, 100);
      if (S == LineReader::Status::Eof)
        return false;
      if (S != LineReader::Status::Line)
        continue;
      std::string Error;
      std::optional<json::Value> V = json::parse(Line, &Error);
      if (!V) {
        std::fprintf(stderr, "bench_serve: bad response: %s\n",
                     Error.c_str());
        return false;
      }
      Out = std::move(*V);
      return true;
    }
    return false;
  }

private:
  std::unique_ptr<Server> Srv;
  int Fd = -1;
  int ServerFd = -1;
  std::thread Thread;
  std::unique_ptr<LineReader> Reader;
};

struct WaveResult {
  double Seconds = 0.0;
  std::vector<double> LatencyMs; ///< envelope timing.total_ms
  unsigned Answered = 0;
  bool OK = true;
  bool Matches = true;
};

std::string analyzeLine(const std::string &Id, const std::string &Source,
                        const std::string &CacheKey) {
  json::Value Req = json::Value::object();
  Req.set("protocol_version", 1);
  Req.set("id", Id);
  Req.set("kind", "analyze");
  Req.set("source", Source);
  Req.set("cache_key", CacheKey);
  return Req.str();
}

/// Pipelines the whole corpus through the daemon, then collects the
/// (unordered) responses and diffs each findings document against a
/// direct sequential session run of the same source.
WaveResult runWave(ServeClient &C, const std::vector<CorpusProgram> &Corpus,
                   const std::vector<json::Value> &Expected) {
  WaveResult W;
  auto Start = std::chrono::steady_clock::now();
  for (size_t I = 0; I < Corpus.size(); ++I)
    if (!C.send(analyzeLine("p" + std::to_string(I), Corpus[I].Source,
                            "doc-" + std::to_string(I)))) {
      W.OK = false;
      return W;
    }
  std::map<std::string, json::Value> ById;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    json::Value R;
    if (!C.recv(R)) {
      W.OK = false;
      return W;
    }
    if (const json::Value *Id = R.find("id"))
      ById[Id->asString()] = std::move(R);
  }
  W.Seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - Start)
                  .count();

  for (size_t I = 0; I < Corpus.size(); ++I) {
    auto It = ById.find("p" + std::to_string(I));
    if (It == ById.end()) {
      std::printf("  %s: no response\n", Corpus[I].Name.c_str());
      W.OK = false;
      continue;
    }
    const json::Value &R = It->second;
    const json::Value *Status = R.find("status");
    if (!Status || Status->asString() != "ok") {
      const json::Value *E = R.find("error");
      std::printf("  %s: status %s%s%s\n", Corpus[I].Name.c_str(),
                  Status ? Status->asString().c_str() : "?",
                  E ? ": " : "", E ? E->asString().c_str() : "");
      W.OK = false;
      continue;
    }
    ++W.Answered;
    if (const json::Value *T = R.find("timing"))
      if (const json::Value *Total = T->find("total_ms"))
        W.LatencyMs.push_back(Total->asDouble());
    const json::Value *F = R.find("findings");
    if (!F || !(findingsOnly(*F) == Expected[I])) {
      std::printf("  %s: FINDINGS MISMATCH vs sequential\n",
                  Corpus[I].Name.c_str());
      W.Matches = false;
    }
  }
  return W;
}

json::Value waveRow(const char *Wave, const WaveResult &W) {
  json::Value Row = json::Value::object();
  Row.set("wave", Wave);
  Row.set("programs", static_cast<uint64_t>(W.Answered));
  Row.set("seconds", W.Seconds);
  Row.set("programs_per_sec",
          W.Seconds > 0 ? W.Answered / W.Seconds : 0.0);
  Row.set("p50_ms", percentile(W.LatencyMs, 0.50));
  Row.set("p99_ms", percentile(W.LatencyMs, 0.99));
  Row.set("matches_sequential", W.Matches);
  return Row;
}

void printWave(const char *Wave, const WaveResult &W) {
  std::printf("  %-5s %5u prog %8.2fs %8.1f prog/s  p50 %7.2fms  "
              "p99 %7.2fms%s\n",
              Wave, W.Answered, W.Seconds,
              W.Seconds > 0 ? W.Answered / W.Seconds : 0.0,
              percentile(W.LatencyMs, 0.50),
              percentile(W.LatencyMs, 0.99),
              W.Matches ? "  ==seq" : "  MISMATCH");
}

uint64_t treeBytes(const std::filesystem::path &Dir) {
  namespace fs = std::filesystem;
  uint64_t Total = 0;
  std::error_code EC;
  for (fs::recursive_directory_iterator It(Dir, EC), End; !EC && It != End;
       It.increment(EC))
    if (It->is_regular_file(EC))
      Total += It->file_size(EC);
  return Total;
}

/// Direct sequential reference for one source (no disk cache — warm
/// traffic is observationally identical to cold by construction, so one
/// cold reference serves every wave of the same source).
json::Value sequentialFindings(const std::string &Source,
                               const AnalysisOptions &Opts, bool &OK) {
  AnalysisRequest R;
  R.Source = Source;
  R.Opts = Opts;
  R.Opts.Telem.Metrics = nullptr;
  R.Opts.Telem.Trace = nullptr;
  R.Opts.CacheDir.clear();
  AnalysisOutcome O = runRequest(std::move(R));
  if (!O.OK) {
    std::printf("  sequential reference failed: %s\n", O.Error.c_str());
    OK = false;
    return json::Value();
  }
  return findingsOnly(O.findingsJson());
}

} // namespace

int main(int argc, char **argv) {
  bench::Harness H("serve", argc, argv);

  unsigned Programs = 120;
  unsigned ServerThreads = 4;
  uint64_t CacheMaxBytes = 0; // 0 = scale with the corpus below
  uint64_t Seed = 8101;
  for (const std::string &Arg : H.args()) {
    if (Arg.rfind("--programs=", 0) == 0)
      Programs = H.unsignedFlag<unsigned>(Arg, "--programs=");
    else if (Arg.rfind("--server-threads=", 0) == 0)
      ServerThreads = H.unsignedFlag<unsigned>(Arg, "--server-threads=");
    else if (Arg.rfind("--cache-max-bytes=", 0) == 0)
      CacheMaxBytes = H.unsignedFlag<uint64_t>(Arg, "--cache-max-bytes=");
    else if (Arg.rfind("--seed=", 0) == 0)
      Seed = H.unsignedFlag<uint64_t>(Arg, "--seed=");
    else {
      std::fprintf(stderr, "bench_serve: unknown flag %s\n", Arg.c_str());
      return 2;
    }
  }

  if (CacheMaxBytes == 0)
    CacheMaxBytes = static_cast<uint64_t>(Programs) * 8192;

  std::printf("== daemon throughput: %u programs over the wire, "
              "%u-thread server, %llu-byte cache cap ==\n\n",
              Programs, ServerThreads,
              static_cast<unsigned long long>(CacheMaxBytes));

  std::vector<CorpusProgram> Corpus = buildCorpus(Programs, Seed);

  namespace fs = std::filesystem;
  fs::path CacheRoot = fs::temp_directory_path() / "syntox_bench_serve";
  std::error_code EC;
  fs::remove_all(CacheRoot, EC);
  fs::create_directories(CacheRoot, EC);

  ServerConfig Cfg;
  Cfg.Defaults = H.options();
  Cfg.Defaults.Telem.Metrics = nullptr; // the server owns its registry
  Cfg.Defaults.Telem.Trace = nullptr;
  Cfg.Defaults.CacheDir.clear();
  Cfg.TotalThreads = ServerThreads;
  Cfg.CacheDir = CacheRoot.string();
  Cfg.CacheMaxBytes = CacheMaxBytes;
  ServeClient Client(Cfg);

  bool AllOk = true;
  bool AllMatch = true;

  // Sequential reference for the initial sources (used by the cold and
  // warm waves — the daemon must answer identically both times).
  std::vector<json::Value> Expected;
  Expected.reserve(Programs);
  auto SeqStart = std::chrono::steady_clock::now();
  for (const CorpusProgram &P : Corpus)
    Expected.push_back(sequentialFindings(P.Source, H.options(), AllOk));
  double SeqSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - SeqStart)
                          .count();
  std::printf("  seq   %5u prog %8.2fs %8.1f prog/s  (in-process "
              "reference)\n",
              Programs, SeqSeconds,
              SeqSeconds > 0 ? Programs / SeqSeconds : 0.0);

  WaveResult Cold = runWave(Client, Corpus, Expected);
  printWave("cold", Cold);
  H.row(waveRow("cold", Cold));
  AllOk &= Cold.OK;
  AllMatch &= Cold.Matches;

  WaveResult Warm = runWave(Client, Corpus, Expected);
  printWave("warm", Warm);
  H.row(waveRow("warm", Warm));
  AllOk &= Warm.OK;
  AllMatch &= Warm.Matches;

  // Edit wave: every document mutated once, fresh sequential reference.
  for (size_t I = 0; I < Corpus.size(); ++I) {
    ProgramGenerator G(Seed + 100000 + I);
    Corpus[I].Source = G.mutate(std::move(Corpus[I].Source));
  }
  Expected.clear();
  for (const CorpusProgram &P : Corpus)
    Expected.push_back(sequentialFindings(P.Source, H.options(), AllOk));

  WaveResult Edit = runWave(Client, Corpus, Expected);
  printWave("edit", Edit);
  H.row(waveRow("edit", Edit));
  AllOk &= Edit.OK;
  AllMatch &= Edit.Matches;

  // The per-save evictions must have held the tree at the cap through
  // the whole edit wave of saves.
  uint64_t CacheBytes = treeBytes(CacheRoot);
  bool CacheHeld = CacheBytes <= CacheMaxBytes;
  std::printf("\n  cache tree: %llu bytes (cap %llu) — %s\n",
              static_cast<unsigned long long>(CacheBytes),
              static_cast<unsigned long long>(CacheMaxBytes),
              CacheHeld ? "held" : "OVER CAP");

  MetricsRegistry &M = Client.server().metrics();
  std::printf("  server: %llu warm loads, %llu saves\n",
              static_cast<unsigned long long>(
                  M.counterValue("persist.loaded")),
              static_cast<unsigned long long>(
                  M.counterValue("persist.saved")));
  std::printf("  findings: %s\n",
              AllMatch ? "daemon == sequential on every wave"
                       : "DAEMON/SEQUENTIAL MISMATCH");

  H.setField("programs", Programs);
  H.setField("server_threads", ServerThreads);
  H.setField("cache_max_bytes", CacheMaxBytes);
  H.setField("cache_bytes_final", CacheBytes);
  H.setField("cache_cap_held", CacheHeld);
  H.setField("sequential_seconds", SeqSeconds);
  H.setField("warm_loads", M.counterValue("persist.loaded"));
  H.setField("daemon_matches_sequential", AllMatch);
  H.setField("note", "pipelined JSON-lines traffic over a socketpair; "
                     "latencies are the envelopes' timing.total_ms; "
                     "the warm wave replays the per-document disk "
                     "shards and the edit wave saves new ones, under "
                     "the GC cap");

  fs::remove_all(CacheRoot, EC);

  if (!H.write())
    return 1;
  return (AllOk && AllMatch && CacheHeld) ? 0 : 1;
}
