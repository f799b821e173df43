//===- tests/serve/serve_test.cpp - Analysis daemon protocol tests --------===//
//
// Drives serve::Server in-process over a socketpair — the same code
// path syntox_serve wires to stdio and sockets — and pins down:
//
//  - the protocol goldens: envelope shape, id echo, findings payloads
//    bitwise-equal to a direct AnalysisSession run;
//  - malformed-request handling (the daemon answers an error and keeps
//    serving) and mid-stream disconnect (a clean drain, never a hang);
//  - concurrent-vs-sequential determinism over a random corpus;
//  - the resource bounds: per-document disk-cache shards that answer an
//    unchanged resubmission and keep option sets apart, the cache cap
//    held after every save of an edit wave and from the first save of a
//    restarted daemon, and a gc that deletes nothing on an unbounded
//    daemon;
//  - graceful drain with requests in flight, admission timeouts, and
//    the admin requests (gc, metrics, ping, shutdown).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "../common/RandomProgramGen.h"
#include "core/AnalysisRequest.h"
#include "frontend/PaperPrograms.h"
#include "frontend/Parser.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace syntox;
using namespace syntox::serve;
using test::ProgramGenerator;

namespace {

constexpr const char *CountLoop =
    "program p; var i : integer;\n"
    "begin i := 0; while i < 100 do i := i + 1 end.";

/// An in-process client of one Server over a socketpair. The server
/// runs on its own thread, exactly as syntox_serve drives it.
class ServeHarness {
public:
  explicit ServeHarness(ServerConfig Cfg) : Srv(Cfg) {
    int Fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    ClientFd = Fds[0];
    ServerFd = Fds[1];
    Thread = std::thread([this] { More = Srv.serve(ServerFd, ServerFd); });
  }

  ~ServeHarness() { finish(); }

  Server &server() { return Srv; }

  void send(const std::string &Line) { sendRaw(Line + "\n"); }

  /// Writes bytes verbatim — no terminator — for the disconnect tests.
  void sendRaw(const std::string &Bytes) {
    ASSERT_EQ(::write(ClientFd, Bytes.data(), Bytes.size()),
              static_cast<ssize_t>(Bytes.size()));
  }

  /// Blocks for the next response line (\p Seconds cap) and parses it.
  json::Value recv(int Seconds = 10) {
    if (!Reader)
      Reader = std::make_unique<LineReader>(ClientFd);
    std::string Line;
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(Seconds);
    while (std::chrono::steady_clock::now() < Deadline) {
      LineReader::Status S = Reader->next(Line, 100);
      if (S == LineReader::Status::Line) {
        std::string Error;
        std::optional<json::Value> V = json::parse(Line, &Error);
        EXPECT_TRUE(V) << Error << "\nline: " << Line;
        return V ? *V : json::Value();
      }
      if (S == LineReader::Status::Eof)
        break;
    }
    ADD_FAILURE() << "no response before deadline";
    return json::Value();
  }

  /// Receives \p N responses and indexes them by id.
  std::map<std::string, json::Value> recvAll(size_t N) {
    std::map<std::string, json::Value> ById;
    for (size_t I = 0; I < N; ++I) {
      json::Value R = recv();
      if (const json::Value *Id = R.find("id"))
        ById[Id->asString()] = std::move(R);
    }
    return ById;
  }

  /// Half-closes the client->server direction: the server sees EOF and
  /// drains.
  void closeInput() {
    if (ClientFd >= 0)
      ::shutdown(ClientFd, SHUT_WR);
  }

  /// Drains the connection and joins the serving thread. Returns
  /// Server::serve's result (false = a client shutdown request).
  bool finish() {
    if (Thread.joinable()) {
      closeInput();
      Thread.join();
    }
    if (ServerFd >= 0)
      ::close(ServerFd);
    if (ClientFd >= 0)
      ::close(ClientFd);
    ServerFd = ClientFd = -1;
    return More;
  }

private:
  Server Srv;
  int ClientFd = -1;
  int ServerFd = -1;
  std::thread Thread;
  std::unique_ptr<LineReader> Reader;
  bool More = true;
};

/// Findings minus the timing/counter members — the determinism payload.
json::Value findingsOnly(const json::Value &Findings) {
  json::Value Out = json::Value::object();
  for (const auto &KV : Findings.members())
    if (KV.first != "stats" && KV.first != "metrics")
      Out.set(KV.first, KV.second);
  return Out;
}

json::Value sequentialFindings(const std::string &Source,
                               AnalysisOptions Opts = {}) {
  AnalysisRequest R;
  R.Source = Source;
  R.Opts = std::move(Opts);
  AnalysisOutcome O = runRequest(std::move(R));
  EXPECT_TRUE(O.OK) << O.Error;
  return O.OK ? findingsOnly(O.findingsJson()) : json::Value();
}

std::string analyzeLine(const std::string &Id, const std::string &Source,
                        const std::string &Extra = std::string()) {
  json::Value Req = json::Value::object();
  Req.set("protocol_version", 1);
  Req.set("id", Id);
  Req.set("kind", "analyze");
  Req.set("source", Source);
  std::string Line = Req.str();
  if (!Extra.empty())
    Line.insert(Line.size() - 1, "," + Extra);
  return Line;
}

std::string adminLine(const std::string &Id, const char *Kind) {
  return std::string("{\"protocol_version\":1,\"id\":\"") + Id +
         "\",\"kind\":\"" + Kind + "\"}";
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

std::filesystem::path freshDir(const char *Name) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / Name;
  std::error_code EC;
  fs::remove_all(Dir, EC);
  fs::create_directories(Dir, EC);
  return Dir;
}

TEST(ServeProtocolTest, AnalyzeGoldenEnvelopeAndFindings) {
  ServeHarness H(ServerConfig{});
  H.send(analyzeLine("req-1", CountLoop));
  json::Value R = H.recv();

  ASSERT_TRUE(R.isObject());
  EXPECT_EQ(R.find("protocol_version")->asInt(), 1);
  EXPECT_EQ(R.find("id")->asString(), "req-1");
  EXPECT_EQ(R.find("kind")->asString(), "analyze");
  EXPECT_EQ(R.find("status")->asString(), "ok");
  ASSERT_TRUE(R.has("findings"));
  EXPECT_FALSE(R.has("demand"));
  EXPECT_FALSE(R.has("error"));

  const json::Value &T = *R.find("timing");
  EXPECT_GE(T.find("queue_ms")->asDouble(), 0.0);
  EXPECT_GE(T.find("run_ms")->asDouble(), 0.0);
  EXPECT_GE(T.find("total_ms")->asDouble(),
            T.find("run_ms")->asDouble());

  // The findings document matches a direct session run bit for bit
  // (minus the stats/metrics counters, which carry timings).
  const json::Value &F = *R.find("findings");
  for (const char *Key :
       {"verdict", "conditions", "invariant_warnings", "checks", "stats",
        "metrics"})
    EXPECT_TRUE(F.has(Key)) << Key;
  EXPECT_TRUE(findingsOnly(F) == sequentialFindings(CountLoop));
}

TEST(ServeProtocolTest, DemandQueryAnswersOverTheWire) {
  ServeHarness H(ServerConfig{});
  H.send(analyzeLine("q1", CountLoop, "\"query\":\"point:2\""));
  json::Value R = H.recv();
  EXPECT_EQ(R.find("status")->asString(), "ok");
  ASSERT_TRUE(R.has("demand"));
  EXPECT_FALSE(R.has("findings"));
  const json::Value &D = *R.find("demand");
  EXPECT_EQ(D.find("query")->find("kind")->asString(), "point");
  EXPECT_EQ(D.find("query")->find("line")->asInt(), 2);
  EXPECT_FALSE(D.find("states")->elements().empty());
}

TEST(ServeProtocolTest, PerRequestOptionsOverrideDefaults) {
  // Server default forward-only; the request turns backward analysis
  // back on and must see conditions a forward-only run cannot derive.
  ServerConfig Cfg;
  Cfg.Defaults.backward(false);
  ServeHarness H(Cfg);
  std::string Guarded =
      "program p; var n : integer;\n"
      "begin read(n); n := 1 div n end.";
  H.send(analyzeLine("fwd", Guarded));
  H.send(analyzeLine("bwd", Guarded, "\"options\":{\"backward\":true}"));
  auto ById = H.recvAll(2);
  ASSERT_EQ(ById.size(), 2u);
  EXPECT_EQ(ById["fwd"].find("status")->asString(), "ok");
  EXPECT_EQ(ById["bwd"].find("status")->asString(), "ok");
  EXPECT_TRUE(findingsOnly(*ById["bwd"].find("findings")) ==
              sequentialFindings(Guarded));
  EXPECT_TRUE(findingsOnly(*ById["fwd"].find("findings")) ==
              sequentialFindings(Guarded, AnalysisOptions().backward(false)));
}

TEST(ServeProtocolTest, MalformedRequestsAnswerErrorsAndServerSurvives) {
  ServeHarness H(ServerConfig{});
  struct Case {
    std::string Line;
    const char *ErrorNeedle;
  };
  const Case Cases[] = {
      {"this is not json", "malformed request line"},
      {"[1,2,3]", "must be a JSON object"},
      {"{\"id\":\"x\"}", "protocol_version"},
      {"{\"protocol_version\":99,\"id\":\"x\"}", "protocol_version"},
      {"{\"protocol_version\":1}", "missing request id"},
      {"{\"protocol_version\":1,\"id\":\"x\",\"kind\":\"dance\"}",
       "unknown request kind"},
      {"{\"protocol_version\":1,\"id\":\"x\",\"kind\":\"analyze\"}",
       "without 'source'"},
      {"{\"protocol_version\":1,\"id\":\"x\",\"source\":\"program p; "
       "begin end.\",\"options\":{\"sorcery\":1}}",
       "unknown option"},
      {"{\"protocol_version\":1,\"id\":\"x\",\"source\":\"program p; "
       "begin end.\",\"options\":{\"cache_dir\":\"/tmp/x\"}}",
       "cache_key"},
      // Removed knobs fail loudly instead of being ignored.
      {"{\"protocol_version\":1,\"id\":\"x\",\"source\":\"program p; "
       "begin end.\",\"options\":{\"threads\":4}}",
       "unknown option 'threads'"},
      {"{\"protocol_version\":1,\"id\":\"x\",\"source\":\"program p; "
       "begin end.\",\"options\":{\"strategy\":\"parallel\"}}",
       "unknown option 'strategy'"},
      {"{\"protocol_version\":1,\"id\":\"x\",\"source\":\"program p; "
       "begin end.\",\"options\":{\"strategy\":\"worklist\"}}",
       "unknown option 'strategy'"},
      {"{\"protocol_version\":1,\"id\":\"x\",\"source\":\"program p; "
       "begin end.\",\"options\":{\"strategy\":\"recursive\"}}",
       "unknown option 'strategy'"},
      {"{\"protocol_version\":1,\"id\":\"x\",\"source\":\"program p; "
       "begin end.\",\"options\":{\"transfer_cache\":true}}",
       "unknown option 'transfer_cache'"},
      {"{\"protocol_version\":1,\"id\":\"x\",\"source\":\"program p; "
       "begin end.\",\"query\":\"sideways:3\"}",
       "invalid query"},
      {"{\"protocol_version\":1,\"id\":\"x\",\"kind\":\"ping\","
       "\"source\":\"program p; begin end.\"}",
       "only valid on analyze"},
      {"{\"protocol_version\":1,\"id\":\"x\",\"unicorn\":true}",
       "unknown request member"},
      // Numbers past 32 bits are rejected, not wrapped (2^32 ms would
      // wrap to 0, which means no deadline).
      {"{\"protocol_version\":1,\"id\":\"x\",\"source\":\"program p; "
       "begin end.\",\"timeout_ms\":4294967296}",
       "'timeout_ms' must be an integer from 0 to 4294967295"},
      {"{\"protocol_version\":1,\"id\":\"x\",\"source\":\"program p; "
       "begin end.\",\"options\":{\"backward_rounds\":4294967296}}",
       "'backward_rounds' must be an integer from 0 to 4294967295"},
      // Nesting far past json::MaxNestingDepth is a parse error, not a
      // stack overflow in the recursive reader.
      {std::string(300000, '[') + std::string(300000, ']'),
       "nesting deeper than"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Line.substr(0, 120));
    H.send(C.Line);
    json::Value R = H.recv();
    EXPECT_EQ(R.find("status")->asString(), "error");
    EXPECT_NE(R.find("error")->asString().find(C.ErrorNeedle),
              std::string::npos)
        << R.find("error")->asString();
    EXPECT_FALSE(R.has("findings"));
  }
  // A frontend error is an error *response*, not a dead daemon.
  H.send(analyzeLine("bad-src", "program p; begin x := end."));
  json::Value Bad = H.recv();
  EXPECT_EQ(Bad.find("status")->asString(), "error");
  EXPECT_FALSE(Bad.find("error")->asString().empty());
  // Source nesting past Parser::MaxNestingDepth is a diagnostic, not a
  // stack overflow on a worker; a program at the limit is analyzed.
  auto Parens = [](unsigned N) {
    return "program p; var i : integer; begin i := " + std::string(N, '(') +
           "1" + std::string(N, ')') + " end.";
  };
  H.send(analyzeLine("deep-src", Parens(20000)));
  json::Value Deep = H.recv();
  EXPECT_EQ(Deep.find("status")->asString(), "error");
  EXPECT_NE(Deep.find("error")->asString().find("nesting deeper than"),
            std::string::npos)
      << Deep.find("error")->asString();
  H.send(analyzeLine("limit-src", Parens(Parser::MaxNestingDepth - 2)));
  EXPECT_EQ(H.recv().find("status")->asString(), "ok");
  // The daemon is still serving.
  H.send(adminLine("alive", "ping"));
  EXPECT_EQ(H.recv().find("status")->asString(), "ok");
}

TEST(ServeProtocolTest, MidStreamDisconnectDrainsCleanly) {
  ServeHarness H(ServerConfig{});
  H.send(analyzeLine("done", CountLoop));
  EXPECT_EQ(H.recv().find("status")->asString(), "ok");
  // A half request with no terminator, then the client vanishes. The
  // trailing fragment is flushed as one (malformed) line at EOF; the
  // daemon answers it and serve() returns instead of hanging.
  H.sendRaw("{\"protocol_version\":1,\"id\":\"tr");
  H.closeInput();
  json::Value Tail = H.recv();
  EXPECT_EQ(Tail.find("status")->asString(), "error");
  EXPECT_TRUE(H.finish());
}

TEST(ServeConcurrencyTest, ConcurrentFindingsMatchSequential) {
  // The 200-seed differential, serving edition: a random corpus
  // pipelined through a concurrent daemon must produce findings
  // bitwise-identical to one-at-a-time sessions.
  const unsigned N = 60;
  std::vector<std::string> Sources;
  for (unsigned I = 0; I < N; ++I) {
    ProgramGenerator G(9100 + I, /*WithAssertions=*/true);
    Sources.push_back(G.generate(
        static_cast<ProgramGenerator::Family>(I % 4)));
  }

  ServerConfig Cfg;
  Cfg.TotalThreads = 4;
  ServeHarness H(Cfg);
  for (unsigned I = 0; I < N; ++I)
    H.send(analyzeLine("p" + std::to_string(I), Sources[I]));
  auto ById = H.recvAll(N);
  ASSERT_EQ(ById.size(), N);

  for (unsigned I = 0; I < N; ++I) {
    const json::Value &R = ById["p" + std::to_string(I)];
    ASSERT_EQ(R.find("status")->asString(), "ok") << I;
    EXPECT_TRUE(findingsOnly(*R.find("findings")) ==
                sequentialFindings(Sources[I]))
        << "seed " << 9100 + I;
  }
}

TEST(ServeCacheTest, IdenticalResubmissionReplaysFromItsShard) {
  // No session outlives its request: an unchanged resubmission is
  // answered by a fresh session that replays its document's disk shard.
  namespace fs = std::filesystem;
  fs::path Dir = freshDir("syntox_serve_replay_test");
  ServerConfig Cfg;
  Cfg.CacheDir = Dir.string();
  ServeHarness H(Cfg);
  MetricsRegistry &M = H.server().metrics();

  H.send(analyzeLine("a", CountLoop, "\"cache_key\":\"doc\""));
  json::Value First = H.recv();
  ASSERT_EQ(First.find("status")->asString(), "ok");
  uint64_t Loaded = M.counterValue("persist.loaded");
  uint64_t Restored = M.counterValue("persist.restored_nodes");
  H.send(analyzeLine("b", CountLoop, "\"cache_key\":\"doc\""));
  json::Value Second = H.recv();
  ASSERT_EQ(Second.find("status")->asString(), "ok");

  EXPECT_TRUE(findingsOnly(*First.find("findings")) ==
              findingsOnly(*Second.find("findings")));
  EXPECT_GT(M.counterValue("persist.loaded"), Loaded);
  EXPECT_GT(M.counterValue("persist.restored_nodes"), Restored);
  json::Value Counters = *M.snapshot().find("counters");
  for (const auto &KV : Counters.members())
    EXPECT_NE(KV.first.rfind("serve.session_", 0), 0u) << KV.first;

  H.finish();
  std::error_code EC;
  fs::remove_all(Dir, EC);
}

TEST(ServeCacheTest, SharedCacheKeyKeepsDomainsApart) {
  // The same document under another domain shares its shard with the
  // interval run before it and must not replay that run's state: every
  // option member is part of a cache file's identity.
  namespace fs = std::filesystem;
  fs::path Dir = freshDir("syntox_serve_domains_test");
  ServerConfig Cfg;
  Cfg.CacheDir = Dir.string();
  ServeHarness H(Cfg);
  H.send(analyzeLine("interval", paper::StrideSearchProgram,
                     "\"cache_key\":\"doc\""));
  json::Value Interval = H.recv();
  ASSERT_EQ(Interval.find("status")->asString(), "ok");
  H.send(analyzeLine("product", paper::StrideSearchProgram,
                     "\"options\":{\"domain\":\"product\"},"
                     "\"cache_key\":\"doc\""));
  json::Value Product = H.recv();
  ASSERT_EQ(Product.find("status")->asString(), "ok");
  const json::Value &F = *Product.find("findings");
  EXPECT_EQ(F.find("domain")->asString(), "product");
  EXPECT_TRUE(findingsOnly(F) ==
              sequentialFindings(paper::StrideSearchProgram,
                                 AnalysisOptions().domain(
                                     DomainKind::Product)));

  H.finish();
  std::error_code EC;
  fs::remove_all(Dir, EC);
}

TEST(ServeCacheTest, CacheKeySharesShardAndGcHoldsCap) {
  namespace fs = std::filesystem;
  fs::path Dir = freshDir("syntox_serve_gc_test");
  ServerConfig Cfg;
  Cfg.CacheDir = Dir.string();
  // The twelve documents' files take about 16 KiB uncapped: the cap
  // sits well below that, so the per-save evictions must engage.
  Cfg.CacheMaxBytes = 12 * 1024;
  ServeHarness H(Cfg);

  // Edit wave over many distinct documents: every save is followed by an
  // eviction from the server's index, so the tree never rests above the
  // cap.
  const unsigned Docs = 12;
  unsigned Sent = 0;
  for (unsigned Wave = 0; Wave < 2; ++Wave)
    for (unsigned D = 0; D < Docs; ++D) {
      ProgramGenerator G(7700 + D, /*WithAssertions=*/true);
      std::string Source = G.generate();
      if (Wave == 1)
        Source = G.mutate(std::move(Source));
      H.send(analyzeLine(
          "w" + std::to_string(Wave) + "d" + std::to_string(D), Source,
          "\"cache_key\":\"doc-" + std::to_string(D) + "\""));
      ++Sent;
    }
  auto ById = H.recvAll(Sent);
  ASSERT_EQ(ById.size(), Sent);
  for (const auto &KV : ById)
    EXPECT_EQ(KV.second.find("status")->asString(), "ok") << KV.first;

  // The cache path actually engaged: runs saved their state.
  EXPECT_GE(H.server().metrics().counterValue("persist.saved"), 1u);

  // The per-save evictions alone held the cap: the tree is under it
  // before any gc, and the gc admin request, a full pass over the disk,
  // finds nothing left to remove.
  EXPECT_LE(treeBytes(Dir), Cfg.CacheMaxBytes);
  EXPECT_GE(H.server().metrics().counterValue("serve.gc_files_removed"), 1u);
  H.send(adminLine("gc", "gc"));
  json::Value Gc = H.recv();
  ASSERT_EQ(Gc.find("status")->asString(), "ok");
  const json::Value &P = *Gc.find("gc");
  EXPECT_EQ(P.find("files_removed")->asInt(), 0);
  EXPECT_LE(P.find("bytes_after")->asInt(),
            static_cast<int64_t>(Cfg.CacheMaxBytes));
  EXPECT_LE(treeBytes(Dir), Cfg.CacheMaxBytes);

  H.finish();
  std::error_code EC;
  fs::remove_all(Dir, EC);
}

/// Sends \p Docs cache_key analyses of distinct generated documents
/// (seeds from \p Seed) and expects every answer ok.
void analyzeDocs(ServeHarness &H, unsigned Docs, unsigned Seed) {
  for (unsigned D = 0; D < Docs; ++D) {
    ProgramGenerator G(Seed + D, /*WithAssertions=*/true);
    H.send(analyzeLine("d" + std::to_string(D), G.generate(),
                       "\"cache_key\":\"doc-" + std::to_string(Seed + D) +
                           "\""));
  }
  auto ById = H.recvAll(Docs);
  ASSERT_EQ(ById.size(), Docs);
  for (const auto &KV : ById)
    EXPECT_EQ(KV.second.find("status")->asString(), "ok") << KV.first;
}

/// The shard directories directly under \p Dir.
std::set<std::filesystem::path> shardsOf(const std::filesystem::path &Dir) {
  std::set<std::filesystem::path> Out;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.is_directory())
      Out.insert(E.path());
  return Out;
}

TEST(ServeCacheTest, UnchangedResubmissionSurvivesEviction) {
  // An unchanged resubmission skips its save and only advances its
  // file's mtime; the server's index still ranks the document newest,
  // as it did when the rerun rewrote the file. Under a cap, the next
  // eviction then takes the oldest other documents and keeps it.
  namespace fs = std::filesystem;
  const unsigned Docs = 4;
  std::vector<std::string> Sources;
  for (unsigned D = 0; D < Docs; ++D)
    Sources.push_back(
        ProgramGenerator(8100 + D, /*WithAssertions=*/true).generate());
  auto Analyze = [&](ServeHarness &H, unsigned D, const std::string &Id) {
    H.send(analyzeLine(Id, Sources[D],
                       "\"cache_key\":\"doc-" + std::to_string(D) + "\""));
    EXPECT_EQ(H.recv().find("status")->asString(), "ok") << Id;
  };

  // Each document's entry bytes, from a daemon without a cap.
  std::vector<uint64_t> Bytes;
  {
    fs::path Probe = freshDir("syntox_serve_resubmit_probe");
    ServerConfig Cfg;
    Cfg.CacheDir = Probe.string();
    ServeHarness H(Cfg);
    for (unsigned D = 0; D < Docs; ++D) {
      uint64_t Before = treeBytes(Probe);
      Analyze(H, D, "probe" + std::to_string(D));
      Bytes.push_back(treeBytes(Probe) - Before);
    }
    H.finish();
    std::error_code EC;
    fs::remove_all(Probe, EC);
  }

  fs::path Dir = freshDir("syntox_serve_resubmit_test");
  ServerConfig Cfg;
  Cfg.CacheDir = Dir.string();
  Cfg.CacheMaxBytes = Bytes[0] + Bytes[1] + Bytes[2];
  ServeHarness H(Cfg);
  MetricsRegistry &M = H.server().metrics();
  std::vector<fs::path> Shard(Docs);
  auto AnalyzeNew = [&](unsigned D) {
    std::set<fs::path> Before = shardsOf(Dir);
    Analyze(H, D, "d" + std::to_string(D));
    for (const fs::path &P : shardsOf(Dir))
      if (!Before.count(P))
        Shard[D] = P;
    ASSERT_FALSE(Shard[D].empty()) << "no shard for document " << D;
  };
  for (unsigned D = 0; D < 3; ++D)
    AnalyzeNew(D);
  EXPECT_EQ(treeBytes(Dir), Cfg.CacheMaxBytes); // all three fit

  Analyze(H, 0, "again");
  EXPECT_EQ(M.counterValue("persist.save_skipped"), 1u);
  EXPECT_EQ(M.counterValue("persist.saved"), 3u);
  AnalyzeNew(3);

  // The save order a rewrite would leave: 1, 2, 0, 3. Oldest first, the
  // cap evicts from its front.
  const unsigned Order[] = {1, 2, 0, 3};
  uint64_t Total = Bytes[0] + Bytes[1] + Bytes[2] + Bytes[3];
  unsigned Evicted = 0;
  while (Total > Cfg.CacheMaxBytes)
    Total -= Bytes[Order[Evicted++]];
  ASSERT_GE(Evicted, 1u);
  ASSERT_LT(Evicted, 3u); // the test needs document 0 to be kept
  for (unsigned I = 0; I < Docs; ++I)
    EXPECT_EQ(fs::exists(Shard[Order[I]]), I >= Evicted)
        << "document " << Order[I];
  EXPECT_EQ(treeBytes(Dir), Total);

  H.finish();
  std::error_code EC;
  fs::remove_all(Dir, EC);
}

TEST(ServeCacheTest, GcOnAnUnboundedDaemonDeletesNothing) {
  // CacheMaxBytes 0 means unbounded: a gc request reports the tree and
  // must not read the 0 as "collect everything".
  namespace fs = std::filesystem;
  fs::path Dir = freshDir("syntox_serve_gc_unbounded_test");
  ServerConfig Cfg;
  Cfg.CacheDir = Dir.string();
  ServeHarness H(Cfg);
  analyzeDocs(H, 5, 7800);
  uint64_t Bytes = treeBytes(Dir);
  ASSERT_GT(Bytes, 0u);

  H.send(adminLine("gc", "gc"));
  json::Value Gc = H.recv();
  ASSERT_EQ(Gc.find("status")->asString(), "ok");
  const json::Value &P = *Gc.find("gc");
  EXPECT_EQ(P.find("files_removed")->asInt(), 0);
  EXPECT_EQ(P.find("files_kept")->asInt(), 5); // one .warm per document
  EXPECT_EQ(P.find("bytes_before")->asInt(), static_cast<int64_t>(Bytes));
  EXPECT_EQ(P.find("bytes_after")->asInt(), static_cast<int64_t>(Bytes));
  EXPECT_EQ(P.find("max_bytes")->asInt(), 0);
  EXPECT_EQ(treeBytes(Dir), Bytes);

  H.finish();
  std::error_code EC;
  fs::remove_all(Dir, EC);
}

TEST(ServeCacheTest, RestartedServerHoldsASmallerCapFromItsFirstSave) {
  // A second daemon over the first one's tree seeds its index from the
  // disk, so its very first save already evicts down to its own cap.
  namespace fs = std::filesystem;
  fs::path Dir = freshDir("syntox_serve_gc_restart_test");
  ServerConfig Cfg;
  Cfg.CacheDir = Dir.string();
  {
    ServeHarness First(Cfg);
    analyzeDocs(First, 12, 7900);
  }
  uint64_t Bytes = treeBytes(Dir);
  ASSERT_GT(Bytes, 0u);

  Cfg.CacheMaxBytes = Bytes / 2;
  ServeHarness Second(Cfg);
  analyzeDocs(Second, 1, 8000);
  EXPECT_LE(treeBytes(Dir), Cfg.CacheMaxBytes);
  EXPECT_GE(Second.server().metrics().counterValue("serve.gc_files_removed"),
            1u);

  Second.finish();
  std::error_code EC;
  fs::remove_all(Dir, EC);
}

TEST(ServeShutdownTest, DrainAnswersEveryInFlightRequest) {
  ServerConfig Cfg;
  Cfg.TotalThreads = 2;
  Cfg.TestStartDelayMs = 200; // hold each run open
  ServeHarness H(Cfg);
  H.send(analyzeLine("f1", CountLoop));
  H.send(analyzeLine("f2", CountLoop));
  H.send(analyzeLine("f3", CountLoop));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  H.server().requestDrain(); // what SIGTERM does in syntox_serve
  auto ById = H.recvAll(3);
  ASSERT_EQ(ById.size(), 3u);
  for (const char *Id : {"f1", "f2", "f3"})
    EXPECT_EQ(ById[Id].find("status")->asString(), "ok") << Id;
  EXPECT_TRUE(H.finish()); // drained, not shut down by a client
}

TEST(ServeShutdownTest, ShutdownRequestStopsAfterDraining) {
  ServerConfig Cfg;
  Cfg.TestStartDelayMs = 100;
  ServeHarness H(Cfg);
  H.send(analyzeLine("last", CountLoop));
  H.send(adminLine("bye", "shutdown"));
  auto ById = H.recvAll(2);
  EXPECT_EQ(ById["bye"].find("status")->asString(), "ok");
  EXPECT_EQ(ById["last"].find("status")->asString(), "ok");
  EXPECT_FALSE(H.finish()); // serve() reports the client shutdown
}

TEST(ServeTimeoutTest, ExpiredQueuedRequestsAreShedAtAdmission) {
  ServerConfig Cfg;
  Cfg.TotalThreads = 1;
  Cfg.RequestTimeoutMs = 100;
  Cfg.TestStartDelayMs = 300; // the running request blocks the queue
  ServeHarness H(Cfg);
  H.send(analyzeLine("runs", CountLoop));
  H.send(analyzeLine("sheds", CountLoop));
  auto ById = H.recvAll(2);
  ASSERT_EQ(ById.size(), 2u);
  EXPECT_EQ(ById["runs"].find("status")->asString(), "ok");
  EXPECT_EQ(ById["sheds"].find("status")->asString(), "timeout");
  EXPECT_TRUE(ById["sheds"].has("error"));
  EXPECT_FALSE(ById["sheds"].has("findings"));
  EXPECT_GE(H.server().metrics().counterValue("serve.timeouts"), 1u);
}

/// The activation instances of \p Source's token unfolding, read off
/// the analyzed graph rather than any metric.
uint64_t instancesOf(const std::string &Source) {
  DiagnosticsEngine Diags;
  auto Session = AnalysisSession::create(Source, Diags);
  EXPECT_NE(Session, nullptr) << Diags.str();
  return Session ? Session->run().analyzer().graph().instances().size() : 0;
}

int64_t counterOf(const json::Value &Counters, const char *Name) {
  const json::Value *V = Counters.find(Name);
  return V ? V->asInt() : 0;
}

TEST(ServeAdminTest, EngineBuildMetricsCountOncePerRequest) {
  // A fresh session builds its program once, so the daemon's registry
  // sees each request's construction metrics once: a 3-instance
  // program adds 3 to interproc.instances, and McCarthy_12 adds its
  // own instance count.
  const std::string Small =
      "program p; procedure q(n : integer); "
      "begin if n > 0 then q(n - 1) end; begin q(3) end.";
  const std::string Deep = paper::mcCarthyK(12);
  uint64_t SmallInstances = instancesOf(Small);
  uint64_t DeepInstances = instancesOf(Deep);
  EXPECT_EQ(SmallInstances, 3u);
  ASSERT_GT(DeepInstances, SmallInstances);

  ServeHarness H(ServerConfig{});
  H.send(analyzeLine("small", Small));
  ASSERT_EQ(H.recv().find("status")->asString(), "ok");
  H.send(adminLine("m1", "metrics"));
  json::Value M1 = *H.recv().find("metrics")->find("counters");
  EXPECT_EQ(counterOf(M1, "interproc.instances"),
            static_cast<int64_t>(SmallInstances));

  H.send(analyzeLine("deep", Deep));
  ASSERT_EQ(H.recv().find("status")->asString(), "ok");
  H.send(adminLine("m2", "metrics"));
  json::Value M2 = *H.recv().find("metrics")->find("counters");
  EXPECT_EQ(counterOf(M2, "interproc.instances"),
            static_cast<int64_t>(SmallInstances + DeepInstances));
}

TEST(ServeAdminTest, LongProgramIsAnsweredAndTheServerKeepsServing) {
  // 20,000 loops in sequence: the WTO builder once recursed once per
  // vertex along this path and took the daemon down (exit 139).
  std::string Loops = "program p; var i : integer; begin ";
  for (int I = 0; I < 20000; ++I)
    Loops += "i := 0; while i < 10 do i := i + 1; ";
  Loops += "i := 0 end.";
  ServeHarness H(ServerConfig{});
  H.send(analyzeLine("long", Loops));
  // About a second natively; sanitizer builds take many times that.
  json::Value R = H.recv(/*Seconds=*/600);
  const json::Value *Status = R.find("status");
  ASSERT_NE(Status, nullptr);
  EXPECT_EQ(Status->asString(), "ok");
  H.send(adminLine("p", "ping"));
  EXPECT_EQ(H.recv().find("status")->asString(), "ok");
}

TEST(ServeAdminTest, MetricsAndPing) {
  ServeHarness H(ServerConfig{});
  H.send(analyzeLine("one", CountLoop));
  ASSERT_EQ(H.recv().find("status")->asString(), "ok");
  H.send(adminLine("m", "metrics"));
  json::Value M = H.recv();
  ASSERT_EQ(M.find("status")->asString(), "ok");
  const json::Value &Counters = *M.find("metrics")->find("counters");
  ASSERT_TRUE(Counters.has("serve.requests"));
  EXPECT_GE(Counters.find("serve.requests")->asInt(), 1);
  H.send(adminLine("p", "ping"));
  EXPECT_EQ(H.recv().find("status")->asString(), "ok");
}

} // namespace
