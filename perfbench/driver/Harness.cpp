//===- perfbench/driver/Harness.cpp - Shared run scaffolding --------------===//

#include "Harness.h"

#include "Reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace syntox;
namespace fs = std::filesystem;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

[[noreturn]] static void usage(const char *Tool, const std::string &Why) {
  std::fprintf(stderr,
               "%s: %s\n"
               "usage: %s --workload cold|edit|deep --seed N --seconds S "
               "--trace 0|1 --daemon PATH --out-dir DIR\n",
               Tool, Why.c_str(), Tool);
  std::exit(2);
}

RunOptions perfbench::parseRunOptions(int Argc, char **Argv,
                                      const char *Tool) {
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) ||              \
    defined(__SANITIZE_THREAD__)
  usage(Tool, "refusing to time a sanitizer or unoptimised build");
#endif
  RunOptions O;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I], Value;
    size_t Eq = Flag.find('=');
    if (Eq != std::string::npos) {
      Value = Flag.substr(Eq + 1);
      Flag.resize(Eq);
    } else if (I + 1 < Argc) {
      Value = Argv[++I];
    } else {
      usage(Tool, "missing value for " + Flag);
    }
    try {
      if (Flag == "--workload")
        O.Workload = Value;
      else if (Flag == "--seed")
        O.Seed = std::stoull(Value);
      else if (Flag == "--seconds")
        O.Seconds = std::stod(Value);
      else if (Flag == "--trace")
        O.Trace = std::stoi(Value);
      else if (Flag == "--daemon")
        O.DaemonBinary = fs::absolute(Value).string();
      else if (Flag == "--out-dir")
        O.OutDir = fs::absolute(Value).string();
      else
        usage(Tool, "unknown flag " + Flag);
    } catch (const std::exception &) {
      usage(Tool, "bad value '" + Value + "' for " + Flag);
    }
  }
  if (!Workload::create(O.Workload, O.Seed))
    usage(Tool, "unknown workload '" + O.Workload + "'");
  if (O.DaemonBinary.empty() || O.OutDir.empty() || !(O.Seconds > 0))
    usage(Tool, "--daemon, --out-dir and a positive --seconds are required");
  uint64_t Inputs = inputsFingerprint(O.Workload);
  uint64_t Recorded = recordedInputsFingerprint(O.Workload);
  if (Inputs != Recorded) {
    std::fprintf(stderr,
                 "%s: the %s inputs changed (fingerprint %016llx, recorded "
                 "%016llx): the program generator, the paper programs or the "
                 "workload code differ from those the benchmark was recorded "
                 "with; record the new value in perfbench/driver/Workload.cpp "
                 "together with that change\n",
                 Tool, O.Workload.c_str(),
                 static_cast<unsigned long long>(Inputs),
                 static_cast<unsigned long long>(Recorded));
    std::exit(2);
  }

  fs::path Dir = fs::path(O.OutDir) /
                 (O.Workload + "-seed" + std::to_string(O.Seed) + "-trace" +
                  std::to_string(O.Trace));
  std::error_code EC;
  fs::remove_all(Dir, EC);
  fs::create_directories(Dir, EC);
  if (EC || ::chdir(Dir.c_str()) != 0)
    usage(Tool, "cannot create run directory " + Dir.string());
  return O;
}

std::string perfbench::buildInfo() {
#if defined(__clang__)
  const char *Compiler = "clang " __clang_version__;
#else
  const char *Compiler = "GCC " __VERSION__;
#endif
  return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " compiler=" + Compiler + " build=" + PERFBENCH_BUILD_TYPE;
}

double perfbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double At = std::clamp(P, 0.0, 1.0) * static_cast<double>(Values.size() - 1);
  size_t Low = static_cast<size_t>(At);
  if (Low + 1 >= Values.size())
    return Values.back();
  double Frac = At - static_cast<double>(Low);
  return Values[Low] * (1 - Frac) + Values[Low + 1] * Frac;
}

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Mid = Values.size() / 2;
  return Values.size() % 2 ? Values[Mid] : (Values[Mid - 1] + Values[Mid]) / 2;
}

void MetricSet::add(const std::string &Name, double Value,
                    const std::string &Unit) {
  Entries.push_back({Name, Value, Unit});
}

void MetricSet::print() const {
  for (const Entry &E : Entries)
    std::printf("  %-36s %14.6g %s\n", E.Name.c_str(), E.Value,
                E.Unit.c_str());
}

std::string MetricSet::json() const {
  std::string Out = "{";
  char Num[64];
  for (const Entry &E : Entries) {
    if (Out.size() > 1)
      Out += ", ";
    std::snprintf(Num, sizeof(Num), "%.12g",
                  std::isfinite(E.Value) ? E.Value : 0.0);
    Out += json::quoted(E.Name) + ": {\"value\": " + Num +
           ", \"unit\": " + json::quoted(E.Unit) + "}";
  }
  return Out + "}";
}

void perfbench::printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                            const MetricSet &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed),
              Metrics.json().c_str());
  std::fflush(stdout);
}

AnswerCheck perfbench::checkAnswers(const Window &W, unsigned Threads) {
  AnswerCheck C;
  C.Answers.resize(W.Exchanges.size());
  std::vector<const Request *> ToCheck;
  std::vector<size_t> CheckedAt;
  std::vector<uint64_t> Hashes;
  auto Note = [&](const Exchange &E, const std::string &What) {
    if (C.Notes.size() >= 5)
      return;
    std::string Line = "r";
    Line += std::to_string(E.Req.Index);
    Line += " (" + E.Req.Group + "): ";
    C.Notes.push_back(Line + What);
  };
  for (size_t I = 0; I < W.Exchanges.size(); ++I) {
    const Exchange &E = W.Exchanges[I];
    Answer &A = C.Answers[I];
    if (!E.Answered) {
      A.K = Answer::Kind::Missing;
      Note(E, "no response");
      continue;
    }
    A.LatencyMs = msBetween(E.Sent, E.Received);
    std::optional<json::Value> V = json::parse(E.Response);
    const json::Value *Status = V ? V->find("status") : nullptr;
    if (const json::Value *T = V ? V->find("timing") : nullptr) {
      if (const json::Value *X = T->find("queue_ms"))
        A.QueueMs = X->asDouble();
      if (const json::Value *X = T->find("run_ms"))
        A.RunMs = X->asDouble();
      if (const json::Value *X = T->find("total_ms"))
        A.TotalMs = X->asDouble();
    }
    const json::Value *F = V ? V->find("findings") : nullptr;
    if (Status && Status->asString() == "timeout") {
      A.K = Answer::Kind::Timeout;
      Note(E, "timeout");
    } else if (!Status || Status->asString() != "ok" || !F) {
      A.K = Answer::Kind::Error;
      const json::Value *Err = V ? V->find("error") : nullptr;
      Note(E, "error: " + (Err ? Err->asString() : E.Response.substr(0, 200)));
    } else {
      A.K = Answer::Kind::Ok;
      ToCheck.push_back(&E.Req);
      CheckedAt.push_back(I);
      Hashes.push_back(findingsHash(*F));
    }
  }
  std::vector<Reference> Refs = computeReferences(ToCheck, Threads);
  for (size_t J = 0; J < Refs.size(); ++J) {
    const Exchange &E = W.Exchanges[CheckedAt[J]];
    if (!Refs[J].OK) {
      C.Answers[CheckedAt[J]].K = Answer::Kind::Wrong;
      Note(E, Refs[J].Error);
    } else if (Hashes[J] != Refs[J].FindingsHash) {
      C.Answers[CheckedAt[J]].K = Answer::Kind::Wrong;
      Note(E, "findings differ from the cold in-process reference");
    }
    if (E.Req.Generated)
      ++(Refs[J].InterpreterReachedExit ? C.InterpreterExits
                                        : C.InterpreterAsserts);
    C.AllSafeChecked += E.Req.ExpectAllSafe;
  }
  for (const Answer &A : C.Answers)
    C.Failed += A.K != Answer::Kind::Ok;
  return C;
}

[[noreturn]] static void fail(const std::string &Why) {
  std::fprintf(stderr, "perfbench: %s\n", Why.c_str());
  std::exit(1);
}

Launched perfbench::launchDaemon(const RunOptions &Opts, Workload &W,
                                 unsigned Launches, unsigned RefThreads) {
  Launched L;
  for (unsigned I = 0; I < Launches; ++I) {
    L.D.reset(); // stops the previous launch
    std::error_code EC;
    fs::remove_all(CacheDir, EC);
    if (RefThreads)
      L.Before.push_back(referenceWork(RefThreads));
    L.D = std::make_unique<Daemon>(Opts.DaemonBinary, W.daemonFlags());
    Clock::time_point T0 = Clock::now();
    std::string Error;
    bool Up = L.D->start(Error);
    std::vector<Request> Prime = Up ? W.priming() : std::vector<Request>();
    if (Up && !Prime.empty()) {
      Window P = runClosedLoop(L.D->connection(), W, W.outstanding(), 0, Prime);
      for (const Exchange &E : P.Exchanges)
        if (!E.Answered ||
            E.Response.find("\"status\":\"ok\"") == std::string::npos) {
          Up = false;
          Error = "priming request r" + std::to_string(E.Req.Index) +
                  " failed: " + E.Response.substr(0, 200);
          break;
        }
    }
    if (!Up) {
      L.D.reset();
      fail(Error);
    }
    L.SetupSeconds.push_back(
        std::chrono::duration<double>(Clock::now() - T0).count());
  }
  return L;
}

json::Value perfbench::daemonMetrics(Daemon &D) {
  std::optional<json::Value> R = D.connection().call("metrics");
  const json::Value *M = R ? R->find("metrics") : nullptr;
  return M ? *M : json::Value::object();
}
