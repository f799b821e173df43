//===- examples/syntox_cli.cpp - Command-line abstract debugger -----------===//
//
// A CLI replica of the Syntox session of Figure 2: give it a Pascal file
// (or pipe source to stdin) and it prints the derived necessary
// conditions, invariant warnings, check classification, abstract states
// and the analysis statistics — or, with --format=json, one stable
// machine-readable findings document (schemas/findings.schema.json).
//
// Usage:
//   syntox_cli [options] [file.pas]
//     --format=text|json   output encoding (default text)
//     --states             include the abstract state at every point
//     --state-at=LINE[:COL] the abstract state at one source location
//     --query=point:LINE[:COL] | --query=assertion:ID
//                          demand-driven query: solve only the
//                          dependency cone of one point / runtime check
//   plus every shared analysis/telemetry flag (see --help): --terminate,
//   --rounds=N, --domain=D, --cache-dir=DIR, --no-prune,
//   --trace=FILE, --trace-format=json|chrome, --metrics-json=FILE, ...
//
//===----------------------------------------------------------------------===//

#include "core/AnalysisFlags.h"
#include "core/AnalysisRequest.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace syntox;

static void usage() {
  std::fprintf(stderr,
               "usage: syntox_cli [options] [file.pas]\n"
               "  --format=text|json   output encoding (default text)\n"
               "  --states             print the abstract state at every "
               "program point\n"
               "  --state-at=LINE[:COL]\n"
               "                       print the abstract state at one "
               "source location\n"
               "  --query=point:LINE[:COL] | --query=assertion:ID\n"
               "                       demand-driven query: solve only "
               "the dependency cone\n"
               "                       of one source point / one runtime "
               "check id\n"
               "%s",
               analysisFlagsHelp());
}

static void printStates(const std::vector<PointState> &States) {
  for (const PointState &S : States) {
    std::printf("  %s %s:", S.Loc.str().c_str(), S.PointDesc.c_str());
    if (!S.InEnvelope) {
      std::printf(" %s\n", S.Reachable ? "(excluded by specification)"
                                       : "(unreachable)");
      continue;
    }
    if (S.Bindings.empty() && S.PrunedVars.empty())
      std::printf(" top");
    for (const StateBinding &B : S.Bindings)
      std::printf(" %s=%s", B.Var.c_str(), B.Value.c_str());
    // Dead slots the liveness pruning stopped tracking (DESIGN.md §12):
    // they read as top here; --no-prune recovers the concrete value.
    for (const std::string &P : S.PrunedVars)
      std::printf(" %s=top(pruned)", P.c_str());
    std::printf("\n");
  }
}

int main(int Argc, char **Argv) {
  AnalysisOptions Opts;
  TelemetryFlags Telem;
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  std::string Error;
  if (!parseAnalysisFlags(Args, Opts, Telem, Error)) {
    std::fprintf(stderr, "syntox_cli: %s\n", Error.c_str());
    usage();
    return 2;
  }

  bool JsonOutput = false;
  bool PrintAllStates = false;
  SourceLoc StateLoc;
  bool HaveQuery = false;
  DemandSpec Query;
  std::string Path;
  for (const std::string &Arg : Args) {
    if (Arg == "--states") {
      PrintAllStates = true;
    } else if (Arg.rfind("--format=", 0) == 0) {
      std::string Name = Arg.substr(9);
      if (Name == "json") {
        JsonOutput = true;
      } else if (Name == "text") {
        JsonOutput = false;
      } else {
        std::fprintf(stderr, "syntox_cli: unknown format '%s'\n",
                     Name.c_str());
        usage();
        return 2;
      }
    } else if (Arg.rfind("--state-at=", 0) == 0) {
      // The location grammar of --query=point: (parseSourceLoc).
      std::string Spec = Arg.substr(11);
      if (!parseSourceLoc(Spec, StateLoc)) {
        std::fprintf(stderr, "syntox_cli: invalid --state-at '%s'\n",
                     Spec.c_str());
        return 2;
      }
    } else if (Arg.rfind("--query=", 0) == 0) {
      // The same query grammar the serve protocol accepts — one
      // parser for both drivers.
      if (!parseQuerySpec(Arg.substr(8), Query, Error)) {
        std::fprintf(stderr, "syntox_cli: %s\n", Error.c_str());
        return 2;
      }
      HaveQuery = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "syntox_cli: unknown option '%s'\n",
                   Arg.c_str());
      usage();
      return 2;
    } else {
      Path = Arg;
    }
  }

  std::string Source;
  if (Path.empty()) {
    std::ostringstream Buffer;
    Buffer << std::cin.rdbuf();
    Source = Buffer.str();
  } else {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "syntox_cli: cannot open '%s'\n", Path.c_str());
      return 2;
    }
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    Source = Buffer.str();
  }

  DiagnosticsEngine Diags;
  auto Session = AnalysisSession::create(Source, Diags, Opts);
  for (const Diagnostic &D : Diags.diagnostics())
    std::fprintf(stderr, "%s\n", D.str().c_str());
  if (!Session)
    return 1;

  configureSessionTelemetry(*Session, Telem);

  // One runner for both paths — the same shared submission model the
  // batch scheduler and syntox_serve drive.
  AnalysisOutcome Outcome = runRequest(
      *Session,
      HaveQuery ? std::optional<DemandSpec>(Query) : std::nullopt);
  if (!Outcome.OK) {
    std::fprintf(stderr, "syntox_cli: %s\n", Outcome.Error.c_str());
    return 1;
  }

  if (HaveQuery) {
    // Demand-driven path: the query's dependency cone only, partial
    // findings.
    const DemandResult &R = *Outcome.Demand;
    if (JsonOutput) {
      std::printf("%s\n", R.toJson().pretty().c_str());
    } else {
      const AnalysisStats &S = R.stats();
      if (Query.K == DemandSpec::Kind::Point) {
        std::printf("*** Demand query: point %s\n",
                    Query.Loc.str().c_str());
        printStates(R.states());
        if (R.states().empty())
          std::printf("  (no control point at this location)\n");
      } else {
        std::printf("*** Demand query: runtime check %u\n",
                    Query.CheckId);
        const ValueDomain &D = R.analyzer().storeOps().domain();
        std::printf("  %s\n", R.check()->str(D).c_str());
      }
      std::printf("*** Cone conditions\n");
      for (const NecessaryCondition &C : R.conditions())
        std::printf("  %s\n", C.str().c_str());
      if (R.conditions().empty())
        std::printf("  (none)\n");
      std::printf("%s", S.str().c_str());
    }
    if (!writeTelemetryOutputs(*Session, Telem, Error)) {
      std::fprintf(stderr, "syntox_cli: %s\n", Error.c_str());
      return 1;
    }
    return 0;
  }

  const AnalysisResult &Result = *Outcome.Result;

  if (JsonOutput) {
    json::Value Doc = Result.toJson();
    if (PrintAllStates || StateLoc.isValid()) {
      json::Value States = json::Value::array();
      for (const PointState &S : PrintAllStates
                                     ? Result.mainStates()
                                     : Result.stateAt(StateLoc))
        States.push(S.toJson());
      Doc.set("states", std::move(States));
    }
    std::printf("%s\n", Doc.pretty().c_str());
  } else {
    std::printf("*** Checking syntax... ok\n");
    if (!Result.someExecutionMaySatisfySpec())
      std::printf("*** NO execution satisfies the specification: the "
                  "program certainly loops or fails\n");

    std::printf("*** Correctness conditions\n");
    for (const NecessaryCondition &C : Result.conditions())
      std::printf("  %s\n", C.str().c_str());
    if (Result.conditions().empty())
      std::printf("  (none)\n");

    std::printf("*** Invariant assertions\n");
    for (const InvariantWarning &W : Result.invariantWarnings())
      std::printf("  %s: warning: %s\n", W.Loc.str().c_str(),
                  W.Message.c_str());
    if (Result.invariantWarnings().empty())
      std::printf("  (all discharged)\n");

    std::printf("*** Runtime checks\n");
    const ValueDomain &D = Result.analyzer().storeOps().domain();
    for (const CheckResult &R : Result.checks().results())
      std::printf("  %s\n", R.str(D).c_str());

    if (PrintAllStates) {
      std::printf("*** Abstract states\n");
      printStates(Result.mainStates());
    }
    if (StateLoc.isValid()) {
      std::printf("*** Abstract state at %s\n", StateLoc.str().c_str());
      printStates(Result.stateAt(StateLoc));
    }

    std::printf("%s", Result.stats().str().c_str());
  }

  if (!writeTelemetryOutputs(*Session, Telem, Error)) {
    std::fprintf(stderr, "syntox_cli: %s\n", Error.c_str());
    return 1;
  }
  return 0;
}
