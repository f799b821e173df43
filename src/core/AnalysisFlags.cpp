//===- core/AnalysisFlags.cpp - Shared command-line flag parsing ----------===//

#include "core/AnalysisFlags.h"

#include "core/AnalysisSession.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>

using namespace syntox;

/// Parses \p Text as decimal digits whose value is at most \p Max.
static bool parseDecimal(const std::string &Text, uint64_t Max,
                         uint64_t &Out) {
  // strtoull alone would accept blanks, a sign (negating the value) and
  // trailing text.
  if (Text.empty() || Text.find_first_not_of("0123456789") != Text.npos)
    return false;
  errno = 0;
  unsigned long long N = std::strtoull(Text.c_str(), nullptr, 10);
  if (errno == ERANGE || N > Max)
    return false;
  Out = N;
  return true;
}

bool syntox::parseUnsigned(const std::string &Text, unsigned &Out) {
  uint64_t N = 0;
  if (!parseDecimal(Text, std::numeric_limits<unsigned>::max(), N))
    return false;
  Out = static_cast<unsigned>(N);
  return true;
}

bool syntox::parseUnsigned(const std::string &Text, uint64_t &Out) {
  return parseDecimal(Text, std::numeric_limits<uint64_t>::max(), Out);
}

FlagParse syntox::parseAnalysisFlag(const std::string &Arg,
                                    AnalysisOptions &Opts,
                                    TelemetryFlags &Telem,
                                    std::string &Error) {
  auto valueOf = [&](const char *Prefix) -> const char * {
    size_t Len = std::char_traits<char>::length(Prefix);
    return Arg.compare(0, Len, Prefix) == 0 ? Arg.c_str() + Len : nullptr;
  };

  if (Arg == "--terminate") {
    Opts.TerminationGoal = true;
  } else if (Arg == "--no-backward") {
    Opts.UseBackward = false;
  } else if (Arg == "--context-insensitive") {
    Opts.ContextInsensitive = true;
  } else if (Arg == "--warm-start") {
    Opts.WarmStart = true;
  } else if (Arg == "--no-warm-start") {
    Opts.WarmStart = false;
  } else if (Arg == "--prune") {
    Opts.PruneDeadSlots = true;
  } else if (Arg == "--no-prune") {
    Opts.PruneDeadSlots = false;
  } else if (Arg == "--trace-detail") {
    Telem.TraceDetail = true;
  } else if (const char *V = valueOf("--rounds=")) {
    if (!parseUnsigned(V, Opts.BackwardRounds)) {
      Error = "invalid --rounds value '" + std::string(V) + "'";
      return FlagParse::Error;
    }
  } else if (const char *V = valueOf("--narrowing=")) {
    if (!parseUnsigned(V, Opts.NarrowingPasses)) {
      Error = "invalid --narrowing value '" + std::string(V) + "'";
      return FlagParse::Error;
    }
  } else if (const char *V = valueOf("--domain=")) {
    std::string Name = V;
    if (!parseDomainKind(Name, Opts.Domain)) {
      Error = "unknown domain '" + Name +
              "' (expected interval, congruence or product)";
      return FlagParse::Error;
    }
  } else if (const char *V = valueOf("--trace-format=")) {
    std::string Name = V;
    if (Name == "json") {
      Telem.TraceFmt = TraceFormat::JsonLines;
    } else if (Name == "chrome") {
      Telem.TraceFmt = TraceFormat::Chrome;
    } else {
      Error = "unknown trace format '" + Name +
              "' (expected json or chrome)";
      return FlagParse::Error;
    }
  } else if (const char *V = valueOf("--trace=")) {
    if (*V == '\0') {
      Error = "--trace needs a file name (or - for stdout)";
      return FlagParse::Error;
    }
    Telem.TracePath = V;
  } else if (const char *V = valueOf("--metrics-json=")) {
    if (*V == '\0') {
      Error = "--metrics-json needs a file name (or - for stdout)";
      return FlagParse::Error;
    }
    Telem.MetricsPath = V;
  } else if (const char *V = valueOf("--cache-dir=")) {
    if (*V == '\0') {
      Error = "--cache-dir needs a directory name";
      return FlagParse::Error;
    }
    Opts.CacheDir = V;
  } else {
    return FlagParse::NotAnalysisFlag;
  }
  return FlagParse::Consumed;
}

bool syntox::parseAnalysisFlags(std::vector<std::string> &Args,
                                AnalysisOptions &Opts,
                                TelemetryFlags &Telem, std::string &Error) {
  for (auto It = Args.begin(); It != Args.end();) {
    switch (parseAnalysisFlag(*It, Opts, Telem, Error)) {
    case FlagParse::Consumed:
      It = Args.erase(It);
      break;
    case FlagParse::NotAnalysisFlag:
      ++It;
      break;
    case FlagParse::Error:
      return false;
    }
  }
  return true;
}

bool syntox::parseSourceLoc(const std::string &Text, SourceLoc &Out) {
  size_t Colon = Text.find(':');
  unsigned Line = 0, Column = 0;
  if (!parseUnsigned(Text.substr(0, Colon), Line) || Line == 0)
    return false;
  if (Colon != std::string::npos &&
      !parseUnsigned(Text.substr(Colon + 1), Column))
    return false;
  Out.Line = Line;
  Out.Column = Column;
  return true;
}

bool syntox::parseQuerySpec(const std::string &Spec, DemandSpec &Out,
                            std::string &Error) {
  if (Spec.rfind("point:", 0) == 0) {
    SourceLoc Loc;
    if (!parseSourceLoc(Spec.substr(6), Loc)) {
      Error = "invalid query '" + Spec + "' (expected point:LINE[:COL])";
      return false;
    }
    Out = DemandSpec::point(Loc);
    return true;
  }
  if (Spec.rfind("assertion:", 0) == 0) {
    unsigned Id = 0;
    if (!parseUnsigned(Spec.substr(10), Id)) {
      Error = "invalid query '" + Spec + "' (expected assertion:ID)";
      return false;
    }
    Out = DemandSpec::check(Id);
    return true;
  }
  Error = "invalid query '" + Spec +
          "' (expected point:LINE[:COL] or assertion:ID)";
  return false;
}

const char *syntox::analysisFlagsHelp() {
  return "  --domain=interval|congruence|product\n"
         "                       abstract value domain: Z_b intervals\n"
         "                       (default), aZ+b stride classes, or the\n"
         "                       interval x congruence reduced product\n"
         "  --cache-dir=DIR      persistent warm-start cache: reruns\n"
         "                       replay unchanged analysis state from\n"
         "                       disk; edits re-solve only the changed\n"
         "                       components (results are identical)\n"
         "  --warm-start, --no-warm-start\n"
         "                       replay stable WTO components across\n"
         "                       refinement rounds (default on; results\n"
         "                       are identical either way)\n"
         "  --prune, --no-prune  liveness-driven dead-slot store pruning\n"
         "                       (default on; findings and live-variable\n"
         "                       states are identical, dead variables\n"
         "                       read as top)\n"
         "  --rounds=N           backward/forward refinement rounds\n"
         "  --narrowing=N        narrowing passes per ascending phase\n"
         "  --terminate          add the goal 'the program terminates'\n"
         "  --no-backward        forward analysis only\n"
         "  --context-insensitive\n"
         "                       merge the call sites of each routine\n"
         "  --trace=FILE         write an event trace (- = stdout)\n"
         "  --trace-format=json|chrome\n"
         "                       trace encoding (default json-lines)\n"
         "  --trace-detail       include store-detach and store-prune\n"
         "                       events\n"
         "  --metrics-json=FILE  write a metrics snapshot (- = stdout)\n";
}

void syntox::configureSessionTelemetry(AnalysisSession &S,
                                       const TelemetryFlags &Telem) {
  if (Telem.wantsTrace())
    S.enableTracing(Telem.traceMask());
}

/// Runs \p Fn with the stream named by \p Path ("-" selects stdout).
template <typename Fn>
static bool withOutputStream(const std::string &Path, std::string &Error,
                             Fn &&F) {
  if (Path == "-") {
    F(std::cout);
    return true;
  }
  std::ofstream OS(Path);
  if (!OS) {
    Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  F(OS);
  OS.flush();
  if (!OS) {
    Error = "error writing '" + Path + "'";
    return false;
  }
  return true;
}

bool syntox::writeTelemetryOutputs(AnalysisSession &S,
                                   const TelemetryFlags &Telem,
                                   std::string &Error) {
  return writeTelemetryOutputs(S.traceRecorder(), &S.metrics(), Telem, Error);
}

bool syntox::writeTelemetryOutputs(TraceRecorder *Trace,
                                   const MetricsRegistry *Metrics,
                                   const TelemetryFlags &Telem,
                                   std::string &Error) {
  if (Telem.wantsTrace() && Trace) {
    bool Ok = withOutputStream(Telem.TracePath, Error, [&](std::ostream &OS) {
      StreamTraceSink Sink(OS, Telem.TraceFmt);
      Trace->flushTo(Sink);
    });
    if (!Ok)
      return false;
  }
  if (Telem.wantsMetrics() && Metrics) {
    bool Ok =
        withOutputStream(Telem.MetricsPath, Error, [&](std::ostream &OS) {
          OS << Metrics->snapshot().pretty() << '\n';
        });
    if (!Ok)
      return false;
  }
  return true;
}
