//===- core/AnalysisFlags.h - Shared command-line flag parsing --*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One parser for the analysis and telemetry flags, shared by the CLI,
/// the examples and every benchmark — each of which used to hand-roll
/// its own (drifting) subset. Recognized flags:
///
///   --rounds=N             backward/forward refinement rounds
///   --narrowing=N          narrowing passes per ascending phase
///   --terminate            add the goal "the program must terminate"
///   --no-backward          forward analysis only
///   --context-insensitive  merge the call sites of each routine
///   --trace=FILE           write an event trace ("-" = stdout)
///   --trace-format=json|chrome   trace encoding (default json-lines)
///   --trace-detail         include the store detach/prune detail events
///   --metrics-json=FILE    write a metrics snapshot ("-" = stdout)
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_CORE_ANALYSISFLAGS_H
#define SYNTOX_CORE_ANALYSISFLAGS_H

#include "core/AbstractDebugger.h"
#include "semantics/AnalysisOptions.h"
#include "support/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace syntox {

class AnalysisSession;

/// Where (and how) to export telemetry, as requested on a command line.
struct TelemetryFlags {
  std::string TracePath;   ///< --trace=; empty = off, "-" = stdout
  TraceFormat TraceFmt = TraceFormat::JsonLines; ///< --trace-format=
  bool TraceDetail = false;                      ///< --trace-detail
  std::string MetricsPath; ///< --metrics-json=; empty = off, "-" = stdout

  bool wantsTrace() const { return !TracePath.empty(); }
  bool wantsMetrics() const { return !MetricsPath.empty(); }
  /// Recorder mask honoring --trace-detail.
  uint32_t traceMask() const {
    return TraceDetail ? TraceRecorder::AllEvents
                       : TraceRecorder::DefaultEvents;
  }
};

/// Outcome of offering one argument to the shared parser.
enum class FlagParse {
  Consumed,        ///< recognized and applied
  NotAnalysisFlag, ///< not ours; the caller handles it
  Error,           ///< recognized but malformed (see the Error out-param)
};

/// Offers \p Arg to the shared parser, updating \p Opts / \p Telem.
FlagParse parseAnalysisFlag(const std::string &Arg, AnalysisOptions &Opts,
                            TelemetryFlags &Telem, std::string &Error);

/// Consumes every recognized flag from \p Args (erasing them in place;
/// unrecognized arguments are left for the caller). Returns false and
/// sets \p Error when a recognized flag is malformed.
bool parseAnalysisFlags(std::vector<std::string> &Args,
                        AnalysisOptions &Opts, TelemetryFlags &Telem,
                        std::string &Error);

/// The checked number parser behind the numeric flags of this parser
/// and of syntox_serve: \p Text must be plain decimal digits (no sign,
/// no blanks, nothing after them) whose value fits in \p Out. Returns
/// false on anything else, leaving \p Out unchanged; a value is never
/// wrapped into range.
bool parseUnsigned(const std::string &Text, unsigned &Out);
bool parseUnsigned(const std::string &Text, uint64_t &Out);

/// Usage text describing every flag the shared parser accepts, for
/// embedding in --help output (one flag per line, indented).
const char *analysisFlagsHelp();

/// Parses a source location "LINE[:COL]" (LINE >= 1; COL defaults to 0)
/// with parseUnsigned into \p Out: the one location grammar of
/// syntox_cli's --state-at, --query=point: and the serve protocol's
/// point queries. Returns false on anything else, leaving \p Out
/// unchanged.
bool parseSourceLoc(const std::string &Text, SourceLoc &Out);

/// Parses a demand-query spec — "point:LINE[:COL]" or "assertion:ID" —
/// into \p Out. One grammar for every driver: the CLI's --query= flag
/// and the serve protocol's "query" member go through here. Returns
/// false with \p Error set on malformed input.
bool parseQuerySpec(const std::string &Spec, DemandSpec &Out,
                    std::string &Error);

/// Enables tracing on \p S as requested by \p Telem (no-op when no
/// --trace flag was given). Call before run().
void configureSessionTelemetry(AnalysisSession &S,
                               const TelemetryFlags &Telem);

/// Writes the --trace / --metrics-json outputs accumulated in \p S.
/// Returns false and sets \p Error on I/O failure.
bool writeTelemetryOutputs(AnalysisSession &S, const TelemetryFlags &Telem,
                           std::string &Error);

/// Variant over a raw recorder/registry, for tools that drive the engine
/// without an AnalysisSession (the benchmark binaries). Either pointer
/// may be null; the corresponding output is skipped.
bool writeTelemetryOutputs(TraceRecorder *Trace, const MetricsRegistry *Metrics,
                           const TelemetryFlags &Telem, std::string &Error);

} // namespace syntox

#endif // SYNTOX_CORE_ANALYSISFLAGS_H
