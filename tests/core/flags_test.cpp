//===- tests/core/flags_test.cpp - Shared command-line flag parser --------===//
//
// parseAnalysisFlag is the one flag grammar behind syntox_cli, the
// daemon's defaults, the examples and every benchmark. Each tool exits 2
// with usage on an Error and on any argument the shared parser leaves
// unconsumed, so these tests pin which spellings are accepted, which are
// rejected, and that the removed knobs (--threads=N, every --strategy=
// and --cache/--no-cache) are no longer accepted.
//
//===----------------------------------------------------------------------===//

#include "core/AnalysisFlags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

using namespace syntox;

namespace {

/// Offers \p Arg to a fresh parser state.
struct Parsed {
  FlagParse Outcome;
  AnalysisOptions Opts;
  TelemetryFlags Telem;
  std::string Error;
};

Parsed parse(const std::string &Arg) {
  Parsed P;
  P.Outcome = parseAnalysisFlag(Arg, P.Opts, P.Telem, P.Error);
  return P;
}

TEST(AnalysisFlagsTest, StrategyAndCacheFlagsAreNotAnalysisFlags) {
  // One iteration strategy and an unpinned transfer cache: the flags
  // that chose them are left to the calling tool, which rejects any
  // argument it does not know.
  for (const char *Arg : {"--strategy=worklist", "--strategy=recursive",
                          "--cache", "--no-cache"}) {
    SCOPED_TRACE(Arg);
    Parsed P = parse(Arg);
    EXPECT_EQ(P.Outcome, FlagParse::NotAnalysisFlag);
    EXPECT_TRUE(P.Error.empty());
    EXPECT_TRUE(P.Opts == AnalysisOptions());
  }
}

TEST(AnalysisFlagsTest, ParallelStrategyIsRejected) {
  Parsed P = parse("--strategy=parallel");
  EXPECT_EQ(P.Outcome, FlagParse::NotAnalysisFlag);
  EXPECT_TRUE(P.Opts == AnalysisOptions()) << "a rejected flag changes nothing";
}

TEST(AnalysisFlagsTest, ThreadsFlagIsNotAnAnalysisFlag) {
  // Left to the calling tool, which rejects any argument it does not
  // know.
  for (const char *Arg : {"--threads=4", "--threads=0", "--threads"}) {
    SCOPED_TRACE(Arg);
    Parsed P = parse(Arg);
    EXPECT_EQ(P.Outcome, FlagParse::NotAnalysisFlag);
    EXPECT_TRUE(P.Error.empty());
    EXPECT_TRUE(P.Opts == AnalysisOptions());
  }
}

TEST(AnalysisFlagsTest, BooleanFlagsSetAndClearOptions) {
  EXPECT_TRUE(parse("--terminate").Opts.TerminationGoal);
  EXPECT_FALSE(parse("--no-backward").Opts.UseBackward);
  EXPECT_TRUE(parse("--context-insensitive").Opts.ContextInsensitive);
  EXPECT_FALSE(parse("--no-prune").Opts.PruneDeadSlots);
  EXPECT_TRUE(parse("--prune").Opts.PruneDeadSlots);
  EXPECT_FALSE(parse("--no-warm-start").Opts.WarmStart);
  EXPECT_TRUE(parse("--warm-start").Opts.WarmStart);
}

TEST(AnalysisFlagsTest, ValuedFlagsParseAndRejectMalformedValues) {
  Parsed Rounds = parse("--rounds=3");
  ASSERT_EQ(Rounds.Outcome, FlagParse::Consumed);
  EXPECT_EQ(Rounds.Opts.BackwardRounds, 3u);
  Parsed Narrowing = parse("--narrowing=0");
  ASSERT_EQ(Narrowing.Outcome, FlagParse::Consumed);
  EXPECT_EQ(Narrowing.Opts.NarrowingPasses, 0u);
  Parsed Domain = parse("--domain=product");
  ASSERT_EQ(Domain.Outcome, FlagParse::Consumed);
  EXPECT_EQ(Domain.Opts.Domain, DomainKind::Product);

  for (const char *Arg : {"--rounds=", "--rounds=two", "--narrowing=1x",
                          "--rounds=-1", "--narrowing=4294967296",
                          "--domain=octagon", "--trace-format=xml",
                          "--trace=", "--metrics-json=", "--cache-dir="}) {
    SCOPED_TRACE(Arg);
    Parsed P = parse(Arg);
    EXPECT_EQ(P.Outcome, FlagParse::Error);
    EXPECT_FALSE(P.Error.empty());
  }
}

TEST(AnalysisFlagsTest, UnsignedParserRejectsWhatItCannotHold) {
  unsigned U = 7;
  uint64_t Wide = 7;
  EXPECT_TRUE(parseUnsigned("4294967295", U));
  EXPECT_EQ(U, 4294967295u);
  EXPECT_TRUE(parseUnsigned("4294967296", Wide));
  EXPECT_EQ(Wide, 4294967296u);
  EXPECT_TRUE(parseUnsigned("18446744073709551615", Wide));
  EXPECT_EQ(Wide, UINT64_MAX);

  U = 7;
  Wide = 7;
  for (const char *Bad : {"", "-1", "+1", " 1", "1 ", "0x10", "1e3"}) {
    SCOPED_TRACE(Bad);
    EXPECT_FALSE(parseUnsigned(Bad, U));
    EXPECT_FALSE(parseUnsigned(Bad, Wide));
  }
  EXPECT_FALSE(parseUnsigned("4294967296", U));
  EXPECT_FALSE(parseUnsigned("18446744073709551616", Wide)); // ERANGE
  EXPECT_FALSE(parseUnsigned(std::string("1\0" "2", 3), Wide));
  EXPECT_EQ(U, 7u) << "a rejected value leaves the target unchanged";
  EXPECT_EQ(Wide, 7u);
}

TEST(AnalysisFlagsTest, TelemetryFlagsFillTheTelemetryRequest) {
  AnalysisOptions Opts;
  TelemetryFlags Telem;
  std::string Error;
  for (const char *Arg : {"--trace=out.json", "--trace-format=chrome",
                          "--metrics-json=-"})
    ASSERT_EQ(parseAnalysisFlag(Arg, Opts, Telem, Error),
              FlagParse::Consumed)
        << Arg;
  EXPECT_TRUE(Telem.wantsTrace());
  EXPECT_EQ(Telem.TracePath, "out.json");
  EXPECT_EQ(Telem.TraceFmt, TraceFormat::Chrome);
  EXPECT_TRUE(Telem.wantsMetrics());
  EXPECT_EQ(Telem.MetricsPath, "-");
  EXPECT_EQ(Telem.traceMask(), TraceRecorder::DefaultEvents);
  ASSERT_EQ(parseAnalysisFlag("--trace-detail", Opts, Telem, Error),
            FlagParse::Consumed);
  EXPECT_EQ(Telem.traceMask(), TraceRecorder::AllEvents);
  EXPECT_TRUE(Opts == AnalysisOptions()) << "telemetry flags touch no option";
}

TEST(AnalysisFlagsTest, ParseAnalysisFlagsConsumesOnlyRecognizedArguments) {
  std::vector<std::string> Args{"--domain=product", "prog.pas",
                                "--threads=4",      "--strategy=worklist",
                                "--no-prune",       "--cache",
                                "--states",         "--no-cache"};
  AnalysisOptions Opts;
  TelemetryFlags Telem;
  std::string Error;
  ASSERT_TRUE(parseAnalysisFlags(Args, Opts, Telem, Error)) << Error;
  EXPECT_EQ(Args, (std::vector<std::string>{"prog.pas", "--threads=4",
                                            "--strategy=worklist", "--cache",
                                            "--states", "--no-cache"}));
  EXPECT_EQ(Opts.Domain, DomainKind::Product);
  EXPECT_FALSE(Opts.PruneDeadSlots);

  // A malformed recognized flag stops the parse with an error.
  std::vector<std::string> Bad{"--no-backward", "--rounds=two"};
  EXPECT_FALSE(parseAnalysisFlags(Bad, Opts, Telem, Error));
  EXPECT_NE(Error.find("two"), std::string::npos);
}

TEST(AnalysisFlagsTest, HelpListsOnlyAcceptedKnobs) {
  const char *Help = analysisFlagsHelp();
  EXPECT_NE(std::strstr(Help, "--domain=interval|congruence|product\n"),
            nullptr);
  EXPECT_NE(std::strstr(Help, "--cache-dir=DIR"), nullptr);
  for (const char *Removed : {"--strategy", "worklist", "parallel",
                              "--threads", "--cache,", "--no-cache"}) {
    SCOPED_TRACE(Removed);
    EXPECT_EQ(std::strstr(Help, Removed), nullptr);
  }
}

TEST(AnalysisFlagsTest, QuerySpecGrammar) {
  DemandSpec Spec;
  std::string Error;
  ASSERT_TRUE(parseQuerySpec("point:7", Spec, Error)) << Error;
  EXPECT_EQ(Spec.K, DemandSpec::Kind::Point);
  EXPECT_EQ(Spec.Loc.Line, 7u);
  EXPECT_EQ(Spec.Loc.Column, 0u);
  ASSERT_TRUE(parseQuerySpec("point:12:5", Spec, Error)) << Error;
  EXPECT_EQ(Spec.Loc.Line, 12u);
  EXPECT_EQ(Spec.Loc.Column, 5u);
  ASSERT_TRUE(parseQuerySpec("assertion:3", Spec, Error)) << Error;
  EXPECT_EQ(Spec.K, DemandSpec::Kind::Check);
  EXPECT_EQ(Spec.CheckId, 3u);

  for (const char *Bad : {"point:0", "point:", "point:4:x", "assertion:",
                          "assertion:two", "sideways:3", ""}) {
    SCOPED_TRACE(Bad);
    Error.clear();
    EXPECT_FALSE(parseQuerySpec(Bad, Spec, Error));
    EXPECT_NE(Error.find("invalid query"), std::string::npos) << Error;
  }
}

} // namespace
