//===- tests/core/domain_differential_test.cpp - Cross-domain battery -----===//
//
// The pluggable-domain contract at the whole-pipeline level:
//  - refinement: the interval x congruence reduced product is never
//    more alarming than intervals alone — a check the interval run
//    discharges (safe/unreachable) stays discharged under the product,
//    and the product's observed value is contained in the interval
//    one (200 random programs plus the paper programs),
//  - the stride paper programs pin the precision gap the domain
//    dimension exists for: their exit accesses straddle a bound under
//    intervals and every check is discharged only by the product,
//  - determinism: both iteration strategies produce bitwise-equal
//    findings under every domain,
//  - the serving substrate: warm-started chains, demand check queries
//    and disk-cache round-trips answer bitwise-identically to cold
//    full solves per domain, and a cache directory shared across
//    domains never cross-loads (per-domain options hash -> each
//    domain's first run is cold).
//
//===----------------------------------------------------------------------===//

#include "checks/CheckAnalysis.h"
#include "core/AnalysisSession.h"
#include "frontend/PaperPrograms.h"
#include "support/Metrics.h"

#include "../common/AnalysisTestUtil.h"
#include "../common/RandomProgramGen.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

using namespace syntox;
using namespace syntox::test;

namespace {

IterationStrategy strategyFor(uint64_t Seed) {
  return Seed % 3 == 1 ? IterationStrategy::Worklist
                       : IterationStrategy::Recursive;
}

bool discharged(CheckVerdict V) {
  return V == CheckVerdict::Safe || V == CheckVerdict::Unreachable;
}

AnalysisOptions derive(const AnalysisOptions &Base) { return Base; }

/// The findings document minus the work counters: domains are compared
/// on semantics, strategies on everything semantic.
json::Value semanticFindings(const AnalysisResult &R) {
  json::Value Doc = R.toJson();
  json::Value Out = json::Value::object();
  for (const auto &KV : Doc.members())
    if (KV.first != "stats" && KV.first != "metrics")
      Out.set(KV.first, KV.second);
  return Out;
}

/// Asserts the product run refines the interval run check-by-check:
/// same sites, discharged stays discharged, observed values shrink.
/// Both analyzers must share one AST (reanalyze).
void expectProductRefinesInterval(const Analyzer &IntervalAn,
                                  const Analyzer &ProductAn,
                                  unsigned &DischargedGained) {
  CheckAnalysis IntervalChecks(IntervalAn);
  CheckAnalysis ProductChecks(ProductAn);
  const ValueDomain &PD = ProductAn.storeOps().domain();
  const std::vector<CheckResult> &IRs = IntervalChecks.results();
  const std::vector<CheckResult> &PRs = ProductChecks.results();
  ASSERT_EQ(IRs.size(), PRs.size());
  for (size_t I = 0; I < IRs.size(); ++I) {
    const CheckResult &IR = IRs[I];
    const CheckResult &PR = PRs[I];
    ASSERT_EQ(IR.Info->Id, PR.Info->Id);
    if (discharged(IR.Verdict))
      EXPECT_TRUE(discharged(PR.Verdict))
          << "product regressed check #" << IR.Info->Id << " ("
          << IR.Info->Subject << ") from "
          << checkVerdictKey(IR.Verdict) << " to "
          << checkVerdictKey(PR.Verdict);
    else if (discharged(PR.Verdict))
      ++DischargedGained;
    EXPECT_TRUE(PD.leq(PR.Observed, IR.Observed))
        << "product observed " << PD.str(PR.Observed)
        << " not within interval observed " << PD.str(IR.Observed)
        << " at check #" << IR.Info->Id;
  }
}

//===----------------------------------------------------------------------===//
// Refinement: product never more alarming than intervals
//===----------------------------------------------------------------------===//

TEST(DomainDifferentialTest, ProductRefinesIntervalOnTwoHundredSeeds) {
  unsigned TotalChecks = 0, Gained = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    ProgramGenerator Gen(Seed * 4447, /*WithAssertions=*/Seed % 2 == 0);
    std::string Source = Gen.generate();
    SCOPED_TRACE("seed " + std::to_string(Seed) + "\n" + Source);
    IterationStrategy S = strategyFor(Seed);
    AnalysisOptions Base = withOptions().strategy(S);

    auto P = analyzeProgram(Source, derive(Base).domain(DomainKind::Interval));
    ASSERT_TRUE(P.FE.SemaOk);
    auto Prod = reanalyze(P, derive(Base).domain(DomainKind::Product));
    expectProductRefinesInterval(*P.An, *Prod, Gained);
    TotalChecks += CheckAnalysis(*P.An).summary().Total;
  }
  // The battery must not pass vacuously: the generated programs carry
  // real check sites (divisions, subrange assignments).
  EXPECT_GT(TotalChecks, 0u);
}

TEST(DomainDifferentialTest, ProductRefinesIntervalOnPaperPrograms) {
  const char *const Programs[] = {
      paper::ForProgram,          paper::WhileProgram,
      paper::SelectProgram,       paper::IntermittentProgram,
      paper::McCarthyProgram,     paper::BinarySearchProgram,
      paper::HeapSortProgram,     paper::QuickSortProgram,
      paper::BubbleSortProgram,   paper::MatrixProgram,
      paper::ShuttleProgram,      paper::StrideSearchProgram,
      paper::StrideSortProgram,
  };
  unsigned Gained = 0;
  for (const char *Source : Programs) {
    SCOPED_TRACE(Source);
    auto P = analyzeProgram(Source,
                            withOptions().domain(DomainKind::Interval));
    ASSERT_TRUE(P.FE.SemaOk);
    auto Prod = reanalyze(P, withOptions().domain(DomainKind::Product));
    expectProductRefinesInterval(*P.An, *Prod, Gained);
  }
  // The stride programs exist to make this non-vacuous: the product
  // strictly discharges checks intervals alone cannot.
  EXPECT_GE(Gained, 3u);
}

TEST(DomainDifferentialTest, StrideProgramsDischargeOnlyUnderProduct) {
  // The E-domain precision pins (EXPERIMENTS.md): the probe-loop exit
  // accesses straddle an array bound under intervals ([99, 100] against
  // 1..99 and friends) and the reduced product tightens the exit value
  // to the stride class's single point.
  struct Row {
    const char *Source;
    unsigned Total;
    unsigned IntervalSafe;
  } Rows[] = {
      {paper::StrideSearchProgram, 3, 2},
      {paper::StrideSortProgram, 22, 20},
  };
  for (const Row &R : Rows) {
    SCOPED_TRACE(R.Source);
    auto Interval = analyzeProgram(R.Source,
                                   withOptions().domain(DomainKind::Interval));
    ASSERT_TRUE(Interval.FE.SemaOk);
    CheckAnalysis IntervalChecks(*Interval.An);
    CheckSummary IS = IntervalChecks.summary();
    EXPECT_EQ(IS.Total, R.Total);
    EXPECT_EQ(IS.Safe + IS.Unreachable, R.IntervalSafe);
    EXPECT_FALSE(IntervalChecks.allSafe());

    auto Product = reanalyze(Interval,
                             withOptions().domain(DomainKind::Product));
    CheckAnalysis ProductChecks(*Product);
    EXPECT_EQ(ProductChecks.summary().Total, R.Total);
    EXPECT_TRUE(ProductChecks.allSafe())
        << ProductChecks.toJson().pretty();

    // Congruence alone lacks the order half: it cannot beat the
    // product, and on these programs it cannot even discharge the
    // straddling accesses' neighbors.
    auto Congr = reanalyze(Interval,
                           withOptions().domain(DomainKind::Congruence));
    CheckSummary CS = CheckAnalysis(*Congr).summary();
    EXPECT_EQ(CS.Total, R.Total);
    EXPECT_LE(CS.Safe + CS.Unreachable,
              ProductChecks.summary().Safe +
                  ProductChecks.summary().Unreachable);
    EXPECT_FALSE(CheckAnalysis(*Congr).allSafe());
  }
}

//===----------------------------------------------------------------------===//
// Determinism: strategies agree bitwise per domain
//===----------------------------------------------------------------------===//

TEST(DomainDifferentialTest, StrategiesAgreeBitwisePerDomain) {
  for (uint64_t Seed = 1; Seed <= 18; ++Seed) {
    ProgramGenerator Gen(Seed * 9001, /*WithAssertions=*/Seed % 3 == 0);
    std::string Source = Gen.generate();
    SCOPED_TRACE("seed " + std::to_string(Seed) + "\n" + Source);
    for (DomainKind DK : {DomainKind::Congruence, DomainKind::Product}) {
      json::Value Reference;
      bool HaveReference = false;
      for (IterationStrategy S :
           {IterationStrategy::Recursive, IterationStrategy::Worklist}) {
        DiagnosticsEngine Diags;
        auto Session = AnalysisSession::create(
            Source, Diags, withOptions().domain(DK).strategy(S));
        ASSERT_NE(Session, nullptr) << Diags.str();
        AnalysisResult R = Session->run();
        json::Value Doc = semanticFindings(R);
        EXPECT_EQ(Doc.find("domain")->asString(), domainKindName(DK));
        if (!HaveReference) {
          Reference = std::move(Doc);
          HaveReference = true;
        } else {
          EXPECT_TRUE(Doc == Reference)
              << domainKindName(DK) << " findings differ across "
              << "strategies:\n"
              << Doc.pretty() << "\nvs\n"
              << Reference.pretty();
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Warm chains, demand queries and the disk cache per domain
//===----------------------------------------------------------------------===//

TEST(DomainDifferentialTest, WarmStartedChainsMatchColdPerDomain) {
  for (const char *Source :
       {paper::McCarthyProgram, paper::StrideSearchProgram}) {
    SCOPED_TRACE(Source);
    for (DomainKind DK : {DomainKind::Congruence, DomainKind::Product}) {
      auto runOnce = [&](bool Warm) {
        DiagnosticsEngine Diags;
        auto Session = AnalysisSession::create(
            Source, Diags,
            withOptions().domain(DK).warmStart(Warm).backwardRounds(3));
        EXPECT_NE(Session, nullptr) << Diags.str();
        return semanticFindings(Session->run());
      };
      json::Value Cold = runOnce(false);
      json::Value Warm = runOnce(true);
      EXPECT_TRUE(Warm == Cold)
          << domainKindName(DK) << " warm chain diverged:\n"
          << Warm.pretty() << "\nvs\n"
          << Cold.pretty();
    }
  }
}

TEST(DomainDifferentialTest, DemandCheckAnswersMatchFullSolvePerDomain) {
  for (const char *Source :
       {paper::StrideSearchProgram, paper::StrideSortProgram}) {
    SCOPED_TRACE(Source);
    for (DomainKind DK : {DomainKind::Interval, DomainKind::Congruence,
                          DomainKind::Product}) {
      DiagnosticsEngine Diags;
      auto Session =
          AnalysisSession::create(Source, Diags, withOptions().domain(DK));
      ASSERT_NE(Session, nullptr) << Diags.str();
      AnalysisResult Full = Session->run();
      ASSERT_FALSE(Full.checks().results().empty());
      const ValueDomain &D = Full.analyzer().storeOps().domain();
      for (const CheckResult &Want : Full.checks().results()) {
        DemandResult R = Session->demandCheck(Want.Info->Id);
        ASSERT_NE(R.check(), nullptr);
        EXPECT_EQ(R.check()->Verdict, Want.Verdict)
            << domainKindName(DK) << " demand verdict diverged at check #"
            << Want.Info->Id;
        EXPECT_EQ(R.check()->str(D), Want.str(D));
        EXPECT_EQ(R.toJson().find("domain")->asString(),
                  domainKindName(DK));
      }
    }
  }
}

TEST(DomainDifferentialTest, PersistRoundTripsPerDomainWithoutCrossLoads) {
  // One shared cache directory for all three domains. Every domain's
  // first run must be cold even once the others' files are on disk
  // (the domain is part of the options hash, so a cross-domain load
  // can only fall back), the rerun must load, and cache-loaded
  // findings must be bitwise the cold ones.
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "syntox_domain_diff_test";
  std::error_code EC;
  fs::remove_all(Dir, EC);
  fs::create_directories(Dir, EC);

  auto runOnce = [&](DomainKind DK, uint64_t &Loaded) {
    MetricsRegistry Metrics;
    AnalysisOptions Opts = withOptions().domain(DK);
    Opts.CacheDir = Dir.string();
    Opts.Telem.Metrics = &Metrics;
    DiagnosticsEngine Diags;
    auto Session =
        AnalysisSession::create(paper::StrideSearchProgram, Diags, Opts);
    EXPECT_NE(Session, nullptr) << Diags.str();
    AnalysisResult R = Session->run();
    Loaded = Metrics.counterValue("persist.loaded");
    return semanticFindings(R);
  };

  for (DomainKind DK : {DomainKind::Interval, DomainKind::Congruence,
                        DomainKind::Product}) {
    SCOPED_TRACE(domainKindName(DK));
    uint64_t Loaded = 0;
    json::Value Cold = runOnce(DK, Loaded);
    EXPECT_EQ(Loaded, 0u)
        << domainKindName(DK) << " first run loaded a foreign cache";
    json::Value Warm = runOnce(DK, Loaded);
    EXPECT_EQ(Loaded, 1u)
        << domainKindName(DK) << " rerun did not load its cache";
    EXPECT_TRUE(Warm == Cold)
        << domainKindName(DK) << " cache-loaded findings diverged:\n"
        << Warm.pretty() << "\nvs\n"
        << Cold.pretty();
    EXPECT_EQ(Cold.find("domain")->asString(), domainKindName(DK));
  }
  fs::remove_all(Dir, EC);
}

} // namespace
