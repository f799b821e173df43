//===- semantics/AnalysisOptions.h - All analysis knobs ---------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single options struct for the whole analysis stack. It used to be
/// scattered: Analyzer::Options, AbstractDebugger::Options wrapping it,
/// a test-only fluent builder, and ad-hoc flag parsing duplicated across
/// the CLI and every bench. Now there is one struct with chainable
/// setters (so `AnalysisOptions().terminationGoal().backwardRounds(2)`
/// reads like the old builder), consumed identically by Analyzer,
/// AbstractDebugger, AnalysisSession, and the shared CLI parser
/// (core/AnalysisFlags.h).
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_SEMANTICS_ANALYSISOPTIONS_H
#define SYNTOX_SEMANTICS_ANALYSISOPTIONS_H

#include "lattice/Domain.h"
#include "support/Telemetry.h"

#include <cstdint>
#include <string>
#include <vector>

namespace syntox {

struct AnalysisOptions {
  /// Not a knob, and read by nothing in the analysis: the instance
  /// count at which the deleted transfer cache used to switch on. Kept
  /// only because perfbench_traced prints it; it goes with the next
  /// benchmark change (ROADMAP.md, "For the next benchmark change").
  static constexpr unsigned AdaptiveCacheInstanceThreshold = 10;
  /// The abstract value domain the whole pipeline runs in
  /// (--domain=interval|congruence|product).
  DomainKind Domain = DomainKind::Interval;
  /// Narrowing passes after each ascending phase.
  unsigned NarrowingPasses = 1;
  /// Rounds of (always, eventually, forward) refinement after the
  /// initial forward analysis (Syntox's default is one).
  unsigned BackwardRounds = 1;
  /// Treat program termination as a goal: seed `eventually true` at the
  /// program exit (the paper's "intermittent assertion true at the
  /// end").
  bool TerminationGoal = false;
  /// Disable backward propagation entirely (forward-only baseline).
  bool UseBackward = true;
  /// Harrison-77 baseline (paper §6.5): compute the *greatest* fixpoint
  /// of the forward system, "which has no semantic justification and
  /// gives poor results". Implies forward-only.
  bool HarrisonGfp = false;
  /// Merge every call site of a routine into one activation class
  /// (§6.4: "it is possible to avoid [the duplication], at the cost of
  /// a loss of precision").
  bool ContextInsensitive = false;
  /// Warm-start the refinement chain: each phase records its iteration
  /// trajectory and the next round replays the WTO components whose
  /// inputs provably did not change (see fixpoint/Solver.h). The replay
  /// is exact, so results are bit-for-bit those of a cold chain; only
  /// the iteration counters differ. On by default — turn off to
  /// reproduce the pre-warm-start cold behavior (--no-warm-start).
  bool WarmStart = true;
  /// Liveness-driven dead-slot pruning (see semantics/Liveness.h):
  /// forward stores are restricted to each node's live-slot mask and
  /// interprocedural copies loop only the accessed keys. Findings and
  /// live-variable states are bitwise those of the unpruned analysis;
  /// dead slots read as top (the UI flags them as pruned). On by
  /// default — --no-prune restores the exhaustive stores.
  bool PruneDeadSlots = true;
  /// Widening thresholds (empty = the standard §6.1 operator).
  std::vector<int64_t> WideningThresholds;
  /// Directory of the persistent warm-start cache (empty = disabled).
  /// When set, the session layer (AnalysisSession / runRequest) loads
  /// matching chain-slot memos before solving and saves the recorded
  /// ones after a full run (see persist/WarmCache.h).
  std::string CacheDir;
  /// Optional trace/metrics sinks (borrowed; owned by the session or
  /// the caller). Null members disable that half of the telemetry.
  Telemetry Telem;

  /// Member-wise identity over every field above — the one definition
  /// of "same configuration" that engine reuse (AnalysisSession) relies
  /// on, so a new knob can never be forgotten by it.
  bool operator==(const AnalysisOptions &) const = default;

  /// Hash of every knob that changes the *values* the solver computes
  /// (as opposed to how fast it computes them). Two runs with equal
  /// solverSemanticsHash() and equal programs produce bitwise-identical
  /// stores, so warm-start state may flow between them.
  uint64_t solverSemanticsHash() const {
    uint64_t H = 0xcbf29ce484222325ull;
    auto Mix = [&H](uint64_t V) {
      H ^= V + 0x9e3779b97f4a7c15ull + (H << 12) + (H >> 3);
      H *= 0x100000001b3ull;
    };
    // The domain decides every abstract value; nothing recorded under
    // one domain is replayable under another.
    Mix(static_cast<uint64_t>(Domain));
    Mix(NarrowingPasses);
    Mix(WideningThresholds.size());
    for (int64_t T : WideningThresholds)
      Mix(static_cast<uint64_t>(T));
    Mix(HarrisonGfp);
    Mix(ContextInsensitive);
    Mix(TerminationGoal);
    Mix(UseBackward);
    // Pruning preserves findings and live-variable states bitwise, but
    // the stored *stores* differ on dead slots, so warm-start state must
    // not flow between pruned and unpruned runs.
    Mix(PruneDeadSlots);
    return H;
  }

  /// Semantics hash plus the knobs that change the *shape* of the
  /// recorded warm-start state (chain length). This keys the on-disk
  /// cache file: state recorded under a different options hash is never
  /// even loaded.
  uint64_t optionsHash() const {
    uint64_t H = solverSemanticsHash();
    auto Mix = [&H](uint64_t V) {
      H ^= V + 0x9e3779b97f4a7c15ull + (H << 12) + (H >> 3);
      H *= 0x100000001b3ull;
    };
    // The slot the iteration strategy once filled: a constant, so the
    // cache keys of earlier releases stay valid.
    Mix(0);
    Mix(BackwardRounds);
    return H;
  }

  /// \name Chainable setters
  /// @{
  AnalysisOptions &domain(DomainKind K) {
    Domain = K;
    return *this;
  }
  AnalysisOptions &cacheDir(std::string Dir) {
    CacheDir = std::move(Dir);
    return *this;
  }
  AnalysisOptions &narrowingPasses(unsigned N) {
    NarrowingPasses = N;
    return *this;
  }
  AnalysisOptions &backwardRounds(unsigned N) {
    BackwardRounds = N;
    return *this;
  }
  AnalysisOptions &terminationGoal(bool On = true) {
    TerminationGoal = On;
    return *this;
  }
  AnalysisOptions &backward(bool On) {
    UseBackward = On;
    return *this;
  }
  AnalysisOptions &harrisonGfp(bool On = true) {
    HarrisonGfp = On;
    return *this;
  }
  AnalysisOptions &contextInsensitive(bool On = true) {
    ContextInsensitive = On;
    return *this;
  }
  AnalysisOptions &warmStart(bool On) {
    WarmStart = On;
    return *this;
  }
  AnalysisOptions &prune(bool On) {
    PruneDeadSlots = On;
    return *this;
  }
  AnalysisOptions &wideningThresholds(std::vector<int64_t> T) {
    WideningThresholds = std::move(T);
    return *this;
  }
  AnalysisOptions &telemetry(Telemetry T) {
    Telem = T;
    return *this;
  }
  /// @}
};

} // namespace syntox

#endif // SYNTOX_SEMANTICS_ANALYSISOPTIONS_H
