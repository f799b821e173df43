//===- perfbench/driver/Workload.cpp - Seeded request streams -------------===//

#include "Workload.h"

#include "frontend/Fingerprint.h"
#include "frontend/PaperPrograms.h"
#include "support/Json.h"
#include "support/Rng.h"

#include "../../tests/common/RandomProgramGen.h"

#include <algorithm>

using namespace perfbench;
using syntox::Rng;
using syntox::test::ProgramGenerator;

namespace {

/// Decorrelates the per-request generator seeds of one run.
uint64_t mixSeed(uint64_t Seed, uint64_t I) {
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ull + I + 0x632be59bd9b4e019ull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

const ProgramGenerator::Family Families[] = {
    ProgramGenerator::Family::Plain,
    ProgramGenerator::Family::GotoHeavy,
    ProgramGenerator::Family::DeepUnfolding,
    ProgramGenerator::Family::AliasingHeavy,
};

/// Every request a never-seen generated program, assertions on.
class ColdWorkload : public Workload {
public:
  explicit ColdWorkload(uint64_t Seed) : Seed(Seed) {}
  /// Two analyses in flight, plus the daemon's connection reader and the
  /// load generator, fit the host's four processors; with more, requests
  /// wait for a processor and the tail measures the scheduler.
  unsigned outstanding() const override { return 2; }

  Request next() override {
    Request R;
    R.Index = Count++;
    ProgramGenerator::Family F = Families[R.Index % 4];
    ProgramGenerator G(mixSeed(Seed, R.Index), /*WithAssertions=*/true);
    R.Source = G.generate(F);
    R.Group = ProgramGenerator::familyName(F);
    R.Generated = true;
    return R;
  }

private:
  uint64_t Seed;
  uint64_t Count = 0;
};

/// An editor fleet over a document pool far larger than the daemon's
/// session LRU and its cache cap.
class EditWorkload : public Workload {
public:
  static constexpr unsigned PoolSize = 256;
  /// The daemon's cache cap: about a third of the pool's primed total
  /// (~1.7 MB), so the post-save collector keeps evicting the tail.
  static constexpr unsigned CacheMaxBytes = 512u << 10;
  static constexpr unsigned EditsPerFour = 3;

  explicit EditWorkload(uint64_t Seed)
      : Seed(Seed), Stream(mixSeed(Seed, ~0ull)) {
    for (unsigned D = 0; D < PoolSize; ++D) {
      ProgramGenerator::Family F = Families[D % 4];
      ProgramGenerator G(mixSeed(Seed, D), /*WithAssertions=*/true);
      Docs.push_back({G.generate(F), ProgramGenerator::familyName(F),
                      "file:///perfbench/doc-" + std::to_string(D) + ".pas"});
      Recency.push_back(D);
    }
    // Recency-skewed choice: the document at move-to-front rank r is
    // picked with probability proportional to 1/(r+1) — a few hot
    // documents and a long tail.
    double Sum = 0;
    for (unsigned Rank = 0; Rank < PoolSize; ++Rank)
      Cdf.push_back(Sum += 1.0 / (Rank + 1));
    for (double &C : Cdf)
      C /= Sum;
  }

  /// Two in flight already saturate the daemon: every save is followed by
  /// a collection of the whole cache tree under one lock, and more
  /// requests in flight only queue on that lock (and stretch the latency
  /// tail whenever its holder loses its processor).
  unsigned outstanding() const override { return 2; }

  uint64_t cacheMaxBytes() const override { return CacheMaxBytes; }

  std::vector<Request> priming() override {
    std::vector<Request> Out;
    for (unsigned D = 0; D < PoolSize; ++D)
      Out.push_back(request(D, /*Index=*/D));
    return Out;
  }

  Request next() override {
    double U = static_cast<double>(Stream.next() >> 11) * 0x1.0p-53;
    size_t Rank = std::min<size_t>(
        std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin(),
        PoolSize - 1);
    unsigned D = Recency[Rank];
    Recency.erase(Recency.begin() + static_cast<long>(Rank));
    Recency.insert(Recency.begin(), D);
    uint64_t I = Count++;
    if (Stream.below(4) < EditsPerFour) {
      ProgramGenerator G(mixSeed(Seed, PoolSize + I));
      Docs[D].Source = G.mutate(std::move(Docs[D].Source));
    }
    return request(D, I);
  }

private:
  struct Doc {
    std::string Source;
    const char *Family;
    std::string CacheKey;
  };

  Request request(unsigned D, uint64_t Index) const {
    Request R;
    R.Index = Index;
    R.Source = Docs[D].Source;
    R.CacheKey = Docs[D].CacheKey;
    R.Group = Docs[D].Family;
    R.Generated = true;
    return R;
  }

  uint64_t Seed;
  Rng Stream;
  std::vector<Doc> Docs;
  std::vector<unsigned> Recency; ///< move-to-front order of Docs
  std::vector<double> Cdf;       ///< rank-choice distribution
  uint64_t Count = 0;
};

/// K sequential counting loops over distinct variables.
std::string loopChain(unsigned K) {
  std::string Out = "program gen;\nvar\n";
  for (unsigned I = 0; I < K; ++I)
    Out += "  v" + std::to_string(I) + " : integer;\n";
  Out += "begin\n";
  for (unsigned I = 0; I < K; ++I) {
    std::string V = "v" + std::to_string(I);
    Out += "  " + V + " := 0;\n";
    Out += "  while " + V + " < 100 do " + V + " := " + V + " + 1;\n";
  }
  Out += "  v0 := 0\nend.\n";
  return Out;
}

/// One developer waiting on each verdict of a solver-heavy program.
class DeepWorkload : public Workload {
public:
  explicit DeepWorkload(uint64_t Seed)
      : Stream(mixSeed(Seed, ~0ull)) {
    auto Add = [&](std::string Label, std::string Source, unsigned Copies,
                   bool AllSafe) {
      Deck.push_back({std::move(Label), std::move(Source), Copies, AllSafe});
    };
    // A 194-request deck. McCarthy_k unfolds into k+1 instances, so
    // k >= 9 crosses the adaptive transfer-cache threshold (10
    // instances) and k = 6 and the loop chains stay below it. Cost grows
    // steeply with k; McCarthy_30 is 2% of the deck, which puts the 99th
    // percentile in the middle of the heaviest program's samples, where
    // one slow or fast request does not move it.
    const std::pair<unsigned, unsigned> McCarthy[] = {
        {6, 11}, {9, 8}, {12, 6}, {18, 3}, {24, 2}, {30, 4}};
    for (auto [K, Copies] : McCarthy)
      Add("mccarthy_" + std::to_string(K), syntox::paper::mcCarthyK(K),
          Copies, false);
    for (unsigned K : {80u, 100u, 120u, 140u, 160u})
      Add("loopchain_" + std::to_string(K), loopChain(K), 6, false);
    Add("quicksort", syntox::paper::QuickSortProgram, 26, false);
    Add("heapsort", syntox::paper::HeapSortProgram, 26, true);
    Add("matrix", syntox::paper::MatrixProgram, 26, true);
    Add("shuttle", syntox::paper::ShuttleProgram, 26, true);
    Add("binarysearch", syntox::paper::BinarySearchProgram, 26, true);
  }

  unsigned outstanding() const override { return 1; }

  Request next() override {
    // Every pass sends each program its number of copies, spread evenly
    // over the pass at a phase the seed picks: any stretch of the
    // sequence, and so any timed window, carries nearly the deck's mix,
    // and the seed decides only the order.
    if (Pos == Pass.size()) {
      Pos = 0;
      std::vector<std::pair<double, const Entry *>> Keyed;
      for (const Entry &E : Deck) {
        double Phase = static_cast<double>(Stream.next() >> 11) * 0x1.0p-53;
        for (unsigned C = 0; C < E.Copies; ++C)
          Keyed.push_back({(C + Phase) / E.Copies, &E});
      }
      std::sort(Keyed.begin(), Keyed.end());
      Pass.clear();
      for (const auto &[Key, E] : Keyed)
        Pass.push_back(E);
    }
    const Entry &E = *Pass[Pos++];
    Request R;
    R.Index = Count++;
    // A unique trailing comment: no parked session ever replays, and
    // no token the analysis reports moves.
    R.Source = E.Source + "{ perfbench r" + std::to_string(R.Index) + " }\n";
    R.Group = E.Label;
    R.ExpectAllSafe = E.AllSafe;
    return R;
  }

private:
  struct Entry {
    std::string Label;
    std::string Source;
    unsigned Copies = 0; ///< per pass
    bool AllSafe = false;
  };
  Rng Stream;
  std::vector<Entry> Deck;
  std::vector<const Entry *> Pass; ///< the current pass, in send order
  size_t Pos = 0;
  uint64_t Count = 0;
};

} // namespace

std::unique_ptr<Workload> Workload::create(const std::string &Name,
                                           uint64_t Seed) {
  if (Name == "cold")
    return std::make_unique<ColdWorkload>(Seed);
  if (Name == "edit")
    return std::make_unique<EditWorkload>(Seed);
  if (Name == "deep")
    return std::make_unique<DeepWorkload>(Seed);
  return nullptr;
}

std::vector<std::string> Workload::daemonFlags() const {
  if (!cacheMaxBytes())
    return {};
  return {std::string("--cache-dir=") + CacheDir,
          "--cache-max-bytes=" + std::to_string(cacheMaxBytes())};
}

std::string perfbench::requestLine(const Request &R) {
  syntox::json::Value V = syntox::json::Value::object();
  V.set("protocol_version", 1);
  V.set("id", wireId(R));
  V.set("kind", "analyze");
  V.set("source", R.Source);
  if (!R.CacheKey.empty())
    V.set("cache_key", R.CacheKey);
  return V.str();
}

std::string perfbench::wireId(const Request &R) {
  return "r" + std::to_string(R.Index);
}

uint64_t perfbench::inputsFingerprint(const std::string &Name) {
  std::unique_ptr<Workload> W = Workload::create(Name, 1);
  uint64_t H = syntox::fpSeed();
  auto Mix = [&](const Request &R) {
    for (unsigned char C : requestLine(R))
      H = syntox::fpMix(H, C);
  };
  for (const Request &R : W->priming())
    Mix(R);
  for (unsigned I = 0; I < 64; ++I)
    Mix(W->next());
  return H;
}

uint64_t perfbench::recordedInputsFingerprint(const std::string &Name) {
  // cold and edit draw their programs from the test suite's generator
  // (tests/common/RandomProgramGen.h), deep from
  // src/frontend/PaperPrograms.h.
  if (Name == "cold")
    return 0xcc6f139ae6653ca4ull;
  if (Name == "edit")
    return 0xfce2d52cf497888bull;
  return 0xede30a254a3ed214ull; // deep
}
