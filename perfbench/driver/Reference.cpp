//===- perfbench/driver/Reference.cpp - Answer checks ---------------------===//

#include "Reference.h"

#include "core/AnalysisRequest.h"
#include "frontend/Fingerprint.h"
#include "interp/Interpreter.h"

#include <atomic>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

using namespace perfbench;
using namespace syntox;

uint64_t perfbench::findingsHash(const json::Value &Findings) {
  std::string S;
  for (const auto &[Key, Member] : Findings.members()) {
    if (Key == "stats" || Key == "metrics")
      continue;
    S += json::quoted(Key);
    S += ':';
    S += Member.str();
    S += ',';
  }
  uint64_t H = fpSeed();
  for (unsigned char C : S)
    H = fpMix(H, C);
  return H;
}

namespace {

/// The concrete run of a generated program must end inside the forward
/// invariant at program exit. The invariant comes from an unpruned,
/// forward-only analysis: its forward phases are the reference's, but
/// it keeps the slots that liveness pruning reads as top at the exit,
/// where every variable is dead and the check would otherwise be void.
void interpreterCheck(const Request &R, Reference &Ref) {
  DiagnosticsEngine Diags;
  std::unique_ptr<AbstractDebugger> Dbg = AbstractDebugger::create(
      R.Source, Diags, AnalysisOptions().backward(false).prune(false));
  if (!Dbg) {
    Ref.OK = false;
    Ref.Error = "interpreter check: frontend error: " + Diags.str();
    return;
  }
  Dbg->analyze();
  Interpreter::Options IO;
  IO.MaxSteps = 500000;
  Interpreter::Result Run = Interpreter(Dbg->program()).run(IO);
  if (Run.St == Interpreter::Status::RuntimeError &&
      Run.Error == "invariant assertion violated")
    return; // the forward invariant excludes this run by definition
  if (Run.St != Interpreter::Status::Ok) {
    Ref.OK = false;
    Ref.Error = "interpreter check: concrete run failed: " + Run.Error;
    return;
  }
  const Analyzer &An = Dbg->analyzer();
  const Instance &Main = An.graph().instances()[0];
  const AbstractStore &Exit =
      An.forwardAt(An.graph().node(Main, Main.Cfg->exit()));
  std::istringstream Values(Run.Output);
  for (unsigned I = 0; I < 5; ++I) {
    int64_t Concrete = 0;
    const VarDecl *V = nullptr;
    for (const VarDecl *D : Dbg->program()->ownedVars())
      if (D->name() == "v" + std::to_string(I))
        V = D;
    if (!(Values >> Concrete) || !V) {
      Ref.OK = false;
      Ref.Error = "interpreter check: unexpected output '" + Run.Output + "'";
      return;
    }
    if (!An.storeOps().get(Exit, V).asInt().contains(Concrete)) {
      Ref.OK = false;
      Ref.Error = "interpreter check: v" + std::to_string(I) + " = " +
                  std::to_string(Concrete) +
                  " at exit is outside the forward invariant";
      return;
    }
  }
  Ref.InterpreterReachedExit = true;
}

Reference referenceFor(const Request &R) {
  Reference Ref;
  AnalysisRequest Q;
  Q.Source = R.Source; // default options: no cache, no telemetry
  AnalysisOutcome O = runRequest(std::move(Q));
  if (!O.OK) {
    Ref.Error = "reference run failed: " + O.Error;
    return Ref;
  }
  // Hash what a client would see: the findings after a wire round trip.
  std::optional<json::Value> Wire = json::parse(O.findingsJson().str());
  if (!Wire) {
    Ref.Error = "reference findings do not round-trip";
    return Ref;
  }
  Ref.OK = true;
  Ref.FindingsHash = findingsHash(*Wire);
  if (R.ExpectAllSafe && !O.Result->checks().allSafe()) {
    Ref.OK = false;
    Ref.Error = "paper 6.5: " + R.Group + " has a check not statically safe";
  }
  if (Ref.OK && R.Generated)
    interpreterCheck(R, Ref);
  return Ref;
}

} // namespace

std::vector<Reference>
perfbench::computeReferences(const std::vector<const Request *> &Rs,
                             unsigned Threads) {
  // One computation per distinct source.
  std::map<std::string_view, size_t> Slot;
  std::vector<const Request *> Distinct;
  std::vector<size_t> SlotOf;
  for (const Request *R : Rs) {
    auto [It, New] = Slot.try_emplace(R->Source, Distinct.size());
    if (New)
      Distinct.push_back(R);
    SlotOf.push_back(It->second);
  }
  std::vector<Reference> Computed(Distinct.size());
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Distinct.size();)
      Computed[I] = referenceFor(*Distinct[I]);
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < std::max(1u, Threads); ++T)
    Pool.emplace_back(Work);
  Work();
  for (std::thread &T : Pool)
    T.join();
  std::vector<Reference> Out;
  Out.reserve(Rs.size());
  for (size_t S : SlotOf)
    Out.push_back(Computed[S]);
  return Out;
}
