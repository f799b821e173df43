//===- bench/bench_store.cpp - E-store: store-operation throughput --------===//
//
// Microbenchmarks for the copy-on-write store representation: ops/sec
// for copy, join, widen, and equal at store sizes 4/32/256. The numbers
// demonstrate the two properties the solver's inner loop depends on:
//   - store copy is O(1) (a refcount increment, flat across sizes),
//   - join/widen/equal are O(1) on converged inputs via the payload
//     pointer-equality fast path, entry-wise only when values differ.
// A "sparse" row times the shape liveness pruning leaves behind: one
// present slot at the top of a 256-slot numbering, copied and written
// (one detach) and joined/widened into a fresh result.
// Results are printed as a table and written to BENCH_store.json (path
// overridable via --out=FILE) so successive PRs can track the trajectory.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "semantics/AbstractStore.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace syntox;

namespace {

struct Setup {
  AstContext Ctx;
  IntervalDomain D;
  StoreOps Ops{D};
  std::vector<VarDecl *> Vars;

  explicit Setup(unsigned Size) {
    for (unsigned I = 0; I < Size; ++I)
      Vars.push_back(Ctx.create<VarDecl>(SourceLoc(),
                                         "v" + std::to_string(I),
                                         Ctx.integerType(), VarKind::Local));
  }

  /// A store constraining every variable to [Lo, Lo + I].
  AbstractStore make(int64_t Lo) const {
    AbstractStore S;
    for (unsigned I = 0; I < Vars.size(); ++I)
      S.set(Vars[I], AbsValue(Interval(Lo, Lo + static_cast<int64_t>(I))));
    return S;
  }
};

/// Runs Fn in a timing loop and returns operations per second.
template <typename Fn> double opsPerSec(Fn &&F) {
  // Warm up, then time enough iterations for a stable reading.
  for (int I = 0; I < 1000; ++I)
    F();
  uint64_t Iters = 0;
  auto Start = std::chrono::steady_clock::now();
  double Elapsed = 0;
  do {
    for (int I = 0; I < 4096; ++I)
      F();
    Iters += 4096;
    Elapsed = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
  } while (Elapsed < 0.2);
  return static_cast<double>(Iters) / Elapsed;
}

struct Row {
  unsigned Size;
  double Copy, JoinSame, JoinDiff, Widen, WidenDiff, EqualPtr, EqualDeep;
};

Row measure(unsigned Size) {
  Setup S(Size);
  AbstractStore A = S.make(0);
  AbstractStore B = A;          // shares A's payload
  AbstractStore C = S.make(0);  // equal to A, distinct payload
  AbstractStore Grown = S.make(-1); // strictly wider than A per entry

  Row R{Size, 0, 0, 0, 0, 0, 0, 0};
  volatile bool Sink = false;
  R.Copy = opsPerSec([&] {
    AbstractStore Copy = A;
    Sink = Copy.isBottom();
  });
  // Converged join: result == A, returned with A's payload (no
  // allocation, no per-entry output).
  R.JoinSame = opsPerSec([&] {
    AbstractStore J = S.Ops.join(A, B);
    Sink = J.isBottom();
  });
  // General join: every entry changes, output payload built fresh.
  R.JoinDiff = opsPerSec([&] {
    AbstractStore J = S.Ops.join(A, Grown);
    Sink = J.isBottom();
  });
  // Stable widening: A already bounds B, so the delta pass returns A.
  R.Widen = opsPerSec([&] {
    AbstractStore W = S.Ops.widen(A, B);
    Sink = W.isBottom();
  });
  // Unstable widening: every entry grows, so the kernel extrapolates
  // every slot and builds a fresh output payload.
  R.WidenDiff = opsPerSec([&] {
    AbstractStore W = S.Ops.widen(A, Grown);
    Sink = W.isBottom();
  });
  R.EqualPtr = opsPerSec([&] { Sink = S.Ops.equal(A, B); });
  R.EqualDeep = opsPerSec([&] { Sink = S.Ops.equal(A, C); });
  return R;
}

/// One present slot at the top of a 256-slot numbering.
struct SparseRow {
  double CopySet, JoinDiff, WidenDiff;
};

SparseRow measureSparse() {
  Setup S(256);
  const VarDecl *Top = S.Vars.back();
  AbstractStore A, Other;
  A.set(Top, AbsValue(Interval(0, 10)));
  Other.set(Top, AbsValue(Interval(-1, 5))); // neither contains the other

  SparseRow R{0, 0, 0};
  volatile bool Sink = false;
  int64_t K = 0;
  // Copy, then write the present slot: one detach into a fresh block.
  R.CopySet = opsPerSec([&] {
    AbstractStore Copy = A;
    Copy.set(Top, AbsValue(Interval(K, K + 1)));
    ++K;
    Sink = Copy.isBottom();
  });
  R.JoinDiff = opsPerSec([&] {
    AbstractStore J = S.Ops.join(A, Other);
    Sink = J.isBottom();
  });
  R.WidenDiff = opsPerSec([&] {
    AbstractStore W = S.Ops.widen(A, Other);
    Sink = W.isBottom();
  });
  return R;
}

} // namespace

int main(int argc, char **argv) {
  bench::Harness H("store", argc, argv);
  std::printf("==== E-store: COW store operation throughput ====\n\n");
  std::printf("%6s %14s %14s %14s %14s %14s %14s %14s\n", "size", "copy",
              "join(same)", "join(diff)", "widen(stable)", "widen(diff)",
              "equal(ptr)", "equal(deep)");

  H.setField("unit", "ops_per_sec");
  for (unsigned Size : {4u, 32u, 256u}) {
    Row R = measure(Size);
    std::printf("%6u %12.2fM %12.2fM %12.2fM %12.2fM %12.2fM %12.2fM %12.2fM\n",
                R.Size, R.Copy / 1e6, R.JoinSame / 1e6, R.JoinDiff / 1e6,
                R.Widen / 1e6, R.WidenDiff / 1e6, R.EqualPtr / 1e6,
                R.EqualDeep / 1e6);
    json::Value Json = json::Value::object();
    Json.set("size", R.Size);
    Json.set("copy", R.Copy);
    Json.set("join_same", R.JoinSame);
    Json.set("join_diff", R.JoinDiff);
    Json.set("widen_stable", R.Widen);
    Json.set("widen_diff", R.WidenDiff);
    Json.set("equal_ptr", R.EqualPtr);
    Json.set("equal_deep", R.EqualDeep);
    H.row(std::move(Json));
  }
  std::printf("(ops/sec, millions. copy and the same-payload columns should "
              "stay flat across sizes\n — O(1) fast paths — while join(diff) "
              "and equal(deep) scale with the entry count)\n");

  SparseRow SR = measureSparse();
  std::printf("\n%6s %14s %14s %14s\n", "sparse", "copy+set", "join(diff)",
              "widen(diff)");
  std::printf("%6s %12.2fM %12.2fM %12.2fM\n", "1/256", SR.CopySet / 1e6,
              SR.JoinDiff / 1e6, SR.WidenDiff / 1e6);
  json::Value Json = json::Value::object();
  Json.set("size", "sparse");
  Json.set("slots", 256);
  Json.set("copy_set", SR.CopySet);
  Json.set("join_diff", SR.JoinDiff);
  Json.set("widen_diff", SR.WidenDiff);
  H.row(std::move(Json));
  std::printf("(one present slot at the top of a 256-slot numbering: each "
              "result is one block\n sized for that slot alone)\n");

  return H.write() ? 0 : 1;
}
