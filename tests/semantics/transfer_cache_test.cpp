//===- tests/semantics/transfer_cache_test.cpp - Memoization properties ---===//
//
// The transfer cache keys on (edge, direction, store hash) and confirms
// hits with full store equality, so its correctness rests on two
// properties checked here: semantically equal stores hash equal (or the
// cache would only lose hits — but the representation-independence of
// the hash is what makes the hit rate useful), and the cache itself
// never fabricates results across edges, directions or distinct stores.
// The table's own contract is pinned as well: one entry per key, result
// pointers stable until clear(), a global entry cap that clear() lifts,
// and one trace event per lookup. Over whole analyses, switching the
// cache on must leave every store bit-identical.
//
//===----------------------------------------------------------------------===//

#include "frontend/PaperPrograms.h"
#include "semantics/Transfer.h"
#include "support/Trace.h"

#include "../common/AnalysisTestUtil.h"

#include <gtest/gtest.h>

#include <vector>

using namespace syntox;
using namespace syntox::test;

namespace {

/// A tiny program whose declarations give us real VarDecls to build
/// stores around.
class TransferCacheTest : public ::testing::Test {
protected:
  TransferCacheTest()
      : A(analyzeProgram("program p; var x, y : integer; b : boolean;\n"
                         "begin x := 1; y := 2; b := true end.")),
        Ops(A.An->storeOps()), X(A.var("", "x")), Y(A.var("", "y")),
        B(A.var("", "b")) {}

  AnalyzedProgram A;
  const StoreOps &Ops;
  const VarDecl *X, *Y, *B;
};

TEST_F(TransferCacheTest, EqualStoresHashEqual) {
  // Same bindings, built in different orders.
  AbstractStore S1 = AbstractStore::top();
  Ops.assign(S1, X, AbsValue(Interval(1, 5)));
  Ops.assign(S1, Y, AbsValue(Interval(-3, 3)));
  AbstractStore S2 = AbstractStore::top();
  Ops.assign(S2, Y, AbsValue(Interval(-3, 3)));
  Ops.assign(S2, X, AbsValue(Interval(1, 5)));
  ASSERT_TRUE(Ops.equal(S1, S2));
  EXPECT_EQ(Ops.hash(S1), Ops.hash(S2));
}

TEST_F(TransferCacheTest, ExplicitTopEntryHashesLikeMissingEntry) {
  // Widening and joins can leave explicit entries at top; a missing key
  // means top by convention. Both representations are semantically equal
  // and must hash equal, or phase-crossing hits would be lost.
  AbstractStore S1 = AbstractStore::top();
  Ops.assign(S1, X, AbsValue(Interval(0, 10)));
  AbstractStore S2 = S1;
  S2.set(Y, AbsValue(Ops.domain().top()));
  S2.set(B, AbsValue(BoolLattice::top()));
  ASSERT_TRUE(Ops.equal(S1, S2));
  EXPECT_EQ(Ops.hash(S1), Ops.hash(S2));
}

TEST_F(TransferCacheTest, WideningThatChangesTheStoreChangesTheHash) {
  AbstractStore S = AbstractStore::top();
  Ops.assign(S, X, AbsValue(Interval(0, 5)));
  AbstractStore Next = AbstractStore::top();
  Ops.assign(Next, X, AbsValue(Interval(0, 6)));
  AbstractStore W = Ops.widen(S, Next);
  ASSERT_FALSE(Ops.equal(S, W)); // x jumped to [0, +oo)
  EXPECT_NE(Ops.hash(S), Ops.hash(W));
}

TEST_F(TransferCacheTest, NarrowingThatChangesTheStoreChangesTheHash) {
  AbstractStore W = AbstractStore::top();
  Ops.assign(W, X, AbsValue(Interval(0, INT64_MAX)));
  AbstractStore Refined = AbstractStore::top();
  Ops.assign(Refined, X, AbsValue(Interval(0, 100)));
  AbstractStore N = Ops.narrow(W, Refined);
  ASSERT_FALSE(Ops.equal(W, N));
  EXPECT_NE(Ops.hash(W), Ops.hash(N));
}

TEST_F(TransferCacheTest, BottomHashIsCanonical) {
  AbstractStore B1 = AbstractStore::bottom();
  AbstractStore B2 = AbstractStore::top();
  Ops.assign(B2, X, AbsValue(Interval::bottom())); // assign canonicalizes
  ASSERT_TRUE(Ops.equal(B1, B2));
  EXPECT_EQ(Ops.hash(B1), Ops.hash(B2));
  EXPECT_NE(Ops.hash(B1), Ops.hash(AbstractStore::top()));
}

//===----------------------------------------------------------------------===//
// Direct cache behavior, driven through a Nop transfer (identity).
//===----------------------------------------------------------------------===//

TEST_F(TransferCacheTest, HitsAndMissesAreKeyedOnEdgeDirectionAndStore) {
  ExprSemantics Exprs(Ops);
  Transfer Xfer(Ops, Exprs, *A.Cfg);
  TransferCache Cache(Ops);
  FrameMap F;
  Action Nop = Action::nop();

  AbstractStore S = AbstractStore::top();
  Ops.assign(S, X, AbsValue(Interval(2, 9)));

  // First evaluation computes, second reuses.
  AbstractStore R1 = *Cache.fwd(Xfer, /*EdgeId=*/0, Nop, S, F);
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.hits(), 0u);
  AbstractStore R2 = *Cache.fwd(Xfer, 0, Nop, S, F);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_TRUE(Ops.equal(R1, R2));

  // A semantically equal store with a different representation hits too.
  AbstractStore SWithTop = S;
  SWithTop.set(Y, AbsValue(Ops.domain().top()));
  Cache.fwd(Xfer, 0, Nop, SWithTop, F);
  EXPECT_EQ(Cache.hits(), 2u);

  // Another edge, or the backward direction, is a separate key.
  Cache.fwd(Xfer, 1, Nop, S, F);
  EXPECT_EQ(Cache.misses(), 2u);
  Cache.bwd(Xfer, 0, Nop, S, F);
  EXPECT_EQ(Cache.misses(), 3u);

  // Another store on the same edge is a miss as well.
  AbstractStore T = AbstractStore::top();
  Ops.assign(T, X, AbsValue(Interval(2, 10)));
  Cache.fwd(Xfer, 0, Nop, T, F);
  EXPECT_EQ(Cache.misses(), 4u);
  EXPECT_EQ(Cache.size(), 4u);

  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.hits(), 0u);
  EXPECT_EQ(Cache.misses(), 0u);
  Cache.fwd(Xfer, 0, Nop, S, F);
  EXPECT_EQ(Cache.misses(), 1u);
}

TEST_F(TransferCacheTest, EntryCapStopsInsertionNotCorrectness) {
  ExprSemantics Exprs(Ops);
  Transfer Xfer(Ops, Exprs, *A.Cfg);
  // A tiny cache: at most 16 entries in all.
  TransferCache Cache(Ops, /*MaxEntries=*/16);
  FrameMap F;
  Action Nop = Action::nop();
  for (int I = 0; I < 500; ++I) {
    AbstractStore S = AbstractStore::top();
    Ops.assign(S, X, AbsValue(Interval(I, I)));
    AbstractStore R = *Cache.fwd(Xfer, 0, Nop, S, F);
    EXPECT_TRUE(Ops.equal(R, S)); // Nop is the identity
  }
  // The global cap held: the first 16 stores were kept, the rest ran
  // the transfer without being inserted.
  EXPECT_EQ(Cache.size(), 16u);
  EXPECT_EQ(Cache.misses(), 500u);
  AbstractStore First = AbstractStore::top();
  Ops.assign(First, X, AbsValue(Interval(0, 0)));
  Cache.fwd(Xfer, 0, Nop, First, F);
  EXPECT_EQ(Cache.hits(), 1u);
}

TEST_F(TransferCacheTest, RepeatedLookupsNeverDuplicateAnEntry) {
  ExprSemantics Exprs(Ops);
  Transfer Xfer(Ops, Exprs, *A.Cfg);
  TransferCache Cache(Ops);
  FrameMap F;
  Action Nop = Action::nop();
  AbstractStore S = AbstractStore::top();
  Ops.assign(S, X, AbsValue(Interval(5, 7)));
  const AbstractStore *First = Cache.fwd(Xfer, 3, Nop, S, F);
  for (int I = 0; I < 10; ++I) {
    // A copy shares the payload; an equal rebuild does not. Both hit
    // the one resident entry.
    AbstractStore Rebuilt = AbstractStore::top();
    Ops.assign(Rebuilt, X, AbsValue(Interval(5, 7)));
    EXPECT_EQ(Cache.fwd(Xfer, 3, Nop, I % 2 ? S : Rebuilt, F), First);
  }
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.hits(), 10u);
}

TEST_F(TransferCacheTest, ResultPointersStayValidUntilClear) {
  // Results live on the heap, so the pointer handed out for an entry
  // survives any number of later insertions into its bucket.
  ExprSemantics Exprs(Ops);
  Transfer Xfer(Ops, Exprs, *A.Cfg);
  TransferCache Cache(Ops);
  FrameMap F;
  Action Nop = Action::nop();
  auto storeWithX = [&](int64_t V) {
    AbstractStore S = AbstractStore::top();
    Ops.assign(S, X, AbsValue(Interval(V, V)));
    return S;
  };
  constexpr int N = 3000;
  std::vector<const AbstractStore *> Results;
  for (int I = 0; I < N; ++I)
    Results.push_back(Cache.fwd(Xfer, 0, Nop, storeWithX(I), F));
  ASSERT_EQ(Cache.size(), static_cast<size_t>(N));
  for (int I = 0; I < N; ++I) {
    AbstractStore S = storeWithX(I);
    ASSERT_TRUE(Ops.equal(*Results[I], S)) << "entry " << I;
    EXPECT_EQ(Cache.fwd(Xfer, 0, Nop, S, F), Results[I]) << "entry " << I;
  }
  EXPECT_EQ(Cache.hits(), static_cast<uint64_t>(N));
  EXPECT_EQ(Cache.misses(), static_cast<uint64_t>(N));
}

TEST_F(TransferCacheTest, ClearReopensAFullCache) {
  ExprSemantics Exprs(Ops);
  Transfer Xfer(Ops, Exprs, *A.Cfg);
  TransferCache Cache(Ops, /*MaxEntries=*/2);
  FrameMap F;
  Action Nop = Action::nop();
  auto storeWithY = [&](int64_t V) {
    AbstractStore S = AbstractStore::top();
    Ops.assign(S, Y, AbsValue(Interval(V, V)));
    return S;
  };
  for (int I = 0; I < 4; ++I)
    Cache.fwd(Xfer, 0, Nop, storeWithY(I), F);
  ASSERT_EQ(Cache.size(), 2u);
  // Stores 2 and 3 ran through the overflow slot: still misses.
  Cache.fwd(Xfer, 0, Nop, storeWithY(3), F);
  EXPECT_EQ(Cache.misses(), 5u);

  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  Cache.fwd(Xfer, 0, Nop, storeWithY(2), F);
  Cache.fwd(Xfer, 0, Nop, storeWithY(3), F);
  EXPECT_EQ(Cache.size(), 2u);
  AbstractStore R = *Cache.fwd(Xfer, 0, Nop, storeWithY(3), F);
  EXPECT_TRUE(Ops.equal(R, storeWithY(3)));
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 2u);
}

TEST_F(TransferCacheTest, TraceRecordsOneEventPerLookup) {
  ExprSemantics Exprs(Ops);
  Transfer Xfer(Ops, Exprs, *A.Cfg);
  TransferCache Cache(Ops);
  TraceRecorder Trace(TraceRecorder::AllEvents);
  Cache.setTrace(&Trace);
  FrameMap F;
  Action Nop = Action::nop();
  AbstractStore S = AbstractStore::top();
  Ops.assign(S, X, AbsValue(Interval(1, 2)));
  Cache.fwd(Xfer, 4, Nop, S, F); // miss
  Cache.fwd(Xfer, 4, Nop, S, F); // hit
  Cache.bwd(Xfer, 4, Nop, S, F); // miss: the other direction

  std::vector<TraceEvent> Events = Trace.take();
  ASSERT_EQ(Events.size(), 3u);
  EXPECT_EQ(Events[0].Kind, TraceEventKind::CacheMiss);
  EXPECT_EQ(Events[1].Kind, TraceEventKind::CacheHit);
  EXPECT_EQ(Events[2].Kind, TraceEventKind::CacheMiss);
  for (const TraceEvent &E : Events)
    EXPECT_EQ(E.Arg0, 4u) << "edge id";
  EXPECT_EQ(Events[0].Arg1, 1u) << "forward";
  EXPECT_EQ(Events[1].Arg1, 1u) << "forward";
  EXPECT_EQ(Events[2].Arg1, 0u) << "backward";

  // The default mask leaves the per-lookup events out.
  TraceRecorder Quiet;
  Cache.setTrace(&Quiet);
  Cache.fwd(Xfer, 4, Nop, S, F);
  EXPECT_TRUE(Quiet.take().empty());
}

//===----------------------------------------------------------------------===//
// The cache inside whole analyses
//===----------------------------------------------------------------------===//

/// Asserts that analyzers \p A and \p B (sharing one AST) computed
/// bit-identical forward invariants and envelopes at every node.
void expectIdenticalStores(const Analyzer &A, const Analyzer &B) {
  const StoreOps &Ops = A.storeOps();
  ASSERT_EQ(A.graph().numNodes(), B.graph().numNodes());
  for (unsigned Node = 0; Node < A.graph().numNodes(); ++Node) {
    EXPECT_TRUE(Ops.equal(A.forwardAt(Node), B.forwardAt(Node)))
        << "forward invariant differs at node " << Node;
    EXPECT_TRUE(Ops.equal(A.envelopeAt(Node), B.envelopeAt(Node)))
        << "envelope differs at node " << Node;
  }
}

TEST(TransferCacheAnalysisTest, CacheDoesNotChangeResults) {
  // The transfer cache is purely memoizing: with it on or off, the
  // fixpoint is the same.
  for (const char *Source :
       {paper::ForProgram, paper::ForProgram1ToN, paper::WhileProgram,
        paper::FactProgram, paper::SelectProgram, paper::IntermittentProgram,
        paper::McCarthyProgram, paper::McCarthyBuggy,
        paper::BinarySearchProgram}) {
    SCOPED_TRACE(Source);
    auto Base = analyzeProgram(Source, withOptions().transferCache(false));
    auto Cached = reanalyze(Base, withOptions().transferCache(true));
    expectIdenticalStores(*Base.An, *Cached);
  }
}

TEST(TransferCacheAnalysisTest, CacheHitsAccumulateAcrossPhases) {
  // Later phases of the refinement chain revisit edges with stores
  // already seen by earlier phases, so a multi-phase analysis must
  // actually reuse cached transfers.
  auto A = analyzeProgram(paper::McCarthyProgram,
                          withOptions().transferCache(true));
  EXPECT_GT(A.An->stats().CacheHits, 0u);
  EXPECT_GT(A.An->stats().CacheMisses, 0u);
}

} // namespace
