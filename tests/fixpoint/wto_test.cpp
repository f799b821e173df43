//===- tests/fixpoint/wto_test.cpp - WTO unit and property tests ----------===//

#include "fixpoint/Wto.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

using namespace syntox;

namespace {

TEST(WtoTest, EmptyGraph) {
  Digraph G;
  Wto W(G, {});
  EXPECT_TRUE(W.elements().empty());
  EXPECT_EQ(W.str(), "");
}

TEST(WtoTest, StraightLine) {
  // 0 -> 1 -> 2 -> 3: plain topological order, no components.
  Digraph G(4);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 3);
  Wto W(G, {0});
  EXPECT_EQ(W.str(), "0 1 2 3");
  EXPECT_TRUE(W.wideningPoints().empty());
  EXPECT_LT(W.position(0), W.position(3));
}

TEST(WtoTest, SimpleLoop) {
  // 0 -> 1 -> 2 -> 1, 2 -> 3: component (1 2).
  Digraph G(4);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 1);
  G.addEdge(2, 3);
  Wto W(G, {0});
  EXPECT_EQ(W.str(), "0 (1 2) 3");
  EXPECT_TRUE(W.isHead(1));
  EXPECT_FALSE(W.isHead(2));
  EXPECT_EQ(W.depth(0), 0u);
  EXPECT_EQ(W.depth(1), 1u);
  EXPECT_EQ(W.depth(2), 1u);
  EXPECT_EQ(W.depth(3), 0u);
}

TEST(WtoTest, NestedLoops) {
  // 0 -> 1 -> 2 -> 3 -> 2 (inner), 3 -> 1 (outer), 3 -> 4.
  Digraph G(5);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 3);
  G.addEdge(3, 2);
  G.addEdge(3, 1);
  G.addEdge(3, 4);
  Wto W(G, {0});
  EXPECT_EQ(W.str(), "0 (1 (2 3)) 4");
  EXPECT_TRUE(W.isHead(1));
  EXPECT_TRUE(W.isHead(2));
  EXPECT_EQ(W.depth(3), 2u);
  EXPECT_EQ(W.wideningPoints(), (std::vector<unsigned>{1, 2}));
}

TEST(WtoTest, SelfLoop) {
  Digraph G(2);
  G.addEdge(0, 0);
  G.addEdge(0, 1);
  Wto W(G, {0});
  EXPECT_EQ(W.str(), "(0) 1");
  EXPECT_TRUE(W.isHead(0));
}

TEST(WtoTest, TwoIndependentLoops) {
  // (1 2) then (3 4), sequential.
  Digraph G(6);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 1);
  G.addEdge(2, 3);
  G.addEdge(3, 4);
  G.addEdge(4, 3);
  G.addEdge(4, 5);
  Wto W(G, {0});
  EXPECT_EQ(W.str(), "0 (1 2) (3 4) 5");
}

TEST(WtoTest, UnreachableVerticesAppear) {
  Digraph G(3);
  G.addEdge(0, 1);
  Wto W(G, {0});
  // Vertex 2 is unreachable but must still appear somewhere.
  std::set<unsigned> Seen;
  for (const WtoElement &E : W.elements())
    Seen.insert(E.Vertex);
  EXPECT_TRUE(Seen.count(2));
}

/// Checks the defining WTO property on random graphs: for every edge
/// u -> v with position(v) <= position(u) (a "back edge" in the weak
/// order), v must be the head of a component containing u. We verify the
/// practical consequence used by the solver: v is a widening point, so
/// every cycle is cut by a widening point.
TEST(WtoTest, EveryCycleIsCutByAWideningPoint) {
  Rng R(2024);
  for (int Trial = 0; Trial < 200; ++Trial) {
    unsigned N = 2 + R.below(15);
    Digraph G(N);
    unsigned NumEdges = R.below(3 * N);
    for (unsigned I = 0; I < NumEdges; ++I)
      G.addEdge(R.below(N), R.below(N));
    Wto W(G, {0});

    // Back edges must target widening points.
    for (unsigned U = 0; U < N; ++U)
      for (unsigned V : G.succs(U))
        if (W.position(V) <= W.position(U)) {
          EXPECT_TRUE(W.isHead(V))
              << "edge " << U << "->" << V << " in " << W.str();
        }

    // Removing widening points leaves an acyclic graph (DFS check).
    std::vector<int> Color(N, 0);
    std::vector<unsigned> Stack;
    auto IsCyclic = [&](auto &&Self, unsigned Node) -> bool {
      if (W.isHead(Node))
        return false; // cut vertex: do not traverse through
      Color[Node] = 1;
      for (unsigned Succ : G.succs(Node)) {
        if (W.isHead(Succ))
          continue;
        if (Color[Succ] == 1)
          return true;
        if (Color[Succ] == 0 && Self(Self, Succ))
          return true;
      }
      Color[Node] = 2;
      return false;
    };
    for (unsigned Node = 0; Node < N; ++Node)
      if (Color[Node] == 0 && !W.isHead(Node)) {
        EXPECT_FALSE(IsCyclic(IsCyclic, Node))
            << "cycle without widening point in " << W.str();
      }
  }
}

TEST(WtoTest, PositionsAreAPermutation) {
  Rng R(7);
  for (int Trial = 0; Trial < 50; ++Trial) {
    unsigned N = 1 + R.below(20);
    Digraph G(N);
    for (unsigned I = 0; I < 2 * N; ++I)
      G.addEdge(R.below(N), R.below(N));
    Wto W(G, {0});
    std::set<unsigned> Positions;
    for (unsigned Node = 0; Node < N; ++Node)
      Positions.insert(W.position(Node));
    EXPECT_EQ(Positions.size(), N);
    EXPECT_EQ(*Positions.rbegin(), N - 1);
  }
}

std::vector<unsigned> listOf(std::span<const unsigned> S) {
  return std::vector<unsigned>(S.begin(), S.end());
}

TEST(WtoTest, ElementTablesListMembersAndFeeders) {
  // 0 -> 1 -> 2 -> 1 (loop), 2 -> 3 and 0 -> 3: elements 0, (1 2), 3.
  // The loop's back edge 2 -> 1 is internal, so (1 2) has one feeder;
  // the doubled edge 0 -> 3 lists feeder 0 once.
  Digraph G(4);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 1);
  G.addEdge(2, 3);
  G.addEdge(0, 3);
  G.addEdge(0, 3);
  Wto W(G, {0});
  ASSERT_EQ(W.str(), "0 (1 2) 3");
  EXPECT_EQ(listOf(W.members(0)), (std::vector<unsigned>{0}));
  EXPECT_EQ(listOf(W.members(1)), (std::vector<unsigned>{1, 2}));
  EXPECT_EQ(listOf(W.members(2)), (std::vector<unsigned>{3}));
  EXPECT_TRUE(W.feeders(0).empty());
  EXPECT_EQ(listOf(W.feeders(1)), (std::vector<unsigned>{0}));
  EXPECT_EQ(listOf(W.feeders(2)), (std::vector<unsigned>{0, 2}));
}

TEST(WtoTest, ElementTablesAgreeWithTopElement) {
  // On random graphs: members(E) is exactly the vertices whose
  // topElement is E, ascending; feeders(E) is exactly the sorted set of
  // predecessors outside E, and each lies in an earlier element.
  Rng R(99);
  for (int Trial = 0; Trial < 100; ++Trial) {
    unsigned N = 1 + R.below(20);
    Digraph G(N);
    for (unsigned I = 0; I < 2 * N; ++I)
      G.addEdge(R.below(N), R.below(N));
    Wto W(G, {0});
    for (unsigned E = 0; E < W.elements().size(); ++E) {
      std::vector<unsigned> Members, Feeders;
      std::set<unsigned> Outside;
      for (unsigned V = 0; V < N; ++V)
        if (W.topElement(V) == E)
          Members.push_back(V);
      for (unsigned V : Members)
        for (unsigned U : G.preds(V))
          if (W.topElement(U) != E)
            Outside.insert(U);
      Feeders.assign(Outside.begin(), Outside.end());
      EXPECT_EQ(listOf(W.members(E)), Members) << W.str();
      EXPECT_EQ(listOf(W.feeders(E)), Feeders) << W.str();
      for (unsigned U : Feeders)
        EXPECT_LT(W.topElement(U), E) << W.str();
    }
  }
}

} // namespace
