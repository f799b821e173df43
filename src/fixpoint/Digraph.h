//===- fixpoint/Digraph.h - Simple directed graph ---------------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact, immutable digraph used as the dependency graph of equation
/// systems (nodes = equations, edge u -> v when v depends on u).
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_FIXPOINT_DIGRAPH_H
#define SYNTOX_FIXPOINT_DIGRAPH_H

#include <initializer_list>
#include <span>
#include <vector>

namespace syntox {

/// Successor and predecessor lists in one block, built once from an edge
/// list: node V's successors are the targets of V's edges in edge-list
/// order, and its predecessors the sources of the edges into V, likewise
/// in edge-list order (the WTO's DFS depends on the successor order).
class Digraph {
public:
  struct Edge {
    unsigned From;
    unsigned To;
  };

  /// The empty graph.
  Digraph() = default;
  /// \p NumNodes nodes and no edges.
  explicit Digraph(unsigned NumNodes)
      : Digraph(NumNodes, std::span<const Edge>()) {}
  /// \p NumNodes nodes and \p Edges (duplicates and self-loops kept).
  Digraph(unsigned NumNodes, std::span<const Edge> Edges);
  Digraph(unsigned NumNodes, std::initializer_list<Edge> Edges)
      : Digraph(NumNodes, std::span<const Edge>(Edges.begin(), Edges.size())) {
  }

  unsigned numNodes() const { return NumNodes; }
  unsigned numEdges() const { return NumEdges; }
  std::span<const unsigned> succs(unsigned Node) const {
    return range(SuccStart, Node);
  }
  std::span<const unsigned> preds(unsigned Node) const {
    return range(PredStart, Node);
  }

private:
  /// Node V's list is Data[Data[Start + V], Data[Start + V + 1]).
  std::span<const unsigned> range(unsigned Start, unsigned Node) const {
    const unsigned *D = Data.data();
    return {D + D[Start + Node], D + D[Start + Node + 1]};
  }

  unsigned NumNodes = 0;
  unsigned NumEdges = 0;
  /// Offsets of the two offset tables inside Data.
  unsigned SuccStart = 0, PredStart = 0;
  /// [successor offsets][predecessor offsets][successors][predecessors],
  /// the offsets absolute into Data.
  std::vector<unsigned> Data;
};

} // namespace syntox

#endif // SYNTOX_FIXPOINT_DIGRAPH_H
