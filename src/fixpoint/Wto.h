//===- fixpoint/Wto.h - Weak topological ordering ---------------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bourdoncle's weak topological ordering (WTO) of a directed graph — the
/// hierarchical decomposition of paper §6.3 and the companion FMPA'93
/// paper "Efficient chaotic iteration strategies with widenings". A WTO
/// is a well-parenthesized total order of the vertices such that every
/// cycle of the graph is "cut" by the head of one of its components;
/// those heads form an admissible set of widening points, and the nested
/// structure drives the recursive iteration strategy.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_FIXPOINT_WTO_H
#define SYNTOX_FIXPOINT_WTO_H

#include "fixpoint/Digraph.h"

#include <string>
#include <vector>

namespace syntox {

/// One element of a WTO: a plain vertex, or a component `(head body...)`
/// whose body is itself a WTO.
struct WtoElement {
  unsigned Vertex = 0;           ///< the vertex, or the component head
  bool IsComponent = false;      ///< true when Body is a component body
  std::vector<WtoElement> Body;  ///< nested elements (components only)
};

/// The WTO of a digraph.
class Wto {
public:
  /// Computes a WTO by Bourdoncle's hierarchical-decomposition algorithm
  /// (depth-first, Tarjan-style). Unreachable vertices (from \p Roots)
  /// are appended as plain vertices at the end.
  Wto(const Digraph &Graph, const std::vector<unsigned> &Roots);

  const std::vector<WtoElement> &elements() const { return Elements; }

  /// True when \p Vertex is the head of some component (a widening
  /// point).
  bool isHead(unsigned Vertex) const { return Head[Vertex]; }

  /// Position of \p Vertex in the linearized order (for worklist
  /// prioritization).
  unsigned position(unsigned Vertex) const { return Position[Vertex]; }

  /// The nesting depth of each vertex (number of enclosing components);
  /// the paper's complexity bound is h * sum of depths.
  unsigned depth(unsigned Vertex) const { return Depth[Vertex]; }

  /// Index into elements() of the *top-level* element containing
  /// \p Vertex — the replay granule of warm starts and the scheduling
  /// granule of demand solves.
  unsigned topElement(unsigned Vertex) const { return TopElem[Vertex]; }

  /// All widening points (component heads), in order.
  std::vector<unsigned> wideningPoints() const;

  /// Renders e.g. "0 (1 2 (3 4) 5) 6" with components parenthesized.
  std::string str() const;

private:
  std::vector<WtoElement> Elements;
  std::vector<bool> Head;
  std::vector<unsigned> Position;
  std::vector<unsigned> Depth;
  std::vector<unsigned> TopElem;
};

} // namespace syntox

#endif // SYNTOX_FIXPOINT_WTO_H
