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

#include <span>
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

/// The WTO of a digraph, with the per-element tables the solver's warm
/// starts and demand solves schedule by. An equation system's owner
/// builds it once and every solve of that system reuses it.
class Wto {
public:
  /// The empty order (of the empty graph).
  Wto() = default;

  /// Computes a WTO by Bourdoncle's hierarchical-decomposition algorithm
  /// (depth-first, Tarjan-style). Unreachable vertices (from \p Roots)
  /// are appended as plain vertices at the end.
  Wto(const Digraph &Graph, const std::vector<unsigned> &Roots);

  const std::vector<WtoElement> &elements() const { return Elements; }

  /// True when \p Vertex is the head of some component (a widening
  /// point).
  bool isHead(unsigned Vertex) const { return Head[Vertex]; }

  /// Position of \p Vertex in the linearized order.
  unsigned position(unsigned Vertex) const { return Position[Vertex]; }

  /// The nesting depth of each vertex (number of enclosing components);
  /// the paper's complexity bound is h * sum of depths.
  unsigned depth(unsigned Vertex) const { return Depth[Vertex]; }

  /// Index into elements() of the *top-level* element containing
  /// \p Vertex — the replay granule of warm starts and the scheduling
  /// granule of demand solves.
  unsigned topElement(unsigned Vertex) const { return TopElem[Vertex]; }

  /// The vertices of top-level element \p Elem, in increasing order.
  std::span<const unsigned> members(unsigned Elem) const {
    return slice(MemberStart, MemberList, Elem);
  }

  /// The external feeders of top-level element \p Elem: the vertices
  /// outside it with an edge into it, sorted and unique. They all lie in
  /// earlier top-level elements.
  std::span<const unsigned> feeders(unsigned Elem) const {
    return slice(FeederStart, FeederList, Elem);
  }

  /// All widening points (component heads), in order.
  std::vector<unsigned> wideningPoints() const;

  /// Renders e.g. "0 (1 2 (3 4) 5) 6" with components parenthesized.
  std::string str() const;

private:
  static std::span<const unsigned> slice(const std::vector<unsigned> &Start,
                                         const std::vector<unsigned> &List,
                                         unsigned Elem) {
    return {List.data() + Start[Elem], List.data() + Start[Elem + 1]};
  }

  std::vector<WtoElement> Elements;
  std::vector<bool> Head;
  std::vector<unsigned> Position;
  std::vector<unsigned> Depth;
  std::vector<unsigned> TopElem;
  /// members(E) is MemberList[MemberStart[E], MemberStart[E + 1]), and
  /// likewise for feeders.
  std::vector<unsigned> MemberStart, MemberList;
  std::vector<unsigned> FeederStart, FeederList;
};

} // namespace syntox

#endif // SYNTOX_FIXPOINT_WTO_H
