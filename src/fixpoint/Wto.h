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
/// starts and demand solves schedule by, the per-component tables its
/// whole-component skips read, and the per-vertex predecessor table its
/// vertex skips read. An equation system's owner builds it once and
/// every solve of that system reuses it.
class Wto {
public:
  static constexpr unsigned NoComponent = ~0u;

  /// The empty order (of the empty graph).
  Wto() = default;

  /// Computes Bourdoncle's WTO (his recursive hierarchical
  /// decomposition's element trees, exactly) from one depth-first search
  /// and its loop-nesting forest. The search starts at \p Roots in order,
  /// then at every vertex it has not reached, in index order: unreachable
  /// vertices are decomposed too.
  Wto(const Digraph &Graph, const std::vector<unsigned> &Roots);

  const std::vector<WtoElement> &elements() const { return Elements; }

  /// True when \p Vertex is the head of some component (a widening
  /// point).
  bool isHead(unsigned Vertex) const {
    return Vertices[Vertex].Comp != NoComponent;
  }

  /// Position of \p Vertex in the linearized order.
  unsigned position(unsigned Vertex) const {
    return Vertices[Vertex].Position;
  }

  /// The nesting depth of each vertex (number of enclosing components);
  /// the paper's complexity bound is h * sum of depths.
  unsigned depth(unsigned Vertex) const { return Vertices[Vertex].Depth; }

  /// Index into elements() of the *top-level* element containing
  /// \p Vertex — the replay granule of warm starts and the scheduling
  /// granule of demand solves.
  unsigned topElement(unsigned Vertex) const {
    return Vertices[Vertex].TopElem;
  }

  /// The vertices of top-level element \p Elem, in increasing order.
  std::span<const unsigned> members(unsigned Elem) const {
    return slice(MemberStart, MemberList, Elem);
  }

  /// The external feeders of top-level element \p Elem: the vertices
  /// outside it with an edge into it, sorted and unique. They all lie in
  /// earlier top-level elements.
  std::span<const unsigned> feeders(unsigned Elem) const {
    const WtoElement &E = Elements[Elem];
    return E.IsComponent ? componentInputs(component(E.Vertex))
                         : preds(E.Vertex);
  }

  /// The graph predecessors of \p Vertex, sorted and unique: the values
  /// its equation reads. The solver skips a plain vertex whose
  /// predecessors all kept their values since its last evaluation.
  std::span<const unsigned> preds(unsigned Vertex) const {
    return slice(PredStart, PredList, Vertex);
  }

  /// \name Components
  /// Components are numbered in WTO order of their heads (the order of
  /// wideningPoints()), so the components nested in component C are
  /// exactly C + 1 .. componentEnd(C) - 1.
  /// @{
  unsigned numComponents() const {
    return static_cast<unsigned>(Components.size());
  }
  /// The component \p Head heads, or NoComponent for a plain vertex.
  unsigned component(unsigned Head) const { return Vertices[Head].Comp; }
  /// One past the last component nested in \p C; componentEnd(C) - C is
  /// the number of heads in C, its own included.
  unsigned componentEnd(unsigned C) const { return Components[C].End; }
  /// The vertices of \p C, head and nested members included.
  unsigned componentSize(unsigned C) const { return Components[C].Size; }
  /// The external inputs of \p C: the vertices outside it with an edge
  /// into one of its members, sorted and unique. They all precede C's
  /// head in the linearized order.
  std::span<const unsigned> componentInputs(unsigned C) const {
    return slice(InputStart, InputList, C);
  }
  /// @}

  /// All widening points (component heads), in order.
  std::vector<unsigned> wideningPoints() const;

  /// Renders e.g. "0 (1 2 (3 4) 5) 6" with components parenthesized.
  std::string str() const;

private:
  static std::span<const unsigned> slice(const std::vector<unsigned> &Start,
                                         const std::vector<unsigned> &List,
                                         unsigned I) {
    return {List.data() + Start[I], List.data() + Start[I + 1]};
  }

  struct VertexInfo {
    unsigned Comp;     ///< the component the vertex heads, or NoComponent
    unsigned Position;
    unsigned Depth;
    unsigned TopElem;
  };
  struct ComponentInfo {
    unsigned Head;
    unsigned End;
    unsigned Size;
  };

  std::vector<WtoElement> Elements;
  std::vector<VertexInfo> Vertices;
  std::vector<ComponentInfo> Components;
  /// members(E) is MemberList[MemberStart[E], MemberStart[E + 1]), and
  /// likewise for preds (per vertex) and inputs (per component).
  std::vector<unsigned> MemberStart, MemberList;
  std::vector<unsigned> PredStart, PredList;
  std::vector<unsigned> InputStart, InputList;
};

} // namespace syntox

#endif // SYNTOX_FIXPOINT_WTO_H
