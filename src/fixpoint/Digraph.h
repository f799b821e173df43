//===- fixpoint/Digraph.h - Simple directed graph ---------------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal adjacency-list digraph used as the dependency graph of
/// equation systems (nodes = equations, edge u -> v when v depends on u).
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_FIXPOINT_DIGRAPH_H
#define SYNTOX_FIXPOINT_DIGRAPH_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace syntox {

class Digraph {
public:
  Digraph() = default;
  explicit Digraph(unsigned NumNodes) { resize(NumNodes); }

  void resize(unsigned NumNodes) {
    Succs.resize(NumNodes);
    Preds.resize(NumNodes);
  }

  void addEdge(unsigned From, unsigned To) {
    assert(From < Succs.size() && To < Succs.size() && "node out of range");
    Succs[From].push_back(To);
    Preds[To].push_back(From);
  }

  unsigned numNodes() const { return static_cast<unsigned>(Succs.size()); }
  const std::vector<unsigned> &succs(unsigned Node) const {
    return Succs[Node];
  }
  const std::vector<unsigned> &preds(unsigned Node) const {
    return Preds[Node];
  }

private:
  std::vector<std::vector<unsigned>> Succs;
  std::vector<std::vector<unsigned>> Preds;
};

} // namespace syntox

#endif // SYNTOX_FIXPOINT_DIGRAPH_H
