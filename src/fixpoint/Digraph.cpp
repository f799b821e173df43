//===- fixpoint/Digraph.cpp - Simple directed graph -----------------------===//

#include "fixpoint/Digraph.h"

#include <cassert>

using namespace syntox;

Digraph::Digraph(unsigned NumNodes, std::span<const Edge> Edges)
    : NumNodes(NumNodes), NumEdges(static_cast<unsigned>(Edges.size())),
      SuccStart(0), PredStart(NumNodes + 1) {
  // A stable counting sort by source and by target: count each node's
  // edges, prefix-sum the counts to the end of each node's range, then
  // fill the ranges back to front from the last edge.
  unsigned Tables = 2 * (NumNodes + 1);
  Data.assign(Tables + 2 * static_cast<size_t>(NumEdges), 0);
  unsigned *D = Data.data();
  unsigned *SuccOff = D + SuccStart, *PredOff = D + PredStart;
  for (const Edge &E : Edges) {
    assert(E.From < NumNodes && E.To < NumNodes && "node out of range");
    ++SuccOff[E.From];
    ++PredOff[E.To];
  }
  unsigned SuccEnd = Tables, PredEnd = Tables + NumEdges;
  for (unsigned V = 0; V < NumNodes; ++V) {
    SuccEnd += SuccOff[V];
    SuccOff[V] = SuccEnd;
    PredEnd += PredOff[V];
    PredOff[V] = PredEnd;
  }
  SuccOff[NumNodes] = SuccEnd;
  PredOff[NumNodes] = PredEnd;
  for (size_t I = Edges.size(); I-- > 0;) {
    D[--SuccOff[Edges[I].From]] = Edges[I].To;
    D[--PredOff[Edges[I].To]] = Edges[I].From;
  }
}
