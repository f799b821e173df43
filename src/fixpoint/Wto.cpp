//===- fixpoint/Wto.cpp - Weak topological ordering -----------------------===//
//
// Implements the hierarchical-decomposition algorithm of Bourdoncle,
// "Efficient chaotic iteration strategies with widenings", FMPA 1993.
//
//===----------------------------------------------------------------------===//

#include "fixpoint/Wto.h"

#include <algorithm>
#include <limits>

using namespace syntox;

namespace {

constexpr unsigned InfDfn = std::numeric_limits<unsigned>::max();

class WtoBuilder {
public:
  explicit WtoBuilder(const Digraph &Graph)
      : Graph(Graph), Dfn(Graph.numNodes(), 0) {}

  std::vector<WtoElement> run(const std::vector<unsigned> &Roots) {
    std::vector<WtoElement> Partition;
    for (unsigned Root : Roots)
      if (Dfn[Root] == 0)
        visit(Root, Partition);
    // Vertices unreachable from the roots are decomposed too: they may
    // contain cycles that the solver still has to cut.
    for (unsigned V = 0; V < Graph.numNodes(); ++V)
      if (Dfn[V] == 0)
        visit(V, Partition);
    std::reverse(Partition.begin(), Partition.end());
    return Partition;
  }

private:
  /// Returns the head DFN of the strongly-connected region containing
  /// \p V; prepends finished elements to \p Partition (in reverse; the
  /// caller reverses once).
  unsigned visit(unsigned V, std::vector<WtoElement> &Partition) {
    Stack.push_back(V);
    Dfn[V] = ++Num;
    unsigned Head = Dfn[V];
    bool Loop = false;
    for (unsigned W : Graph.succs(V)) {
      unsigned Min = Dfn[W] == 0 ? visit(W, Partition) : Dfn[W];
      if (Min <= Head) {
        Head = Min;
        Loop = true;
      }
    }
    if (Head == Dfn[V]) {
      Dfn[V] = InfDfn;
      unsigned Element = Stack.back();
      Stack.pop_back();
      if (Loop) {
        while (Element != V) {
          Dfn[Element] = 0; // will be re-visited inside the component
          Element = Stack.back();
          Stack.pop_back();
        }
        Partition.push_back(makeComponent(V));
      } else {
        WtoElement E;
        E.Vertex = V;
        Partition.push_back(E);
      }
    }
    return Head;
  }

  WtoElement makeComponent(unsigned Head) {
    std::vector<WtoElement> Body;
    for (unsigned W : Graph.succs(Head))
      if (Dfn[W] == 0)
        visit(W, Body);
    std::reverse(Body.begin(), Body.end());
    WtoElement E;
    E.Vertex = Head;
    E.IsComponent = true;
    E.Body = std::move(Body);
    return E;
  }

  const Digraph &Graph;
  std::vector<unsigned> Dfn;
  std::vector<unsigned> Stack;
  unsigned Num = 0;
};

void annotate(const std::vector<WtoElement> &Elements, unsigned Depth,
              std::vector<bool> &Head, std::vector<unsigned> &Position,
              std::vector<unsigned> &DepthOf, unsigned &Pos) {
  for (const WtoElement &E : Elements) {
    Position[E.Vertex] = Pos++;
    DepthOf[E.Vertex] = Depth + (E.IsComponent ? 1 : 0);
    if (E.IsComponent) {
      Head[E.Vertex] = true;
      annotate(E.Body, Depth + 1, Head, Position, DepthOf, Pos);
    }
  }
}

void render(const std::vector<WtoElement> &Elements, std::string &Out) {
  bool First = true;
  for (const WtoElement &E : Elements) {
    if (!First)
      Out += ' ';
    First = false;
    if (E.IsComponent) {
      Out += '(';
      Out += std::to_string(E.Vertex);
      if (!E.Body.empty()) {
        Out += ' ';
        render(E.Body, Out);
      }
      Out += ')';
    } else {
      Out += std::to_string(E.Vertex);
    }
  }
}

void markTopElement(const WtoElement &E, unsigned Idx,
                    std::vector<unsigned> &TopElem) {
  TopElem[E.Vertex] = Idx;
  for (const WtoElement &Sub : E.Body)
    markTopElement(Sub, Idx, TopElem);
}

void collectHeads(const std::vector<WtoElement> &Elements,
                  std::vector<unsigned> &Out) {
  for (const WtoElement &E : Elements)
    if (E.IsComponent) {
      Out.push_back(E.Vertex);
      collectHeads(E.Body, Out);
    }
}

} // namespace

Wto::Wto(const Digraph &Graph, const std::vector<unsigned> &Roots) {
  WtoBuilder Builder(Graph);
  Elements = Builder.run(Roots);
  Head.assign(Graph.numNodes(), false);
  Position.assign(Graph.numNodes(), 0);
  Depth.assign(Graph.numNodes(), 0);
  unsigned Pos = 0;
  annotate(Elements, 0, Head, Position, Depth, Pos);
  TopElem.assign(Graph.numNodes(), 0);
  for (unsigned I = 0; I < Elements.size(); ++I)
    markTopElement(Elements[I], I, TopElem);

  unsigned NumElems = static_cast<unsigned>(Elements.size());
  MemberStart.assign(NumElems + 1, 0);
  for (unsigned V = 0; V < Graph.numNodes(); ++V)
    ++MemberStart[TopElem[V] + 1];
  for (unsigned E = 0; E < NumElems; ++E)
    MemberStart[E + 1] += MemberStart[E];
  MemberList.resize(Graph.numNodes());
  std::vector<unsigned> Next(MemberStart.begin(), MemberStart.end() - 1);
  for (unsigned V = 0; V < Graph.numNodes(); ++V)
    MemberList[Next[TopElem[V]]++] = V;

  PredStart.reserve(Graph.numNodes() + 1);
  PredStart.push_back(0);
  for (unsigned V = 0; V < Graph.numNodes(); ++V) {
    size_t First = PredList.size();
    PredList.insert(PredList.end(), Graph.preds(V).begin(),
                    Graph.preds(V).end());
    std::sort(PredList.begin() + First, PredList.end());
    PredList.erase(std::unique(PredList.begin() + First, PredList.end()),
                   PredList.end());
    PredStart.push_back(static_cast<unsigned>(PredList.size()));
  }

  FeederStart.reserve(NumElems + 1);
  FeederStart.push_back(0);
  for (unsigned E = 0; E < NumElems; ++E) {
    size_t First = FeederList.size();
    for (unsigned V : members(E))
      for (unsigned U : preds(V))
        if (TopElem[U] != E)
          FeederList.push_back(U);
    std::sort(FeederList.begin() + First, FeederList.end());
    FeederList.erase(std::unique(FeederList.begin() + First, FeederList.end()),
                     FeederList.end());
    FeederStart.push_back(static_cast<unsigned>(FeederList.size()));
  }
}

std::vector<unsigned> Wto::wideningPoints() const {
  std::vector<unsigned> Out;
  collectHeads(Elements, Out);
  return Out;
}

std::string Wto::str() const {
  std::string Out;
  render(Elements, Out);
  return Out;
}
