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

/// Bourdoncle's hierarchical decomposition, run on an explicit frame
/// stack: the textbook formulation recurses once per vertex along a DFS
/// path, which a long straight-line program or a chain of thousands of
/// loops turns into a native stack overflow. Each frame is one pending
/// call of the recursive algorithm, visit(V) or component(V), and
/// resumes at its next successor, so the output is the recursive one.
class WtoBuilder {
public:
  explicit WtoBuilder(const Digraph &Graph)
      : Graph(Graph), Dfn(Graph.numNodes(), 0) {}

  std::vector<WtoElement> run(const std::vector<unsigned> &Roots) {
    std::vector<WtoElement> Partition;
    for (unsigned Root : Roots)
      if (Dfn[Root] == 0)
        visitFrom(Root, Partition);
    // Vertices unreachable from the roots are decomposed too: they may
    // contain cycles that the solver still has to cut.
    for (unsigned V = 0; V < Graph.numNodes(); ++V)
      if (Dfn[V] == 0)
        visitFrom(V, Partition);
    std::reverse(Partition.begin(), Partition.end());
    return Partition;
  }

private:
  /// One pending call. A visit frame walks V's successors, keeping the
  /// smallest DFN reached (Head) and whether V closes a cycle (Loop).
  /// When a visit finds V heading a cycle, its frame turns into the
  /// component frame that decomposes the cycle's body (the recursive
  /// algorithm's makeComponent), still returning Head to its caller.
  struct Frame {
    unsigned V;
    unsigned Next = 0; ///< index of the next successor to look at
    unsigned Head = 0;
    bool Loop = false;
    bool Component = false;
  };

  /// Decomposes everything reachable from \p Root, appending finished
  /// elements to \p Partition in reverse (the caller reverses once).
  void visitFrom(unsigned Root, std::vector<WtoElement> &Partition) {
    // Elements go to the innermost open component body, or to
    // Partition when none is open: a frame finishes only after every
    // frame above it, so the innermost body is always its own.
    auto Target = [&]() -> std::vector<WtoElement> & {
      return Bodies.empty() ? Partition : Bodies.back();
    };
    enter(Root);
    while (!Frames.empty()) {
      Frame &F = Frames.back();
      const auto &Succs = Graph.succs(F.V);
      if (F.Component) {
        while (F.Next < Succs.size() && Dfn[Succs[F.Next]] != 0)
          ++F.Next;
        if (F.Next < Succs.size()) {
          enter(Succs[F.Next++]);
          continue;
        }
        std::vector<WtoElement> Body = std::move(Bodies.back());
        Bodies.pop_back();
        std::reverse(Body.begin(), Body.end());
        WtoElement E;
        E.Vertex = F.V;
        E.IsComponent = true;
        E.Body = std::move(Body);
        Target().push_back(std::move(E));
        finish();
        continue;
      }
      if (F.Next < Succs.size()) {
        unsigned W = Succs[F.Next++];
        if (Dfn[W] == 0)
          enter(W); // its Head comes back through finish()
        else
          reached(F, Dfn[W]);
        continue;
      }
      if (F.Head == Dfn[F.V]) {
        Dfn[F.V] = InfDfn;
        unsigned Element = Stack.back();
        Stack.pop_back();
        if (F.Loop) {
          while (Element != F.V) {
            Dfn[Element] = 0; // will be re-visited inside the component
            Element = Stack.back();
            Stack.pop_back();
          }
          F.Component = true;
          F.Next = 0;
          Bodies.emplace_back();
          continue;
        }
        WtoElement E;
        E.Vertex = F.V;
        Target().push_back(std::move(E));
      }
      finish();
    }
  }

  /// Opens visit(V).
  void enter(unsigned V) {
    Stack.push_back(V);
    Dfn[V] = ++Num;
    Frame F;
    F.V = V;
    F.Head = Dfn[V];
    Frames.push_back(F);
  }

  /// A successor of \p F's vertex reached DFN \p Min.
  static void reached(Frame &F, unsigned Min) {
    if (Min <= F.Head) {
      F.Head = Min;
      F.Loop = true;
    }
  }

  /// Pops the finished top frame and hands its Head to the caller (a
  /// component frame ignores what its body visits return).
  void finish() {
    unsigned Head = Frames.back().Head;
    Frames.pop_back();
    if (!Frames.empty() && !Frames.back().Component)
      reached(Frames.back(), Head);
  }

  const Digraph &Graph;
  std::vector<unsigned> Dfn;
  std::vector<unsigned> Stack;
  std::vector<Frame> Frames;
  /// Bodies of the component frames open on Frames, innermost last.
  std::vector<std::vector<WtoElement>> Bodies;
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
