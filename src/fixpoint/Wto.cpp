//===- fixpoint/Wto.cpp - Weak topological ordering -----------------------===//
//
// Builds the WTO of Bourdoncle, "Efficient chaotic iteration strategies
// with widenings" (FMPA 1993), in almost-linear time from a loop-nesting
// forest, after Kim, Venet and Thakur (POPL 2020), who derive Bourdoncle's
// order from Havlak's loop-nesting forest with Ramalingam's handling of
// irreducible loop entries.
//
// Why the forest gives Bourdoncle's trees. His recursive decomposition is
// Tarjan's SCC search; it turns each non-trivial SCC (or self-loop) into a
// component headed by the SCC's first-visited vertex, and decomposes the
// rest of the SCC again with a search that visits it in the same order as
// the first one did. So every level uses the one DFS tree, and:
//   - the component headed by h holds exactly the vertices of h's DFS
//     subtree that reach h without leaving that subtree (Havlak's loop of
//     h), and h heads one iff an edge enters h from its own subtree (a
//     back edge or a self-loop);
//   - each body, and the top level, lists its elements in decreasing DFS
//     post-order (the order in which Tarjan's search completes them,
//     reversed).
//
//===----------------------------------------------------------------------===//

#include "fixpoint/Wto.h"

#include <algorithm>
#include <cassert>
#include <memory>

using namespace syntox;

namespace {

constexpr unsigned None = ~0u;

/// Union-find root with path halving.
unsigned findRoot(unsigned *Link, unsigned V) {
  while (Link[V] != V) {
    Link[V] = Link[Link[V]];
    V = Link[V];
  }
  return V;
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

} // namespace

Wto::Wto(const Digraph &Graph, const std::vector<unsigned> &Roots) {
  const unsigned N = Graph.numNodes();
  // Per-vertex scratch, in one block.
  auto Scratch =
      std::make_unique_for_overwrite<unsigned[]>(12 * static_cast<size_t>(N) + 1);
  unsigned *Pre = Scratch.get();    // 1-based DFS preorder number
  unsigned *Last = Pre + N;         // largest preorder in the subtree;
                                    // 0 while the vertex is on the path
  unsigned *Parent = Last + N;      // DFS tree parent, or None
  unsigned *ByPre = Parent + N;     // ByPre[p - 1]: preorder p's vertex
  unsigned *PostOrder = ByPre + N;  // vertices in DFS post-order
  unsigned *Link = PostOrder + N;   // union-find: DFS ancestors, then loops
  unsigned *Header = Link + N;      // innermost enclosing loop head
  unsigned *Mark = Header + N;      // loop being collected that holds it
  unsigned *Pending = Mark + N;     // cross/forward edges, by LCA
  unsigned *Rehomed = Pending + N;  // the same edges, by loop target
  unsigned *IsHead = Rehomed + N;   // 1 when the vertex heads a loop
  unsigned *Next = IsHead + N;      // FirstChild[V] (N + 1 entries)

  //===------------------------------------------------------------------===//
  // 1. One DFS: preorder, post-order and the tree; cross and forward edges
  //    filed under the lowest common ancestor of their endpoints.
  //===------------------------------------------------------------------===//
  //
  // A cross or forward edge V -> W (W already finished) can only lie in a
  // loop whose head is a common ancestor of V and W. Filing it under
  // their lowest common ancestor, and handing it to W's loop
  // representative only when the loop forest reaches that ancestor,
  // keeps an irreducible entry from being copied into every loop it
  // crosses (Ramalingam). The LCA is the nearest ancestor of W still on
  // the DFS path: a finished vertex links to its tree parent, a vertex on
  // the path to itself.
  struct CrossEdge {
    unsigned From, To, Next;
  };
  std::vector<CrossEdge> Cross;
  Cross.reserve(Graph.numEdges());
  struct Frame {
    unsigned V;
    const unsigned *Next, *End; ///< the successors still to look at
  };
  std::vector<Frame> Stack;
  Stack.reserve(N);
  std::fill(Pre, Pre + 2 * static_cast<size_t>(N), 0); // Pre and Last
  std::fill(Parent, Parent + N, None);
  std::fill(Pending, Pending + N, None);
  unsigned PreNum = 0, PostNum = 0;
  auto Enter = [&](unsigned V) {
    Pre[V] = ++PreNum;
    ByPre[PreNum - 1] = V;
    Link[V] = V;
    std::span<const unsigned> Succs = Graph.succs(V);
    Stack.push_back({V, Succs.data(), Succs.data() + Succs.size()});
  };
  auto Search = [&](unsigned Root) {
    if (Pre[Root] != 0)
      return;
    Enter(Root);
    while (!Stack.empty()) {
      Frame &F = Stack.back();
      if (F.Next == F.End) {
        unsigned V = F.V;
        Last[V] = PreNum;
        PostOrder[PostNum++] = V;
        Link[V] = Parent[V] == None ? V : Parent[V];
        Stack.pop_back();
        continue;
      }
      unsigned V = F.V, W = *F.Next++;
      if (Pre[W] == 0) {
        Parent[W] = V;
        Enter(W);
      } else if (Last[W] != 0) {
        // Finished: a cross or forward edge. Its LCA is on the path
        // unless W lies in an earlier DFS tree, where no loop can hold
        // the edge.
        unsigned L = findRoot(Link, W);
        if (Last[L] == 0) {
          Cross.push_back({V, W, Pending[L]});
          Pending[L] = static_cast<unsigned>(Cross.size() - 1);
        }
      }
      // An edge to a vertex on the path is a back edge; the loop forest
      // finds those among the head's predecessors.
    }
  };
  for (unsigned Root : Roots)
    Search(Root);
  for (unsigned V = 0; V < N; ++V)
    Search(V);
  assert(PreNum == N && PostNum == N);

  //===------------------------------------------------------------------===//
  // 2. Havlak's loop-nesting forest, heads in decreasing preorder
  //===------------------------------------------------------------------===//
  //
  // Each loop found so far is collapsed onto its head (union-find). The
  // loop of H is walked backward from the sources of H's back edges over
  // the representatives' tree parents and re-homed cross/forward edges.
  std::vector<unsigned> Work;
  Work.reserve(N);
  for (unsigned V = 0; V < N; ++V) {
    Link[V] = V;
    Header[V] = None;
    Mark[V] = None;
    Rehomed[V] = None;
    IsHead[V] = 0;
  }
  for (unsigned P = N; P-- > 0;) {
    unsigned H = ByPre[P];
    for (unsigned E = Pending[H]; E != None;) {
      CrossEdge &C = Cross[E];
      unsigned NextE = C.Next;
      unsigned Rep = findRoot(Link, C.To);
      C.Next = Rehomed[Rep];
      Rehomed[Rep] = E;
      E = NextE;
    }
    auto Collect = [&](unsigned U) {
      unsigned Rep = findRoot(Link, U);
      if (Rep != H && Mark[Rep] != H) {
        Mark[Rep] = H;
        Work.push_back(Rep);
      }
    };
    for (unsigned U : Graph.preds(H))
      if (Pre[U] >= Pre[H] && Pre[U] <= Last[H]) { // from H's subtree
        IsHead[H] = 1;
        Collect(U);
      }
    for (size_t I = 0; I < Work.size(); ++I) {
      unsigned X = Work[I];
      Collect(Parent[X]);
      for (unsigned E = Rehomed[X]; E != None; E = Cross[E].Next)
        Collect(Cross[E].From);
    }
    for (unsigned X : Work) {
      Header[X] = H;
      Link[X] = H;
    }
    Work.clear();
  }

  //===------------------------------------------------------------------===//
  // 3. The element trees and the per-vertex and per-component tables
  //===------------------------------------------------------------------===//
  //
  // Children lists in decreasing post-order (prepended in increasing
  // post-order); vertex N stands for the top level.
  unsigned *FirstChild = Next;     // N + 1 entries
  unsigned *NextSibling = Mark;    // Mark is free again
  std::fill(FirstChild, FirstChild + N + 1, None);
  for (unsigned I = 0; I < N; ++I) {
    unsigned V = PostOrder[I];
    unsigned Up = Header[V] == None ? N : Header[V];
    NextSibling[V] = FirstChild[Up];
    FirstChild[Up] = V;
  }

  // A preorder walk numbers positions, components and top-level elements.
  Vertices.resize(N);
  Components.reserve(std::count(IsHead, IsHead + N, 1u));
  unsigned *Open = Pending; // heads of the open components, innermost last
  unsigned *CompParent = Rehomed;
  unsigned NumOpen = 0, Pos = 0, NumTop = 0;
  for (unsigned V = FirstChild[N];;) {
    if (V == None) {
      if (NumOpen == 0)
        break;
      unsigned H = Open[--NumOpen];
      ComponentInfo &C = Components[Vertices[H].Comp];
      C.End = static_cast<unsigned>(Components.size());
      C.Size = Pos - Vertices[H].Position;
      V = NextSibling[H];
      continue;
    }
    VertexInfo &Info = Vertices[V];
    Info.Position = Pos++;
    Info.Depth = NumOpen;
    Info.TopElem = NumOpen == 0 ? NumTop++ : Vertices[Open[0]].TopElem;
    Info.Comp = NoComponent;
    if (!IsHead[V]) {
      V = NextSibling[V];
      continue;
    }
    Info.Comp = static_cast<unsigned>(Components.size());
    CompParent[Info.Comp] =
        NumOpen == 0 ? None : Vertices[Open[NumOpen - 1]].Comp;
    Components.push_back({V, 0, 0});
    ++Info.Depth;
    Open[NumOpen++] = V;
    V = FirstChild[V];
  }
  unsigned NumComps = numComponents();

  // Element trees, innermost components first.
  auto BuildBody = [&](unsigned Up, std::vector<WtoElement> &Body,
                       std::vector<WtoElement> &Built) {
    size_t Count = 0;
    for (unsigned V = FirstChild[Up]; V != None; V = NextSibling[V])
      ++Count;
    Body.reserve(Count);
    for (unsigned V = FirstChild[Up]; V != None; V = NextSibling[V]) {
      if (IsHead[V])
        Body.push_back(std::move(Built[Vertices[V].Comp]));
      else
        Body.push_back({V, false, {}});
    }
  };
  std::vector<WtoElement> Built(NumComps);
  for (unsigned C = NumComps; C-- > 0;) {
    Built[C].Vertex = Components[C].Head;
    Built[C].IsComponent = true;
    BuildBody(Components[C].Head, Built[C].Body, Built);
  }
  BuildBody(N, Elements, Built);

  // Members of each top-level element, in increasing vertex order.
  MemberStart.assign(NumTop + 1, 0);
  for (unsigned V = 0; V < N; ++V)
    ++MemberStart[Vertices[V].TopElem + 1];
  for (unsigned E = 0; E < NumTop; ++E)
    MemberStart[E + 1] += MemberStart[E];
  MemberList.resize(N);
  unsigned *MemberFill = Pre; // Pre is free again
  std::copy(MemberStart.begin(), MemberStart.end() - 1, MemberFill);
  for (unsigned V = 0; V < N; ++V)
    MemberList[MemberFill[Vertices[V].TopElem]++] = V;

  // Predecessors of each vertex, sorted and unique, and the external
  // inputs of each component: an edge U -> V is an input of every
  // component that holds V but not U, from V's innermost component
  // outward. Both tables are filled by sources in increasing order, so
  // each list comes out sorted; a per-list mark of the last source
  // entered drops duplicates, and ends a walk outward at a component the
  // same source already entered (it entered every one above it too).
  // Each table is counted, then filled.
  auto Holds = [&](unsigned C, unsigned U) {
    return Vertices[U].Position - Vertices[Components[C].Head].Position <
           Components[C].Size;
  };
  unsigned *Innermost = ByPre; // free again
  for (unsigned V = 0; V < N; ++V)
    Innermost[V] = Vertices[V].Comp != NoComponent ? Vertices[V].Comp
                   : Header[V] == None             ? None
                                                   : Vertices[Header[V]].Comp;
  unsigned *LastPred = Link, *LastInput = Parent; // both free again
  auto ForEachEdge = [&](auto AddPred, auto AddInput) {
    std::fill(LastPred, LastPred + N, None);
    std::fill(LastInput, LastInput + NumComps, None);
    for (unsigned U = 0; U < N; ++U)
      for (unsigned V : Graph.succs(U)) {
        if (LastPred[V] != U) {
          LastPred[V] = U;
          AddPred(V, U);
        }
        for (unsigned C = Innermost[V];
             C != None && LastInput[C] != U && !Holds(C, U);
             C = CompParent[C]) {
          LastInput[C] = U;
          AddInput(C, U);
        }
      }
  };
  PredStart.assign(N + 1, 0);
  InputStart.assign(NumComps + 1, 0);
  ForEachEdge([&](unsigned V, unsigned) { ++PredStart[V + 1]; },
              [&](unsigned C, unsigned) { ++InputStart[C + 1]; });
  for (unsigned V = 0; V < N; ++V)
    PredStart[V + 1] += PredStart[V];
  for (unsigned C = 0; C < NumComps; ++C)
    InputStart[C + 1] += InputStart[C];
  PredList.resize(PredStart[N]);
  InputList.resize(InputStart[NumComps]);
  unsigned *PredFill = Pre, *InputFill = Last; // both free again
  std::copy(PredStart.begin(), PredStart.end() - 1, PredFill);
  std::copy(InputStart.begin(), InputStart.end() - 1, InputFill);
  ForEachEdge([&](unsigned V, unsigned U) { PredList[PredFill[V]++] = U; },
              [&](unsigned C, unsigned U) { InputList[InputFill[C]++] = U; });
}

std::vector<unsigned> Wto::wideningPoints() const {
  std::vector<unsigned> Out;
  Out.reserve(Components.size());
  for (const ComponentInfo &C : Components)
    Out.push_back(C.Head);
  return Out;
}

std::string Wto::str() const {
  std::string Out;
  render(Elements, Out);
  return Out;
}
