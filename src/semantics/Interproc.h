//===- semantics/Interproc.h - Token-based call-graph unfolding -*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interprocedural structure of the analyses, following the paper's
/// copy-in/copy-out semantics (§5) with call-graph unfolding by *tokens*
/// (§6.4): each procedure activation class is keyed by its static call
/// site and the exact alias partition of its reference parameters. Every
/// (routine, token) pair — an *instance* — gets its own copy of the
/// routine's control points, and the instances are linked by copy-in,
/// copy-out and non-local-jump (channel) edges into one global
/// *supergraph* whose forward equation system is solved directly; the
/// backward systems are its inversion.
///
/// Aliasing is exact: a `var` formal is redirected to its *root* location
/// (the origin variable after resolving chains of reference passing), so
/// two formals bound to the same variable share one store slot and every
/// scalar assignment stays a strong update — the key point of §5.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_SEMANTICS_INTERPROC_H
#define SYNTOX_SEMANTICS_INTERPROC_H

#include "cfg/Cfg.h"
#include "fixpoint/Digraph.h"
#include "semantics/StableIds.h"
#include "semantics/Transfer.h"
#include "support/Telemetry.h"

#include <array>
#include <map>
#include <memory>
#include <vector>

namespace syntox {

/// An activation-class key: the static call site plus the roots of the
/// reference formals (in parameter order). CallSiteId 0 is the program.
struct ActivationToken {
  const RoutineDecl *Routine = nullptr;
  /// 0 when call sites are merged (context-insensitive mode).
  unsigned CallSiteId = 0;
  std::vector<const VarDecl *> Roots;

  bool operator<(const ActivationToken &Other) const {
    if (Routine != Other.Routine)
      return Routine < Other.Routine;
    if (CallSiteId != Other.CallSiteId)
      return CallSiteId < Other.CallSiteId;
    return Roots < Other.Roots;
  }
  bool operator==(const ActivationToken &Other) const = default;
};

/// One unfolded activation class of a routine.
struct Instance {
  unsigned Id = 0;
  RoutineDecl *R = nullptr;
  const RoutineCfg *Cfg = nullptr;
  ActivationToken Tok;
  unsigned FirstNode = 0; ///< supergraph node of this instance's point 0
  FrameMap Frame;         ///< var formals -> roots
  /// Locations copied in and out across this instance's boundary: the
  /// variables of every proper ancestor routine plus the roots of the
  /// reference formals.
  std::vector<const VarDecl *> SharedKeys;
  /// The SharedKeys subset the forward copy-in/copy-out actually loops:
  /// defaults to all of SharedKeys, narrowed by the Analyzer to the
  /// transitively accessed set when dead-slot pruning is on (see
  /// semantics/Liveness.h). The backward duals always loop the full
  /// SharedKeys — requirements on untouched ancestor variables still
  /// flow through calls unchanged.
  std::vector<const VarDecl *> AccessedKeys;
};

/// One call relationship between instances.
struct CallLink {
  unsigned CallerInstance = 0;
  unsigned CalleeInstance = 0;
  const CallExpr *Call = nullptr;
  const VarDecl *ResultTemp = nullptr; ///< null for procedures
  unsigned NodeP = 0; ///< supergraph node before the call
  unsigned NodeQ = 0; ///< supergraph node after the call
};

/// A supergraph edge.
struct SuperEdge {
  enum class Kind {
    Local,      ///< intra-instance action edge
    CallIn,     ///< NodeP -> callee entry (copy-in)
    CallOut,    ///< callee exit -> NodeQ (copy-out, combined with NodeP)
    ChannelOut, ///< callee channel exit -> caller landing point
  };
  Kind K = Kind::Local;
  unsigned From = 0;
  unsigned To = 0;
  const Action *Act = nullptr; ///< Local only
  unsigned Link = 0;           ///< CallIn/CallOut/ChannelOut: CallLink index
};

/// The dense variable numbering backing the flat store representation:
/// a one-time pass over the program's routines (in declaration order,
/// program first) that assigns every owned variable — parameters, the
/// result variable, locals, and compiler temporaries — a globally
/// unique, per-routine *contiguous* store slot via
/// VarDecl::setStoreSlot(). Contiguity keeps each routine's slots
/// clustered so stores touch a compact slot range, and the walk order
/// makes the numbering deterministic and idempotent: re-running it on
/// the same AST reassigns identical slots, so stores from repeated
/// analyses of one AST stay comparable.
class VarNumbering {
public:
  explicit VarNumbering(const ProgramCfg &Cfg);

  /// Total slots assigned (== number of owned variables program-wide).
  unsigned numSlots() const { return NumSlots; }

  /// First slot / slot count of a routine's variables.
  struct Range {
    unsigned First = 0;
    unsigned Count = 0;
  };
  Range rangeOf(const RoutineDecl *R) const {
    auto It = Ranges.find(R);
    return It == Ranges.end() ? Range{} : It->second;
  }

private:
  unsigned NumSlots = 0;
  std::map<const RoutineDecl *, Range> Ranges;
};

/// Single-slot memo for one interprocedural edge transfer: the inputs
/// last seen and the result they produced. The transfers are pure
/// functions of their input stores, so a verified input match makes the
/// recorded output exact — and returning the recorded store preserves
/// its payload identity, which keeps downstream delta-aware joins and
/// equality checks O(1) across refinement rounds.
struct LinkTransferMemo {
  bool Valid = false;
  AbstractStore In1, In2, Out;
};

/// The fully unfolded program: instances, links, edges, and the
/// interprocedural transfer functions.
class SuperGraph {
public:
  /// \p ContextInsensitive merges every call site of a routine into one
  /// activation class (tokens keep only the alias partition).
  /// \p Telem optionally records a token_unfold event per created
  /// instance and counts interproc.instances.
  SuperGraph(const ProgramCfg &Cfg, RoutineDecl *Program,
             const StoreOps &Ops, const ExprSemantics &Exprs,
             const Transfer &Xfer, bool ContextInsensitive = false,
             Telemetry Telem = {});

  unsigned numNodes() const { return NumNodes; }
  const std::vector<Instance> &instances() const { return Instances; }
  const std::vector<CallLink> &links() const { return Links; }
  const std::vector<SuperEdge> &edges() const { return Edges; }

  unsigned mainEntry() const;
  unsigned mainExit() const;

  /// Supergraph node for \p Point of \p Inst.
  unsigned node(const Instance &Inst, unsigned Point) const {
    return Inst.FirstNode + Point;
  }
  /// Inverse mapping: instance and point of a node.
  const Instance &instanceOf(unsigned Node) const;
  unsigned pointOf(unsigned Node) const;

  /// Edges entering / leaving each node, as indices into edges().
  const std::vector<unsigned> &inEdges(unsigned Node) const {
    return In[Node];
  }
  const std::vector<unsigned> &outEdges(unsigned Node) const {
    return Out[Node];
  }

  /// \name Interprocedural transfer
  /// @{
  /// Copy-in: callee entry store from the caller store at NodeP.
  AbstractStore copyIn(const CallLink &L, const AbstractStore &AtP) const;
  /// Copy-out: store after the call from the callee exit store and the
  /// caller store at NodeP (which supplies the frozen caller frame).
  AbstractStore copyOut(const CallLink &L, const AbstractStore &AtExit,
                        const AbstractStore &AtP) const;
  /// Copy-out along a non-local jump: like copyOut without a result.
  AbstractStore channelOut(const CallLink &L, const AbstractStore &AtChan,
                           const AbstractStore &AtP) const;
  /// Backward copy-in: requirement at NodeP given one at the callee
  /// entry.
  AbstractStore bwdCopyIn(const CallLink &L,
                          const AbstractStore &AtEntry) const;
  /// Backward copy-out: requirement at the callee exit given one after
  /// the call. Requirements on frozen caller-only locations are dropped
  /// (sound over-approximation; see DESIGN.md).
  AbstractStore bwdCopyOut(const CallLink &L,
                           const AbstractStore &AtQ) const;
  AbstractStore bwdChannelOut(const CallLink &L,
                              const AbstractStore &AtTarget) const;
  /// @}

  /// \name Memoized edge transfers (warm-started refinement chains)
  /// @{
  /// Enables the per-edge transfer memo. Keyed on the unfolded token's
  /// entry/exit states: a refinement round that leaves an edge's input
  /// stores unchanged reuses the recorded summary instead of re-running
  /// the copy-in/copy-out remap.
  void enableTransferMemo() {
    TransferMemoEnabled = true;
    EdgeMemos.assign(Edges.size(), {});
  }
  /// Verified memo hits since construction.
  uint64_t transferMemoHits() const { return TransferMemoHits; }
  /// Forward transfer of interprocedural edge \p EdgeIdx (CallIn,
  /// CallOut or ChannelOut) over the current solution \p X, through the
  /// memo when enabled.
  AbstractStore fwdTransfer(unsigned EdgeIdx,
                            const std::vector<AbstractStore> &X) const;
  /// Backward dual, seeded from X[edge target].
  AbstractStore bwdTransfer(unsigned EdgeIdx,
                            const std::vector<AbstractStore> &X) const;
  /// @}

  /// The dense store-slot numbering this supergraph's stores run on.
  const VarNumbering &varNumbering() const { return Numbering; }

  /// The program-wide slot -> declaration table (one entry per
  /// VarNumbering slot), shared by every store payload the
  /// interprocedural transfers create (AbstractStore::adoptKeyTable):
  /// a COW detach then shares the table instead of copying it.
  const std::shared_ptr<const detail::StoreKeyTable> &keyTable() const {
    return KeyTable;
  }

  /// Replaces instance \p InstanceId's AccessedKeys (a subset of its
  /// SharedKeys, computed by the liveness pass).
  void setAccessedKeys(unsigned InstanceId,
                       std::vector<const VarDecl *> Keys) {
    Instances[InstanceId].AccessedKeys = std::move(Keys);
  }

  /// The content-addressed key layer over this supergraph (node,
  /// instance, edge and variable keys; see StableIds.h). Built once in
  /// the constructor.
  const StableIds &stableIds() const { return *Ids; }

  /// \name Persistence access to the edge memos
  /// @{
  bool transferMemoEnabled() const { return TransferMemoEnabled; }
  /// All memo slots, [edge][0 = forward, 1 = backward]; empty unless
  /// enableTransferMemo() ran.
  const std::vector<std::array<LinkTransferMemo, 2>> &edgeMemos() const {
    return EdgeMemos;
  }
  /// Installs a restored memo for one edge direction. Requires
  /// enableTransferMemo(); the transfer functions re-verify the
  /// recorded inputs by value before any reuse, so a stale import can
  /// cost a miss but never an incorrect summary.
  void importEdgeMemo(unsigned EdgeIdx, unsigned Dir, LinkTransferMemo M) {
    EdgeMemos[EdgeIdx][Dir] = std::move(M);
  }
  /// @}

  /// Rough bytes held by the supergraph structures (Figure 4 memory),
  /// including the stable-key side tables — charged once here, not per
  /// store payload that shares them.
  size_t approximateBytes() const;

private:
  void discoverInstances(RoutineDecl *Program);
  unsigned getOrCreateInstance(RoutineDecl *R, ActivationToken Tok);
  void buildEdges();

  std::unique_ptr<StableIds> Ids;

  const ProgramCfg &Cfg;
  VarNumbering Numbering; ///< assigns store slots; must precede analysis
  std::shared_ptr<const detail::StoreKeyTable> KeyTable;
  const StoreOps &Ops;
  const ExprSemantics &Exprs;
  Telemetry Telem;
  const Transfer &Xfer;

  std::vector<Instance> Instances;
  std::map<ActivationToken, unsigned> InstanceByToken;
  std::vector<CallLink> Links;
  std::vector<SuperEdge> Edges;
  std::vector<std::vector<unsigned>> In;
  std::vector<std::vector<unsigned>> Out;
  std::vector<unsigned> NodeInstance; ///< node -> instance id
  unsigned NumNodes = 0;
  bool ContextInsensitive = false;

  /// Per-edge transfer memos, [edge][0 = forward, 1 = backward]. A slot
  /// is read and written only while evaluating one fixed supergraph
  /// node (the edge's target forward, its source backward) and phases
  /// run sequentially on one thread.
  mutable std::vector<std::array<LinkTransferMemo, 2>> EdgeMemos;
  mutable uint64_t TransferMemoHits = 0;
  bool TransferMemoEnabled = false;
};

} // namespace syntox

#endif // SYNTOX_SEMANTICS_INTERPROC_H
