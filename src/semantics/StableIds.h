//===- semantics/StableIds.h - Content-addressed supergraph keys *- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stable identity layer of the analysis pipeline. Every positional
/// identity used by the solvers — store slots, supergraph node indices,
/// WTO element indices, interprocedural instances — is given a 64-bit
/// *content-derived key* built from routine fingerprints
/// (frontend/Fingerprint.h):
///
///   var key       = H(owner routine fingerprint, index in owner)
///   call-site key = H(caller fingerprint, per-caller call ordinal)
///   instance key  = H(routine fp, lexical-ancestor fp chain,
///                     call-site key, root var keys)
///   node key      = H(instance key, control point)
///   edge key      = H(edge kind, from node key, to node key)
///   element key   = H(sorted member node keys)         (computed by the
///                    persistence layer from a WTO)
///
/// Keys are equal across process runs and across edits that do not
/// change the fingerprints involved, which is what lets the persistent
/// warm-start cache map recorded state into a re-built supergraph and
/// invalidate exactly the parts whose fingerprint set changed
/// (DESIGN.md §8). The ancestor chain in instance keys covers
/// name-binding changes: editing an enclosing routine (e.g. adding a
/// shadowing local) re-keys every instance nested below it even when
/// the nested routine's own text is unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_SEMANTICS_STABLEIDS_H
#define SYNTOX_SEMANTICS_STABLEIDS_H

#include "frontend/Fingerprint.h"

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace syntox {

class ProgramCfg;
class RoutineDecl;
class SuperGraph;
class VarDecl;

class StableIds {
public:
  /// Derives every key for \p G. Runs computeFingerprints() on
  /// \p Program first (idempotent).
  StableIds(const SuperGraph &G, const ProgramCfg &Cfg,
            RoutineDecl *Program);

  /// Content key of supergraph node \p Node.
  uint64_t nodeKey(unsigned Node) const { return NodeKeys[Node]; }
  const std::vector<uint64_t> &nodeKeys() const { return NodeKeys; }

  /// Content key of supergraph edge \p EdgeIdx.
  uint64_t edgeKey(unsigned EdgeIdx) const { return EdgeKeys[EdgeIdx]; }
  const std::vector<uint64_t> &edgeKeys() const { return EdgeKeys; }

  /// Content key of a numbered variable.
  uint64_t varKey(const VarDecl *V) const;

  /// Inverse of varKey over this program's numbered variables; null for
  /// keys minted by a different program version.
  const VarDecl *varForKey(uint64_t Key) const;

  /// Hash of the whole lowered supergraph (all node keys + edge keys).
  /// Equal hashes mean the analyzed structure is identical, so a cached
  /// run can be replayed wholesale.
  uint64_t supergraphHash() const { return GraphHash; }

  /// Bytes held by the key side tables. Counted once by
  /// SuperGraph::approximateBytes (these tables are shared by every
  /// store snapshot, so charging them per payload would double-count).
  size_t approximateBytes() const;

private:
  std::vector<uint64_t> NodeKeys;
  std::vector<uint64_t> EdgeKeys;
  std::unordered_map<const VarDecl *, uint64_t> VarKeys;
  std::unordered_map<uint64_t, const VarDecl *> VarByKey;
  uint64_t GraphHash = 0;
};

} // namespace syntox

#endif // SYNTOX_SEMANTICS_STABLEIDS_H
