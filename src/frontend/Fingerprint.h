//===- frontend/Fingerprint.h - Structural routine fingerprints -*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content-derived identities for routines: a 64-bit structural hash of
/// a routine's signature and body that is stable across process runs and
/// across edits to *other* routines. The persistent warm-start cache
/// folds the fingerprint of every unfolded routine into the program hash
/// that decides whether a cache file belongs to the program at hand
/// (persist/WarmCache.h, DESIGN.md §8).
///
/// What a fingerprint covers, and why:
///  - the signature (kind, name, parameter names/kinds/types, result
///    type) and the block declarations (labels, constants, type aliases,
///    variables) — anything that changes the routine's own frame layout
///    or lowering;
///  - the body statements and expressions, structurally (variable
///    references by *name*: bindings resolved through ancestors are
///    covered by the ancestors' own fingerprints, since every ancestor
///    of an unfolded routine is unfolded too);
///  - the *signature hash* of every callee, because the caller's
///    lowering of a call (argument temporaries, reference passing,
///    result plumbing) depends on the callee's parameter kinds — but
///    NOT the callee's body, so an edit inside a callee never dirties
///    its callers' fingerprints;
///  - nested routine declarations are elided entirely (their call sites
///    already contribute signature hashes), so an edit inside a nested
///    routine never dirties the parent.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_FRONTEND_FINGERPRINT_H
#define SYNTOX_FRONTEND_FINGERPRINT_H

#include <cstdint>

namespace syntox {

class RoutineDecl;
class Type;

/// FNV-1a style mixing used by the fingerprints and the hashes built on
/// them. Kept in one place so the on-disk cache's hashes are
/// reproducible.
inline uint64_t fpSeed() { return 0xcbf29ce484222325ull; }
inline uint64_t fpMix(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ull + (H << 12) + (H >> 3);
  return H * 0x100000001b3ull;
}

/// Hash of a routine's signature only: kind, name, parameter
/// names/kinds/types, result type. This is what callers embed at their
/// call sites.
uint64_t hashRoutineSignature(const RoutineDecl *R);

/// Structural hash of a type (subranges and array bounds included).
uint64_t hashType(const Type *T);

/// Computes and stores the fingerprint of \p Program and every routine
/// nested inside it (RoutineDecl::fingerprint()). Must run after Sema
/// (call-site callee bindings are consulted). Walks the bodies once: a
/// later call returns at once, since \p Program's fingerprint is set
/// last.
void computeFingerprints(RoutineDecl *Program);

} // namespace syntox

#endif // SYNTOX_FRONTEND_FINGERPRINT_H
