//===- lattice/Congruence.h - The congruence lattice aZ+b -------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arithmetical congruence lattice (Granger): each element describes
/// the set { M*k + R | k in Z } for a modulus M >= 1, a single constant
/// (M = 0), the empty set (bottom), or all integers (top = 1Z+0). It is
/// the classic companion domain for array-stride reasoning: a loop
/// `i := 2; while i < n do i := i + 2` keeps `i` in 2Z, which the
/// interval x congruence reduced product (lattice/Domain.h) turns into
/// exact post-loop bounds that intervals alone cannot express.
///
/// Canonical representation, shared with the store's row planes
/// (semantics/AbstractStore.h stores one (M, R) pair per slot):
///
///     bottom        M = -1, R = 0
///     constant c    M = 0,  R = c
///     proper aZ+b   M >= 1, 0 <= R < M   (top is M = 1, R = 0)
///
/// All operations are *pure residue arithmetic* over mathematical
/// integers; the machine-bound saturation of the concrete semantics is
/// the ValueDomain's business (it joins in the clamp constants whenever
/// the interval component shows a result may have saturated).
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_LATTICE_CONGRUENCE_H
#define SYNTOX_LATTICE_CONGRUENCE_H

#include "lattice/Interval.h"

#include <cstdint>
#include <string>
#include <utility>

namespace syntox {

/// One congruence class M*Z + R in the canonical representation above.
/// Plain data; the operation semantics live in CongruenceDomain.
struct Congruence {
  int64_t M = -1;
  int64_t R = 0;

  Congruence() = default; // bottom
  Congruence(int64_t M, int64_t R) : M(M), R(R) {}

  static Congruence bottom() { return Congruence(); }
  static Congruence top() { return Congruence(1, 0); }
  static Congruence constant(int64_t V) { return Congruence(0, V); }

  bool isBottom() const { return M < 0; }
  bool isTop() const { return M == 1; }
  bool isConstant() const { return M == 0; }

  bool contains(int64_t V) const;

  bool operator==(const Congruence &Other) const {
    if (isBottom() && Other.isBottom())
      return true;
    return M == Other.M && R == Other.R;
  }
  bool operator!=(const Congruence &Other) const { return !(*this == Other); }

  /// Renders "_|_", "{c}", "Z" or "MZ+R" (e.g. "2Z", "2Z+1").
  std::string str() const;
};

/// The congruence domain. Stateless (residue arithmetic needs no machine
/// bounds), but kept as a class to mirror IntervalDomain's operator
/// surface — every operation is total and sound over *mathematical*
/// integer semantics; the caller accounts for saturation.
class CongruenceDomain {
public:
  Congruence top() const { return Congruence::top(); }
  Congruence bottom() const { return Congruence::bottom(); }
  Congruence constant(int64_t V) const { return Congruence::constant(V); }

  /// Canonicalizes raw (M, R): the residue is reduced into [0, |M|).
  /// M < 0 is bottom; M = 0 keeps R as the constant.
  Congruence make(int64_t M, int64_t R) const;

  /// Partial order: X ⊑ Y iff the described sets are included.
  bool leq(const Congruence &X, const Congruence &Y) const;

  /// Least upper bound: gcd(M1, M2, |R1 - R2|).
  Congruence join(const Congruence &X, const Congruence &Y) const;
  /// Greatest lower bound via CRT; over-approximates (returns X) when
  /// the combined modulus overflows int64 — sound for a meet.
  Congruence meet(const Congruence &X, const Congruence &Y) const;

  /// The modulus chain 0 | ... | 4 | 2 | 1 (divisibility) is finite, so
  /// join is already a widening.
  Congruence widen(const Congruence &X, const Congruence &Y) const {
    return join(X, Y);
  }
  /// Narrowing: only a top element is refined (mirrors §6.1's "only
  /// omega bounds are refined" on the stride lattice).
  Congruence narrow(const Congruence &X, const Congruence &Y) const {
    if (X.isBottom() || Y.isBottom())
      return bottom();
    return X.isTop() ? Y : X;
  }

  /// \name Forward abstract arithmetic (mathematical semantics)
  /// @{
  Congruence add(const Congruence &A, const Congruence &B) const;
  Congruence sub(const Congruence &A, const Congruence &B) const;
  Congruence mul(const Congruence &A, const Congruence &B) const;
  /// Exact-divisibility division only (d | M and d | R): stride loops
  /// divide evenly; everything else is top.
  Congruence div(const Congruence &A, const Congruence &B) const;
  /// Constant-fold only; a sign-aware version lives in ValueDomain::mod
  /// where the interval component provides the dividend sign.
  Congruence mod(const Congruence &A, const Congruence &B) const;
  Congruence neg(const Congruence &A) const;
  /// abs(a) ∈ {a, -a}: join(A, neg(A)).
  Congruence abs(const Congruence &A) const;
  /// (kM + R)^2 ≡ R^2 (mod M).
  Congruence sqr(const Congruence &A) const;
  /// @}

  /// \name Comparison tests
  /// Only disjointness of congruence classes refutes anything; the
  /// order-aware half lives in the interval component.
  /// @{
  bool cmpMayBeTrue(CmpOp Op, const Congruence &A, const Congruence &B) const;
  bool cmpMayBeFalse(CmpOp Op, const Congruence &A,
                     const Congruence &B) const;
  /// Refinement under "A op B": equality meets both sides; everything
  /// else is the identity (sound: results are always ⊑ the inputs).
  std::pair<Congruence, Congruence> assumeCmp(CmpOp Op, const Congruence &A,
                                              const Congruence &B) const;
  /// @}

  std::string str(const Congruence &X) const { return X.str(); }
};

} // namespace syntox

#endif // SYNTOX_LATTICE_CONGRUENCE_H
