//===- lattice/Domain.h - Pluggable abstract value domains ------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pluggable-domain layer. The paper's debugger is parameterized by
/// the abstract lattice; this file is where that parameter lives for us:
///
///  - DomainKind selects the active domain at run time
///    (`--domain=interval|congruence|product`).
///  - NumVal is the universal numeric abstract value: an interval
///    component plus a congruence component. Interval-only analyses keep
///    the congruence component at top; congruence-only analyses keep the
///    interval component (mostly) at top; the reduced product uses both.
///  - ValueDomain exposes the exact operator surface of IntervalDomain
///    (the "Domain concept": lattice ops, widen/narrow, forward and
///    backward arithmetic, comparison transfer) lifted to NumVal, and
///    owns the Granger reduction between the two components.
///
/// Saturation guard. The concrete semantics *saturate* at the Z_b bounds
/// (Interval.h), but congruence arithmetic is sound only over
/// mathematical integers: MaxV-1 + 2 clamps to MaxV, which can break
/// parity. Every forward operation therefore consults the interval
/// transfer of the same operation: a sound interval result that may have
/// saturated necessarily touches the clamped bound, so whenever the
/// interval result reaches w- (resp. w+) the congruence result absorbs
/// the constant {w-} (resp. {w+}) by join. When the interval result stays
/// strictly inside Z_b no saturation was possible and the residue
/// arithmetic is exact. This is what keeps the stride fact `i in 2Z`
/// alive through `i := i + 2` under a loop guard (the guard's assume
/// bounds the operand away from w+) while remaining sound against the
/// saturating Interpreter.
///
/// Reduction (Granger). reduce() tightens the interval's bounds to the
/// congruence class (Lo rounded up, Hi rounded down to the class; a
/// singleton interval constrains the congruence to a constant; a constant
/// congruence meets into the interval; an empty intersection is bottom).
/// It runs after forward/backward transfer and assumes — NOT inside the
/// lattice operations (join/meet/widen/narrow stay componentwise so the
/// SoA store kernels match the scalar ops bit for bit and widening
/// terminates).
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_LATTICE_DOMAIN_H
#define SYNTOX_LATTICE_DOMAIN_H

#include "lattice/Congruence.h"
#include "lattice/Interval.h"

#include <string>
#include <utility>
#include <vector>

namespace syntox {

/// Which abstract domain the analysis runs in. Stored in AnalysisOptions,
/// mixed into the solver-semantics and cache-file hashes, recorded in
/// findings JSON, and imprinted on every store payload.
enum class DomainKind : uint8_t {
  Interval = 0,   ///< Paper §6.1 intervals over Z_b (the default).
  Congruence = 1, ///< aZ+b stride classes (Granger).
  Product = 2,    ///< Interval x congruence reduced product.
};

/// Stable lowercase name ("interval", "congruence", "product") used by
/// the CLI flag, the serve wire protocol, and the findings schema.
const char *domainKindName(DomainKind K);

/// Parses a domain name; returns false (leaving \p Out untouched) on an
/// unknown name.
bool parseDomainKind(const std::string &Name, DomainKind &Out);

/// The universal numeric abstract value: interval x congruence. A plain
/// pair; all semantics live in ValueDomain. Default-constructed = bottom
/// (both components bottom).
struct NumVal {
  Interval I = Interval::bottom();
  Congruence C = Congruence::bottom();

  NumVal() = default;
  NumVal(const Interval &I, const Congruence &C) : I(I), C(C) {}

  /// Lifts an interval: congruence component is top (what every
  /// interval-domain value looks like).
  static NumVal of(const Interval &IV) {
    return NumVal(IV, Congruence::top());
  }

  /// A value is bottom as soon as either component is empty.
  bool isBottom() const { return I.isBottom() || C.isBottom(); }
  bool isSingleton() const {
    return !isBottom() && (I.isSingleton() || C.isConstant());
  }
  /// The single concrete value of a singleton.
  int64_t singleValue() const { return C.isConstant() ? C.R : I.Lo; }
  bool contains(int64_t V) const { return I.contains(V) && C.contains(V); }

  bool operator==(const NumVal &Other) const {
    if (isBottom() && Other.isBottom())
      return true;
    if (isBottom() || Other.isBottom())
      return false;
    return I == Other.I && C == Other.C;
  }
  bool operator!=(const NumVal &Other) const { return !(*this == Other); }
};

/// The runtime-pluggable abstract domain over NumVal. Owns an
/// IntervalDomain (machine bounds) and a CongruenceDomain and dispatches
/// on DomainKind:
///
///  - Interval: interval math; every result's congruence component is
///    top (bit-identical behavior to the pre-refactor pipeline).
///  - Congruence: residue math with the saturation guard; arithmetic
///    results carry a top interval component (the interval transfer is
///    still evaluated internally to drive the guard, and constants /
///    assume-refinements keep their ranges — exact evaluation, not
///    interval analysis — so the guard has bounds to work with).
///  - Product: both components, reduced after every transfer.
class ValueDomain {
public:
  explicit ValueDomain(DomainKind K = DomainKind::Interval,
                       int64_t MinValue = INT64_MIN,
                       int64_t MaxValue = INT64_MAX)
      : K(K), ID(MinValue, MaxValue) {}
  ValueDomain(DomainKind K, const IntervalDomain &D)
      : K(K), ID(D.minValue(), D.maxValue()) {}

  DomainKind kind() const { return K; }
  const IntervalDomain &intervals() const { return ID; }
  int64_t minValue() const { return ID.minValue(); }
  int64_t maxValue() const { return ID.maxValue(); }

  NumVal top() const { return NumVal(ID.top(), CD.top()); }
  NumVal bottom() const { return NumVal(); }
  NumVal constant(int64_t V) const;
  /// Lifts [Lo, Hi] (clamped into Z_b); congruence component top.
  NumVal make(int64_t Lo, int64_t Hi) const {
    return NumVal::of(ID.make(Lo, Hi));
  }
  NumVal fromInterval(const Interval &IV) const { return NumVal::of(IV); }
  NumVal nonNegative() const { return NumVal::of(ID.nonNegative()); }

  bool isTop(const NumVal &X) const {
    return !X.isBottom() && ID.isTop(X.I) && X.C.isTop();
  }

  /// \name Lattice operations
  /// Componentwise with uniform bottom short-circuits; the SoA store
  /// kernels (AbstractStore.cpp) replicate these row-for-row, so any
  /// change here must be mirrored there (store_soa/product differential
  /// tests enforce this).
  /// @{
  bool leq(const NumVal &A, const NumVal &B) const {
    if (A.isBottom())
      return true;
    if (B.isBottom())
      return false;
    return ID.leq(A.I, B.I) && CD.leq(A.C, B.C);
  }
  NumVal join(const NumVal &A, const NumVal &B) const {
    if (A.isBottom())
      return B;
    if (B.isBottom())
      return A;
    return NumVal(ID.join(A.I, B.I), CD.join(A.C, B.C));
  }
  NumVal meet(const NumVal &A, const NumVal &B) const {
    if (A.isBottom() || B.isBottom())
      return bottom();
    return NumVal(ID.meet(A.I, B.I), CD.meet(A.C, B.C));
  }
  NumVal widen(const NumVal &A, const NumVal &B) const {
    if (A.isBottom())
      return B;
    if (B.isBottom())
      return A;
    return NumVal(ID.widen(A.I, B.I), CD.widen(A.C, B.C));
  }
  NumVal widenWithThresholds(const NumVal &A, const NumVal &B,
                             const std::vector<int64_t> &Thresholds) const {
    if (A.isBottom())
      return B;
    if (B.isBottom())
      return A;
    return NumVal(ID.widenWithThresholds(A.I, B.I, Thresholds),
                  CD.widen(A.C, B.C));
  }
  NumVal narrow(const NumVal &A, const NumVal &B) const {
    if (A.isBottom() || B.isBottom())
      return bottom();
    return NumVal(ID.narrow(A.I, B.I), CD.narrow(A.C, B.C));
  }
  /// @}

  /// Granger reduction (product kind only; identity in the other kinds).
  NumVal reduce(const NumVal &X) const;

  /// \name Forward abstract arithmetic
  /// @{
  NumVal add(const NumVal &A, const NumVal &B) const;
  NumVal sub(const NumVal &A, const NumVal &B) const;
  NumVal mul(const NumVal &A, const NumVal &B) const;
  NumVal div(const NumVal &A, const NumVal &B) const;
  NumVal mod(const NumVal &A, const NumVal &B) const;
  NumVal neg(const NumVal &A) const;
  NumVal abs(const NumVal &A) const;
  NumVal sqr(const NumVal &A) const;
  /// @}

  /// \name Backward (inverse) abstract arithmetic
  /// The interval component refines per IntervalDomain; the congruence
  /// component is kept (a clamped result invalidates residue inversion),
  /// then the pair is reduced.
  /// @{
  std::pair<NumVal, NumVal> bwdAdd(const NumVal &R, const NumVal &A,
                                   const NumVal &B) const;
  std::pair<NumVal, NumVal> bwdSub(const NumVal &R, const NumVal &A,
                                   const NumVal &B) const;
  std::pair<NumVal, NumVal> bwdMul(const NumVal &R, const NumVal &A,
                                   const NumVal &B) const;
  std::pair<NumVal, NumVal> bwdDiv(const NumVal &R, const NumVal &A,
                                   const NumVal &B) const;
  std::pair<NumVal, NumVal> bwdMod(const NumVal &R, const NumVal &A,
                                   const NumVal &B) const;
  NumVal bwdNeg(const NumVal &R, const NumVal &A) const;
  NumVal bwdAbs(const NumVal &R, const NumVal &A) const;
  NumVal bwdSqr(const NumVal &R, const NumVal &A) const;
  /// @}

  /// \name Comparison tests
  /// Both components must allow the outcome; the congruence side can
  /// refute (dis)equalities intervals cannot (disjoint stride classes).
  /// @{
  bool cmpMayBeTrue(CmpOp Op, const NumVal &A, const NumVal &B) const;
  bool cmpMayBeFalse(CmpOp Op, const NumVal &A, const NumVal &B) const;
  std::pair<NumVal, NumVal> assumeCmp(CmpOp Op, const NumVal &A,
                                      const NumVal &B) const;
  /// @}

  /// Bound-aware rendering: the single user-facing renderer for numeric
  /// abstract values (w-/w+ print as -oo/+oo; a non-top congruence
  /// component prints as "[l, h] /\ 2Z").
  std::string str(const NumVal &X) const;

private:
  /// Applies the saturation guard to a congruence result: \p IT is the
  /// interval transfer of the same operation. Returns the guarded
  /// congruence.
  Congruence guard(Congruence C, const Interval &IT) const;
  /// Packages a forward-op result per the active kind (see class docs).
  NumVal finish(const Interval &IT, const Congruence &CT) const;

  DomainKind K;
  IntervalDomain ID;
  CongruenceDomain CD;
};

} // namespace syntox

#endif // SYNTOX_LATTICE_DOMAIN_H
