//===- lattice/Interval.h - The interval lattice I(Z_b) ---------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interval lattice I(Z_b) of paper §6.1, where Z_b is the set of
/// integers between w- and w+ (the machine bounds). Top is [w-, w+]; there
/// are no separate infinities — "unbounded" means a bound has reached w- or
/// w+, exactly as in the paper. The domain is parameterized by the bounds
/// so property tests can exhaustively enumerate a tiny Z_b.
///
/// Besides the standard lattice operations and the paper's widening and
/// narrowing operators, this file provides:
///  - forward abstract arithmetic (the [x := e] primitives are built on it),
///  - *backward* (inverse) arithmetic used by the [x := e]⁻¹ primitives,
///  - forward and backward comparison tests (the [i < 100] primitives).
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_LATTICE_INTERVAL_H
#define SYNTOX_LATTICE_INTERVAL_H

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace syntox {

/// A closed integer interval [Lo, Hi]. Bottom (the empty interval) is
/// canonically represented as [1, 0]. Plain data; all semantics live in
/// IntervalDomain, which knows the Z_b bounds.
struct Interval {
  int64_t Lo = 1;
  int64_t Hi = 0;

  Interval() = default; // bottom
  Interval(int64_t Lo, int64_t Hi) : Lo(Lo), Hi(Hi) {}

  static Interval bottom() { return Interval(); }
  static Interval singleton(int64_t V) { return Interval(V, V); }

  bool isBottom() const { return Lo > Hi; }
  bool isSingleton() const { return Lo == Hi; }

  bool contains(int64_t V) const { return Lo <= V && V <= Hi; }

  bool operator==(const Interval &Other) const {
    if (isBottom() && Other.isBottom())
      return true;
    return Lo == Other.Lo && Hi == Other.Hi;
  }

  /// Renders as "[lo, hi]" with "-oo"/"+oo" for bounds at or beyond the
  /// Z_b machine bounds, or "_|_" for bottom. This is the single interval
  /// renderer: IntervalDomain::str delegates here with its configured
  /// bounds, and the defaults map the int64 extremes so the raw w-/w+
  /// sentinels can never leak into output even without a domain at hand.
  std::string str(int64_t MinValue = INT64_MIN,
                  int64_t MaxValue = INT64_MAX) const;
};

/// Mixes \p V into the running hash \p H (boost-style combiner).
inline uint64_t hashCombine(uint64_t H, uint64_t V) {
  return H ^ (V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2));
}

/// 64-bit hash of an interval, consistent with operator==: every bottom
/// representation hashes alike, and equal intervals hash equal.
inline uint64_t hashValue(const Interval &X) {
  if (X.isBottom())
    return 0x7b10bb04ed2c4045ull;
  uint64_t H = 0x243f6a8885a308d3ull;
  H = hashCombine(H, static_cast<uint64_t>(X.Lo));
  H = hashCombine(H, static_cast<uint64_t>(X.Hi));
  return H;
}

/// Comparison operators for the abstract test primitives.
enum class CmpOp { EQ, NE, LT, LE, GT, GE };

/// Returns the negation of \p Op (e.g. LT -> GE).
CmpOp negateCmp(CmpOp Op);
/// Returns the operator with swapped operands (e.g. LT -> GT).
CmpOp swapCmp(CmpOp Op);
/// Renders "=", "<>", "<", "<=", ">", ">=".
const char *cmpOpName(CmpOp Op);

/// The interval domain over Z_b = [MinValue, MaxValue].
///
/// All operations are total and sound: forward operations over-approximate
/// the image of the concrete operation, backward operations over-approximate
/// the preimage restricted to the given argument intervals.
class IntervalDomain {
public:
  /// Constructs I(Z_b) with the given machine bounds (w- and w+).
  IntervalDomain(int64_t MinValue = INT64_MIN, int64_t MaxValue = INT64_MAX)
      : MinV(MinValue), MaxV(MaxValue) {
    assert(MinValue < MaxValue && "degenerate domain");
  }

  int64_t minValue() const { return MinV; }
  int64_t maxValue() const { return MaxV; }

  Interval top() const { return Interval(MinV, MaxV); }
  Interval bottom() const { return Interval::bottom(); }

  /// Builds [Lo, Hi] clamped into Z_b; returns bottom if empty after
  /// clamping.
  Interval make(int64_t Lo, int64_t Hi) const;

  /// The set of non-negative elements [0, w+].
  Interval nonNegative() const { return Interval(0, MaxV); }

  bool isTop(const Interval &X) const {
    return !X.isBottom() && X.Lo <= MinV && X.Hi >= MaxV;
  }

  /// Partial order: X ⊑ Y.
  bool leq(const Interval &X, const Interval &Y) const;

  Interval join(const Interval &X, const Interval &Y) const;
  Interval meet(const Interval &X, const Interval &Y) const;

  /// The widening operator of paper §6.1: unstable bounds jump to w-/w+.
  Interval widen(const Interval &X, const Interval &Y) const;

  /// Widening with thresholds: an unstable bound jumps to the nearest
  /// enclosing threshold instead of all the way to w-/w+. \p Thresholds
  /// must be sorted ascending. This is the §6.1 remark that "more
  /// sophisticated widening operators can easily be designed".
  Interval widenWithThresholds(const Interval &X, const Interval &Y,
                               const std::vector<int64_t> &Thresholds) const;

  /// The narrowing operator of paper §6.1: only bounds at w-/w+ are
  /// refined.
  Interval narrow(const Interval &X, const Interval &Y) const;

  /// \name Forward abstract arithmetic
  /// Results saturate at the Z_b bounds (concrete overflow is modeled as
  /// saturation; the concrete interpreter saturates identically).
  /// @{
  Interval add(const Interval &A, const Interval &B) const;
  Interval sub(const Interval &A, const Interval &B) const;
  Interval mul(const Interval &A, const Interval &B) const;
  /// Truncating division; the divisor is implicitly refined to exclude 0
  /// (division by zero is a runtime error handled by the check machinery).
  /// Returns bottom if B is {0} or bottom.
  Interval div(const Interval &A, const Interval &B) const;
  /// a mod b with the sign of the dividend (matches the interpreter);
  /// divisor implicitly refined to exclude 0.
  Interval mod(const Interval &A, const Interval &B) const;
  Interval neg(const Interval &A) const;
  Interval abs(const Interval &A) const;
  Interval sqr(const Interval &A) const;
  /// @}

  /// \name Backward (inverse) abstract arithmetic
  /// Given the result interval R of an operation and the current operand
  /// intervals, returns refined operand intervals: every concrete operand
  /// pair whose result lies in R (and whose operands lie in A x B) lies in
  /// the returned pair. Refinement never *adds* values: results are always
  /// ⊑ the inputs.
  /// @{
  std::pair<Interval, Interval> bwdAdd(const Interval &R, const Interval &A,
                                       const Interval &B) const;
  std::pair<Interval, Interval> bwdSub(const Interval &R, const Interval &A,
                                       const Interval &B) const;
  std::pair<Interval, Interval> bwdMul(const Interval &R, const Interval &A,
                                       const Interval &B) const;
  std::pair<Interval, Interval> bwdDiv(const Interval &R, const Interval &A,
                                       const Interval &B) const;
  std::pair<Interval, Interval> bwdMod(const Interval &R, const Interval &A,
                                       const Interval &B) const;
  Interval bwdNeg(const Interval &R, const Interval &A) const;
  Interval bwdAbs(const Interval &R, const Interval &A) const;
  Interval bwdSqr(const Interval &R, const Interval &A) const;
  /// @}

  /// \name Comparison tests
  /// @{
  /// May the comparison "A op B" evaluate to true / to false?
  bool cmpMayBeTrue(CmpOp Op, const Interval &A, const Interval &B) const;
  bool cmpMayBeFalse(CmpOp Op, const Interval &A, const Interval &B) const;

  /// Refines (A, B) under the assumption "A op B" holds — the abstract
  /// test primitive [a op b] of paper §4. Sound: every concrete pair in
  /// A x B satisfying the comparison lies in the result.
  std::pair<Interval, Interval> assumeCmp(CmpOp Op, const Interval &A,
                                          const Interval &B) const;
  /// @}

  /// Renders \p X with "-oo"/"+oo" when a bound sits at w-/w+.
  std::string str(const Interval &X) const;

private:
  int64_t clamp(int64_t V) const;
  /// Saturating arithmetic on bounds (never overflows int64).
  int64_t satAdd(int64_t A, int64_t B) const;
  int64_t satSub(int64_t A, int64_t B) const;
  int64_t satMul(int64_t A, int64_t B) const;

  int64_t MinV;
  int64_t MaxV;
};

} // namespace syntox

#endif // SYNTOX_LATTICE_INTERVAL_H
