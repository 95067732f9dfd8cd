//===- support/BigInt.h - Arbitrary-precision signed integers --*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Arbitrary-precision signed integer arithmetic with an inline-limb
/// small-value fast path.
///
/// Template-based invariant synthesis via Farkas' lemma produces linear
/// systems whose exact-rational pivoting can grow coefficients well past
/// 64 bits, but profiles show the overwhelming majority of values flowing
/// through the simplex stay tiny. The representation is therefore a tagged
/// union:
///
///  * inline: any value representable as int64_t is stored directly in the
///    object — no heap allocation, and all arithmetic runs as
///    overflow-checked machine ops (__builtin_*_overflow);
///  * heap: values outside [INT64_MIN, INT64_MAX] fall back to the classic
///    sign + little-endian base-2^32 limb vector.
///
/// The representation is canonical: a value fits in int64_t if and only if
/// it is stored inline (operations that shrink a heap value demote the
/// result), so equality, comparison, and hashing never need to reconcile
/// two encodings of the same number. Promotion on overflow routes through
/// __int128 (any product or sum of two int64 values fits) or through the
/// limb helpers for genuinely large operands.
///
/// The accumulate entry points addMul()/subMul() are alias-safe:
/// x.addMul(x, y) and x.addMul(y, x) read every operand before the first
/// write to x.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_SUPPORT_BIGINT_H
#define PATHINV_SUPPORT_BIGINT_H

#include "support/FaultInject.h"

#include <cassert>
#include <cstdint>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pathinv {

/// Adjusts the calling thread's live BigInt heap-byte counter. Internal
/// hook — called on every heap-representation transition. Out-of-line on
/// purpose: the counter is a thread_local owned by BigInt.cpp, and
/// keeping every access in the defining TU sidesteps a GCC 12 UBSan
/// false positive ("load of null pointer") on cross-TU thread_local
/// reads hoisted across thread joins at -O2.
void bigIntHeapAccount(int64_t Delta) noexcept;

/// \returns bytes currently held by heap BigInt representations on the
/// calling thread — one input to the resource controller's memory probe.
///
/// Threading contract: the counter is strictly per-thread and relies on
/// BigInt values being created and destroyed on the SAME thread. That
/// invariant holds everywhere by construction — every BigInt lives inside
/// one job's solver stack, and a job runs start-to-finish on one worker
/// thread (pathinvd never migrates a job between workers, and results
/// crossing threads are serialized to strings first). A value allocated
/// on thread A and freed on thread B would leave A's counter permanently
/// inflated and drive B's below zero (unsigned wraparound) — if you ever
/// need to hand terms or rationals across threads, serialize them. The
/// counter is monotone-balanced, not reset between jobs: a worker's
/// successive jobs see the counter return to the same baseline once each
/// job's values die, which is what makes the per-job memory ceiling
/// meaningful on a long-lived worker.
uint64_t bigIntHeapBytes() noexcept;

/// Arbitrary-precision signed integer (inline int64_t fast path).
class BigInt {
public:
  /// Constructs zero.
  BigInt() noexcept : InlineValue(0), IsInline(true) {}

  /// Constructs from a machine integer (always inline, never allocates).
  BigInt(int64_t Value) noexcept : InlineValue(Value), IsInline(true) {}

  /// Parses a decimal string with optional leading '-'.
  /// Asserts on malformed input; use \c fromString for checked parsing.
  explicit BigInt(std::string_view Decimal);

  // Copy, move and assignment: inline values are the common case in the
  // simplex and synthesis loops, so they stay in the header; the heap
  // representation goes through the out-of-line helpers.
  BigInt(const BigInt &RHS) {
    if (RHS.IsInline) {
      InlineValue = RHS.InlineValue;
      IsInline = true;
    } else {
      constructHeapCopy(RHS);
    }
  }
  BigInt(BigInt &&RHS) noexcept {
    if (RHS.IsInline) {
      InlineValue = RHS.InlineValue;
      IsInline = true;
    } else {
      constructHeapMove(RHS);
    }
  }
  BigInt &operator=(const BigInt &RHS) {
    if (IsInline && RHS.IsInline) {
      InlineValue = RHS.InlineValue;
      return *this;
    }
    return assignSlow(RHS);
  }
  BigInt &operator=(BigInt &&RHS) noexcept {
    if (IsInline && RHS.IsInline) {
      InlineValue = RHS.InlineValue;
      return *this;
    }
    return moveAssignSlow(std::move(RHS));
  }
  ~BigInt() {
    if (!IsInline) {
      bigIntHeapAccount(-heapBytes());
      Heap.~HeapRep();
    }
  }

  /// Checked decimal parse. Returns false (and leaves \p Out untouched) on
  /// malformed input.
  static bool fromString(std::string_view Decimal, BigInt &Out);

  /// Constructs from a 128-bit value (inline when it fits in int64_t).
  static BigInt fromInt128(__int128 Value);

  /// \returns true when the value is stored inline (no heap allocation).
  /// Canonicality makes this equivalent to fitsInt64().
  bool isInline() const { return IsInline; }

  /// \returns -1, 0, or +1.
  int sign() const {
    if (IsInline)
      return (InlineValue > 0) - (InlineValue < 0);
    return Heap.Sign;
  }
  bool isZero() const { return IsInline && InlineValue == 0; }
  bool isNegative() const { return sign() < 0; }
  bool isOne() const { return IsInline && InlineValue == 1; }

  /// \returns the value as int64_t; asserts if it does not fit.
  int64_t toInt64() const {
    assert(IsInline && "BigInt does not fit in int64_t");
    return InlineValue;
  }

  /// \returns true if the value fits in int64_t.
  bool fitsInt64() const { return IsInline; }

  /// Decimal rendering (no leading zeros, '-' prefix when negative).
  std::string toString() const;

  BigInt operator-() const;
  BigInt abs() const;

  BigInt operator+(const BigInt &RHS) const;
  BigInt operator-(const BigInt &RHS) const;
  BigInt operator*(const BigInt &RHS) const;

  /// Truncated division (C semantics: quotient rounds toward zero, remainder
  /// has the sign of the dividend). Asserts on division by zero.
  BigInt operator/(const BigInt &RHS) const;
  BigInt operator%(const BigInt &RHS) const;

  /// Computes quotient and remainder in one pass (truncated semantics).
  /// \p Quot and \p Rem may alias \p Num or \p Den.
  static void divMod(const BigInt &Num, const BigInt &Den, BigInt &Quot,
                     BigInt &Rem);

  /// Floor division: quotient rounds toward negative infinity.
  BigInt floorDiv(const BigInt &RHS) const;

  BigInt &operator+=(const BigInt &RHS);
  BigInt &operator-=(const BigInt &RHS);
  BigInt &operator*=(const BigInt &RHS);

  /// Accumulates `*this += A * B` / `*this -= A * B` without materializing
  /// the product when every operand is inline. Operands may alias *this.
  void addMul(const BigInt &A, const BigInt &B);
  void subMul(const BigInt &A, const BigInt &B);

  bool operator==(const BigInt &RHS) const {
    if (IsInline != RHS.IsInline)
      return false; // Canonical representation: tags of equal values agree.
    if (IsInline)
      return InlineValue == RHS.InlineValue;
    return Heap.Sign == RHS.Heap.Sign && Heap.Limbs == RHS.Heap.Limbs;
  }
  bool operator!=(const BigInt &RHS) const { return !(*this == RHS); }
  bool operator<(const BigInt &RHS) const { return compare(RHS) < 0; }
  bool operator<=(const BigInt &RHS) const { return compare(RHS) <= 0; }
  bool operator>(const BigInt &RHS) const { return compare(RHS) > 0; }
  bool operator>=(const BigInt &RHS) const { return compare(RHS) >= 0; }

  /// Three-way comparison: negative, zero, or positive.
  int compare(const BigInt &RHS) const {
    if (IsInline && RHS.IsInline)
      return (InlineValue > RHS.InlineValue) - (InlineValue < RHS.InlineValue);
    return compareSlow(RHS);
  }

  /// Greatest common divisor (always non-negative).
  static BigInt gcd(const BigInt &A, const BigInt &B);

  /// Least common multiple (always non-negative; lcm(0,x) = 0).
  static BigInt lcm(const BigInt &A, const BigInt &B);

  /// Hash suitable for unordered containers (equal values hash equal; the
  /// canonical representation guarantees it across the two encodings).
  size_t hash() const;

private:
  struct HeapRep {
    std::vector<uint32_t> Limbs; ///< Little-endian base-2^32, no leading 0s.
    int8_t Sign;                 ///< -1 or +1 (zero is always inline).
  };

  /// Builds a canonical value from sign and magnitude limbs: strips leading
  /// zeros and demotes to inline whenever the value fits in int64_t.
  static BigInt fromSignMagnitude(int Sign, std::vector<uint32_t> Limbs);

  /// Exposes the magnitude as a limb array without allocating: inline
  /// values render into \p Buf, heap values return their own storage.
  const uint32_t *magnitude(uint32_t (&Buf)[2], size_t &NumLimbs) const;

  void adoptHeap(int8_t Sign, std::vector<uint32_t> &&Limbs) {
    assert(IsInline && "adoptHeap over live heap state");
    (void)fault::shouldFail(fault::Site::BigIntPromotion);
    new (&Heap) HeapRep{std::move(Limbs), Sign};
    IsInline = false;
    bigIntHeapAccount(heapBytes());
  }
  void resetToInline(int64_t Value) {
    if (!IsInline) {
      bigIntHeapAccount(-heapBytes());
      Heap.~HeapRep();
      IsInline = true;
    }
    InlineValue = Value;
  }

  /// Bytes of limb storage held by the heap representation (valid only
  /// when !IsInline); the unit of the thread's heap-byte counter.
  int64_t heapBytes() const {
    return static_cast<int64_t>(Heap.Limbs.capacity() * sizeof(uint32_t));
  }

  /// Out-of-line halves of copy/move/assignment for heap operands.
  void constructHeapCopy(const BigInt &RHS);
  void constructHeapMove(BigInt &RHS) noexcept;
  BigInt &assignSlow(const BigInt &RHS);
  BigInt &moveAssignSlow(BigInt &&RHS) noexcept;

  static BigInt addSlow(const BigInt &A, const BigInt &B);
  BigInt mulSlow(const BigInt &RHS) const;
  int compareSlow(const BigInt &RHS) const;

  union {
    int64_t InlineValue; ///< Valid when IsInline.
    HeapRep Heap;        ///< Valid when !IsInline.
  };
  bool IsInline;
};

} // namespace pathinv

#endif // PATHINV_SUPPORT_BIGINT_H
