//===- support/BigInt.cpp - Arbitrary-precision signed integers ----------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"

#include "support/IntUtil.h"

#include <algorithm>
#include <cstddef>

using namespace pathinv;
using pathinv::detail::absU64;
using pathinv::detail::gcdU64;

namespace {
/// Live heap bytes held by BigInt values on this thread. Deliberately
/// confined to this TU — see the bigIntHeapAccount declaration in
/// BigInt.h for why no other TU may touch the thread_local directly.
thread_local uint64_t BigIntHeapBytesCounter = 0;
} // namespace

void pathinv::bigIntHeapAccount(int64_t Delta) noexcept {
  BigIntHeapBytesCounter += static_cast<uint64_t>(Delta);
}

uint64_t pathinv::bigIntHeapBytes() noexcept {
  return BigIntHeapBytesCounter;
}

namespace {

constexpr uint64_t LimbBase = uint64_t(1) << 32;

/// Converts a non-negative two's-complement magnitude back to int64_t;
/// \p Mag must be <= 2^63 when \p Negative, <= INT64_MAX otherwise.
int64_t signedFromMagnitude(uint64_t Mag, bool Negative) {
  if (!Negative)
    return static_cast<int64_t>(Mag);
  // -(Mag-1)-1 avoids overflow for Mag == 2^63 (INT64_MIN).
  return -static_cast<int64_t>(Mag - 1) - 1;
}

// Magnitude helpers over raw limb ranges (little-endian base-2^32). Views
// let inline operands participate without being copied into a vector.

int compareMag(const uint32_t *A, size_t NA, const uint32_t *B, size_t NB) {
  if (NA != NB)
    return NA < NB ? -1 : 1;
  for (size_t I = NA; I-- > 0;)
    if (A[I] != B[I])
      return A[I] < B[I] ? -1 : 1;
  return 0;
}

std::vector<uint32_t> addMag(const uint32_t *A, size_t NA, const uint32_t *B,
                             size_t NB) {
  if (NA < NB) {
    std::swap(A, B);
    std::swap(NA, NB);
  }
  std::vector<uint32_t> Result;
  Result.reserve(NA + 1);
  uint64_t Carry = 0;
  for (size_t I = 0; I < NA; ++I) {
    uint64_t Sum = Carry + A[I] + (I < NB ? B[I] : 0);
    Result.push_back(static_cast<uint32_t>(Sum & 0xffffffffu));
    Carry = Sum >> 32;
  }
  if (Carry)
    Result.push_back(static_cast<uint32_t>(Carry));
  return Result;
}

/// Requires |A| >= |B|.
std::vector<uint32_t> subMag(const uint32_t *A, size_t NA, const uint32_t *B,
                             size_t NB) {
  assert(compareMag(A, NA, B, NB) >= 0 && "subMag requires |A| >= |B|");
  std::vector<uint32_t> Result;
  Result.reserve(NA);
  int64_t Borrow = 0;
  for (size_t I = 0; I < NA; ++I) {
    int64_t Diff = static_cast<int64_t>(A[I]) - Borrow -
                   (I < NB ? static_cast<int64_t>(B[I]) : 0);
    if (Diff < 0) {
      Diff += static_cast<int64_t>(LimbBase);
      Borrow = 1;
    } else {
      Borrow = 0;
    }
    Result.push_back(static_cast<uint32_t>(Diff));
  }
  while (!Result.empty() && Result.back() == 0)
    Result.pop_back();
  return Result;
}

std::vector<uint32_t> mulMag(const uint32_t *A, size_t NA, const uint32_t *B,
                             size_t NB) {
  if (NA == 0 || NB == 0)
    return {};
  std::vector<uint32_t> Result(NA + NB, 0);
  for (size_t I = 0; I < NA; ++I) {
    uint64_t Carry = 0;
    for (size_t J = 0; J < NB; ++J) {
      uint64_t Cur = Result[I + J] + static_cast<uint64_t>(A[I]) * B[J] + Carry;
      Result[I + J] = static_cast<uint32_t>(Cur & 0xffffffffu);
      Carry = Cur >> 32;
    }
    size_t K = I + NB;
    while (Carry) {
      uint64_t Cur = Result[K] + Carry;
      Result[K] = static_cast<uint32_t>(Cur & 0xffffffffu);
      Carry = Cur >> 32;
      ++K;
    }
  }
  while (!Result.empty() && Result.back() == 0)
    Result.pop_back();
  return Result;
}

/// Schoolbook long division on magnitudes; returns quotient, sets \p Rem.
std::vector<uint32_t> divModMag(const uint32_t *A, size_t NA,
                                const uint32_t *B, size_t NB,
                                std::vector<uint32_t> &Rem) {
  assert(NB != 0 && "division by zero magnitude");
  if (compareMag(A, NA, B, NB) < 0) {
    Rem.assign(A, A + NA);
    return {};
  }
  // Fast path: single-limb divisor.
  if (NB == 1) {
    uint64_t Div = B[0];
    std::vector<uint32_t> Quot(NA, 0);
    uint64_t Carry = 0;
    for (size_t I = NA; I-- > 0;) {
      uint64_t Cur = (Carry << 32) | A[I];
      Quot[I] = static_cast<uint32_t>(Cur / Div);
      Carry = Cur % Div;
    }
    while (!Quot.empty() && Quot.back() == 0)
      Quot.pop_back();
    Rem.clear();
    if (Carry)
      Rem.push_back(static_cast<uint32_t>(Carry));
    return Quot;
  }

  // General case: bitwise long division. Slow but simple and exact; the
  // synthesis pipeline keeps numbers small enough that this never dominates.
  std::vector<uint32_t> Quot(NA, 0);
  std::vector<uint32_t> Cur; // running remainder
  for (size_t LimbIdx = NA; LimbIdx-- > 0;) {
    for (int Bit = 31; Bit >= 0; --Bit) {
      // Cur = Cur * 2 + bit.
      uint32_t CarryBit = (A[LimbIdx] >> Bit) & 1;
      for (auto &Limb : Cur) {
        uint32_t NewCarry = Limb >> 31;
        Limb = (Limb << 1) | CarryBit;
        CarryBit = NewCarry;
      }
      if (CarryBit)
        Cur.push_back(CarryBit);
      if (compareMag(Cur.data(), Cur.size(), B, NB) >= 0) {
        Cur = subMag(Cur.data(), Cur.size(), B, NB);
        Quot[LimbIdx] |= uint32_t(1) << Bit;
      }
    }
  }
  while (!Quot.empty() && Quot.back() == 0)
    Quot.pop_back();
  Rem = std::move(Cur);
  return Quot;
}

} // namespace

//===----------------------------------------------------------------------===//
// Representation management
//===----------------------------------------------------------------------===//

void BigInt::constructHeapCopy(const BigInt &RHS) {
  assert(!RHS.IsInline && "heap copy of an inline value");
  new (&Heap) HeapRep(RHS.Heap);
  IsInline = false;
  bigIntHeapAccount(heapBytes());
}

void BigInt::constructHeapMove(BigInt &RHS) noexcept {
  assert(!RHS.IsInline && "heap move of an inline value");
  bigIntHeapAccount(-RHS.heapBytes());
  new (&Heap) HeapRep(std::move(RHS.Heap));
  IsInline = false;
  bigIntHeapAccount(heapBytes());
  // Leave the source in the canonical zero state so it stays usable.
  RHS.Heap.~HeapRep();
  RHS.IsInline = true;
  RHS.InlineValue = 0;
}

BigInt &BigInt::assignSlow(const BigInt &RHS) {
  if (this == &RHS)
    return *this;
  if (!IsInline && !RHS.IsInline) {
    bigIntHeapAccount(-heapBytes());
    Heap = RHS.Heap; // Reuses existing limb capacity.
    bigIntHeapAccount(heapBytes());
    return *this;
  }
  if (RHS.IsInline) {
    resetToInline(RHS.InlineValue);
    return *this;
  }
  // Inline -> heap.
  adoptHeap(RHS.Heap.Sign, std::vector<uint32_t>(RHS.Heap.Limbs));
  return *this;
}

BigInt &BigInt::moveAssignSlow(BigInt &&RHS) noexcept {
  if (this == &RHS)
    return *this;
  if (RHS.IsInline) {
    resetToInline(RHS.InlineValue);
    return *this;
  }
  if (!IsInline) {
    bigIntHeapAccount(-heapBytes() - RHS.heapBytes());
    Heap = std::move(RHS.Heap);
    bigIntHeapAccount(heapBytes());
  } else {
    bigIntHeapAccount(-RHS.heapBytes());
    adoptHeap(RHS.Heap.Sign, std::move(RHS.Heap.Limbs));
  }
  RHS.Heap.~HeapRep();
  RHS.IsInline = true;
  RHS.InlineValue = 0;
  return *this;
}

const uint32_t *BigInt::magnitude(uint32_t (&Buf)[2],
                                  size_t &NumLimbs) const {
  if (!IsInline) {
    NumLimbs = Heap.Limbs.size();
    return Heap.Limbs.data();
  }
  uint64_t Mag = absU64(InlineValue);
  Buf[0] = static_cast<uint32_t>(Mag & 0xffffffffu);
  Buf[1] = static_cast<uint32_t>(Mag >> 32);
  NumLimbs = Mag == 0 ? 0 : (Mag >> 32 ? 2 : 1);
  return Buf;
}

BigInt BigInt::fromSignMagnitude(int Sign, std::vector<uint32_t> Limbs) {
  while (!Limbs.empty() && Limbs.back() == 0)
    Limbs.pop_back();
  if (Limbs.empty())
    return BigInt();
  assert(Sign != 0 && "nonzero magnitude with zero sign");
  if (Limbs.size() <= 2) {
    uint64_t Mag = Limbs[0];
    if (Limbs.size() == 2)
      Mag |= static_cast<uint64_t>(Limbs[1]) << 32;
    // INT64_MIN's magnitude is 2^63; demote whenever the value fits.
    bool Fits = Sign < 0 ? Mag <= (uint64_t(1) << 63)
                         : Mag <= static_cast<uint64_t>(INT64_MAX);
    if (Fits)
      return BigInt(signedFromMagnitude(Mag, Sign < 0));
  }
  BigInt Result;
  Result.adoptHeap(static_cast<int8_t>(Sign < 0 ? -1 : 1), std::move(Limbs));
  return Result;
}

BigInt BigInt::fromInt128(__int128 Value) {
  if (Value >= INT64_MIN && Value <= INT64_MAX)
    return BigInt(static_cast<int64_t>(Value));
  bool Negative = Value < 0;
  unsigned __int128 Mag = Negative ? -static_cast<unsigned __int128>(Value)
                                   : static_cast<unsigned __int128>(Value);
  std::vector<uint32_t> Limbs;
  while (Mag) {
    Limbs.push_back(static_cast<uint32_t>(Mag & 0xffffffffu));
    Mag >>= 32;
  }
  BigInt Result;
  Result.adoptHeap(Negative ? -1 : 1, std::move(Limbs));
  return Result;
}

//===----------------------------------------------------------------------===//
// Parsing and printing
//===----------------------------------------------------------------------===//

BigInt::BigInt(std::string_view Decimal) : BigInt() {
  [[maybe_unused]] bool Ok = fromString(Decimal, *this);
  assert(Ok && "malformed decimal literal");
}

bool BigInt::fromString(std::string_view Decimal, BigInt &Out) {
  bool Negative = false;
  if (!Decimal.empty() && (Decimal[0] == '-' || Decimal[0] == '+')) {
    Negative = Decimal[0] == '-';
    Decimal.remove_prefix(1);
  }
  if (Decimal.empty())
    return false;

  BigInt Result;
  for (char C : Decimal) {
    if (C < '0' || C > '9')
      return false;
    // The in-place ops keep this inline (and allocation-free) for every
    // literal that fits in int64_t.
    Result *= BigInt(10);
    Result += BigInt(C - '0');
  }
  if (Negative)
    Result = -Result;
  Out = std::move(Result);
  return true;
}

std::string BigInt::toString() const {
  if (IsInline)
    return std::to_string(InlineValue);
  std::string Digits;
  std::vector<uint32_t> Mag = Heap.Limbs;
  while (!Mag.empty()) {
    // Divide magnitude by 10^9 and emit the remainder.
    uint64_t Carry = 0;
    for (size_t I = Mag.size(); I-- > 0;) {
      uint64_t Cur = (Carry << 32) | Mag[I];
      Mag[I] = static_cast<uint32_t>(Cur / 1000000000u);
      Carry = Cur % 1000000000u;
    }
    while (!Mag.empty() && Mag.back() == 0)
      Mag.pop_back();
    for (int I = 0; I < 9; ++I) {
      Digits.push_back(static_cast<char>('0' + Carry % 10));
      Carry /= 10;
    }
  }
  while (Digits.size() > 1 && Digits.back() == '0')
    Digits.pop_back();
  if (Heap.Sign < 0)
    Digits.push_back('-');
  std::reverse(Digits.begin(), Digits.end());
  return Digits;
}

//===----------------------------------------------------------------------===//
// Negation / absolute value
//===----------------------------------------------------------------------===//

BigInt BigInt::operator-() const {
  if (IsInline) {
    if (InlineValue != INT64_MIN)
      return BigInt(-InlineValue);
    // -INT64_MIN == 2^63 does not fit; promote.
    return fromSignMagnitude(1, {0u, 0x80000000u});
  }
  // Negating heap +2^63 lands exactly on INT64_MIN; fromSignMagnitude
  // re-canonicalizes (demotes) that one case.
  return fromSignMagnitude(-Heap.Sign, Heap.Limbs);
}

BigInt BigInt::abs() const { return isNegative() ? -*this : *this; }

//===----------------------------------------------------------------------===//
// Addition / subtraction
//===----------------------------------------------------------------------===//

BigInt BigInt::addSlow(const BigInt &A, const BigInt &B) {
  int SA = A.sign(), SB = B.sign();
  if (SA == 0)
    return B;
  if (SB == 0)
    return A;
  uint32_t BufA[2], BufB[2];
  size_t NA, NB;
  const uint32_t *MA = A.magnitude(BufA, NA);
  const uint32_t *MB = B.magnitude(BufB, NB);
  if (SA == SB)
    return fromSignMagnitude(SA, addMag(MA, NA, MB, NB));
  int Cmp = compareMag(MA, NA, MB, NB);
  if (Cmp == 0)
    return BigInt();
  return Cmp > 0 ? fromSignMagnitude(SA, subMag(MA, NA, MB, NB))
                 : fromSignMagnitude(SB, subMag(MB, NB, MA, NA));
}

BigInt BigInt::operator+(const BigInt &RHS) const {
  if (IsInline && RHS.IsInline) {
    int64_t Result;
    if (!__builtin_add_overflow(InlineValue, RHS.InlineValue, &Result))
      return BigInt(Result);
    return fromInt128(static_cast<__int128>(InlineValue) + RHS.InlineValue);
  }
  return addSlow(*this, RHS);
}

BigInt BigInt::operator-(const BigInt &RHS) const {
  if (IsInline && RHS.IsInline) {
    int64_t Result;
    if (!__builtin_sub_overflow(InlineValue, RHS.InlineValue, &Result))
      return BigInt(Result);
    return fromInt128(static_cast<__int128>(InlineValue) - RHS.InlineValue);
  }
  return addSlow(*this, -RHS);
}

BigInt &BigInt::operator+=(const BigInt &RHS) {
  if (IsInline && RHS.IsInline) {
    int64_t Result;
    if (!__builtin_add_overflow(InlineValue, RHS.InlineValue, &Result)) {
      InlineValue = Result;
      return *this;
    }
  }
  return *this = *this + RHS;
}

BigInt &BigInt::operator-=(const BigInt &RHS) {
  if (IsInline && RHS.IsInline) {
    int64_t Result;
    if (!__builtin_sub_overflow(InlineValue, RHS.InlineValue, &Result)) {
      InlineValue = Result;
      return *this;
    }
  }
  return *this = *this - RHS;
}

//===----------------------------------------------------------------------===//
// Multiplication
//===----------------------------------------------------------------------===//

BigInt BigInt::mulSlow(const BigInt &RHS) const {
  int SA = sign(), SB = RHS.sign();
  if (SA == 0 || SB == 0)
    return BigInt();
  uint32_t BufA[2], BufB[2];
  size_t NA, NB;
  const uint32_t *MA = magnitude(BufA, NA);
  const uint32_t *MB = RHS.magnitude(BufB, NB);
  return fromSignMagnitude(SA * SB, mulMag(MA, NA, MB, NB));
}

BigInt BigInt::operator*(const BigInt &RHS) const {
  if (IsInline && RHS.IsInline) {
    int64_t Result;
    if (!__builtin_mul_overflow(InlineValue, RHS.InlineValue, &Result))
      return BigInt(Result);
    return fromInt128(static_cast<__int128>(InlineValue) * RHS.InlineValue);
  }
  return mulSlow(RHS);
}

BigInt &BigInt::operator*=(const BigInt &RHS) {
  if (IsInline && RHS.IsInline) {
    int64_t Result;
    if (!__builtin_mul_overflow(InlineValue, RHS.InlineValue, &Result)) {
      InlineValue = Result;
      return *this;
    }
  }
  return *this = *this * RHS;
}

void BigInt::addMul(const BigInt &A, const BigInt &B) {
  if (IsInline && A.IsInline && B.IsInline) {
    int64_t Prod, Sum;
    if (!__builtin_mul_overflow(A.InlineValue, B.InlineValue, &Prod) &&
        !__builtin_add_overflow(InlineValue, Prod, &Sum)) {
      InlineValue = Sum;
      return;
    }
    // acc + a*b fits comfortably in 128 bits (|a*b| <= 2^126).
    *this = fromInt128(static_cast<__int128>(InlineValue) +
                       static_cast<__int128>(A.InlineValue) * B.InlineValue);
    return;
  }
  *this += A * B;
}

void BigInt::subMul(const BigInt &A, const BigInt &B) {
  if (IsInline && A.IsInline && B.IsInline) {
    int64_t Prod, Diff;
    if (!__builtin_mul_overflow(A.InlineValue, B.InlineValue, &Prod) &&
        !__builtin_sub_overflow(InlineValue, Prod, &Diff)) {
      InlineValue = Diff;
      return;
    }
    *this = fromInt128(static_cast<__int128>(InlineValue) -
                       static_cast<__int128>(A.InlineValue) * B.InlineValue);
    return;
  }
  *this -= A * B;
}

//===----------------------------------------------------------------------===//
// Division
//===----------------------------------------------------------------------===//

void BigInt::divMod(const BigInt &Num, const BigInt &Den, BigInt &Quot,
                    BigInt &Rem) {
  assert(!Den.isZero() && "division by zero");
  if (Num.IsInline && Den.IsInline) {
    int64_t N = Num.InlineValue, D = Den.InlineValue;
    if (N == INT64_MIN && D == -1) {
      // The lone int64/int64 quotient that overflows: |INT64_MIN| == 2^63.
      Quot = fromInt128(-static_cast<__int128>(INT64_MIN));
      Rem = BigInt();
      return;
    }
    Quot = BigInt(N / D);
    Rem = BigInt(N % D);
    return;
  }
  int NumSign = Num.sign(), DenSign = Den.sign();
  uint32_t BufA[2], BufB[2];
  size_t NA, NB;
  const uint32_t *MA = Num.magnitude(BufA, NA);
  const uint32_t *MB = Den.magnitude(BufB, NB);
  std::vector<uint32_t> RemMag;
  std::vector<uint32_t> QuotMag = divModMag(MA, NA, MB, NB, RemMag);
  // Compute both results before writing: Quot/Rem may alias Num/Den.
  BigInt QuotOut = fromSignMagnitude(NumSign * DenSign, std::move(QuotMag));
  BigInt RemOut = fromSignMagnitude(NumSign, std::move(RemMag));
  Quot = std::move(QuotOut);
  Rem = std::move(RemOut);
}

BigInt BigInt::operator/(const BigInt &RHS) const {
  BigInt Quot, Rem;
  divMod(*this, RHS, Quot, Rem);
  return Quot;
}

BigInt BigInt::operator%(const BigInt &RHS) const {
  BigInt Quot, Rem;
  divMod(*this, RHS, Quot, Rem);
  return Rem;
}

BigInt BigInt::floorDiv(const BigInt &RHS) const {
  BigInt Quot, Rem;
  divMod(*this, RHS, Quot, Rem);
  // Truncation equals floor unless signs differ and there is a remainder.
  if (!Rem.isZero() && sign() * RHS.sign() < 0)
    Quot -= BigInt(1);
  return Quot;
}

//===----------------------------------------------------------------------===//
// Comparison / gcd / hashing
//===----------------------------------------------------------------------===//

int BigInt::compareSlow(const BigInt &RHS) const {
  int SA = sign(), SB = RHS.sign();
  if (SA != SB)
    return SA < SB ? -1 : 1;
  // Same sign, at least one heap operand. Heap magnitudes are strictly
  // larger than any inline magnitude (canonical demotion), so mixed
  // comparisons are decided by the tag alone.
  if (IsInline != RHS.IsInline) {
    int HeapIsGreater = IsInline ? 1 : -1; // RHS heap => |RHS| > |this|.
    return SA > 0 ? -HeapIsGreater : HeapIsGreater;
  }
  int MagCmp = compareMag(Heap.Limbs.data(), Heap.Limbs.size(),
                          RHS.Heap.Limbs.data(), RHS.Heap.Limbs.size());
  return SA > 0 ? MagCmp : -MagCmp;
}

namespace {

/// Index of the lowest set bit of a nonzero magnitude.
size_t trailingZeroBits(const std::vector<uint32_t> &M) {
  size_t Limb = 0;
  while (M[Limb] == 0)
    ++Limb;
  return Limb * 32 +
         static_cast<size_t>(__builtin_ctz(M[Limb]));
}

/// In-place right shift of a magnitude by \p Bits (leading zeros stripped).
void shiftRightBits(std::vector<uint32_t> &M, size_t Bits) {
  size_t Limbs = Bits / 32;
  unsigned Rem = static_cast<unsigned>(Bits % 32);
  if (Limbs >= M.size()) {
    M.clear();
    return;
  }
  if (Limbs)
    M.erase(M.begin(), M.begin() + static_cast<std::ptrdiff_t>(Limbs));
  if (Rem) {
    for (size_t I = 0; I < M.size(); ++I) {
      uint32_t High = I + 1 < M.size() ? M[I + 1] : 0;
      M[I] = (M[I] >> Rem) | (High << (32 - Rem));
    }
  }
  while (!M.empty() && M.back() == 0)
    M.pop_back();
}

/// In-place left shift of a magnitude by \p Bits.
void shiftLeftBits(std::vector<uint32_t> &M, size_t Bits) {
  if (M.empty() || Bits == 0)
    return;
  size_t Limbs = Bits / 32;
  unsigned Rem = static_cast<unsigned>(Bits % 32);
  if (Rem) {
    uint32_t Carry = 0;
    for (size_t I = 0; I < M.size(); ++I) {
      uint32_t Cur = M[I];
      M[I] = (Cur << Rem) | Carry;
      Carry = Cur >> (32 - Rem);
    }
    if (Carry)
      M.push_back(Carry);
  }
  M.insert(M.begin(), Limbs, 0);
}

} // namespace

BigInt BigInt::gcd(const BigInt &A, const BigInt &B) {
  if (A.IsInline && B.IsInline) {
    uint64_t G = gcdU64(absU64(A.InlineValue), absU64(B.InlineValue));
    // gcd(INT64_MIN, 0) == 2^63 exceeds int64; route through int128.
    return fromInt128(static_cast<__int128>(G));
  }
  // At least one heap operand: binary (Stein) gcd on magnitudes. Each
  // round costs one compare and one subtraction plus shifts — no long
  // division — which matters because branch-and-bound scopes churn out
  // mid-size rationals whose normalization lands here once values
  // outgrow the inline fast path above (which stays division-based; for
  // machine words the hardware divider beats the shift loop).
  uint32_t BufA[2], BufB[2];
  size_t NA, NB;
  const uint32_t *MA = A.magnitude(BufA, NA);
  const uint32_t *MB = B.magnitude(BufB, NB);
  if (NA == 0)
    return B.abs();
  if (NB == 0)
    return A.abs();
  std::vector<uint32_t> X(MA, MA + NA);
  std::vector<uint32_t> Y(MB, MB + NB);
  size_t ShiftX = trailingZeroBits(X);
  size_t ShiftY = trailingZeroBits(Y);
  size_t Common = std::min(ShiftX, ShiftY);
  shiftRightBits(X, ShiftX);
  shiftRightBits(Y, ShiftY);
  // Both odd from here on: the difference of two distinct odd values is
  // even and nonzero, so every round strips at least one bit.
  while (true) {
    int Cmp = compareMag(X.data(), X.size(), Y.data(), Y.size());
    if (Cmp == 0)
      break;
    if (Cmp < 0)
      X.swap(Y);
    X = subMag(X.data(), X.size(), Y.data(), Y.size());
    shiftRightBits(X, trailingZeroBits(X));
  }
  shiftLeftBits(X, Common);
  return fromSignMagnitude(/*Sign=*/1, std::move(X));
}

BigInt BigInt::lcm(const BigInt &A, const BigInt &B) {
  if (A.isZero() || B.isZero())
    return BigInt();
  BigInt G = gcd(A, B);
  return (A.abs() / G) * B.abs();
}

size_t BigInt::hash() const {
  uint32_t Buf[2];
  size_t NumLimbs;
  const uint32_t *Limbs = magnitude(Buf, NumLimbs);
  // Hash sign + magnitude limbs so both representations of a value (were
  // canonicality ever relaxed) and all history of a value agree.
  size_t H = static_cast<size_t>(sign() + 1);
  for (size_t I = 0; I < NumLimbs; ++I)
    H = H * 1000003u + Limbs[I];
  return H;
}
