//===- synth/Poly.cpp - Unknowns and low-degree polynomials ----------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "synth/Poly.h"

#include <algorithm>
#include <cassert>

using namespace pathinv;

namespace {

/// Product monomial of \p M1 and \p M2; asserts the degree stays <= 2.
Monomial mulMonomial(const Monomial &M1, const Monomial &M2) {
  int Degree = M1.degree() + M2.degree();
  assert(Degree <= 2 && "polynomial degree above two");
  if (Degree == 0)
    return Monomial::constant();
  if (Degree == 1)
    return Monomial::linear(M1.degree() == 1 ? M1.B : M2.B);
  if (M1.degree() == 2)
    return M1;
  if (M2.degree() == 2)
    return M2;
  return Monomial::quadratic(M1.B, M2.B);
}

} // namespace

void Poly::normalize() {
  std::sort(Terms.begin(), Terms.end(), [](const Term &X, const Term &Y) {
    return X.first < Y.first;
  });
  size_t Kept = 0;
  for (size_t I = 0; I < Terms.size();) {
    size_t J = I + 1;
    for (; J < Terms.size() && Terms[J].first == Terms[I].first; ++J)
      Terms[I].second += Terms[J].second;
    if (!Terms[I].second.isZero()) {
      if (Kept != I)
        Terms[Kept] = std::move(Terms[I]);
      ++Kept;
    }
    I = J;
  }
  Terms.resize(Kept);
}

void Poly::addMul(const Poly &RHS, const Rational &Factor) {
  if (Factor.isZero() || RHS.Terms.empty())
    return;
  if (&RHS == this) {
    scale(Factor + Rational(1));
    return;
  }
  std::vector<Term> Merged;
  Merged.reserve(Terms.size() + RHS.Terms.size());
  auto D = Terms.begin(), DEnd = Terms.end();
  auto S = RHS.Terms.begin(), SEnd = RHS.Terms.end();
  while (D != DEnd || S != SEnd) {
    if (S == SEnd || (D != DEnd && D->first < S->first)) {
      Merged.push_back(std::move(*D));
      ++D;
    } else if (D == DEnd || S->first < D->first) {
      Merged.emplace_back(S->first, S->second * Factor);
      ++S;
    } else {
      D->second.addMul(S->second, Factor);
      if (!D->second.isZero())
        Merged.push_back(std::move(*D));
      ++D;
      ++S;
    }
  }
  Terms.swap(Merged);
}

Poly Poly::operator*(const Poly &RHS) const {
  Poly Result;
  Result.addMul(*this, RHS);
  return Result;
}

void Poly::addMul(const Poly &A, const Poly &B) {
  Poly Product;
  Product.Terms.reserve(A.Terms.size() * B.Terms.size());
  for (const auto &[M1, C1] : A.Terms)
    for (const auto &[M2, C2] : B.Terms)
      Product.Terms.emplace_back(mulMonomial(M1, M2), C1 * C2);
  Product.normalize();
  add(Product);
}

void Poly::substituteOne(int Id, const Rational &Value, Poly &Out) const {
  // -1 is the empty-slot sentinel inside Monomial; matching it below
  // would spin forever without making progress.
  assert(Id >= 0 && "substituteOne over the empty-slot sentinel");
  assert(&Out != this && "substituteOne into its own source");
  Out.Terms.resize(Terms.size());
  size_t N = 0;
  bool Moved = false; // Some monomial changed, so order may have too.
  for (const auto &[M, C] : Terms) {
    Term &T = Out.Terms[N];
    T.first = M;
    T.second = C;
    // A quadratic monomial may mention Id twice (Id*Id).
    while (T.first.B == Id || T.first.A == Id) {
      if (T.first.B == Id) {
        T.first.B = T.first.A;
        T.first.A = -1;
      } else {
        T.first.A = -1;
      }
      T.second *= Value;
      Moved = true;
    }
    if (!T.second.isZero())
      ++N;
  }
  Out.Terms.resize(N);
  if (Moved)
    Out.normalize();
}

Poly Poly::substituteOne(int Id, const Rational &Value) const {
  Poly Result;
  substituteOne(Id, Value, Result);
  return Result;
}

Poly Poly::substitute(const std::map<int, Rational> &Values) const {
  Poly Result;
  for (const auto &[M, C] : Terms) {
    Rational Coeff = C;
    int RemainA = -1, RemainB = -1;
    for (int Id : {M.A, M.B}) {
      if (Id < 0)
        continue;
      auto It = Values.find(Id);
      if (It != Values.end()) {
        Coeff *= It->second;
      } else if (RemainA < 0) {
        RemainA = Id;
      } else {
        RemainB = Id;
      }
    }
    if (Coeff.isZero())
      continue;
    Monomial NewM;
    if (RemainA < 0)
      NewM = Monomial::constant();
    else if (RemainB < 0)
      NewM = Monomial::linear(RemainA);
    else
      NewM = Monomial::quadratic(RemainA, RemainB);
    Result.Terms.emplace_back(NewM, std::move(Coeff));
  }
  Result.normalize();
  return Result;
}

std::vector<int> Poly::quadraticUnknowns() const {
  std::vector<int> Out;
  for (const auto &[M, C] : Terms) {
    if (M.degree() == 2) {
      Out.push_back(M.A);
      Out.push_back(M.B);
    }
  }
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

Rational Poly::evaluate(const std::vector<Rational> &Assignment) const {
  Rational Result;
  for (const auto &[M, C] : Terms) {
    Rational Value = C;
    if (M.A >= 0) {
      assert(M.A < static_cast<int>(Assignment.size()));
      Value *= Assignment[M.A];
    }
    if (M.B >= 0) {
      assert(M.B < static_cast<int>(Assignment.size()));
      Value *= Assignment[M.B];
    }
    Result += Value;
  }
  return Result;
}

std::string Poly::toString(const UnknownPool &Pool) const {
  if (Terms.empty())
    return "0";
  std::string Out;
  bool First = true;
  for (const auto &[M, C] : Terms) {
    if (!First)
      Out += C.isNegative() ? " - " : " + ";
    else if (C.isNegative())
      Out += "-";
    First = false;
    Rational AbsC = C.abs();
    bool NeedCoeff = !AbsC.isOne() || M.degree() == 0;
    if (NeedCoeff)
      Out += AbsC.toString();
    if (M.B >= 0) {
      if (NeedCoeff)
        Out += "*";
      if (M.A >= 0)
        Out += Pool.name(M.A) + "*";
      Out += Pool.name(M.B);
    }
  }
  return Out;
}
