//===- synth/Poly.h - Unknowns and low-degree polynomials ------*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unknown pool and polynomial arithmetic for constraint-based
/// invariant synthesis (Section 4.2).
///
/// Farkas' lemma turns each inductiveness condition into equations between
/// template parameters and nonnegative multipliers. Because the antecedent
/// rows themselves carry parameters, the equations are *bilinear*:
/// products multiplier * parameter of total degree two. \c Poly represents
/// exactly this fragment (degree <= 2), and the solver resolves the
/// bilinearity by enumerating small integer values for the multipliers
/// that participate in quadratic monomials (the standard practical
/// technique for Colon-Sankaranarayanan-Sipma-style synthesis, replacing
/// the paper's SICStus CLP(Q) search).
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_SYNTH_POLY_H
#define PATHINV_SYNTH_POLY_H

#include "support/Rational.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pathinv {

/// What an unknown stands for; drives the solver's strategy.
enum class UnknownKind : uint8_t {
  Param,      ///< Template parameter (free rational).
  Multiplier, ///< Farkas multiplier for an inequality row (>= 0).
  FreeMult,   ///< Farkas multiplier for an equality row (free sign).
};

/// Registry of unknowns for one synthesis problem.
class UnknownPool {
public:
  int add(UnknownKind Kind, std::string Name) {
    Kinds.push_back(Kind);
    Names.push_back(std::move(Name));
    return static_cast<int>(Kinds.size()) - 1;
  }
  int size() const { return static_cast<int>(Kinds.size()); }
  UnknownKind kind(int Id) const { return Kinds[Id]; }
  const std::string &name(int Id) const { return Names[Id]; }

private:
  std::vector<UnknownKind> Kinds;
  std::vector<std::string> Names;
};

/// A monomial over unknowns of degree at most two. Canonical form:
/// (-1, -1) = constant, (-1, i) = unknown i, (i, j) with i <= j = product.
struct Monomial {
  int A = -1;
  int B = -1;

  static Monomial constant() { return {}; }
  static Monomial linear(int Id) { return {-1, Id}; }
  static Monomial quadratic(int I, int J) {
    return I <= J ? Monomial{I, J} : Monomial{J, I};
  }

  int degree() const { return (A >= 0 ? 1 : 0) + (B >= 0 ? 1 : 0); }
  bool operator<(const Monomial &RHS) const {
    return A != RHS.A ? A < RHS.A : B < RHS.B;
  }
  bool operator==(const Monomial &RHS) const {
    return A == RHS.A && B == RHS.B;
  }
};

/// Polynomial of degree <= 2 over unknowns, with rational coefficients.
/// Stored as a flat vector of (monomial, nonzero coefficient) terms
/// sorted by monomial: the constant term first, then linear terms by
/// unknown, then products. Iteration visits the terms in that order.
class Poly {
public:
  using Term = std::pair<Monomial, Rational>;

  Poly() = default;
  /// Constant polynomial.
  explicit Poly(Rational Constant) {
    if (!Constant.isZero())
      Terms.emplace_back(Monomial::constant(), std::move(Constant));
  }
  /// The single unknown \p Id.
  static Poly unknown(int Id) {
    Poly P;
    P.Terms.emplace_back(Monomial::linear(Id), Rational(1));
    return P;
  }

  bool isZero() const { return Terms.empty(); }
  bool isConstant() const {
    return Terms.empty() ||
           (Terms.size() == 1 && Terms.front().first.degree() == 0);
  }
  Rational constantValue() const {
    return !Terms.empty() && Terms.front().first.degree() == 0
               ? Terms.front().second
               : Rational();
  }
  bool isLinear() const {
    return Terms.empty() || Terms.back().first.degree() <= 1;
  }

  const std::vector<Term> &terms() const { return Terms; }

  void add(const Poly &RHS) { addMul(RHS, Rational(1)); }
  void sub(const Poly &RHS) { addMul(RHS, Rational(-1)); }
  void scale(const Rational &Factor) {
    if (Factor.isZero()) {
      Terms.clear();
      return;
    }
    for (Term &T : Terms)
      T.second *= Factor;
  }
  /// Accumulates `*this += RHS * Factor` without a temporary polynomial
  /// (alias-safe).
  void addMul(const Poly &RHS, const Rational &Factor);
  /// Accumulates `*this += A * B` (degree-checked): builds the product
  /// polynomial, normalizes it, then merges it in with add(). Serves the
  /// Farkas column-equation pattern `Sum.add(Lambda * Coeff)`.
  void addMul(const Poly &A, const Poly &B);

  Poly operator+(const Poly &RHS) const {
    Poly Result = *this;
    Result.add(RHS);
    return Result;
  }
  Poly operator-(const Poly &RHS) const {
    Poly Result = *this;
    Result.sub(RHS);
    return Result;
  }
  Poly operator*(const Rational &Factor) const {
    Poly Result = *this;
    Result.scale(Factor);
    return Result;
  }
  /// Product; asserts the result stays within degree 2.
  Poly operator*(const Poly &RHS) const;
  Poly operator-() const { return *this * Rational(-1); }
  bool operator==(const Poly &RHS) const { return Terms == RHS.Terms; }

  /// Substitutes concrete values for the given unknowns.
  Poly substitute(const std::map<int, Rational> &Values) const;

  /// Substitutes a single unknown (the multiplier-enumeration hot path:
  /// no map to build or probe). The overload writing into \p Out reuses
  /// Out's storage; \p Out must not be *this.
  Poly substituteOne(int Id, const Rational &Value) const;
  void substituteOne(int Id, const Rational &Value, Poly &Out) const;

  /// Unknown ids occurring in quadratic monomials.
  std::vector<int> quadraticUnknowns() const;

  /// Evaluates under a full assignment (asserts all unknowns assigned).
  Rational evaluate(const std::vector<Rational> &Assignment) const;

  std::string toString(const UnknownPool &Pool) const;

private:
  /// Sorts Terms by monomial, sums equal monomials and drops zeros.
  void normalize();

  std::vector<Term> Terms;
};

/// A constraint `P = 0` (IsEq) or `P >= 0` over the unknowns.
struct PolyConstraint {
  Poly P;
  bool IsEq = false;
};

} // namespace pathinv

#endif // PATHINV_SYNTH_POLY_H
