//===- smt/Simplex.cpp - Exact simplex for linear arithmetic -------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/Simplex.h"

#include "core/Resource.h"

#include <algorithm>
#include <iterator>

using namespace pathinv;

void Simplex::reset() {
  for (int Var = 0; Var < numVars(); ++Var)
    Rows[Var].clear();
  Vars.clear();
  Core.clear();
  HasConflict = false;
  UndoTrail.clear();
  Scopes.clear();
  NumPivots = 0;
}

int Simplex::addVar() {
  Vars.emplace_back();
  if (Rows.size() < Vars.size())
    Rows.emplace_back();
  return static_cast<int>(Vars.size()) - 1;
}

Simplex::Row::iterator Simplex::lowerBound(Row &R, int Var) {
  return std::lower_bound(
      R.begin(), R.end(), Var,
      [](const std::pair<int, Rational> &E, int V) { return E.first < V; });
}

Simplex::Row::iterator Simplex::findEntry(Row &R, int Var) {
  auto It = lowerBound(R, Var);
  return It != R.end() && It->first == Var ? It : R.end();
}

void Simplex::addScaledRow(Row &Dst, const Row &Src, const Rational &Factor,
                           int Skip) {
  Row &Out = MergeScratch;
  Out.clear();
  auto D = Dst.begin(), DEnd = Dst.end();
  auto S = Src.begin(), SEnd = Src.end();
  while (D != DEnd || S != SEnd) {
    if (D != DEnd && D->first == Skip) {
      ++D;
      continue;
    }
    if (S == SEnd || (D != DEnd && D->first < S->first)) {
      Out.push_back(std::move(*D));
      ++D;
    } else if (D == DEnd || S->first < D->first) {
      Out.emplace_back(S->first, Factor * S->second);
      ++S;
    } else {
      D->second.addMul(Factor, S->second);
      if (!D->second.isZero())
        Out.push_back(std::move(*D));
      ++D;
      ++S;
    }
  }
  // Moved back into Dst's own storage, not swapped: a swap would hand Dst
  // the scratch buffer, whose capacity only ever grows, and buffers passed
  // from row to row that way leave every row as large as the largest merge.
  Dst.assign(std::make_move_iterator(Out.begin()),
             std::make_move_iterator(Out.end()));
}

void Simplex::addConstraint(
    const std::vector<std::pair<int, Rational>> &Coeffs, SimplexRel Rel,
    const Rational &Rhs, int Tag) {
  if (HasConflict)
    return;

  // Accumulate repeated variables: sort a copy by var, then fold runs.
  Row &Sum = SumScratch;
  Sum.assign(Coeffs.begin(), Coeffs.end());
  std::sort(Sum.begin(), Sum.end(),
            [](const std::pair<int, Rational> &A,
               const std::pair<int, Rational> &B) { return A.first < B.first; });
  size_t Kept = 0;
  for (size_t I = 0; I < Sum.size();) {
    assert(Sum[I].first >= 0 && Sum[I].first < numVars() &&
           "constraint over unknown variable");
    size_t J = I + 1;
    for (; J < Sum.size() && Sum[J].first == Sum[I].first; ++J)
      Sum[I].second += Sum[J].second;
    if (!Sum[I].second.isZero()) {
      if (Kept != I)
        Sum[Kept] = std::move(Sum[I]);
      ++Kept;
    }
    I = J;
  }
  Sum.resize(Kept);

  if (Sum.empty()) {
    // Ground constraint: either trivially true or an immediate conflict.
    Rational Zero;
    bool Holds = true;
    switch (Rel) {
    case SimplexRel::Le:
      Holds = Zero <= Rhs;
      break;
    case SimplexRel::Lt:
      Holds = Zero < Rhs;
      break;
    case SimplexRel::Ge:
      Holds = Zero >= Rhs;
      break;
    case SimplexRel::Gt:
      Holds = Zero > Rhs;
      break;
    case SimplexRel::Eq:
      Holds = Rhs.isZero();
      break;
    }
    if (!Holds) {
      HasConflict = true;
      Core = {Tag};
    }
    return;
  }

  int BoundVar;
  Rational Scale(1);
  if (Sum.size() == 1) {
    // Single-variable constraint: bound the variable directly, dividing
    // through by the coefficient (flipping the relation when negative).
    BoundVar = Sum.front().first;
    Scale = Sum.front().second;
  } else {
    // Introduce a slack variable s = expr, substituting rows for any basic
    // variables so the row mentions only nonbasic ones. The row is built
    // in the slack's own slot, reusing the storage it kept over reset().
    BoundVar = addVar();
    Row &NewRow = Rows[BoundVar];
    DeltaRational Beta;
    for (const auto &[Var, Coeff] : Sum) {
      if (Vars[Var].Basic) {
        addScaledRow(NewRow, Rows[Var], Coeff);
      } else {
        auto It = lowerBound(NewRow, Var);
        if (It == NewRow.end() || It->first != Var) {
          NewRow.emplace(It, Var, Coeff);
        } else {
          It->second += Coeff;
          if (It->second.isZero())
            NewRow.erase(It);
        }
      }
      Beta.addMul(Vars[Var].Beta, Coeff);
    }
    Vars[BoundVar].Basic = true;
    Vars[BoundVar].Beta = Beta;
  }

  assertBound(BoundVar, Rel, Scale, Rhs, Tag);
}

void Simplex::assertBound(int Var, SimplexRel Rel, const Rational &Scale,
                          const Rational &Rhs, int Tag) {
  Rational Bound = Scale.isOne() ? Rhs : Rhs / Scale;
  SimplexRel EffRel = Rel;
  if (Scale.isNegative()) {
    switch (Rel) {
    case SimplexRel::Le:
      EffRel = SimplexRel::Ge;
      break;
    case SimplexRel::Lt:
      EffRel = SimplexRel::Gt;
      break;
    case SimplexRel::Ge:
      EffRel = SimplexRel::Le;
      break;
    case SimplexRel::Gt:
      EffRel = SimplexRel::Lt;
      break;
    case SimplexRel::Eq:
      break;
    }
  }

  switch (EffRel) {
  case SimplexRel::Le:
    assertUpper(Var, DeltaRational(Bound), Tag);
    break;
  case SimplexRel::Lt:
    assertUpper(Var, DeltaRational(Bound, Rational(-1)), Tag);
    break;
  case SimplexRel::Ge:
    assertLower(Var, DeltaRational(Bound), Tag);
    break;
  case SimplexRel::Gt:
    assertLower(Var, DeltaRational(Bound, Rational(1)), Tag);
    break;
  case SimplexRel::Eq:
    if (assertUpper(Var, DeltaRational(Bound), Tag))
      assertLower(Var, DeltaRational(Bound), Tag);
    break;
  }
}

void Simplex::addBound(int Var, SimplexRel Rel, const Rational &Rhs,
                       int Tag) {
  if (HasConflict)
    return;
  assert(Var >= 0 && Var < numVars() && "bound on unknown variable");
  assertBound(Var, Rel, Rational(1), Rhs, Tag);
}

void Simplex::recordBoundUndo(int Var, bool IsLower) {
  if (Scopes.empty())
    return;
  const VarState &VS = Vars[Var];
  UndoTrail.push_back({Var, IsLower, IsLower ? VS.Lower : VS.Upper});
}

void Simplex::push() {
  Scopes.push_back({UndoTrail.size(), numVars(), HasConflict});
}

void Simplex::pop() {
  assert(!Scopes.empty() && "pop without matching push");
  ScopeMark M = Scopes.back();
  Scopes.pop_back();
  // Restore bounds in reverse assertion order. Bounds only tighten within
  // a scope, so the surviving (looser) bounds are still satisfied by every
  // nonbasic variable's current assignment; basic violations are repaired
  // by the next check() as usual.
  for (size_t I = UndoTrail.size(); I-- > M.UndoMark;) {
    const BoundUndo &U = UndoTrail[I];
    (U.IsLower ? Vars[U.Var].Lower : Vars[U.Var].Upper) = U.Old;
  }
  UndoTrail.resize(M.UndoMark);
  // Variables introduced in the scope become unconstrained dead columns;
  // drop the rows they still own.
  for (int Var = M.VarMark; Var < numVars(); ++Var) {
    if (Vars[Var].Basic) {
      Rows[Var].clear();
      Vars[Var].Basic = false;
    }
  }
  if (!M.HadConflict) {
    HasConflict = false;
    Core.clear();
  }
}

bool Simplex::assertLower(int Var, const DeltaRational &Value, int Tag) {
  VarState &VS = Vars[Var];
  if (VS.Lower.Present && Value <= VS.Lower.Value)
    return true; // No tightening.
  if (VS.Upper.Present && VS.Upper.Value < Value) {
    HasConflict = true;
    Core = {Tag, VS.Upper.Tag};
    return false;
  }
  recordBoundUndo(Var, /*IsLower=*/true);
  VS.Lower = {Value, Tag, true};
  if (!VS.Basic && VS.Beta < Value)
    updateNonbasic(Var, Value);
  return true;
}

bool Simplex::assertUpper(int Var, const DeltaRational &Value, int Tag) {
  VarState &VS = Vars[Var];
  if (VS.Upper.Present && VS.Upper.Value <= Value)
    return true;
  if (VS.Lower.Present && Value < VS.Lower.Value) {
    HasConflict = true;
    Core = {Tag, VS.Lower.Tag};
    return false;
  }
  recordBoundUndo(Var, /*IsLower=*/false);
  VS.Upper = {Value, Tag, true};
  if (!VS.Basic && Value < VS.Beta)
    updateNonbasic(Var, Value);
  return true;
}

void Simplex::updateNonbasic(int Var, const DeltaRational &Value) {
  DeltaRational Diff = Value - Vars[Var].Beta;
  for (int BasicVar = 0; BasicVar < numVars(); ++BasicVar) {
    if (!Vars[BasicVar].Basic)
      continue;
    Row &TheRow = Rows[BasicVar];
    auto It = findEntry(TheRow, Var);
    if (It != TheRow.end())
      Vars[BasicVar].Beta.addMul(Diff, It->second);
  }
  Vars[Var].Beta = Value;
}

void Simplex::pivot(int Basic, int Nonbasic) {
  ++NumPivots;
  // Nonbasic's slot is empty (it is not basic) and receives its new row;
  // Basic's row is released once that row is built. Releasing, not
  // clearing: a nonbasic slot that kept its capacity would hold the
  // largest row it ever had, and a long-lived tableau would keep the peak
  // row size of every variable alive at once.
  Row &OldRow = Rows[Basic];
  Row &NewRow = Rows[Nonbasic];
  Rational PivotCoeff = findEntry(OldRow, Nonbasic)->second;
  assert(!PivotCoeff.isZero() && "pivot on zero coefficient");
  assert(NewRow.empty() && "nonbasic variable owns a row");

  // Express Nonbasic in terms of Basic and the remaining row variables:
  //   Basic = sum(a_k x_k)  ==>  Nonbasic = (Basic - sum_{k!=j} a_k x_k)/a_j
  NewRow.reserve(OldRow.size());
  bool BasicPlaced = false;
  for (const auto &[Var, Coeff] : OldRow) {
    if (!BasicPlaced && Basic < Var) {
      NewRow.emplace_back(Basic, PivotCoeff.inverse());
      BasicPlaced = true;
    }
    if (Var == Nonbasic)
      continue;
    NewRow.emplace_back(Var, -(Coeff / PivotCoeff));
  }
  if (!BasicPlaced)
    NewRow.emplace_back(Basic, PivotCoeff.inverse());
  Row().swap(OldRow);
  Vars[Basic].Basic = false;

  // Substitute into every other row that mentions Nonbasic.
  for (int OtherBasic = 0; OtherBasic < numVars(); ++OtherBasic) {
    if (!Vars[OtherBasic].Basic)
      continue;
    Row &OtherRow = Rows[OtherBasic];
    auto It = findEntry(OtherRow, Nonbasic);
    if (It == OtherRow.end())
      continue;
    Rational Factor = std::move(It->second);
    addScaledRow(OtherRow, NewRow, Factor, /*Skip=*/Nonbasic);
  }

  Vars[Nonbasic].Basic = true;
}

void Simplex::pivotAndUpdate(int Basic, int Nonbasic,
                             const DeltaRational &Target) {
  const Rational &Coeff = findEntry(Rows[Basic], Nonbasic)->second;
  DeltaRational Theta = (Target - Vars[Basic].Beta) * Coeff.inverse();
  Vars[Basic].Beta = Target;
  Vars[Nonbasic].Beta += Theta;
  for (int OtherBasic = 0; OtherBasic < numVars(); ++OtherBasic) {
    if (!Vars[OtherBasic].Basic || OtherBasic == Basic)
      continue;
    Row &TheRow = Rows[OtherBasic];
    auto It = findEntry(TheRow, Nonbasic);
    if (It != TheRow.end())
      Vars[OtherBasic].Beta.addMul(Theta, It->second);
  }
  pivot(Basic, Nonbasic);
}

Simplex::Result Simplex::check() {
  if (HasConflict)
    return Result::Unsat;

  while (true) {
    // Bland's rule: smallest-index basic variable violating a bound.
    int Violating = -1;
    bool BelowLower = false;
    for (int BasicVar = 0; BasicVar < numVars(); ++BasicVar) {
      const VarState &VS = Vars[BasicVar];
      if (!VS.Basic)
        continue;
      if (VS.Lower.Present && VS.Beta < VS.Lower.Value) {
        Violating = BasicVar;
        BelowLower = true;
        break;
      }
      if (VS.Upper.Present && VS.Upper.Value < VS.Beta) {
        Violating = BasicVar;
        BelowLower = false;
        break;
      }
    }
    if (Violating < 0)
      return Result::Sat;

    const Row &TheRow = Rows[Violating];
    int Entering = -1;
    for (const auto &[Var, Coeff] : TheRow) {
      const VarState &VS = Vars[Var];
      bool CanIncrease = !VS.Upper.Present || VS.Beta < VS.Upper.Value;
      bool CanDecrease = !VS.Lower.Present || VS.Lower.Value < VS.Beta;
      bool Suitable = BelowLower
                          ? (Coeff.isPositive() ? CanIncrease : CanDecrease)
                          : (Coeff.isPositive() ? CanDecrease : CanIncrease);
      if (Suitable) {
        Entering = Var; // Smallest index first (row is sorted): Bland.
        break;
      }
    }

    if (Entering < 0) {
      // Infeasible: the violated bound plus the blocking bounds of every
      // row variable form a Farkas-inconsistent set.
      HasConflict = true;
      Core.clear();
      const VarState &VS = Vars[Violating];
      Core.push_back(BelowLower ? VS.Lower.Tag : VS.Upper.Tag);
      for (const auto &[Var, Coeff] : TheRow) {
        const VarState &OV = Vars[Var];
        bool UseUpper = BelowLower ? Coeff.isPositive() : Coeff.isNegative();
        Core.push_back(UseUpper ? OV.Upper.Tag : OV.Lower.Tag);
      }
      return Result::Unsat;
    }

    if (!resourceCharge(ResourceKind::Pivots))
      return Result::Interrupted; // Between pivots: tableau consistent.

    pivotAndUpdate(Violating, Entering,
                   BelowLower ? Vars[Violating].Lower.Value
                              : Vars[Violating].Upper.Value);
  }
}

Rational Simplex::concretizeDelta() const {
  // Find delta > 0 such that replacing the infinitesimal by delta keeps
  // every bound satisfied: for beta = (br, bi) against bound (r, i) with
  // beta >= bound required, we need (br - r) + (bi - i) * delta >= 0.
  // When br > r and bi < i the constraint caps delta at (br-r)/(i-bi).
  Rational Delta(1);
  auto Cap = [&Delta](const DeltaRational &Beta, const DeltaRational &Bound,
                      bool BetaAtLeast) {
    Rational RealDiff = BetaAtLeast ? Beta.real() - Bound.real()
                                    : Bound.real() - Beta.real();
    Rational InfDiff = BetaAtLeast
                           ? Beta.infinitesimal() - Bound.infinitesimal()
                           : Bound.infinitesimal() - Beta.infinitesimal();
    if (InfDiff.isNegative() && RealDiff.isPositive()) {
      Rational Limit = RealDiff / (-InfDiff);
      if (Limit < Delta)
        Delta = Limit;
    }
  };
  for (const VarState &VS : Vars) {
    if (VS.Lower.Present)
      Cap(VS.Beta, VS.Lower.Value, /*BetaAtLeast=*/true);
    if (VS.Upper.Present)
      Cap(VS.Beta, VS.Upper.Value, /*BetaAtLeast=*/false);
  }
  // Halve to stay strictly inside open comparisons.
  return Delta / Rational(2);
}

Rational Simplex::modelValue(int Var) const {
  assert(Var >= 0 && Var < numVars() && "model of unknown variable");
  Rational Delta = concretizeDelta();
  const DeltaRational &Beta = Vars[Var].Beta;
  return Beta.real() + Beta.infinitesimal() * Delta;
}

std::vector<Rational> Simplex::model() const {
  Rational Delta = concretizeDelta();
  std::vector<Rational> Result;
  Result.reserve(Vars.size());
  for (const VarState &VS : Vars)
    Result.push_back(VS.Beta.real() + VS.Beta.infinitesimal() * Delta);
  return Result;
}
