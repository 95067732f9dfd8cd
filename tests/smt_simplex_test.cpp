//===- tests/smt_simplex_test.cpp - Simplex unit/property tests -----------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/Simplex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace pathinv;

namespace {

TEST(SimplexTest, TrivialFeasible) {
  Simplex S;
  int X = S.addVar();
  S.addBound(X, SimplexRel::Ge, Rational(1), 0);
  S.addBound(X, SimplexRel::Le, Rational(3), 1);
  ASSERT_EQ(S.check(), Simplex::Result::Sat);
  Rational V = S.modelValue(X);
  EXPECT_GE(V, Rational(1));
  EXPECT_LE(V, Rational(3));
}

TEST(SimplexTest, DirectBoundConflict) {
  Simplex S;
  int X = S.addVar();
  S.addBound(X, SimplexRel::Ge, Rational(5), 7);
  S.addBound(X, SimplexRel::Le, Rational(3), 9);
  EXPECT_EQ(S.check(), Simplex::Result::Unsat);
  auto Core = S.unsatCore();
  EXPECT_EQ(Core.size(), 2u);
  EXPECT_TRUE((Core[0] == 7 && Core[1] == 9) ||
              (Core[0] == 9 && Core[1] == 7));
}

TEST(SimplexTest, StrictBoundsSeparate) {
  // x < 1 && x > 0 is satisfiable over rationals.
  Simplex S;
  int X = S.addVar();
  S.addBound(X, SimplexRel::Lt, Rational(1), 0);
  S.addBound(X, SimplexRel::Gt, Rational(0), 1);
  ASSERT_EQ(S.check(), Simplex::Result::Sat);
  Rational V = S.modelValue(X);
  EXPECT_LT(V, Rational(1));
  EXPECT_GT(V, Rational(0));
}

TEST(SimplexTest, StrictConflict) {
  // x < 1 && x > 1 is unsat; so is x < 1 && x >= 1.
  {
    Simplex S;
    int X = S.addVar();
    S.addBound(X, SimplexRel::Lt, Rational(1), 0);
    S.addBound(X, SimplexRel::Gt, Rational(1), 1);
    EXPECT_EQ(S.check(), Simplex::Result::Unsat);
  }
  {
    Simplex S;
    int X = S.addVar();
    S.addBound(X, SimplexRel::Lt, Rational(1), 0);
    S.addBound(X, SimplexRel::Ge, Rational(1), 1);
    EXPECT_EQ(S.check(), Simplex::Result::Unsat);
  }
}

TEST(SimplexTest, StrictBoundaryPointExcluded) {
  // x + y <= 2 && x >= 1 && y >= 1 && x < 1 is unsat (x pinned to 1).
  Simplex S;
  int X = S.addVar();
  int Y = S.addVar();
  S.addConstraint({{X, Rational(1)}, {Y, Rational(1)}}, SimplexRel::Le,
                  Rational(2), 0);
  S.addBound(X, SimplexRel::Ge, Rational(1), 1);
  S.addBound(Y, SimplexRel::Ge, Rational(1), 2);
  ASSERT_EQ(S.check(), Simplex::Result::Sat);
  Simplex S2;
  X = S2.addVar();
  Y = S2.addVar();
  S2.addConstraint({{X, Rational(1)}, {Y, Rational(1)}}, SimplexRel::Le,
                   Rational(2), 0);
  S2.addBound(X, SimplexRel::Gt, Rational(1), 1);
  S2.addBound(Y, SimplexRel::Ge, Rational(1), 2);
  EXPECT_EQ(S2.check(), Simplex::Result::Unsat);
}

TEST(SimplexTest, EqualityChainPropagation) {
  // x = y && y = z && x >= 3 && z <= 2 is unsat.
  Simplex S;
  int X = S.addVar(), Y = S.addVar(), Z = S.addVar();
  S.addConstraint({{X, Rational(1)}, {Y, Rational(-1)}}, SimplexRel::Eq,
                  Rational(0), 0);
  S.addConstraint({{Y, Rational(1)}, {Z, Rational(-1)}}, SimplexRel::Eq,
                  Rational(0), 1);
  S.addBound(X, SimplexRel::Ge, Rational(3), 2);
  S.addBound(Z, SimplexRel::Le, Rational(2), 3);
  EXPECT_EQ(S.check(), Simplex::Result::Unsat);
}

TEST(SimplexTest, PaperPathFormulaRationalRelaxation) {
  // The FORWARD counterexample path formula of Section 2.1:
  //   n0 >= 0 && i1 = 0 && a1 = 0 && b1 = 0 && i1 < n0 &&
  //   a2 = a1 + 1 && b2 = b1 + 2 && i2 = i1 + 1 && i2 >= n0 &&
  //   a2 + b2 != 3 n0
  // Over the *rationals* the '>' branch has a model (n0 = 1/2); only the
  // '<' branch is rationally infeasible. The integer-level infeasibility
  // is established by branch-and-bound in the theory solver (see
  // SmtTest.PaperPathFormulaIntegerUnsat).
  auto build = [](bool GreaterBranch) {
    Simplex S;
    int N0 = S.addVar(), I1 = S.addVar(), A1 = S.addVar(), B1 = S.addVar();
    int A2 = S.addVar(), B2 = S.addVar(), I2 = S.addVar();
    S.addBound(N0, SimplexRel::Ge, Rational(0), 0);
    S.addBound(I1, SimplexRel::Eq, Rational(0), 1);
    S.addBound(A1, SimplexRel::Eq, Rational(0), 2);
    S.addBound(B1, SimplexRel::Eq, Rational(0), 3);
    S.addConstraint({{I1, Rational(1)}, {N0, Rational(-1)}}, SimplexRel::Lt,
                    Rational(0), 4);
    S.addConstraint({{A2, Rational(1)}, {A1, Rational(-1)}}, SimplexRel::Eq,
                    Rational(1), 5);
    S.addConstraint({{B2, Rational(1)}, {B1, Rational(-1)}}, SimplexRel::Eq,
                    Rational(2), 6);
    S.addConstraint({{I2, Rational(1)}, {I1, Rational(-1)}}, SimplexRel::Eq,
                    Rational(1), 7);
    S.addConstraint({{I2, Rational(1)}, {N0, Rational(-1)}}, SimplexRel::Ge,
                    Rational(0), 8);
    S.addConstraint({{A2, Rational(1)}, {B2, Rational(1)},
                     {N0, Rational(-3)}},
                    GreaterBranch ? SimplexRel::Gt : SimplexRel::Lt,
                    Rational(0), 9);
    return S.check();
  };
  EXPECT_EQ(build(true), Simplex::Result::Sat);
  EXPECT_EQ(build(false), Simplex::Result::Unsat);
}

TEST(SimplexTest, UnboundedDirectionIsFeasible) {
  Simplex S;
  int X = S.addVar(), Y = S.addVar();
  // x - y >= 10 with no other bounds: feasible.
  S.addConstraint({{X, Rational(1)}, {Y, Rational(-1)}}, SimplexRel::Ge,
                  Rational(10), 0);
  ASSERT_EQ(S.check(), Simplex::Result::Sat);
  EXPECT_GE(S.modelValue(X) - S.modelValue(Y), Rational(10));
}

TEST(SimplexTest, RepeatedVariableAccumulates) {
  // x + x + x <= 3 is x <= 1.
  Simplex S;
  int X = S.addVar();
  S.addConstraint({{X, Rational(1)}, {X, Rational(1)}, {X, Rational(1)}},
                  SimplexRel::Le, Rational(3), 0);
  S.addBound(X, SimplexRel::Gt, Rational(1), 1);
  EXPECT_EQ(S.check(), Simplex::Result::Unsat);
}

TEST(SimplexTest, GroundConflict) {
  Simplex S;
  (void)S.addVar();
  // 0 <= -1 as a constraint with no variables.
  S.addConstraint({}, SimplexRel::Le, Rational(-1), 42);
  EXPECT_EQ(S.check(), Simplex::Result::Unsat);
  ASSERT_EQ(S.unsatCore().size(), 1u);
  EXPECT_EQ(S.unsatCore()[0], 42);
}

TEST(SimplexTest, IncrementalAddAfterCheck) {
  Simplex S;
  int X = S.addVar(), Y = S.addVar();
  S.addConstraint({{X, Rational(1)}, {Y, Rational(1)}}, SimplexRel::Le,
                  Rational(4), 0);
  ASSERT_EQ(S.check(), Simplex::Result::Sat);
  S.addBound(X, SimplexRel::Ge, Rational(3), 1);
  ASSERT_EQ(S.check(), Simplex::Result::Sat);
  S.addBound(Y, SimplexRel::Ge, Rational(2), 2);
  EXPECT_EQ(S.check(), Simplex::Result::Unsat);
}

TEST(SimplexTest, NegativeCoefficientBoundFlip) {
  // -2x <= -6  means x >= 3.
  Simplex S;
  int X = S.addVar();
  S.addConstraint({{X, Rational(-2)}}, SimplexRel::Le, Rational(-6), 0);
  S.addBound(X, SimplexRel::Lt, Rational(3), 1);
  EXPECT_EQ(S.check(), Simplex::Result::Unsat);
}

// Property test: on random constraint systems, SAT models must satisfy
// every constraint, and UNSAT cores must be infeasible when re-solved
// alone. This is a self-certifying check that needs no external oracle.
class SimplexRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomTest, ModelsAndCoresAreCertified) {
  std::mt19937_64 Rng(GetParam());
  for (int Round = 0; Round < 60; ++Round) {
    int NumVars = 2 + static_cast<int>(Rng() % 4);
    int NumCons = 1 + static_cast<int>(Rng() % 8);
    struct Con {
      std::vector<std::pair<int, Rational>> Coeffs;
      SimplexRel Rel;
      Rational Rhs;
    };
    std::vector<Con> Cons;
    Simplex S;
    for (int I = 0; I < NumVars; ++I)
      S.addVar();
    for (int C = 0; C < NumCons; ++C) {
      Con Constraint;
      for (int V = 0; V < NumVars; ++V) {
        int64_t Coeff = static_cast<int64_t>(Rng() % 7) - 3;
        if (Coeff != 0)
          Constraint.Coeffs.emplace_back(V, Rational(Coeff));
      }
      Constraint.Rel = static_cast<SimplexRel>(Rng() % 5);
      Constraint.Rhs = Rational(static_cast<int64_t>(Rng() % 21) - 10);
      S.addConstraint(Constraint.Coeffs, Constraint.Rel, Constraint.Rhs, C);
      Cons.push_back(std::move(Constraint));
    }
    if (S.check() == Simplex::Result::Sat) {
      std::vector<Rational> M = S.model();
      for (const Con &C : Cons) {
        Rational Lhs;
        for (const auto &[V, Coeff] : C.Coeffs)
          Lhs += Coeff * M[V];
        switch (C.Rel) {
        case SimplexRel::Le:
          EXPECT_LE(Lhs, C.Rhs);
          break;
        case SimplexRel::Lt:
          EXPECT_LT(Lhs, C.Rhs);
          break;
        case SimplexRel::Ge:
          EXPECT_GE(Lhs, C.Rhs);
          break;
        case SimplexRel::Gt:
          EXPECT_GT(Lhs, C.Rhs);
          break;
        case SimplexRel::Eq:
          EXPECT_EQ(Lhs, C.Rhs);
          break;
        }
      }
    } else {
      // The reported core alone must be infeasible.
      std::vector<int> Core = S.unsatCore();
      Simplex S2;
      for (int I = 0; I < NumVars; ++I)
        S2.addVar();
      for (int Tag : Core) {
        ASSERT_GE(Tag, 0);
        ASSERT_LT(Tag, static_cast<int>(Cons.size()));
        S2.addConstraint(Cons[Tag].Coeffs, Cons[Tag].Rel, Cons[Tag].Rhs,
                         Tag);
      }
      EXPECT_EQ(S2.check(), Simplex::Result::Unsat)
          << "unsat core is not itself unsat";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomTest,
                         ::testing::Range(1, 11));

// Regression coverage for push/pop interacting with the accumulate-API
// pivoting: a scoped pivot storm — batches of dense constraints asserted
// inside scopes, solved (forcing many pivots through addMul), then popped
// — after which every batch verdict is differentially re-checked against
// a from-scratch solve, and the base system must still answer exactly as
// it did before the storm.
TEST(SimplexScopedPivotStormTest, PopRestoresAndMatchesFreshSolves) {
  std::mt19937_64 Rng(0xdeadbeef);
  constexpr int NumVars = 6;

  struct Con {
    std::vector<std::pair<int, Rational>> Coeffs;
    SimplexRel Rel;
    Rational Rhs;
  };
  auto randomBatch = [&Rng](int Tag0) {
    std::vector<std::pair<Con, int>> Batch;
    int NumCons = 2 + static_cast<int>(Rng() % 5);
    for (int C = 0; C < NumCons; ++C) {
      Con Constraint;
      for (int V = 0; V < NumVars; ++V) {
        // Fractional coefficients force rational (not integer) pivots.
        int64_t Num = static_cast<int64_t>(Rng() % 9) - 4;
        int64_t Den = 1 + static_cast<int64_t>(Rng() % 3);
        if (Num != 0)
          Constraint.Coeffs.emplace_back(V, Rational::fraction(Num, Den));
      }
      Constraint.Rel = static_cast<SimplexRel>(Rng() % 5);
      Constraint.Rhs = Rational(static_cast<int64_t>(Rng() % 13) - 6);
      Batch.emplace_back(std::move(Constraint), Tag0 + C);
    }
    return Batch;
  };

  // Shared base system (kept satisfiable): box bounds plus one dense row.
  Simplex S;
  std::vector<Con> BaseCons;
  for (int V = 0; V < NumVars; ++V)
    S.addVar();
  for (int V = 0; V < NumVars; ++V) {
    BaseCons.push_back({{{V, Rational(1)}}, SimplexRel::Ge, Rational(-20)});
    BaseCons.push_back({{{V, Rational(1)}}, SimplexRel::Le, Rational(20)});
  }
  {
    Con Dense;
    for (int V = 0; V < NumVars; ++V)
      Dense.Coeffs.emplace_back(V, Rational::fraction(V + 1, 2));
    Dense.Rel = SimplexRel::Le;
    Dense.Rhs = Rational(15);
    BaseCons.push_back(std::move(Dense));
  }
  for (size_t I = 0; I < BaseCons.size(); ++I)
    S.addConstraint(BaseCons[I].Coeffs, BaseCons[I].Rel, BaseCons[I].Rhs,
                    static_cast<int>(I));
  ASSERT_EQ(S.check(), Simplex::Result::Sat);
  std::vector<Rational> BaseModel = S.model();

  // The storm: scoped batches, recording each verdict.
  std::vector<std::pair<std::vector<std::pair<Con, int>>, Simplex::Result>>
      Recorded;
  for (int Round = 0; Round < 120; ++Round) {
    auto Batch = randomBatch(1000 + Round * 16);
    S.push();
    for (const auto &[C, Tag] : Batch)
      S.addConstraint(C.Coeffs, C.Rel, C.Rhs, Tag);
    Simplex::Result R = S.check();
    if (R == Simplex::Result::Sat) {
      // The scoped model must satisfy base and batch alike.
      std::vector<Rational> M = S.model();
      auto holds = [&M](const Con &C) {
        Rational Lhs;
        for (const auto &[V, Coeff] : C.Coeffs)
          Lhs.addMul(Coeff, M[V]);
        switch (C.Rel) {
        case SimplexRel::Le:
          return Lhs <= C.Rhs;
        case SimplexRel::Lt:
          return Lhs < C.Rhs;
        case SimplexRel::Ge:
          return Lhs >= C.Rhs;
        case SimplexRel::Gt:
          return Lhs > C.Rhs;
        case SimplexRel::Eq:
          return Lhs == C.Rhs;
        }
        return false;
      };
      for (const Con &C : BaseCons)
        ASSERT_TRUE(holds(C)) << "scoped model violates the base, round "
                              << Round;
      for (const auto &[C, Tag] : Batch)
        ASSERT_TRUE(holds(C)) << "scoped model violates batch, round "
                              << Round;
    }
    S.pop();
    Recorded.emplace_back(std::move(Batch), R);

    // After the pop, the base must still be satisfiable and the model
    // must still satisfy every base constraint.
    ASSERT_EQ(S.check(), Simplex::Result::Sat) << "round " << Round;
  }

  // Differential re-check: every recorded verdict must match a fresh
  // solver fed base + batch from scratch.
  for (size_t I = 0; I < Recorded.size(); ++I) {
    const auto &[Batch, Expected] = Recorded[I];
    Simplex Fresh;
    for (int V = 0; V < NumVars; ++V)
      Fresh.addVar();
    for (size_t J = 0; J < BaseCons.size(); ++J)
      Fresh.addConstraint(BaseCons[J].Coeffs, BaseCons[J].Rel,
                          BaseCons[J].Rhs, static_cast<int>(J));
    for (const auto &[C, Tag] : Batch)
      Fresh.addConstraint(C.Coeffs, C.Rel, C.Rhs, Tag);
    EXPECT_EQ(Fresh.check(), Expected)
        << "scoped verdict diverges from fresh solve for batch " << I;
  }

  // And the storm-surviving tableau still answers base queries exactly.
  // (Popped scopes leave dead slack columns behind, so the model can have
  // grown — but the original columns must still satisfy the base.)
  ASSERT_EQ(S.check(), Simplex::Result::Sat);
  std::vector<Rational> After = S.model();
  ASSERT_GE(After.size(), BaseModel.size());
  for (const Con &C : BaseCons) {
    Rational Lhs;
    for (const auto &[V, Coeff] : C.Coeffs)
      Lhs.addMul(Coeff, After[V]);
    switch (C.Rel) {
    case SimplexRel::Le:
      EXPECT_LE(Lhs, C.Rhs);
      break;
    case SimplexRel::Lt:
      EXPECT_LT(Lhs, C.Rhs);
      break;
    case SimplexRel::Ge:
      EXPECT_GE(Lhs, C.Rhs);
      break;
    case SimplexRel::Gt:
      EXPECT_GT(Lhs, C.Rhs);
      break;
    case SimplexRel::Eq:
      EXPECT_EQ(Lhs, C.Rhs);
      break;
    }
  }
}


// A tableau reused through reset() must behave exactly like a fresh one:
// same verdict, same core, same model and the same number of pivots (the
// synthesis search's leaf filter relies on this to keep its pivot counts
// and resource charges unchanged). Each LP also opens a scope for its
// second half, so reset() is exercised with scopes, dead columns and
// conflicts left behind by the previous LP.
TEST(SimplexResetTest, ReusedTableauMatchesFreshOnRandomLps) {
  std::mt19937_64 Rng(0x5eed);
  struct Con {
    std::vector<std::pair<int, Rational>> Coeffs;
    SimplexRel Rel;
    Rational Rhs;
  };
  Simplex Reused;
  int Unsat = 0;
  for (int Round = 0; Round < 400; ++Round) {
    int NumVars = 1 + static_cast<int>(Rng() % 6);
    int NumCons = 1 + static_cast<int>(Rng() % 9);
    std::vector<Con> Cons;
    for (int C = 0; C < NumCons; ++C) {
      Con Constraint;
      for (int V = 0; V < NumVars; ++V) {
        int64_t Num = static_cast<int64_t>(Rng() % 9) - 4;
        int64_t Den = 1 + static_cast<int64_t>(Rng() % 2);
        if (Num != 0)
          Constraint.Coeffs.emplace_back(V, Rational::fraction(Num, Den));
      }
      Constraint.Rel = static_cast<SimplexRel>(Rng() % 5);
      Constraint.Rhs = Rational(static_cast<int64_t>(Rng() % 17) - 8);
      Cons.push_back(std::move(Constraint));
    }
    auto run = [&](Simplex &S) {
      for (int I = 0; I < NumVars; ++I)
        S.addVar();
      for (int C = 0; C < NumCons; ++C) {
        if (C == NumCons / 2)
          S.push();
        S.addConstraint(Cons[C].Coeffs, Cons[C].Rel, Cons[C].Rhs, C);
      }
      return S.check();
    };
    Reused.reset();
    EXPECT_EQ(Reused.numVars(), 0);
    EXPECT_EQ(Reused.numScopes(), 0u);
    EXPECT_EQ(Reused.numPivots(), 0u);
    Simplex Fresh;
    Simplex::Result RR = run(Reused);
    Simplex::Result RF = run(Fresh);
    ASSERT_EQ(RR, RF) << "round " << Round;
    EXPECT_EQ(Reused.numPivots(), Fresh.numPivots()) << "round " << Round;
    EXPECT_EQ(Reused.numVars(), Fresh.numVars()) << "round " << Round;
    if (RF == Simplex::Result::Sat) {
      EXPECT_EQ(Reused.model(), Fresh.model()) << "round " << Round;
    } else {
      ++Unsat;
      EXPECT_EQ(Reused.unsatCore(), Fresh.unsatCore()) << "round " << Round;
    }
  }
  EXPECT_GT(Unsat, 20) << "the sweep must exercise conflicts";
  EXPECT_LT(Unsat, 380) << "the sweep must exercise feasible systems";
}

// Row construction over the flat rows: a constraint whose basic
// variables are substituted away so that terms cancel. After the first
// check, x + y >= 2 has pivoted x into the basis (x = s1 - y); then
// x + y <= 1 substitutes to s1 <= 1 with y cancelled, which conflicts
// with s1 >= 2 through both tags.
TEST(SimplexFlatRowTest, SubstitutedRowCancelsToConflict) {
  Simplex S;
  int X = S.addVar();
  int Y = S.addVar();
  S.addConstraint({{X, Rational(1)}, {Y, Rational(1)}}, SimplexRel::Ge,
                  Rational(2), 0);
  ASSERT_EQ(S.check(), Simplex::Result::Sat);
  EXPECT_EQ(S.numPivots(), 1u);
  S.addConstraint({{X, Rational(1)}, {Y, Rational(1)}}, SimplexRel::Le,
                  Rational(1), 1);
  ASSERT_EQ(S.check(), Simplex::Result::Unsat);
  std::vector<int> Core = S.unsatCore();
  std::sort(Core.begin(), Core.end());
  EXPECT_EQ(Core, (std::vector<int>{0, 1}));
}

// Repeated variables that cancel leave a ground constraint, and a single
// surviving variable becomes a direct bound, not a row.
TEST(SimplexFlatRowTest, RepeatedVariablesCancel) {
  Simplex S;
  int X = S.addVar();
  int Y = S.addVar();
  S.addConstraint({{X, Rational(2)}, {Y, Rational(1)}, {X, Rational(-2)}},
                  SimplexRel::Ge, Rational(3), 0);
  EXPECT_EQ(S.numVars(), 2) << "one surviving variable: a bound, no slack";
  S.addConstraint({{X, Rational(1)}, {Y, Rational(3)}, {X, Rational(-1)},
                   {Y, Rational(-3)}},
                  SimplexRel::Ge, Rational(1), 1);
  ASSERT_EQ(S.check(), Simplex::Result::Unsat);
  EXPECT_EQ(S.unsatCore(), (std::vector<int>{1}));
}

} // namespace
