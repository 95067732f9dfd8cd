//===- tests/smt_sat_test.cpp - CDCL SAT solver tests ---------------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/SatSolver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace pathinv;

namespace {

TEST(SatSolverTest, EmptyInstanceIsSat) {
  SatSolver S;
  EXPECT_EQ(S.solve(), SatSolver::Result::Sat);
}

TEST(SatSolverTest, UnitClauses) {
  SatSolver S;
  int A = S.addVar();
  int B = S.addVar();
  S.addClause({Lit(A, false)});
  S.addClause({Lit(B, true)});
  ASSERT_EQ(S.solve(), SatSolver::Result::Sat);
  EXPECT_TRUE(S.modelValue(A));
  EXPECT_FALSE(S.modelValue(B));
}

TEST(SatSolverTest, ContradictoryUnits) {
  SatSolver S;
  int A = S.addVar();
  S.addClause({Lit(A, false)});
  EXPECT_FALSE(S.addClause({Lit(A, true)}));
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
}

TEST(SatSolverTest, ImplicationChain) {
  // a, a->b, b->c, c->d forces all true.
  SatSolver S;
  int V[4];
  for (int &Var : V)
    Var = S.addVar();
  S.addClause({Lit(V[0], false)});
  for (int I = 0; I < 3; ++I)
    S.addClause({Lit(V[I], true), Lit(V[I + 1], false)});
  ASSERT_EQ(S.solve(), SatSolver::Result::Sat);
  for (int Var : V)
    EXPECT_TRUE(S.modelValue(Var));
}

TEST(SatSolverTest, RequiresConflictAnalysis) {
  // (a|b) (a|!b) (!a|b) (!a|!b) is unsat.
  SatSolver S;
  int A = S.addVar(), B = S.addVar();
  S.addClause({Lit(A, false), Lit(B, false)});
  S.addClause({Lit(A, false), Lit(B, true)});
  S.addClause({Lit(A, true), Lit(B, false)});
  S.addClause({Lit(A, true), Lit(B, true)});
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
}

TEST(SatSolverTest, TautologyIgnored) {
  SatSolver S;
  int A = S.addVar();
  EXPECT_TRUE(S.addClause({Lit(A, false), Lit(A, true)}));
  EXPECT_EQ(S.solve(), SatSolver::Result::Sat);
}

/// Pigeonhole principle: N+1 pigeons into N holes, unsat. Exercises clause
/// learning heavily.
static void addPigeonhole(SatSolver &S, int Holes) {
  int Pigeons = Holes + 1;
  std::vector<std::vector<int>> Var(Pigeons, std::vector<int>(Holes));
  for (int P = 0; P < Pigeons; ++P)
    for (int H = 0; H < Holes; ++H)
      Var[P][H] = S.addVar();
  for (int P = 0; P < Pigeons; ++P) {
    std::vector<Lit> AtLeastOne;
    for (int H = 0; H < Holes; ++H)
      AtLeastOne.push_back(Lit(Var[P][H], false));
    S.addClause(std::move(AtLeastOne));
  }
  for (int H = 0; H < Holes; ++H)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        S.addClause({Lit(Var[P1][H], true), Lit(Var[P2][H], true)});
}

TEST(SatSolverTest, Pigeonhole4Into3) {
  SatSolver S;
  addPigeonhole(S, 3);
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
  EXPECT_GT(S.numConflicts(), 0u);
}

TEST(SatSolverTest, Pigeonhole6Into5) {
  SatSolver S;
  addPigeonhole(S, 5);
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
}

TEST(SatSolverTest, IncrementalBlockingClauses) {
  // Enumerate all 8 models of 3 free variables by blocking each.
  SatSolver S;
  int V[3];
  for (int &Var : V)
    Var = S.addVar();
  // Touch the variables so they participate in solving.
  S.addClause({Lit(V[0], false), Lit(V[0], true)});
  int Models = 0;
  while (S.solve() == SatSolver::Result::Sat && Models < 20) {
    ++Models;
    std::vector<Lit> Block;
    for (int Var : V)
      Block.push_back(Lit(Var, S.modelValue(Var)));
    if (!S.addClause(std::move(Block)))
      break;
  }
  EXPECT_EQ(Models, 8);
}

/// Exhaustive truth-table reference check.
static bool bruteForceSat(int NumVars,
                          const std::vector<std::vector<Lit>> &Clauses) {
  for (uint32_t Mask = 0; Mask < (1u << NumVars); ++Mask) {
    bool All = true;
    for (const auto &C : Clauses) {
      bool Any = false;
      for (Lit L : C) {
        bool Val = (Mask >> L.var()) & 1;
        if (Val != L.negated()) {
          Any = true;
          break;
        }
      }
      if (!Any) {
        All = false;
        break;
      }
    }
    if (All)
      return true;
  }
  return false;
}

class SatRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SatRandomTest, AgreesWithBruteForce) {
  std::mt19937_64 Rng(GetParam() * 7919);
  for (int Round = 0; Round < 80; ++Round) {
    int NumVars = 3 + static_cast<int>(Rng() % 8); // up to 10 vars
    int NumClauses = 2 + static_cast<int>(Rng() % (NumVars * 5));
    std::vector<std::vector<Lit>> Clauses;
    SatSolver S;
    for (int I = 0; I < NumVars; ++I)
      S.addVar();
    for (int C = 0; C < NumClauses; ++C) {
      int Width = 1 + static_cast<int>(Rng() % 3);
      std::vector<Lit> Clause;
      for (int I = 0; I < Width; ++I)
        Clause.push_back(
            Lit(static_cast<int>(Rng() % NumVars), Rng() & 1));
      Clauses.push_back(Clause);
      S.addClause(Clause);
    }
    bool Expected = bruteForceSat(NumVars, Clauses);
    bool Actual = S.solve() == SatSolver::Result::Sat;
    ASSERT_EQ(Actual, Expected) << "seed " << GetParam() << " round "
                                << Round;
    if (Actual) {
      // The model must satisfy every clause.
      for (const auto &C : Clauses) {
        bool Any = false;
        for (Lit L : C)
          if (S.modelValue(L.var()) != L.negated())
            Any = true;
        EXPECT_TRUE(Any);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatRandomTest, ::testing::Range(1, 9));

// --- Level-0 sweep of satisfied clauses ---------------------------------------

TEST(SatSweepTest, SelectorChurnKeepsStoreAtLiveSize) {
  // The scoped-assertion pattern of an incremental SMT context: a fresh
  // selector per cycle guards a few clauses, one solve runs under the
  // selector, and a unit then disables it for good. The disabled guards
  // are satisfied at level 0; the sweep must take them out so the store
  // tracks the live clauses, not the number of cycles.
  SatSolver S;
  constexpr int NumBase = 6;
  for (int I = 0; I < NumBase; ++I)
    S.addVar();
  auto X = [](int I) { return Lit(I, false); };
  // Positive clauses only, here and in the guards: no level-0
  // consequences and no conflicts, so the store holds exactly the base,
  // the guards and whatever the sweep has not yet taken out.
  const std::vector<std::vector<Lit>> Base = {
      {X(0), X(1)}, {X(1), X(2), X(3)}, {X(3), X(4)}, {X(4), X(5), X(0)}};
  for (const auto &C : Base)
    ASSERT_TRUE(S.addClause(C));
  const size_t Guarded = 3;
  size_t MaxClauses = 0;
  uint64_t SweepsSeen = 0;
  for (int Cycle = 0; Cycle < 10000; ++Cycle) {
    Lit Sel(S.addVar(), false);
    int A = Cycle % NumBase, B = (Cycle / NumBase) % NumBase;
    ASSERT_TRUE(S.addClause({~Sel, X(A), X(B)}));
    ASSERT_TRUE(S.addClause({~Sel, X((A + 1) % NumBase)}));
    ASSERT_TRUE(S.addClause({~Sel, X((B + 2) % NumBase), X((A + 3) % NumBase)}));
    ASSERT_EQ(S.solve({Sel}), SatSolver::Result::Sat) << "cycle " << Cycle;
    if (S.numSweeps() != SweepsSeen) {
      // Swept at the start of this solve: only the base and this cycle's
      // guards remain.
      SweepsSeen = S.numSweeps();
      EXPECT_EQ(S.numClauses(), Base.size() + Guarded) << "cycle " << Cycle;
    }
    MaxClauses = std::max(MaxClauses, S.numClauses());
    ASSERT_TRUE(S.addClause({~Sel}));
  }
  EXPECT_EQ(S.numConflicts(), 0u);
  EXPECT_GT(S.numSweeps(), 100u);
  EXPECT_GE(S.numSweptClauses(), 9000u * Guarded);
  // Bounded by the sweep's amortization (propagations since the last
  // sweep must exceed the literals it left), not by the cycle count.
  EXPECT_LT(MaxClauses, 200u);
}

/// Brute force under fixed literals: is some assignment satisfying every
/// clause and every literal in \p Fixed?
static bool bruteForceSatUnder(int NumVars,
                               std::vector<std::vector<Lit>> Clauses,
                               const std::vector<Lit> &Fixed) {
  for (Lit L : Fixed)
    Clauses.push_back({L});
  return bruteForceSat(NumVars, Clauses);
}

class SatSweepRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SatSweepRandomTest, IncrementalAgreesWithBruteForce) {
  // One solver per round lives through many solves. Between them, random
  // clauses arrive and level-0 units satisfy some of the stored ones, so
  // sweeps run mid-stream; every answer, model and failed-assumption core
  // must still match the truth table.
  std::mt19937_64 Rng(GetParam() * 104729);
  uint64_t Sweeps = 0, Swept = 0;
  for (int Round = 0; Round < 40; ++Round) {
    int NumVars = 4 + static_cast<int>(Rng() % 7); // up to 10 vars
    SatSolver S;
    for (int I = 0; I < NumVars; ++I)
      S.addVar();
    std::vector<std::vector<Lit>> Clauses;
    auto randomLit = [&] {
      return Lit(static_cast<int>(Rng() % NumVars), Rng() & 1);
    };
    for (int Step = 0; Step < 30; ++Step) {
      unsigned Kind = Rng() % 8;
      if (Kind < 4) {
        std::vector<Lit> C;
        int Width = 2 + static_cast<int>(Rng() % 3);
        for (int I = 0; I < Width; ++I)
          C.push_back(randomLit());
        Clauses.push_back(C);
        S.addClause(C);
      } else if (Kind < 5 && !Clauses.empty()) {
        // A unit making a stored clause true at level 0.
        const std::vector<Lit> &Target = Clauses[Rng() % Clauses.size()];
        Lit U = Target[Rng() % Target.size()];
        Clauses.push_back({U});
        S.addClause({U});
      }
      std::vector<Lit> Assumptions;
      int NumAssumptions = static_cast<int>(Rng() % 4);
      for (int I = 0; I < NumAssumptions; ++I)
        Assumptions.push_back(randomLit());
      bool Expected = bruteForceSatUnder(NumVars, Clauses, Assumptions);
      SatSolver::Result R = S.solve(Assumptions);
      ASSERT_EQ(R == SatSolver::Result::Sat, Expected)
          << "seed " << GetParam() << " round " << Round << " step " << Step;
      if (R == SatSolver::Result::Sat) {
        for (const auto &C : Clauses) {
          bool Any = false;
          for (Lit L : C)
            if (S.modelValue(L.var()) != L.negated())
              Any = true;
          EXPECT_TRUE(Any);
        }
        for (Lit A : Assumptions)
          EXPECT_NE(S.modelValue(A.var()), A.negated());
        continue;
      }
      // The core is a subset of the assumptions that the clauses refute;
      // an empty core means the clauses alone are unsatisfiable.
      const std::vector<Lit> &Core = S.failedAssumptions();
      for (Lit L : Core)
        EXPECT_NE(std::find(Assumptions.begin(), Assumptions.end(), L),
                  Assumptions.end());
      EXPECT_FALSE(bruteForceSatUnder(NumVars, Clauses, Core));
      if (!bruteForceSat(NumVars, Clauses))
        break; // Unsat for good: the next round starts fresh.
    }
    Sweeps += S.numSweeps();
    Swept += S.numSweptClauses();
  }
  EXPECT_GT(Sweeps, 0u);
  EXPECT_GT(Swept, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatSweepRandomTest, ::testing::Range(1, 9));

} // namespace
