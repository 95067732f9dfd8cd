//===- tests/synth_test.cpp - Invariant synthesis tests --------------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "fuzz/Fuzz.h"
#include "lang/Lower.h"
#include "logic/FormulaParser.h"
#include "logic/TermPrinter.h"
#include "pathprog/PathProgram.h"
#include "smt/QuantInst.h"
#include "smt/SolverContext.h"
#include "synth/PathInvariants.h"
#include "synth/TemplateHeuristics.h"

#include <gtest/gtest.h>

using namespace pathinv;

namespace {

// --- Poly / Farkas units ----------------------------------------------------

TEST(PolyTest, Arithmetic) {
  UnknownPool Pool;
  int P0 = Pool.add(UnknownKind::Param, "p0");
  int L0 = Pool.add(UnknownKind::Multiplier, "l0");
  Poly A = Poly::unknown(P0) + Poly(Rational(2));
  Poly B = Poly::unknown(L0);
  Poly Prod = A * B; // l0*p0 + 2*l0
  EXPECT_EQ(Prod.terms().size(), 2u);
  EXPECT_FALSE(Prod.isLinear());
  auto Quad = Prod.quadraticUnknowns();
  ASSERT_EQ(Quad.size(), 2u);
  // Substituting the multiplier linearizes.
  Poly Sub = Prod.substitute({{L0, Rational(3)}});
  EXPECT_TRUE(Sub.isLinear());
  EXPECT_EQ(Sub.evaluate({Rational(5), Rational(99)}), Rational(21));
}

TEST(PolyTest, AccumulateOpsAliasSafe) {
  UnknownPool Pool;
  int P0 = Pool.add(UnknownKind::Param, "p0");
  int L0 = Pool.add(UnknownKind::Multiplier, "l0");
  Poly A = Poly::unknown(P0) + Poly(Rational(2));

  // addMul against distinct operands matches the expression form.
  Poly Acc = Poly::unknown(L0);
  Poly Expected = Acc + A * Rational(3);
  Acc.addMul(A, Rational(3));
  EXPECT_EQ(Acc, Expected);

  // Self-aliased scale-accumulate: P.addMul(P, -1) cancels to zero and
  // must not invalidate the live iteration.
  Poly SelfCancel = A;
  SelfCancel.addMul(SelfCancel, Rational(-1));
  EXPECT_TRUE(SelfCancel.isZero());
  Poly SelfDouble = A;
  SelfDouble.addMul(SelfDouble, Rational(1));
  EXPECT_EQ(SelfDouble, A * Rational(2));

  // Self-aliased polynomial product accumulate.
  Poly Q = Poly::unknown(L0);
  Poly QExpected = Q + Q * Q;
  Poly QSelf = Q;
  QSelf.addMul(QSelf, QSelf);
  EXPECT_EQ(QSelf, QExpected);

  // Single-unknown substitution matches the map form.
  Poly P = Poly::unknown(P0) * Poly::unknown(P0) + Poly::unknown(L0);
  EXPECT_EQ(P.substituteOne(P0, Rational(3)),
            P.substitute({{P0, Rational(3)}}));
}

TEST(PolyTest, SubstituteBothFactors) {
  UnknownPool Pool;
  int A = Pool.add(UnknownKind::Param, "a");
  int B = Pool.add(UnknownKind::Multiplier, "b");
  Poly P = Poly::unknown(A) * Poly::unknown(B);
  Poly Q = P.substitute({{A, Rational(2)}, {B, Rational(7)}});
  EXPECT_TRUE(Q.isConstant());
  EXPECT_EQ(Q.constantValue(), Rational(14));
}

TEST(PolyTest, SubstituteIdTimesId) {
  UnknownPool Pool;
  int P0 = Pool.add(UnknownKind::Param, "p0");
  int L0 = Pool.add(UnknownKind::FreeMult, "l0");
  // 3*l0*l0 + 2*l0 + p0: both factors of l0*l0 collapse.
  Poly P = Poly::unknown(L0) * Poly::unknown(L0) * Rational(3) +
           Poly::unknown(L0) * Rational(2) + Poly::unknown(P0);
  Poly Sub = P.substituteOne(L0, Rational(-2)); // 12 - 4 + p0
  EXPECT_EQ(Sub, Poly::unknown(P0) + Poly(Rational(8)));
  EXPECT_EQ(Sub.constantValue(), Rational(8));
  Poly AtZero = P.substituteOne(L0, Rational(0));
  EXPECT_EQ(AtZero, Poly::unknown(P0));
  EXPECT_EQ(AtZero.terms().size(), 1u) << "zero terms must be dropped";
}

TEST(PolyTest, SubstitutionCancelsToZero) {
  UnknownPool Pool;
  int P0 = Pool.add(UnknownKind::Param, "p0");
  int L0 = Pool.add(UnknownKind::Multiplier, "l0");
  // l0*p0 - 2*p0 + 4 - 2*l0 at l0 = 2 is 2*p0 - 2*p0 + 4 - 4.
  Poly P = Poly::unknown(L0) * Poly::unknown(P0) -
           Poly::unknown(P0) * Rational(2) + Poly(Rational(4)) -
           Poly::unknown(L0) * Rational(2);
  Poly Sub = P.substituteOne(L0, Rational(2));
  EXPECT_TRUE(Sub.isZero());
  EXPECT_TRUE(Sub.isConstant());
  EXPECT_EQ(Sub.constantValue(), Rational(0));
  // The storage-reusing overload gives the same result over a target
  // that held a longer polynomial.
  Poly Out = P;
  P.substituteOne(L0, Rational(2), Out);
  EXPECT_TRUE(Out.isZero());
  P.substituteOne(L0, Rational(1), Out);
  EXPECT_EQ(Out, P.substituteOne(L0, Rational(1)));
  EXPECT_EQ(Out, Poly(Rational(2)) - Poly::unknown(P0));
}

TEST(PolyTest, TermsIterateInMonomialOrder) {
  UnknownPool Pool;
  int A = Pool.add(UnknownKind::Param, "a");
  int B = Pool.add(UnknownKind::Param, "b");
  int L = Pool.add(UnknownKind::Multiplier, "l");
  // Built out of order; iteration is constant, linear terms by unknown,
  // then products by (first, second) unknown.
  Poly P = Poly::unknown(L) * Poly::unknown(B) + Poly::unknown(B) +
           Poly::unknown(A) * Poly::unknown(L) + Poly(Rational(5)) +
           Poly::unknown(A) * Rational(-1);
  std::vector<Monomial> Order;
  for (const auto &[M, C] : P.terms())
    Order.push_back(M);
  std::vector<Monomial> Want = {Monomial::constant(), Monomial::linear(A),
                                Monomial::linear(B),
                                Monomial::quadratic(A, L),
                                Monomial::quadratic(B, L)};
  EXPECT_EQ(Order, Want);
  EXPECT_EQ(P.toString(Pool), "5 - a + b + a*l + b*l");
  EXPECT_FALSE(P.isLinear());
  // Substituting l reorders the products into the linear section.
  Poly Sub = P.substituteOne(L, Rational(3));
  EXPECT_EQ(Sub.toString(Pool), "5 + 2*a + 4*b");
  EXPECT_TRUE(Sub.isLinear());
}

TEST(FarkasTest, SimpleImplication) {
  // x - 1 <= 0 && -x <= 0  |=  x - 2 <= 0 must be derivable;
  // |= x + 1 <= 0 must not.
  TermManager TM;
  const Term *X = TM.mkVar("x", Sort::Int);
  auto mkRow = [&](int64_t CoeffX, int64_t Const) {
    ParamLinExpr E;
    E.addTerm(X, Poly(Rational(CoeffX)));
    E.addConstant(Poly(Rational(Const)));
    return E;
  };
  std::vector<Row> Ante{Row::le(mkRow(1, -1)), Row::le(mkRow(-1, 0))};

  auto solvable = [&](ParamLinExpr Target) {
    UnknownPool Pool;
    Condition Cond;
    ConditionAlternative Alt;
    Alt.Instances.push_back({Ante, Target});
    Cond.Alternatives.push_back(Alt);
    SynthResult R = solveConditions(Pool, {Cond});
    return R.Found;
  };
  EXPECT_TRUE(solvable(mkRow(1, -2)));
  EXPECT_FALSE(solvable(mkRow(1, 1)));
}

TEST(FarkasTest, RefuteInfeasibleAntecedent) {
  // x <= 0 && -x + 1 <= 0 (i.e. x >= 1) is infeasible: `false` derivable.
  TermManager TM;
  const Term *X = TM.mkVar("x", Sort::Int);
  ParamLinExpr E1, E2;
  E1.addTerm(X, Poly(Rational(1)));
  E2.addTerm(X, Poly(Rational(-1)));
  E2.addConstant(Poly(Rational(1)));
  UnknownPool Pool;
  Condition Cond;
  ConditionAlternative Alt;
  Alt.Instances.push_back(
      {{Row::le(E1), Row::le(E2)}, std::nullopt});
  Cond.Alternatives.push_back(Alt);
  EXPECT_TRUE(solveConditions(Pool, {Cond}).Found);

  // A feasible antecedent must not refute.
  Condition Cond2;
  ConditionAlternative Alt2;
  Alt2.Instances.push_back({{Row::le(E1)}, std::nullopt});
  Cond2.Alternatives.push_back(Alt2);
  UnknownPool Pool2;
  EXPECT_FALSE(solveConditions(Pool2, {Cond2}).Found);
}

// --- Conflict learning ------------------------------------------------------

TEST(SynthLearnTest, FingerprintCanonicalAcrossPools) {
  // The same constraint shape must serialize identically no matter which
  // raw ids the pool handed out — that is what makes the verdict cache
  // cross-scope (every template level allocates a fresh pool).
  auto mk = [](int A, int B) {
    std::vector<PolyConstraint> Cs;
    Cs.push_back({Poly::unknown(A) + Poly::unknown(B) * Rational(2), false});
    Cs.push_back({Poly::unknown(B), true});
    return Cs;
  };
  UnknownPool P1;
  int A1 = P1.add(UnknownKind::Param, "a");
  int B1 = P1.add(UnknownKind::Multiplier, "b");
  UnknownPool P2;
  P2.add(UnknownKind::Multiplier, "pad"); // shifts every later raw id
  int A2 = P2.add(UnknownKind::Param, "other");
  int B2 = P2.add(UnknownKind::Multiplier, "names");
  EXPECT_EQ(fingerprintCombo(mk(A1, B1), P1), fingerprintCombo(mk(A2, B2), P2));

  // Kinds are part of the identity: a Multiplier carries an implicit
  // >= 0 in the LP, so swapping kinds must change the fingerprint.
  UnknownPool P3;
  int A3 = P3.add(UnknownKind::Param, "a");
  int B3 = P3.add(UnknownKind::Param, "b");
  EXPECT_NE(fingerprintCombo(mk(A1, B1), P1), fingerprintCombo(mk(A3, B3), P3));

  // So is the relation: <= 0 vs = 0 on the same polynomial.
  std::vector<PolyConstraint> Le{{Poly::unknown(A1), false}};
  std::vector<PolyConstraint> Eq{{Poly::unknown(A1), true}};
  EXPECT_NE(fingerprintCombo(Le, P1), fingerprintCombo(Eq, P1));
}

TEST(SynthLearnTest, DedupAcrossDuplicateAlternatives) {
  // Two identical alternatives enumerate isomorphic combos (fresh
  // multipliers each, same canonical shape); the duplicates must be
  // recognized by fingerprint and never submitted to the LP again.
  TermManager TM;
  const Term *X = TM.mkVar("x", Sort::Int);
  auto mkRow = [&](int64_t CoeffX, int64_t Const) {
    ParamLinExpr E;
    E.addTerm(X, Poly(Rational(CoeffX)));
    E.addConstant(Poly(Rational(Const)));
    return E;
  };
  std::vector<Row> Ante{Row::le(mkRow(1, -1)), Row::le(mkRow(-1, 0))};
  Condition Cond;
  ConditionAlternative Alt;
  Alt.Instances.push_back({Ante, mkRow(1, -2)});
  Cond.Alternatives.push_back(Alt);
  Cond.Alternatives.push_back(Alt); // exact duplicate

  UnknownPool Pool;
  SynthResult R = solveConditions(Pool, {Cond});
  EXPECT_TRUE(R.Found);
  EXPECT_GT(R.Learn.CombosDeduped, 0u);

  // Learning off: same verdict, no dedup accounting.
  UnknownPool Pool2;
  SynthOptions Off;
  Off.Learning = false;
  SynthResult R2 = solveConditions(Pool2, {Cond}, Off);
  EXPECT_TRUE(R2.Found);
  EXPECT_EQ(R2.Learn.CombosDeduped, 0u);
}

TEST(SynthLearnTest, VerdictCachePersistsAcrossRuns) {
  // A persistent learner carries combo verdicts across solveConditions
  // calls — the cross-scope reuse that survives Farkas scope teardowns.
  TermManager TM;
  const Term *X = TM.mkVar("x", Sort::Int);
  auto mkRow = [&](int64_t CoeffX, int64_t Const) {
    ParamLinExpr E;
    E.addTerm(X, Poly(Rational(CoeffX)));
    E.addConstant(Poly(Rational(Const)));
    return E;
  };
  Condition Cond;
  ConditionAlternative Alt;
  Alt.Instances.push_back(
      {{Row::le(mkRow(1, -1)), Row::le(mkRow(-1, 0))}, mkRow(1, -2)});
  Cond.Alternatives.push_back(Alt);

  SynthLearner Learner;
  SynthOptions Opts;
  Opts.Learner = &Learner;

  UnknownPool Pool1;
  SynthResult R1 = solveConditions(Pool1, {Cond}, Opts);
  ASSERT_TRUE(R1.Found);
  EXPECT_EQ(R1.Learn.LemmasReused, 0u) << "first run has nothing to reuse";

  UnknownPool Pool2; // fresh pool: fresh multiplier ids, same shapes
  SynthResult R2 = solveConditions(Pool2, {Cond}, Opts);
  ASSERT_TRUE(R2.Found);
  EXPECT_GT(R2.Learn.LemmasReused, 0u);
  EXPECT_LT(R2.LpChecks, R1.LpChecks)
      << "cached verdicts should replace leaf LP checks";
  EXPECT_EQ(Learner.Stats.LemmasReused, R2.Learn.LemmasReused)
      << "lifetime totals accumulate the per-run deltas";
}

TEST(SynthLearnTest, LearningOffMatchesOnSyntheticConditions) {
  // Verdict parity on both polarities of a small Farkas query.
  TermManager TM;
  const Term *X = TM.mkVar("x", Sort::Int);
  auto mkRow = [&](int64_t CoeffX, int64_t Const) {
    ParamLinExpr E;
    E.addTerm(X, Poly(Rational(CoeffX)));
    E.addConstant(Poly(Rational(Const)));
    return E;
  };
  std::vector<Row> Ante{Row::le(mkRow(1, -1)), Row::le(mkRow(-1, 0))};
  for (int64_t Const : {-2, 1}) { // derivable / not derivable
    Condition Cond;
    ConditionAlternative Alt;
    Alt.Instances.push_back({Ante, mkRow(1, Const)});
    Cond.Alternatives.push_back(Alt);
    UnknownPool PoolOn, PoolOff;
    SynthOptions Off;
    Off.Learning = false;
    SynthResult On = solveConditions(PoolOn, {Cond});
    SynthResult Ref = solveConditions(PoolOff, {Cond}, Off);
    EXPECT_EQ(On.Found, Ref.Found) << "target const " << Const;
  }
}

TEST(SynthLearnTest, NogoodPrunesRepeatedConflict) {
  // Hand-built condition system whose conflict cores mix depths, so the
  // backjumping search revisits a recorded conflict. Per-depth choices
  // over params a, b: {a<=0 | a>=2}, {b<=0 | b>=2}, {a>=1 | b>=1}
  // (each injected as "x <= 0 |= x + expr <= 0", which Farkas-reduces
  // to "expr <= 0"). The first descent refutes a>=1 against a<=0 (core
  // depths {0,2}) and b>=1 against b<=0 (core depths {1,2}), backjumps
  // to depth 1, flips to b>=2 — and then meets a>=1 again under the
  // unchanged a<=0: exactly the recorded nogood, pruned without an LP
  // check before the search completes on {a<=0, b>=2, b>=1}.
  TermManager TM;
  const Term *X = TM.mkVar("x", Sort::Int);
  UnknownPool Pool;
  int A = Pool.add(UnknownKind::Param, "a");
  int B = Pool.add(UnknownKind::Param, "b");
  ParamLinExpr AnteE;
  AnteE.addTerm(X, Poly(Rational(1)));
  std::vector<Row> Ante{Row::le(AnteE)};
  auto mkAlt = [&](Poly Const) {
    ParamLinExpr T;
    T.addTerm(X, Poly(Rational(1)));
    T.addConstant(Const);
    ConditionAlternative Alt;
    Alt.Instances.push_back({Ante, T});
    return Alt;
  };
  Poly PA = Poly::unknown(A), PB = Poly::unknown(B);
  Condition C1, C2, C3;
  C1.Alternatives = {mkAlt(PA), mkAlt(Poly(Rational(2)) - PA)};
  C2.Alternatives = {mkAlt(PB), mkAlt(Poly(Rational(2)) - PB)};
  C3.Alternatives = {mkAlt(Poly(Rational(1)) - PA),
                     mkAlt(Poly(Rational(1)) - PB)};
  SynthResult R = solveConditions(Pool, {C1, C2, C3});
  EXPECT_TRUE(R.Found);
  EXPECT_GT(R.Learn.Nogoods, 0u);

  // Learning off: same verdict, nothing pruned by nogoods.
  UnknownPool Pool2;
  int A2 = Pool2.add(UnknownKind::Param, "a");
  int B2 = Pool2.add(UnknownKind::Param, "b");
  (void)A2;
  (void)B2;
  SynthOptions Off;
  Off.Learning = false;
  SynthResult ROff = solveConditions(Pool2, {C1, C2, C3}, Off);
  EXPECT_TRUE(ROff.Found);
  EXPECT_EQ(ROff.Learn.Nogoods, 0u);
}

// --- End-to-end synthesis on the paper's programs ----------------------------

class SynthFixture : public ::testing::Test {
protected:
  Program load(const char *Source) {
    auto P = loadProgram(TM, Source);
    EXPECT_TRUE(P.hasValue()) << P.error().render();
    return P.take();
  }

  TermManager TM;
  smt::SolverContext Solver{TM};
};

TEST_F(SynthFixture, ForwardWholeProgram) {
  // FORWARD needs the Section 5 template refinement: the pure equality
  // template fails, equality + inequality succeeds.
  Program P = load(testprogs::Forward);
  PathInvResult R = generatePathInvariants(P, Solver);
  ASSERT_TRUE(R.Found) << R.FailureReason;
  EXPECT_GE(R.LevelsTried, 2) << "equality-only template should fail first";
  // The loop-head invariant must entail a + b = 3i.
  std::set<LocId> Cuts = computeCutSet(P);
  const Term *Target = parseFormula(TM, "a + b = 3*i").get();
  bool SomeCutEntails = false;
  for (LocId Cut : Cuts) {
    if (Cut == P.entry() || Cut == P.error())
      continue;
    const Term *Inv = R.Map.at(TM, Cut);
    if (entailsWithQuant(TM, Solver, Inv, Target))
      SomeCutEntails = true;
  }
  EXPECT_TRUE(SomeCutEntails)
      << "no cutpoint invariant entails a+b=3i:\n" << R.Map.dump(P);
}

TEST_F(SynthFixture, ForwardInvariantMapVerifies) {
  Program P = load(testprogs::Forward);
  PathInvResult R = generatePathInvariants(P, Solver);
  ASSERT_TRUE(R.Found) << R.FailureReason;
  InvariantCheckResult Check = checkInvariantMap(P, R.Map, Solver);
  EXPECT_TRUE(Check.Ok) << Check.FailureReason;
}

TEST_F(SynthFixture, InitcheckQuantifiedInvariant) {
  Program P = load(testprogs::InitCheck);
  PathInvResult R = generatePathInvariants(P, Solver);
  ASSERT_TRUE(R.Found) << R.FailureReason;
  // Some cutpoint invariant must entail the paper's solved template
  // forall k: 0 <= k <= n-1 -> a[k] = 0 under i = n (after first loop).
  const Term *FullyInit =
      parseFormula(TM, "i = n -> (forall k. 0 <= k && k <= n - 1 -> "
                       "a[k] = 0)")
          .get();
  bool Witness = false;
  std::set<LocId> Cuts = computeCutSet(P);
  for (LocId Cut : Cuts) {
    if (Cut == P.entry() || Cut == P.error())
      continue;
    if (entailsWithQuant(TM, Solver, R.Map.at(TM, Cut), FullyInit))
      Witness = true;
  }
  EXPECT_TRUE(Witness) << R.Map.dump(P);
}

TEST_F(SynthFixture, BuggyProgramHasNoSafeMap) {
  // Section 6: for the buggy variant there is no safe invariant map; the
  // synthesizer must fail at every template level.
  Program P = load(testprogs::InitCheckBuggy);
  PathInvResult R = generatePathInvariants(P, Solver);
  EXPECT_FALSE(R.Found);
}

TEST_F(SynthFixture, StraightLineSafety) {
  Program P = load(testprogs::StraightSafe);
  PathInvResult R = generatePathInvariants(P, Solver);
  ASSERT_TRUE(R.Found) << R.FailureReason;
  EXPECT_TRUE(checkInvariantMap(P, R.Map, Solver).Ok);
}

TEST_F(SynthFixture, IntervalBackendOnSimpleLoop) {
  // x counts 0..9; assertion x <= 20 is interval-provable.
  Program P = load(R"(
    proc count(n) {
      var x;
      x = 0;
      while (x < 10) {
        x = x + 1;
      }
      assert(x <= 20);
    }
  )");
  PathInvResult R = generateIntervalInvariants(P, Solver);
  ASSERT_TRUE(R.Found) << R.FailureReason;
}

TEST_F(SynthFixture, IntervalBackendCannotDoRelational) {
  // Intervals cannot prove FORWARD (needs a+b=3i); must fail gracefully.
  Program P = load(testprogs::Forward);
  PathInvResult R = generateIntervalInvariants(P, Solver);
  EXPECT_FALSE(R.Found);
}

TEST_F(SynthFixture, LearningDifferentialPaperPrograms) {
  // Learning-enabled search must agree with the learning-off reference on
  // every paper program: same verdict, same escalation level, and the
  // learned-mode map must independently validate. One persistent learner
  // spans all programs, as in the engines.
  SynthLearner Learner;
  struct Case {
    const char *Name;
    const char *Source;
    uint64_t Budget;
  };
  const Case Cases[] = {
      {"Forward", testprogs::Forward, 25000},
      {"InitCheck", testprogs::InitCheck, 25000},
      {"StraightSafe", testprogs::StraightSafe, 25000},
      {"InitCheckBuggy", testprogs::InitCheckBuggy, 2000},
  };
  uint64_t Learned = 0;
  for (const Case &C : Cases) {
    Program P = load(C.Source);
    PathInvOptions On, Off;
    On.Synth.Learner = &Learner;
    On.Synth.MaxLpChecks = C.Budget;
    Off.Synth.Learning = false;
    Off.Synth.MaxLpChecks = C.Budget;
    PathInvResult ROn = generatePathInvariants(P, Solver, On);
    PathInvResult ROff = generatePathInvariants(P, Solver, Off);
    EXPECT_EQ(ROn.Found, ROff.Found) << C.Name;
    if (ROn.Found && ROff.Found) {
      EXPECT_EQ(ROn.LevelUsed, ROff.LevelUsed) << C.Name;
    }
    if (ROn.Found) {
      EXPECT_TRUE(checkInvariantMap(P, ROn.Map, Solver).Ok) << C.Name;
    }
    Learned += ROn.Learn.CombosDeduped + ROn.Learn.LemmasReused +
               ROn.Learn.Nogoods;
  }
  EXPECT_GT(Learned, 0u) << "sweep never exercised the learning machinery";
}

TEST_F(SynthFixture, LearningDifferentialFuzzSeeds) {
  // Fuzz-generated programs, learning-on vs learning-off under matched
  // budgets. A seed where either mode trips its resource budget proves
  // nothing about verdicts (budget trips are not verdicts) and is skipped;
  // everything else must agree exactly.
  SynthLearner Learner;
  const uint64_t Budget = 3000;
  uint64_t Learned = 0;
  int Compared = 0;
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    fuzz::GeneratedProgram GP = fuzz::generateProgram(Seed);
    TermManager LocalTM;
    auto PE = loadProgram(LocalTM, GP.Source);
    ASSERT_TRUE(PE.hasValue()) << "seed " << Seed << ": " << GP.Source;
    Program P = PE.take();
    smt::SolverContext LocalSolver{LocalTM};
    PathInvOptions On, Off;
    On.Synth.Learner = &Learner;
    On.Synth.MaxLpChecks = Budget;
    Off.Synth.Learning = false;
    Off.Synth.MaxLpChecks = Budget;
    PathInvResult ROn = generatePathInvariants(P, LocalSolver, On);
    PathInvResult ROff = generatePathInvariants(P, LocalSolver, Off);
    Learned += ROn.Learn.CombosDeduped + ROn.Learn.LemmasReused +
               ROn.Learn.Nogoods;
    if (ROn.ResourceOut || ROff.ResourceOut)
      continue;
    ++Compared;
    EXPECT_EQ(ROn.Found, ROff.Found) << "seed " << Seed;
    if (ROn.Found && ROff.Found) {
      EXPECT_EQ(ROn.LevelUsed, ROff.LevelUsed) << "seed " << Seed;
      EXPECT_TRUE(checkInvariantMap(P, ROn.Map, LocalSolver).Ok)
          << "seed " << Seed;
    }
  }
  EXPECT_GE(Compared, 25) << "budget trips swallowed most of the sweep";
  EXPECT_GT(Learned, 0u);
}

// Golden work counts: update deliberately when the search changes. The
// synthesis search's inner loop is tuned for constant factors only; a
// change that alters which combos, LPs or pivots it visits shows here
// before it shows in a verdict.
TEST_F(SynthFixture, PartitionWholeProgramWorkIsPinned) {
  Program P = load(testprogs::Partition);
  PathInvOptions Off;
  Off.Synth.Learning = false;
  PathInvResult R = generatePathInvariants(P, Solver, Off);
  ASSERT_TRUE(R.Found) << R.FailureReason;
  EXPECT_EQ(R.LpChecks, 21545u);
}

TEST_F(SynthFixture, CheckerRejectsBogusMap) {
  Program P = load(testprogs::StraightSafe);
  InvariantMap Bogus;
  Bogus.Inv[P.error()] = TM.mkFalse();
  // Claim x = 42 everywhere: not inductive.
  SortEnv Env;
  const Term *Claim = parseFormula(TM, "x = 42", Env).get();
  for (LocId Loc = 0; Loc < P.numLocations(); ++Loc)
    if (Loc != P.entry() && Loc != P.error())
      Bogus.Inv[Loc] = Claim;
  EXPECT_FALSE(checkInvariantMap(P, Bogus, Solver).Ok);
}

} // namespace
