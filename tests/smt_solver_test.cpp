//===- tests/smt_solver_test.cpp - SMT end-to-end tests -------------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "logic/FormulaParser.h"
#include "logic/TermPrinter.h"
#include "smt/ArrayElim.h"
#include "smt/SolverContext.h"

#include <gtest/gtest.h>

#include <string>

using namespace pathinv;
using Status = smt::CheckResult::Status;

namespace {

class SmtTest : public ::testing::Test {
protected:
  const Term *parse(const char *Text) {
    auto F = parseFormula(TM, Text, Env);
    EXPECT_TRUE(F.hasValue()) << F.error().render();
    return F.get();
  }

  /// One-shot status of \p F on the fixture's context.
  Status check(const Term *F) { return Solver.checkFormula(F).status(); }

  bool isSat(const char *Text) { return check(parse(Text)) == Status::Sat; }

  bool entails(const Term *A, const Term *B) {
    return check(TM.mkAnd(A, TM.mkNot(B))) == Status::Unsat;
  }

  TermManager TM;
  SortEnv Env;
  smt::SolverContext Solver{TM};
};

// --- Pure linear arithmetic ------------------------------------------------

TEST_F(SmtTest, LinearBasics) {
  EXPECT_TRUE(isSat("x + y <= 3 && x >= 1"));
  EXPECT_FALSE(isSat("x <= 2 && x >= 3"));
  EXPECT_FALSE(isSat("x < 1 && x > 0")) << "no integer strictly between";
  EXPECT_FALSE(isSat("x < 1 && x >= 1"));
  EXPECT_TRUE(isSat("x < 2 && x > 0"));
  EXPECT_FALSE(isSat("x = 1 && x = 2"));
  EXPECT_TRUE(isSat("2*x + 3*y = 7 && x - y = 1"));
}

TEST_F(SmtTest, IntegralityByBranchAndBound) {
  // 0 < n < 1 has no integer solution (but has rational ones).
  EXPECT_FALSE(isSat("n > 0 && n < 1"));
  EXPECT_FALSE(isSat("2*x = 1"));
  EXPECT_TRUE(isSat("2*x = 4"));
  EXPECT_FALSE(isSat("3*x = 2*y && x > y && y > 0 && x < y + 1"));
}

TEST_F(SmtTest, PaperPathFormulaIntegerUnsat) {
  // Full FORWARD path formula from Section 2.1, including the disequality
  // a2 + b2 != 3*n0: unsat over the integers.
  EXPECT_FALSE(isSat("n0 >= 0 && i1 = 0 && a1 = 0 && b1 = 0 && i1 < n0 && "
                     "a2 = a1 + 1 && b2 = b1 + 2 && i2 = i1 + 1 && "
                     "i2 >= n0 && a2 + b2 != 3*n0"));
  // With the assertion's relation satisfied instead, it is feasible.
  EXPECT_TRUE(isSat("n0 >= 0 && i1 = 0 && a1 = 0 && b1 = 0 && i1 < n0 && "
                    "a2 = a1 + 1 && b2 = b1 + 2 && i2 = i1 + 1 && "
                    "i2 >= n0 && a2 + b2 = 3*n0"));
}

TEST_F(SmtTest, DisequalitySplitting) {
  EXPECT_TRUE(isSat("x != y"));
  EXPECT_FALSE(isSat("x != y && x <= y && y <= x"));
  EXPECT_FALSE(isSat("x != 3 && x >= 3 && x <= 3"));
  EXPECT_TRUE(isSat("x != 3 && x >= 3"));
  EXPECT_FALSE(isSat("x != y && y != z && x = z && x = y"));
}

TEST_F(SmtTest, BooleanStructure) {
  EXPECT_TRUE(isSat("x = 1 || x = 2"));
  EXPECT_FALSE(isSat("(x = 1 || x = 2) && x >= 5"));
  EXPECT_TRUE(isSat("(x = 1 || x = 2) && x >= 2"));
  EXPECT_FALSE(isSat("(x <= 1 || x <= 2) && x > 2"));
  EXPECT_FALSE(isSat("!(x <= y || y < x)"));
  EXPECT_TRUE(isSat("(x = 1 -> y = 2) && x = 1 && y = 2"));
  EXPECT_FALSE(isSat("(x = 1 -> y = 2) && x = 1 && y = 3"));
}

TEST_F(SmtTest, ModelIsAvailable) {
  const Term *F = parse("x + y = 10 && x - y = 4");
  smt::CheckResult R = Solver.checkFormula(F);
  ASSERT_TRUE(R.isSat());
  const auto &Model = R.model().values();
  Rational X = Model.at(TM.mkVar("x", Sort::Int));
  Rational Y = Model.at(TM.mkVar("y", Sort::Int));
  EXPECT_EQ(X + Y, Rational(10));
  EXPECT_EQ(X - Y, Rational(4));
}

// --- Uninterpreted functions ------------------------------------------------

TEST_F(SmtTest, CongruenceBasics) {
  EXPECT_FALSE(isSat("x = y && f(x) != f(y)"));
  EXPECT_TRUE(isSat("x != y && f(x) != f(y)"));
  EXPECT_TRUE(isSat("f(x) != f(y)")); // Forces x != y; fine.
  EXPECT_FALSE(isSat("x = y && y = z && f(x) != f(z)"));
  EXPECT_FALSE(isSat("f(x, y) != f(x, y)"));
}

TEST_F(SmtTest, CongruenceThroughArithmetic) {
  // x <= y && y <= x implies x = y arithmetically, which forces
  // f(x) = f(y) by congruence — requires the theory combination.
  EXPECT_FALSE(isSat("x <= y && y <= x && f(x) != f(y)"));
  EXPECT_FALSE(isSat("x <= y && y <= x && f(x) - f(y) >= 1"));
  EXPECT_TRUE(isSat("x <= y && f(x) != f(y)"));
}

TEST_F(SmtTest, FunctionValuesFeedArithmetic) {
  EXPECT_FALSE(isSat("f(x) >= 5 && f(y) <= 3 && x = y"));
  EXPECT_TRUE(isSat("f(x) >= 5 && f(y) <= 3 && x != y"));
  EXPECT_FALSE(isSat("f(x) = x && f(f(x)) != x && x = f(x)"));
}

// --- Arrays ------------------------------------------------------------------

TEST_F(SmtTest, ArrayReadsAsUF) {
  EXPECT_FALSE(isSat("i = j && a[i] != a[j]"));
  EXPECT_TRUE(isSat("i != j && a[i] != a[j]"));
  EXPECT_FALSE(isSat("i <= j && j <= i && a[i] = 1 && a[j] = 2"));
}

TEST_F(SmtTest, InitcheckFirstCellFact) {
  // From the INITCHECK counterexample (Section 2.2): after a[0] := 0 the
  // check a[0] != 0 is infeasible.
  SortEnv E;
  auto A0 = parseFormula(TM, "a1[0] = 0 && a1[i] != 0 && i = 0", E);
  ASSERT_TRUE(A0.hasValue());
  EXPECT_EQ(check(A0.get()), Status::Unsat);
}

TEST_F(SmtTest, StoreEliminationReadSameIndex) {
  // b = store(a, i, 5) && b[i] != 5 is unsat.
  const Term *A = TM.mkVar("a", Sort::ArrayIntInt);
  const Term *B = TM.mkVar("b", Sort::ArrayIntInt);
  const Term *I = TM.mkVar("i", Sort::Int);
  const Term *Def =
      TM.mkEq(B, TM.mkStore(A, I, TM.mkIntConst(5)));
  const Term *Bad = TM.mkNe(TM.mkSelect(B, I), TM.mkIntConst(5));
  EXPECT_EQ(check(TM.mkAnd(Def, Bad)), Status::Unsat);
}

TEST_F(SmtTest, StoreEliminationReadOtherIndex) {
  // b = store(a, i, 5) && j != i && b[j] != a[j] is unsat.
  const Term *A = TM.mkVar("a", Sort::ArrayIntInt);
  const Term *B = TM.mkVar("b", Sort::ArrayIntInt);
  const Term *I = TM.mkVar("i", Sort::Int);
  const Term *J = TM.mkVar("j", Sort::Int);
  const Term *Def = TM.mkEq(B, TM.mkStore(A, I, TM.mkIntConst(5)));
  const Term *F = TM.mkAnd(
      {Def, TM.mkNe(J, I),
       TM.mkNe(TM.mkSelect(B, J), TM.mkSelect(A, J))});
  EXPECT_EQ(check(F), Status::Unsat);
  // Without j != i it is satisfiable (j may alias i).
  const Term *G = TM.mkAnd(
      {Def, TM.mkNe(TM.mkSelect(B, J), TM.mkSelect(A, J))});
  EXPECT_EQ(check(G), Status::Sat);
}

TEST_F(SmtTest, StoreChain) {
  // c = store(b, j, 2), b = store(a, i, 1), i != j
  //   ==> c[i] = 1 && c[j] = 2.
  const Term *A = TM.mkVar("a", Sort::ArrayIntInt);
  const Term *B = TM.mkVar("b", Sort::ArrayIntInt);
  const Term *C = TM.mkVar("c", Sort::ArrayIntInt);
  const Term *I = TM.mkVar("i", Sort::Int);
  const Term *J = TM.mkVar("j", Sort::Int);
  const Term *Defs = TM.mkAnd(
      TM.mkEq(B, TM.mkStore(A, I, TM.mkIntConst(1))),
      TM.mkEq(C, TM.mkStore(B, J, TM.mkIntConst(2))));
  const Term *Sep = TM.mkNe(I, J);
  EXPECT_EQ(check(TM.mkAnd(
                {Defs, Sep,
                 TM.mkNe(TM.mkSelect(C, I), TM.mkIntConst(1))})),
            Status::Unsat);
  EXPECT_EQ(check(TM.mkAnd(
                {Defs, Sep,
                 TM.mkNe(TM.mkSelect(C, J), TM.mkIntConst(2))})),
            Status::Unsat);
}

TEST_F(SmtTest, ArrayAliasSubstitution) {
  // b = a (array identity) && b[i] != a[i] is unsat.
  const Term *A = TM.mkVar("a", Sort::ArrayIntInt);
  const Term *B = TM.mkVar("b", Sort::ArrayIntInt);
  const Term *I = TM.mkVar("i", Sort::Int);
  const Term *F = TM.mkAnd(
      TM.mkEq(B, A), TM.mkNe(TM.mkSelect(B, I), TM.mkSelect(A, I)));
  EXPECT_EQ(check(F), Status::Unsat);
}

// --- Entailment (the predicate-abstraction workhorse) ------------------------

// Regression: a disequality whose sides the other conjuncts force equal,
// over an unbounded integer ray (y + 2x - 2i = 3 has integer solutions
// in every direction). Integrality branching ran first and diverged into
// the split-depth limit, so one conjunct order answered Unknown and the
// reverse order Unsat. This is the query behind a rejected, correct
// certificate for fuzz seed 30 (`L3 := y + 2*x = 2*i + 3`).
TEST_F(SmtTest, ForcedEqualDisequalityIsUnsatInEveryOrder) {
  const char *Conjuncts[] = {
      "y_0 = y_1", "i_0 = i_1", "x_0 = x_1", "y_1 = y_2",
      "y_0 + 2*x_0 <= 3 + 2*i_0", "2*i_0 <= -3 + y_0 + 2*x_0",
      "y_1 + 2*x_1 != 3 + 2*i_1"};
  std::string Forward, Reverse;
  for (size_t I = 0; I < 7; ++I) {
    Forward += (I ? " && " : "") + std::string(Conjuncts[I]);
    Reverse += (I ? " && " : "") + std::string(Conjuncts[6 - I]);
  }
  for (const std::string &Text : {Forward, Reverse}) {
    smt::SolverContext Fresh{TM};
    EXPECT_TRUE(Fresh.checkFormula(parse(Text.c_str())).isUnsat()) << Text;
  }
  // The single-frame form, and a satisfiable neighbour: the refutation
  // must not fire when the sides can differ.
  EXPECT_FALSE(isSat("y + 2*x <= 3 + 2*i && 2*i <= -3 + y + 2*x && "
                     "y + 2*x != 3 + 2*i"));
  EXPECT_TRUE(isSat("y + 2*x <= 4 + 2*i && 2*i <= -3 + y + 2*x && "
                    "y + 2*x != 3 + 2*i"));
}

TEST_F(SmtTest, Entailment) {
  EXPECT_TRUE(entails(parse("x = 2"), parse("x >= 1")));
  EXPECT_FALSE(entails(parse("x >= 1"), parse("x = 2")));
  EXPECT_TRUE(entails(parse("a + b = 3*i && i = n"), parse("a + b = 3*n")));
  EXPECT_TRUE(entails(parse("false"), parse("x = 1")));
  EXPECT_TRUE(entails(parse("x = 1"), parse("true")));
}

// --- Array write elimination pass in isolation -------------------------------

TEST(ArrayElimTest, NoStoresIsIdentity) {
  TermManager TM;
  SortEnv Env;
  auto F = parseFormula(TM, "a[i] = 0 && i <= n", Env);
  ASSERT_TRUE(F.hasValue());
  auto R = eliminateArrayWrites(TM, F.get());
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R.get(), F.get());
}

TEST(ArrayElimTest, ProducesStoreFreeFormula) {
  TermManager TM;
  const Term *A = TM.mkVar("a", Sort::ArrayIntInt);
  const Term *B = TM.mkVar("b", Sort::ArrayIntInt);
  const Term *I = TM.mkVar("i", Sort::Int);
  const Term *J = TM.mkVar("j", Sort::Int);
  const Term *F = TM.mkAnd(
      TM.mkEq(B, TM.mkStore(A, I, TM.mkIntConst(0))),
      TM.mkEq(TM.mkSelect(B, J), TM.mkIntConst(1)));
  auto R = eliminateArrayWrites(TM, F);
  ASSERT_TRUE(R.hasValue());
  EXPECT_FALSE(containsStore(R.get())) << printTerm(R.get());
}

TEST(ArrayElimTest, RejectsNestedStores) {
  TermManager TM;
  const Term *A = TM.mkVar("a", Sort::ArrayIntInt);
  const Term *B = TM.mkVar("b", Sort::ArrayIntInt);
  const Term *I = TM.mkVar("i", Sort::Int);
  const Term *Nested = TM.mkStore(TM.mkStore(A, I, TM.mkIntConst(0)), I,
                                  TM.mkIntConst(1));
  auto R = eliminateArrayWrites(TM, TM.mkEq(B, Nested));
  EXPECT_FALSE(R.hasValue());
}

} // namespace
