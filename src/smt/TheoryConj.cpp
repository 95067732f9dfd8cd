//===- smt/TheoryConj.cpp - Conjunction solver for LRA+EUF ---------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/TheoryConj.h"

#include "core/Resource.h"
#include "smt/Congruence.h"

#include <algorithm>
#include <set>

using namespace pathinv;

namespace {

/// Evaluates an integer term under values for its arithmetic atoms.
Rational evalUnderModel(
    const Term *T,
    const std::map<const Term *, Rational, TermIdLess> &AtomValues) {
  std::optional<LinearExpr> L = LinearExpr::fromTerm(T);
  assert(L && "evaluating a non-linear term");
  Rational Result = L->constant();
  for (const auto &[Atom, Coeff] : L->coefficients()) {
    auto It = AtomValues.find(Atom);
    // Unconstrained atoms default to zero; accumulate in place (this runs
    // once per atom per bound-propagation/model-completion pass).
    if (It != AtomValues.end())
      Result.addMul(Coeff, It->second);
  }
  return Result;
}

using AtomVarMap = std::map<const Term *, int, TermIdLess>;

/// Simplex variable of \p Atom, created on demand. When \p Inserted is
/// non-null, newly created atoms are recorded there so the caller can roll
/// the map back after a tableau scope is popped.
int simplexVarOf(Simplex &Splx, AtomVarMap &AtomVar, const Term *Atom,
                 std::vector<const Term *> *Inserted) {
  auto [It, WasNew] = AtomVar.try_emplace(Atom, -1);
  if (WasNew) {
    It->second = Splx.addVar();
    if (Inserted)
      Inserted->push_back(Atom);
  }
  return It->second;
}

void addLinearConstraint(Simplex &Splx, AtomVarMap &AtomVar,
                         std::vector<const Term *> *Inserted,
                         const LinearExpr &Expr, SimplexRel Rel, int Tag) {
  std::vector<std::pair<int, Rational>> Coeffs;
  for (const auto &[Atom, Coeff] : Expr.coefficients())
    Coeffs.emplace_back(simplexVarOf(Splx, AtomVar, Atom, Inserted), Coeff);
  Splx.addConstraint(Coeffs, Rel, -Expr.constant(), Tag);
}

/// Adds the arithmetic content of one literal to the tableau; no-op for
/// boolean constants, disequalities (handled by splitting), and array
/// equalities (the congruence closure's business).
void addFactArith(Simplex &Splx, AtomVarMap &AtomVar,
                  std::vector<const Term *> *Inserted, const Term *Lit,
                  int Tag) {
  if (Lit->isTrue() || Lit->isFalse() || Lit->kind() == TermKind::Not)
    return;
  if (Lit->kind() == TermKind::Eq && Lit->operand(0)->isArray())
    return;
  std::optional<LinearAtom> Atom = decomposeAtom(Lit);
  assert(Atom && "non-linear atom in theory solver");
  if (Atom->Rel == RelKind::Lt) {
    // All atoms are integer-valued (program integers, reads of integer
    // arrays, integer functions), so strict inequalities tighten:
    // e < 0 becomes e + 1 <= 0 after scaling to integral coefficients.
    // This keeps the simplex free of infinitesimals, whose fractional
    // vertex values would otherwise keep branch-and-bound churning.
    LinearExpr Tight = normalizeToIntegral(Atom->Expr);
    Tight.addConstant(Rational(1));
    addLinearConstraint(Splx, AtomVar, Inserted, Tight, SimplexRel::Le, Tag);
    return;
  }
  addLinearConstraint(Splx, AtomVar, Inserted, Atom->Expr,
                      Atom->Rel == RelKind::Eq ? SimplexRel::Eq
                                               : SimplexRel::Le,
                      Tag);
}

/// Asserts one literal into the congruence closure (phase 1). Only
/// equalities whose both sides are congruence nodes (variables, constants,
/// reads, applications) are asserted; mixed arithmetic equalities are the
/// simplex's business, and disequalities over arithmetic are resolved by
/// model-based splitting. Returns false on conflict with the conflicting
/// tags in \p ConflictCore.
bool assertIntoClosure(CongruenceClosure &CC, const Term *Lit, int Tag,
                       std::vector<int> &ConflictCore) {
  auto isCCNode = [](const Term *T) {
    switch (T->kind()) {
    case TermKind::Var:
    case TermKind::IntConst:
    case TermKind::Select:
    case TermKind::Apply:
      return true;
    default:
      return false;
    }
  };
  if (Lit->isTrue())
    return true;
  if (Lit->isFalse()) {
    ConflictCore = {Tag};
    return false;
  }
  bool Negated = Lit->kind() == TermKind::Not;
  const Term *Atom = Negated ? Lit->operand(0) : Lit;
  assert(Atom->isAtom() && "non-literal input to theory solver");
  const Term *A = Atom->operand(0);
  const Term *B = Atom->operand(1);
  bool Ok = true;
  if (Atom->kind() == TermKind::Eq && isCCNode(A) && isCCNode(B)) {
    assert((A->isInt() || !Negated) && "array disequalities are unsupported");
    Ok = Negated ? CC.assertDisequal(A, B, Tag) : CC.assertEqual(A, B, Tag);
  } else {
    assert((!Negated || Atom->kind() == TermKind::Eq) &&
           "negated inequalities must be normalized away");
    CC.registerTerm(A);
    CC.registerTerm(B);
  }
  if (!Ok) {
    ConflictCore = CC.conflictTags();
    return false;
  }
  return true;
}

/// A functional-consistency violation between two reads/applications
/// \c U and \c V. When an argument pair's equality is neither congruence-
/// known nor already asserted as a fact, \c X / \c Y name the first such
/// pair and the caller branches on its ordering. When every argument
/// equality is established (X == nullptr), the violation is resolved by
/// the derived fact U = V, justified by \c PremiseTags — the fact indices
/// explaining the array equality and each argument equality. The second
/// case is what terminates splitting over *arithmetic* argument terms:
/// the congruence closure only represents vars/constants/reads/
/// applications, so an asserted equality like 1 = 1 + i can never become
/// CC-known and ordering splits alone would re-fire forever.
struct FunctionalSplit {
  const Term *X = nullptr;
  const Term *Y = nullptr;
  const Term *U = nullptr;
  const Term *V = nullptr;
  std::vector<int> PremiseTags;
};

/// Equality literals currently asserted as facts, keyed by their operand
/// pair (both orders), mapped to the fact index.
using AssertedEqMap = std::map<std::pair<const Term *, const Term *>, int>;

/// Finds the first pair of reads/applications that violates functional
/// consistency under \p AtomValues: same kind and symbol, argument values
/// equal in the model, result values different, and not already congruent.
/// \p AssertedEq (optional) lets an asserted-but-not-CC-representable
/// argument equality count as established, with its fact index collected
/// into the premise instead of re-branching on it.
std::optional<FunctionalSplit> findFunctionalViolation(
    CongruenceClosure &CC,
    const std::map<const Term *, Rational, TermIdLess> &AtomValues,
    const AssertedEqMap *AssertedEq = nullptr) {
  auto assertedTag = [&](const Term *X, const Term *Y) -> std::optional<int> {
    if (!AssertedEq)
      return std::nullopt;
    auto It = AssertedEq->find({X, Y});
    if (It == AssertedEq->end())
      return std::nullopt;
    return It->second;
  };
  const auto &Nodes = CC.nodes();
  for (size_t I = 0; I < Nodes.size(); ++I) {
    for (size_t J = I + 1; J < Nodes.size(); ++J) {
      const Term *U = Nodes[I];
      const Term *V = Nodes[J];
      if (U->kind() != V->kind())
        continue;
      if (U->kind() != TermKind::Select && U->kind() != TermKind::Apply)
        continue;
      if (U->numOperands() != V->numOperands())
        continue;
      if (U->kind() == TermKind::Apply && U->name() != V->name())
        continue;
      if (U->kind() == TermKind::Select &&
          !CC.areEqual(U->operand(0), V->operand(0)))
        continue; // Reads of (so far) unrelated arrays.
      if (CC.areEqual(U, V))
        continue;
      size_t FirstArg = U->kind() == TermKind::Select ? 1 : 0;
      bool ArgsEqualInModel = true;
      FunctionalSplit Split;
      Split.U = U;
      Split.V = V;
      for (size_t K = FirstArg; K < U->numOperands(); ++K) {
        const Term *X = U->operand(K);
        const Term *Y = V->operand(K);
        if (evalUnderModel(X, AtomValues) != evalUnderModel(Y, AtomValues)) {
          ArgsEqualInModel = false;
          break;
        }
        if (X == Y)
          continue;
        if (CC.areEqual(X, Y)) {
          std::vector<int> Just = CC.explainEquality(X, Y);
          Split.PremiseTags.insert(Split.PremiseTags.end(), Just.begin(),
                                   Just.end());
          continue;
        }
        if (std::optional<int> Tag = assertedTag(X, Y)) {
          Split.PremiseTags.push_back(*Tag);
          continue;
        }
        if (!Split.X) {
          Split.X = X;
          Split.Y = Y;
        }
      }
      if (!ArgsEqualInModel)
        continue;
      if (evalUnderModel(U, AtomValues) == evalUnderModel(V, AtomValues))
        continue; // Functionally consistent as-is.
      if (U->kind() == TermKind::Select &&
          U->operand(0) != V->operand(0)) {
        std::vector<int> Just =
            CC.explainEquality(U->operand(0), V->operand(0));
        Split.PremiseTags.insert(Split.PremiseTags.end(), Just.begin(),
                                 Just.end());
      }
      assert((Split.X || AssertedEq) &&
             "congruence violation without a splittable arg");
      return Split;
    }
  }
  return std::nullopt;
}

/// One constraint of the integer infeasibility pre-check: Expr = 0 (IsEq)
/// or Expr <= 0, all coefficients integral, with the input fact indices
/// that justify it (substitutions merge justifications).
struct IntLinFact {
  LinearExpr E;
  bool IsEq;
  std::vector<int> Tags;
  bool Dead = false;
};

/// Omega-lite integer infeasibility test over the arithmetic facts.
///
/// Naive branch-and-bound diverges on conjunctions whose rational
/// relaxation is unbounded along a ray carrying no integer point (e.g.
/// a = 3i and a + 4 <= 3n <= a + 5: rationally satisfiable arbitrarily
/// far up the ray, integrally empty because 3(n - i) has to land in
/// [4, 5]). Two classic pieces of integer reasoning refute such systems
/// without search: substituting away unit-coefficient equalities, then
/// GCD-tightening opposing bounds per direction — a direction vector with
/// coefficient gcd g admits only multiples of g, so an integer-empty
/// [lower, upper] interval is a contradiction the simplex cannot see.
///
/// \returns the contradicting input fact indices, or nullopt when no
/// contradiction was found (which is NOT a satisfiability verdict — the
/// caller proceeds to branch). \p FactT exposes .Literal.
template <typename FactT>
std::optional<std::vector<int>>
integerInfeasibleCore(const std::vector<FactT> &Facts) {
  std::vector<IntLinFact> Lin;
  for (size_t I = 0; I < Facts.size(); ++I) {
    const Term *Lit = Facts[I].Literal;
    if (Lit->isTrue() || Lit->isFalse() || Lit->kind() == TermKind::Not)
      continue;
    if (Lit->kind() == TermKind::Eq && Lit->operand(0)->isArray())
      continue;
    std::optional<LinearAtom> Atom = decomposeAtom(Lit);
    if (!Atom)
      continue;
    IntLinFact F;
    F.E = normalizeToIntegral(Atom->Expr);
    F.IsEq = Atom->Rel == RelKind::Eq;
    if (Atom->Rel == RelKind::Lt)
      F.E.addConstant(Rational(1)); // Integer atoms: e < 0 is e + 1 <= 0.
    F.Tags.push_back(static_cast<int>(I));
    Lin.push_back(std::move(F));
  }

  auto finishCore = [](std::vector<int> Tags) {
    std::sort(Tags.begin(), Tags.end());
    Tags.erase(std::unique(Tags.begin(), Tags.end()), Tags.end());
    return Tags;
  };
  auto varGcd = [](const LinearExpr &E) {
    BigInt G;
    for (const auto &[Atom, C] : E.coefficients())
      G = BigInt::gcd(G, C.numerator());
    return G;
  };

  // Equality phase: GCD-test every equality and eliminate variables that
  // appear with a unit coefficient. Each substitution removes a variable
  // from the whole system and retires one equality, so this terminates.
  bool Substituted = true;
  while (Substituted) {
    Substituted = false;
    for (size_t I = 0; I < Lin.size(); ++I) {
      if (Lin[I].Dead || !Lin[I].IsEq)
        continue;
      const LinearExpr &E = Lin[I].E;
      if (E.isConstant()) {
        if (E.constant() != Rational(0))
          return finishCore(Lin[I].Tags);
        Lin[I].Dead = true;
        continue;
      }
      BigInt G = varGcd(E);
      // g must divide the constant for e = 0 to have an integer solution.
      if (!(E.constant() / Rational(G)).isInteger())
        return finishCore(Lin[I].Tags);
      const Term *Var = nullptr;
      Rational VC;
      for (const auto &[A, C] : E.coefficients())
        if (C == Rational(1) || C == Rational(-1)) {
          Var = A;
          VC = C;
          break;
        }
      if (!Var)
        continue;
      // e = R + VC*Var = 0 solves to Var = -VC*R (VC is +-1).
      LinearExpr Sub = E;
      Sub.addTerm(Var, -VC);
      Sub.scale(-VC);
      for (size_t J = 0; J < Lin.size(); ++J) {
        if (J == I || Lin[J].Dead)
          continue;
        Rational D = Lin[J].E.coefficientOf(Var);
        if (D == Rational(0))
          continue;
        Lin[J].E.addTerm(Var, -D);
        Lin[J].E.add(Sub * D);
        Lin[J].Tags.insert(Lin[J].Tags.end(), Lin[I].Tags.begin(),
                           Lin[I].Tags.end());
      }
      Lin[I].Dead = true; // The equality now just defines Var.
      Substituted = true;
    }
  }

  // Bound phase: per primitive direction v (coefficients divided by their
  // gcd, sign-normalized on the first atom), keep the tightest integer
  // upper and lower bounds; crossing bounds refute the system. The
  // flooring/ceiling after gcd division is what the rational simplex
  // cannot do.
  struct Bounds {
    bool HasLo = false, HasUp = false;
    Rational Lo, Up;
    std::vector<int> LoTags, UpTags;
  };
  std::map<std::vector<std::pair<const Term *, Rational>>, Bounds> Dirs;
  for (const IntLinFact &F : Lin) {
    if (F.Dead)
      continue;
    const LinearExpr &E = F.E;
    if (E.isConstant()) {
      bool Bad = F.IsEq ? E.constant() != Rational(0)
                        : E.constant() > Rational(0);
      if (Bad)
        return finishCore(F.Tags);
      continue;
    }
    BigInt G = varGcd(E);
    Rational RG{G};
    std::vector<std::pair<const Term *, Rational>> Dir;
    for (const auto &[A, C] : E.coefficients())
      Dir.emplace_back(A, C / RG);
    bool Flip = Dir.front().second < Rational(0);
    if (Flip)
      for (auto &[A, C] : Dir)
        C = -C;
    // c0 + g*v REL 0 with v = dir-part (w = -v when flipped):
    //   <= : v <= -c0/g, i.e. w >= c0/g.
    //   =  : v = -c0/g exactly (both bounds).
    Rational V = -E.constant() / RG;
    if (Flip)
      V = -V;
    Bounds &B = Dirs[Dir];
    auto tighten = [&](bool Upper, const Rational &Bound) {
      if (Upper) {
        if (!B.HasUp || Bound < B.Up) {
          B.HasUp = true;
          B.Up = Bound;
          B.UpTags = F.Tags;
        }
      } else if (!B.HasLo || Bound > B.Lo) {
        B.HasLo = true;
        B.Lo = Bound;
        B.LoTags = F.Tags;
      }
    };
    if (F.IsEq) {
      tighten(true, Rational(V.floor()));
      tighten(false, Rational(V.ceil()));
    } else if (!Flip) {
      tighten(true, Rational(V.floor()));
    } else {
      tighten(false, Rational(V.ceil()));
    }
  }
  for (const auto &[Dir, B] : Dirs) {
    if (B.HasLo && B.HasUp && B.Lo > B.Up) {
      std::vector<int> Core = B.LoTags;
      Core.insert(Core.end(), B.UpTags.begin(), B.UpTags.end());
      return finishCore(Core);
    }
  }
  return std::nullopt;
}

} // namespace

ConjResult
TheoryConjSolver::solve(const std::vector<const Term *> &Literals) {
  std::vector<Fact> Facts;
  Facts.reserve(Literals.size());
  for (size_t I = 0; I < Literals.size(); ++I)
    Facts.push_back({Literals[I], static_cast<int>(I)});

  ConjResult Result = solveFacts(std::move(Facts), /*Depth=*/0);
  if (!Result.IsSat) {
    // Fact indices at the top level coincide with literal indices (all
    // split decisions were removed when their branch unions were formed).
    std::vector<int> Core;
    for (int FactIdx : Result.Core) {
      assert(FactIdx >= 0 && FactIdx < static_cast<int>(Literals.size()) &&
             "decision leaked into top-level core");
      Core.push_back(FactIdx);
    }
    std::sort(Core.begin(), Core.end());
    Core.erase(std::unique(Core.begin(), Core.end()), Core.end());
    Result.Core = std::move(Core);
  }
  return Result;
}

bool TheoryConjSolver::ensureBaseTableau() {
  // Dead columns accumulate in the shared tableau as query scopes are
  // popped; rebuild once they dominate the live base.
  if (!BaseDirty && BaseSplx.numVars() > 2 * BaseVarCount + 128)
    BaseDirty = true;
  if (BaseDirty) {
    ++BaseRebuilds;
    ++SimplexRuns;
    BaseSplx = Simplex();
    BaseAtomVar.clear();
    // The rebuild drops every installed cut row with the tableau; each is
    // re-installed (premises permitting) by the next installCutRows().
    for (CutRow &C : CutRows)
      C.Installed = false;
    for (size_t I = 0; I < BaseLits.size(); ++I)
      addFactArith(BaseSplx, BaseAtomVar, nullptr, BaseLits[I],
                   static_cast<int>(I));
    Simplex::Result BaseResult = BaseSplx.check();
    BaseUnsat = BaseResult == Simplex::Result::Unsat;
    BaseVarCount = BaseSplx.numVars();
    // An interrupted base check proved nothing; keep the dirty bit so the
    // next (uninterrupted) call re-establishes the base verdict.
    BaseDirty = BaseResult == Simplex::Result::Interrupted;
  }
  return !BaseUnsat;
}

void TheoryConjSolver::installCutRows() {
  bool AnyPending = false;
  for (const CutRow &C : CutRows)
    AnyPending |= !C.Installed;
  if (!AnyPending)
    return;
  std::set<const Term *, TermIdLess> Asserted(BaseLits.begin(),
                                              BaseLits.end());
  for (CutRow &C : CutRows) {
    if (C.Installed)
      continue;
    bool Entailed = true;
    for (const Term *P : C.Premises)
      Entailed &= Asserted.count(P) != 0;
    if (!Entailed)
      continue; // Premises retracted; the row waits for a matching base.
    // Root-scope row: survives every query scope until the next rebuild.
    // Base ∧ premises |= Bound, so the row never changes satisfiability —
    // it only lets refuted branches conflict without their own scope.
    addFactArith(BaseSplx, BaseAtomVar, nullptr, C.Bound, CutTag);
    C.Installed = true;
    ++CutRowsInstalled;
  }
}

void TheoryConjSolver::distillCuts(std::vector<BranchLemma> &BaseOnly) {
  for (BranchLemma &L : BaseOnly) {
    if (CutRows.size() >= MaxCutRows)
      return;
    auto It = CutSurfaceCount.find(L.Bound);
    if (It == CutSurfaceCount.end()) {
      if (CutSurfaceCount.size() < MaxCutCandidates)
        CutSurfaceCount.emplace(L.Bound, 1);
      continue;
    }
    if (++It->second < 2)
      continue;
    bool Known = false;
    for (const CutRow &C : CutRows)
      Known |= C.Bound == L.Bound;
    if (Known)
      continue;
    CutRows.push_back({std::move(L.Premises), L.Bound, /*Installed=*/false});
  }
}

namespace {

using ModelMap = std::map<const Term *, Rational, TermIdLess>;

/// Rebuilds the candidate model from the tableau and the congruence
/// closure's node set (integer constants take their value, everything
/// else defaults to zero). Runs once per branch-and-bound node.
void extractModel(const Simplex &Splx, const AtomVarMap &AtomVar,
                  CongruenceClosure &CC, ModelMap &Out) {
  Out.clear();
  std::vector<Rational> M = Splx.model();
  for (const auto &[Atom, Var] : AtomVar)
    Out[Atom] = M[Var];
  for (const Term *Node : CC.nodes()) {
    if (!Node->isInt())
      continue;
    if (Node->isIntConst()) {
      Out[Node] = Node->value();
      continue;
    }
    Out.try_emplace(Node, Rational());
  }
}

/// One side of a branch: assert `Expr <= 0`; when the side is refuted by
/// input facts alone, \c Complement is the integer bound those facts
/// entail (the lemma head).
struct BranchSide {
  LinearExpr Expr;
  const Term *Complement;
};

/// A two-way case split chosen from the candidate model. Sides are tried
/// in order; \c ExhaustTag justifies exhaustiveness (the disequality fact
/// for disequality splits, absent for integrality splits, which are valid
/// for integer-valued atoms unconditionally).
struct BranchPlan {
  BranchSide Sides[2];
  std::optional<int> ExhaustTag;
};

/// The scoped branch-and-bound search over the shared tableau. Every
/// branch node is one Simplex scope holding one bound; check() repairs
/// the assignment in place and pop() backtracks, so the base and query
/// constraints are never re-asserted.
struct BnbSearch {
  /// Interrupted: the ResourceController tripped; unwind popping every
  /// scope on the way out (like Exhausted) but do NOT fall back to the
  /// scratch solver — the whole query must give up.
  enum class Status : uint8_t { Sat, Unsat, Exhausted, Interrupted };

  TermManager &TM;
  Simplex &Splx;
  AtomVarMap &AtomVar;
  std::vector<const Term *> *InsertedAtoms;
  CongruenceClosure &CC;
  const std::vector<const Term *> &FactLits;

  // Tag bookkeeping shared with the caller: tags >= FactLits.size() index
  // DerivedJust; branch decisions are marked in IsBranchTag.
  std::vector<std::vector<int>> &DerivedJust;
  std::vector<bool> &IsBranchTag;

  uint32_t NodesLeft;
  uint32_t MaxDepth;
  uint64_t &NodesCounter;
  uint64_t &RepairPivots;
  std::vector<BranchLemma> &Lemmas;
  uint64_t &LemmasProduced;
  static constexpr size_t MaxPendingLemmas = 64;
  static constexpr size_t MaxLemmaPremises = 12;

  /// Facts below this index are retained base literals. Lemmas resting on
  /// them alone are cut-row candidates (collected separately so the
  /// owning solver can distill repeat offenders into permanent rows).
  int NumBaseFacts = 0;
  std::vector<BranchLemma> *BaseOnlyLemmas = nullptr;

  int numFacts() const { return static_cast<int>(FactLits.size()); }

  int freshBranchTag() {
    DerivedJust.emplace_back();
    IsBranchTag.push_back(true);
    return numFacts() + static_cast<int>(DerivedJust.size()) - 1;
  }

  bool isBranchTag(int Tag) const {
    return Tag >= numFacts() && IsBranchTag[Tag - numFacts()];
  }

  /// Expands derived (non-branch) tags to the fact indices justifying
  /// them. Branch tags must have been stripped by the caller.
  std::vector<int> expandToFacts(const std::vector<int> &Tags) const {
    std::vector<int> Out;
    for (int Tag : Tags) {
      if (Tag < numFacts()) {
        Out.push_back(Tag);
        continue;
      }
      assert(!IsBranchTag[Tag - numFacts()] &&
             "branch decision leaked into an expanded core");
      const auto &Just = DerivedJust[Tag - numFacts()];
      Out.insert(Out.end(), Just.begin(), Just.end());
    }
    std::sort(Out.begin(), Out.end());
    Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
    return Out;
  }

  /// Picks the next case split under \p Values, or nothing when the model
  /// is integral and separates every disequality. Integrality first, by
  /// best-first fractionality (fractional part closest to 1/2), with the
  /// side nearer the relaxation value ordered first.
  std::optional<BranchPlan> chooseSplit(const ModelMap &Values) const {
    const Term *FracAtom = nullptr;
    Rational FracVal;
    Rational BestScore;
    for (const auto &[Atom, Value] : Values) {
      if (Value.isInteger())
        continue;
      Rational Frac = Value - Rational(Value.floor());
      Rational Score = Frac <= Rational(BigInt(1), BigInt(2))
                           ? Frac
                           : Rational(1) - Frac;
      if (!FracAtom || Score > BestScore) {
        FracAtom = Atom;
        FracVal = Value;
        BestScore = Score;
      }
    }
    if (FracAtom) {
      const Term *FloorC = TM.mkIntConst(Rational(FracVal.floor()));
      const Term *CeilC = TM.mkIntConst(Rational(FracVal.ceil()));
      // Low side: Atom - floor <= 0. High side: ceil - Atom <= 0.
      BranchSide Low{LinearExpr::atom(FracAtom), TM.mkLe(CeilC, FracAtom)};
      Low.Expr.addConstant(-Rational(FracVal.floor()));
      BranchSide High{-LinearExpr::atom(FracAtom), TM.mkLe(FracAtom, FloorC)};
      High.Expr.addConstant(Rational(FracVal.ceil()));
      BranchPlan Plan;
      bool LowFirst =
          FracVal - Rational(FracVal.floor()) <= Rational(BigInt(1), BigInt(2));
      Plan.Sides[0] = LowFirst ? Low : High;
      Plan.Sides[1] = LowFirst ? High : Low;
      return Plan;
    }

    // Disequality phase. A violated `A != B` forces `A <= B - 1` or
    // `A >= B + 1` over the integers (the same tightening addFactArith
    // applies to strict inequalities); the branch constraint is the
    // *slack expression* A - B -+ 1, not a single-atom bound, so one
    // decision moves every atom the difference mentions. Path formulas
    // deliver disequalities in chains over shared atoms (x0 != x1,
    // x1 != x2, ...): branch on the candidate whose slack expression
    // overlaps the most other unseparated candidates — the repair that
    // separates it drags the shared atoms along, often separating the
    // neighbours in the same pivot, and the complement bounds it surfaces
    // as lemma heads speak for the whole chain.
    struct DiseqCand {
      int FactIdx;
      const Term *A, *B;
      LinearExpr Diff;
    };
    std::vector<DiseqCand> Cands;
    for (int I = 0; I < numFacts(); ++I) {
      const Term *Lit = FactLits[I];
      if (Lit->kind() != TermKind::Not)
        continue;
      const Term *Atom = Lit->operand(0);
      const Term *A = Atom->operand(0);
      const Term *B = Atom->operand(1);
      if (!A->isInt())
        continue;
      if (evalUnderModel(A, Values) != evalUnderModel(B, Values))
        continue; // Model already separates the two sides.
      Cands.push_back(
          {I, A, B, *LinearExpr::fromTerm(A) - *LinearExpr::fromTerm(B)});
    }
    if (Cands.empty())
      return std::nullopt;
    size_t Best = 0;
    if (Cands.size() > 1) {
      int BestScore = -1;
      for (size_t I = 0; I < Cands.size(); ++I) {
        int Score = 0;
        for (size_t J = 0; J < Cands.size(); ++J) {
          if (I == J)
            continue;
          bool Shares = false;
          for (const auto &[AtomI, Coeff] : Cands[I].Diff.coefficients()) {
            (void)Coeff;
            if (Cands[J].Diff.coefficients().count(AtomI)) {
              Shares = true;
              break;
            }
          }
          Score += Shares ? 1 : 0;
        }
        // Ties keep the earliest fact index: deterministic, and matches
        // the pre-scoring order on chain-free queries.
        if (Score > BestScore) {
          BestScore = Score;
          Best = I;
        }
      }
    }
    const DiseqCand &D = Cands[Best];
    BranchPlan Plan;
    Plan.Sides[0].Expr = normalizeToIntegral(D.Diff);
    Plan.Sides[0].Expr.addConstant(Rational(1));
    Plan.Sides[0].Complement = TM.mkLe(D.B, D.A);
    Plan.Sides[1].Expr = normalizeToIntegral(-D.Diff);
    Plan.Sides[1].Expr.addConstant(Rational(1));
    Plan.Sides[1].Complement = TM.mkLe(D.A, D.B);
    Plan.ExhaustTag = D.FactIdx;
    return Plan;
  }

  /// Surfaces `premises -> Complement` when a refuted side's core rests on
  /// input facts alone (no ancestor branch decision participates).
  void maybeSurfaceLemma(const BranchSide &Side,
                         const std::vector<int> &CoreSansTag) {
    if (Lemmas.size() >= MaxPendingLemmas)
      return;
    for (int Tag : CoreSansTag)
      if (isBranchTag(Tag))
        return; // Conditional on an ancestor decision; not a fact lemma.
    std::vector<int> Facts = expandToFacts(CoreSansTag);
    if (Facts.size() > MaxLemmaPremises)
      return;
    bool BaseOnly = true;
    for (int I : Facts) {
      // A cut row (negative tag) is base-entailed but carries no premise
      // set of its own: a lemma justified through one would be recorded
      // with too-weak premises — an unsound clause. Never surface those.
      if (I < 0)
        return;
      BaseOnly &= I < NumBaseFacts;
    }
    BranchLemma L;
    L.Bound = Side.Complement;
    L.Premises.reserve(Facts.size());
    for (int I : Facts)
      L.Premises.push_back(FactLits[I]);
    if (BaseOnly && BaseOnlyLemmas &&
        BaseOnlyLemmas->size() < MaxPendingLemmas)
      BaseOnlyLemmas->push_back(L);
    Lemmas.push_back(std::move(L));
    ++LemmasProduced;
  }

  /// One search node. Entered with the tableau feasible under all
  /// enclosing scopes; on Sat fills \p ModelOut, on Unsat fills
  /// \p CoreOut with raw tags (ancestor branch tags may remain — each is
  /// stripped at its own node's join).
  Status search(int Depth, ModelMap &ModelOut, std::vector<int> &CoreOut) {
    ModelMap Values;
    extractModel(Splx, AtomVar, CC, Values);
    std::optional<BranchPlan> Plan = chooseSplit(Values);
    if (!Plan) {
      if (findFunctionalViolation(CC, Values))
        return Status::Exhausted; // Needs a congruence split; use scratch.
      ModelOut = std::move(Values);
      return Status::Sat;
    }

    std::vector<int> Union;
    for (const BranchSide &Side : Plan->Sides) {
      if (NodesLeft == 0 || Depth >= static_cast<int>(MaxDepth))
        return Status::Exhausted;
      if (!resourceCharge(ResourceKind::BnbNodes))
        return Status::Interrupted;
      --NodesLeft;
      ++NodesCounter;
      int Tag = freshBranchTag();
      Splx.push();
      addLinearConstraint(Splx, AtomVar, InsertedAtoms, Side.Expr,
                          SimplexRel::Le, Tag);
      uint64_t PivotsBefore = Splx.numPivots();
      Simplex::Result SideResult = Splx.check();
      RepairPivots += Splx.numPivots() - PivotsBefore;
      if (SideResult == Simplex::Result::Interrupted) {
        Splx.pop();
        return Status::Interrupted;
      }
      bool SideFeasible = SideResult == Simplex::Result::Sat;
      std::vector<int> Core;
      if (SideFeasible) {
        Status R = search(Depth + 1, ModelOut, Core);
        if (R != Status::Unsat) {
          Splx.pop();
          return R; // Sat (model extracted) or Exhausted.
        }
      } else {
        Core = Splx.unsatCore();
      }
      Splx.pop();
      auto It = std::find(Core.begin(), Core.end(), Tag);
      if (It == Core.end()) {
        // The refutation does not use this branch's decision: it is a
        // valid core for the node as a whole, so the sibling need not run.
        CoreOut = std::move(Core);
        return Status::Unsat;
      }
      Core.erase(It);
      maybeSurfaceLemma(Side, Core);
      Union.insert(Union.end(), Core.begin(), Core.end());
    }
    if (Plan->ExhaustTag)
      Union.push_back(*Plan->ExhaustTag);
    std::sort(Union.begin(), Union.end());
    Union.erase(std::unique(Union.begin(), Union.end()), Union.end());
    CoreOut = std::move(Union);
    return Status::Unsat;
  }
};

} // namespace

bool TheoryConjSolver::trySolveScoped(const std::vector<const Term *> &Query,
                                      ConjResult &Out) {
  const int NumBase = static_cast<int>(BaseLits.size());
  const int NumFacts = NumBase + static_cast<int>(Query.size());
  auto factLiteral = [&](int I) {
    return I < NumBase ? BaseLits[I] : Query[I - NumBase];
  };
  auto finishUnsat = [&](std::vector<int> GlobalCore) {
    Out = ConjResult();
    for (int I : GlobalCore) {
      if (I < NumBase)
        Out.BaseInCore = true;
      else
        Out.Core.push_back(I - NumBase);
    }
    std::sort(Out.Core.begin(), Out.Core.end());
    Out.Core.erase(std::unique(Out.Core.begin(), Out.Core.end()),
                   Out.Core.end());
  };

  // Phase 1: congruence closure over base ++ query.
  CongruenceClosure CC;
  for (int I = 0; I < NumFacts; ++I) {
    std::vector<int> Conflict;
    if (!assertIntoClosure(CC, factLiteral(I), I, Conflict)) {
      finishUnsat(std::move(Conflict));
      return true;
    }
  }

  if (!ensureBaseTableau()) {
    Out = ConjResult();
    Out.BaseInCore = true;
    return true;
  }
  ++BaseReuses;
  // With the base solved and no query scope open yet, land any distilled
  // cut rows whose premises are currently asserted.
  installCutRows();

  // Phase 2 (scoped): query constraints plus CC equality exchange, asserted
  // inside a tableau scope on top of the solved base. Tags >= NumFacts are
  // derived: CC equalities carry the fact indices justifying them, branch
  // decisions (added by the search below) are marked and stripped at
  // their own node's join.
  std::vector<std::vector<int>> DerivedJust;
  std::vector<bool> IsBranchTag;
  auto freshDerivedTag = [&](std::vector<int> Just) {
    DerivedJust.push_back(std::move(Just));
    IsBranchTag.push_back(false);
    return NumFacts + static_cast<int>(DerivedJust.size()) - 1;
  };
  auto expandTags = [&](const std::vector<int> &Tags) {
    std::vector<int> Expanded;
    for (int Tag : Tags) {
      if (Tag < NumFacts) {
        Expanded.push_back(Tag);
        continue;
      }
      assert(!IsBranchTag[Tag - NumFacts] &&
             "branch decision leaked into a final core");
      const auto &Just = DerivedJust[Tag - NumFacts];
      Expanded.insert(Expanded.end(), Just.begin(), Just.end());
    }
    return Expanded;
  };

  std::vector<const Term *> InsertedAtoms;
  BaseSplx.push();
  auto cleanupScope = [&]() {
    BaseSplx.pop();
    for (const Term *Atom : InsertedAtoms)
      BaseAtomVar.erase(Atom);
  };

  ++SimplexRuns;
  for (int I = NumBase; I < NumFacts; ++I)
    addFactArith(BaseSplx, BaseAtomVar, &InsertedAtoms, factLiteral(I), I);
  for (const auto &[A, B] : CC.equivalentPairs()) {
    if (!A->isInt())
      continue;
    std::vector<int> Just = CC.explainEquality(A, B);
    LinearExpr Diff = *LinearExpr::fromTerm(A) - *LinearExpr::fromTerm(B);
    addLinearConstraint(BaseSplx, BaseAtomVar, &InsertedAtoms, Diff,
                        SimplexRel::Eq, freshDerivedTag(std::move(Just)));
  }

  Simplex::Result ScopeResult = BaseSplx.check();
  if (ScopeResult == Simplex::Result::Interrupted) {
    cleanupScope();
    Out = ConjResult();
    Out.Interrupted = true;
    return true; // Done (no verdict); never fall back to scratch.
  }
  if (ScopeResult == Simplex::Result::Unsat) {
    finishUnsat(expandTags(BaseSplx.unsatCore()));
    cleanupScope();
    return true;
  }

  // Phases 3/4 (scoped): complete the rational relaxation to an integral,
  // disequality-separating model by branch-and-bound over the same
  // tableau. All facts live (base ++ query ++ CC equalities), so literals
  // are never re-asserted; each branch is one nested bound scope.
  std::vector<const Term *> FactLits;
  FactLits.reserve(NumFacts);
  for (int I = 0; I < NumFacts; ++I)
    FactLits.push_back(factLiteral(I));

  BnbSearch Search{TM,
                   BaseSplx,
                   BaseAtomVar,
                   &InsertedAtoms,
                   CC,
                   FactLits,
                   DerivedJust,
                   IsBranchTag,
                   BnbNodeBudget,
                   BnbDepthBudget,
                   BnbNodes,
                   BnbRepairPivots,
                   PendingLemmas,
                   BranchLemmasProduced};
  std::vector<BranchLemma> BaseOnlyLemmas;
  Search.NumBaseFacts = NumBase;
  Search.BaseOnlyLemmas = &BaseOnlyLemmas;
  ModelMap AtomValues;
  std::vector<int> Core;
  BnbSearch::Status R = Search.search(/*Depth=*/0, AtomValues, Core);
  // Whatever the outcome, base-only refutations the search surfaced are
  // candidates for permanent cut rows on future queries of this base.
  distillCuts(BaseOnlyLemmas);
  if (R == BnbSearch::Status::Interrupted) {
    cleanupScope();
    Out = ConjResult();
    Out.Interrupted = true;
    return true; // Resources exhausted: no scratch retry.
  }
  if (R == BnbSearch::Status::Exhausted) {
    cleanupScope();
    return false; // Budget spent or congruence split needed: use scratch.
  }
  if (R == BnbSearch::Status::Unsat) {
    finishUnsat(expandTags(Core));
    cleanupScope();
    return true;
  }
  cleanupScope();

  Out = ConjResult();
  Out.IsSat = true;
  Out.Model = std::move(AtomValues);
  return true;
}

ConjResult
TheoryConjSolver::solveWithBase(const std::vector<const Term *> &Query) {
  ConjResult Fast;
  if (trySolveScoped(Query, Fast))
    return Fast;
  ++ScratchFallbacks;

  // The scoped search could not finish (branch budget exhausted, or a
  // functional-consistency split would require re-running congruence
  // closure): solve base ++ query from scratch and remap the core onto
  // query indices.
  std::vector<const Term *> All;
  All.reserve(BaseLits.size() + Query.size());
  All.insert(All.end(), BaseLits.begin(), BaseLits.end());
  All.insert(All.end(), Query.begin(), Query.end());
  ConjResult R = solve(All);
  if (!R.IsSat) {
    std::vector<int> QueryCore;
    for (int I : R.Core) {
      if (I < static_cast<int>(BaseLits.size()))
        R.BaseInCore = true;
      else
        QueryCore.push_back(I - static_cast<int>(BaseLits.size()));
    }
    R.Core = std::move(QueryCore);
  }
  return R;
}

ConjResult TheoryConjSolver::solveFacts(std::vector<Fact> Facts, int Depth) {
  // A pathological split stack (branch-and-bound over a wide integer range
  // whose bound tightening never converges, found by the fuzz oracle)
  // degrades to an interrupted result instead of recursing without bound.
  // Upstream maps Interrupted to Unknown — never to a verdict — so depth
  // exhaustion behaves exactly like a tripped resource budget.
  constexpr int MaxSplitDepth = 256;
  if (Depth >= MaxSplitDepth) {
    ConjResult R;
    R.Interrupted = true;
    R.SplitDepthExhausted = true;
    return R;
  }

  // Runs one split branch. Appends BranchLit as a decision, recurses, and
  // feeds the outcome to the caller: a SAT result or a decision-free core
  // short-circuits; otherwise the branch's core (minus the decision)
  // accumulates in UnionCore.
  auto runBranch = [&](const Term *BranchLit, std::vector<int> &UnionCore,
                       std::optional<ConjResult> &Final) {
    if (!resourceCharge(ResourceKind::BnbNodes)) {
      ConjResult R;
      R.Interrupted = true;
      Final = std::move(R);
      return;
    }
    std::vector<Fact> Child = Facts;
    int DecisionIdx = static_cast<int>(Child.size());
    Child.push_back({BranchLit, -1});
    ConjResult R = solveFacts(std::move(Child), Depth + 1);
    if (R.IsSat || R.Interrupted) {
      Final = std::move(R);
      return;
    }
    bool UsesDecision =
        std::find(R.Core.begin(), R.Core.end(), DecisionIdx) != R.Core.end();
    if (!UsesDecision) {
      Final = std::move(R); // Core is valid without the split.
      return;
    }
    for (int FactIdx : R.Core)
      if (FactIdx != DecisionIdx)
        UnionCore.push_back(FactIdx);
  };

  // --- Phase 1: syntactic congruence closure -----------------------------
  CongruenceClosure CC;
  for (size_t I = 0; I < Facts.size(); ++I) {
    std::vector<int> Conflict;
    if (!assertIntoClosure(CC, Facts[I].Literal, static_cast<int>(I),
                           Conflict)) {
      ConjResult R;
      R.Core = std::move(Conflict);
      return R;
    }
  }

  // --- Phase 2: simplex over the arithmetic skeleton ---------------------
  Simplex Splx;
  ++SimplexRuns;
  AtomVarMap AtomVar;

  // Tag space: [0, Facts.size()) are facts; above that, derived equalities
  // justified by the fact sets in TagJustification.
  std::vector<std::vector<int>> TagJustification;
  auto freshDerivedTag = [&](std::vector<int> Just) {
    TagJustification.push_back(std::move(Just));
    return static_cast<int>(Facts.size() + TagJustification.size() - 1);
  };
  auto expandTags = [&](const std::vector<int> &Tags) {
    std::vector<int> Out;
    for (int Tag : Tags) {
      if (Tag < static_cast<int>(Facts.size())) {
        Out.push_back(Tag);
        continue;
      }
      const auto &Just = TagJustification[Tag - Facts.size()];
      Out.insert(Out.end(), Just.begin(), Just.end());
    }
    std::sort(Out.begin(), Out.end());
    Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
    return Out;
  };

  for (size_t I = 0; I < Facts.size(); ++I)
    addFactArith(Splx, AtomVar, nullptr, Facts[I].Literal,
                 static_cast<int>(I));

  // Equality exchange: CC-merged classes become simplex equalities.
  for (const auto &[A, B] : CC.equivalentPairs()) {
    if (!A->isInt())
      continue;
    std::vector<int> Just = CC.explainEquality(A, B);
    LinearExpr Diff = *LinearExpr::fromTerm(A) - *LinearExpr::fromTerm(B);
    addLinearConstraint(Splx, AtomVar, nullptr, Diff, SimplexRel::Eq,
                        freshDerivedTag(std::move(Just)));
  }

  Simplex::Result SplxResult = Splx.check();
  if (SplxResult == Simplex::Result::Interrupted) {
    ConjResult R;
    R.Interrupted = true;
    return R;
  }
  if (SplxResult == Simplex::Result::Unsat) {
    ConjResult R;
    R.Core = expandTags(Splx.unsatCore());
    return R;
  }

  // --- Phase 3: candidate model -------------------------------------------
  std::map<const Term *, Rational, TermIdLess> AtomValues;
  {
    std::vector<Rational> M = Splx.model();
    for (const auto &[Atom, Var] : AtomVar)
      AtomValues[Atom] = M[Var];
  }
  for (const Term *Node : CC.nodes()) {
    if (!Node->isInt())
      continue;
    if (Node->isIntConst()) {
      AtomValues[Node] = Node->value();
      continue;
    }
    AtomValues.try_emplace(Node, Rational());
  }

  // --- Phase 3.5: integer infeasibility pre-check -------------------------
  // Before committing to a branch-and-bound descent, try to refute the
  // conjunction with substitution + GCD reasoning: branching alone
  // diverges on integer-empty unbounded rays (the PDR backend's frame
  // queries reach such systems; plain path formulas happen not to). Only
  // worth running when a fractional value would trigger a branch.
  bool AnyFractional = false;
  for (const auto &[Atom, Value] : AtomValues)
    if (!Value.isInteger()) {
      AnyFractional = true;
      break;
    }
  if (AnyFractional)
    if (std::optional<std::vector<int>> Core = integerInfeasibleCore(Facts)) {
      ConjResult R;
      R.Core = std::move(*Core);
      return R;
    }

  // --- Phase 3.6: disequalities the relaxation refutes --------------------
  // A disequality A != B whose sides the arithmetic forces equal (A < B
  // and B < A each infeasible, tightened to A - B <= -1 and B - A <= -1
  // over these integer-valued atoms) is refuted before any integrality
  // split. Branching first can diverge: on an unbounded integer ray such
  // as y + 2x - 2i = 3 the floor branch stays feasible with a fresh
  // fractional value at every depth until MaxSplitDepth, so an unsat
  // query answered Unknown or Unsat depending on the order of its
  // conjuncts. The checks run in scopes of the phase-2 tableau; only the
  // model already copied out above is used afterwards.
  if (AnyFractional) {
    for (size_t I = 0; I < Facts.size(); ++I) {
      const Term *Lit = Facts[I].Literal;
      if (Lit->kind() != TermKind::Not)
        continue;
      const Term *A = Lit->operand(0)->operand(0);
      const Term *B = Lit->operand(0)->operand(1);
      if (!A->isInt() ||
          evalUnderModel(A, AtomValues) != evalUnderModel(B, AtomValues))
        continue;
      std::vector<int> Core;
      bool Refuted = true;
      for (bool ALess : {true, false}) {
        LinearExpr Gap = normalizeToIntegral(
            ALess ? *LinearExpr::fromTerm(A) - *LinearExpr::fromTerm(B)
                  : *LinearExpr::fromTerm(B) - *LinearExpr::fromTerm(A));
        Gap.addConstant(Rational(1));
        int GapTag = freshDerivedTag({});
        Splx.push();
        addLinearConstraint(Splx, AtomVar, nullptr, Gap, SimplexRel::Le,
                            GapTag);
        Simplex::Result GapResult = Splx.check();
        if (GapResult == Simplex::Result::Interrupted) {
          ConjResult R;
          R.Interrupted = true;
          return R;
        }
        Refuted = GapResult == Simplex::Result::Unsat;
        if (Refuted)
          for (int Tag : expandTags(Splx.unsatCore()))
            Core.push_back(Tag);
        Splx.pop();
        if (!Refuted)
          break;
      }
      if (!Refuted)
        continue;
      Core.push_back(static_cast<int>(I));
      std::sort(Core.begin(), Core.end());
      Core.erase(std::unique(Core.begin(), Core.end()), Core.end());
      ConjResult R;
      R.Core = std::move(Core);
      return R;
    }
  }

  // --- Phase 4a: integrality splits (branch and bound) --------------------
  // Program variables, array cells, and function values are integers; the
  // simplex model is rational. A fractional value triggers the classic
  // branch  atom <= floor(v)  \/  atom >= floor(v)+1, which is valid for
  // integers without any supporting input literal. (This is what makes the
  // FORWARD path formula of Section 2.1 infeasible: over the rationals it
  // has a model with n between 0 and 1.)
  for (const auto &[Atom, Value] : AtomValues) {
    if (Value.isInteger())
      continue;
    const Term *FloorC = TM.mkIntConst(Rational(Value.floor()));
    const Term *CeilC = TM.mkIntConst(Rational(Value.ceil()));
    std::vector<int> UnionCore;
    std::optional<ConjResult> Final;
    runBranch(TM.mkLe(Atom, FloorC), UnionCore, Final);
    if (Final)
      return std::move(*Final);
    runBranch(TM.mkLe(CeilC, Atom), UnionCore, Final);
    if (Final)
      return std::move(*Final);
    ConjResult R;
    R.Core = std::move(UnionCore);
    return R;
  }

  // --- Phase 4: disequality splits ----------------------------------------
  for (size_t I = 0; I < Facts.size(); ++I) {
    const Term *Lit = Facts[I].Literal;
    if (Lit->kind() != TermKind::Not)
      continue;
    const Term *Atom = Lit->operand(0);
    const Term *A = Atom->operand(0);
    const Term *B = Atom->operand(1);
    if (!A->isInt())
      continue;
    if (evalUnderModel(A, AtomValues) != evalUnderModel(B, AtomValues))
      continue; // Model already separates the two sides.
    // A != B forces A < B or B < A.
    std::vector<int> UnionCore;
    std::optional<ConjResult> Final;
    runBranch(TM.mkLt(A, B), UnionCore, Final);
    if (Final)
      return std::move(*Final);
    runBranch(TM.mkLt(B, A), UnionCore, Final);
    if (Final)
      return std::move(*Final);
    UnionCore.push_back(static_cast<int>(I)); // Justifies exhaustiveness.
    ConjResult R;
    R.Core = std::move(UnionCore);
    return R;
  }

  // --- Phase 5: functional-consistency splits ------------------------------
  AssertedEqMap AssertedEq;
  for (size_t I = 0; I < Facts.size(); ++I) {
    const Term *L = Facts[I].Literal;
    if (L->kind() != TermKind::Eq)
      continue;
    AssertedEq.insert({{L->operand(0), L->operand(1)}, static_cast<int>(I)});
    AssertedEq.insert({{L->operand(1), L->operand(0)}, static_cast<int>(I)});
  }
  if (std::optional<FunctionalSplit> Split =
          findFunctionalViolation(CC, AtomValues, &AssertedEq)) {
    if (!Split->X) {
      // Every argument equality is already established (congruence-known
      // or asserted as a fact), yet the results still disagree: the
      // violation cannot be resolved by further ordering splits — the
      // closure cannot absorb equalities over arithmetic argument terms.
      // Close it with the implied result equality U = V, which *is*
      // representable (both sides are reads/applications). In an UNSAT
      // core the lemma's index is replaced by its premise tags: the
      // premises imply the lemma, so the substitution over-approximates
      // the core, which is the sound direction.
      if (!resourceCharge(ResourceKind::BnbNodes)) {
        ConjResult R;
        R.Interrupted = true;
        return R;
      }
      std::vector<Fact> Child = Facts;
      int LemmaIdx = static_cast<int>(Child.size());
      Child.push_back({TM.mkEq(Split->U, Split->V), -1});
      ConjResult R = solveFacts(std::move(Child), Depth + 1);
      if (!R.IsSat && !R.Interrupted) {
        auto It = std::find(R.Core.begin(), R.Core.end(), LemmaIdx);
        if (It != R.Core.end()) {
          R.Core.erase(It);
          R.Core.insert(R.Core.end(), Split->PremiseTags.begin(),
                        Split->PremiseTags.end());
          std::sort(R.Core.begin(), R.Core.end());
          R.Core.erase(std::unique(R.Core.begin(), R.Core.end()),
                       R.Core.end());
        }
      }
      return R;
    }
    // X < Y, Y < X, or X = Y (exhaustive).
    std::vector<int> UnionCore;
    std::optional<ConjResult> Final;
    runBranch(TM.mkLt(Split->X, Split->Y), UnionCore, Final);
    if (Final)
      return std::move(*Final);
    runBranch(TM.mkLt(Split->Y, Split->X), UnionCore, Final);
    if (Final)
      return std::move(*Final);
    runBranch(TM.mkEq(Split->X, Split->Y), UnionCore, Final);
    if (Final)
      return std::move(*Final);
    ConjResult R;
    R.Core = std::move(UnionCore);
    return R;
  }

  // --- SAT -----------------------------------------------------------------
  ConjResult R;
  R.IsSat = true;
  R.Model = std::move(AtomValues);
  return R;
}
