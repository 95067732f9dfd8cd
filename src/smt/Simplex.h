//===- smt/Simplex.h - Exact simplex for linear arithmetic -----*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact-rational simplex deciding conjunctions of linear constraints.
///
/// This is the linear-arithmetic engine the paper delegates to SICStus
/// CLP(Q) [29]: a general simplex in the style of Dutertre & de Moura
/// ("A fast linear-arithmetic solver for DPLL(T)", CAV 2006) with
/// * exact rational arithmetic (no floating point anywhere),
/// * strict inequalities via infinitesimal delta-rationals,
/// * Bland's rule for termination, and
/// * unsat cores as sets of client-supplied constraint tags (a Farkas
///   certificate: the violated row is a nonnegative combination of the
///   returned constraints).
///
/// It serves three masters: path-formula feasibility checks (counterexample
/// analysis), entailment queries of predicate abstraction, and the LP
/// subproblems of template-parameter search in the synthesizer.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_SMT_SIMPLEX_H
#define PATHINV_SMT_SIMPLEX_H

#include "support/DeltaRational.h"

#include <optional>
#include <utility>
#include <vector>

namespace pathinv {

/// Relation of a linear constraint `expr REL rhs`.
enum class SimplexRel : uint8_t { Le, Lt, Ge, Gt, Eq };

/// Exact simplex over rationals. Variables are dense integer indices
/// created by addVar(); constraints are linear combinations of variables.
class Simplex {
public:
  /// Interrupted: the job's ResourceController tripped between pivots.
  /// The tableau invariant holds (all rows consistent, bounds intact), so
  /// the object remains fully usable — push/pop still work and a later
  /// check() resumes the repair where it stopped. Interrupted says
  /// nothing about feasibility.
  enum class Result : uint8_t { Sat, Unsat, Interrupted };

  Simplex() = default;

  /// Returns the tableau to the state of a freshly constructed one
  /// (no variables, constraints, scopes or conflict; numPivots() zero)
  /// while keeping the storage it has grown, so a client that solves
  /// many small independent LPs pays for its buffers once.
  void reset();

  /// Creates a fresh unconstrained variable and returns its index.
  int addVar();

  int numVars() const { return static_cast<int>(Vars.size()); }

  /// Adds `sum Coeffs REL Rhs`. \p Tag identifies the constraint in unsat
  /// cores (clients typically use literal indices). Variables may repeat in
  /// \p Coeffs; coefficients are accumulated.
  void addConstraint(const std::vector<std::pair<int, Rational>> &Coeffs,
                     SimplexRel Rel, const Rational &Rhs, int Tag);

  /// Convenience: bounds a single variable.
  void addBound(int Var, SimplexRel Rel, const Rational &Rhs, int Tag);

  /// Decides the asserted constraints. May be called repeatedly as
  /// constraints are added (the tableau is incremental).
  Result check();

  /// \name Scopes
  /// Backtrackable constraint assertion in the Dutertre–de Moura style:
  /// pop() restores every bound (the semantic content of a constraint) to
  /// its pre-push value and clears conflicts raised inside the scope. The
  /// tableau itself is not rewound — rows remain valid slack definitions —
  /// but rows owned by slack variables introduced in the scope are dropped
  /// when still basic, and popped variables linger as unconstrained dead
  /// columns (their indices are never reused). Clients that pop often
  /// should rebuild once dead columns dominate (see numVars()).
  ///
  /// Scopes nest arbitrarily, which is what the theory solver's scoped
  /// branch-and-bound relies on: a query scope holds the query's
  /// constraints, and every branch node pushes a further scope carrying
  /// only its branch bound. check() after such a push performs
  /// dual-simplex-style repair — it starts from the current (previously
  /// feasible) assignment and pivots only on bound violations the new
  /// bounds introduced — so branching and backtracking never rebuild or
  /// re-solve the tableau from scratch. numPivots() exposes the
  /// cumulative repair-pivot count so callers can attribute that work.
  /// @{
  void push();
  void pop();
  size_t numScopes() const { return Scopes.size(); }
  /// @}

  /// After an Unsat result: tags of a (usually small) inconsistent subset.
  const std::vector<int> &unsatCore() const {
    assert(HasConflict && "unsatCore() without a conflict");
    return Core;
  }

  /// After a Sat result: a rational model value for \p Var (delta is
  /// concretized to a sufficiently small positive rational).
  Rational modelValue(int Var) const;

  /// After a Sat result: copies all model values (index = variable).
  std::vector<Rational> model() const;

  /// Cumulative pivots performed by check() over this tableau's lifetime.
  /// The delta across one scoped check() is the cost of repairing the
  /// assignment after the scope's bound assertions.
  uint64_t numPivots() const { return NumPivots; }

private:
  struct BoundInfo {
    DeltaRational Value;
    int Tag = -1;
    bool Present = false;
  };

  struct VarState {
    DeltaRational Beta;   ///< Current assignment.
    BoundInfo Lower;
    BoundInfo Upper;
    bool Basic = false;
  };

  /// A basic variable's row: (nonbasic var, nonzero coefficient) pairs
  /// sorted by var, so scans meet variables in ascending index order
  /// (Bland's rule and the conflict core depend on that order).
  using Row = std::vector<std::pair<int, Rational>>;

  /// \returns the first entry of \p R whose var is not below \p Var.
  static Row::iterator lowerBound(Row &R, int Var);
  /// \returns the entry of \p Var in \p R, or R.end().
  static Row::iterator findEntry(Row &R, int Var);
  /// Dst += Factor * Src, keeping Dst sorted and free of zero entries.
  /// Dst's entry for \p Skip (if any) is dropped.
  void addScaledRow(Row &Dst, const Row &Src, const Rational &Factor,
                    int Skip = -1);

  /// Asserts `Scale * Var REL Rhs` as a bound on \p Var (Scale != 0).
  void assertBound(int Var, SimplexRel Rel, const Rational &Scale,
                   const Rational &Rhs, int Tag);
  bool assertLower(int Var, const DeltaRational &Value, int Tag);
  bool assertUpper(int Var, const DeltaRational &Value, int Tag);
  /// Records the current state of a bound about to be overwritten (no-op
  /// outside any scope, so unscoped use stays allocation-free).
  void recordBoundUndo(int Var, bool IsLower);
  /// Sets beta of nonbasic \p Var to \p Value, updating basic rows.
  void updateNonbasic(int Var, const DeltaRational &Value);
  /// Pivots basic \p Basic with nonbasic \p Nonbasic and sets beta of
  /// \p Basic to \p Target.
  void pivotAndUpdate(int Basic, int Nonbasic, const DeltaRational &Target);
  void pivot(int Basic, int Nonbasic);
  /// Computes a concrete positive rational for delta, small enough that
  /// substituting it preserves all strict comparisons of the model.
  Rational concretizeDelta() const;

  struct BoundUndo {
    int Var;
    bool IsLower;
    BoundInfo Old;
  };
  struct ScopeMark {
    size_t UndoMark;  ///< UndoTrail size at push.
    int VarMark;      ///< numVars() at push.
    bool HadConflict; ///< Conflict state at push.
  };

  std::vector<VarState> Vars;
  /// Var -> its row over nonbasic vars; meaningful only while the var is
  /// basic (a basic var's row may be empty). Sized at least numVars();
  /// slots past numVars() are empty rows kept for their capacity.
  std::vector<Row> Rows;
  Row MergeScratch; ///< addScaledRow's output buffer.
  Row SumScratch;   ///< addConstraint's coefficient accumulator.
  std::vector<int> Core;
  bool HasConflict = false;
  std::vector<BoundUndo> UndoTrail;
  std::vector<ScopeMark> Scopes;
  uint64_t NumPivots = 0;
};

} // namespace pathinv

#endif // PATHINV_SMT_SIMPLEX_H
