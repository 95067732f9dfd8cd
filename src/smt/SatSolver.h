//===- smt/SatSolver.h - CDCL propositional solver --------------*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Conflict-driven clause-learning SAT solver.
///
/// The propositional engine under the lazy SMT loop: two-watched-literal
/// propagation, first-UIP conflict analysis with clause learning, VSIDS-style
/// activity ordering, and geometric restarts. Literals use the usual integer
/// encoding: variable v has literals 2v (positive) and 2v+1 (negative).
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_SMT_SATSOLVER_H
#define PATHINV_SMT_SATSOLVER_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pathinv {

/// Propositional literal: variable index with sign.
struct Lit {
  int Value = -1; ///< 2*var + (negated ? 1 : 0).

  Lit() = default;
  Lit(int Var, bool Negated) : Value(2 * Var + (Negated ? 1 : 0)) {}

  int var() const { return Value >> 1; }
  bool negated() const { return Value & 1; }
  Lit operator~() const {
    Lit L;
    L.Value = Value ^ 1;
    return L;
  }
  bool operator==(const Lit &RHS) const { return Value == RHS.Value; }
  bool operator!=(const Lit &RHS) const { return Value != RHS.Value; }
};

/// CDCL SAT solver over clauses added with addClause().
class SatSolver {
public:
  /// Interrupted: the job's ResourceController tripped mid-search. The
  /// solver backtracks to level 0 and stays fully valid — clauses,
  /// learned state, and activities are kept, and a later solve() resumes
  /// from them. Interrupted is never a verdict about the clause set.
  enum class Result : uint8_t { Sat, Unsat, Interrupted };

  /// Creates a fresh variable and returns its index.
  int addVar();

  int numVars() const { return static_cast<int>(Assign.size()); }

  /// Adds a clause (empty clause makes the instance unsat). Returns false
  /// if the solver is already known unsat.
  bool addClause(std::vector<Lit> Clause);

  /// Adds a *redundant* clause: one implied by the problem (a theory
  /// lemma, e.g. the blocking clause of a lazy-SMT conflict) rather than
  /// defining it. Redundant clauses — together with CDCL-learned ones —
  /// are eligible for purgeLearned(); everything added via addClause() is
  /// irredundant and permanent.
  bool addLemma(std::vector<Lit> Clause);

  /// Number of deletable clauses currently stored (CDCL-learned clauses
  /// and lemmas added via addLemma()).
  size_t numRedundantClauses() const { return RedundantClauses; }
  size_t numClauses() const { return Clauses.size(); }
  uint64_t numPurgedClauses() const { return PurgedClauses; }
  /// Level-0 sweeps run so far, and the irredundant clauses they removed
  /// (see sweepSatisfied()).
  uint64_t numSweeps() const { return Sweeps; }
  uint64_t numSweptClauses() const { return SweptClauses; }

  /// Garbage-collects the redundant clause set down to (at most)
  /// \p MaxKeep clauses, preferring the most active ones (activity is
  /// bumped whenever a clause participates in conflict analysis). Clauses
  /// currently serving as the reason of an assigned literal are always
  /// kept. Sound: redundant clauses are implied, so deleting them only
  /// costs re-derivation. Backtracks to decision level 0.
  void purgeLearned(size_t MaxKeep);

  /// Solves the current clause set, optionally under a list of assumption
  /// literals. Before searching, irredundant clauses satisfied at level 0
  /// (e.g. the guard clauses of a scope whose selector was disabled by a
  /// unit) are swept out of the store when enough has changed since the
  /// last sweep; the search itself is exactly the unswept one. Assumptions are decided (in order) before any free decision,
  /// so learned clauses never depend on them: the clause database — and
  /// everything learned from it — stays valid across calls with different
  /// assumption sets. On Unsat under assumptions, failedAssumptions()
  /// holds a subset of the assumptions that is inconsistent with the
  /// clauses; when it is empty the clause set itself is unsatisfiable.
  Result solve(const std::vector<Lit> &Assumptions = {});

  /// After an Unsat solve(): the responsible assumption subset (original
  /// assumption literals; empty when the clause set alone is unsat).
  const std::vector<Lit> &failedAssumptions() const {
    return FailedAssumptions;
  }

  /// \returns true once the clause set is unsatisfiable independent of any
  /// assumptions.
  bool knownUnsat() const { return KnownUnsat; }

  /// After Sat: value of variable \p Var in the model.
  bool modelValue(int Var) const {
    assert(Assign[Var] != Unassigned && "model of unassigned variable");
    return Assign[Var] == TrueVal;
  }

  /// Statistics.
  uint64_t numConflicts() const { return Conflicts; }
  uint64_t numDecisions() const { return Decisions; }
  uint64_t numPropagations() const { return Propagations; }

private:
  static constexpr int8_t Unassigned = 0;
  static constexpr int8_t TrueVal = 1;
  static constexpr int8_t FalseVal = -1;

  struct Clause {
    std::vector<Lit> Lits;
    bool Learned = false; ///< Redundant (CDCL-learned or theory lemma).
    double Activity = 0;  ///< Conflict-analysis participation (decayed).
  };

  bool litTrue(Lit L) const {
    return Assign[L.var()] == (L.negated() ? FalseVal : TrueVal);
  }
  bool litFalse(Lit L) const {
    return Assign[L.var()] == (L.negated() ? TrueVal : FalseVal);
  }
  bool litUnassigned(Lit L) const { return Assign[L.var()] == Unassigned; }

  bool addClauseImpl(std::vector<Lit> Clause, bool Redundant);
  void enqueue(Lit L, int Reason);
  /// Unit propagation; returns the index of a conflicting clause or -1.
  int propagate();
  /// First-UIP conflict analysis; fills the learned clause and returns the
  /// backjump level.
  int analyze(int ConflictClause, std::vector<Lit> &Learned);
  /// Explains a false assumption \p Failed: walks the implication graph of
  /// ~Failed and collects the assumption decisions it rests on into
  /// FailedAssumptions (together with \p Failed itself).
  void analyzeFinal(Lit Failed);
  void backtrack(int Level);
  /// Amortized entry to the level-0 sweep: runs it only when the level-0
  /// trail grew since the last sweep and more literals were propagated
  /// since then than the store held after it (MiniSat's simplify rule).
  void maybeSweepSatisfied();
  /// Removes every irredundant clause satisfied by a level-0 literal,
  /// except reasons. Clauses and watch lists are compacted in place in
  /// their relative order, so propagation visits the surviving clauses
  /// exactly as before and the search (conflicts, learned clauses,
  /// decisions) is unchanged. Learned clauses are left to purgeLearned().
  void sweepSatisfied();
  /// Drops the clauses marked in \p Drop and remaps reasons (callers fix
  /// the watch lists); survivors keep their relative order. Returns the
  /// old -> new index map (-1 for dropped clauses).
  std::vector<int> compactClauses(const std::vector<char> &Drop);
  /// Marks the clauses currently serving as the reason of an assignment.
  std::vector<char> reasonClauses() const;
#ifndef NDEBUG
  /// Debug check of the clause store: every watched index is valid, each
  /// clause is watched exactly at Lits[0] and Lits[1], and every reason
  /// is a stored clause propagating its literal from Lits[0].
  void checkWatches() const;
#endif
  void bumpVar(int Var);
  void bumpClause(int ClauseIdx);
  void decayActivities();
  int pickBranchVar();

  /// \name Decision heap
  /// A binary max-heap over variables ordered by (activity descending,
  /// index ascending): its top is the first most active variable, the
  /// pick of a linear scan. Every unassigned variable is in it; assigned
  /// ones are dropped when they surface and re-inserted on backtrack.
  /// @{
  bool heapBefore(int A, int B) const {
    return Activity[A] > Activity[B] || (Activity[A] == Activity[B] && A < B);
  }
  void heapInsert(int Var);
  void heapSiftUp(size_t Pos);
  void heapSiftDown(size_t Pos);
  int heapPopTop();
  /// Restores heap order over the current activities (after a rescale).
  void heapRebuild();
  /// @}

  std::vector<Clause> Clauses;
  std::vector<std::vector<int>> Watches; ///< Literal -> clause indices.
  std::vector<int8_t> Assign;            ///< Variable -> value.
  std::vector<int> Level;                ///< Variable -> decision level.
  std::vector<int> Reason;               ///< Variable -> clause index or -1.
  std::vector<Lit> Trail;
  std::vector<int> TrailLim; ///< Trail indices where levels start.
  size_t PropHead = 0;
  std::vector<double> Activity;
  std::vector<int> Heap;    ///< Decision heap (see heapBefore).
  std::vector<int> HeapPos; ///< Var -> index in Heap, -1 when absent.
  double ActivityInc = 1.0;
  double ClauseActivityInc = 1.0;
  size_t RedundantClauses = 0;
  uint64_t PurgedClauses = 0;
  // Level-0 sweep state: trail size and propagation count at the last
  // sweep, and the literals stored right after it (the propagation
  // budget the next sweep waits for).
  size_t SweepTrail = 0;
  uint64_t SweepPropagations = 0;
  uint64_t SweepBudget = 0;
  uint64_t Sweeps = 0;
  uint64_t SweptClauses = 0;
  bool KnownUnsat = false;

  // addClause scratch state: stamped per-literal markers for sort-free
  // dedup/tautology detection, and a reusable literal buffer.
  std::vector<uint64_t> LitMark;
  uint64_t MarkStamp = 0;
  std::vector<Lit> ScratchLits;
  std::vector<Lit> FailedAssumptions;

  uint64_t Conflicts = 0;
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
};

} // namespace pathinv

#endif // PATHINV_SMT_SATSOLVER_H
