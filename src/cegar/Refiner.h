//===- cegar/Refiner.h - Abstraction refinement strategies -----*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The refinement phase of the CEGAR loop, with two interchangeable
/// strategies (the modularity claim of Section 1: "we simply need to
/// replace the predicate discovery module by a call to an invariant
/// synthesizer for path programs"):
///
///   * PathInvariantRefiner — the paper's contribution. Builds the path
///     program P[pi], synthesizes a path-invariant map (constraint-based,
///     or intervals as the ablation backend), propagates cutpoint
///     invariants to the intermediate path locations by weakest
///     preconditions, and contributes every resulting formula as a
///     predicate at the corresponding *original* location. One refinement
///     eliminates the entire family of loop unwindings (Theorem 1).
///
///   * PathFormulaRefiner — the classic baseline it is compared against.
///     Adds the weakest-precondition chain of the single infeasible path
///     (the inductive Hoare chain refuting exactly that path), so every
///     unwinding produces a fresh counterexample and fresh predicates:
///     the divergence demonstrated in Section 2.1.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_CEGAR_REFINER_H
#define PATHINV_CEGAR_REFINER_H

#include "cegar/PredicateMap.h"
#include "program/PathFormula.h"
#include "synth/PathInvariants.h"

namespace pathinv {

namespace smt {
class SolverContext;
} // namespace smt

/// What a refinement step produced.
struct RefineResult {
  bool Progress = false;    ///< Some new predicate was added.
  bool UsedFallback = false; ///< Path-invariant synthesis failed; the
                             ///< single-path baseline predicates were used.
  int TemplateLevelsTried = 0;
  uint64_t LpChecks = 0;
  /// Path-invariant synthesis stopped on a resource limit rather than
  /// exhausting its search space. The engine's escalation ladder retries
  /// such refinements once with the cheaper interval backend before
  /// giving up.
  bool ResourceOut = false;
  /// The predicates this refinement actually added to the precision,
  /// attributed to the locations they were added at — the refinement's
  /// localized contribution. The ARG engine reacts to the contribution
  /// through the precision itself (per-location staleness stamps drive
  /// its settle sweep); this record exists so callers and tests can
  /// observe *where* a refinement landed without diffing the precision.
  std::vector<std::pair<LocId, const Term *>> NewPredicates;
};

/// Strategy selector.
enum class RefinerKind : uint8_t {
  PathInvariant,          ///< Constraint-based path invariants (default).
  PathInvariantIntervals, ///< Interval abstract interpretation backend.
  PathFormula,            ///< Baseline single-path refinement.
};

/// Refines \p Pi to eliminate the infeasible error path \p Cex of \p P.
RefineResult refine(const Program &P, const Path &Cex, PredicateMap &Pi,
                    smt::SolverContext &Solver, RefinerKind Kind,
                    const PathInvOptions &Opts = {});

/// Computes the weakest-precondition chain of \p Cex (wp of `false`
/// backwards through the path): one formula per path position, forming an
/// inductive refutation of exactly this path. Exposed for tests and for
/// the divergence benchmark.
std::vector<const Term *> wpChain(const Program &P, const Path &Cex);

} // namespace pathinv

#endif // PATHINV_CEGAR_REFINER_H
