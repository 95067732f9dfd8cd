//===- core/Verifier.h - Public verification facade ------------*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's front door: parse a PIL procedure, lower it to a
/// transition system, and run the path-invariant CEGAR engine.
///
/// A Verifier owns the term manager and the job's smt::SolverContext, the
/// one solver API: the engines, synthesis validation and certificate
/// checks all take that context, and issue their one-shot queries through
/// SolverContext::checkFormula.
///
/// Minimal usage:
/// \code
///   pathinv::Verifier V;
///   auto R = V.verifySource("proc f(n) { assert(n == n); }");
///   if (R && R.get().Verdict == pathinv::EngineResult::Verdict::Safe)
///     ...
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_CORE_VERIFIER_H
#define PATHINV_CORE_VERIFIER_H

#include "cegar/Engine.h"
#include "lang/Lower.h"

#include <memory>

namespace pathinv {

namespace smt {
class SolverContext;
} // namespace smt

/// One verification context: owns the term manager and the job's solver
/// context, which are shared (and their caches kept warm) across queries.
class Verifier {
public:
  explicit Verifier(EngineOptions Opts = {});
  ~Verifier();
  Verifier(const Verifier &) = delete;
  Verifier &operator=(const Verifier &) = delete;

  /// Parses, lowers, and verifies a PIL procedure.
  Expected<EngineResult> verifySource(std::string_view PilSource);

  /// Verifies an already-built transition system. The program must have
  /// been built against termManager().
  EngineResult verifyProgram(const Program &P);

  /// Parses and lowers without verifying (for callers that want the CFG).
  Expected<Program> loadSource(std::string_view PilSource);

  TermManager &termManager() { return *TM; }
  /// The job's solver context (smt/SolverContext.h): push/pop scopes,
  /// persistent assertions, assumption-based checks, and the one-shot
  /// checkFormula() the engines, the synthesis validation and the
  /// certificate checker use. Assertions made here are honored by those
  /// one-shot checks; the engine's ground reachability and
  /// path-feasibility batches run on their own private contexts and do
  /// not see them.
  smt::SolverContext &solver() { return *Solver; }
  const EngineOptions &options() const { return Opts; }
  EngineOptions &options() { return Opts; }

  /// Structured statistics of the solver layer (the engine layer's stats
  /// live in EngineResult::Stats).
  struct SolverLayerStats {
    /// One-shot checkFormula() calls on the context.
    uint64_t SmtQueries = 0;
    /// Always 0: the one-shot checks keep no result memo. The field stays
    /// for readers of the per-job counter records.
    uint64_t SmtCacheHits = 0;
    // Context layer.
    uint64_t ContextChecks = 0;
    uint64_t ConjunctionChecks = 0;
    uint64_t LazyChecks = 0;
    uint64_t TheoryChecks = 0;
    uint64_t Pushes = 0;
    uint64_t Pops = 0;
    // Theory base tableau.
    uint64_t BaseReuses = 0;
    uint64_t BaseRebuilds = 0;
    // Scoped branch-and-bound (integer/disequality splits served on the
    // cached tableau) vs. scratch fallbacks. ScratchFallbacks creeping up
    // means split-requiring queries are losing incrementality again.
    uint64_t BnbNodes = 0;
    uint64_t BnbRepairPivots = 0;
    uint64_t BnbLemmas = 0;
    uint64_t ScratchFallbacks = 0;
    /// Distilled cut rows installed on the cached base tableau.
    uint64_t CutRows = 0;
    // CDCL core.
    uint64_t SatConflicts = 0;
    uint64_t SatDecisions = 0;
    uint64_t SatPropagations = 0;
    // Learned-clause garbage collection.
    uint64_t LearnedPurges = 0;
    uint64_t ClausesPurged = 0;
    uint64_t RedundantClauses = 0;
  };
  SolverLayerStats solverStats() const;

private:
  std::unique_ptr<TermManager> TM;
  std::unique_ptr<smt::SolverContext> Solver;
  EngineOptions Opts;
};

/// Renders the solver-layer statistics as a short human-readable block.
std::string formatSolverStats(const Verifier::SolverLayerStats &S);

/// Renders an engine result as a short human-readable report.
std::string formatResult(const Program &P, const EngineResult &R);

} // namespace pathinv

#endif // PATHINV_CORE_VERIFIER_H
