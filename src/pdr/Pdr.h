//===- pdr/Pdr.h - The IC3/PDR verification engine --------------*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-directed reachability over the program's control-flow
/// transition relation, after Bradley's IC3 as adapted to software by
/// Beyer & Dangl (arXiv:1908.06271): per-location clause frames
/// (pdr/Frames.h), a proof-obligation queue processed lowest level
/// first, cube generalization from the incremental solver's
/// failed-assumption cores, clause pushing, and fixpoint detection.
///
/// The cube language is an implicit predicate abstraction: literals over
/// a pool of quantifier-free atoms harvested from the transition
/// relations and grown by the CEGAR refiner's predicates. Frame queries
/// run with exact transition semantics, so every learned clause is sound
/// regardless of how weak the pool is — a weak pool only makes abstract
/// counterexample candidates more frequent. A candidate whose concrete
/// path formula is satisfiable is a real bug (verdict Unsafe, with an
/// interpreter replay); a spurious one refines the pool through the same
/// refinement ladder CEGAR uses, escalating to a whole-program invariant
/// map when per-path refinement stalls (quantified invariants are
/// outside any clause language over QF atoms). A Safe verdict is
/// reported only after the exported invariant map passes the independent
/// checkInvariantMap validation.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_PDR_PDR_H
#define PATHINV_PDR_PDR_H

#include "core/Engine.h"

namespace pathinv {

/// The PDR backend. Frames, the obligation queue, the predicate pool,
/// and the solver contexts persist across run() calls, so a slice-paused
/// job resumes where it stopped.
class PdrEngine final : public VerificationEngine {
public:
  PdrEngine(const Program &P, smt::SolverContext &Solver,
            const EngineOptions &Opts);
  ~PdrEngine() override;

  const char *name() const override { return "pdr"; }
  EngineResult run() override;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// Verifies \p P with the PDR engine under a fresh per-job
/// ResourceController built from Opts.Limits (the PDR counterpart of
/// pathinv::verify).
EngineResult verifyPdr(const Program &P, smt::SolverContext &Solver,
                       const EngineOptions &Opts = {});

} // namespace pathinv

#endif // PATHINV_PDR_PDR_H
