//===- smt/QuantInst.h - Quantifier instantiation ---------------*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reduction of universally quantified queries to ground ones, following
/// the hierarchical reasoning of Section 4.2 (and the array-property
/// decision procedure it relies on):
///
///   * negative-polarity universals are skolemized (a fresh constant
///     witnesses the violation), and
///   * positive-polarity universals are replaced by finitely many ground
///     instances at the "relevant" index terms — the array-read indices
///     occurring in the ground part of the query plus all skolem
///     constants.
///
/// The transformation is UNSAT-preserving in one direction: if the result
/// is unsatisfiable then so is the input (instantiation weakens positive
/// universals). Entailment checks built on it are therefore sound; on the
/// array-property fragment the chosen instance set also makes them
/// complete.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_SMT_QUANTINST_H
#define PATHINV_SMT_QUANTINST_H

#include "logic/TermRewrite.h"

#include <cstdint>

namespace pathinv {

namespace smt {
class SolverContext;
} // namespace smt

/// Rewrites \p F into a quantifier-free formula whose unsatisfiability
/// implies the unsatisfiability of \p F. \p FreshCounter provides unique
/// skolem names across calls.
const Term *instantiateQuantifiers(TermManager &TM, const Term *F,
                                   uint64_t &FreshCounter);

/// Sound entailment with quantifiers: returns true only if
/// \p Hyp entails \p Concl. (May return false on entailments outside the
/// array-property fragment; Unknown counts as not entailed.) Skolem names
/// restart per query so identical queries produce identical (interned)
/// ground formulas, whose encodings the context has already cached across
/// the many repeated queries of predicate abstraction.
bool entailsWithQuant(TermManager &TM, smt::SolverContext &Solver,
                      const Term *Hyp, const Term *Concl);

} // namespace pathinv

#endif // PATHINV_SMT_QUANTINST_H
