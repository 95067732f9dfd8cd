//===- pdr/Frames.h - Delta-encoded PDR clause frames -----------*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The frame trail of IC3/PDR, per location. A *cube* is a conjunction of
/// literals over the unprimed program variables; blocking cube c at level
/// i adds the clause ¬c to frames F_1..F_i. Frames are delta-encoded:
/// each cube is stored only at the highest level it is blocked at, and
/// F_i[loc] is the conjunction of the clauses stored at delta levels
/// >= i — so F_{i+1}[loc] ⊆ F_i[loc] (as clause sets) holds by
/// construction and pushing a clause up a level is a move, not a copy.
///
/// F_0 is the init frame and is never stored: F_0[entry] = true,
/// F_0[loc] = false elsewhere. The entry location never carries clauses
/// (its init is unconstrained, so any cube there is init-reachable);
/// an obligation reaching entry is an abstract counterexample candidate,
/// not something to block.
///
/// Fixpoint: when some delta level 1 <= i < frontier is empty at every
/// location, F_i == F_{i+1}, so F_i is an inductive one-step-safe
/// invariant and invariantMap(i) exports it in the Section 3 form
/// (error ↦ false, entry implicitly true).
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_PDR_FRAMES_H
#define PATHINV_PDR_FRAMES_H

#include "program/Program.h"
#include "synth/InvariantMap.h"

#include <vector>

namespace pathinv {
namespace pdr {

/// A conjunction of literals over unprimed program variables, kept
/// canonical (sorted by term id, deduplicated). The empty cube is `true`
/// — blocking it asserts the location unreachable at that level.
using Cube = std::vector<const Term *>;

/// Sorts by stable term id and deduplicates, the canonical form every
/// Frames entry point expects and preserves.
void canonicalizeCube(Cube &C);

/// \returns true when \p A's literals are a subset of \p B's (both
/// canonical). A smaller cube denotes more states, so its clause ¬A is
/// stronger: blocking A subsumes blocking B.
bool cubeSubsumes(const Cube &A, const Cube &B);

/// The per-location frame trail.
class Frames {
public:
  /// Starts with frontier() == 1 and F_1 empty (true everywhere).
  explicit Frames(const Program &P);

  /// The current frontier level k.
  size_t frontier() const { return Delta.size() - 1; }

  /// Opens frame k+1 (empty). Call only after the bad-state check at the
  /// current frontier came back clean.
  void extend();

  /// Blocks \p C at \p Level: stores it at delta \p Level and drops every
  /// cube at delta 1..Level it subsumes. \p C is canonicalized in place.
  void addBlockedCube(size_t Level, LocId Loc, Cube C);

  /// \returns true when \p C is already blocked at \p Level — some stored
  /// cube at delta >= Level subsumes it (syntactic check).
  bool isBlocked(size_t Level, LocId Loc, const Cube &C) const;

  /// Appends the clause terms of F_Level[Loc] (negations of every cube at
  /// delta >= Level) to \p Out. Each stored cube's clause is built once,
  /// on first use, and kept beside the cube.
  void collectClauses(TermManager &TM, size_t Level, LocId Loc,
                      std::vector<const Term *> &Out) const;

  /// The cubes stored at exactly delta \p Level (the push phase walks
  /// these). The returned reference is invalidated by addBlockedCube /
  /// pushCube at that level.
  const std::vector<Cube> &cubesAt(size_t Level, LocId Loc) const {
    return Delta[Level][static_cast<size_t>(Loc)].Cubes;
  }

  /// The clause ¬c of the \p Index-th cube of cubesAt(Level, Loc).
  const Term *clauseAt(TermManager &TM, size_t Level, LocId Loc,
                       size_t Index) const;

  /// Moves \p Index-th cube of delta \p Level at \p Loc up to Level+1
  /// (it was shown relatively inductive one level higher).
  void pushCube(size_t Level, LocId Loc, size_t Index);

  /// The smallest level 1 <= i < frontier whose delta is empty at every
  /// location (F_i == F_{i+1}), or -1 when none is. The frontier itself
  /// never qualifies — it has not passed its bad-state check yet.
  int fixpointLevel() const;

  /// Exports F_Level as a Section 3 invariant map: error ↦ false, entry
  /// absent (implicitly true), every other location ↦ the conjunction of
  /// its clauses (absent when clause-free).
  InvariantMap invariantMap(TermManager &TM, const Program &P,
                            size_t Level) const;

  /// Total clauses currently stored (all delta levels).
  uint64_t totalClauses() const;

private:
  /// The cubes blocked exactly at one (level, location), each with its
  /// clause ¬cube. A clause is built when first asked for, at the moment
  /// a rebuild on every call would first have built it, so the terms the
  /// engine creates (and their ids) do not depend on the cache.
  struct Slot {
    std::vector<Cube> Cubes;
    mutable std::vector<const Term *> Clauses; ///< Null until built.
  };

  /// Stores canonical \p C with its clause (null if not built yet) at
  /// delta \p Level, dropping every cube it subsumes at delta 1..Level.
  void insertCube(size_t Level, size_t Loc, Cube C, const Term *Clause);

  size_t NumLocs;
  /// Delta[level][loc] = cubes blocked exactly at that level; level 0 is
  /// unused (the init frame is implicit).
  std::vector<std::vector<Slot>> Delta;
};

/// The clause ¬cube: disjunction of negated literals (false for the
/// empty cube).
const Term *cubeClause(TermManager &TM, const Cube &C);

/// Validates \p F against the definition of a PDR frame sequence:
/// (a) the entry location never carries a clause (its init frame is
/// unconstrained, so any cube there is init-reachable); (b) semantic
/// containment F_i ⊆ F_{i+1} as state sets — every clause of F_{i+1}
/// is entailed by F_i — for 1 <= i < frontier; (c) every clause is
/// inductive relative to the frame below its blocking level: for a cube
/// c blocked at level D and each incoming transition From → Loc,
/// F_{D-1}[From] ∧ Rel ∧ c' is unsatisfiable. Queries that end Unknown
/// (a tripped ResourceController or an unsupported fragment) do not
/// count against well-formedness — only a satisfiable witness does.
/// \returns the number of violations (0 = well-formed). The PDR engine
/// asserts this in Debug builds before reporting a frame-based proof;
/// tests call it directly.
unsigned verifyFrames(const Program &P, smt::SolverContext &Solver,
                      const Frames &F);

} // namespace pdr
} // namespace pathinv

#endif // PATHINV_PDR_FRAMES_H
