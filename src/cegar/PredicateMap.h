//===- cegar/PredicateMap.h - Per-location precision -----------*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstraction Pi of the CEGAR loop as a *precision*: which predicates
/// the abstract reachability phase tracks, and where. Precision is split
/// into a global part (tracked at every location) and location-scoped
/// parts (tracked only at the location a refinement attributed them to),
/// so the entailment batch labelling a node at location l only ever
/// queries predicates relevant at l — a location-scoped predicate from an
/// unrelated loop never bloats another location's batch.
///
/// Predicates are arbitrary formulas over the program variables —
/// including universally quantified ones, which is exactly what path
/// invariants contribute beyond classic predicate discovery.
///
/// The precision only ever grows. sizeAt() is therefore a sufficient
/// staleness stamp: an ARG node labelled when sizeAt(l) was k is stale
/// iff sizeAt(l) > k now.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_CEGAR_PREDICATEMAP_H
#define PATHINV_CEGAR_PREDICATEMAP_H

#include "program/Program.h"

#include <map>

namespace pathinv {

/// Pi : global predicates + per-location scoped predicates.
class Precision {
public:
  /// Adds \p Pred to the scoped precision of \p Loc; returns true when it
  /// is new there (and not already global).
  bool add(LocId Loc, const Term *Pred) {
    if (Pred->isTrue() || Pred->isFalse() || Global.count(Pred))
      return false;
    return Scoped[Loc].insert(Pred).second;
  }

  /// Adds \p Pred to the global precision (tracked at every location);
  /// returns true when it is new. A predicate promoted from a scoped set
  /// leaves it, so no location ever tracks a predicate twice. sizeAt
  /// stays monotone: the promotion replaces one scoped entry with one
  /// global entry at the locations that had it, and adds one elsewhere.
  /// Note: every in-tree refiner attributes predicates per location
  /// (refinements are path-local by design); the global half is the
  /// extension surface for program-wide facts — tests and external
  /// callers preload it (e.g. known whole-program invariants).
  bool addGlobal(const Term *Pred) {
    if (Pred->isTrue() || Pred->isFalse())
      return false;
    if (!Global.insert(Pred).second)
      return false;
    for (auto &[Loc, Set] : Scoped)
      Set.erase(Pred);
    return true;
  }

  /// The location-scoped predicates of \p Loc (excluding global ones).
  const TermSet &scopedAt(LocId Loc) const {
    static const TermSet Empty;
    auto It = Scoped.find(Loc);
    return It == Scoped.end() ? Empty : It->second;
  }

  const TermSet &global() const { return Global; }

  /// Appends every predicate relevant at \p Loc (global first, then
  /// scoped) to \p Out — the iteration order of a labelling batch.
  void collectRelevant(LocId Loc, std::vector<const Term *> &Out) const {
    Out.insert(Out.end(), Global.begin(), Global.end());
    const TermSet &S = scopedAt(Loc);
    Out.insert(Out.end(), S.begin(), S.end());
  }

  /// Number of predicates relevant at \p Loc. Monotone (precision only
  /// grows), so it doubles as the staleness stamp of ARG node labels.
  size_t sizeAt(LocId Loc) const {
    return Global.size() + scopedAt(Loc).size();
  }

  size_t totalPredicates() const {
    size_t N = Global.size();
    for (const auto &[Loc, Set] : Scoped)
      N += Set.size();
    return N;
  }

  std::string dump(const Program &P) const;

private:
  TermSet Global;                  ///< Tracked at every location.
  std::map<LocId, TermSet> Scoped; ///< Tracked only at their location.
};

/// Historical name: the precision grew out of a plain location ->
/// predicate-set map.
using PredicateMap = Precision;

} // namespace pathinv

#endif // PATHINV_CEGAR_PREDICATEMAP_H
