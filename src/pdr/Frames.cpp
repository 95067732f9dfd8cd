//===- pdr/Frames.cpp - Delta-encoded PDR clause frames --------------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pdr/Frames.h"

#include "logic/TermRewrite.h"
#include "smt/SolverContext.h"

#include <algorithm>

using namespace pathinv;
using namespace pathinv::pdr;

void pathinv::pdr::canonicalizeCube(Cube &C) {
  std::sort(C.begin(), C.end(), TermIdLess());
  C.erase(std::unique(C.begin(), C.end()), C.end());
}

bool pathinv::pdr::cubeSubsumes(const Cube &A, const Cube &B) {
  if (A.size() > B.size())
    return false;
  return std::includes(B.begin(), B.end(), A.begin(), A.end(), TermIdLess());
}

const Term *pathinv::pdr::cubeClause(TermManager &TM, const Cube &C) {
  if (C.empty())
    return TM.mkFalse();
  std::vector<const Term *> Negated;
  Negated.reserve(C.size());
  for (const Term *L : C)
    Negated.push_back(TM.mkNot(L));
  return TM.mkOr(Negated);
}

Frames::Frames(const Program &P)
    : NumLocs(static_cast<size_t>(P.numLocations())) {
  // Levels 0 (implicit init, never stored) and 1 (the first frontier).
  Delta.resize(2, std::vector<std::vector<Cube>>(NumLocs));
}

void Frames::extend() {
  Delta.emplace_back(std::vector<std::vector<Cube>>(NumLocs));
}

void Frames::addBlockedCube(size_t Level, LocId Loc, Cube C) {
  canonicalizeCube(C);
  size_t L = static_cast<size_t>(Loc);
  // Subsumption pruning: the new clause is in every F_1..F_Level, so any
  // stored cube it subsumes at delta <= Level is now redundant.
  for (size_t I = 1; I <= Level; ++I) {
    std::vector<Cube> &Cubes = Delta[I][L];
    Cubes.erase(std::remove_if(Cubes.begin(), Cubes.end(),
                               [&](const Cube &Old) {
                                 return cubeSubsumes(C, Old);
                               }),
                Cubes.end());
  }
  Delta[Level][L].push_back(std::move(C));
}

bool Frames::isBlocked(size_t Level, LocId Loc, const Cube &C) const {
  size_t L = static_cast<size_t>(Loc);
  for (size_t I = Level; I < Delta.size(); ++I)
    for (const Cube &Stored : Delta[I][L])
      if (cubeSubsumes(Stored, C))
        return true;
  return false;
}

void Frames::collectClauses(TermManager &TM, size_t Level, LocId Loc,
                            std::vector<const Term *> &Out) const {
  size_t L = static_cast<size_t>(Loc);
  for (size_t I = std::max<size_t>(Level, 1); I < Delta.size(); ++I)
    for (const Cube &C : Delta[I][L])
      Out.push_back(cubeClause(TM, C));
}

void Frames::pushCube(size_t Level, LocId Loc, size_t Index) {
  size_t L = static_cast<size_t>(Loc);
  std::vector<Cube> &Cubes = Delta[Level][L];
  Cube Moved = std::move(Cubes[Index]);
  Cubes.erase(Cubes.begin() + static_cast<ptrdiff_t>(Index));
  // Re-insert through the subsuming path so a pushed clause retires any
  // weaker one already sitting at the higher level.
  addBlockedCube(Level + 1, Loc, std::move(Moved));
}

int Frames::fixpointLevel() const {
  // The frontier itself is excluded: F_frontier has not passed its
  // bad-state check yet, so an empty frontier delta proves nothing.
  for (size_t I = 1; I + 1 < Delta.size(); ++I) {
    bool Empty = true;
    for (const std::vector<Cube> &Cubes : Delta[I])
      if (!Cubes.empty()) {
        Empty = false;
        break;
      }
    if (Empty)
      return static_cast<int>(I);
  }
  return -1;
}

InvariantMap Frames::invariantMap(TermManager &TM, const Program &P,
                                  size_t Level) const {
  InvariantMap Map;
  for (int Loc = 0; Loc < P.numLocations(); ++Loc) {
    if (Loc == P.entry())
      continue; // (I0): entry is implicitly true.
    if (Loc == P.error()) {
      Map.Inv[Loc] = TM.mkFalse(); // (I2).
      continue;
    }
    std::vector<const Term *> Clauses;
    collectClauses(TM, Level, Loc, Clauses);
    if (Clauses.empty())
      continue; // Implicitly true.
    Map.Inv[Loc] = Clauses.size() == 1 ? Clauses.front() : TM.mkAnd(Clauses);
  }
  return Map;
}

uint64_t Frames::totalClauses() const {
  uint64_t N = 0;
  for (const auto &Level : Delta)
    for (const auto &Cubes : Level)
      N += Cubes.size();
  return N;
}

unsigned pathinv::pdr::verifyFrames(const Program &P,
                                    smt::SolverContext &Solver,
                                    const Frames &F) {
  TermManager &TM = P.termManager();
  unsigned Violations = 0;
  auto prime = [&TM](const Term *L) {
    return renameVars(TM, L, [&TM](const Term *V) -> const Term * {
      return isPrimedVar(V) ? nullptr : primedVar(TM, V);
    });
  };
  auto isSat = [&](std::vector<const Term *> Conj) {
    if (Conj.empty())
      return false;
    const Term *Q = Conj.size() == 1 ? Conj.front() : TM.mkAnd(Conj);
    // Unknown (resource trip, unsupported fragment) is not a violation:
    // the checker validates the frames, not the solver's stamina.
    return Solver.checkFormula(Q).isSat();
  };

  for (size_t Level = 1; Level <= F.frontier(); ++Level) {
    for (int Loc = 0; Loc < P.numLocations(); ++Loc) {
      const std::vector<Cube> &Cubes = F.cubesAt(Level, Loc);
      // (a) The entry location never carries a clause.
      if (Loc == P.entry() && !Cubes.empty()) {
        ++Violations;
        continue;
      }
      for (const Cube &C : Cubes) {
        // (b) Semantic containment F_{Level-1} ⊆ F_Level as state sets:
        // the clause ¬C of F_Level must be entailed one level down, i.e.
        // F_{Level-1}[Loc] ∧ C is unsatisfiable. (Delta encoding makes
        // this hold syntactically; the semantic query validates the
        // encoding end to end.)
        if (Level > 1) {
          std::vector<const Term *> Conj;
          F.collectClauses(TM, Level - 1, Loc, Conj);
          Conj.insert(Conj.end(), C.begin(), C.end());
          if (isSat(std::move(Conj)))
            ++Violations;
        }
        // (c) Relative inductiveness at the blocking level: no incoming
        // transition may produce a C-state from an F_{Level-1} state.
        for (int TIdx = 0; TIdx < P.numTransitions(); ++TIdx) {
          const Transition &T = P.transition(TIdx);
          if (T.To != Loc)
            continue;
          if (Level == 1 && T.From != P.entry())
            continue; // F_0[From] = false: vacuously inductive.
          std::vector<const Term *> Conj;
          F.collectClauses(TM, Level - 1, T.From, Conj);
          Conj.push_back(T.Rel);
          for (const Term *L : C)
            Conj.push_back(prime(L));
          if (isSat(std::move(Conj)))
            ++Violations;
        }
      }
    }
  }
  return Violations;
}
