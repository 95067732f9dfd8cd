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
  Delta.resize(2, std::vector<Slot>(NumLocs));
}

void Frames::extend() { Delta.emplace_back(std::vector<Slot>(NumLocs)); }

void Frames::addBlockedCube(size_t Level, LocId Loc, Cube C) {
  canonicalizeCube(C);
  insertCube(Level, static_cast<size_t>(Loc), std::move(C), nullptr);
}

void Frames::insertCube(size_t Level, size_t L, Cube C, const Term *Clause) {
  // Subsumption pruning: the new clause is in every F_1..F_Level, so any
  // stored cube it subsumes at delta <= Level is now redundant.
  for (size_t I = 1; I <= Level; ++I) {
    Slot &S = Delta[I][L];
    size_t Kept = 0;
    for (size_t K = 0; K < S.Cubes.size(); ++K) {
      if (cubeSubsumes(C, S.Cubes[K]))
        continue;
      if (Kept != K) {
        S.Cubes[Kept] = std::move(S.Cubes[K]);
        S.Clauses[Kept] = S.Clauses[K];
      }
      ++Kept;
    }
    S.Cubes.resize(Kept);
    S.Clauses.resize(Kept);
  }
  Delta[Level][L].Cubes.push_back(std::move(C));
  Delta[Level][L].Clauses.push_back(Clause);
}

bool Frames::isBlocked(size_t Level, LocId Loc, const Cube &C) const {
  size_t L = static_cast<size_t>(Loc);
  for (size_t I = Level; I < Delta.size(); ++I)
    for (const Cube &Stored : Delta[I][L].Cubes)
      if (cubeSubsumes(Stored, C))
        return true;
  return false;
}

const Term *Frames::clauseAt(TermManager &TM, size_t Level, LocId Loc,
                             size_t Index) const {
  const Slot &S = Delta[Level][static_cast<size_t>(Loc)];
  if (!S.Clauses[Index])
    S.Clauses[Index] = cubeClause(TM, S.Cubes[Index]);
  return S.Clauses[Index];
}

void Frames::collectClauses(TermManager &TM, size_t Level, LocId Loc,
                            std::vector<const Term *> &Out) const {
  for (size_t I = std::max<size_t>(Level, 1); I < Delta.size(); ++I)
    for (size_t K = 0; K < Delta[I][static_cast<size_t>(Loc)].Cubes.size();
         ++K)
      Out.push_back(clauseAt(TM, I, Loc, K));
}

void Frames::pushCube(size_t Level, LocId Loc, size_t Index) {
  Slot &S = Delta[Level][static_cast<size_t>(Loc)];
  Cube Moved = std::move(S.Cubes[Index]);
  const Term *Clause = S.Clauses[Index];
  S.Cubes.erase(S.Cubes.begin() + static_cast<ptrdiff_t>(Index));
  S.Clauses.erase(S.Clauses.begin() + static_cast<ptrdiff_t>(Index));
  // Re-insert through the subsuming path so a pushed clause retires any
  // weaker one already sitting at the higher level.
  insertCube(Level + 1, static_cast<size_t>(Loc), std::move(Moved), Clause);
}

int Frames::fixpointLevel() const {
  // The frontier itself is excluded: F_frontier has not passed its
  // bad-state check yet, so an empty frontier delta proves nothing.
  for (size_t I = 1; I + 1 < Delta.size(); ++I) {
    bool Empty = true;
    for (const Slot &S : Delta[I])
      if (!S.Cubes.empty()) {
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
    for (const Slot &S : Level)
      N += S.Cubes.size();
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
