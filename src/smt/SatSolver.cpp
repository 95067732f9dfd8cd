//===- smt/SatSolver.cpp - CDCL propositional solver ----------------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/SatSolver.h"

#include "core/Resource.h"

#include <algorithm>

using namespace pathinv;

int SatSolver::addVar() {
  int Var = static_cast<int>(Assign.size());
  Assign.push_back(Unassigned);
  Level.push_back(-1);
  Reason.push_back(-1);
  Activity.push_back(0.0);
  HeapPos.push_back(-1);
  heapInsert(Var);
  Watches.emplace_back(); // positive literal
  Watches.emplace_back(); // negative literal
  return Var;
}

void SatSolver::heapInsert(int Var) {
  if (HeapPos[Var] >= 0)
    return;
  HeapPos[Var] = static_cast<int>(Heap.size());
  Heap.push_back(Var);
  heapSiftUp(Heap.size() - 1);
}

void SatSolver::heapSiftUp(size_t Pos) {
  int Var = Heap[Pos];
  while (Pos > 0) {
    size_t Parent = (Pos - 1) / 2;
    if (!heapBefore(Var, Heap[Parent]))
      break;
    Heap[Pos] = Heap[Parent];
    HeapPos[Heap[Pos]] = static_cast<int>(Pos);
    Pos = Parent;
  }
  Heap[Pos] = Var;
  HeapPos[Var] = static_cast<int>(Pos);
}

void SatSolver::heapSiftDown(size_t Pos) {
  int Var = Heap[Pos];
  size_t Size = Heap.size();
  while (true) {
    size_t Child = 2 * Pos + 1;
    if (Child >= Size)
      break;
    if (Child + 1 < Size && heapBefore(Heap[Child + 1], Heap[Child]))
      ++Child;
    if (!heapBefore(Heap[Child], Var))
      break;
    Heap[Pos] = Heap[Child];
    HeapPos[Heap[Pos]] = static_cast<int>(Pos);
    Pos = Child;
  }
  Heap[Pos] = Var;
  HeapPos[Var] = static_cast<int>(Pos);
}

int SatSolver::heapPopTop() {
  int Top = Heap.front();
  HeapPos[Top] = -1;
  int Last = Heap.back();
  Heap.pop_back();
  if (!Heap.empty()) {
    Heap[0] = Last;
    HeapPos[Last] = 0;
    heapSiftDown(0);
  }
  return Top;
}

void SatSolver::heapRebuild() {
  for (size_t I = Heap.size() / 2; I-- > 0;)
    heapSiftDown(I);
}

bool SatSolver::addClause(std::vector<Lit> Clause) {
  return addClauseImpl(std::move(Clause), /*Redundant=*/false);
}

bool SatSolver::addLemma(std::vector<Lit> Clause) {
  return addClauseImpl(std::move(Clause), /*Redundant=*/true);
}

bool SatSolver::addClauseImpl(std::vector<Lit> Clause, bool Redundant) {
  if (KnownUnsat)
    return false;
  // Remove duplicates and detect tautologies with a stamped marker buffer —
  // no sort, no per-call allocation. The lazy SMT loop funnels a blocking
  // clause through here after every theory conflict, so this path is hot.
  if (LitMark.size() < 2 * Assign.size())
    LitMark.resize(2 * Assign.size(), 0);
  ++MarkStamp;
  ScratchLits.clear();
  for (Lit L : Clause) {
    assert(L.var() < numVars() && "literal over unknown variable");
    if (LitMark[L.Value] == MarkStamp)
      continue; // Duplicate literal.
    if (LitMark[(~L).Value] == MarkStamp)
      return true; // Tautology: p || !p.
    LitMark[L.Value] = MarkStamp;
    ScratchLits.push_back(L);
  }

  // Drop literals already false at level 0 (false forever); a literal true
  // at level 0 satisfies the clause permanently. Literals assigned above
  // level 0 are kept verbatim: solve() re-enters through backtrack(0), so
  // no backtrack is needed here — the old unconditional backtrack(0) threw
  // away the whole trail on every blocking clause. Filtering is done in
  // place in the scratch buffer; the surviving literals are copied out
  // only when a clause is actually stored.
  size_t Kept = 0;
  for (Lit L : ScratchLits) {
    if (!litUnassigned(L) && Level[L.var()] == 0) {
      if (litTrue(L))
        return true;
      continue;
    }
    ScratchLits[Kept++] = L;
  }
  ScratchLits.resize(Kept);
  std::vector<Lit> &Pruned = ScratchLits;
  if (Pruned.empty()) {
    KnownUnsat = true;
    return false;
  }
  if (Pruned.size() == 1) {
    // A unit must be asserted at level 0; backtrack only in this case (and
    // only when a literal is actually assigned above level 0).
    backtrack(0);
    if (!litUnassigned(Pruned[0])) {
      // Still assigned after backtracking means decided at level 0.
      if (litTrue(Pruned[0]))
        return true;
      KnownUnsat = true;
      return false;
    }
    enqueue(Pruned[0], -1);
    if (propagate() >= 0) {
      KnownUnsat = true;
      return false;
    }
    return true;
  }

  // Any two kept literals are valid watches: each is unassigned at level 0
  // (or assigned above it, which the next backtrack(0) undoes), so the
  // watch invariant holds whenever propagation runs at this clause's
  // resolution level.
  int Idx = static_cast<int>(Clauses.size());
  Watches[Pruned[0].Value].push_back(Idx);
  Watches[Pruned[1].Value].push_back(Idx);
  // Copy (not move) so the scratch buffer keeps its capacity for the next
  // call; the stored clause needs its own allocation either way.
  // Redundant clauses are seeded with the current activity increment
  // (like CDCL-learned ones): a fresh theory lemma must not be the first
  // purge victim just because it has not joined a conflict yet.
  Clauses.push_back({std::vector<Lit>(Pruned.begin(), Pruned.end()),
                     Redundant, Redundant ? ClauseActivityInc : 0.0});
  if (Redundant)
    ++RedundantClauses;
  return true;
}

void SatSolver::enqueue(Lit L, int ReasonClause) {
  assert(litUnassigned(L) && "enqueueing an assigned literal");
  Assign[L.var()] = L.negated() ? FalseVal : TrueVal;
  Level[L.var()] = static_cast<int>(TrailLim.size());
  Reason[L.var()] = ReasonClause;
  Trail.push_back(L);
}

int SatSolver::propagate() {
  while (PropHead < Trail.size()) {
    Lit L = Trail[PropHead++];
    ++Propagations;
    // Clauses watching ~L must be inspected. The list is compacted in
    // place: Keep trails WI over the entries that stay.
    std::vector<int> &WatchList = Watches[(~L).Value];
    size_t Keep = 0;
    for (size_t WI = 0; WI < WatchList.size(); ++WI) {
      int CI = WatchList[WI];
      Clause &C = Clauses[CI];
      // Normalize: watched literal ~L at position 1.
      if (C.Lits[0] == ~L)
        std::swap(C.Lits[0], C.Lits[1]);
      assert(C.Lits[1] == ~L && "watch list out of sync");
      if (litTrue(C.Lits[0])) {
        WatchList[Keep++] = CI;
        continue;
      }
      // Find a replacement watch (never ~L itself: clause literals are
      // distinct, so the push below never targets this list).
      bool Found = false;
      for (size_t K = 2; K < C.Lits.size(); ++K) {
        if (!litFalse(C.Lits[K])) {
          std::swap(C.Lits[1], C.Lits[K]);
          Watches[C.Lits[1].Value].push_back(CI);
          Found = true;
          break;
        }
      }
      if (Found)
        continue;
      // Unit or conflicting.
      WatchList[Keep++] = CI;
      if (litFalse(C.Lits[0])) {
        // Conflict: keep the remaining watches and report.
        for (size_t K = WI + 1; K < WatchList.size(); ++K)
          WatchList[Keep++] = WatchList[K];
        WatchList.resize(Keep);
        return CI;
      }
      enqueue(C.Lits[0], CI);
    }
    WatchList.resize(Keep);
  }
  return -1;
}

void SatSolver::bumpVar(int Var) {
  Activity[Var] += ActivityInc;
  if (Activity[Var] > 1e100) {
    for (double &A : Activity)
      A *= 1e-100;
    ActivityInc *= 1e-100;
    heapRebuild(); // Rescaling can merge or reorder near-equal keys.
  } else if (HeapPos[Var] >= 0) {
    heapSiftUp(static_cast<size_t>(HeapPos[Var]));
  }
}

void SatSolver::bumpClause(int ClauseIdx) {
  Clause &C = Clauses[ClauseIdx];
  C.Activity += ClauseActivityInc;
  if (C.Activity > 1e20) {
    for (Clause &D : Clauses)
      D.Activity *= 1e-20;
    ClauseActivityInc *= 1e-20;
  }
}

void SatSolver::decayActivities() {
  ActivityInc *= 1.05;
  ClauseActivityInc *= 1.001;
}

int SatSolver::analyze(int ConflictClause, std::vector<Lit> &Learned) {
  Learned.clear();
  Learned.push_back(Lit()); // Slot for the asserting (UIP) literal.
  int CurrentLevel = static_cast<int>(TrailLim.size());
  std::vector<bool> Seen(Assign.size(), false);
  int Counter = 0;
  Lit P;
  bool HaveP = false;
  size_t TrailIdx = Trail.size();
  int ClauseIdx = ConflictClause;

  do {
    assert(ClauseIdx >= 0 && "conflict analysis lost its reason");
    bumpClause(ClauseIdx);
    const Clause &C = Clauses[ClauseIdx];
    // When following a reason clause, Lits[0] is the propagated literal P
    // (propagation and learning both place it there, and it cannot be
    // swapped away while the clause serves as a reason).
    assert((!HaveP || C.Lits[0] == P) && "reason clause out of order");
    for (size_t I = HaveP ? 1 : 0; I < C.Lits.size(); ++I) {
      Lit Q = C.Lits[I];
      int Var = Q.var();
      if (Seen[Var] || Level[Var] == 0)
        continue;
      Seen[Var] = true;
      bumpVar(Var);
      if (Level[Var] == CurrentLevel)
        ++Counter;
      else
        Learned.push_back(Q);
    }
    // Pick the next trail literal to resolve on.
    while (!Seen[Trail[TrailIdx - 1].var()])
      --TrailIdx;
    --TrailIdx;
    P = Trail[TrailIdx];
    HaveP = true;
    Seen[P.var()] = false;
    ClauseIdx = Reason[P.var()];
    --Counter;
  } while (Counter > 0);

  Learned[0] = ~P;

  // Backjump level: highest level among the other literals.
  int BackLevel = 0;
  size_t MaxIdx = 1;
  for (size_t I = 1; I < Learned.size(); ++I) {
    if (Level[Learned[I].var()] > BackLevel) {
      BackLevel = Level[Learned[I].var()];
      MaxIdx = I;
    }
  }
  if (Learned.size() > 1)
    std::swap(Learned[1], Learned[MaxIdx]);
  return BackLevel;
}

void SatSolver::backtrack(int TargetLevel) {
  if (static_cast<int>(TrailLim.size()) <= TargetLevel)
    return;
  size_t Bound = TrailLim[TargetLevel];
  while (Trail.size() > Bound) {
    Lit L = Trail.back();
    Trail.pop_back();
    Assign[L.var()] = Unassigned;
    Reason[L.var()] = -1;
    Level[L.var()] = -1;
    heapInsert(L.var());
  }
  TrailLim.resize(TargetLevel);
  PropHead = Trail.size();
}

std::vector<char> SatSolver::reasonClauses() const {
  std::vector<char> IsReason(Clauses.size(), 0);
  for (Lit L : Trail)
    if (Reason[L.var()] >= 0)
      IsReason[Reason[L.var()]] = 1;
  return IsReason;
}

std::vector<int> SatSolver::compactClauses(const std::vector<char> &Drop) {
  std::vector<int> NewIdx(Clauses.size(), -1);
  size_t Next = 0;
  for (size_t I = 0; I < Clauses.size(); ++I) {
    if (Drop[I]) {
      if (Clauses[I].Learned)
        --RedundantClauses;
      continue;
    }
    NewIdx[I] = static_cast<int>(Next);
    if (Next != I)
      Clauses[Next] = std::move(Clauses[I]);
    ++Next;
  }
  Clauses.resize(Next);
  for (int &R : Reason)
    if (R >= 0)
      R = NewIdx[R];
  return NewIdx;
}

void SatSolver::purgeLearned(size_t MaxKeep) {
  if (RedundantClauses <= MaxKeep || KnownUnsat)
    return;
  backtrack(0);

  // Keep every irredundant clause, every redundant clause serving as the
  // reason of a (level-0) assignment, and the MaxKeep most active
  // redundant clauses beyond those.
  std::vector<char> IsReason = reasonClauses();
  std::vector<std::pair<double, int>> Candidates;
  Candidates.reserve(RedundantClauses);
  for (size_t I = 0; I < Clauses.size(); ++I)
    if (Clauses[I].Learned && !IsReason[I])
      Candidates.push_back({Clauses[I].Activity, static_cast<int>(I)});
  if (Candidates.size() <= MaxKeep)
    return;
  std::nth_element(Candidates.begin(), Candidates.begin() + MaxKeep,
                   Candidates.end(),
                   [](const auto &A, const auto &B) { return A.first > B.first; });

  std::vector<char> Drop(Clauses.size(), 0);
  for (size_t I = MaxKeep; I < Candidates.size(); ++I)
    Drop[Candidates[I].second] = 1;
  PurgedClauses += Candidates.size() - MaxKeep;

  // Compact the clause store and remap reasons; watches are rebuilt
  // wholesale (the two watch positions were valid before the purge and
  // the trail did not change, so they remain valid).
  compactClauses(Drop);
  for (std::vector<int> &W : Watches)
    W.clear();
  for (size_t I = 0; I < Clauses.size(); ++I) {
    Watches[Clauses[I].Lits[0].Value].push_back(static_cast<int>(I));
    Watches[Clauses[I].Lits[1].Value].push_back(static_cast<int>(I));
  }
#ifndef NDEBUG
  checkWatches();
#endif
}

void SatSolver::maybeSweepSatisfied() {
  if (Trail.size() == SweepTrail ||
      Propagations - SweepPropagations < SweepBudget)
    return;
  sweepSatisfied();
}

void SatSolver::sweepSatisfied() {
  assert(TrailLim.empty() && PropHead == Trail.size() &&
         "sweep runs at level 0 after propagation");
  ++Sweeps;
  // At level 0 every assigned literal is permanent, so a clause with a
  // true literal can never propagate or conflict again: the only trace
  // it leaves in a search is a dead entry in some watch list.
  std::vector<char> IsReason = reasonClauses();
  std::vector<char> Drop(Clauses.size(), 0);
  size_t Dropped = 0;
  for (size_t I = 0; I < Clauses.size(); ++I) {
    if (IsReason[I] || Clauses[I].Learned)
      continue;
    for (Lit L : Clauses[I].Lits)
      if (litTrue(L)) {
        Drop[I] = 1;
        ++Dropped;
        break;
      }
  }
  if (Dropped > 0) {
    std::vector<int> NewIdx = compactClauses(Drop);
    // Filter the watch lists in place: the survivors keep their order,
    // which is what keeps propagation (and everything after it) exact.
    for (std::vector<int> &W : Watches) {
      size_t Keep = 0;
      for (int CI : W)
        if (NewIdx[CI] >= 0)
          W[Keep++] = NewIdx[CI];
      W.resize(Keep);
    }
    SweptClauses += Dropped;
  }
  uint64_t Literals = 0;
  for (const Clause &C : Clauses)
    Literals += C.Lits.size();
  SweepTrail = Trail.size();
  SweepPropagations = Propagations;
  SweepBudget = Literals;
#ifndef NDEBUG
  checkWatches();
#endif
}

#ifndef NDEBUG
void SatSolver::checkWatches() const {
  // Per clause: bit 0 once watched at Lits[0], bit 1 once at Lits[1].
  std::vector<int> Seen(Clauses.size(), 0);
  for (size_t L = 0; L < Watches.size(); ++L) {
    for (int CI : Watches[L]) {
      assert(CI >= 0 && static_cast<size_t>(CI) < Clauses.size() &&
             "watch list names a removed clause");
      const Clause &C = Clauses[CI];
      int Bit = C.Lits[0].Value == static_cast<int>(L)   ? 1
                : C.Lits[1].Value == static_cast<int>(L) ? 2
                                                         : 0;
      assert(Bit != 0 && "clause watched away from Lits[0] and Lits[1]");
      assert(!(Seen[CI] & Bit) && "clause watched twice by one literal");
      Seen[CI] |= Bit;
    }
  }
  for (size_t I = 0; I < Clauses.size(); ++I)
    assert(Seen[I] == 3 && "clause not watched at both watch positions");
  for (Lit L : Trail) {
    int R = Reason[L.var()];
    if (R < 0)
      continue;
    assert(static_cast<size_t>(R) < Clauses.size() &&
           Clauses[R].Lits[0] == L && "reason is not a stored clause");
  }
}
#endif

void SatSolver::analyzeFinal(Lit Failed) {
  FailedAssumptions.clear();
  FailedAssumptions.push_back(Failed);
  if (Level[Failed.var()] == 0 || TrailLim.empty())
    return; // ~Failed holds at level 0: Failed alone contradicts the DB.
  // Walk the trail top-down from the first decision level. Every decision
  // above level 0 is an assumption here: analyzeFinal only runs while
  // assumptions are being (re-)established, before any free decision.
  std::vector<bool> Seen(Assign.size(), false);
  Seen[Failed.var()] = true;
  for (size_t I = Trail.size(); I-- > static_cast<size_t>(TrailLim[0]);) {
    Lit L = Trail[I];
    if (!Seen[L.var()])
      continue;
    Seen[L.var()] = false;
    if (Reason[L.var()] < 0) {
      FailedAssumptions.push_back(L);
      continue;
    }
    const Clause &C = Clauses[Reason[L.var()]];
    for (size_t K = 1; K < C.Lits.size(); ++K) {
      int Var = C.Lits[K].var();
      if (Level[Var] > 0)
        Seen[Var] = true;
    }
  }
}

int SatSolver::pickBranchVar() {
  int Best = -1;
  while (!Heap.empty()) {
    int Top = heapPopTop();
    if (Assign[Top] == Unassigned) {
      Best = Top;
      break;
    }
  }
#ifndef NDEBUG
  // The heap must pick exactly what a scan for the first most active
  // unassigned variable picks: decisions, and with them every learned
  // clause and counter, stay those of the linear order.
  int ScanBest = -1;
  double BestActivity = -1.0;
  for (int Var = 0; Var < numVars(); ++Var) {
    if (Assign[Var] == Unassigned && Activity[Var] > BestActivity) {
      BestActivity = Activity[Var];
      ScanBest = Var;
    }
  }
  assert(Best == ScanBest && "decision heap disagrees with the linear scan");
#endif
  return Best;
}

SatSolver::Result SatSolver::solve(const std::vector<Lit> &Assumptions) {
  FailedAssumptions.clear();
  if (KnownUnsat)
    return Result::Unsat;
  backtrack(0);
  if (propagate() >= 0) {
    KnownUnsat = true;
    return Result::Unsat;
  }
  maybeSweepSatisfied();

  uint64_t ConflictsSinceRestart = 0;
  uint64_t RestartLimit = 64;

  while (true) {
    int ConflictClause = propagate();
    if (ConflictClause >= 0) {
      ++Conflicts;
      ++ConflictsSinceRestart;
      if (!resourceCharge(ResourceKind::SatConflicts)) {
        // Cooperative interruption: unwind to level 0 so the clause
        // database and watches are consistent for the next solve().
        backtrack(0);
        return Result::Interrupted;
      }
      if (TrailLim.empty()) {
        KnownUnsat = true;
        return Result::Unsat;
      }
      std::vector<Lit> Learned;
      int BackLevel = analyze(ConflictClause, Learned);
      backtrack(BackLevel);
      if (Learned.size() == 1) {
        enqueue(Learned[0], -1);
      } else {
        int Idx = static_cast<int>(Clauses.size());
        Watches[Learned[0].Value].push_back(Idx);
        Watches[Learned[1].Value].push_back(Idx);
        Lit Asserting = Learned[0];
        Clauses.push_back({std::move(Learned), true, ClauseActivityInc});
        ++RedundantClauses;
        enqueue(Asserting, Idx);
      }
      decayActivities();
      continue;
    }

    if (ConflictsSinceRestart >= RestartLimit) {
      ConflictsSinceRestart = 0;
      RestartLimit = RestartLimit + RestartLimit / 2;
      backtrack(0);
      continue;
    }

    // (Re-)establish assumptions before any free decision. Backjumps may
    // cancel assumption levels; this loop restores them in order, so all
    // decisions above level 0 are assumptions until every assumption is
    // decided.
    if (TrailLim.size() < Assumptions.size()) {
      Lit A = Assumptions[TrailLim.size()];
      assert(A.var() < numVars() && "assumption over unknown variable");
      if (litTrue(A)) {
        // Already implied: open an (empty) level so assumption indices and
        // decision levels stay aligned.
        TrailLim.push_back(static_cast<int>(Trail.size()));
        continue;
      }
      if (litFalse(A)) {
        // Forced false by the clauses and earlier assumptions: unsat under
        // assumptions, with the responsible subset as the core. The clause
        // set itself stays (potentially) satisfiable.
        analyzeFinal(A);
        return Result::Unsat;
      }
      TrailLim.push_back(static_cast<int>(Trail.size()));
      enqueue(A, -1);
      continue;
    }

    int BranchVar = pickBranchVar();
    if (BranchVar < 0)
      return Result::Sat;
    ++Decisions;
    TrailLim.push_back(static_cast<int>(Trail.size()));
    enqueue(Lit(BranchVar, /*Negated=*/true), -1); // Default polarity false.
  }
}
