//===- synth/Solver.cpp - Bilinear constraint solving ----------------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "synth/Solver.h"

#include "core/Resource.h"
#include "smt/Simplex.h"
#include "synth/Farkas.h"

#include <algorithm>
#include <limits>
#include <set>
#include <unordered_set>

using namespace pathinv;

namespace {

/// A fully linearized way to discharge one condition: the constraints of
/// one alternative with one integer assignment to its bilinear
/// multipliers.
struct Combo {
  std::vector<PolyConstraint> Constraints; ///< Linear in the unknowns.
  std::map<int, Rational> MultValues;      ///< The enumerated multipliers.
  int Gid = -1; ///< Dense id across all prepared combos (nogood member).
};

/// All locally feasible combos of one condition.
struct PreparedCondition {
  std::vector<Combo> Combos;
};

/// An incremental LP context: a simplex tableau plus the pool-id to
/// LP-column mapping, with scopes. The search runs one shared tableau
/// and brackets each branch in push()/pop() — a child node only pays for
/// its own constraints and the pop undoes them — instead of copying the
/// whole tableau at every depth as the previous design did. The leaf
/// filter of the multiplier enumeration reuses a second one through
/// reset(), which keeps every buffer the previous leaf grew.
struct LpState {
  Simplex LP;
  std::vector<int> VarOf;  ///< Pool id -> LP column, -1 when unmapped.
  std::vector<int> Mapped; ///< Pool ids with a column, in mapping order.
  /// Mapped.size() at each open push(); pop() forgets the ids mapped
  /// since, so their (now unconstrained, dead) LP columns are not reused.
  std::vector<size_t> ScopeMarks;

  void push() {
    LP.push();
    ScopeMarks.push_back(Mapped.size());
  }
  void pop() {
    forgetFrom(ScopeMarks.back());
    ScopeMarks.pop_back();
    LP.pop();
  }
  /// Back to the empty system, keeping capacity.
  void reset() {
    forgetFrom(0);
    ScopeMarks.clear();
    LP.reset();
  }

private:
  void forgetFrom(size_t Mark) {
    for (size_t I = Mark; I < Mapped.size(); ++I)
      VarOf[static_cast<size_t>(Mapped[I])] = -1;
    Mapped.resize(Mark);
  }
};

class Search {
public:
  Search(UnknownPool &Pool, const std::vector<Condition> &Conditions,
         const SynthOptions &Opts)
      : Pool(Pool), Conditions(Conditions), Opts(Opts),
        Budget(Opts.MaxLpChecks) {
    if (Opts.Learning) {
      Learner = Opts.Learner ? Opts.Learner : &LocalLearner;
      Learner->beginRun();
    }
  }

  SynthResult run() {
    SynthResult Result;
    prepare();
    assignComboIds();
    installRootCuts();
    enterBranchTrie();
    // Fail-first: conditions with the fewest ways to discharge go first.
    std::vector<size_t> Order(Prepared.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::stable_sort(Order.begin(), Order.end(), [this](size_t A, size_t B) {
      return Prepared[A].Combos.size() < Prepared[B].Combos.size();
    });

    bool Found = true;
    for (size_t I : Order) {
      if (Prepared[I].Combos.empty()) {
        Found = false; // Some condition cannot be discharged at all.
        break;
      }
    }
    if (Found) {
      // Root check: with cuts installed this also decides whether the
      // constraints common to every combo of some condition are jointly
      // feasible at all; empty system stays trivially Sat.
      Found = Lp.LP.check() != Simplex::Result::Unsat &&
              dfs(Order, 0) == FoundSolution;
    }
    if (Found) {
      Result.Found = true;
      Result.Assignment = std::move(FinalAssignment);
    }
    Result.ResourceOut = Budget == 0;
    Result.LpChecks = LpChecks;
    Result.Learn = RunStats;
    return Result;
  }

private:
  int lpVarOf(LpState &S, int Id) {
    size_t Slot = static_cast<size_t>(Id);
    if (Slot >= S.VarOf.size())
      S.VarOf.resize(static_cast<size_t>(Pool.size()), -1);
    int &Var = S.VarOf[Slot];
    if (Var < 0) {
      Var = S.LP.addVar();
      S.Mapped.push_back(Id);
      if (Pool.kind(Id) == UnknownKind::Multiplier)
        S.LP.addBound(Var, SimplexRel::Ge, Rational(0), -1);
    }
    return Var;
  }

  /// Translates \p PC into an LP constraint of \p S tagged with \p Tag.
  void lpAddConstraint(LpState &S, const PolyConstraint &PC, int Tag) {
    std::vector<std::pair<int, Rational>> &Coeffs = CoeffScratch;
    Coeffs.clear();
    Rational Rhs;
    for (const auto &[M, C] : PC.P.terms()) {
      assert(M.degree() <= 1 && "quadratic monomial reached the LP");
      if (M.degree() == 0)
        Rhs -= C;
      else
        Coeffs.emplace_back(lpVarOf(S, M.B), C);
    }
    S.LP.addConstraint(Coeffs, PC.IsEq ? SimplexRel::Eq : SimplexRel::Ge,
                       Rhs, Tag);
  }

  void lpAddConstraints(LpState &S, const std::vector<PolyConstraint> &Cs,
                        int Tag) {
    for (const PolyConstraint &PC : Cs)
      lpAddConstraint(S, PC, Tag);
  }

  /// Charges one LP check to the search budget and the job's controller.
  /// \returns false, with the budget zeroed, when either is spent.
  bool chargeLpCheck() {
    if (Budget == 0)
      return false;
    if (!resourceCharge(ResourceKind::SynthCombos)) {
      Budget = 0; // Controller tripped: reuse the budget unwind path.
      return false;
    }
    --Budget;
    ++LpChecks;
    return true;
  }

  /// Re-checks \p S incrementally after constraints were added. On
  /// infeasibility, \p ConflictTag (when provided) receives the largest
  /// tag in the unsat core — the deepest search choice implicated.
  bool lpFeasible(LpState &S, int *ConflictTag) {
    Simplex::Result R = S.LP.check();
    if (R == Simplex::Result::Interrupted) {
      Budget = 0; // No verdict and no core; end the search.
      return false;
    }
    if (R != Simplex::Result::Sat) {
      if (ConflictTag) {
        *ConflictTag = -1;
        for (int CoreTag : S.LP.unsatCore())
          *ConflictTag = std::max(*ConflictTag, CoreTag);
      }
      return false;
    }
    return true;
  }

  /// Decides (and counts) the local feasibility of an enumerated leaf,
  /// consulting the learner's verdict cache first. A cache hit skips the
  /// scratch LP entirely: within the run that is dedup, across runs it is
  /// a reused lemma (the knowledge survived a Farkas scope teardown).
  bool comboLocallyFeasible(const std::vector<const PolyConstraint *> &Cs,
                            const ComboFp *Fp) {
    if (Learner && Fp) {
      auto It = Learner->Combos.find(*Fp);
      if (It != Learner->Combos.end()) {
        if (It->second.Epoch < Learner->epoch()) {
          ++RunStats.LemmasReused;
          ++Learner->Stats.LemmasReused;
        } else {
          ++RunStats.CombosDeduped;
          ++Learner->Stats.CombosDeduped;
        }
        return It->second.Feasible;
      }
    }
    bool Feasible = false;
    if (chargeLpCheck()) {
      Leaf.reset();
      for (const PolyConstraint *PC : Cs)
        lpAddConstraint(Leaf, *PC, 0);
      Feasible = lpFeasible(Leaf, nullptr);
    }
    // A budget trip mid-check yields a spurious "infeasible" — never
    // cache it (the unwind path ends the run before the verdict is used).
    if (Learner && Fp && Budget != 0 && !Learner->cacheFull())
      Learner->Combos.emplace(*Fp,
                              SynthLearner::CacheEntry{Feasible,
                                                       Learner->epoch()});
    return Feasible;
  }

  /// Enumerates the bilinear multipliers of one alternative's encoding,
  /// keeping each locally feasible linearization as a combo. \p CondSeen
  /// carries the condition-scoped dedup keys already admitted across the
  /// condition's alternatives, so interchangeable choices collapse into
  /// one combo.
  ///
  /// Depth-first over multiplier values, substituting each assignment
  /// into the constraint set immediately. A constraint that becomes a
  /// violated constant prunes the whole subtree, so the expensive exact
  /// LP filter only ever runs on leaves that survived every ground
  /// check — a tiny fraction of the 3^k assignment tree. Each depth holds
  /// pointers: a constraint that does not mention the multiplier being
  /// fixed is shared with the parent, and only the ones that do are
  /// substituted into that depth's own storage. A constraint already
  /// constant in the encoding is checked (dropped or pruning) at the
  /// first level only; the leaf of a multiplier-free alternative keeps
  /// it. A Combo is materialized only for an admitted leaf.
  void enumerateCombos(const std::vector<PolyConstraint> &Encoded,
                       PreparedCondition &Out,
                       std::unordered_set<ComboFp, ComboFpHash> &CondSeen) {
    // Multipliers occurring in quadratic monomials, ascending.
    std::vector<int> &Quad = Enum.Quad;
    Quad.clear();
    for (const PolyConstraint &PC : Encoded)
      for (int Id : PC.P.quadraticUnknowns())
        if (Pool.kind(Id) != UnknownKind::Param)
          Quad.push_back(Id);
    std::sort(Quad.begin(), Quad.end());
    Quad.erase(std::unique(Quad.begin(), Quad.end()), Quad.end());

    // Mentions[L * N + I]: encoded constraint I mentions Quad[L].
    // Substitution only removes unknowns, so this over-approximates the
    // derived constraints; substituting an unknown that a derived
    // constraint lost to cancellation returns it unchanged.
    size_t N = Encoded.size();
    Enum.N = N;
    Enum.Mentions.assign(Quad.size() * N, 0);
    for (size_t I = 0; I < N; ++I)
      for (const auto &[M, C] : Encoded[I].P.terms())
        for (int Id : {M.A, M.B})
          if (Id >= 0) {
            auto It = std::lower_bound(Quad.begin(), Quad.end(), Id);
            if (It != Quad.end() && *It == Id)
              Enum.Mentions[static_cast<size_t>(It - Quad.begin()) * N + I] =
                  1;
          }

    if (Enum.Live.size() < Quad.size() + 1) {
      Enum.Live.resize(Quad.size() + 1);
      Enum.Owned.resize(Quad.size() + 1);
      Enum.Values.resize(Quad.size());
    }
    Enum.Live[0].clear();
    for (size_t I = 0; I < N; ++I)
      Enum.Live[0].push_back({I, &Encoded[I]});
    Enum.Out = &Out;
    Enum.CondSeen = &CondSeen;
    // The cap is per alternative, not per condition: a combinatorial
    // alternative must not starve the simpler alternatives enumerated
    // after it (their combos are often the only ones that discharge the
    // condition).
    Enum.Cap = Out.Combos.size() + MaxCombosPerAlternative;
    enumerateLevel(0);
  }

  void enumerateLevel(size_t Idx) {
    if (Enum.Out->Combos.size() >= Enum.Cap || Budget == 0)
      return;
    if (Idx == Enum.Quad.size()) {
      enumerateLeaf(Idx);
      return;
    }
    bool NonNeg = Pool.kind(Enum.Quad[Idx]) == UnknownKind::Multiplier;
    for (int V = 0; V <= Opts.MultiplierBound; ++V) {
      enumerateValue(Idx, Rational(V));
      if (!NonNeg && V > 0)
        enumerateValue(Idx, Rational(-V));
    }
  }

  /// Fixes Quad[Idx] := \p V and recurses unless a constraint turns into
  /// a violated constant.
  void enumerateValue(size_t Idx, Rational V) {
    int Id = Enum.Quad[Idx];
    const char *Mentions = Enum.Mentions.data() + Idx * Enum.N;
    const std::vector<LiveConstraint> &Cs = Enum.Live[Idx];
    std::vector<LiveConstraint> &Next = Enum.Live[Idx + 1];
    std::vector<PolyConstraint> &Owned = Enum.Owned[Idx + 1];
    Next.clear();
    // Sized before Next takes pointers into it; slots keep their term
    // storage from value to value.
    if (Owned.size() < Cs.size())
      Owned.resize(Cs.size());
    size_t NumOwned = 0;
    auto violated = [](const PolyConstraint &PC) {
      Rational C0 = PC.P.constantValue();
      return PC.IsEq ? !C0.isZero() : C0.isNegative();
    };
    for (const LiveConstraint &LC : Cs) {
      if (!Mentions[LC.Orig]) {
        if (Idx == 0 && LC.PC->P.isConstant()) {
          if (violated(*LC.PC))
            return; // Ground violation: prune this subtree.
          continue;
        }
        Next.push_back(LC);
        continue;
      }
      PolyConstraint &Lin = Owned[NumOwned];
      LC.PC->P.substituteOne(Id, V, Lin.P);
      Lin.IsEq = LC.PC->IsEq;
      if (Lin.P.isConstant()) {
        if (violated(Lin))
          return; // Ground violation: prune this subtree.
        continue;
      }
      ++NumOwned;
      Next.push_back({LC.Orig, &Lin});
    }
    Enum.Values[Idx] = std::move(V);
    enumerateLevel(Idx + 1);
  }

  void enumerateLeaf(size_t Idx) {
    ++LeafDecisions;
    std::vector<const PolyConstraint *> &Cs = Enum.LeafCs;
    Cs.clear();
    for (const LiveConstraint &LC : Enum.Live[Idx])
      Cs.push_back(LC.PC);
    ComboFp Fp;
    if (Learner) {
      // One allocation-free hash serves both caches: the raw-param
      // canonical identity decides which combos are interchangeable
      // *choices* within the condition, and (being a refinement of the
      // renaming-invariant combo identity) is also a sound key for the
      // isolated-feasibility verdict cache.
      Fp = hashCombo(Cs, Pool);
      if (!Enum.CondSeen->insert(Fp).second) {
        // A sibling alternative (or multiplier assignment) already
        // contributes this exact linearization to the condition.
        ++RunStats.CombosDeduped;
        ++Learner->Stats.CombosDeduped;
        return;
      }
    }
    // Local LP filter (cache-backed when learning).
    if (!comboLocallyFeasible(Cs, Learner ? &Fp : nullptr))
      return;
    Combo C;
    C.Constraints.reserve(Cs.size());
    for (const PolyConstraint *PC : Cs)
      C.Constraints.push_back(*PC);
    for (size_t I = 0; I < Enum.Quad.size(); ++I)
      C.MultValues.emplace_hint(C.MultValues.end(), Enum.Quad[I],
                                Enum.Values[I]);
    Enum.Out->Combos.push_back(std::move(C));
  }

  void prepare() {
    Prepared.resize(Conditions.size());
    for (size_t I = 0; I < Conditions.size(); ++I) {
      // Encode every alternative up front: the encodings are the
      // prepared-condition cache key, and a hit still needs the pool to
      // mint the same multiplier ids the stored combos reference —
      // which the key's raw serialization guarantees it just did.
      std::vector<std::vector<PolyConstraint>> Encodings;
      Encodings.reserve(Conditions[I].Alternatives.size());
      for (const ConditionAlternative &Alt : Conditions[I].Alternatives) {
        std::vector<PolyConstraint> Encoded;
        for (const FarkasInstance &FI : Alt.Instances) {
          std::vector<int> Mults;
          farkasEncode(Pool, FI.Antecedent, FI.Target, Encoded, Mults);
        }
        Encodings.push_back(std::move(Encoded));
      }
      std::string Key;
      if (Learner) {
        Key += 'B';
        Key += std::to_string(Opts.MultiplierBound);
        for (const std::vector<PolyConstraint> &Encoded : Encodings) {
          Key += '|';
          for (const PolyConstraint &PC : Encoded)
            rawKeyConstraint(PC, Pool, Key);
        }
        if (restoreCondition(Key, Prepared[I]))
          continue;
        if (Budget == 0)
          return;
      }
      uint64_t LeavesBefore = LeafDecisions;
      std::unordered_set<ComboFp, ComboFpHash> CondSeen;
      for (const std::vector<PolyConstraint> &Encoded : Encodings)
        enumerateCombos(Encoded, Prepared[I], CondSeen);
      if (Learner && Budget != 0 && !Learner->conditionCacheFull()) {
        SynthLearner::ConditionEntry Entry;
        Entry.LeafDecisions = LeafDecisions - LeavesBefore;
        Entry.Epoch = Learner->epoch();
        Entry.Combos.reserve(Prepared[I].Combos.size());
        for (const Combo &C : Prepared[I].Combos)
          Entry.Combos.push_back({C.Constraints, C.MultValues});
        Learner->PreparedConds.emplace(std::move(Key), std::move(Entry));
      }
    }
  }

  /// Restores a condition's enumeration from the learner, re-charging
  /// the leaf decisions the original run paid so a warmed search stays
  /// under the same budget governance. \returns false (leaving \p Out
  /// untouched) on a miss, or when the remaining budget could not cover
  /// the replay — the live enumeration then trips the budget the normal
  /// way.
  bool restoreCondition(const std::string &Key, PreparedCondition &Out) {
    auto It = Learner->PreparedConds.find(Key);
    if (It == Learner->PreparedConds.end() ||
        Budget < It->second.LeafDecisions)
      return false;
    const SynthLearner::ConditionEntry &Entry = It->second;
    for (uint64_t J = 0; J < Entry.LeafDecisions; ++J) {
      if (!resourceCharge(ResourceKind::SynthCombos)) {
        Budget = 0; // Controller tripped mid-replay: end the search.
        return false;
      }
    }
    Budget -= Entry.LeafDecisions;
    if (Entry.Epoch < Learner->epoch()) {
      RunStats.LemmasReused += Entry.LeafDecisions;
      Learner->Stats.LemmasReused += Entry.LeafDecisions;
    } else {
      RunStats.CombosDeduped += Entry.LeafDecisions;
      Learner->Stats.CombosDeduped += Entry.LeafDecisions;
    }
    Out.Combos.reserve(Entry.Combos.size());
    for (const SynthLearner::StoredCombo &SC : Entry.Combos) {
      Combo C;
      C.Constraints = SC.Constraints;
      C.MultValues = SC.MultValues;
      Out.Combos.push_back(std::move(C));
    }
    return true;
  }

  /// Numbers every prepared combo densely; nogoods are sets of these ids.
  void assignComboIds() {
    int Next = 0;
    for (PreparedCondition &PC : Prepared)
      for (Combo &C : PC.Combos)
        C.Gid = Next++;
    NumCombos = Next;
    ChosenGid.assign(static_cast<size_t>(NumCombos), 0);
    DepthOfGid.assign(static_cast<size_t>(NumCombos), -1);
    NogoodsOf.assign(static_cast<size_t>(NumCombos), {});
  }

  /// Constraints shared by *every* combo of a condition are implied by the
  /// condition itself (whichever combo is chosen asserts them), so they
  /// can sit at the root of the shared tableau as cut rows: the search
  /// then conflicts on them before the condition's depth is even reached.
  /// Tagged -1 so they never enter a backjump core as a depth.
  void installRootCuts() {
    if (!Learner)
      return;
    std::set<std::string> Installed;
    for (const PreparedCondition &PC : Prepared) {
      if (PC.Combos.size() < 2)
        continue; // A single combo asserts its rows at depth anyway.
      // Count, per serialized constraint (raw ids — all combos of one
      // condition share the pool), the number of combos containing it.
      std::map<std::string, std::pair<size_t, const PolyConstraint *>> Seen;
      for (const Combo &C : PC.Combos) {
        std::set<std::string> InThisCombo;
        for (const PolyConstraint &Ct : C.Constraints) {
          std::string Key;
          std::unordered_map<int, int> Rename;
          int NextId = 0;
          // Raw-id serialization: reuse the canonical printer but seed the
          // renaming with identity so distinct unknowns stay distinct.
          for (const auto &[M, Coef] : Ct.P.terms()) {
            (void)Coef;
            if (M.A >= 0)
              Rename.emplace(M.A, M.A);
            if (M.B >= 0)
              Rename.emplace(M.B, M.B);
          }
          NextId = Pool.size();
          fingerprintConstraint(Ct, Pool, Rename, NextId, Key);
          if (!InThisCombo.insert(Key).second)
            continue;
          auto [It, Inserted] = Seen.try_emplace(Key, 0, &Ct);
          ++It->second.first;
          (void)Inserted;
        }
      }
      for (const auto &[Key, Entry] : Seen) {
        if (Entry.first != PC.Combos.size())
          continue;
        if (!Installed.insert(Key).second)
          continue; // Another condition already contributed this cut.
        CutConstraints.push_back(*Entry.second);
        ++RunStats.Cuts;
        ++Learner->Stats.Cuts;
      }
    }
    if (!CutConstraints.empty())
      lpAddConstraints(Lp, CutConstraints, /*Tag=*/-1);
  }

  /// Search outcome of one subtree: FoundSolution, or failure carrying the
  /// deepest depth implicated in any infeasibility (the backjump target —
  /// sibling choices above that depth cannot repair the conflict).
  static constexpr int FoundSolution = -2;

  /// Tests the candidate \p C at \p Depth against the recorded nogoods: a
  /// nogood containing C whose other members are all on the current
  /// branch refutes the combination without an LP. \returns the backjump
  /// tag (deepest implicated ancestor depth, -1 for a unary nogood), or
  /// INT_MIN when no nogood applies.
  int nogoodConflict(const Combo &C) {
    for (size_t NgIdx : NogoodsOf[static_cast<size_t>(C.Gid)]) {
      const std::vector<int> &Ng = Nogoods[NgIdx];
      int DeepestOther = -1;
      bool Applies = true;
      for (int Gid : Ng) {
        if (Gid == C.Gid)
          continue;
        if (!ChosenGid[static_cast<size_t>(Gid)]) {
          Applies = false;
          break;
        }
        DeepestOther = std::max(DeepestOther, DepthOfGid[Gid]);
      }
      if (Applies)
        return DeepestOther;
    }
    return InactiveNogood;
  }

  /// Records the refutation of the current branch as a nogood: the core's
  /// depth tags name the chosen combos that jointly conflicted. Any later
  /// branch assembling the same set is pruned without an LP.
  void recordNogood(const std::vector<int> &CoreTags) {
    if (!Learner || Nogoods.size() >= MaxNogoods)
      return;
    std::vector<int> Members;
    for (int Tag : CoreTags) {
      if (Tag < 0)
        continue; // Multiplier bounds and cut rows carry no choice.
      assert(Tag < static_cast<int>(Chosen.size()) && "core tag off-branch");
      Members.push_back(Chosen[static_cast<size_t>(Tag)]->Gid);
    }
    if (Members.empty())
      return;
    std::sort(Members.begin(), Members.end());
    Members.erase(std::unique(Members.begin(), Members.end()),
                  Members.end());
    size_t Idx = Nogoods.size();
    for (int Gid : Members)
      NogoodsOf[static_cast<size_t>(Gid)].push_back(Idx);
    Nogoods.push_back(std::move(Members));
  }

  /// Positions the branch-trie cursor for the root of the search: one
  /// edge from node 0 labeled with the cut rows' serialization, which
  /// seeds the renaming shared along every dfs branch. Candidate combos
  /// then extend that renaming one edge at a time, so a prefix's
  /// canonical identity — a *joint* identity, unlike the per-combo
  /// fingerprints — is built incrementally: each dfs step serializes
  /// only its own candidate, never the whole prefix.
  void enterBranchTrie() {
    if (!Learner)
      return;
    std::string Edge;
    for (const PolyConstraint &PC : CutConstraints)
      fingerprintConstraint(PC, Pool, BranchRename, BranchNextId, Edge);
    CurNode = Learner->branchChild(0, std::move(Edge));
  }

  /// Rolls the shared branch renaming back past a candidate's
  /// serialization: the ids it introduced are erased and the canonical
  /// counter rewinds (insertions are LIFO along a branch, so sequential
  /// ids stay dense). Siblings then serialize against the exact renaming
  /// state their prefix established.
  void undoBranchRename(const std::vector<int> &NewIds) {
    for (int Id : NewIds)
      BranchRename.erase(Id);
    BranchNextId -= static_cast<int>(NewIds.size());
  }

  int dfs(const std::vector<size_t> &Order, int Depth) {
    if (Budget == 0)
      return -1;
    if (static_cast<size_t>(Depth) == Order.size()) {
      if (UncheckedFrames > 0) {
        // Some branch frames were admitted on cached verdicts alone, so
        // the tableau's assignment may not satisfy them yet. One repair
        // check makes the extracted model real. Like the rebuild replay,
        // this re-establishes already-charged knowledge, so it is not
        // billed to the budget.
        Simplex::Result R = Lp.LP.check();
        if (R == Simplex::Result::Interrupted) {
          Budget = 0;
          return -1;
        }
        assert(R == Simplex::Result::Sat && "cached-feasible branch unsat");
        if (R != Simplex::Result::Sat)
          return Depth - 1; // Fail safe: treat as a conflict at the leaf.
      }
      // The shared tableau already satisfies every chosen combo's
      // constraints: extract.
      FinalAssignment.assign(Pool.size(), Rational(0));
      for (int Id : Lp.Mapped)
        FinalAssignment[static_cast<size_t>(Id)] =
            Lp.LP.modelValue(Lp.VarOf[static_cast<size_t>(Id)]);
      for (const Combo *C : Chosen)
        for (const auto &[Id, Value] : C->MultValues)
          FinalAssignment[Id] = Value;
      return FoundSolution;
    }
    const PreparedCondition &Cond = Prepared[Order[Depth]];
    int DeepestConflict = -1;
    for (const Combo &C : Cond.Combos) {
      if (Learner) {
        int NgTag = nogoodConflict(C);
        if (NgTag != InactiveNogood) {
          // A pruned node is still a processed combo: charge it like the
          // LP check it replaced (same budget, same governed resource).
          // Otherwise an unsat search tree — exponential by nature — is
          // no longer bounded by the budget once nogoods fire, and the
          // search can wander instead of reporting ResourceOut. The win
          // is each unit costing an O(members) scan instead of a simplex
          // check, not more units.
          if (!resourceCharge(ResourceKind::SynthCombos)) {
            Budget = 0;
            return -1;
          }
          --Budget;
          ++RunStats.Nogoods;
          ++Learner->Stats.Nogoods;
          if (Budget == 0)
            return -1;
          if (NgTag < Depth && NgTag >= 0)
            // Same contract as an LP conflict: choices above NgTag do not
            // participate, but a sibling of an *implicated* ancestor
            // might — bubble the backjump through DeepestConflict.
            DeepestConflict = std::max(DeepestConflict, NgTag);
          continue;
        }
      }
      maybeRebuildLp();
      // Branch trie: descend one edge — the candidate's serialization
      // under the branch-shared renaming. A node with a verdict replays
      // the joint simplex result of this exact prefix+candidate, which
      // an earlier run (an engine restart, the previous CEGAR round)
      // computed — charged like the check it stands in for, so a cached
      // replay of an exhaustive search is still budget-bounded. Combos
      // with no constraints still advance the cursor (empty edge): the
      // trie path must mirror the branch's depth structure, because the
      // stored backjump tags are depths.
      bool HaveHit = false, HitFeasible = false;
      int HitTag = -1;
      int32_t Child = -1;
      int32_t SavedNode = CurNode;
      std::vector<int> BranchNewIds;
      if (CurNode >= 0) {
        std::string Edge;
        for (const PolyConstraint &PC : C.Constraints)
          fingerprintConstraint(PC, Pool, BranchRename, BranchNextId, Edge,
                                &BranchNewIds);
        Child = Learner->branchChild(static_cast<uint32_t>(CurNode),
                                     std::move(Edge));
        if (Child >= 0) {
          const SynthLearner::BranchNode &N = Learner->BranchTrie[Child];
          if (N.Verdict >= 0) {
            HaveHit = true;
            HitFeasible = N.Verdict == 1;
            HitTag = N.BackjumpTag;
            if (!resourceCharge(ResourceKind::SynthCombos)) {
              Budget = 0;
              return -1;
            }
            --Budget;
            if (N.Epoch < Learner->epoch()) {
              ++RunStats.LemmasReused;
              ++Learner->Stats.LemmasReused;
            } else {
              ++RunStats.CombosDeduped;
              ++Learner->Stats.CombosDeduped;
            }
            if (Budget == 0)
              return -1;
          }
        }
      }
      if (HaveHit && !HitFeasible) {
        // Replay the recorded conflict's backjump without touching the
        // tableau. No nogood is recorded: the trie already prunes this
        // prefix, and the stored tag carries the same contract as a live
        // core's deepest depth.
        undoBranchRename(BranchNewIds);
        if (HitTag < Depth)
          return HitTag;
        DeepestConflict = std::max(DeepestConflict, HitTag);
        continue;
      }
      Chosen.push_back(&C);
      ChosenGid[static_cast<size_t>(C.Gid)] = true;
      DepthOfGid[C.Gid] = Depth;
      int ConflictTag = Depth;
      int Sub;
      if (C.Constraints.empty()) {
        CurNode = Child;
        Sub = dfs(Order, Depth + 1);
        CurNode = SavedNode;
      } else {
        Lp.push();
        ActiveFrames.push_back({&C.Constraints, Depth});
        bool Ok;
        if (HaveHit) {
          // Known feasible: assert the constraints for the descendants'
          // incremental checks, but skip this node's own simplex run.
          lpAddConstraints(Lp, C.Constraints, Depth);
          ++UncheckedFrames;
          Ok = true;
        } else {
          Ok = false;
          if (chargeLpCheck()) {
            lpAddConstraints(Lp, C.Constraints, Depth);
            Ok = lpFeasible(Lp, &ConflictTag);
          }
          if (Child >= 0 && Budget != 0) {
            SynthLearner::BranchNode &N = Learner->BranchTrie[Child];
            N.Verdict = Ok ? 1 : 0;
            N.BackjumpTag = ConflictTag;
            N.Epoch = Learner->epoch();
          }
        }
        if (Ok) {
          CurNode = Child;
          Sub = dfs(Order, Depth + 1);
          CurNode = SavedNode;
        } else {
          if (Budget != 0 && Learner)
            recordNogood(Lp.LP.unsatCore());
          Sub = ConflictTag;
        }
        if (HaveHit)
          --UncheckedFrames;
        ActiveFrames.pop_back();
        Lp.pop();
        ++PopsSinceRebuild;
      }
      undoBranchRename(BranchNewIds);
      ChosenGid[static_cast<size_t>(C.Gid)] = false;
      Chosen.pop_back();
      if (Sub == FoundSolution)
        return FoundSolution;
      if (Budget == 0)
        return -1;
      if (Sub < Depth)
        // This choice did not participate in the conflict: siblings
        // cannot fix it either. Propagate the backjump upward.
        return Sub;
      DeepestConflict = std::max(DeepestConflict, Sub);
    }
    // All combos conflicted at this depth; the caller's choice (or an
    // earlier one appearing in some core) must change.
    return std::min<int>(DeepestConflict, Depth - 1);
  }

  /// Rebuilds the shared tableau from the active branch's constraint
  /// frames once enough pops have accumulated. Popped scopes leave dead
  /// columns (and rows pivoted onto pre-scope variables) behind; without
  /// compaction the per-check Bland scan degrades linearly in everything
  /// the search ever tried. Called only between combos, where the scope
  /// stack matches ActiveFrames exactly.
  void maybeRebuildLp() {
    if (PopsSinceRebuild < RebuildInterval)
      return;
    PopsSinceRebuild = 0;
    Lp.reset();
    // Cut rows live below every scope; restore them first.
    if (!CutConstraints.empty())
      lpAddConstraints(Lp, CutConstraints, /*Tag=*/-1);
    for (const auto &[Cs, Tag] : ActiveFrames) {
      Lp.push();
      lpAddConstraints(Lp, *Cs, Tag);
    }
    // The active branch was feasible before the rebuild; replaying it is
    // bookkeeping, not exploration, so it is not charged to the budget.
    Simplex::Result R = Lp.LP.check();
    assert((R == Simplex::Result::Sat || R == Simplex::Result::Interrupted) &&
           "active branch became infeasible");
    (void)R;
  }

  static constexpr size_t MaxCombosPerAlternative = 128;
  static constexpr uint64_t RebuildInterval = 128;
  /// Nogood store cap: a search that conflicts this often is budget-bound
  /// anyway, and every stored nogood lengthens the per-candidate scan.
  static constexpr size_t MaxNogoods = 1 << 14;
  /// nogoodConflict sentinel for "no recorded nogood applies". Must be
  /// distinct from every legal backjump tag (-1 and up) and from
  /// FoundSolution.
  static constexpr int InactiveNogood = std::numeric_limits<int>::min();

  UnknownPool &Pool;
  const std::vector<Condition> &Conditions;
  const SynthOptions &Opts;
  std::vector<PreparedCondition> Prepared;
  LpState Lp;   ///< Shared scoped tableau for the whole search.
  LpState Leaf; ///< The enumeration's leaf filter, reset per leaf.
  std::vector<std::pair<int, Rational>> CoeffScratch; ///< lpAddConstraint's.

  /// One constraint of an enumeration depth: its index in the encoding
  /// and its current form (the encoded one, or a substitution owned by
  /// some depth at or above this one).
  struct LiveConstraint {
    size_t Orig;
    const PolyConstraint *PC;
  };
  /// enumerateCombos' working state, kept across alternatives for its
  /// capacity. Depth D's constraints are Live[D]; the substitutions made
  /// on entering depth D live in the leading slots of Owned[D].
  struct EnumState {
    std::vector<int> Quad;
    size_t N = 0; ///< Constraints in the encoding.
    std::vector<char> Mentions; ///< [L * N + I]: constraint I has Quad[L].
    std::vector<std::vector<LiveConstraint>> Live;
    std::vector<std::vector<PolyConstraint>> Owned;
    std::vector<Rational> Values; ///< Values[D]: the value of Quad[D].
    std::vector<const PolyConstraint *> LeafCs;
    PreparedCondition *Out = nullptr;
    std::unordered_set<ComboFp, ComboFpHash> *CondSeen = nullptr;
    size_t Cap = 0;
  } Enum;
  /// Constraint sets (with their depth tags) of the active branch, for
  /// tableau compaction.
  std::vector<std::pair<const std::vector<PolyConstraint> *, int>>
      ActiveFrames;
  uint64_t PopsSinceRebuild = 0;
  /// Active frames admitted on a cached Sat verdict without their own
  /// simplex run; the leaf repairs the tableau once when any remain.
  uint64_t UncheckedFrames = 0;
  /// Branch-trie cursor: the learner node of the current dfs prefix, or
  /// -1 when the trie is disabled for this subtree (no learner, or the
  /// trie hit its capacity cap mid-descent).
  int32_t CurNode = -1;
  /// The renaming shared along the current dfs branch (seeded by the cut
  /// rows, extended per candidate, rolled back per sibling) — the trie's
  /// edge labels are serializations under this map.
  std::unordered_map<int, int> BranchRename;
  int BranchNextId = 0;
  std::vector<const Combo *> Chosen;
  std::vector<Rational> FinalAssignment;
  uint64_t Budget;
  uint64_t LpChecks = 0;
  /// Leaves the multiplier enumeration decided (admitted, rejected, or
  /// deduped) — what a prepared-condition restore must re-charge.
  uint64_t LeafDecisions = 0;

  /// Learning state. Learner stays null when Opts.Learning is off — every
  /// learning code path keys off that. LocalLearner backs searches whose
  /// caller did not supply a persistent one.
  SynthLearner *Learner = nullptr;
  SynthLearner LocalLearner;
  SynthLearnStats RunStats; ///< This run's deltas (mirrored into Learner).
  int NumCombos = 0;
  std::vector<char> ChosenGid; ///< Gid -> combo is on the current branch.
  std::vector<int> DepthOfGid; ///< Depth a chosen Gid was asserted at.
  std::vector<std::vector<size_t>> NogoodsOf; ///< Gid -> indices in Nogoods.
  std::vector<std::vector<int>> Nogoods; ///< Sorted, deduped Gid sets.
  std::vector<PolyConstraint> CutConstraints; ///< Root cut rows (Tag -1).
};

} // namespace

SynthResult pathinv::solveConditions(UnknownPool &Pool,
                                     const std::vector<Condition> &Conditions,
                                     const SynthOptions &Opts) {
  Search S(Pool, Conditions, Opts);
  return S.run();
}
