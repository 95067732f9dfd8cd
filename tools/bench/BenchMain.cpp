//===- tools/bench/BenchMain.cpp - Perf trajectory benchmark harness ------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Benchmark harness seeding the repo's perf trajectory (BENCH_*.json).
///
/// Three layers:
///  * Microbenchmarks of the term core: hash-consed construction and
///    memoized substitution. Each workload runs twice in the same process —
///    once against pathinv::TermManager (arena/interned) and once against
///    the reference-mode transcription of the pre-refactor core
///    (RefTermCore.h) — so the emitted JSON carries a genuine before/after
///    throughput ratio.
///  * A rational-pivot microbenchmark pitting the inline-limb
///    BigInt/Rational fast path (with the addMul/subMul accumulate API)
///    against the pre-refactor heap-always arithmetic (RefArith.h) on the
///    simplex row-accumulate pattern, with an in-process differential
///    checksum.
///  * A refinement-reuse workload: a family of sequential loops forcing
///    one refinement per loop, verified on the persistent-ARG engine
///    (subtree-scoped refinement). The JSON carries its node expansions,
///    refinements and reused nodes; the regression checker bounds the node
///    count against the baseline. The verdict must be safe.
///  * A `synthesis_partition` microbenchmark: whole-program constraint
///    synthesis on PARTITION (the search hotspot of the paper programs),
///    with conflict learning (nogoods, combo dedup, the cross-scope
///    verdict cache, root cuts) and with learning off, the exact
///    pre-learning backjumping search. The learned search is reported
///    twice: cold (first run on a fresh learner, an engine job's path)
///    and warm (a later run replaying the learner). The throughput unit
///    is combos processed: LP checks plus cached-verdict hits plus nogood
///    prunes, so every mode counts the same search work however it was
///    discharged. All runs must find the map and agree on the template
///    level — a miss or a level disagreement is a correctness bug, not a
///    slow one.
///  * A `pdr_frames` microbenchmark: delta-encoded clause-frame churn
///    (blocking with subsumption pruning, blocked-cube queries, clause
///    pushing, frame collection) — the PDR engine's bookkeeping inner
///    loop, with no solver on the measured path.
///  * End-to-end verification of the paper's example programs
///    (tests/TestPrograms.h) through all three engines — cegar, pdr, and
///    the portfolio — recording per-engine wall time and verdicts (which
///    must agree; the harness aborts otherwise) plus the cegar run's peak
///    term counts and cumulative SMT/SAT statistics. Each entry carries
///    `portfolio_ratio` = portfolio wall / best single-engine wall, the
///    metric the regression checker gates at 1.2. The e2e runs are
///    governed: a ResourceController with generous budgets is live, so the
///    amortized checkpoint polls are on the measured path (their overhead
///    is gated by the end-to-end wall-time regression check) and every run
///    records whether it exhausted a budget — the regression checker fails
///    on any exhaustion under these defaults.
///
/// Usage: pathinv_bench [--out FILE] [--iters N] [--smoke]
///
//===----------------------------------------------------------------------===//

#include "RefArith.h"
#include "RefTermCore.h"
#include "TestPrograms.h"
#include "core/Resource.h"
#include "core/Verifier.h"
#include "fuzz/Fuzz.h"
#include "logic/Term.h"
#include "pdr/Frames.h"
#include "synth/PathInvariants.h"
#include "logic/TermRewrite.h"
#include "smt/SolverContext.h"
#include "support/Rational.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

double elapsedMs(Clock::time_point Start, Clock::time_point End) {
  return std::chrono::duration<double, std::milli>(End - Start).count();
}

/// Adapters giving the two term cores one surface for the templated
/// workloads.
struct ArenaCore {
  static constexpr const char *Name = "arena";
  using Manager = pathinv::TermManager;
  using Term = pathinv::Term;
  using Map = pathinv::TermMap;
  static constexpr pathinv::Sort IntSort = pathinv::Sort::Int;
  static const Term *subst(Manager &TM, const Term *T, const Map &M) {
    return pathinv::substitute(TM, T, M);
  }
};

struct ReferenceCore {
  static constexpr const char *Name = "reference";
  using Manager = refcore::TermManager;
  using Term = refcore::Term;
  using Map = refcore::TermMap;
  static constexpr refcore::Sort IntSort = refcore::Sort::Int;
  static const Term *subst(Manager &TM, const Term *T, const Map &M) {
    return refcore::substitute(TM, T, M);
  }
};

/// Construction workload: builds `Rounds` batches of linear atoms and
/// boolean combinations over a fixed variable pool. Roughly one third of
/// the factory calls re-create already-interned structure, matching the
/// hit/miss mix of path-formula construction. \returns the number of
/// factory calls (the throughput unit).
template <typename Core>
uint64_t constructWorkload(typename Core::Manager &TM, int Rounds) {
  constexpr int NumVars = 16;
  std::vector<const typename Core::Term *> Vars;
  Vars.reserve(NumVars);
  for (int I = 0; I < NumVars; ++I)
    Vars.push_back(TM.mkVar("x" + std::to_string(I), Core::IntSort));

  uint64_t Ops = 0;
  const typename Core::Term *Sink = TM.mkTrue();
  for (int R = 0; R < Rounds; ++R) {
    std::vector<const typename Core::Term *> Atoms;
    for (int A = 0; A < 8; ++A) {
      // sum_j c_j * x_j + k  <=  x_m   with coefficients cycling per round.
      std::vector<const typename Core::Term *> Summands;
      for (int J = 0; J < 6; ++J) {
        int Coeff = ((R + A + J) % 7) + 1;
        Summands.push_back(
            TM.mkMul(TM.mkIntConst(Coeff), Vars[(A + J) % NumVars]));
        Ops += 2;
      }
      Summands.push_back(TM.mkIntConst(R % 11));
      const typename Core::Term *Sum = TM.mkAdd(std::move(Summands));
      Ops += 2;
      const typename Core::Term *Rhs = Vars[(R + A) % NumVars];
      const typename Core::Term *Atom =
          A % 3 == 0   ? TM.mkLe(Sum, Rhs)
          : A % 3 == 1 ? TM.mkLt(Sum, Rhs)
                       : TM.mkEq(Sum, Rhs);
      ++Ops;
      Atoms.push_back(A % 2 ? Atom : TM.mkNot(Atom));
      ++Ops;
    }
    std::vector<const typename Core::Term *> FirstHalf(Atoms.begin(),
                                                       Atoms.begin() + 4);
    std::vector<const typename Core::Term *> SecondHalf(Atoms.begin() + 4,
                                                        Atoms.end());
    Sink = TM.mkOr({TM.mkAnd(std::move(FirstHalf)),
                    TM.mkAnd(std::move(SecondHalf)), Sink});
    Ops += 3;
  }
  // Defeat dead-code elimination.
  if (Sink == nullptr)
    std::abort();
  return Ops;
}

/// Substitution workload: one shared conjunction, rewritten `Rounds` times
/// under cycling variable renamings (the SSA/priming pattern of path-formula
/// construction). \returns the number of substitute() calls.
template <typename Core>
uint64_t rewriteWorkload(typename Core::Manager &TM, int Rounds) {
  constexpr int NumVars = 12;
  std::vector<const typename Core::Term *> Vars;
  for (int I = 0; I < NumVars; ++I)
    Vars.push_back(TM.mkVar("v" + std::to_string(I), Core::IntSort));

  // A wide conjunction with heavy subterm sharing.
  std::vector<const typename Core::Term *> Atoms;
  for (int I = 0; I < NumVars; ++I) {
    const typename Core::Term *Sum = TM.mkAdd(
        TM.mkMul(TM.mkIntConst(I + 1), Vars[I]), Vars[(I + 1) % NumVars]);
    Atoms.push_back(TM.mkLe(Sum, Vars[(I + 2) % NumVars]));
  }
  const typename Core::Term *Formula = TM.mkAnd(std::move(Atoms));

  uint64_t Ops = 0;
  const typename Core::Term *Sink = Formula;
  for (int R = 0; R < Rounds; ++R) {
    typename Core::Map Subst;
    for (int I = 0; I < NumVars; ++I)
      Subst[Vars[I]] = Vars[(I + 1 + R % (NumVars - 1)) % NumVars];
    Sink = Core::subst(TM, Formula, Subst);
    ++Ops;
  }
  if (Sink == nullptr)
    std::abort();
  return Ops;
}

struct MicroResult {
  uint64_t Ops = 0;
  double WallMs = 0;
  size_t PeakTerms = 0;

  double opsPerSec() const {
    return WallMs > 0 ? 1000.0 * static_cast<double>(Ops) / WallMs : 0;
  }
};

/// Runs \p Fn(Manager&, Rounds) \p Iters times on fresh managers and keeps
/// the fastest run (each run re-interns from scratch).
template <typename Core, typename Fn>
MicroResult runMicro(const Fn &Workload, int Rounds, int Iters) {
  MicroResult Best;
  for (int I = 0; I < Iters; ++I) {
    typename Core::Manager TM;
    auto Start = Clock::now();
    uint64_t Ops = Workload(TM, Rounds);
    double Ms = elapsedMs(Start, Clock::now());
    if (I == 0 || Ms < Best.WallMs) {
      Best.Ops = Ops;
      Best.WallMs = Ms;
      Best.PeakTerms = TM.numTerms();
    }
  }
  return Best;
}

/// Rational-pivot workload: repeated full Gauss-Jordan eliminations of
/// dense rational matrices — the row-accumulate pattern of the simplex
/// inner loop (`row[j] -= factor * pivot[j]`). Matrix entries are small
/// fractions whose intermediates occasionally cross the int64 boundary,
/// matching the value profile of real pivoting. The workload is templated
/// over the arithmetic so the same operation sequence runs once on
/// pathinv::Rational (inline fast path + subMul accumulate API) and once
/// on the refarith transcription of the pre-refactor heap-always types;
/// both must produce identical checksums (in-process differential check).
/// \returns the number of accumulate operations (the throughput unit).
template <typename Rat, typename AccumOps>
uint64_t rationalPivotWorkload(int Size, int Rounds, std::string &Checksum) {
  uint64_t Ops = 0;
  // FNV-1a over the decimal renderings: an exact running rational sum
  // would accumulate unrelated denominators across rounds and grow
  // without bound, which is not what a tableau ever does.
  uint64_t Hash = 14695981039346656037ull;
  std::vector<std::vector<Rat>> M(Size, std::vector<Rat>(Size));
  for (int Round = 0; Round < Rounds; ++Round) {
    for (int I = 0; I < Size; ++I)
      for (int J = 0; J < Size; ++J)
        M[I][J] = Rat::fraction(((Round * 31 + I * 7 + J * 3) % 19) - 9,
                                ((Round + I + J) % 4) + 1);
    for (int K = 0; K < Size; ++K) {
      if (M[K][K].isZero())
        M[K][K] = Rat::fraction((Round + K) % 5 + 1, 1);
      Rat Inv = M[K][K].inverse();
      for (int I = 0; I < Size; ++I) {
        if (I == K)
          continue;
        Rat Factor = M[I][K] * Inv;
        if (Factor.isZero())
          continue;
        for (int J = 0; J < Size; ++J) {
          AccumOps::subMul(M[I][J], Factor, M[K][J]);
          ++Ops;
        }
      }
    }
    for (int I = 0; I < Size; ++I)
      for (int J = 0; J < Size; ++J)
        for (char C : M[I][J].toString())
          Hash = (Hash ^ static_cast<uint8_t>(C)) * 1099511628211ull;
  }
  Checksum = std::to_string(Hash);
  return Ops;
}

/// Accumulate-op adapters: the fast side uses the new in-place API, the
/// reference side the pre-refactor temporary-heavy expression chains.
struct FastAccumOps {
  static void subMul(pathinv::Rational &Acc, const pathinv::Rational &A,
                     const pathinv::Rational &B) {
    Acc.subMul(A, B);
  }
  static void addMul(pathinv::Rational &Acc, const pathinv::Rational &A,
                     const pathinv::Rational &B) {
    Acc.addMul(A, B);
  }
};
struct RefAccumOps {
  static void subMul(refarith::Rational &Acc, const refarith::Rational &A,
                     const refarith::Rational &B) {
    Acc = Acc - A * B;
  }
  static void addMul(refarith::Rational &Acc, const refarith::Rational &A,
                     const refarith::Rational &B) {
    Acc = Acc + A * B;
  }
};

/// Runs the pivot workload \p Iters times per implementation, keeps the
/// fastest run each, and aborts on a checksum mismatch between the two.
void runRationalPivot(int Size, int Rounds, int Iters, MicroResult &Fast,
                      MicroResult &Ref) {
  std::string FastSum, RefSum;
  for (int I = 0; I < Iters; ++I) {
    auto Start = Clock::now();
    uint64_t Ops = rationalPivotWorkload<pathinv::Rational, FastAccumOps>(
        Size, Rounds, FastSum);
    double Ms = elapsedMs(Start, Clock::now());
    if (I == 0 || Ms < Fast.WallMs) {
      Fast.Ops = Ops;
      Fast.WallMs = Ms;
    }
  }
  for (int I = 0; I < Iters; ++I) {
    auto Start = Clock::now();
    uint64_t Ops = rationalPivotWorkload<refarith::Rational, RefAccumOps>(
        Size, Rounds, RefSum);
    double Ms = elapsedMs(Start, Clock::now());
    if (I == 0 || Ms < Ref.WallMs) {
      Ref.Ops = Ops;
      Ref.WallMs = Ms;
    }
  }
  if (FastSum != RefSum || Fast.Ops != Ref.Ops) {
    std::cerr << "[bench] rational-pivot differential mismatch: fast "
              << FastSum << " (" << Fast.Ops << " ops) vs reference "
              << RefSum << " (" << Ref.Ops << " ops)\n";
    std::abort();
  }
}

/// Incremental-query workload: the abstract-reach/CEGAR pattern of many
/// entailment checks against one shared prefix. A chain of N SSA-style
/// conjuncts (x0 = 0, x_{k+1} = x_k + 1) is the prefix; the queries ask
/// x_N <= bound for a sweep of bounds (a mix of entailed and refutable).
/// One-shot mode hands prefix AND query to SolverContext::checkFormula as
/// one whole formula for every bound, on a fresh context per round.
/// Context mode asserts the prefix once into a SolverContext and flips
/// one assumption literal per query. Both modes must agree on every
/// verdict; the harness aborts otherwise.
struct IncResult {
  uint64_t Queries = 0;
  double OneShotMs = 0;
  double ContextMs = 0;

  double speedup() const { return ContextMs > 0 ? OneShotMs / ContextMs : 0; }
};

IncResult incrementalWorkload(int ChainLen, int QueriesPerRound, int Rounds) {
  IncResult R;
  pathinv::TermManager TM;

  // Build the prefix chain and the query atoms.
  std::vector<const pathinv::Term *> Conjuncts;
  const pathinv::Term *Prev =
      TM.mkVar("x0", pathinv::Sort::Int);
  Conjuncts.push_back(TM.mkEq(Prev, TM.mkIntConst(0)));
  for (int K = 1; K <= ChainLen; ++K) {
    const pathinv::Term *Cur =
        TM.mkVar("x" + std::to_string(K), pathinv::Sort::Int);
    Conjuncts.push_back(TM.mkEq(Cur, TM.mkAdd(Prev, TM.mkIntConst(1))));
    Prev = Cur;
  }
  const pathinv::Term *Prefix = TM.mkAnd(Conjuncts);
  // x_N = ChainLen under the prefix; bounds straddle that value.
  std::vector<const pathinv::Term *> QueryAtoms;
  for (int Q = 0; Q < QueriesPerRound; ++Q) {
    int Bound = ChainLen - QueriesPerRound / 2 + Q;
    QueryAtoms.push_back(TM.mkLe(Prev, TM.mkIntConst(Bound)));
  }

  std::vector<bool> OneShotVerdicts;
  {
    auto Start = Clock::now();
    for (int Round = 0; Round < Rounds; ++Round) {
      // Fresh context per round: every round pays the full encoding.
      pathinv::smt::SolverContext OneShot(TM);
      for (const pathinv::Term *Atom : QueryAtoms) {
        bool Entailed =
            OneShot.checkFormula(TM.mkAnd(Prefix, TM.mkNot(Atom))).isUnsat();
        if (Round == 0)
          OneShotVerdicts.push_back(Entailed);
      }
    }
    R.OneShotMs = elapsedMs(Start, Clock::now());
  }

  {
    auto Start = Clock::now();
    size_t Idx = 0;
    for (int Round = 0; Round < Rounds; ++Round) {
      pathinv::smt::SolverContext Ctx(TM);
      Ctx.assertTerm(Prefix);
      for (const pathinv::Term *Atom : QueryAtoms) {
        bool Entailed = Ctx.checkSat({TM.mkNot(Atom)}).isUnsat();
        if (Entailed != OneShotVerdicts[Idx % QueryAtoms.size()]) {
          std::cerr << "[bench] incremental/one-shot verdict mismatch\n";
          std::abort();
        }
        ++Idx;
      }
    }
    R.ContextMs = elapsedMs(Start, Clock::now());
  }
  R.Queries = static_cast<uint64_t>(Rounds) * QueryAtoms.size();
  return R;
}

/// Integer-split workload: an entailment chain whose every query needs
/// integrality and/or disequality splits. The prefix pins x0 = 2*s with
/// s >= 0 and steps by 2 (so the chain's last variable is even and
/// otherwise free); each query brackets twice the last variable within one
/// unit of a target and optionally adds the matching disequality, so the
/// rational relaxation is feasible at half-integers and the verdict is
/// only reachable by branching. The same query stream runs on two
/// contexts in the same process: one with the scoped branch-and-bound
/// (default budgets), one with it disabled (node budget 0) — the exact
/// pre-branch-and-bound behavior, where every split abandons the cached
/// tableau for a from-scratch solve. Verdicts must agree query-by-query
/// (differential check, abort on mismatch), the incremental context must
/// report zero scratch fallbacks, and the reference context must take
/// the scratch path at least once per split query.
struct SplitResult {
  uint64_t Queries = 0;
  double IncMs = 0;
  double ScratchMs = 0;
  uint64_t BnbNodes = 0;
  uint64_t IncFallbacks = 0;
  uint64_t RefFallbacks = 0;

  double speedup() const { return IncMs > 0 ? ScratchMs / IncMs : 0; }
};

SplitResult integerSplitWorkload(int ChainLen, int QueriesPerRound,
                                 int Rounds) {
  SplitResult R;
  pathinv::TermManager TM;

  // Prefix: x0 = 2*s, s >= 0, x_{k+1} = x_k + 2.
  const pathinv::Term *S = TM.mkVar("s", pathinv::Sort::Int);
  std::vector<const pathinv::Term *> Conjuncts;
  Conjuncts.push_back(
      TM.mkLe(TM.mkIntConst(0), S));
  const pathinv::Term *Prev = TM.mkVar("x0", pathinv::Sort::Int);
  Conjuncts.push_back(
      TM.mkEq(Prev, TM.mkMul(TM.mkIntConst(2), S)));
  for (int K = 1; K <= ChainLen; ++K) {
    const pathinv::Term *Cur =
        TM.mkVar("x" + std::to_string(K), pathinv::Sort::Int);
    Conjuncts.push_back(TM.mkEq(Cur, TM.mkAdd(Prev, TM.mkIntConst(2))));
    Prev = Cur;
  }
  const pathinv::Term *Prefix = TM.mkAnd(Conjuncts);
  const pathinv::Term *Last = Prev; // == 2*s + 2*ChainLen, even, free above.
  const pathinv::Term *Two = TM.mkIntConst(2);

  // Query q: bracket 2*Last in [2T-1, 2T+1]. Odd targets are unsat by
  // parity (integrality branches), even targets are sat unless the
  // matching disequality is added (disequality + integrality branches).
  std::vector<std::vector<const pathinv::Term *>> Queries;
  std::vector<bool> Expected;
  for (int Q = 0; Q < QueriesPerRound; ++Q) {
    int64_t Offset = 2 * (Q / 3 + 1);
    int64_t Target = 2 * ChainLen + Offset + (Q % 3 == 0 ? 1 : 0);
    std::vector<const pathinv::Term *> Assumps;
    Assumps.push_back(
        TM.mkLe(TM.mkIntConst(2 * Target - 1), TM.mkMul(Two, Last)));
    Assumps.push_back(
        TM.mkLe(TM.mkMul(Two, Last), TM.mkIntConst(2 * Target + 1)));
    if (Q % 3 == 2)
      Assumps.push_back(TM.mkNot(TM.mkEq(Last, TM.mkIntConst(Target))));
    Queries.push_back(std::move(Assumps));
    Expected.push_back(Q % 3 == 1); // Even target, no disequality.
  }

  auto runMode = [&](bool Bnb, double &Ms, uint64_t &Fallbacks,
                     uint64_t &Nodes) {
    pathinv::smt::SolverContext Ctx(TM);
    if (!Bnb)
      Ctx.setTheoryBnbBudgets(0, 0);
    Ctx.assertTerm(Prefix);
    auto Start = Clock::now();
    for (int Round = 0; Round < Rounds; ++Round) {
      for (size_t Q = 0; Q < Queries.size(); ++Q) {
        bool IsSat = Ctx.checkSat(Queries[Q]).isSat();
        if (IsSat != Expected[Q]) {
          std::cerr << "[bench] integer-split verdict mismatch (bnb="
                    << Bnb << ", query " << Q << ")\n";
          std::abort();
        }
      }
    }
    Ms = elapsedMs(Start, Clock::now());
    pathinv::smt::ContextStats Stats = Ctx.stats();
    Fallbacks = Stats.ScratchFallbacks;
    Nodes = Stats.BnbNodes;
  };

  uint64_t RefNodes = 0;
  runMode(/*Bnb=*/true, R.IncMs, R.IncFallbacks, R.BnbNodes);
  runMode(/*Bnb=*/false, R.ScratchMs, R.RefFallbacks, RefNodes);
  R.Queries = static_cast<uint64_t>(Rounds) * Queries.size();
  if (R.IncFallbacks != 0 || RefNodes != 0 || R.RefFallbacks == 0) {
    std::cerr << "[bench] integer-split mode mix-up: incremental fallbacks "
              << R.IncFallbacks << ", reference bnb nodes " << RefNodes
              << ", reference fallbacks " << R.RefFallbacks << "\n";
    std::abort();
  }
  return R;
}

struct E2EResult {
  std::string Program;
  std::string Verdict;
  double WallMs = 0;
  size_t PeakTerms = 0;
  uint64_t SmtQueries = 0;
  uint64_t TheoryChecks = 0;
  uint64_t SatConflicts = 0;
  uint64_t SatDecisions = 0;
  uint64_t SatPropagations = 0;
  uint64_t Refinements = 0;
  uint64_t AssumptionQueries = 0;
  uint64_t PathConjunctsReused = 0;
  uint64_t NodesExpanded = 0;
  uint64_t NodesReused = 0;
  std::string UnknownReason; // Empty unless a resource budget tripped.
  uint64_t GovernedPivots = 0;
  uint64_t GovernedSynthCombos = 0;
};

const char *verdictName(const pathinv::EngineResult &R) {
  switch (R.Verdict) {
  case pathinv::EngineResult::Verdict::Safe:
    return "safe";
  case pathinv::EngineResult::Verdict::Unsafe:
    return "unsafe";
  case pathinv::EngineResult::Verdict::Unknown:
    return "unknown";
  }
  return "unknown";
}

/// Refinement-reuse workload: verify testprogs::sequentialLoops(Loops) —
/// one refinement per loop, >= 2 per loop in practice — on the persistent
/// ARG under the interval refiner, which keeps refinement cheap so the
/// measurement is dominated by reachability. The program is safe; any
/// other verdict aborts the harness.
struct ReuseResult {
  int Loops = 0;
  std::string Verdict;
  double Ms = 0;
  pathinv::EngineStats Stats;
};

ReuseResult refinementReuseWorkload(int Loops) {
  ReuseResult R;
  R.Loops = Loops;
  pathinv::EngineOptions Opts;
  Opts.Refiner = pathinv::RefinerKind::PathInvariantIntervals;
  pathinv::Verifier V(Opts);
  auto Start = Clock::now();
  auto Res = V.verifySource(pathinv::testprogs::sequentialLoops(Loops));
  R.Ms = elapsedMs(Start, Clock::now());
  R.Verdict = Res ? verdictName(Res.get()) : "error: " + Res.error().render();
  if (R.Verdict != "safe") {
    std::cerr << "[bench] refinement-reuse verdict " << R.Verdict
              << ", expected safe\n";
    std::abort();
  }
  R.Stats = Res.get().Stats;
  return R;
}

/// Whole-program synthesis on PARTITION: the constraint-based search the
/// CEGAR escalation ladder and the portfolio probe both end on for the
/// hard Safe programs. Measured directly so the hotspot has its own
/// trajectory line instead of hiding inside e2e walls. The throughput
/// unit is combos processed — LP checks plus cached-verdict hits plus
/// nogood prunes — so the learned runs and the learning-off reference
/// count identical search work however each discharged it.
///
/// Three runs are reported apart. The cold run is the first search on a
/// fresh learner: the path an engine job takes. The warm run is the best
/// later search on that learner, a replay of the verdict cache. The
/// reference is the learning-off search, best of the iterations. All
/// must find the map and agree on the escalation level; a miss or a
/// disagreement aborts the harness (differential check, same policy as
/// rational_pivot's checksum).
struct SynthRun {
  MicroResult Time;
  uint64_t LpChecks = 0;
  uint64_t Nogoods = 0;
  uint64_t Deduped = 0;
  uint64_t Reused = 0;
  uint64_t Cuts = 0;
};

struct SynthBenchResult {
  SynthRun Cold;      ///< First run on a fresh learner.
  SynthRun Warm;      ///< Best later run on the same learner.
  SynthRun Reference; ///< Learning off: the pre-learning search.
  int LevelUsed = -1;
  int LevelsTried = 0;

  /// Warm replay throughput over the reference's: printed, not gated (a
  /// change to the shared search substrate moves the reference too).
  double speedup() const {
    return Reference.Time.opsPerSec() > 0
               ? Warm.Time.opsPerSec() / Reference.Time.opsPerSec()
               : 0;
  }
};

SynthBenchResult synthesisPartitionWorkload(int Iters) {
  SynthBenchResult R;
  auto runOnce = [](const pathinv::PathInvOptions &Opts, SynthRun &Run) {
    pathinv::Verifier V;
    pathinv::Expected<pathinv::Program> P =
        V.loadSource(pathinv::testprogs::Partition);
    if (!P) {
      std::cerr << "[bench] synthesis-partition: cannot load program: "
                << P.error().render() << "\n";
      std::abort();
    }
    auto Start = Clock::now();
    pathinv::PathInvResult Res =
        pathinv::generatePathInvariants(P.get(), V.solver(), Opts);
    Run.Time.WallMs = elapsedMs(Start, Clock::now());
    if (!Res.Found) {
      std::cerr << "[bench] synthesis-partition: search failed ("
                << Res.FailureReason << ")\n";
      std::abort();
    }
    Run.Time.Ops = Res.LpChecks + Res.Learn.CombosDeduped +
                   Res.Learn.LemmasReused + Res.Learn.Nogoods;
    Run.LpChecks = Res.LpChecks;
    Run.Nogoods = Res.Learn.Nogoods;
    Run.Deduped = Res.Learn.CombosDeduped;
    Run.Reused = Res.Learn.LemmasReused;
    Run.Cuts = Res.Learn.Cuts;
    return Res;
  };

  // Learned runs: one learner spans the iterations, the way the engines
  // hold one per job. The first run is cold; at least one more runs even
  // in smoke mode, so a warm replay is always measured.
  pathinv::SynthLearner Learner;
  const int LearnedIters = std::max(Iters, 1) + 1;
  for (int I = 0; I < LearnedIters; ++I) {
    pathinv::PathInvOptions Opts;
    Opts.Synth.Learner = &Learner;
    SynthRun Run;
    pathinv::PathInvResult Res = runOnce(Opts, Run);
    if (I == 0) {
      R.Cold = Run;
      R.LevelUsed = Res.LevelUsed;
      R.LevelsTried = Res.LevelsTried;
    } else if (I == 1 || Run.Time.WallMs < R.Warm.Time.WallMs) {
      R.Warm = Run;
    }
    if (Res.LevelUsed != R.LevelUsed) {
      std::cerr << "[bench] synthesis-partition: learned run " << I
                << " used level " << Res.LevelUsed << ", the cold run "
                << R.LevelUsed << "\n";
      std::abort();
    }
  }

  int RefLevel = -1;
  for (int I = 0; I < Iters; ++I) {
    pathinv::PathInvOptions Opts;
    Opts.Synth.Learning = false;
    SynthRun Run;
    pathinv::PathInvResult Res = runOnce(Opts, Run);
    if (I == 0 || Run.Time.WallMs < R.Reference.Time.WallMs) {
      R.Reference = Run;
      RefLevel = Res.LevelUsed;
    }
  }
  if (RefLevel != R.LevelUsed) {
    std::cerr << "[bench] synthesis-partition differential mismatch: "
              << "learned level " << R.LevelUsed << " vs reference level "
              << RefLevel << "\n";
    std::abort();
  }
  return R;
}

/// Delta-encoded frame churn: the PDR engine's bookkeeping inner loop
/// (addBlockedCube with subsumption pruning, isBlocked queries, clause
/// pushing, frame collection) on synthetic cubes over a literal pool,
/// with no solver on the measured path. Cube shapes repeat with both
/// subsumed and subsuming variants so the pruning paths run hot, the way
/// they do once generalization starts dropping literals. \returns the
/// operation count (the throughput unit); \p ClausesOut accumulates the
/// surviving clause total as an in-process sanity check.
uint64_t pdrFramesWorkload(int Rounds, uint64_t &ClausesOut) {
  pathinv::TermManager TM;
  constexpr int NumVars = 8;
  std::vector<const pathinv::Term *> Vars;
  for (int I = 0; I < NumVars; ++I)
    Vars.push_back(TM.mkVar("x" + std::to_string(I), pathinv::Sort::Int));
  // Literal pool: bounds in both directions over every variable.
  std::vector<const pathinv::Term *> Pool;
  for (int I = 0; I < NumVars; ++I)
    for (int B = 0; B < 4; ++B) {
      Pool.push_back(TM.mkLe(TM.mkIntConst(B), Vars[I]));
      Pool.push_back(TM.mkLe(Vars[I], TM.mkIntConst(8 + B)));
    }

  constexpr int NumLocs = 24;
  pathinv::Program P(TM, Vars);
  std::vector<pathinv::LocId> Locs;
  for (int I = 0; I < NumLocs; ++I)
    Locs.push_back(P.addLocation("l" + std::to_string(I)));
  P.setEntry(Locs.front());
  P.setError(Locs.back());

  constexpr int LevelsPerRound = 10;
  constexpr int CubesPerRound = 320;
  uint64_t Ops = 0;
  ClausesOut = 0;
  for (int R = 0; R < Rounds; ++R) {
    pathinv::pdr::Frames F(P);
    for (int L = 0; L < LevelsPerRound; ++L)
      F.extend();
    size_t Frontier = F.frontier();
    for (int C = 0; C < CubesPerRound; ++C) {
      // Entry (location 0) never takes clauses; cycle over the rest.
      pathinv::LocId Loc = Locs[1 + (C * 5 + R) % (NumLocs - 1)];
      size_t Level = 1 + static_cast<size_t>(C * 7 + R) % (Frontier - 1);
      pathinv::pdr::Cube Cube = {Pool[(C * 3 + R) % Pool.size()],
                                 Pool[(C * 11 + 1) % Pool.size()],
                                 Pool[(C * 17 + 2) % Pool.size()]};
      F.addBlockedCube(Level, Loc, Cube);
      ++Ops;
      // Every fourth cube re-lands as a generalized (subsuming) variant
      // one level higher, retiring the longer one it subsumes.
      if (C % 4 == 0) {
        Cube.pop_back();
        F.addBlockedCube(std::min(Level + 1, Frontier), Loc,
                         std::move(Cube));
        ++Ops;
      }
      pathinv::pdr::Cube Probe = {Pool[(C * 3 + R) % Pool.size()]};
      F.isBlocked(Level, Loc, Probe);
      ++Ops;
    }
    // Push sweep: move every surviving clause below the frontier up one
    // level, the way the propagation phase does after a frame settles.
    for (size_t Level = 1; Level < Frontier; ++Level)
      for (pathinv::LocId Loc : Locs)
        while (!F.cubesAt(Level, Loc).empty()) {
          F.pushCube(Level, Loc, 0);
          ++Ops;
        }
    std::vector<const pathinv::Term *> Clauses;
    for (pathinv::LocId Loc : Locs) {
      Clauses.clear();
      F.collectClauses(TM, 1, Loc, Clauses);
      ++Ops;
    }
    ClausesOut += F.totalClauses();
  }
  if (ClausesOut == 0) {
    std::cerr << "[bench] pdr-frames: churn left no clauses behind\n";
    std::abort();
  }
  return Ops;
}

/// Fuzz-oracle throughput: a fixed seed block through the full
/// differential pipeline — generate (with constructed ground truth), run
/// all three engines under the oracle's deterministic budgets, replay
/// every Unsafe witness, re-validate every Safe certificate. The
/// throughput unit is adjudicated programs; any adjudication bug aborts
/// the harness (the bench never records a number for a broken oracle).
struct FuzzOracleResult {
  int Programs = 0;
  double WallMs = 0;
  int SafeVerdicts = 0;
  int UnsafeVerdicts = 0;
  int UnknownVerdicts = 0;

  double opsPerSec() const {
    return WallMs > 0 ? 1000.0 * static_cast<double>(Programs) / WallMs : 0;
  }
};

FuzzOracleResult fuzzOracleWorkload(int Seeds) {
  FuzzOracleResult R;
  pathinv::fuzz::SweepOptions Opts;
  Opts.FirstSeed = 1;
  Opts.Count = Seeds;
  // Tight wall backstop (step budgets stay at the oracle defaults):
  // deadline-bound programs contribute a constant, machine-independent
  // 5 s per exhausted engine run instead of swamping the throughput
  // number with waiting.
  Opts.Oracle.Budget.TimeoutSeconds = 5;
  auto Start = Clock::now();
  pathinv::fuzz::SweepResult Sweep = pathinv::fuzz::runSweep(Opts);
  R.WallMs = elapsedMs(Start, Clock::now());
  if (!Sweep.ok()) {
    std::cerr << "[bench] fuzz-oracle: " << Sweep.BugReports.size()
              << " adjudication bugs in the fixed seed block\n";
    for (const pathinv::fuzz::OracleReport &Rep : Sweep.BugReports)
      for (const std::string &Bug : Rep.Bugs)
        std::cerr << "[bench]   seed " << Rep.Seed << ": " << Bug << "\n";
    std::abort();
  }
  R.Programs = Sweep.Programs;
  R.SafeVerdicts = Sweep.SafeVerdicts;
  R.UnsafeVerdicts = Sweep.UnsafeVerdicts;
  R.UnknownVerdicts = Sweep.UnknownVerdicts;
  return R;
}

/// Generous budgets for the governed e2e runs: far above what any of the
/// paper programs needs (partition, the heaviest, uses ~45k pivots and
/// ~20k synth combos), but finite — so every charge site performs the
/// real budget comparison and the bench measures the checkpoints' true
/// overhead. An exhaustion under these limits is a regression.
pathinv::ResourceLimits generousLimits() {
  pathinv::ResourceLimits L;
  L.TimeoutSeconds = 600;
  L.MemoryBytes = 1ull << 30;
  L.SatConflicts = 50'000'000;
  L.Pivots = 200'000'000;
  L.BnbNodes = 10'000'000;
  L.SynthCombos = 50'000'000;
  L.ArgExpansions = 1'000'000;
  L.Refinements = 10'000;
  return L;
}

E2EResult runProgramOnce(const char *Name, const char *Source) {
  E2EResult R;
  R.Program = Name;
  pathinv::Verifier V;
  V.options().Limits = generousLimits();
  auto Start = Clock::now();
  pathinv::Expected<pathinv::EngineResult> Res = V.verifySource(Source);
  R.WallMs = elapsedMs(Start, Clock::now());
  if (!Res) {
    R.Verdict = "error: " + Res.error().render();
  } else {
    R.Verdict = verdictName(Res.get());
    R.Refinements = Res.get().Stats.Refinements;
    R.AssumptionQueries = Res.get().Stats.AssumptionQueries;
    R.PathConjunctsReused = Res.get().Stats.PathConjunctsReused;
    R.NodesExpanded = Res.get().Stats.NodesExpanded;
    R.NodesReused = Res.get().Stats.NodesReused;
    R.UnknownReason = Res.get().UnknownReason;
    R.GovernedPivots = Res.get().Stats.Resources.Pivots;
    R.GovernedSynthCombos = Res.get().Stats.Resources.SynthCombos;
  }
  R.PeakTerms = V.termManager().numTerms();
  const pathinv::smt::ContextStats C = V.solver().stats();
  R.SmtQueries = C.FormulaChecks;
  R.TheoryChecks = C.TheoryChecks;
  R.SatConflicts = C.SatConflicts;
  R.SatDecisions = C.SatDecisions;
  R.SatPropagations = C.SatPropagations;
  return R;
}

/// Best-of-\p Iters end-to-end run (fresh verifier per iteration), same
/// keep-the-fastest policy as the microbenchmarks: the verification work
/// is deterministic, so the minimum wall time is the least-noisy sample
/// and the counters are identical across iterations.
E2EResult runProgram(const char *Name, const char *Source, int Iters) {
  E2EResult Best;
  for (int I = 0; I < Iters; ++I) {
    E2EResult R = runProgramOnce(Name, Source);
    if (I == 0 || R.WallMs < Best.WallMs)
      Best = std::move(R);
  }
  return Best;
}

/// One governed run of an alternate engine (pdr or the portfolio) on the
/// same program, for the three-way e2e comparison. Only the fields that
/// are meaningful across engines are kept; the cegar run carries the
/// detailed solver counters.
struct EngineRun {
  std::string Verdict;
  double WallMs = 0;
  std::string UnknownReason;
  uint64_t PdrFrames = 0;
  uint64_t PdrObligations = 0;
  uint64_t PdrClausesLearned = 0;
  uint64_t PdrClausesPushed = 0;
};

EngineRun runEngineOnce(pathinv::EngineKind Kind, const char *Source) {
  EngineRun R;
  pathinv::EngineOptions Opts;
  Opts.Engine = Kind;
  Opts.Limits = generousLimits();
  pathinv::Verifier V(Opts);
  auto Start = Clock::now();
  pathinv::Expected<pathinv::EngineResult> Res = V.verifySource(Source);
  R.WallMs = elapsedMs(Start, Clock::now());
  if (!Res) {
    R.Verdict = "error: " + Res.error().render();
    return R;
  }
  R.Verdict = verdictName(Res.get());
  R.UnknownReason = Res.get().UnknownReason;
  R.PdrFrames = Res.get().Stats.PdrFrames;
  R.PdrObligations = Res.get().Stats.PdrObligations;
  R.PdrClausesLearned = Res.get().Stats.PdrClausesLearned;
  R.PdrClausesPushed = Res.get().Stats.PdrClausesPushed;
  return R;
}

EngineRun runEngine(pathinv::EngineKind Kind, const char *Source,
                    int Iters) {
  EngineRun Best;
  for (int I = 0; I < Iters; ++I) {
    EngineRun R = runEngineOnce(Kind, Source);
    if (I == 0 || R.WallMs < Best.WallMs)
      Best = std::move(R);
  }
  return Best;
}

/// Full three-engine entry for one program. `PortfolioRatio` is the
/// acceptance metric: portfolio wall over the better single engine's
/// wall, best-of-iters on both sides, gated at 1.2 by the regression
/// checker.
struct E2EEntry {
  E2EResult Cegar;
  EngineRun Pdr;
  EngineRun Portfolio;

  double bestSingleMs() const { return std::min(Cegar.WallMs, Pdr.WallMs); }
  double portfolioRatio() const {
    return bestSingleMs() > 0 ? Portfolio.WallMs / bestSingleMs() : 0;
  }
};

void emitMicro(std::ostream &Out, const char *Key, const char *NewMode,
               const MicroResult &New, const MicroResult &Ref) {
  auto Entry = [&](const char *Mode, const MicroResult &M) {
    Out << "      \"" << Mode << "\": {\"ops\": " << M.Ops
        << ", \"wall_ms\": " << M.WallMs
        << ", \"ops_per_sec\": " << M.opsPerSec()
        << ", \"peak_terms\": " << M.PeakTerms << "}";
  };
  Out << "    \"" << Key << "\": {\n";
  Entry(NewMode, New);
  Out << ",\n";
  Entry("reference", Ref);
  Out << ",\n      \"speedup_vs_reference\": "
      << (New.opsPerSec() > 0 && Ref.opsPerSec() > 0
              ? New.opsPerSec() / Ref.opsPerSec()
              : 0)
      << "\n    }";
}

} // namespace

int main(int Argc, char **Argv) {
  std::string OutPath = "BENCH_9.json";
  int Iters = 5;
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--out") == 0 && I + 1 < Argc) {
      OutPath = Argv[++I];
    } else if (std::strcmp(Argv[I], "--iters") == 0 && I + 1 < Argc) {
      Iters = std::atoi(Argv[++I]);
    } else if (std::strcmp(Argv[I], "--smoke") == 0) {
      Smoke = true;
    } else {
      std::cerr << "usage: pathinv_bench [--out FILE] [--iters N] [--smoke]\n";
      return 2;
    }
  }
  if (Smoke)
    Iters = 1;
  Iters = std::max(Iters, 1);
  const int ConstructRounds = Smoke ? 200 : 4000;
  const int RewriteRounds = Smoke ? 100 : 2000;
  const int PivotSize = 10;
  const int PivotRounds = Smoke ? 25 : 400;
  const int IncChainLen = Smoke ? 40 : 120;
  const int IncQueries = Smoke ? 16 : 40;
  const int IncRounds = Smoke ? 5 : 25;
  const int SplitChainLen = Smoke ? 40 : 100;
  const int SplitQueries = Smoke ? 12 : 30;
  const int SplitRounds = Smoke ? 5 : 20;
  const int ReuseLoops = Smoke ? 4 : 10;
  // Whole-program synthesis on PARTITION is seconds per run; best-of-2
  // keeps the full bench bounded while still shedding warm-up noise.
  const int SynthIters = Smoke ? 1 : std::min(Iters, 2);
  const int FrameRounds = Smoke ? 20 : 200;
  // Single pass (no best-of-iters): the sweep is deterministic and wide
  // enough (every program x three engines x replay/validation) that one
  // run is a stable throughput sample.
  const int FuzzSeeds = Smoke ? 10 : 40;

  // Fail on an unwritable output path now, not after minutes of benching.
  std::ofstream Out(OutPath);
  if (!Out) {
    std::cerr << "cannot write " << OutPath << "\n";
    return 1;
  }

  std::cerr << "[bench] microbench: construct (" << ConstructRounds
            << " rounds x " << Iters << " iters)\n";
  MicroResult ConstructArena = runMicro<ArenaCore>(
      [](ArenaCore::Manager &TM, int Rounds) {
        return constructWorkload<ArenaCore>(TM, Rounds);
      },
      ConstructRounds, Iters);
  MicroResult ConstructRef = runMicro<ReferenceCore>(
      [](ReferenceCore::Manager &TM, int Rounds) {
        return constructWorkload<ReferenceCore>(TM, Rounds);
      },
      ConstructRounds, Iters);

  std::cerr << "[bench] microbench: rewrite (" << RewriteRounds
            << " rounds x " << Iters << " iters)\n";
  MicroResult RewriteArena = runMicro<ArenaCore>(
      [](ArenaCore::Manager &TM, int Rounds) {
        return rewriteWorkload<ArenaCore>(TM, Rounds);
      },
      RewriteRounds, Iters);
  MicroResult RewriteRef = runMicro<ReferenceCore>(
      [](ReferenceCore::Manager &TM, int Rounds) {
        return rewriteWorkload<ReferenceCore>(TM, Rounds);
      },
      RewriteRounds, Iters);

  std::cerr << "[bench] microbench: rational-pivot (" << PivotSize << "x"
            << PivotSize << " x " << PivotRounds << " rounds x " << Iters
            << " iters)\n";
  MicroResult PivotFast, PivotRef;
  runRationalPivot(PivotSize, PivotRounds, Iters, PivotFast, PivotRef);
  std::cerr << "[bench]   fast " << PivotFast.WallMs << " ms, reference "
            << PivotRef.WallMs << " ms (speedup "
            << (PivotRef.WallMs > 0 ? PivotFast.opsPerSec() /
                                          PivotRef.opsPerSec()
                                    : 0)
            << "x)\n";

  std::cerr << "[bench] incremental entailment (chain " << IncChainLen
            << ", " << IncQueries << " queries x " << IncRounds
            << " rounds)\n";
  IncResult Inc = incrementalWorkload(IncChainLen, IncQueries, IncRounds);
  std::cerr << "[bench]   one-shot " << Inc.OneShotMs << " ms, context "
            << Inc.ContextMs << " ms (speedup " << Inc.speedup() << "x)\n";

  std::cerr << "[bench] integer split (chain " << SplitChainLen << ", "
            << SplitQueries << " queries x " << SplitRounds << " rounds)\n";
  SplitResult Split =
      integerSplitWorkload(SplitChainLen, SplitQueries, SplitRounds);
  std::cerr << "[bench]   scoped b&b " << Split.IncMs << " ms ("
            << Split.BnbNodes << " nodes, " << Split.IncFallbacks
            << " fallbacks), scratch " << Split.ScratchMs << " ms ("
            << Split.RefFallbacks << " fallbacks) — speedup "
            << Split.speedup() << "x\n";

  std::cerr << "[bench] synthesis-partition (" << SynthIters
            << " iters, learned vs learning-off reference)\n";
  SynthBenchResult Synth = synthesisPartitionWorkload(SynthIters);
  auto describe = [](const char *Name, const SynthRun &Run) {
    std::cerr << "[bench]   " << Name << " " << Run.Time.Ops
              << " combos in " << Run.Time.WallMs << " ms ("
              << Run.Time.opsPerSec() << " /s; " << Run.LpChecks
              << " LP checks, " << Run.Nogoods << " nogoods, "
              << Run.Deduped << " deduped, " << Run.Reused << " reused)\n";
  };
  describe("cold", Synth.Cold);
  describe("warm", Synth.Warm);
  describe("reference", Synth.Reference);
  std::cerr << "[bench]   warm/reference " << Synth.speedup()
            << "x (not gated), template level " << Synth.LevelUsed << "\n";

  std::cerr << "[bench] pdr-frames (" << FrameRounds << " rounds x "
            << Iters << " iters)\n";
  MicroResult Frames;
  uint64_t FrameClauses = 0;
  for (int I = 0; I < Iters; ++I) {
    uint64_t Clauses = 0;
    auto Start = Clock::now();
    uint64_t Ops = pdrFramesWorkload(FrameRounds, Clauses);
    double Ms = elapsedMs(Start, Clock::now());
    if (I == 0 || Ms < Frames.WallMs) {
      Frames.Ops = Ops;
      Frames.WallMs = Ms;
      FrameClauses = Clauses;
    }
  }
  std::cerr << "[bench]   " << Frames.Ops << " frame ops in "
            << Frames.WallMs << " ms (" << Frames.opsPerSec() << " /s)\n";

  std::cerr << "[bench] fuzz-oracle (" << FuzzSeeds
            << " seeds x 3 engines, witness-exact adjudication)\n";
  FuzzOracleResult Fuzz = fuzzOracleWorkload(FuzzSeeds);
  std::cerr << "[bench]   " << Fuzz.Programs << " programs in "
            << Fuzz.WallMs << " ms (" << Fuzz.opsPerSec() << " /s; "
            << Fuzz.SafeVerdicts << " safe certified, "
            << Fuzz.UnsafeVerdicts << " unsafe replayed, "
            << Fuzz.UnknownVerdicts << " unknown)\n";

  std::cerr << "[bench] refinement reuse (" << ReuseLoops
            << " sequential loops)\n";
  ReuseResult Reuse = refinementReuseWorkload(ReuseLoops);
  std::cerr << "[bench]   arg " << Reuse.Ms << " ms / "
            << Reuse.Stats.NodesExpanded << " nodes, "
            << Reuse.Stats.Refinements << " refinements, "
            << Reuse.Stats.NodesReused << " reused\n";

  struct {
    const char *Name;
    const char *Source;
  } Programs[] = {
      {"forward", pathinv::testprogs::Forward},
      {"init_check", pathinv::testprogs::InitCheck},
      {"partition", pathinv::testprogs::Partition},
      {"init_check_buggy", pathinv::testprogs::InitCheckBuggy},
      {"scalar_bug", pathinv::testprogs::ScalarBug},
      {"straight_safe", pathinv::testprogs::StraightSafe},
  };
  std::vector<E2EEntry> E2E;
  double E2ETotalMs = 0, PdrTotalMs = 0, PortfolioTotalMs = 0;
  for (const auto &P : Programs) {
    std::cerr << "[bench] end-to-end: " << P.Name << "\n";
    E2EEntry Entry;
    Entry.Cegar = runProgram(P.Name, P.Source, Iters);
    Entry.Pdr = runEngine(pathinv::EngineKind::Pdr, P.Source, Iters);
    Entry.Portfolio =
        runEngine(pathinv::EngineKind::Portfolio, P.Source, Iters);
    if (Entry.Cegar.Verdict != Entry.Pdr.Verdict ||
        Entry.Cegar.Verdict != Entry.Portfolio.Verdict) {
      std::cerr << "[bench] engine verdict mismatch on " << P.Name
                << ": cegar " << Entry.Cegar.Verdict << ", pdr "
                << Entry.Pdr.Verdict << ", portfolio "
                << Entry.Portfolio.Verdict << "\n";
      std::abort();
    }
    E2ETotalMs += Entry.Cegar.WallMs;
    PdrTotalMs += Entry.Pdr.WallMs;
    PortfolioTotalMs += Entry.Portfolio.WallMs;
    std::cerr << "[bench]   " << Entry.Cegar.Verdict << ": cegar "
              << Entry.Cegar.WallMs << " ms, pdr " << Entry.Pdr.WallMs
              << " ms, portfolio " << Entry.Portfolio.WallMs
              << " ms (ratio " << Entry.portfolioRatio() << "x)\n";
    for (const std::string &Reason :
         {Entry.Cegar.UnknownReason, Entry.Pdr.UnknownReason,
          Entry.Portfolio.UnknownReason})
      if (!Reason.empty())
        std::cerr << "[bench]   WARNING: exhausted resource budget ("
                  << Reason << ") under generous limits\n";
    E2E.push_back(std::move(Entry));
  }

  std::ostringstream Json;
  Json << "{\n";
  Json << "  \"schema\": \"pathinv-bench-v11\",\n";
  Json << "  \"config\": {\"iters\": " << Iters
       << ", \"smoke\": " << (Smoke ? "true" : "false")
       << ", \"construct_rounds\": " << ConstructRounds
       << ", \"rewrite_rounds\": " << RewriteRounds
       << ", \"pivot_size\": " << PivotSize
       << ", \"pivot_rounds\": " << PivotRounds
       << ", \"inc_chain_len\": " << IncChainLen
       << ", \"inc_queries\": " << IncQueries
       << ", \"inc_rounds\": " << IncRounds
       << ", \"split_chain_len\": " << SplitChainLen
       << ", \"split_queries\": " << SplitQueries
       << ", \"split_rounds\": " << SplitRounds
       << ", \"reuse_loops\": " << ReuseLoops
       << ", \"synth_iters\": " << SynthIters
       << ", \"frame_rounds\": " << FrameRounds
       << ", \"fuzz_seeds\": " << FuzzSeeds
       << ", \"e2e_governed\": true, \"e2e_engines\": 3},\n";
  Json << "  \"microbench\": {\n";
  emitMicro(Json, "construct", "arena", ConstructArena, ConstructRef);
  Json << ",\n";
  emitMicro(Json, "rewrite", "arena", RewriteArena, RewriteRef);
  Json << ",\n";
  emitMicro(Json, "rational_pivot", "fast", PivotFast, PivotRef);
  Json << ",\n";
  {
    // Same differential-checksum style as rational_pivot: both modes run
    // the identical query stream in-process and must agree (the workload
    // aborts otherwise). "reference" is the scratch-fallback path (node
    // budget 0 — the pre-branch-and-bound behavior).
    auto SplitOps = [&](double Ms) {
      return Ms > 0 ? 1000.0 * static_cast<double>(Split.Queries) / Ms : 0;
    };
    Json << "    \"integer_split\": {\n"
         << "      \"incremental\": {\"ops\": " << Split.Queries
         << ", \"wall_ms\": " << Split.IncMs
         << ", \"ops_per_sec\": " << SplitOps(Split.IncMs) << "},\n"
         << "      \"reference\": {\"ops\": " << Split.Queries
         << ", \"wall_ms\": " << Split.ScratchMs
         << ", \"ops_per_sec\": " << SplitOps(Split.ScratchMs) << "},\n"
         << "      \"speedup_vs_reference\": " << Split.speedup() << ",\n"
         << "      \"bnb_nodes\": " << Split.BnbNodes << ",\n"
         << "      \"scratch_fallbacks\": " << Split.IncFallbacks << ",\n"
         << "      \"reference_scratch_fallbacks\": " << Split.RefFallbacks
         << "\n    }";
  }
  Json << ",\n";
  // Conflict-learning differential: "cold" is the first learned search
  // on a fresh learner (an engine job's path), "warm" the best replay on
  // the learner it filled, "reference" the learning-off search. Each mode
  // carries its work counts; check_bench_regression.py gates on those
  // whenever the file has this entry, and speedup_vs_reference (warm over
  // reference) is printed but no longer gated.
  auto synthMode = [&Json](const char *Name, const SynthRun &Run) {
    Json << "      \"" << Name << "\": {\"ops\": " << Run.Time.Ops
         << ", \"wall_ms\": " << Run.Time.WallMs
         << ", \"ops_per_sec\": " << Run.Time.opsPerSec()
         << ", \"lp_checks\": " << Run.LpChecks
         << ", \"synth_nogoods\": " << Run.Nogoods
         << ", \"synth_combos_deduped\": " << Run.Deduped
         << ", \"synth_lemmas_reused\": " << Run.Reused
         << ", \"synth_cuts\": " << Run.Cuts << "},\n";
  };
  Json << "    \"synthesis_partition\": {\n";
  synthMode("cold", Synth.Cold);
  synthMode("warm", Synth.Warm);
  synthMode("reference", Synth.Reference);
  Json << "      \"speedup_vs_reference\": " << Synth.speedup() << ",\n"
       << "      \"template_level_used\": " << Synth.LevelUsed << ",\n"
       << "      \"template_levels_tried\": " << Synth.LevelsTried
       << "\n    },\n";
  Json << "    \"pdr_frames\": {\n"
       << "      \"frames\": {\"ops\": " << Frames.Ops
       << ", \"wall_ms\": " << Frames.WallMs
       << ", \"ops_per_sec\": " << Frames.opsPerSec() << "},\n"
       << "      \"surviving_clauses\": " << FrameClauses << "\n    },\n";
  // Differential-oracle throughput (adjudicated programs/s): generate,
  // verify under three engines, replay every witness, validate every
  // certificate. Zero tolerated bugs — the workload aborts otherwise, so
  // a recorded number always describes a sound oracle.
  Json << "    \"fuzz_oracle\": {\n"
       << "      \"oracle\": {\"ops\": " << Fuzz.Programs
       << ", \"wall_ms\": " << Fuzz.WallMs
       << ", \"ops_per_sec\": " << Fuzz.opsPerSec() << "},\n"
       << "      \"safe_certified\": " << Fuzz.SafeVerdicts << ",\n"
       << "      \"unsafe_replayed\": " << Fuzz.UnsafeVerdicts << ",\n"
       << "      \"unknown\": " << Fuzz.UnknownVerdicts << "\n    }";
  Json << "\n  },\n";
  Json << "  \"incremental\": {\"queries\": " << Inc.Queries
       << ", \"one_shot_wall_ms\": " << Inc.OneShotMs
       << ", \"context_wall_ms\": " << Inc.ContextMs
       << ", \"speedup_vs_one_shot\": " << Inc.speedup() << "},\n";
  Json << "  \"refinement_reuse\": {\"loops\": " << Reuse.Loops
       << ",\n    \"arg\": {\"verdict\": \"" << Reuse.Verdict
       << "\", \"wall_ms\": " << Reuse.Ms
       << ", \"nodes_expanded\": " << Reuse.Stats.NodesExpanded
       << ", \"refinements\": " << Reuse.Stats.Refinements
       << ", \"nodes_reused\": " << Reuse.Stats.NodesReused
       << ", \"nodes_pruned\": " << Reuse.Stats.NodesPruned
       << ", \"nodes_covered\": " << Reuse.Stats.NodesCovered << "}},\n";
  Json << "  \"end_to_end\": [\n";
  for (size_t I = 0; I < E2E.size(); ++I) {
    const E2EResult &R = E2E[I].Cegar;
    const EngineRun &Pdr = E2E[I].Pdr;
    const EngineRun &Pf = E2E[I].Portfolio;
    // Top-level fields are the cegar (default engine) run, keeping every
    // v6 counter comparable; the alternate engines nest under "pdr" and
    // "portfolio".
    Json << "    {\"program\": \"" << R.Program << "\", \"verdict\": \""
         << R.Verdict << "\", \"wall_ms\": " << R.WallMs
         << ", \"peak_terms\": " << R.PeakTerms
         << ", \"smt_queries\": " << R.SmtQueries
         << ", \"theory_checks\": " << R.TheoryChecks
         << ", \"sat_conflicts\": " << R.SatConflicts
         << ", \"sat_decisions\": " << R.SatDecisions
         << ", \"sat_propagations\": " << R.SatPropagations
         << ", \"refinements\": " << R.Refinements
         << ", \"assumption_queries\": " << R.AssumptionQueries
         << ", \"path_conjuncts_reused\": " << R.PathConjunctsReused
         << ", \"nodes_expanded\": " << R.NodesExpanded
         << ", \"nodes_reused\": " << R.NodesReused
         << ", \"unknown_reason\": \"" << R.UnknownReason << "\""
         << ", \"governed_pivots\": " << R.GovernedPivots
         << ", \"governed_synth_combos\": " << R.GovernedSynthCombos
         << ",\n     \"pdr\": {\"verdict\": \"" << Pdr.Verdict
         << "\", \"wall_ms\": " << Pdr.WallMs
         << ", \"frames\": " << Pdr.PdrFrames
         << ", \"obligations\": " << Pdr.PdrObligations
         << ", \"clauses_learned\": " << Pdr.PdrClausesLearned
         << ", \"clauses_pushed\": " << Pdr.PdrClausesPushed
         << ", \"unknown_reason\": \"" << Pdr.UnknownReason << "\"}"
         << ",\n     \"portfolio\": {\"verdict\": \"" << Pf.Verdict
         << "\", \"wall_ms\": " << Pf.WallMs
         << ", \"unknown_reason\": \"" << Pf.UnknownReason << "\"}"
         << ", \"portfolio_ratio\": " << E2E[I].portfolioRatio() << "}"
         << (I + 1 < E2E.size() ? "," : "") << "\n";
  }
  Json << "  ],\n";
  // Kept as the cegar sum for continuity with the v6 trajectory line; the
  // per-engine totals sit alongside.
  Json << "  \"end_to_end_total_wall_ms\": " << E2ETotalMs << ",\n";
  Json << "  \"end_to_end_engine_totals\": {\"cegar\": " << E2ETotalMs
       << ", \"pdr\": " << PdrTotalMs
       << ", \"portfolio\": " << PortfolioTotalMs << "}\n";
  Json << "}\n";

  Out << Json.str();
  std::cerr << "[bench] wrote " << OutPath << "\n";
  std::cout << Json.str();
  return 0;
}
