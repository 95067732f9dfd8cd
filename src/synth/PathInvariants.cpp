//===- synth/PathInvariants.cpp - Path-invariant generation ----------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "synth/PathInvariants.h"

#include "absint/Interval.h"
#include "core/Resource.h"
#include "program/CutSet.h"
#include "smt/SolverContext.h"
#include "synth/TemplateHeuristics.h"

using namespace pathinv;

PathInvResult pathinv::generatePathInvariants(const Program &P,
                                              smt::SolverContext &Solver,
                                              const PathInvOptions &Opts) {
  TermManager &TM = P.termManager();
  PathInvResult Result;
  std::set<LocId> Cuts = computeCutSet(P);

  for (int Level = 0; Level <= Opts.MaxTemplateLevel; ++Level) {
    ++Result.LevelsTried;
    UnknownPool Pool;
    TemplateMap Templates = proposeTemplates(P, Cuts, Pool, Level);

    GenResult Gen = generateConditions(P, Cuts, Templates, Pool, Opts.Gen);
    if (!Gen.Ok) {
      Result.FailureReason = "condition generation: " + Gen.Error;
      return Result;
    }

    SynthResult Synth = solveConditions(Pool, Gen.Conditions, Opts.Synth);
    Result.LpChecks += Synth.LpChecks;
    Result.Learn.add(Synth.Learn);
    if (!Synth.Found) {
      Result.ResourceOut |= Synth.ResourceOut;
      Result.FailureReason = Synth.ResourceOut
                                 ? "solver budget exhausted"
                                 : "no solution within template level " +
                                       std::to_string(Level);
      if (resourceExhausted())
        return Result; // Escalating cannot help a tripped controller.
      continue; // Escalate the template (the Section 5 refinement step).
    }

    InvariantMap Map;
    for (const auto &[Loc, T] : Templates) {
      const Term *Inv = instantiateTemplate(TM, T, Synth.Assignment);
      if (!Inv->isTrue())
        Map.Inv[Loc] = Inv;
    }
    Map.Inv[P.error()] = TM.mkFalse();

    if (Opts.VerifyMap) {
      InvariantCheckResult Check = checkInvariantMap(P, Map, Solver);
      if (!Check.Ok) {
        Result.FailureReason =
            "synthesized map failed verification: " + Check.FailureReason;
        continue;
      }
    }

    Result.Found = true;
    Result.Map = std::move(Map);
    Result.LevelUsed = Level;
    return Result;
  }
  return Result;
}

PathInvResult pathinv::generateIntervalInvariants(const Program &P,
                                                  smt::SolverContext &Solver,
                                                  bool Verify) {
  TermManager &TM = P.termManager();
  PathInvResult Result;
  IntervalAnalysisResult Analysis = analyzeIntervals(P);
  if (!Analysis.States[P.error()].Bottom) {
    Result.FailureReason = "interval analysis cannot exclude the error "
                           "location";
    return Result;
  }
  InvariantMap Map;
  for (LocId Loc = 0; Loc < P.numLocations(); ++Loc) {
    const Term *Inv = Analysis.stateToTerm(TM, Loc);
    if (!Inv->isTrue())
      Map.Inv[Loc] = Inv;
  }
  Map.Inv[P.error()] = TM.mkFalse();
  if (Verify) {
    InvariantCheckResult Check = checkInvariantMap(P, Map, Solver);
    if (!Check.Ok) {
      Result.FailureReason =
          "interval map failed verification: " + Check.FailureReason;
      return Result;
    }
  }
  Result.Found = true;
  Result.Map = std::move(Map);
  Result.LevelUsed = 0;
  return Result;
}
