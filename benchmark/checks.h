//===- benchmark/checks.h - The benchmark's check of an Unsafe answer -----===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// An Unsafe answer is accepted only if its witness is a real execution:
// a chain of transitions from the program's entry to its error location,
// which the interpreter replays step by step from the initial state and
// havoc values the engine recorded. Shared by the driver and
// checks_test.cpp.
//
//===----------------------------------------------------------------------===//

#ifndef PATHINV_BENCHMARK_CHECKS_H
#define PATHINV_BENCHMARK_CHECKS_H

#include "core/Engine.h"
#include "interp/Interpreter.h"
#include "program/PathFormula.h"
#include "program/Program.h"

#include <map>
#include <string>

namespace pathinv {
namespace bench {

/// \returns why \p Witness is not a chain of transitions of \p P from the
/// entry to the error location, or "" when it is.
inline std::string witnessPathError(const Program &P, const Path &Witness) {
  if (Witness.empty())
    return "empty witness";
  LocId At = P.entry();
  for (size_t K = 0; K < Witness.size(); ++K) {
    int Index = Witness[K];
    if (Index < 0 || Index >= P.numTransitions())
      return "witness step " + std::to_string(K) + " is not a transition";
    const Transition &T = P.transition(Index);
    if (T.From != At)
      return K == 0 ? "witness does not start at the entry location"
                    : "witness step " + std::to_string(K) +
                          " does not leave where step " +
                          std::to_string(K - 1) + " arrived";
    At = T.To;
  }
  if (At != P.error())
    return "witness does not end at the error location";
  return "";
}

/// Replays an Unsafe answer's witness on the interpreter from the initial
/// state and havoc values the engine's own replay recorded. \returns the
/// failure, or "" when the witness is an entry-to-error chain and its
/// replay is feasible.
inline std::string checkWitness(const Program &P, const EngineResult &R,
                                TermManager &TM) {
  if (R.Witness.empty() || R.Replay.States.size() != R.Witness.size() + 1)
    return "Unsafe without a replayable witness";
  std::string Shape = witnessPathError(P, R.Witness);
  if (!Shape.empty())
    return Shape;
  std::map<const Term *, Rational, TermIdLess> Havocs;
  for (size_t Step = 0; Step + 1 < R.Replay.States.size(); ++Step)
    for (const Term *Var : P.variables())
      if (Var->sort() == Sort::Int)
        Havocs[ssaVar(TM, Var, static_cast<unsigned>(Step + 1))] =
            R.Replay.States[Step + 1].scalar(Var);
  ReplayResult Replay =
      replayPath(P, R.Witness, R.Replay.States.front(), Havocs);
  if (!Replay.Feasible)
    return "witness replay infeasible at step " +
           std::to_string(Replay.FailedStep);
  return "";
}

} // namespace bench
} // namespace pathinv

#endif // PATHINV_BENCHMARK_CHECKS_H
