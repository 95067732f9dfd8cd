//===- benchmark/checks_test.cpp - Tests of the benchmark's witness check -===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// An engine's witness for scalar_bug passes the benchmark's check; the same
// witness with its head cut off (the last step alone, from the state
// before it), with a step that does not continue from the previous one,
// or with its last step dropped does not. Built and run by ctest in the
// benchmark's build directory:
//
//   cmake --build .bench_build/benchmark --target pathinv_benchcheck_test
//   ctest --test-dir .bench_build/benchmark
//
//===----------------------------------------------------------------------===//

#include "checks.h"

#include "TestPrograms.h"

#include "core/Verifier.h"

#include <cstdio>
#include <string>

using namespace pathinv;

namespace {

int Failures = 0;

void expect(bool Ok, const std::string &What) {
  std::printf("%s: %s\n", Ok ? "ok" : "FAIL", What.c_str());
  if (!Ok)
    ++Failures;
}

bool contains(const std::string &S, const char *Part) {
  return S.find(Part) != std::string::npos;
}

} // namespace

int main() {
  EngineOptions Opts;
  Opts.Engine = EngineKind::Cegar;
  Verifier V(Opts);
  Expected<Program> Loaded = V.loadSource(testprogs::ScalarBug);
  if (!Loaded) {
    std::printf("FAIL: scalar_bug does not load\n");
    return 1;
  }
  const Program &P = Loaded.get();
  const EngineResult R = V.verifyProgram(P);
  if (R.Verdict != EngineResult::Verdict::Unsafe || R.Witness.size() < 2) {
    std::printf("FAIL: expected an Unsafe answer with a witness of two or "
                "more steps\n");
    return 1;
  }
  const size_t N = R.Witness.size();

  expect(bench::checkWitness(P, R, V.termManager()).empty(),
         "the engine's own witness passes");

  // The last step alone, replayed from the state the engine reached just
  // before it: it arrives at the error location and its replay is
  // feasible, but it is not an execution from the entry.
  EngineResult Tail = R;
  Tail.Witness = {R.Witness.back()};
  Tail.Replay.States = {R.Replay.States[N - 1], R.Replay.States[N]};
  expect(contains(bench::checkWitness(P, Tail, V.termManager()),
                  "does not start at the entry"),
         "a witness that does not leave the entry fails");

  // A step that does not leave the location the step before it reached.
  EngineResult Broken = R;
  const LocId Reached = P.transition(R.Witness[0]).To;
  int Stray = -1;
  for (int T = 0; T < P.numTransitions() && Stray < 0; ++T)
    if (P.transition(T).From != Reached)
      Stray = T;
  Broken.Witness[1] = Stray;
  expect(Stray >= 0 && contains(bench::checkWitness(P, Broken, V.termManager()),
                                "does not leave where step 0 arrived"),
         "a witness whose steps do not chain fails");

  // Stopping one step short of the error location.
  EngineResult Short = R;
  Short.Witness.pop_back();
  Short.Replay.States.pop_back();
  expect(contains(bench::checkWitness(P, Short, V.termManager()),
                  "does not end at the error location"),
         "a witness that stops short of the error location fails");

  std::printf("%d failure(s)\n", Failures);
  return Failures ? 1 : 0;
}
