//===- benchmark/speed_test.cpp - Tests of the machine-speed probe --------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The probe's arithmetic on hand-made samples, and a job run of 50 ms of
// CPU time sampled by it: the ticks arrive, their time is counted as
// overhead, and the mean sample lies among the samples. Built and run by
// ctest in the benchmark's build directory:
//
//   cmake --build .bench_build/benchmark --target pathinv_benchspeed_test
//   ctest --test-dir .bench_build/benchmark
//
//===----------------------------------------------------------------------===//

#include "speed.h"

#include <cmath>
#include <cstdio>
#include <string>

using namespace pathinv::bench;

namespace {

int Failures = 0;

void expect(bool Ok, const std::string &What) {
  std::printf("%s: %s\n", Ok ? "ok" : "FAIL", What.c_str());
  if (!Ok)
    ++Failures;
}

bool near(double A, double B) { return std::fabs(A - B) <= 1e-12 * std::fabs(B); }

volatile unsigned long Spin;

} // namespace

int main() {
  expect(near(speed::scale(2.0, speed::RefSampleS), 2.0),
         "a job at the reference speed keeps its time");
  expect(near(speed::scale(2.0, 2 * speed::RefSampleS), 1.0),
         "a job on a machine half as fast reads half its time");

  // Equal stretches at sample times 1 and 2: the mean speed is
  // (1 + 1/2) / 2 = 3/4, so the mean sample is 4/3, not the arithmetic 1.5.
  expect(near(speed::meanSample({1, 2, 1, 2}), 4.0 / 3.0),
         "harmonic mean of the samples");
  std::vector<double> Twenty(20, 1.0);
  Twenty[0] = 0.01;
  Twenty[19] = 100;
  expect(near(speed::meanSample(Twenty), 1.0),
         "the lowest and highest twentieth are left out");

  speed::begin();
  const double Start = speed::monoNow();
  while (speed::monoNow() - Start < 0.05)
    Spin = Spin + 1;
  const int Ticks = speed::S.Count - 2;
  const double Overhead = speed::overheadS();
  const double Mean = speed::end();
  expect(Ticks >= 3, "ticks arrive during 50 ms of CPU time (" +
                         std::to_string(Ticks) + ")");
  expect(Overhead > 0 && Overhead < 0.05, "their time is counted as overhead");
  double Lo = speed::S.Samples[0], Hi = Lo;
  for (int I = 0; I < speed::S.Count; ++I) {
    Lo = std::min(Lo, speed::S.Samples[I]);
    Hi = std::max(Hi, speed::S.Samples[I]);
  }
  expect(Mean >= Lo && Mean <= Hi, "the mean sample lies among the samples");
  return Failures ? 1 : 0;
}
