//===- benchmark/speed.h - Machine-speed probe on the job's own thread ----===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The shared host the benchmark runs on changes speed from one second to
// the next and from one core to another, by a third or more, while the
// program's work stays the same. This probe measures that speed where and
// when a job runs: a fixed kernel of the benchmark's own (a hash table of
// 256 KiB, cleared before every sample, then 1500 lookups and inserts by
// linear probing), timed on the job's thread, before the job, every
// TickUs of the job's CPU time from a SIGPROF handler, and after it. The
// samples interrupt the job rather than run beside it, so the job's
// memory traffic does not compete with them, and their time is taken out
// of the job's. A job's CPU time (cpuNow()) is reported at the reference speed:
// multiplied by RefSampleS over the job run's mean sample (end()).
//
// The kernel's code is the benchmark's, not the program's, so a change to
// the program moves the job's time and not the probe's.
//
//===----------------------------------------------------------------------===//

#ifndef PATHINV_BENCHMARK_SPEED_H
#define PATHINV_BENCHMARK_SPEED_H

#include <sys/time.h>
#include <signal.h>
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

namespace pathinv {
namespace bench {
namespace speed {

/// The kernel's usual time on the reference host: a job's time is
/// reported as if every sample had taken this long.
constexpr double RefSampleS = 5.3e-6;
/// CPU time between two samples during a job.
constexpr long TickUs = 5000;
/// Samples kept per job run; later ticks only add to the overhead.
constexpr int MaxSamples = 1 << 16;

constexpr int TableBits = 15;
constexpr uint64_t TableMask = (uint64_t(1) << TableBits) - 1;
alignas(64) inline uint64_t Table[uint64_t(1) << TableBits];
inline volatile uint64_t Sink;

inline double clockNow(clockid_t Clock) {
  timespec T;
  clock_gettime(Clock, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

inline double monoNow() { return clockNow(CLOCK_MONOTONIC); }

/// The calling thread's CPU time, which jobs and set-up are timed by. They
/// are single-threaded and do no I/O, so this is their wall time less the
/// time the host takes the core away, which the probe cannot see: it
/// samples only while the job runs. (The process clock would do as well,
/// but while ITIMER_PROF is armed it moves only at scheduler ticks.)
inline double cpuNow() { return clockNow(CLOCK_THREAD_CPUTIME_ID); }

/// One sample: clears the table (untimed; this also brings it into the
/// core's cache), then times the probing loop. Async-signal-safe.
inline double kernel() {
  std::memset(Table, 0, sizeof(Table));
  const double Start = monoNow();
  uint64_t X = 0x777, Acc = 0;
  for (int I = 0; I < 1500; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t Key = X >> 40;
    uint64_t H = (X >> 33) & TableMask;
    while (Table[H] && Table[H] != Key)
      H = (H + 1) & TableMask;
    if (Table[H])
      ++Acc;
    else if (I & 1)
      Table[H] = Key;
    if (Acc & 8)
      Table[(X >> 17) & TableMask] = 0;
  }
  Sink = Sink + Acc;
  return monoNow() - Start;
}

/// Samples of one job run, and the time the probe took out of it.
struct State {
  double Samples[MaxSamples];
  volatile sig_atomic_t Count = 0;
  /// CPU time spent inside the SIGPROF handler, whole samples included.
  volatile double OverheadS = 0;
};
inline State S;

inline void record(double Sample) {
  if (S.Count < MaxSamples) {
    S.Samples[S.Count] = Sample;
    S.Count = S.Count + 1;
  }
}

inline void onTick(int) {
  const double Enter = cpuNow();
  record(kernel());
  S.OverheadS = S.OverheadS + (cpuNow() - Enter);
}

/// Starts a job run's sampling: a warm-up sample (the first touch of the
/// table after fork copies its pages), two samples, then one every TickUs
/// of CPU time.
inline void begin() {
  S.Count = 0;
  S.OverheadS = 0;
  kernel();
  record(kernel());
  record(kernel());
  struct sigaction Sa;
  std::memset(&Sa, 0, sizeof(Sa));
  Sa.sa_handler = onTick;
  Sa.sa_flags = SA_RESTART;
  sigemptyset(&Sa.sa_mask);
  sigaction(SIGPROF, &Sa, nullptr);
  itimerval Every{{0, TickUs}, {0, TickUs}};
  setitimer(ITIMER_PROF, &Every, nullptr);
}

/// Probe time taken out of the job run so far.
inline double overheadS() { return S.OverheadS; }

/// The samples' mean speed, as a sample time: the harmonic mean, with the
/// lowest and the highest twentieth left out. Ticks come at equal CPU
/// time, so this weighs the speed of each stretch of a job by its length.
inline double meanSample(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  const size_t Cut = V.size() / 20;
  double Inv = 0;
  for (size_t I = Cut; I < V.size() - Cut; ++I)
    Inv += 1.0 / V[I];
  return static_cast<double>(V.size() - 2 * Cut) / Inv;
}

/// Stops the ticks and takes two samples more. \returns the job run's
/// meanSample().
inline double end() {
  itimerval Off;
  std::memset(&Off, 0, sizeof(Off));
  setitimer(ITIMER_PROF, &Off, nullptr);
  record(kernel());
  record(kernel());
  return meanSample(std::vector<double>(S.Samples, S.Samples + S.Count));
}

/// Samples around work done outside a job process (the set-up): two
/// before, two after. Sets \p ElapsedS to the work's CPU time. \returns
/// the mean of the middle two samples, for scale().
template <typename Fn> double around(Fn &&Work, double &ElapsedS) {
  double V[4];
  V[0] = kernel();
  V[1] = kernel();
  const double Start = cpuNow();
  Work();
  ElapsedS = cpuNow() - Start;
  V[2] = kernel();
  V[3] = kernel();
  std::sort(V, V + 4);
  return (V[1] + V[2]) / 2;
}

/// \p Seconds measured while the probe's mean sample was \p SampleS, at
/// the reference speed.
inline double scale(double Seconds, double SampleS) {
  return Seconds * RefSampleS / SampleS;
}

} // namespace speed
} // namespace bench
} // namespace pathinv

#endif // PATHINV_BENCHMARK_SPEED_H
