//===- benchmark/driver.cpp - Workload driver for the benchmark -------------===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs one benchmark workload in-process through the libraries' public
// functions and writes a raw JSON report: every job's verdict, the outcome
// of the benchmark's own check of it, its timings and work counters, the
// set-up samples, the process's peak RSS and (traced runs) the spans. The
// statistics are computed by run.py from that report.
//
//   pathinv_benchdrv --workload paper|fuzz-stream --seed N --seconds S
//                    --trace 0|1 --out FILE
//
// Every verdict is checked from outside the engine: the verdict against
// the job's known answer, a Safe's invariant map with checkInvariantMap
// against a freshly lowered program in a fresh verifier stack, and an
// Unsafe's witness as an entry-to-error chain replayed on the interpreter
// (checks.h). A failed check is recorded on the job; run.py fails the run.
//
// Every time it reports (jobs and set-up) is CPU time at the reference
// machine speed: the time measured, scaled by the speed probe of speed.h,
// which samples a fixed kernel on the job's thread while the job runs.
//
//===----------------------------------------------------------------------===//

#include "checks.h"
#include "speed.h"

#include "TestPrograms.h"

#include "core/Verifier.h"
#include "fuzz/Fuzz.h"
#include "serve/Json.h"
#include "synth/InvariantMap.h"
#include "synth/Learn.h"
#include "synth/PathInvariants.h"

#include <sys/personality.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

using namespace pathinv;
using serve::Json;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point T0 = Clock::now();

double now() {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

//===-- Spans ---------------------------------------------------------------//

/// Spans recorded around the public calls into each layer. Kept in memory
/// and written with the report; recording is a no-op when tracing is off.
/// Only the benchmark's own thread records spans.
struct Tracer {
  struct Span {
    std::string Name;
    int Job = -1;
    int Parent = -1;
    double Start = 0, End = 0;
  };
  bool On = false;
  std::vector<Span> Spans;
  std::vector<int> Open;

  int begin(const std::string &Name, int Job) {
    if (!On)
      return -1;
    int Parent = Open.empty() ? -1 : Open.back();
    Spans.push_back({Name, Job, Parent, now(), 0});
    Open.push_back(static_cast<int>(Spans.size()) - 1);
    return Open.back();
  }
  void end(int Id) {
    if (Id < 0)
      return;
    Spans[Id].End = now();
    Open.pop_back();
  }
};

Tracer Trace;

struct SpanScope {
  int Id;
  SpanScope(const char *Name, int Job) : Id(Trace.begin(Name, Job)) {}
  ~SpanScope() { Trace.end(Id); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
};

//===-- Jobs ----------------------------------------------------------------//

struct Job {
  std::string Name;    ///< Unique within the run.
  std::string Program; ///< Paper program name, or the fuzz family.
  std::string Source;
  EngineKind Engine = EngineKind::Portfolio;
  bool ExpectSafe = true;
  ResourceLimits Limits;
  /// Its time feeds jobs_per_s and the percentiles.
  bool Stream = true;
  /// Runs it gets at least, however long it takes.
  int MinReps = 1;
};

struct JobRecord {
  char Verdict = '?';
  std::string UnknownReason;
  std::string Winner;  ///< Portfolio: "cegar", "pdr" or "probe".
  std::string Failure; ///< Non-empty when a check failed.
  bool Checked = false;
  double StartS = 0;   ///< Job start, on the run's clock.
  double EndS = 0;     ///< Checked, on the run's clock (last repetition).
  int Reps = 1;        ///< Repetitions the times are the median of.
  /// Job start until the answer is in hand, at the reference speed.
  double LatencyS = 0;
  /// Job start until the answer has been checked, at the reference speed.
  double TtvS = 0;
  double RawTtvS = 0; ///< TtvS as measured, before scaling.
  double ProbeS = 0;  ///< The speed probe's mean sample (speed.h).
  std::map<std::string, uint64_t> Counters;
  uint64_t TrackedPeakBytes = 0;
};

ResourceLimits backstopLimits() {
  ResourceLimits L;
  L.TimeoutSeconds = 150;
  return L;
}

/// Checks a Safe answer's invariant map: parsed against a freshly lowered
/// program in a fresh verifier stack, then checkInvariantMap. \returns the
/// failure, or "" when the map checks.
std::string checkCertificate(const Job &J, const std::string &Certificate,
                             int JobIdx) {
  if (Certificate.empty())
    return "Safe without an invariant map";
  Verifier Fresh;
  Expected<Program> P = Fresh.loadSource(J.Source);
  if (!P)
    return "source failed to load for the check: " + P.error().render();
  Expected<InvariantMap> Map = parseCertificate(P.get(), Certificate);
  if (!Map)
    return "certificate failed to parse: " + Map.error().render();
  InvariantCheckResult Check;
  {
    SpanScope S("synth.cert_check", JobIdx);
    Check = checkInvariantMap(P.get(), Map.get(), Fresh.solver());
  }
  return Check.Ok ? "" : "invariant map failed the check: " +
                             Check.FailureReason + "\n" + Certificate;
}

std::string winnerOf(const std::string &Note) {
  if (Note.find("shared synthesis probe won") != std::string::npos)
    return "probe";
  if (Note.find("portfolio: cegar won") != std::string::npos)
    return "cegar";
  if (Note.find("portfolio: pdr won") != std::string::npos)
    return "pdr";
  return "";
}

/// Every work counter the public API returns for a job: the engine's
/// EngineResult::Stats (including the resources it spent) and the
/// verifier's solver-layer stats, named by layer.
void recordCounters(const EngineResult &R, const Verifier &V,
                    JobRecord &Rec) {
  const EngineStats &S = R.Stats;
  const ResourceSpent &Sp = S.Resources;
  const Verifier::SolverLayerStats F = V.solverStats();
  Rec.Counters = {
      {"cegar.refinements", S.Refinements},
      {"cegar.nodes_expanded", S.NodesExpanded},
      {"cegar.entailment_queries", S.EntailmentQueries},
      {"cegar.assumption_queries", S.AssumptionQueries},
      {"cegar.model_filtered", S.ModelFilteredQueries},
      {"cegar.nodes_reused", S.NodesReused},
      {"cegar.nodes_pruned", S.NodesPruned},
      {"cegar.cover_checks", S.CoverChecks},
      {"cegar.nodes_covered", S.NodesCovered},
      {"cegar.cover_rotations", S.CoverRotations},
      {"cegar.forced_covers", S.ForcedCovers},
      {"cegar.relabels_batched", S.RelabelsBatched},
      {"cegar.path_conjuncts_reused", S.PathConjunctsReused},
      {"cegar.path_conjuncts_asserted", S.PathConjunctsAsserted},
      {"cegar.fallbacks", S.Fallbacks},
      {"cegar.final_predicates", S.FinalPredicates},
      {"cegar.escalation_retries", S.EscalationRetries},
      {"smt.reach_context_checks", S.ReachContextChecks},
      {"smt.reach_learned_purges", S.ReachLearnedPurges},
      {"smt.reach_clauses_purged", S.ReachClausesPurged},
      {"smt.reach_redundant_clauses", S.ReachRedundantClauses},
      {"smt.reach_bnb_nodes", S.ReachBnbNodes},
      {"smt.reach_scratch_fallbacks", S.ReachScratchFallbacks},
      {"synth.lp_checks", S.LpChecks},
      {"synth.levels_tried", S.TemplateLevelsTried},
      {"synth.nogoods", S.SynthNogoods},
      {"synth.combos_deduped", S.SynthCombosDeduped},
      {"synth.lemmas_reused", S.SynthLemmasReused},
      {"synth.cuts", S.SynthCuts},
      {"pdr.frames", S.PdrFrames},
      {"pdr.obligations", S.PdrObligations},
      {"pdr.clauses_learned", S.PdrClausesLearned},
      {"pdr.clauses_pushed", S.PdrClausesPushed},
      {"pdr.gen_dropped_lits", S.PdrGenDroppedLits},
      {"pdr.frame_queries", S.PdrFrameQueries},
      {"pdr.facade_queries", S.PdrFacadeQueries},
      {"pdr.cex_candidates", S.PdrCexCandidates},
      {"spent.sat_conflicts", Sp.SatConflicts},
      {"spent.pivots", Sp.Pivots},
      {"spent.bnb_nodes", Sp.BnbNodes},
      {"spent.synth_combos", Sp.SynthCombos},
      {"spent.arg_expansions", Sp.ArgExpansions},
      {"spent.refinements", Sp.Refinements},
      {"spent.pdr_obligations", Sp.PdrObligations},
      {"solver.smt_queries", F.SmtQueries},
      {"solver.smt_cache_hits", F.SmtCacheHits},
      {"solver.context_checks", F.ContextChecks},
      {"solver.conjunction_checks", F.ConjunctionChecks},
      {"solver.lazy_checks", F.LazyChecks},
      {"solver.theory_checks", F.TheoryChecks},
      {"solver.pushes", F.Pushes},
      {"solver.pops", F.Pops},
      {"solver.base_reuses", F.BaseReuses},
      {"solver.base_rebuilds", F.BaseRebuilds},
      {"solver.bnb_nodes", F.BnbNodes},
      {"solver.bnb_repair_pivots", F.BnbRepairPivots},
      {"solver.bnb_lemmas", F.BnbLemmas},
      {"solver.scratch_fallbacks", F.ScratchFallbacks},
      {"solver.cut_rows", F.CutRows},
      {"solver.sat_conflicts", F.SatConflicts},
      {"solver.sat_decisions", F.SatDecisions},
      {"solver.sat_propagations", F.SatPropagations},
      {"solver.learned_purges", F.LearnedPurges},
      {"solver.clauses_purged", F.ClausesPurged},
      {"solver.redundant_clauses", F.RedundantClauses},
  };
  Rec.TrackedPeakBytes = S.PeakMemoryBytes;
}

/// Runs one job on a fresh verifier stack, as one CLI run would, and
/// checks its answer. Its times are CPU time, as measured, less the
/// speed probe's ticks.
JobRecord runJobTimed(const Job &J, int JobIdx) {
  JobRecord Rec;
  SpanScope Root("job", JobIdx);
  Rec.StartS = now();
  const double Start = bench::speed::cpuNow();
  auto elapsed = [&] {
    return bench::speed::cpuNow() - Start - bench::speed::overheadS();
  };
  EngineOptions Opts;
  Opts.Engine = J.Engine;
  Opts.Limits = J.Limits;
  Verifier V(Opts);
  Expected<Program> P = [&] {
    SpanScope S("lang.load", JobIdx);
    return V.loadSource(J.Source);
  }();
  if (!P) {
    Rec.Failure = "source failed to load: " + P.error().render();
    Rec.EndS = now();
    Rec.LatencyS = Rec.TtvS = elapsed();
    return Rec;
  }
  EngineResult R = [&] {
    SpanScope S("core.verify", JobIdx);
    return V.verifyProgram(P.get());
  }();
  Rec.LatencyS = elapsed();
  recordCounters(R, V, Rec);
  if (J.Engine == EngineKind::Portfolio)
    Rec.Winner = winnerOf(R.Note);
  switch (R.Verdict) {
  case EngineResult::Verdict::Safe:
    Rec.Verdict = 'S';
    if (!J.ExpectSafe)
      Rec.Failure = "Safe on an unsafe program";
    else
      Rec.Failure = checkCertificate(
          J, R.HasInvariants ? serializeCertificate(P.get(), R.Invariants)
                             : std::string(),
          JobIdx);
    Rec.Checked = true;
    break;
  case EngineResult::Verdict::Unsafe:
    Rec.Verdict = 'U';
    if (J.ExpectSafe)
      Rec.Failure = "Unsafe on a safe program";
    else {
      SpanScope S("interp.replay", JobIdx);
      Rec.Failure = bench::checkWitness(P.get(), R, V.termManager());
    }
    Rec.Checked = true;
    break;
  case EngineResult::Verdict::Unknown:
    Rec.UnknownReason = R.UnknownReason.empty() ? "other" : R.UnknownReason;
    break;
  }
  Rec.EndS = now();
  Rec.TtvS = elapsed();
  return Rec;
}

/// runJobTimed with the speed probe sampling around and through it; its
/// times scaled to the reference speed.
JobRecord runJob(const Job &J, int JobIdx) {
  bench::speed::begin();
  JobRecord Rec = runJobTimed(J, JobIdx);
  Rec.ProbeS = bench::speed::end();
  Rec.RawTtvS = Rec.TtvS;
  Rec.TtvS = bench::speed::scale(Rec.TtvS, Rec.ProbeS);
  Rec.LatencyS = bench::speed::scale(Rec.LatencyS, Rec.ProbeS);
  return Rec;
}

Json recordJson(const JobRecord &R) {
  Json O = Json::object();
  O.set("verdict", Json::string(std::string(1, R.Verdict)));
  O.set("checked", Json::boolean(R.Checked));
  O.set("failure", Json::string(R.Failure));
  O.set("unknown_reason", Json::string(R.UnknownReason));
  O.set("winner", Json::string(R.Winner));
  O.set("start_s", Json::number(R.StartS));
  O.set("end_s", Json::number(R.EndS));
  O.set("reps", Json::integer(R.Reps));
  O.set("latency_s", Json::number(R.LatencyS));
  O.set("ttv_s", Json::number(R.TtvS));
  O.set("raw_ttv_s", Json::number(R.RawTtvS));
  O.set("probe_s", Json::number(R.ProbeS));
  O.set("tracked_peak_bytes",
        Json::integer(static_cast<int64_t>(R.TrackedPeakBytes)));
  Json C = Json::object();
  for (const auto &[K, V] : R.Counters)
    C.set(K, Json::integer(static_cast<int64_t>(V)));
  O.set("counters", std::move(C));
  return O;
}

JobRecord recordFromJson(const Json &O) {
  JobRecord R;
  const std::string V = O.stringOr("verdict", "?");
  R.Verdict = V.empty() ? '?' : V[0];
  R.Checked = O.boolOr("checked");
  R.Failure = O.stringOr("failure");
  R.UnknownReason = O.stringOr("unknown_reason");
  R.Winner = O.stringOr("winner");
  R.StartS = O.doubleOr("start_s");
  R.EndS = O.doubleOr("end_s");
  R.Reps = static_cast<int>(O.intOr("reps", 1));
  R.LatencyS = O.doubleOr("latency_s");
  R.TtvS = O.doubleOr("ttv_s");
  R.RawTtvS = O.doubleOr("raw_ttv_s");
  R.ProbeS = O.doubleOr("probe_s");
  R.TrackedPeakBytes = static_cast<uint64_t>(O.intOr("tracked_peak_bytes"));
  if (const Json *C = O.find("counters"))
    for (const auto &[K, Count] : C->members())
      R.Counters[K] = static_cast<uint64_t>(Count.asInt());
  return R;
}

/// The spans from index \p First on.
Json spansJson(size_t First) {
  Json Out = Json::array();
  for (size_t I = First; I < Trace.Spans.size(); ++I) {
    const Tracer::Span &S = Trace.Spans[I];
    Json O = Json::object();
    O.set("name", Json::string(S.Name));
    O.set("job", Json::integer(S.Job));
    O.set("parent", Json::integer(S.Parent));
    O.set("start", Json::number(S.Start));
    O.set("end", Json::number(S.End));
    Out.push(std::move(O));
  }
  return Out;
}

/// Runs one job in a child process of the driver, so that it starts on a
/// fresh heap, as a CLI run does, and leaves nothing in the driver's heap
/// for the jobs after it. With one process for every job, a job's time
/// depended on the heap the jobs before it left: a millisecond job's
/// median over 20 runs moved by a third from one `paper` run to the next.
/// The child sends its record and spans back through a pipe; times are
/// taken in the child, on the clock it shares with the driver.
JobRecord runJobIsolated(const Job &J, int JobIdx) {
  int Fd[2];
  if (pipe(Fd) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  const size_t FirstSpan = Trace.Spans.size();
  std::fflush(nullptr);
  const pid_t Pid = fork();
  if (Pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (Pid == 0) {
    // The job ends with the driver, also when a timeout kills the driver.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() == 1)
      _exit(1);
    close(Fd[0]);
    Json Out = Json::object();
    Out.set("record", recordJson(runJob(J, JobIdx)));
    Out.set("spans", spansJson(FirstSpan));
    const std::string Text = Out.write();
    for (size_t Done = 0; Done < Text.size();) {
      ssize_t N = write(Fd[1], Text.data() + Done, Text.size() - Done);
      if (N <= 0)
        _exit(1);
      Done += static_cast<size_t>(N);
    }
    _exit(0);
  }
  close(Fd[1]);
  std::string Text;
  char Buf[1 << 16];
  for (ssize_t N; (N = read(Fd[0], Buf, sizeof(Buf))) > 0;)
    Text.append(Buf, static_cast<size_t>(N));
  close(Fd[0]);
  int Status = 0;
  waitpid(Pid, &Status, 0);
  Json In;
  std::string Err;
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0 ||
      !serve::parseJson(Text, In, Err) || !In.find("record")) {
    JobRecord R;
    R.StartS = R.EndS = now();
    R.Failure = "the job's process ended without a result";
    return R;
  }
  for (const Json &S : In.find("spans")->elements())
    Trace.Spans.push_back({S.stringOr("name"),
                           static_cast<int>(S.intOr("job", -1)),
                           static_cast<int>(S.intOr("parent", -1)),
                           S.doubleOr("start"), S.doubleOr("end")});
  return recordFromJson(*In.find("record"));
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

//===-- Workloads -----------------------------------------------------------//

struct PaperProgram {
  const char *Name;
  const char *Source;
  bool Safe;
};

const PaperProgram PaperPrograms[] = {
    {"forward", testprogs::Forward, true},
    {"init_check", testprogs::InitCheck, true},
    {"partition", testprogs::Partition, true},
    {"init_check_buggy", testprogs::InitCheckBuggy, false},
    {"scalar_bug", testprogs::ScalarBug, false},
    {"straight_safe", testprogs::StraightSafe, true},
};

const EngineKind Engines[] = {EngineKind::Cegar, EngineKind::Pdr,
                              EngineKind::Portfolio};

/// The 18 paper jobs, in a fixed order, each run at least twice: the
/// longest of them set the engines' sums alone, and they follow the speed
/// probe less closely than the shorter jobs (`forward` under `pdr` slows
/// about twice as much as the probe). A traced run, which reports the
/// layers and not the end-to-end figures, runs them once at least, so
/// that it and its untraced run end in time.
std::vector<Job> paperJobs() {
  std::vector<Job> Jobs;
  for (const PaperProgram &PP : PaperPrograms)
    for (EngineKind E : Engines) {
      Job J;
      J.Name = std::string(PP.Name) + "/" + engineKindName(E);
      J.Program = PP.Name;
      J.Source = PP.Source;
      J.Engine = E;
      J.ExpectSafe = PP.Safe;
      J.Limits = backstopLimits();
      J.MinReps = Trace.On ? 1 : 2;
      Jobs.push_back(std::move(J));
    }
  return Jobs;
}

/// Job for one generated program under the fuzz oracle's deterministic
/// step budgets (plus its wall backstop, which no job gets near).
Job fuzzJob(const fuzz::GeneratedProgram &GP, EngineKind E) {
  Job J;
  J.Name = "fuzz-" + std::to_string(GP.Seed) + "/" + engineKindName(E);
  J.Program = GP.Family;
  J.Source = GP.Source;
  J.Engine = E;
  J.ExpectSafe = GP.ExpectSafe;
  J.Limits = fuzz::OracleOptions().Budget;
  return J;
}

/// Quotas of one 20-program cycle of a generated block, by family and
/// ground truth. The generator's natural mix is 15/30/25/20/10 per cent by
/// family; the block fixes the counts so that a percentile does not move
/// between groups from one seed to the next. Under portfolio the programs
/// fall into three groups by time: the unsafe ones and safe `straight`
/// (about a millisecond), safe `counter`, `ineq` and `forward` (tens of
/// milliseconds), and safe `twoloop`, which needs synthesis (about 0.7 s).
/// With 6, 11 and 3 of them, ttv_s.p50 sits a third of the way into the
/// middle group and ttv_s.p90 inside the last, and neither on an edge.
struct Quota {
  const char *Family;
  bool Safe;
  int PerCycle;
};
const Quota BlockQuota[] = {
    {"straight", true, 1}, {"straight", false, 1}, {"counter", true, 4},
    {"counter", false, 1}, {"forward", true, 4},   {"forward", false, 1},
    {"ineq", true, 3},     {"ineq", false, 1},     {"twoloop", true, 3},
    {"twoloop", false, 1}};
constexpr int CycleSize = 20;

/// The workload seed is the first fuzz seed of its block.
uint64_t firstFuzzSeed(uint64_t Seed) { return Seed; }

/// Where the engine sample's fuzz seeds start, for every workload seed.
constexpr uint64_t SampleFuzzSeed = 1;

/// Generates programs from fuzz seed \p First on until
/// \p Cycles cycles of family quotas are filled. generateProgram confirms
/// every unsafe candidate with the interpreter's bounded search, so this
/// includes the ground-truth confirmation. Sources may repeat: `twoloop`
/// has only about a dozen distinct programs.
std::vector<fuzz::GeneratedProgram> generateBlock(uint64_t First, int Cycles) {
  std::map<std::pair<std::string, bool>, int> Left;
  int Missing = 0;
  for (const Quota &Q : BlockQuota) {
    Left[{Q.Family, Q.Safe}] = Q.PerCycle * Cycles;
    Missing += Q.PerCycle * Cycles;
  }
  std::vector<fuzz::GeneratedProgram> Block;
  for (uint64_t FuzzSeed = First; Missing > 0; ++FuzzSeed) {
    if (FuzzSeed - First > 100u * CycleSize * Cycles) {
      std::fprintf(stderr, "generator never filled the block's quotas\n");
      std::exit(1);
    }
    fuzz::GeneratedProgram GP = [&] {
      SpanScope S("fuzz.generate", -1);
      return fuzz::generateProgram(FuzzSeed);
    }();
    auto It = Left.find({GP.Family, GP.ExpectSafe});
    if (It == Left.end() || It->second == 0)
      continue;
    --It->second;
    --Missing;
    Block.push_back(std::move(GP));
  }
  return Block;
}

struct Report {
  std::vector<Job> Jobs;
  std::vector<JobRecord> Records;
  /// Set-up samples, taken between the jobs all through the run, at the
  /// reference speed.
  std::vector<double> SetupS;
  /// The speed probe's mean sample in every job run and set-up sample.
  std::vector<double> ProbeS;
  /// The wall interval the jobs ran in, and the stream jobs' summed times.
  double StreamStart = 0, StreamEnd = 0, StreamWallS = 0;
  Json Extra = Json::object();
};

/// How a workload repeats its jobs. Every job is run again, in a process
/// of its own and checked, until it has its MinReps runs and then until it has
/// MaxReps runs or MaxTotalS seconds of them, and is timed by the median
/// of its runs: on the reference host the machine's speed varies from
/// second to second, so a job of milliseconds timed once, or many times in
/// a row, reads up to half off from one run to the next. The repetitions
/// are spread over the run: after each job of the first pass, the next
/// RerunsPerJob jobs in turn that need more runs (0 = all of them); after
/// the pass, in turn until none does. The order is fixed, so that every
/// run of a workload seed does the same work in the same sequence.
struct Schedule {
  int RerunsPerJob;
  int MaxReps;
  double MaxTotalS;
  /// A set-up sample after every SetupEvery job runs.
  int SetupEvery;
};

/// Runs \p Jobs in order and repeats them as \p S says. \p Setup is the
/// workload's set-up: it runs first, before any job, and again after
/// every S.SetupEvery job runs, each time timed without spans; run.py
/// reports the median, so that work moved into set-up shows at the
/// machine speed of the whole run.
template <typename SetupFn>
void runJobs(Report &Rep, std::vector<Job> Jobs, const Schedule &S,
             SetupFn &&Setup) {
  auto setupSample = [&] {
    bool Traced = Trace.On;
    Trace.On = false;
    double Elapsed = 0;
    const double Probe = bench::speed::around(Setup, Elapsed);
    Rep.SetupS.push_back(bench::speed::scale(Elapsed, Probe));
    Rep.ProbeS.push_back(Probe);
    Trace.On = Traced;
  };
  int JobRuns = 0;
  auto ran = [&] {
    if (++JobRuns % S.SetupEvery == 0)
      setupSample();
  };

  struct Timing {
    int Idx;
    std::vector<double> Ttv, Latency, RawTtv, Probe;
    double Total = 0;
  };
  std::vector<Timing> Timed;
  auto done = [&](const Timing &T) {
    const int N = static_cast<int>(T.Ttv.size());
    return N >= Rep.Jobs[T.Idx].MinReps &&
           (N >= S.MaxReps || T.Total >= S.MaxTotalS);
  };
  size_t Cursor = 0;
  /// Re-runs the next job in turn that needs more runs. \returns false
  /// when none does.
  auto rerunNext = [&] {
    for (size_t Tried = 0; Tried < Timed.size(); ++Tried) {
      Timing &T = Timed[Cursor];
      Cursor = (Cursor + 1) % Timed.size();
      if (done(T))
        continue;
      JobRecord R = runJobIsolated(Rep.Jobs[T.Idx], T.Idx);
      JobRecord &First = Rep.Records[T.Idx];
      if (First.Failure.empty() && !R.Failure.empty())
        First.Failure = "repetition: " + R.Failure;
      else if (First.Failure.empty() && R.Verdict != First.Verdict)
        First.Failure = "repetition gave another verdict";
      T.Ttv.push_back(R.TtvS);
      T.Latency.push_back(R.LatencyS);
      T.RawTtv.push_back(R.RawTtvS);
      T.Probe.push_back(R.ProbeS);
      Rep.ProbeS.push_back(R.ProbeS);
      T.Total += R.TtvS;
      First.EndS = R.EndS;
      ran();
      return true;
    }
    return false;
  };

  setupSample();
  Rep.StreamStart = now();
  for (Job &J : Jobs) {
    int Idx = static_cast<int>(Rep.Jobs.size());
    Rep.Jobs.push_back(std::move(J));
    Rep.Records.push_back(runJobIsolated(Rep.Jobs.back(), Idx));
    ran();
    const JobRecord &R = Rep.Records.back();
    Timed.push_back({Idx, {R.TtvS}, {R.LatencyS}, {R.RawTtvS}, {R.ProbeS},
                     R.TtvS});
    Rep.ProbeS.push_back(R.ProbeS);
    size_t Reruns = S.RerunsPerJob ? S.RerunsPerJob : Timed.size();
    for (size_t K = 0; K < Reruns && rerunNext(); ++K) {
    }
  }
  while (rerunNext()) {
  }
  Rep.StreamEnd = now();
  for (Timing &T : Timed) {
    JobRecord &R = Rep.Records[T.Idx];
    R.TtvS = median(T.Ttv);
    R.LatencyS = median(T.Latency);
    R.RawTtvS = median(T.RawTtv);
    R.ProbeS = median(T.Probe);
    R.Reps = static_cast<int>(T.Ttv.size());
  }
  // The stream's time is its jobs' times; the repetitions only refine them.
  for (size_t I = 0; I < Rep.Records.size(); ++I)
    if (Rep.Jobs[I].Stream)
      Rep.StreamWallS += Rep.Records[I].TtvS;
}

/// `paper`: the 18 jobs, each repeated after every job and then in turn,
/// twice and then up to 15 runs or 1.125 s of them at 30 s (so a job of
/// 0.56 s or more runs twice).
void runPaper(double Seconds, Report &Rep) {
  const Schedule S{0, std::max(1, static_cast<int>(Seconds / 2)),
                   Seconds * 0.0375, 1};
  runJobs(Rep, paperJobs(), S, [] {
    Verifier V;
    for (const PaperProgram &PP : PaperPrograms)
      if (!V.loadSource(PP.Source)) {
        std::fprintf(stderr, "paper program %s failed to load\n", PP.Name);
        std::exit(1);
      }
  });
}

/// Traced paper runs only: the call the portfolio's synthesis probe makes,
/// a whole-program generatePathInvariants, cold (fresh verifier stack and
/// learner) on each Safe paper program.
void runSynthProbes(Report &Rep) {
  Json Out = Json::array();
  for (const PaperProgram &PP : PaperPrograms) {
    if (!PP.Safe)
      continue;
    SpanScope Root("job", -1);
    Verifier V;
    Expected<Program> P = V.loadSource(PP.Source);
    if (!P) {
      std::fprintf(stderr, "paper program %s failed to load\n", PP.Name);
      std::exit(1);
    }
    SynthLearner Learner;
    PathInvOptions Opts = V.options().PathInv;
    Opts.Synth.Learner = &Learner;
    double Start = now();
    PathInvResult R;
    {
      SpanScope S("synth.search", -1);
      R = generatePathInvariants(P.get(), V.solver(), Opts);
    }
    Json O = Json::object();
    O.set("program", Json::string(PP.Name));
    O.set("found", Json::boolean(R.Found));
    O.set("seconds", Json::number(now() - Start));
    O.set("lp_checks", Json::integer(static_cast<int64_t>(R.LpChecks)));
    O.set("levels_tried", Json::integer(R.LevelsTried));
    Out.push(std::move(O));
  }
  Rep.Extra.set("synth_probes", std::move(Out));
}

/// The engine sample: one cycle's worth of programs, the first of each
/// quota group from fuzz seed SampleFuzzSeed on, under cegar and under
/// pdr, for those engines' sums (portfolio's is the stream's). It is the
/// same for every workload seed, so those sums compare across seeds as
/// `paper`'s do; drawn from each seed's block they moved by half with the
/// programs drawn.
std::vector<Job> engineSample() {
  std::vector<fuzz::GeneratedProgram> Block = generateBlock(SampleFuzzSeed, 1);
  std::vector<Job> Sample;
  for (const Quota &Q : BlockQuota) {
    auto It = std::find_if(Block.begin(), Block.end(), [&](const auto &GP) {
      return GP.Family == Q.Family && GP.ExpectSafe == Q.Safe;
    });
    for (EngineKind E : {EngineKind::Cegar, EngineKind::Pdr}) {
      Sample.push_back(fuzzJob(*It, E));
      Sample.back().Name += "/sample";
      Sample.back().Stream = false;
      Sample.back().MinReps = 2;
    }
  }
  return Sample;
}

/// `fuzz-stream`: the engine sample, each of its jobs run twice or more,
/// then every program of a block of Seconds / 8 cycles under
/// portfolio; jobs are repeated, the next three in turn after each job of
/// the first pass, up to 5 runs or 0.6 s of them (so a safe `twoloop` runs
/// once).
void runFuzzStream(uint64_t Seed, double Seconds, Report &Rep) {
  const int Cycles = std::max(1, static_cast<int>(Seconds / 8));
  const Schedule S{3, 5, 0.6, 8};
  std::vector<Job> Jobs = engineSample();
  for (const fuzz::GeneratedProgram &GP :
       generateBlock(firstFuzzSeed(Seed), Cycles))
    Jobs.push_back(fuzzJob(GP, EngineKind::Portfolio));
  runJobs(Rep, std::move(Jobs), S,
          [&] { generateBlock(firstFuzzSeed(Seed), Cycles); });
}

//===-- Report --------------------------------------------------------------//

Json toJson(const Report &Rep, const std::string &Workload, uint64_t Seed) {
  Json Out = Json::object();
  Out.set("workload", Json::string(Workload));
  Out.set("seed", Json::integer(static_cast<int64_t>(Seed)));
  Out.set("traced", Json::boolean(Trace.On));
  Json Setup = Json::array();
  for (double S : Rep.SetupS)
    Setup.push(Json::number(S));
  Out.set("setup_s", std::move(Setup));
  Out.set("stream_start_s", Json::number(Rep.StreamStart));
  Out.set("stream_end_s", Json::number(Rep.StreamEnd));
  Out.set("stream_wall_s", Json::number(Rep.StreamWallS));
  Out.set("probe_s", Json::number(median(Rep.ProbeS)));
  // The largest of the driver and its job processes.
  struct rusage Self, Children;
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Children);
  Out.set("peak_rss_kb",
          Json::integer(std::max(Self.ru_maxrss, Children.ru_maxrss)));
  Json Host = Json::object();
  Host.set("compiler", Json::string(std::string("gcc ") + __VERSION__));
  Host.set("build_type", Json::string(PATHINV_BENCH_BUILD_TYPE));
  Out.set("host", std::move(Host));
  Json Jobs = Json::array();
  for (size_t I = 0; I < Rep.Jobs.size(); ++I) {
    const Job &J = Rep.Jobs[I];
    const JobRecord &R = Rep.Records[I];
    Json O = Json::object();
    O.set("name", Json::string(J.Name));
    O.set("program", Json::string(J.Program));
    O.set("engine", Json::string(engineKindName(J.Engine)));
    O.set("expect", Json::string(J.ExpectSafe ? "safe" : "unsafe"));
    O.set("stream", Json::boolean(J.Stream));
    const Json Record = recordJson(R);
    for (const auto &[K, V] : Record.members())
      O.set(K, V);
    Jobs.push(std::move(O));
  }
  Out.set("jobs", std::move(Jobs));
  Out.set("spans", spansJson(0));
  Out.set("extra", Rep.Extra);
  return Out;
}

[[noreturn]] void usage() {
  std::fprintf(stderr, "usage: pathinv_benchdrv --workload paper|fuzz-stream "
                       "--seed N --seconds S --trace 0|1 --out FILE\n");
  std::exit(2);
}

} // namespace

int main(int argc, char **argv) {
  // One address-space layout for every run: with layout randomisation on,
  // fuzz-stream's set-up time fell into one of two modes 40% apart, by the
  // layout a run drew. Where the personality cannot be changed, the run
  // goes on randomised.
  const int Persona = personality(0xffffffff);
  if (Persona != -1 && !(Persona & ADDR_NO_RANDOMIZE) &&
      personality(static_cast<unsigned long>(Persona) | ADDR_NO_RANDOMIZE) !=
          -1)
    execv("/proc/self/exe", argv);

  std::string Workload, OutPath;
  uint64_t Seed = 1;
  double Seconds = 10;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= argc)
        usage();
      return argv[++I];
    };
    if (A == "--workload")
      Workload = Next();
    else if (A == "--seed")
      Seed = std::strtoull(Next().c_str(), nullptr, 10);
    else if (A == "--seconds")
      Seconds = std::strtod(Next().c_str(), nullptr);
    else if (A == "--trace")
      Trace.On = Next() == "1";
    else if (A == "--out")
      OutPath = Next();
    else
      usage();
  }
  if (OutPath.empty() || (Workload != "paper" && Workload != "fuzz-stream"))
    usage();

  Report Rep;
  if (Workload == "paper") {
    runPaper(Seconds, Rep);
    if (Trace.On)
      runSynthProbes(Rep);
  } else {
    runFuzzStream(Seed, Seconds, Rep);
  }

  std::ofstream Out(OutPath);
  Out << toJson(Rep, Workload, Seed).write() << "\n";
  return Out ? 0 : 1;
}
