#!/usr/bin/env python3
"""The pathinv benchmark: builds the workload driver from source, runs one
workload, checks every verdict, and prints the metrics.

    python3 benchmark/run.py --workload paper|fuzz-stream --seed N \
        --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under benchmark/, the driver's raw reports to runs/ beside it.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. See README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("paper", "fuzz-stream")
ENGINES = ("cegar", "pdr", "portfolio")
UNKNOWN_REASONS = ("deadline", "memory", "sat_conflicts", "pivots", "bnb_nodes",
                   "synth_combos", "arg_expansions", "refinements",
                   "pdr_obligations", "cancelled", "other")
# Counters whose per-job values must repeat exactly between two runs of a
# single-engine job (portfolio is time-sliced on the wall clock).
EXACT_ENGINES = ("cegar", "pdr")
# Every run, the traced one with its two driver calls included, ends
# within this many seconds of starting (the build excepted).
RUN_DEADLINE_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(msg):
    log("benchmark: " + msg)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "benchmark")


def build():
    """Configures once, then brings the driver up to date."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "pathinv_benchdrv"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "pathinv_benchdrv")


def run_driver(exe, workload, seed, seconds, traced, deadline):
    out = os.path.join(build_dir(), "runs",
                       "%s-%d-%s.json" % (workload, seed, "t" if traced else "u"))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0",
           "--out", out]
    try:
        rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                            timeout=max(1.0, deadline - time.monotonic())
                            ).returncode
    except subprocess.TimeoutExpired:
        fail("driver timed out: " + " ".join(cmd))
    if rc != 0:
        fail("driver exited with %d: %s" % (rc, " ".join(cmd)))
    with open(out) as f:
        return json.load(f)


def source_digest():
    """SHA-256 over the sources the driver is built from, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "benchmark"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "tests", "TestPrograms.h"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def host_facts(report):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": report["host"]["compiler"],
        "build_type": report["host"]["build_type"],
        "git_sha": sha or None,
        "source_sha256": source_digest(),
    }


def failures(report):
    """Jobs whose check failed."""
    return [j for j in report["jobs"] if j["failure"]]


def end_to_end(report):
    """The end-to-end metrics of an untraced run."""
    jobs = report["jobs"]
    stream = [j for j in jobs if j["stream"]]
    ttv = [j["ttv_s"] for j in stream]
    lat = [j["latency_s"] for j in stream]
    m = {
        "setup_s": statistics.median(report["setup_s"]),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        "decided_frac": metrics.decided_frac(jobs),
        "jobs_per_s": len(stream) / report["stream_wall_s"],
        "ttv_s.p50": metrics.percentile(ttv, 50),
        "ttv_s.p90": metrics.percentile(ttv, 90),
        "latency_s.p50": metrics.percentile(lat, 50),
        "latency_s.p90": metrics.percentile(lat, 90),
    }
    for e in ENGINES:
        m[e + "_s"] = sum(j["ttv_s"] for j in jobs if j["engine"] == e)
    return m


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(report, untraced):
    """The per-layer metrics of a traced run. The untraced run of the same
    seed gives the tracing overhead."""
    jobs = report["jobs"]
    total = {}
    for j in jobs:
        for k, v in j["counters"].items():
            total[k] = total.get(k, 0) + v
    self_t = metrics.self_times(report["spans"])
    roots = sum(s["end"] - s["start"] for s in report["spans"]
                if s["name"] == "job")
    m = {name + "_s": self_t.get(name, 0.0) for name in (
        "lang.load", "core.verify", "synth.search", "synth.cert_check",
        "interp.replay", "fuzz.generate")}
    m.update({
        "synth.certs_checked": sum(1 for s in report["spans"]
                                   if s["name"] == "synth.cert_check"),
        "trace.unattributed_s": self_t.get("job", 0.0),
        "trace.unattributed_frac": ratio(self_t.get("job", 0.0), roots),
        "machine.probe_us": report["probe_s"] * 1e6,
        "trace.overhead_frac":
            ratio(sum(j["ttv_s"] for j in jobs),
                  sum(j["ttv_s"] for j in untraced["jobs"])) - 1.0,
    })
    for lane in ("cegar", "pdr", "probe"):
        m["core.portfolio.%s_wins" % lane] = sum(
            1 for j in jobs if j["winner"] == lane)
    unknown = [j for j in jobs if j["verdict"] == "?" and not j["failure"]]
    m["core.unknown"] = len(unknown)
    for r in UNKNOWN_REASONS:
        m["core.unknown." + r] = sum(1 for j in unknown if j["unknown_reason"] == r)
    tracked = max([j["tracked_peak_bytes"] for j in jobs] or [0]) / 2.0 ** 20
    m["core.tracked_peak_mb"] = tracked
    m["core.tracked_rss_frac"] = ratio(tracked, report["peak_rss_kb"] / 1024.0)
    for k in ("cegar.refinements", "cegar.nodes_expanded",
              "cegar.entailment_queries", "synth.lp_checks", "synth.nogoods",
              "synth.lemmas_reused", "synth.cuts", "synth.levels_tried",
              "pdr.obligations", "pdr.frames", "pdr.frame_queries",
              "pdr.clauses_learned", "pdr.cex_candidates"):
        m[k] = total.get(k, 0)
    m["synth.combos"] = total.get("spent.synth_combos", 0)
    m["smt.sat_conflicts"] = total.get("spent.sat_conflicts", 0)
    m["smt.pivots"] = total.get("spent.pivots", 0)
    m["smt.bnb_nodes"] = total.get("spent.bnb_nodes", 0)
    m["smt.facade_queries"] = total.get("solver.smt_queries", 0)
    m["smt.facade_hit_frac"] = ratio(total.get("solver.smt_cache_hits", 0),
                                     total.get("solver.smt_queries", 0))
    m["smt.context_checks"] = (total.get("solver.context_checks", 0) +
                               total.get("smt.reach_context_checks", 0))
    m["smt.scratch_fallbacks"] = (total.get("solver.scratch_fallbacks", 0) +
                                  total.get("smt.reach_scratch_fallbacks", 0))
    filtered = total.get("cegar.model_filtered", 0)
    m["cegar.model_filtered_frac"] = ratio(
        filtered, filtered + total.get("cegar.entailment_queries", 0))
    m["pdr.pushed_frac"] = ratio(total.get("pdr.clauses_pushed", 0),
                                 total.get("pdr.clauses_learned", 0))
    return m


def exact_counter_check(untraced, traced):
    """Single-engine jobs must do identical work in both runs. Returns
    (matched, mismatched job names)."""
    before = {j["name"]: j["counters"] for j in untraced["jobs"]
              if j["engine"] in EXACT_ENGINES and j["counters"]}
    matched, bad = 0, []
    for j in traced["jobs"]:
        if j["name"] in before:
            if before[j["name"]] == j["counters"]:
                matched += 1
            else:
                bad.append(j["name"])
    return matched, bad


def portfolio_counter_spread(untraced, traced):
    """Portfolio work varies with the wall clock: per counter, the two
    runs' totals as (min, max)."""
    out = {}
    for k in ("synth.lp_checks", "spent.sat_conflicts", "spent.pivots",
              "pdr.obligations", "cegar.refinements"):
        vals = [sum(j["counters"].get(k, 0) for j in r["jobs"]
                    if j["engine"] == "portfolio") for r in (untraced, traced)]
        out[k] = [min(vals), max(vals)]
    return out


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    exe = build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    untraced = run_driver(exe, args.workload, args.seed, args.seconds, False,
                          deadline)
    reports = [untraced]
    if args.trace:
        traced = run_driver(exe, args.workload, args.seed, args.seconds, True,
                            deadline)
        reports.append(traced)
        values = per_layer(traced, untraced)
        matched, mismatched = exact_counter_check(untraced, traced)
        values["counters.exact_jobs"] = matched
        kind = "per_layer"
    else:
        values = end_to_end(untraced)
        mismatched = []
        kind = "end_to_end"

    units = declared(kind)
    if set(values) != set(units):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(units) - set(values)), sorted(set(values) - set(units))))

    bad = [j for r in reports for j in failures(r)]
    for j in bad:
        log("FAILED %s: %s" % (j["name"], j["failure"]))
    for name in mismatched:
        log("FAILED %s: work counters differ between the untraced and the "
            "traced run" % name)
    attempted = sum(len(r["jobs"]) for r in reports)

    stream = [j for j in untraced["jobs"] if j["stream"]]
    summary = {
        "host": host_facts(untraced),
        "workload": args.workload,
        "seed": args.seed,
        "stream_jobs": len(stream),
        "tail_percentile_supported": metrics.tail_percentile(len(stream)),
    }
    if args.trace:
        summary["portfolio_counter_spread"] = portfolio_counter_spread(
            untraced, reports[1])
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": not bad and not mismatched,
        "attempted": attempted,
        "failed": len(bad) + len(mismatched),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in sorted(values.items())},
    }))


if __name__ == "__main__":
    main()
