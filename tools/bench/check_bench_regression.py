#!/usr/bin/env python3
"""Gate on benchmark regressions between two BENCH_<n>.json files.

Usage: check_bench_regression.py BASELINE.json CURRENT.json
           [--max-regression 0.20]
           [--require-microbench KEY:MINSPEEDUP ...]
           [--require-portfolio MAXRATIO [--portfolio-noise-ms MS]]

Gates:
  * end_to_end_total_wall_ms: current may be at most
    (1 + max-regression) x baseline;
  * every end-to-end program still reports the verdict recorded in the
    baseline;
  * no end-to-end program exhausted a resource budget: from schema v6 on
    the e2e runs are governed by a ResourceController with generous
    budgets, and an entry with a non-empty unknown_reason means the
    verifier gave up under limits the paper programs comfortably fit —
    a governance regression, not a timing one;
  * microbench throughput (ops_per_sec of the system-under-test mode)
    for keys present in BOTH files may not regress by more than
    max-regression — absolute and therefore machine-dependent, so only
    compare files produced on the same machine (CI's cross-machine smoke
    run passes --max-regression 1000 to reduce this gate to a
    verdict check). A key whose mode under test has a different name in
    the two files (synthesis_partition: v9 "synthesis", a warm replay,
    against v10 "cold") measures different runs and is skipped;
  * --require-microbench KEY:MIN enforces an absolute floor on a current
    microbench's speedup_vs_reference (e.g. rational_pivot:1.5);
  * whenever the current file has the refinement_reuse workload, its
    ARG run must be safe, and when the baseline ran it on the same number
    of loops, the current arg.nodes_expanded may not exceed the
    baseline's (a deterministic work count, so machine-independent). A
    pair with different loop counts (a smoke run against a full one)
    skips the node comparison; tests/cegar_arg_test.cpp pins the counts
    at both sizes;
  * --require-portfolio MAX enforces, per e2e program (schema v7+), that
    the portfolio wall is at most MAX x the better single engine's wall
    — the racing overhead bound. The gate is a within-file ratio, so it
    is machine-independent and holds on cross-machine comparisons too.
    Programs that finish in a few ms would make the ratio pure
    scheduling noise, so a wall within --portfolio-noise-ms (default
    250) of the best single engine passes regardless of the ratio. The
    gate also re-checks that all three engines agreed on the verdict.
  * whenever the current file has the synthesis_partition microbench,
    it is gated on work counts, not on a time ratio: the warm run
    (a replay of the learner the cold run filled) does 0 LP checks and
    reuses at least every LP the learning-off reference checks, and the
    cold run (a fresh learner: an engine job's path) checks no more LPs
    than the reference. The warm/reference speedup is printed, not gated:
    both sides run on the same search substrate, so a change that speeds
    that substrate up shrinks the ratio without any loss. A current file
    whose synthesis_partition lacks the cold/warm/reference runs (schema
    before v10) fails this gate.

Exits 0 when every gate holds, 1 otherwise.
"""

import argparse
import json
import os
import sys


def load_bench(path):
    """Load a BENCH_<n>.json, failing loudly on the ways a bad run can
    leave a husk behind: a 0-byte file (the bench binary died before its
    single atomic write), unparseable JSON, or JSON that lacks the e2e
    section every schema version has. A silent `json.load` traceback
    buries the actual problem ("your baseline is empty") under a decoder
    stack."""
    try:
        size = os.path.getsize(path)
    except OSError as err:
        sys.exit(f"FATAL: cannot stat bench file {path}: {err}")
    if size == 0:
        sys.exit(f"FATAL: bench file {path} is empty (0 bytes) — the "
                 f"benchmark run that was supposed to produce it died "
                 f"before writing results; regenerate it with "
                 f"tools/bench/pathinv_bench --out {os.path.basename(path)}")
    try:
        with open(path) as f:
            data = json.load(f)
    except (json.JSONDecodeError, OSError, UnicodeDecodeError) as err:
        sys.exit(f"FATAL: bench file {path} is not valid JSON ({err}) — "
                 f"regenerate it, do not hand-edit")
    if not isinstance(data, dict) or "end_to_end" not in data \
            or "end_to_end_total_wall_ms" not in data:
        sys.exit(f"FATAL: bench file {path} parses but lacks the "
                 f"end_to_end section — not a pathinv_bench output?")
    return data


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--max-regression", type=float, default=0.20,
                    help="allowed fractional wall-time/speedup regression")
    ap.add_argument("--require-microbench", action="append", default=[],
                    metavar="KEY:MINSPEEDUP",
                    help="fail unless current microbench KEY reaches "
                         "MINSPEEDUP x vs its in-process reference")
    ap.add_argument("--require-portfolio", type=float, default=None,
                    metavar="MAXRATIO",
                    help="fail if any e2e program's portfolio wall exceeds "
                         "MAXRATIO x the better single engine's wall "
                         "(subject to --portfolio-noise-ms), or if the "
                         "three engines disagree on a verdict")
    ap.add_argument("--portfolio-noise-ms", type=float, default=250.0,
                    metavar="MS",
                    help="absolute slack for the portfolio gate: a wall "
                         "within MS of the best single engine passes "
                         "regardless of the ratio (ms-scale programs)")
    args = ap.parse_args()

    base = load_bench(args.baseline)
    cur = load_bench(args.current)

    ok = True

    base_verdicts = {e["program"]: e["verdict"] for e in base["end_to_end"]}
    for entry in cur["end_to_end"]:
        expected = base_verdicts.get(entry["program"])
        if expected is None:
            continue
        if entry["verdict"] != expected:
            print(f"FAIL: {entry['program']} verdict changed: "
                  f"{expected} -> {entry['verdict']}")
            ok = False

    # Governed e2e runs (schema v6+) must never exhaust their generous
    # budgets; older baselines simply lack the field. From v7 the pdr and
    # portfolio sub-runs carry their own unknown_reason, held to the same
    # standard.
    for entry in cur["end_to_end"]:
        for engine in ("", "pdr", "portfolio"):
            run = entry.get(engine, {}) if engine else entry
            reason = run.get("unknown_reason", "") if isinstance(run, dict) \
                else ""
            if reason:
                label = f"{entry['program']}/{engine}" if engine \
                    else entry["program"]
                print(f"FAIL: {label} exhausted a resource budget "
                      f"under generous limits (reason: {reason})")
                ok = False

    base_ms = base["end_to_end_total_wall_ms"]
    cur_ms = cur["end_to_end_total_wall_ms"]
    limit = base_ms * (1.0 + args.max_regression)
    ratio = cur_ms / base_ms if base_ms else float("inf")
    line = (f"end_to_end_total_wall_ms: baseline {base_ms:.1f}, "
            f"current {cur_ms:.1f} ({ratio:.2f}x, limit {limit:.1f})")
    if cur_ms > limit:
        print("FAIL: " + line)
        ok = False
    else:
        print("OK:   " + line)

    # Microbench throughput of the system under test must not regress on
    # workloads both files know about. Compared on absolute ops_per_sec of
    # the non-reference mode: the in-process speedup ratio is NOT a stable
    # cross-PR metric, because a PR that accelerates shared substrate
    # (e.g. the number types) legitimately speeds the reference up too.
    def under_test(entry):
        for mode, stats in entry.items():
            # Skip the reference mode, the ratio, and scalar side-channel
            # fields (e.g. integer_split's bnb_nodes/scratch_fallbacks,
            # synthesis_partition's template_level_used). The first mode
            # dict is the one under test (synthesis_partition: "cold").
            if mode in ("reference", "speedup_vs_reference"):
                continue
            if isinstance(stats, dict):
                return mode, stats.get("ops_per_sec")
        return None, None

    base_micro = base.get("microbench", {})
    cur_micro = cur.get("microbench", {})
    for key in sorted(set(base_micro) & set(cur_micro)):
        b_mode, b = under_test(base_micro[key])
        c_mode, c = under_test(cur_micro[key])
        if b_mode != c_mode:
            print(f"skip: microbench {key}: mode under test differs "
                  f"({b_mode} -> {c_mode}), not comparable")
            continue
        if not b or not c:
            continue
        floor = b * (1.0 - args.max_regression)
        line = (f"microbench {key}: ops/s {b:.3g} -> {c:.3g} "
                f"(floor {floor:.3g})")
        if c < floor:
            print("FAIL: " + line)
            ok = False
        else:
            print("OK:   " + line)

    for spec in args.require_microbench:
        key, _, min_text = spec.partition(":")
        minimum = float(min_text)
        speedup = cur_micro.get(key, {}).get("speedup_vs_reference")
        if speedup is None:
            print(f"FAIL: required microbench '{key}' missing from current")
            ok = False
            continue
        line = f"required microbench {key}: {speedup:.2f}x (>= {minimum}x)"
        if speedup < minimum:
            print("FAIL: " + line)
            ok = False
        else:
            print("OK:   " + line)

    reuse = cur.get("refinement_reuse")
    if reuse is not None:
        arg = reuse.get("arg", {})
        verdict = arg.get("verdict")
        print(("OK:   " if verdict == "safe" else "FAIL: ") +
              f"refinement_reuse ({reuse.get('loops')} loops): "
              f"verdict {verdict}")
        ok = ok and verdict == "safe"
        base_reuse = base.get("refinement_reuse")
        if base_reuse is not None and \
                base_reuse.get("loops") == reuse.get("loops"):
            b_nodes = base_reuse["arg"]["nodes_expanded"]
            c_nodes = arg.get("nodes_expanded")
            holds = c_nodes is not None and c_nodes <= b_nodes
            print(("OK:   " if holds else "FAIL: ") +
                  f"refinement_reuse arg nodes expanded {c_nodes} <= "
                  f"baseline {b_nodes}")
            ok = ok and holds

    if args.require_portfolio is not None:
        gated = 0
        for entry in cur["end_to_end"]:
            pdr = entry.get("pdr")
            pf = entry.get("portfolio")
            if not isinstance(pdr, dict) or not isinstance(pf, dict):
                print(f"FAIL: {entry['program']} lacks the three-engine "
                      f"runs the portfolio gate needs (schema v7+)")
                ok = False
                continue
            gated += 1
            verdicts = {entry["verdict"], pdr.get("verdict"),
                        pf.get("verdict")}
            if len(verdicts) != 1:
                print(f"FAIL: {entry['program']} engine verdicts disagree: "
                      f"cegar={entry['verdict']} pdr={pdr.get('verdict')} "
                      f"portfolio={pf.get('verdict')}")
                ok = False
            best = min(entry["wall_ms"], pdr["wall_ms"])
            limit = max(best * args.require_portfolio,
                        best + args.portfolio_noise_ms)
            wall = pf["wall_ms"]
            ratio = wall / best if best else float("inf")
            line = (f"portfolio {entry['program']}: {wall:.1f} ms vs best "
                    f"single {best:.1f} ms ({ratio:.2f}x, limit "
                    f"{limit:.1f} ms)")
            if wall > limit:
                print("FAIL: " + line)
                ok = False
            else:
                print("OK:   " + line)
        if gated == 0:
            print("FAIL: portfolio gate matched no end-to-end entries")
            ok = False

    synth = cur_micro.get("synthesis_partition")
    if synth is not None:
        cold, warm, ref = (synth.get(k) for k in ("cold", "warm",
                                                  "reference"))
        if not all(isinstance(m, dict) for m in (cold, warm, ref)):
            print("FAIL: synthesis_partition lacks the cold/warm/reference "
                  "runs the count gate needs (schema v10+)")
            ok = False
        else:
            ref_lps = ref["lp_checks"]
            checks = [
                (f"warm run LP checks {warm['lp_checks']} == 0",
                 warm["lp_checks"] == 0),
                (f"warm run reuses {warm['synth_lemmas_reused']} >= "
                 f"reference LPs {ref_lps}",
                 warm["synth_lemmas_reused"] >= ref_lps),
                (f"cold run LP checks {cold['lp_checks']} <= reference "
                 f"LPs {ref_lps}", cold["lp_checks"] <= ref_lps),
            ]
            for line, holds in checks:
                print(("OK:   " if holds else "FAIL: ") +
                      "synthesis_partition " + line)
                ok = ok and holds
            print(f"info: synthesis_partition warm/reference speedup "
                  f"{synth.get('speedup_vs_reference', 0.0):.2f}x, cold "
                  f"{cold['wall_ms']:.0f} ms, warm {warm['wall_ms']:.0f} "
                  f"ms, reference {ref['wall_ms']:.0f} ms (not gated)")

    if "incremental" in cur:
        inc = cur["incremental"]
        print(f"info: incremental speedup_vs_one_shot = "
              f"{inc['speedup_vs_one_shot']:.2f}x over {inc['queries']} queries")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
