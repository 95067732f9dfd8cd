"""The benchmark's arithmetic: percentiles, span self time, the decided
share, and the run-to-run spread.

Pure functions over plain lists and dicts, so that test_metrics.py can
check each rule on hand-made inputs.
"""

import statistics

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(n):
    """The highest percentile that has at least MIN_BEYOND of n samples
    beyond it, or None when even the median has fewer."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def percentile(values, p):
    """Linear interpolation between closest ranks (the 'inclusive' method
    of statistics.quantiles); p in [0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Sums self time by span name. A span's self time is its duration
    minus the part of its interval that its child spans cover.

    spans: list of dicts with name, parent (index into spans, -1 for a
    root), start and end. Returns {name: seconds}."""
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(i)
    out = {}
    for i, s in enumerate(spans):
        kids = [(spans[k]["start"], spans[k]["end"]) for k in children.get(i, [])]
        own = (s["end"] - s["start"]) - covered_length(kids, s["start"], s["end"])
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def is_decided(job):
    """Answered Safe or Unsafe with evidence that passed the benchmark's
    check."""
    return job["verdict"] in ("S", "U") and job["checked"] and not job["failure"]


def decided_frac(jobs):
    """Decided jobs over attempted jobs; Unknown answers and errors (a
    program that fails to load, a failed check) count as undecided."""
    if not jobs:
        raise ValueError("no jobs attempted")
    return sum(1 for j in jobs if is_decided(j)) / len(jobs)


def spread(values):
    """Distance between the first and third quartile as a share of the
    median, with statistics.quantiles(values, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
