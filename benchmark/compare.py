#!/usr/bin/env python3
"""Compare two benchmark result files against the BENCHMARK.json bounds.

    python3 benchmark/compare.py A.json B.json

A and B are results files written by benchmark/run.py (A is the base,
B the candidate). One row is printed per (end-to-end metric, workload):
both values, the relative delta and the allowed worsening. Exits 1 when
any row is out of bound, 2 when a row is missing from either file.

The bound of a metric is the share of A's value by which B may be worse
(BENCHMARK.json "end_to_end"). Two rules sit on top of that table:
set-up time may always worsen by at least 1 ms, since sub-millisecond
set-up medians move by more than 10 % on a shared host; and the failure
share error_rate may not rise at all.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Absolute allowance, in the metric's unit, that the relative bound never
# undercuts.
ABSOLUTE_FLOOR = {"setup_s": 0.001}

# Percentile levels the tail is reported at, in tenths of a percent so
# nearest-rank arithmetic stays in integers.
TAIL_LEVELS_TENTHS = (999, 990, 950, 900, 750, 500)


def tail_percentile(values, beyond=10):
    """The highest tail level with at least `beyond` samples above it.

    Returns (p, value) with p in percent and value the nearest-rank
    sample, or None when there are too few samples for even the median.
    """
    xs = sorted(values)
    n = len(xs)
    for tenths in TAIL_LEVELS_TENTHS:
        rank = -(-tenths * n // 1000)  # ceil(p/100 * n)
        if rank >= 1 and n - rank >= beyond:
            return tenths / 10, xs[rank - 1]
    return None


def load_metric_table(path=BENCHMARK_JSON):
    """(name, better, bound, floor) for every gated end-to-end metric."""
    with open(path) as f:
        bench = json.load(f)
    table = [(m["name"], m["better"], m["bound"], ABSOLUTE_FLOOR.get(m["name"], 0.0))
             for m in bench["end_to_end"]]
    table.append(("error_rate", "lower", 0.0, 0.0))
    return table


def worsening(better, base, value):
    """How much worse `value` is than `base` (negative = better)."""
    return value - base if better == "lower" else base - value


def allowed_worsening(base, bound, floor=0.0):
    return max(bound * abs(base), floor)


def within_bound(better, bound, base, value, floor=0.0):
    return worsening(better, base, value) <= allowed_worsening(base, bound, floor)


def compare(a, b, table):
    """Rows of (workload, metric, a, b, delta, allowed, ok); ok is None
    when either side lacks the value."""
    rows = []
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        ea = a["workloads"].get(workload, {}).get("e2e", {})
        eb = b["workloads"].get(workload, {}).get("e2e", {})
        for name, better, bound, floor in table:
            va, vb = ea.get(name), eb.get(name)
            if va is None or vb is None:
                rows.append((workload, name, va, vb, None, None, None))
                continue
            delta = (vb - va) / va if va else vb - va
            allowed = allowed_worsening(va, bound, floor)
            rows.append((workload, name, va, vb, delta, allowed,
                         within_bound(better, bound, va, vb, floor)))
    return rows


def fmt(value):
    return "-" if value is None else f"{value:.6g}"


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    results = []
    for path in argv[1:]:
        with open(path) as f:
            results.append(json.load(f))
    rows = compare(results[0], results[1], load_metric_table())
    print(f"{'workload':<18} {'metric':<14} {'A':>12} {'B':>12} {'delta':>9} "
          f"{'allowed':>10}  status")
    status_code = 0
    for workload, name, va, vb, delta, allowed, ok in rows:
        status = "missing" if ok is None else ("ok" if ok else "OUT OF BOUND")
        delta_text = "-" if delta is None else f"{delta:+.2%}"
        print(f"{workload:<18} {name:<14} {fmt(va):>12} {fmt(vb):>12} "
              f"{delta_text:>9} {fmt(allowed):>10}  {status}")
        if ok is None:
            status_code = 2
        elif not ok and status_code == 0:
            status_code = 1
    return status_code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
