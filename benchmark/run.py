#!/usr/bin/env python3
"""NetScatter benchmark: builds benchmark/ns_bench and runs the workloads.

    python3 benchmark/run.py [--workload W]... [--seed S]... [--seconds T]
                             [--trace 0|1] [--out FILE] [--no-history]

Without --workload every workload in BENCHMARK.json runs; without --seed
each workload uses its own spec seed. Replicas run serially, one client
in a closed loop: each workload runs as 4 ns_bench processes, interleaved
round-robin across workloads, each with one untimed warm-up replica.
With --seconds the 4 processes share that measuring time; without it
they run the spec's `replicas` count between them.

--trace 0 runs only the end-to-end pass (tracing and metrics off),
--trace 1 only the traced per-layer pass; by default both run. Every
metric is printed by name with its unit, outputs are checked, results go
to build-bench/results.json (or --out), end-to-end rows are appended to
benchmark/history.csv, and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is nonzero
when the build fails or any output check fails.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
import compare  # noqa: E402  (benchmark/ is on sys.path as the script dir)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, "build-bench")
BUILD_DIR = os.path.join(OUT_DIR, "build")
HISTORY = os.path.join(HERE, "history.csv")
PROCS = 4
TRACED_REPLICAS = 20
PROCESS_TIMEOUT_S = 170
DELIVERY_BAND = 0.05

# Reported alongside the BENCHMARK.json metrics but not gated by it.
EXTRA_UNITS = {"replica_s_tail": "s", "error_rate": "share"}
HISTORY_COLUMNS = ["commit", "seed", "workload", "replicas", "rounds_per_s",
                   "replica_s_p50", "replica_s_tail", "tail_p", "setup_s",
                   "peak_rss_mb", "error_rate"]


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds ns_bench; returns its path or None."""
    env = dict(os.environ, CCACHE_DISABLE="1")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ns_bench", "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            return None
    return os.path.join(BUILD_DIR, "ns_bench")


def spec_value(path, key):
    with open(path) as f:
        match = re.search(rf"^{re.escape(key)} = (\S+)$", f.read(), re.M)
    return int(match.group(1))


def ns_bench(exe, args):
    """Runs ns_bench; returns its JSON output, or None on any failure."""
    command = " ".join(args)
    try:
        proc = subprocess.run([exe] + args, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"ns_bench {command}: timed out")
        return None
    if proc.returncode != 0:
        log(f"ns_bench {command}: exit {proc.returncode}\n{proc.stderr}")
        return None
    try:
        return json.loads(proc.stdout)
    except ValueError:
        log(f"ns_bench {command}: unreadable output")
        return None


def median_of(records, key):
    return statistics.median(r[key] for r in records)


class workload_run:
    """One (workload, seed) run: its ns_bench outputs, checks and metrics."""

    def __init__(self, name, seed):
        self.name, self.seed = name, seed
        self.spec = os.path.join(HERE, "workloads", f"{name}.spec")
        self.e2e_parts = []  # one output per end-to-end process
        self.check = None
        self.layers = None
        self.failures = []  # failed workload checks
        self.replica_errors = []
        self.e2e = {}
        self.layer_values = {}
        self.tail_p = None

    def args(self, mode, *extra):
        seed = ["--seed", str(self.seed)] if self.seed is not None else []
        return ["--mode", mode, "--spec", self.spec] + seed + list(extra)

    def evaluate(self, reference, do_e2e, do_layers):
        """Checks the outputs, then derives the metrics."""
        fail = self.failures.append
        if do_e2e and None in self.e2e_parts:
            fail("an end-to-end process failed")
        if self.check is None:
            fail("the reference process failed")
        if do_layers and self.layers is None:
            fail("the traced process failed")
        parts = [p for p in self.e2e_parts if p is not None]
        records = sorted((r for p in parts for r in p["replicas"]), key=lambda r: r["r"])
        traced = []
        if self.layers is not None:
            traced = self.layers["traced"]
            if not do_e2e:
                records = self.layers["untraced"]
            if [r["digest"] for r in traced] != [r["digest"] for r in self.layers["untraced"]]:
                fail("traced digests differ from untraced ones")
            if not self.layers["trace_written"]:
                fail("trace export failed")
        self.replica_errors = [f"replica {r['r']}: {r['error']}"
                               for r in records + traced if not r["ok"]]
        if self.check is not None:
            by_index = {r["r"]: r["digest"] for r in records}
            reference_digests = self.check["reference"]
            if [by_index.get(0), by_index.get(1)] != reference_digests:
                fail("replicas 0/1 differ from run_scenario_replica")
            if self.check["threads2"] != reference_digests[:1]:
                fail("replica 0 at 2 intra-round threads differs from serial")

        ok = [r for r in records if r["ok"]]
        sent = sum(r["transmitted"] for r in ok)
        self.delivery = sum(r["delivered"] for r in ok) / sent if sent else 0.0
        expected = reference[self.name]
        if abs(self.delivery - expected["delivery"]) > DELIVERY_BAND:
            fail(f"delivery {self.delivery:.4f} outside "
                 f"{expected['delivery']} +- {DELIVERY_BAND}")
        if expected["fast_path_only"] and any(r["fast_rounds"] != r["rounds"] for r in ok):
            fail("a round left the fast path")

        # A failed workload check counts every replica of the run as failed.
        self.attempted = max(1, len(records) + len(traced))
        self.failed = self.attempted if self.failures else len(self.replica_errors)
        if do_e2e and ok and len(parts) == len(self.e2e_parts):
            setup = [r["deployment_s"] + r["driver_s"] + r["simulator_s"] for r in ok]
            replica = [s + r["run_s"] for s, r in zip(setup, ok)]
            self.e2e = {
                "rounds_per_s": ok[0]["rounds"] / median_of(ok, "run_s"),
                "replica_s_p50": statistics.median(replica),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": max(p["peak_rss_kb"] for p in parts) / 1024.0,
                "error_rate": self.failed / self.attempted,
            }
            tail = compare.tail_percentile(replica)
            if tail is not None:
                self.tail_p, self.e2e["replica_s_tail"] = tail
        if self.layers is not None:
            plain = self.layers["untraced"]
            self.layer_values = dict(
                self.layers["layers"],
                **{"sim.deployment_s": median_of(plain, "deployment_s"),
                   "scenario.driver_s": median_of(plain, "driver_s"),
                   "sim.simulator_ctor_s": median_of(plain, "simulator_s"),
                   "trace.overhead": median_of(traced, "run_s") /
                   median_of(plain, "run_s") - 1.0})

    def report(self, units):
        seed = "spec seed" if self.seed is None else f"seed {self.seed}"
        print(f"== {self.name} ({seed}): {self.attempted} replicas attempted, "
              f"{self.failed} failed, delivery {self.delivery:.4f}")
        for name, value in list(self.e2e.items()) + list(self.layer_values.items()):
            label = f"replica_s_p{self.tail_p:g}" if name == "replica_s_tail" else name
            print(f"  {label:<38} {value:>14.6g} {units[name]}")
        for failure in self.failures + self.replica_errors:
            print(f"  FAILED: {failure}")
        sys.stdout.flush()


def summarize(runs, workloads):
    """Per-workload medians over seeds, plus every run's own values."""
    out = {"workloads": {}, "attempted": 0, "failed": 0, "correct": True}
    for name in workloads:
        mine = [r for r in runs if r.name == name]
        rows = [{"seed": r.seed, "e2e": r.e2e, "layers": r.layer_values,
                 "delivery": r.delivery, "attempted": r.attempted,
                 "failed": r.failed, "failures": r.failures + r.replica_errors}
                for r in mine]
        entry = {"runs": rows}
        for part in ("e2e", "layers"):
            keys = sorted({k for row in rows for k in row[part]})
            entry[part] = {k: statistics.median(row[part][k] for row in rows if k in row[part])
                           for k in keys}
        out["workloads"][name] = entry
        out["attempted"] += sum(r.attempted for r in mine)
        out["failed"] += sum(r.failed for r in mine)
        out["correct"] &= all(r.failed == 0 for r in mine)
    return out


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def append_history(runs):
    commit = commit_id()
    new = not os.path.exists(HISTORY) or os.path.getsize(HISTORY) == 0
    with open(HISTORY, "a") as f:
        if new:
            f.write(",".join(HISTORY_COLUMNS) + "\n")
        for run in runs:
            seed = run.seed if run.seed is not None else spec_value(run.spec, "sim.seed")
            row = dict(run.e2e, commit=commit, seed=seed, workload=run.name,
                       replicas=run.attempted, tail_p=run.tail_p)
            f.write(",".join("" if row.get(c) is None else str(row[c])
                             for c in HISTORY_COLUMNS) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", action="append", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "results.json"))
    parser.add_argument("--no-history", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    unknown = [w for w in workloads if w not in reference]
    if unknown or (args.seconds is not None and args.seconds <= 0):
        log(f"unknown workload {unknown}" if unknown else "--seconds must be positive")
        return 2
    units = dict(EXTRA_UNITS, **{m["name"]: m["unit"]
                                 for m in bench["end_to_end"] + bench["per_layer"]})
    groups = {0: ["end_to_end"], 1: ["per_layer"], None: ["end_to_end", "per_layer"]}
    reported = [m["name"] for g in groups[args.trace] for m in bench[g]]
    do_e2e, do_layers = args.trace != 1, args.trace != 0

    exe = build()
    if exe is None:
        log("build failed")
        return 1

    runs = []
    for seed in args.seed or [None]:
        batch = [workload_run(name, seed) for name in workloads]
        if do_e2e:
            for p in range(PROCS):
                for run in batch:
                    budget = (["--seconds", repr(args.seconds / PROCS)] if args.seconds else
                              ["--count", str(-(-spec_value(run.spec, "replicas") // PROCS))])
                    run.e2e_parts.append(ns_bench(exe, run.args(
                        "e2e", "--start", str(p), "--stride", str(PROCS), *budget)))
        for run in batch:
            run.check = ns_bench(exe, run.args("check"))
            if do_layers:
                trace_path = os.path.join(OUT_DIR, f"TRACE_{run.name}.json")
                run.layers = ns_bench(exe, run.args(
                    "layers", "--count", str(TRACED_REPLICAS), "--trace-out", trace_path))
            run.evaluate(reference, do_e2e, do_layers)
            run.report(units)
            runs.append(run)

    summary = summarize(runs, workloads)
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
        f.write("\n")
    if do_e2e and not args.no_history:
        append_history(runs)

    metrics = {}
    for name in workloads:
        entry = summary["workloads"][name]
        values = dict(entry["e2e"], **entry["layers"])
        for metric in reported:
            if metric in values:
                key = metric if len(workloads) == 1 else f"{name}/{metric}"
                metrics[key] = {"value": values[metric], "unit": units[metric]}
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
