#!/usr/bin/env python3
"""Merge METRICS_*/BENCH_*.json artifacts into one perf report.

Reads the JSON files the benches and `netscatter_sim --metrics` emit
(the bench_report flat schema: top-level scalars, a "points" array,
named section arrays) — plus any .csv input (e.g. netscatter_sweep's
aggregate SWEEP_*.csv, ingested as a generic point series) — and
writes:

  * a markdown report (--output, default PERF_REPORT.md): per-file
    scalar tables, the hardware-counter phase attribution ("perf"
    sections), the roofline attribution ("roofline" sections and the
    bench_roofline sweep), and every other point series as a generic
    table;
  * a tidy long-format CSV (--csv): one row per (file, section, point,
    field) — trivially joinable across PRs.

The per-commit trajectory lives in benchmark/history.csv, which
benchmark/run.py appends to.

No dependencies beyond the standard library; exits non-zero only on
unreadable input.

Usage:
  perf_report.py [files...] [--output PERF_REPORT.md]
                 [--csv PERF_REPORT.csv] [--label REF]

With no files, globs METRICS_*.json and BENCH_*.json in the working
directory.
"""

import argparse
import csv
import glob
import json
import sys


def load_csv_report(path):
    """A .csv input (e.g. netscatter_sweep's SWEEP_*.csv aggregate)
    becomes a synthetic report: one generic "points" series, numeric
    cells parsed as numbers."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    points = []
    for row in rows:
        point = {}
        for key, value in row.items():
            if key is None or value is None:
                continue
            try:
                point[key] = float(value)
            except ValueError:
                point[key] = value
        points.append(point)
    return {"bench": path, "points": points}


def load_reports(paths):
    reports = []
    for path in sorted(paths):
        try:
            if path.endswith(".csv"):
                data = load_csv_report(path)
            else:
                with open(path) as handle:
                    data = json.load(handle)
        except (OSError, json.JSONDecodeError, csv.Error) as error:
            print(f"perf_report: cannot read {path}: {error}", file=sys.stderr)
            return None
        if not isinstance(data, dict):
            print(f"perf_report: {path}: not a JSON object", file=sys.stderr)
            return None
        reports.append((path, data))
    return reports


def split_report(data):
    """Returns (scalars, sections) where sections maps name -> point list."""
    scalars = {}
    sections = {}
    for key, value in data.items():
        if isinstance(value, list):
            sections[key] = [p for p in value if isinstance(p, dict)]
        else:
            scalars[key] = value
    return scalars, sections


def fmt(value):
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e6 or abs(value) < 1e-3:
            return f"{value:.4g}"
        return f"{value:.4f}".rstrip("0").rstrip(".")
    if value is None:
        return "-"
    return str(value)


def markdown_table(rows, columns):
    lines = ["| " + " | ".join(columns) + " |",
             "|" + "|".join(" --- " for _ in columns) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(fmt(row.get(c)) for c in columns) + " |")
    return lines


def point_columns(points):
    """Union of keys in first-appearance order."""
    columns = []
    for point in points:
        for key in point:
            if key not in columns:
                columns.append(key)
    return columns


def render_markdown(reports, label):
    lines = ["# Performance report", ""]
    if label:
        lines += [f"Label: `{label}`", ""]
    for path, data in reports:
        scalars, sections = split_report(data)
        bench = scalars.get("bench", path)
        lines += [f"## {bench}", "", f"Source: `{path}`", ""]

        numeric = {k: v for k, v in scalars.items()
                   if isinstance(v, (int, float)) and k != "bench"}
        if numeric:
            lines += markdown_table(
                [{"scalar": k, "value": v} for k, v in numeric.items()],
                ["scalar", "value"])
            lines.append("")

        # Named sections first, in a stable didactic order; everything
        # else (including "points") follows generically.
        preferred = ["perf", "roofline"]
        ordered = [s for s in preferred if s in sections]
        ordered += [s for s in sections if s not in preferred]
        for section in ordered:
            points = sections[section]
            if not points:
                continue
            title = {"perf": "Hardware counters by phase",
                     "roofline": "Roofline attribution",
                     "points": "Points"}.get(section, section)
            lines += [f"### {title}", ""]
            lines += markdown_table(points, point_columns(points))
            lines.append("")
    return "\n".join(lines) + "\n"


def write_csv(reports, path):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["source", "bench", "section", "point", "field",
                         "value"])
        for source, data in reports:
            scalars, sections = split_report(data)
            bench = scalars.get("bench", source)
            for key, value in scalars.items():
                if key == "bench":
                    continue
                writer.writerow([source, bench, "", "", key, value])
            for section, points in sections.items():
                for index, point in enumerate(points):
                    for field, value in point.items():
                        writer.writerow(
                            [source, bench, section, index, field, value])


def main():
    parser = argparse.ArgumentParser(
        description="merge METRICS_*/BENCH_*.json into a perf report")
    parser.add_argument("files", nargs="*",
                        help="input JSON files (default: METRICS_*.json + "
                             "BENCH_*.json in the working directory)")
    parser.add_argument("--output", default="PERF_REPORT.md",
                        help="markdown report path")
    parser.add_argument("--csv", default=None,
                        help="tidy long-format CSV path")
    parser.add_argument("--label", default="",
                        help="report header label (e.g. the commit SHA)")
    args = parser.parse_args()

    paths = args.files or (glob.glob("METRICS_*.json") +
                           glob.glob("BENCH_*.json"))
    if not paths:
        print("perf_report: no input files", file=sys.stderr)
        return 1
    reports = load_reports(paths)
    if reports is None:
        return 1

    with open(args.output, "w") as handle:
        handle.write(render_markdown(reports, args.label))
    print(f"wrote {args.output} ({len(reports)} input files)")
    if args.csv:
        write_csv(reports, args.csv)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
