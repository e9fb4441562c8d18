#!/usr/bin/env python3
"""Summarises and compares benchmark results.

    python3 perfbench/compare.py --base RESULT... [--head RESULT...]

Each RESULT is the standard output of one perfbench/run.py run; its
metric record lines are read (see perfbench/record.h). For every
workload x metric x mode the script prints the median, the quartiles and
the spread (interquartile distance over the median) of the base runs.
With --head it also prints the head runs' median, quartiles and spread and
the change of the medians, and flags every end-to-end metric whose medians
differ by more than the metric's bound in BENCHMARK.json. It also flags
every end-to-end metric whose spread on either side exceeds the bound.
Quartiles are those of statistics.quantiles(values, n=4). Exit code 1 when
anything is flagged.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def read_records(paths):
    """(workload, metric, mode) -> list of values, plus each metric's unit."""
    values = {}
    units = {}
    for path in paths:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                record = json.loads(line)
                if "metric" not in record:
                    continue
                key = (record["workload"], record["metric"], record["mode"])
                values.setdefault(key, []).append(float(record["value"]))
                units[record["metric"]] = record["unit"]
    return values, units


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative(numerator, denominator):
    return numerator / abs(denominator) if denominator else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--base", nargs="+", required=True,
                        help="result files of the base side")
    parser.add_argument("--head", nargs="+", default=[],
                        help="result files of the head side")
    args = parser.parse_args()

    with open(BENCHMARK_JSON) as handle:
        benchmark = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in benchmark["end_to_end"] + benchmark["per_layer"]}

    base, units = read_records(args.base)
    head, _ = read_records(args.head)
    header = "%-17s %-32s %-6s %-5s %3s %12s %12s %12s %7s" % (
        "workload", "metric", "mode", "unit", "n", "q1", "median", "q3",
        "spread")
    if args.head:
        header += " %12s %12s %12s %7s %8s" % (
            "head q1", "median", "q3", "spread", "change")
    print(header + " %6s  %s" % ("bound", "flag"))

    flagged = 0
    for key in sorted(base):
        workload, metric, mode = key
        q1, median, q3 = summary(base[key])
        spread = relative(q3 - q1, median)
        bound = bounds.get(metric)
        flags = []
        if bound is not None and spread > bound:
            flags.append("spread above bound")
        line = "%-17s %-32s %-6s %-5s %3d %12.6g %12.6g %12.6g %6.1f%%" % (
            workload, metric, mode, units[metric], len(base[key]), q1, median,
            q3, 100 * spread)
        if args.head:
            if key in head:
                h1, head_median, h3 = summary(head[key])
                head_spread = relative(h3 - h1, head_median)
                change = relative(head_median - median, median)
                line += " %12.6g %12.6g %12.6g %6.1f%% %+7.1f%%" % (
                    h1, head_median, h3, 100 * head_spread, 100 * change)
                if bound is not None and head_spread > bound:
                    flags.append("head spread above bound")
                lower_is_better = better.get(metric) == "lower"
                worse = change > 0 if lower_is_better else change < 0
                if bound is not None and abs(change) > bound:
                    flags.append("worse" if worse else "better")
            else:
                line += " %12s %12s %12s %7s %8s" % ("-", "-", "-", "-", "-")
        line += " %5s  %s" % (
            "%.0f%%" % (100 * bound) if bound is not None else "-",
            ", ".join(flags))
        flagged += 1 if flags else 0
        print(line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
