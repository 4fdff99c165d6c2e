#!/usr/bin/env python3
"""Compare two sets of e2e ledger runs, metric by metric.

    python3 bench/e2e/compare.py --base a1.json a2.json a3.json \
        --head b1.json b2.json b3.json [--bench BENCHMARK.json]

Each file is either a result document written with --out, or a saved
stdout of one run (its header line names the workload, its last line is
the result). For every (workload, metric) pair both sides report, prints
each side's median and quartiles and the change of the medians. A pair
whose medians differ by more than the metric's BENCHMARK.json bound, in
either direction, is flagged; so is any run whose result is not correct.
Exits 1 when anything is flagged. Per-layer metrics have no bound and
are printed unflagged. Standard library only.
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

HEADER = re.compile(r"^e2e_ledger: workload (\S+),")


def load(path):
    """(workload, result) of one run file."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
        return doc["workload"], doc["result"]
    except (ValueError, KeyError):
        pass
    lines = text.strip().splitlines()
    workload = next((m.group(1) for m in map(HEADER.match, lines) if m), None)
    if workload is None or not lines:
        raise SystemExit(f"compare.py: {path}: not an e2e_ledger result")
    return workload, json.loads(lines[-1])


def collect(paths, flags):
    runs = {}
    for p in paths:
        workload, result = load(p)
        if not result.get("correct"):
            flags.append(f"{p}: result not correct")
        for name, m in result["metrics"].items():
            runs.setdefault((workload, name), []).append(m["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--head", nargs="+", required=True)
    default_bench = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    ap.add_argument("--bench", default=str(default_bench))
    args = ap.parse_args()

    bench = json.loads(Path(args.bench).read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    flags = []
    base = collect(args.base, flags)
    head = collect(args.head, flags)

    def cell(q):
        lo, med, hi = q
        return f"{med:.5g} [{lo:.5g}, {hi:.5g}]"

    print(f"{'workload':<13} {'metric':<40} {'base median [q1, q3]':<30} "
          f"{'head median [q1, q3]':<30} {'change':>8} {'bound':>6}")
    keys = sorted(set(base) & set(head), key=lambda k: (k[0], k[1] not in e2e, k[1]))
    for workload, name in keys:
        bq = quartiles(base[(workload, name)])
        hq = quartiles(head[(workload, name)])
        change = (hq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        line = (f"{workload:<13} {name:<40} {cell(bq):<30} {cell(hq):<30} "
                f"{100 * change:>+7.2f}%")
        if name in e2e:
            bound = e2e[name]["bound"]
            worse = change > 0 if e2e[name]["better"] == "lower" else change < 0
            line += f" {100 * bound:>5.1f}%"
            if abs(change) > bound:
                line += "  WORSE" if worse else "  BETTER"
                flags.append(f"{workload} {name}: medians differ by "
                             f"{100 * change:+.2f}% (bound {100 * bound:.1f}%)")
        print(line)
    for f in flags:
        print("FLAG:", f)
    print(f"{len(args.base)} base runs, {len(args.head)} head runs, "
          f"{len(flags)} flagged")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
