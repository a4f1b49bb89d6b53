"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds records written by ``run.py --out``.  For every
workload and every end-to-end metric of ``BENCHMARK.json`` this prints
both medians, the head's change (positive means worse), the base's
run-to-run spread (quartile distance over median) and a verdict:
``regressed`` when the head is worse by more than the metric's bound,
``unresolved`` when the base's own spread is wider than the bound and
the head does not beat every base run, else ``ok``.

Records from hosts with different descriptors (core count, numpy,
Python version, engine) are never compared: the script refuses and
exits 2.  It exits 1 when any metric regressed.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory: str) -> list:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    if not records:
        raise SystemExit(f"compare: no records in {directory}")
    return records


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load(argv[0]), load(argv[1])
    hosts = {json.dumps(r["host"], sort_keys=True) for r in base + head}
    if len(hosts) != 1:
        print("compare: refusing to compare records from different hosts:",
              *sorted(hosts), sep="\n  ", file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    regressed = False
    print(f"{'workload':<18}{'metric':<14}{'base':>11}{'head':>11}"
          f"{'change':>9}{'spread':>9}{'bound':>7}  verdict")
    for workload in sorted({r["workload"] for r in base}):
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]

            def values(records):
                return [
                    r["result"]["metrics"][name]["value"] for r in records
                    if r["workload"] == workload and not r["trace"]
                ]

            b, h = values(base), values(head)
            if not b or not h:
                continue
            sign = 1.0 if spec["better"] == "lower" else -1.0
            b_med, h_med = statistics.median(b), statistics.median(h)
            change = sign * (h_med - b_med) / b_med
            base_spread = spread(b)
            beats_all = all(sign * (x - y) < 0 for x in h for y in b)
            if change > bound:
                verdict = "regressed"
                regressed = True
            elif base_spread > bound and not beats_all:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:<18}{name:<14}{b_med:>11.4g}{h_med:>11.4g}"
                  f"{change:>+9.1%}{base_spread:>9.1%}{bound:>7.2f}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
