"""Median and quartiles per workload and metric over a set of result files.

    python3 bench/summarize.py bench/out/*.json
    python3 bench/summarize.py bench/BENCH_baseline.json

Each file holds one run's record, as bench/run.py writes it, or a list of
them; records that carry a "set" label are summarised per set.

The spread column is the distance between the first and third quartile as
a share of the median, the figure BENCHMARK.json's bounds are set against.
Counts that differ between traced runs of one workload are flagged.  Where
both traced and untraced runs of a workload are given, the tracing overhead
between them is printed too.
"""

from __future__ import annotations

import json
import statistics
import sys


def main(paths) -> int:
    groups: dict = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        for rec in data if isinstance(data, list) else [data]:
            key = (rec.get("set", ""), rec["workload"], rec["trace"])
            groups.setdefault(key, []).append(rec)
    for (label, workload, trace), recs in sorted(groups.items()):
        failed = sum(r["result"]["failed"] for r in recs)
        attempted = sum(r["result"]["attempted"] for r in recs)
        print(f"{label + '  ' if label else ''}{workload}  trace {trace}  runs {len(recs)}  "
              f"seeds {sorted(r['seed'] for r in recs)}  failed {failed}/{attempted}")
        values: dict = {}
        for r in recs:
            for name, m in r["result"]["metrics"].items():
                values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
        for name, (vals, unit) in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if trace and unit == "count" and len(set(vals)) > 1:
                flag = "  COUNTS DIFFER"
            print(f"  {name:40s} {med:12.6g} {unit:6s} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.3f}{flag}")
    for label, workload in sorted({(s, w) for s, w, _ in groups}):
        if (label, workload, 0) in groups and (label, workload, 1) in groups:
            untraced = statistics.median(r["result"]["metrics"]["wall_s"]["value"]
                                         for r in groups[(label, workload, 0)])
            traced = statistics.median(r["result"]["metrics"]["trace.wall_s"]["value"]
                                       for r in groups[(label, workload, 1)])
            print(f"{label + '  ' if label else ''}{workload}: tracing overhead between runs "
                  f"{traced - untraced:+.3f} s "
                  f"(median traced pass {traced:.3f} s, median untraced wall_s {untraced:.3f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
