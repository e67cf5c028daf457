"""Summarise one result set, or compare two, against BENCHMARK.json.

    python3 perfbench/compare.py RESULTS               # medians, spreads, fail ratio
    python3 perfbench/compare.py PARENT CHANGE         # verdict per (metric, workload)

A result set is a directory written by sweep.py: `runs.jsonl` holds one
record per run, {"workload", "seed", "trace", "result"}, where result is
the last line run.py printed. sweep.py appends, so to compare two commits
run it one seed at a time, alternating between the two checkouts, and the
machine's drift falls on both sides alike. Two result sets whose runs
differ in length (`seconds` in meta.json) are not compared.

A verdict follows the benchmark's rules. improved: the change wins at least
nine tenths of the pairs (runs with the same seed; ties count for neither)
and the medians differ by more than the parent's interquartile range.
Otherwise, for an end-to-end metric: unresolved when the parent's spread
(interquartile range over median) is wider than the metric's bound, unless
every change run reads better than every parent run; worse when the change
median is worse than the parent's by more than the bound; else unchanged.
Per-layer metrics have no bound: unchanged only when every run reads the
same, worse by the mirror of the improved rule, else unresolved.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_benchmark(path=BENCHMARK):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_runs(directory):
    """{(workload, trace): {seed: result}} from a result set."""
    runs = defaultdict(dict)
    with open(Path(directory) / "runs.jsonl", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            runs[record["workload"], record["trace"]][record["seed"]] = record["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median, as the benchmark's acceptance takes it."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(parent, change, better, bound):
    """improved / unchanged / unresolved / worse for paired samples (same order)."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    q1, med_p, q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - med_p)
    if wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved"
    if bound is None:
        if len(set(parent) | set(change)) == 1:
            return "unchanged"
        if losses >= 0.9 * len(pairs) and -gain > q3 - q1:
            return "worse"
        return "unresolved"
    if spread(parent) > bound:
        every_better = all(sign * (c - p) > 0 for p in parent for c in change)
        return "unchanged" if every_better else "unresolved"
    return "worse" if -gain > bound * abs(med_p) else "unchanged"


def _metrics(bench):
    for m in bench["end_to_end"]:
        yield 0, m
    for m in bench["per_layer"]:
        yield 1, m


def summary(directory, bench):
    """Per workload and metric: median, quartiles, spread against a third of the bound."""
    runs = load_runs(directory)
    lines, steady = [], True
    for w in bench["workloads"]:
        for trace in (0, 1):
            results = list(runs.get((w["name"], trace), {}).values())
            if not results:
                continue
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            lines.append(f"{w['name']}  trace {trace}  runs {len(results)}  "
                         f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted})"
                         f"{'' if all(r['correct'] for r in results) else '  INCORRECT'}")
            for t, m in _metrics(bench):
                if t != trace:
                    continue
                values = [r["metrics"][m["name"]]["value"] for r in results]
                q1, med, q3 = quartiles(values)
                s = spread(values)
                bound = m.get("bound")
                flag = ""
                if bound is not None and s > bound / 3:
                    flag = "  SPREAD > bound/3" if s <= bound else "  SPREAD > bound"
                    steady = False
                bound_text = f"bound {bound:<5}" if bound is not None else ""
                lines.append(f"  {m['name']:36} {med:14.6g} {m['unit']:6} [{q1:.6g}, {q3:.6g}]  "
                             f"spread {s:7.2%}  {bound_text}{flag}")
    return lines, steady


def run_seconds(directory):
    with open(Path(directory) / "meta.json", encoding="utf-8") as fh:
        return json.load(fh)["seconds"]


def compare(parent_dir, change_dir, bench):
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    lines = []
    for w in bench["workloads"]:
        for trace, m in _metrics(bench):
            key = (w["name"], trace)
            if key not in parent or key not in change:
                continue
            p_runs, c_runs = parent[key], change[key]
            seeds = sorted(set(p_runs) & set(c_runs))
            if seeds:
                p_res, c_res = [p_runs[s] for s in seeds], [c_runs[s] for s in seeds]
            else:
                p_res, c_res = list(p_runs.values()), list(c_runs.values())
            p_vals = [r["metrics"][m["name"]]["value"] for r in p_res]
            c_vals = [r["metrics"][m["name"]]["value"] for r in c_res]
            v = verdict(p_vals, c_vals, m["better"], m.get("bound"))
            more_failed = sum(r["failed"] for r in c_res) > sum(r["failed"] for r in p_res)
            lines.append(f"{w['name']:20} {m['name']:36} parent {statistics.median(p_vals):12.6g}  "
                         f"change {statistics.median(c_vals):12.6g} {m['unit']:6} {v}"
                         f"{'  (more failures)' if more_failed else ''}")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 1
    bench = load_benchmark()
    if len(argv) == 1:
        lines, steady = summary(argv[0], bench)
        print("\n".join(lines))
        return 0 if steady else 3
    lengths = run_seconds(argv[0]), run_seconds(argv[1])
    if lengths[0] != lengths[1]:
        print(f"error: runs of {lengths[0]} s and {lengths[1]} s cannot be compared", file=sys.stderr)
        return 1
    print("\n".join(compare(argv[0], argv[1], bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
