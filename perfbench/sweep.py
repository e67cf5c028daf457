"""Run the benchmark over seeds and workloads and keep every result.

    python3 perfbench/sweep.py --out .perfbench/results/NAME [--seeds 1-10] [--trace 0]

Every workload of BENCHMARK.json runs for its run_seconds. Seeds are the
outer loop, so slow drift of the machine falls on every workload alike.
Each run's last output line goes into NAME/runs.jsonl, the machine and
Python metadata and the run length into NAME/meta.json, and the summary of
compare.py is printed at the end: every metric by name with its unit, its
median, quartiles and spread over the seeds, and the fail ratio. Exits 3
when a spread is above a third of its metric's bound.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import compare

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    bench = compare.load_benchmark()
    parser = argparse.ArgumentParser(description="Run the benchmark over seeds and workloads.")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10 or 7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    args.out.mkdir(parents=True, exist_ok=True)
    meta = {
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "seconds": seconds,
    }
    (args.out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    with open(args.out / "runs.jsonl", "a", encoding="utf-8") as log:
        for seed in args.seeds:
            for workload in workloads:
                cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
                if proc.returncode != 0:
                    print(proc.stdout + proc.stderr, file=sys.stderr)
                    return proc.returncode
                result = json.loads(proc.stdout.splitlines()[-1])
                record = {"workload": workload, "seed": seed, "trace": args.trace, "result": result}
                log.write(json.dumps(record) + "\n")
                log.flush()
                print(f"seed {seed} {workload}: correct {result['correct']}", file=sys.stderr)
    lines, steady = compare.summary(args.out, bench)
    print("\n".join(lines))
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
