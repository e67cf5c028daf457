"""Benchmark of the modrsa CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload decrypt-stream --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is taken from its `src/`,
and the metric names and units from its BENCHMARK.json. With --trace 0
the run times cold `python -m modrsa` child processes, one at a time in a
closed loop, for --seconds, running each command once on every CPU, and
reports the end-to-end metrics. With --trace 1 the same inputs go
in-process through `modrsa.cli.run`, alternating untraced and traced
passes, and the run reports the per-layer metrics. Every output is
checked against an answer computed without modrsa. Human-readable lines
come first; the last line of standard output is one JSON object: correct,
attempted, failed, metrics.
Scratch files live in `.perfbench/` under the checkout root.
"""

import argparse
import importlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import compare
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

SETUP_EVERY_S = 1.0         # a timed run repeats the set-up this often; setup_s is the median
STARTUP_PROBES = 7          # interpreter and import probes per traced run
CHILD_TIMEOUT_S = 60.0      # a child still running after this is killed and failed


def _child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def spawn(argv, stdin_path, out_path, err_path, env):
    """Run argv to completion: (exit code, wall seconds, max RSS in KiB).

    The child reads stdin from a file and writes its output to files, so
    this process does no I/O for it while it runs.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, stdin_path or os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        fd = os.pidfd_open(pid)
        try:
            if not select.select([fd], [], [], CHILD_TIMEOUT_S)[0]:
                os.kill(pid, signal.SIGKILL)
        finally:
            os.close(fd)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss


class Children:
    """Runs `python -m modrsa` invocations of a plan and checks their output."""

    def __init__(self, plan, workdir):
        self.plan = plan
        self.out = str(workdir / "stdout.txt")
        self.err = str(workdir / "stderr.txt")
        self.env = _child_env()

    def run(self, inv):
        """(wall seconds, values failed, max RSS KiB) for one invocation."""
        inv.clear_files()
        argv = [sys.executable, "-m", "modrsa", *inv.argv]
        code, wall, rss = spawn(argv, inv.stdin_path, self.out, self.err, self.env)
        failed = workloads.count_failed(self.plan, inv, code, _read(self.out), _read(self.err))
        return wall, failed, rss


class SetUps:
    """Timed set-ups of one workload: inputs, answers and key files in a fresh workdir.

    Successive set-ups run in turn on each CPU, for the reason given in
    timed_run.
    """

    def __init__(self, workload, seed, sizes, cpus):
        self.workload, self.seed, self.sizes, self.cpus = workload, seed, sizes, cpus
        self.seconds, self.attempted, self.failed = [], 0, 0

    def __call__(self, workdir):
        """A set-up in `workdir`; returns its plan."""
        os.sched_setaffinity(0, {self.cpus[len(self.seconds) % len(self.cpus)]})
        try:
            shutil.rmtree(workdir, ignore_errors=True)
            start = time.perf_counter()
            workdir.mkdir(parents=True)
            plan = workloads.build(self.workload, self.seed, str(workdir), self.sizes)
            children = Children(plan, workdir)
            self.failed += sum(children.run(inv)[1] for inv in plan.setup)
            self.seconds.append(time.perf_counter() - start)
        finally:
            os.sched_setaffinity(0, self.cpus)
        # each set-up keygen counts as one item
        self.attempted += len(plan.setup)
        return plan


def _quantiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0]
    cuts = statistics.quantiles(samples, n=10, method="inclusive")
    return cuts[4], cuts[8]


def timed_run(plan, workdir, seconds, set_up, setup_dir):
    """Closed loop of cold child processes for `seconds`; end-to-end figures.

    Each command of the plan runs once on every CPU this process may use,
    one child at a time, and its latency sample is the mean wall time of
    those runs. On a shared host the CPUs are unequally contended from
    minute to minute; letting the scheduler place the children would make
    the mix of fast and slow CPUs in a run, and with it the run's median,
    a matter of chance. Commands run in whole decks, so every run holds
    the plan's mix; a deck that would end past the deadline is not begun.
    Between commands, about every SETUP_EVERY_S, the set-up is repeated in
    `setup_dir`, so the set-up times span the run as the latencies do.
    """
    children = Children(plan, workdir)
    cpus = sorted(os.sched_getaffinity(0))
    samples, rss_kib = [], []
    attempted = failed = busy = decks = 0
    start = next_setup = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - start
            if decks and elapsed + elapsed / decks > seconds:
                break
            for _ in range(plan.deck):
                k = len(samples)
                inv = plan.timed[k % len(plan.timed)]
                walls = []
                for cpu in cpus[k % len(cpus):] + cpus[:k % len(cpus)]:
                    os.sched_setaffinity(0, {cpu})
                    wall, bad, rss = children.run(inv)
                    walls.append(wall)
                    rss_kib.append(rss)
                    attempted += inv.values
                    failed += bad
                busy += sum(walls)
                samples.append(statistics.fmean(walls))
                if time.perf_counter() >= next_setup:
                    set_up(setup_dir)
                    next_setup = time.perf_counter() + SETUP_EVERY_S
            decks += 1
    finally:
        os.sched_setaffinity(0, cpus)
    p50, p90 = _quantiles(samples)
    metrics = {
        "values_per_s": attempted / busy,
        "latency_ms_p50": p50 * 1e3,
        "latency_ms_p90": p90 * 1e3,
        "peak_rss_mib": max(rss_kib) / 1024,
    }
    runs = (f"{len(samples)} samples in {decks} decks of {plan.deck}, "
            f"each the mean of one run on each of {len(cpus)} CPUs")
    notes = {
        "values_per_s": f"{attempted} values over {len(rss_kib)} invocations, spawn to exit",
        "latency_ms_p50": runs,
        "latency_ms_p90": f"{runs}, {sum(w > p90 for w in samples)} above",
        "peak_rss_mib": f"largest child max RSS (wait4) of {len(rss_kib)} invocations",
    }
    return metrics, notes, attempted, failed


def startup_probes(workdir):
    """Median wall of `python -c pass`, and median modrsa import time from -X importtime."""
    env = _child_env()
    out, err = str(workdir / "stdout.txt"), str(workdir / "stderr.txt")
    bare, imports = [], []
    for _ in range(STARTUP_PROBES):
        _, wall, _ = spawn([sys.executable, "-c", "pass"], None, out, err, env)
        bare.append(wall * 1e3)
        spawn([sys.executable, "-X", "importtime", "-c", "import modrsa.cli"], None, out, err, env)
        imports.append(_import_ms(_read(err)))
    return statistics.median(bare), statistics.median(imports)


def _import_ms(importtime_log):
    """Cumulative time of the top-level modrsa imports in an -X importtime log."""
    total_us = 0
    for line in importtime_log.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].startswith(" modrsa") and fields[1].strip().isdigit():
            total_us += int(fields[1])
    return total_us / 1e3


def traced_run(plan, workdir, seconds, spans_path, units):
    """Startup probes, then untraced and traced in-process passes, alternating."""
    deadline = time.perf_counter() + seconds
    interpreter_ms, import_ms = startup_probes(workdir)
    sys.path.insert(0, str(ROOT / "src"))
    package = importlib.import_module("modrsa")
    importlib.import_module("modrsa.cli")

    # a first untraced pass fills the caches the later ones find warm
    _, attempted, failed = tracing.run_pass(package, plan)
    plain_s, traced_s, per_pass = [], [], []
    while not per_pass or time.perf_counter() < deadline:
        wall, a, f = tracing.run_pass(package, plan)
        plain_s.append(wall)
        tracer = tracing.Tracer()
        patches = tracing.Patches(package, tracer)
        try:
            wall, a2, f2 = tracing.run_pass(package, plan, tracer)
        finally:
            patches.undo()
        traced_s.append(wall)
        per_pass.append(tracing.pass_metrics(tracer, units))
        attempted += a + a2
        failed += f + f2
    tracing.write_spans(spans_path, tracer.spans)

    metrics = {"startup.interpreter_ms": interpreter_ms, "startup.import_ms": import_ms}
    for name in per_pass[0]:
        # counts repeat exactly from pass to pass; times take the median
        exact = units[name] == "count"
        metrics[name] = per_pass[-1][name] if exact else statistics.median(p[name] for p in per_pass)
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
    notes = {"trace.overhead_ratio": f"{len(per_pass)} traced and untraced passes; spans in {spans_path}"}
    return metrics, notes, attempted, failed


def _read(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def measure(workload, seed, seconds, trace, sizes=workloads.FULL):
    """One run: (result object, report lines)."""
    workdir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    setup_dir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}-setup"
    bench = compare.load_benchmark()
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    cpus = sorted(os.sched_getaffinity(0))
    try:
        # the first child writes the bytecode cache an installed package would have
        WORK.mkdir(exist_ok=True)
        spawn([sys.executable, "-m", "modrsa", "reduce", "1", "2"], None,
              os.devnull, os.devnull, _child_env())
        set_up = SetUps(workload, seed, sizes, cpus)
        plan = set_up(workdir)
        if trace:
            spans_path = WORK / f"spans-{workload}-seed{seed}.tsv"
            metrics, notes, attempted, failed = traced_run(plan, workdir, seconds, spans_path, units)
        else:
            metrics, notes, attempted, failed = timed_run(plan, workdir, seconds, set_up, setup_dir)
            metrics["setup_s"] = statistics.median(set_up.seconds)
            notes["setup_s"] = (f"median of {len(set_up.seconds)} set-ups over the run, "
                                f"in turn on {len(cpus)} CPUs")
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(setup_dir, ignore_errors=True)
    attempted += set_up.attempted
    failed += set_up.failed
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report = [
        f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}",
        f"inputs: {plan.shape}",
        f"python {platform.python_version()} ({platform.python_implementation()}) on "
        f"{platform.platform()}, {platform.machine()}, {os.cpu_count()} cpus",
    ]
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        report.append(f"{name:36} {metrics[name]:14.6g} {unit}{note}")
    report.append(f"{'fail_ratio':36} {failed / attempted:14.6g}  ({failed} of {attempted})")
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark the modrsa CLI on one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "modrsa" / "__main__.py").is_file():
        print(f"error: no modrsa package under {ROOT / 'src'}; run from a modrsa checkout",
              file=sys.stderr)
        return 2
    result, report = measure(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
