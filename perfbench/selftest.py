"""Toy-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at toy size, timed and traced, and checks the result
schema against BENCHMARK.json and that no output was wrong; checks that the
output checker does count a wrong value; and checks that run.py fails,
printing no result, in a directory without the modrsa sources. Exits 0
when all of that holds.
"""

import math
import shutil
import subprocess
import sys

import compare
import run
import workloads

FAILURES = []


def expect(condition, message):
    if not condition:
        FAILURES.append(message)


def check_result(label, result, units):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(type(result["attempted"]) is int and result["attempted"] >= 1, f"{label}: attempted")
    expect(result["failed"] == 0 and result["correct"] is True,
           f"{label}: fail_ratio {result['failed']}/{result['attempted']}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    expect(got == units, f"{label}: metric names or units differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        value = m.get("value")
        expect(set(m) == {"value", "unit"} and isinstance(value, (int, float)) and math.isfinite(value),
               f"{label}: {name} is not a finite number")


def test_toy_runs(bench):
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "workloads differ from BENCHMARK.json")
    for w in bench["workloads"]:
        for trace, units in ((0, end_to_end), (1, per_layer)):
            result, report = run.measure(w["name"], 1, 0.2, trace, workloads.TOY)
            check_result(f"{w['name']} trace {trace}", result, units)
            expect(any(line.startswith("fail_ratio") for line in report), "report has no fail_ratio")
            if trace:
                metrics = result["metrics"]
                expect(metrics["cli.run.calls"]["value"] >= 1, f"{w['name']}: no cli.run span")
                expect(metrics["cli.run.self_ms"]["value"] <= metrics["cli.run.busy_ms"]["value"],
                       f"{w['name']}: self time above busy time")


def test_checker_counts_wrong_output():
    workdir = run.WORK / "selftest-checker"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        plan = workloads.build("decrypt-stream", 1, str(workdir), workloads.TOY)
        inv = plan.timed[0]
        lines = inv.stdout.splitlines()
        first = lines[0].split(",")
        first[3] = str(int(first[3]) + 1)
        wrong = "\n".join([",".join(first), *lines[1:]]) + "\n"
        expect(workloads.count_failed(plan, inv, 0, inv.stdout, "") == 0, "right output counted wrong")
        expect(workloads.count_failed(plan, inv, 0, wrong, "") == 1, "one wrong value not counted once")
        expect(workloads.count_failed(plan, inv, 2, "", "error: x") == inv.values,
               "an unexpected exit code does not fail every value")

        plan = workloads.build("cli-oneshot", 1, str(workdir), workloads.TOY)
        errors = [i for i in plan.timed if i.exit != 0]
        expect({i.exit for i in errors} == {1, 2}, "the deck lacks exit-1 or exit-2 cases")
        expect(workloads.count_failed(plan, errors[0], 0, "", "") == 1, "a missing error was accepted")
        answers = [i for i in plan.timed if i.exit == 0 and i.stdout]
        expect(workloads.count_failed(plan, answers[0], 0, answers[0].stdout + "x", "") == 1,
               "a wrong one-shot answer was accepted")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_refuses_without_sources():
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(compare.BENCHMARK, bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli-oneshot", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False)
        expect(proc.returncode != 0, "run.py succeeded without the modrsa sources")
        expect('"correct"' not in proc.stdout, "run.py printed a result without the modrsa sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    bench = compare.load_benchmark()
    test_toy_runs(bench)
    test_checker_counts_wrong_output()
    test_refuses_without_sources()
    for message in FAILURES:
        print(f"FAIL {message}")
    print("selftest ok" if not FAILURES else f"selftest: {len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
