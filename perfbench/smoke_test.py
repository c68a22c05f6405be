#!/usr/bin/env python3
"""Smoke test of the benchmark at minimal size.

Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload it runs `run.py` twice untraced and once traced with 4
units per pass, and asserts that every metric BENCHMARK.json names is
printed with its unit, that the benchmark's correctness checks pass, and
that the same seed gives identical counts (candidates, skips, trainings,
cache hits, iterations) and an identical `ok_ratio`.
"""

import json
import subprocess
import sys

SEED = 5
UNITS = 4


def run(workload, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "10", "--trace", str(trace), "--units", str(UNITS)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600)
    assert proc.returncode == 0, f"{cmd} failed:\n{proc.stderr[-2000:]}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diagnostics = json.loads(lines[0])["diagnostics"]
    return result, diagnostics


def check_metrics(result, expected, what):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] is True, f"{what}: checks failed"
    assert result["attempted"] >= 1 and result["failed"] == 0, what
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (
        f"{what}: missing {set(expected) - set(metrics)}, extra {set(metrics) - set(expected)}")
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, f"{what}: {name} unit {metrics[name]['unit']}"
        assert isinstance(metrics[name]["value"], (int, float)), f"{what}: {name}"


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        first, first_diag = run(workload, 0)
        second, second_diag = run(workload, 0)
        check_metrics(first, end_to_end, f"{workload} untraced")
        check_metrics(second, end_to_end, f"{workload} untraced (repeat)")
        for (name, ok) in ((c["check"], c["ok"]) for c in first_diag["checks"]):
            assert ok, f"{workload}: check failed: {name}"
        assert first_diag["counts"] == second_diag["counts"], (
            f"{workload}: counts differ for one seed: {first_diag['counts']} vs "
            f"{second_diag['counts']}")
        assert first["metrics"]["ok_ratio"] == second["metrics"]["ok_ratio"], workload
        traced, _ = run(workload, 1)
        check_metrics(traced, per_layer, f"{workload} traced")
        print(f"{workload}: ok ({first_diag['counts']})")
    print("smoke test passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as error:
        print(f"smoke test failed: {error}", file=sys.stderr)
        sys.exit(1)
