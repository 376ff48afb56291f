"""Smoke test of the benchmark itself, at tiny sizes.

    python3 bench/smoke_test.py

Checks that every workload, untraced and traced, finishes with no failed
op and emits every metric BENCHMARK.json names, with its unit; that the
report lines name the end-to-end metrics kept out of the final JSON line;
that a wrong answer planted through a wrapped function is counted as a
failed op; and that the benchmark refuses to run without a source tree.
Exits nonzero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from isingmax import estimate, solver
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORT_ONLY = {"small_batch": ["ops_per_s_2w", "fail_ratio"],
               "glauber": ["time_to_se_s", "fail_ratio"]}


def bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_emitted(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}, result["metrics"]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float), (m, got)
    if not trace:
        for name in REPORT_ONLY.get(workload, ["fail_ratio"]):
            assert any(line.strip().startswith(f"{name} = ") for line in lines), name
    else:
        assert any("tracing overhead" in line for line in lines), lines


def _no_pinning(H, k):
    return []


def _shifted_oracle(original):
    def planted(*args, **kwargs):
        sol = original(*args, **kwargs)
        sol.global_value += 0.5
        return sol
    return planted


def _shifted_estimate(original):
    def planted(*args, **kwargs):
        value, se = original(*args, **kwargs)
        return value + 10.0 * se + 1.0, se
    return planted


# workload -> (owner, attribute, wrapper returning a wrong answer)
PLANTS = {
    "sparse_k2": (solver, "budgeted_mwis", lambda original: _no_pinning),
    "deep_ball": (solver, "budgeted_mwis", lambda original: _no_pinning),
    "small_batch": (solver, "brute_force_infmax", _shifted_oracle),
    "glauber": (estimate, "estimate_influence", _shifted_estimate),
}


def check_planted(workload):
    owner, attr, plant = PLANTS[workload]
    records = []
    work = ROOT / ".bench_work" / f"smoke-{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    patcher = Tracer()
    try:
        ops = workloads.SETUP[workload](workload, work, 1, workloads.TINY[workload])
        patcher.patch(owner, attr, plant(getattr(owner, attr)))
        workloads.measure(ops, 0.0, lambda kind, rec: records.append(rec),
                          workloads.python_kernel)
    finally:
        patcher.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(not r["ok"] for r in records)
    assert failed > 0, f"planted wrong answer in {attr} went unnoticed"
    print(f"  planted {attr}: {failed}/{len(records)} ops failed, as they should")


def check_refuses_without_source():
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("sparse_k2", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main():
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_emitted(workload, trace)
        print(f"{workload}: every metric emitted with its unit, traced and untraced")
        check_planted(workload)
    check_refuses_without_source()
    print("without a source tree the benchmark exits nonzero and prints no result")
    print("smoke test passed")


if __name__ == "__main__":
    main()
