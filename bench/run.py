"""The isingmax benchmark: one workload, one run, every metric by name and unit.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a source tree and measures the package under
`src/`.  The workload runs in a child process (`workloads.py`) under an
address-space cap and a timeout.  With `--trace 0` the run reports the
end-to-end metrics; with `--trace 1` it reports the per-layer metrics of
a traced run, timed from outside around each module's public functions.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.

Seed 1 is the main seed and seed 2 the held-out seed; `reference.json`
records the solve workloads' reference optima for both.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "workloads.py"

MAIN_SEED, HELDOUT_SEED = 1, 2
AS_LIMIT_BYTES = 4 << 30
CHILD_TIMEOUT_S = 140
SETUP_TIMEOUT_S = 20
SETUP_REPEATS = 5    # set-ups per run; setup_s is their median
TARGET_SE = 0.05     # time_to_se_s scales sampling time to this standard error

# name -> (unit, better) for every end-to-end metric, including the ones
# only some workloads have and fail_ratio, which is 0 on a healthy run.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "fail_ratio": ("ratio", "lower"),
    "ops_per_s_2w": ("1/s", "higher"),
    "time_to_se_s": ("s", "lower"),
    "ops_per_s_1w_compare": ("1/s", "higher"),
}


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT_BYTES, AS_LIMIT_BYTES))


def run_child(args, extra, timeout):
    """Run workloads.py; returns (records, its "ready" record, stderr).

    The ready record's "setup_s" is the time from spawn to ready.
    """
    env = {k: v for k, v in os.environ.items() if k != "ISINGMAX_THREADS"}
    cmd = [sys.executable, str(CHILD), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            preexec_fn=limit_address_space)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nchild killed after the {timeout} s timeout"
    if proc.returncode != 0:
        err += f"\nchild exited with code {proc.returncode}"
    records = [json.loads(line[len("@bench "):]) for line in out.splitlines()
               if line.startswith("@bench ")]
    ready = next((r for r in records if r["type"] == "ready"), None)
    if ready is not None:
        ready["setup_s"] = ready["at"] - spawned
    return records, ready, err if proc.returncode != 0 else ""


def list_rate(ops):
    """Completed ops per second over the fixed op list.

    The op list's time is the sum of each listed op's mean wall time, so
    the rate does not depend on where in a pass the run stopped; it is
    scaled by the share of ops that completed.
    """
    walls = {}
    for r in ops:
        walls.setdefault(r["index"], []).append(r["wall"])
    list_time = sum(statistics.fmean(w) for w in walls.values())
    return sum(r["ok"] for r in ops) / len(ops) * len(walls) / list_time


def end_to_end(ops, setups, rss_mb):
    """End-to-end metrics from the op records of an untraced run, unscaled."""
    main = [r for r in ops if r["threads"] == 1]
    two = [r for r in ops if r["threads"] == 2]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": list_rate(main),
        "op_p50_s": statistics.median(r["wall"] for r in main),
        "peak_rss_mb": rss_mb,
    }
    if two:
        metrics["ops_per_s_2w"] = list_rate(two)
        metrics["ops_per_s_1w_compare"] = list_rate([r for r in main if r["kind"] == "compare"])
    sampled = [r for r in main if "se" in r]
    if sampled:
        mean_se2 = statistics.fmean(r["se"] ** 2 for r in sampled)
        mean_wall = statistics.fmean(r["wall"] for r in sampled)
        metrics["time_to_se_s"] = mean_wall * mean_se2 / TARGET_SE**2
    return metrics


def at_reference_speed(name, value, speed):
    """`value`, measured on a host `speed` times as fast as the reference, at reference speed."""
    unit = END_TO_END[name][0]
    return value * speed if unit == "s" else value / speed if unit == "1/s" else value


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, default=MAIN_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "isingmax" / "__init__.py").is_file():
        print(f"error: no isingmax source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tiny = ["--tiny"] if args.tiny else []

    records, ready, err = run_child(args, tiny, CHILD_TIMEOUT_S)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if err:
        print(err.strip()[-4000:], file=sys.stderr)
    ops = [r for r in records if r["type"] == "op"]
    summary = next((r for r in records if r["type"] == "summary"), None)
    if not ops:
        print("error: the workload ran no op", file=sys.stderr)
        return 1
    # An op in flight when the child died is a failed op, not a dropped one.
    attempted = len(ops) + (summary is None)
    failed = sum(not r["ok"] for r in ops) + (summary is None)
    for r in ops:
        if not r["ok"]:
            print(f"failed op {r['id']} ({r['kind']}): {r['error']}", file=sys.stderr)

    print(f"isingmax benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    untraced = [r for r in ops if not r["traced"]]
    if args.trace == 0:
        setups = [ready["setup_s"]]
        for _ in range(SETUP_REPEATS - 1):
            _, again, setup_err = run_child(args, [*tiny, "--setup-only"], SETUP_TIMEOUT_S)
            if again is None:
                print(setup_err.strip()[-2000:], file=sys.stderr)
                return 1
            setups.append(again["setup_s"])
        raw = end_to_end(untraced, setups, rss_mb)
        raw["fail_ratio"] = failed / attempted
        # Times are reported at a fixed host speed: the host's speed drifts
        # by tens of percent over minutes, and the reference kernel timed
        # next to each op measures that drift (see workloads.py).
        kernel_s = statistics.median(r["ref"] for r in untraced)
        speed = ready["kernel_nominal_s"] / kernel_s  # < 1: slower than the reference
        metrics = {name: at_reference_speed(name, v, speed) for name, v in raw.items()}
        for name, value in metrics.items():
            unit, better = END_TO_END[name]
            print(f"  {name} = {value!r} {unit} ({better} is better; raw {raw[name]!r})")
        print(f"  ({sum(r['threads'] == 1 for r in untraced)} ops at 1 worker; "
              f"setup_s is the median of {len(setups)} set-ups; {ready['kernel']} reference "
              f"kernel {kernel_s:.4f} s against {ready['kernel_nominal_s']} s, so times are "
              f"scaled by {speed:.3f})")
        listed = spec["end_to_end"]
    else:
        metrics = summary["per_layer"] if summary else {}
        if summary:
            # Each side at reference speed, so host drift between the
            # untraced and the traced passes does not pass for overhead.
            traced = [r for r in ops if r["traced"]]
            overhead = (sum(r["wall"] for r in traced) / statistics.median(r["ref"] for r in traced)) \
                / (sum(r["wall"] for r in untraced) / statistics.median(r["ref"] for r in untraced)) - 1.0
            for m in spec["per_layer"]:
                print(f"  {m['name']} = {metrics[m['name']]!r} {m['unit']}")
            print("  self time per layer and pass: " + ", ".join(
                f"{k} {v:.4g} s" for k, v in summary["layer_self_s"].items()))
            print(f"  tracing overhead = {overhead!r} (traced / untraced op time - 1, at "
                  f"reference speed, {summary['passes']} pass pairs)")
            print(f"  largest |sum of self times under an op - op wall time| = "
                  f"{summary['self_time_error_s']!r} s")
            print(f"  {summary['span_count']} spans written to {summary['spans']}")
        listed = spec["per_layer"]
    # Self times under an op telescope to its wall time; more than roundoff
    # apart means the spans do not nest and the layer split is wrong.
    nested = summary is None or summary.get("self_time_error_s", 0.0) <= 1e-9
    result = {
        "correct": failed == 0 and nested,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 0 if summary is not None else 1


if __name__ == "__main__":
    sys.exit(main())
