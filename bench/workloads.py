"""The benchmark's workloads: seeded inputs, op lists, checks and the timed loop.

`run.py` starts this file as one child process per run:

    python3 bench/workloads.py --workload W --seed N --seconds S --trace 0|1
                               [--setup-only] [--tiny]

Every op is one CLI command (`solve`, `compare`, `estimate-marginal`,
`sample`) run through `isingmax.cli.main` in this process.  Its output
file is read back and checked through the public API; an op that raises,
exits nonzero, hits the address-space cap or the op timeout, or fails a
check is a failed op.

The child talks to its parent through stdout lines that start with
"@bench ": one "ready" line when set-up is done, one "op" line per
finished op and one "summary" line at the end.
"""

import argparse
import csv
import gc
import json
import math
import os
import shutil
import signal
import sys
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import isingmax  # noqa: E402

if not Path(isingmax.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"isingmax must come from {SRC}, not {isingmax.__file__}")

from isingmax import cli, exact, graph, influence, model  # noqa: E402
from isingmax.model import IsingModel, WeightVector  # noqa: E402

from spans import Tracer  # noqa: E402

WORKLOADS = ("sparse_k2", "deep_ball", "small_batch", "glauber")

# Op counts and input sizes.  TINY is for the benchmark's own smoke test.
SIZES = {
    "sparse_k2": {"n": 120, "instances": 4},
    "deep_ball": {"n": 32, "instances": 2},
    "small_batch": {"batches": 1, "gen": 20, "n": 12, "marginals": 2,
                    "marginal_n": 16, "tolerance": 0.05},
    "glauber": {"components": 12, "size": 16, "pinnings": 16, "samples": 300,
                "burn_in": 5000},
}
TINY = {
    "sparse_k2": {"n": 14, "instances": 1},
    "deep_ball": {"n": 26, "instances": 1},
    "small_batch": {"batches": 1, "gen": 2, "n": 8, "marginals": 1,
                    "marginal_n": 8, "tolerance": 0.1},
    "glauber": {"components": 2, "size": 8, "pinnings": 3, "samples": 40,
                "burn_in": 200},
}

OP_TIMEOUT_S = 60.0
TOL = 1e-9
Z_MAX = 4.0          # a sample estimate must lie within 4 se of the exact value
# Once this many distinct estimates have run (the full-size op list), their
# mean z^2 must stay at most Z2_POOL_MAX.  It is about 1.1 for correct error
# bars from 20 batch means, and 4 or more when the bars are half as wide as
# they should be.
Z2_POOL_MIN = 16
Z2_POOL_MAX = 4.0


class CheckFailed(Exception):
    """An op's output disagrees with the value recomputed through the API."""


class OpTimeout(Exception):
    """An op ran longer than OP_TIMEOUT_S."""


@dataclass
class Op:
    kind: str
    argv: list
    # What the output is checked against, computed once before any op is
    # timed, so that the checks' own work does not disturb the timed ops.
    expected: Callable[[], object]
    # check(expected value) raises CheckFailed; returns extra record fields.
    check: Callable[[object], dict]


@dataclass
class Instance:
    """A model file written in set-up, with the model it holds."""

    path: Path
    model: IsingModel
    weights: WeightVector


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def regular_graph(n, degree, rng):
    """Edges of a random `degree`-regular graph on n vertices (n even if degree is odd).

    A union of degree//2 random Hamiltonian cycles, plus a random perfect
    matching for odd degree; draws that repeat an edge are redrawn.  Regular
    graphs keep ball sizes, and so the work per op, nearly equal across seeds.
    """
    while True:
        pairs = []
        for _ in range(degree // 2):
            p = rng.permutation(n)
            pairs += zip(p, np.roll(p, -1))
        if degree % 2:
            p = rng.permutation(n)
            pairs += zip(p[::2], p[1::2])
        edges = {(int(min(u, v)), int(max(u, v))) for u, v in pairs}
        if len(edges) == len(pairs):
            return sorted(edges)


def short_cycle_vertices(adj):
    """Vertices on a cycle of length 3 or 4, for adjacency sets `adj`."""
    bad = set()
    for v, nv in enumerate(adj):
        via = set()
        for u in nv:
            for w in adj[u] - {v}:
                if w in nv or w in via:
                    bad.add(v)
                via.add(w)
    return bad


def _swap(adj, old, new):
    for a, b in old:
        adj[a].discard(b)
        adj[b].discard(a)
    for a, b in new:
        adj[a].add(b)
        adj[b].add(a)


def girth5_regular_graph(n, degree, rng, max_tries=100_000):
    """Edges of a random `degree`-regular graph with no cycle shorter than 5.

    Starts from `regular_graph` and swaps edge pairs (v-u, x-y -> v-x, u-y)
    at vertices on short cycles, keeping a swap unless it adds short-cycle
    vertices.  Every radius-2 ball then has exactly 1 + d + d(d-1) vertices.
    """
    adj = [set() for _ in range(n)]
    for u, v in regular_graph(n, degree, rng):
        adj[u].add(v)
        adj[v].add(u)
    bad = short_cycle_vertices(adj)
    for _ in range(max_tries):
        if not bad:
            return sorted((u, v) for u in range(n) for v in adj[u] if u < v)
        v = sorted(bad)[rng.integers(len(bad))]
        u = sorted(adj[v])[rng.integers(degree)]
        x = int(rng.integers(n))
        y = sorted(adj[x])[rng.integers(degree)]
        if len({v, u, x, y}) < 4 or x in adj[v] or y in adj[u]:
            continue
        _swap(adj, ((v, u), (x, y)), ((v, x), (u, y)))
        after = short_cycle_vertices(adj)
        if len(after) <= len(bad):
            bad = after
        else:
            _swap(adj, ((v, x), (u, y)), ((v, u), (x, y)))
    raise RuntimeError(f"no girth-5 {degree}-regular graph on {n} vertices found")


def regular_instance(n, degree, beta, seed, components=1, girth5=False):
    """`components` disjoint random regular graphs of n vertices each.

    Couplings are uniform in [-beta, beta], fields in [-0.5, 0.5] and
    weights in [-1, 1].
    """
    rng = np.random.default_rng(seed)
    graph_of = girth5_regular_graph if girth5 else regular_graph
    edges = []
    for c in range(components):
        edges += [(u + c * n, v + c * n) for u, v in graph_of(n, degree, rng)]
    total = n * components
    couplings = {e: float(b) for e, b in zip(edges, rng.uniform(-beta, beta, len(edges)))}
    return (IsingModel(n=total, beta=couplings, h=rng.uniform(-0.5, 0.5, total)),
            WeightVector(rng.uniform(-1.0, 1.0, total)))


def write_instance(work, name, m, w):
    """Write a model file and load it back, as a user of the CLI would."""
    path = work / f"{name}.json"
    model.save_model(path, m, w)
    m, w = model.load_model(path)
    return Instance(path=path, model=m, weights=w)


def seeds(seed, count):
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, count)]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def reference_optimum(m, w, k, r):
    """Best local objective over pinnings of at most k <= 2 vertices.

    Scored without the solver: every single vertex and every pair within
    distance 2r+1 is scored by its own local influence; a pair farther
    apart has disjoint, edge-free balls, so it scores the sum of its
    singles.  The empty pinning scores 0.
    """
    if k > 2:
        raise ValueError("the reference covers budgets k <= 2")
    near = [graph.bfs_distances(m, [u], limit=2 * r + 1) for u in range(m.n)]
    single, best = [], 0.0
    for u in range(m.n):
        ev = influence.InfluenceEvaluator(m, w)  # one per vertex: tables are freed
        single.append(max(ev.local_influence((u,), {u: s}, r) for s in (1, -1)))
        best = max(best, single[u])
        if k == 2:
            for v in range(u + 1, m.n):
                if near[u][v] != -1:
                    for su, sv in product((1, -1), repeat=2):
                        best = max(best, ev.local_influence((u, v), {u: su, v: sv}, r))
    if k == 2:
        order = sorted(range(m.n), key=lambda v: -single[v])
        for i, u in enumerate(order):
            far = next((v for v in order[i + 1:] if near[u][v] == -1), None)
            if far is not None:
                best = max(best, single[u] + single[far])
    return best


def check_solve(out, inst, k, r, reference, recorded):
    sol = json.loads(out.read_text())["solution"]
    S = tuple(sol["S_hat"])
    sigma = {v: s for v, s in sol["sigma_hat"]}
    if sol["radius_used"] != r or len(S) > k or set(sigma) != set(S):
        raise CheckFailed(f"malformed solution {sol['S_hat']} at radius {sol['radius_used']}")
    value = influence.InfluenceEvaluator(inst.model, inst.weights).local_influence(
        S, sigma, r) if S else 0.0
    if abs(value - sol["local_value"]) > TOL:
        raise CheckFailed(f"local_value {sol['local_value']!r} but recomputed {value!r}")
    if recorded is not None and abs(reference - recorded) > TOL:
        raise CheckFailed(f"reference optimum {reference!r} differs from recorded {recorded!r}")
    if sol["local_value"] < reference - TOL:
        raise CheckFailed(f"local_value {sol['local_value']!r} below the reference "
                          f"optimum {reference!r}")
    return {}


def check_compare(out, count):
    rows = list(csv.DictReader(out.open(newline="")))
    if len(rows) != count:
        raise CheckFailed(f"{len(rows)} rows for {count} instances")
    for row in rows:
        if not abs(float(row["gap"])) <= TOL:
            raise CheckFailed(f"{row['instance_id']}: gap {row['gap']} at r = diameter")
    return {}


def check_marginal(out, truth, v, slack):
    got = json.loads(out.read_text())["estimate"]["expectation"]
    if not abs(got - truth) <= slack:
        raise CheckFailed(f"E[X_{v}] estimate {got!r}, exact {truth!r}")
    return {}


def exact_influence(inst, pinning):
    """Global influence, one component at a time so one table is alive at once."""
    return sum(
        influence.InfluenceEvaluator(inst.model, inst.weights).global_influence(
            part, {v: pinning[v] for v in part})
        for part in ([v for v in sorted(pinning) if v in set(comp)]
                     for comp in graph.connected_components(inst.model))
        if part)


def check_sample(out, truth, key, pool):
    est = json.loads(out.read_text())["estimate"]
    value, se = est["influence"], est["stderr"]
    if not (math.isfinite(se) and se > 0):
        raise CheckFailed(f"standard error {se!r}")
    z = (value - truth) / se
    pool[key] = z * z  # keyed, so a rerun of the same op is pooled once
    if abs(z) > Z_MAX:
        raise CheckFailed(f"estimate {value!r} is {z:.2f} se from exact {truth!r}")
    mean_z2 = sum(pool.values()) / len(pool)
    if len(pool) >= Z2_POOL_MIN and mean_z2 > Z2_POOL_MAX:
        raise CheckFailed(f"pooled mean z^2 {mean_z2:.2f} over {len(pool)} estimates")
    return {"se": se}


# ---------------------------------------------------------------------------
# Set-up: one function per workload, returning its fixed op list
# ---------------------------------------------------------------------------


def _out(work, i, ext):
    return work / f"out{i}.{ext}"


SOLVE_BUDGET_RADIUS = {"sparse_k2": (2, 1), "deep_ball": (1, 2)}


def solve_inputs(workload, seed, size):
    """The (model, weights) pairs a solve workload runs on."""
    n = size["n"]
    inputs = []
    for s in seeds(seed, size["instances"]):
        if workload == "sparse_k2":
            inputs.append((model.random_instance(n, 3, (-0.4, 0.4), (-0.5, 0.5), s),
                           model.random_weights(n, (-1.0, 1.0), s + 1)))
        else:
            inputs.append(regular_instance(n, 4, 0.3, s, girth5=True))
    return inputs


def setup_solve(workload, work, seed, size):
    k, r = SOLVE_BUDGET_RADIUS[workload]
    ref = json.loads((Path(__file__).parent / "reference.json").read_text()).get(workload, {})
    recorded = ref["optima"].get(str(seed)) if ref.get("size") == size else None
    ops = []
    for i, (m, w) in enumerate(solve_inputs(workload, seed, size)):
        inst = write_instance(work, f"model{i}", m, w)
        out = _out(work, i, "json")
        ops.append(Op(
            "solve",
            ["solve", str(inst.path), "--k", str(k), "--radius", str(r), "--out", str(out)],
            lambda inst=inst: reference_optimum(inst.model, inst.weights, k, r),
            lambda ref, out=out, inst=inst, rec=None if recorded is None else recorded[i]:
                check_solve(out, inst, k, r, ref, rec),
        ))
    return ops


def setup_small_batch(workload, work, seed, size):
    batch_seeds = seeds(seed, size["batches"] * size["gen"] + size["marginals"])
    ops = []
    for i in range(size["batches"]):
        # Connected 3-regular models, so that the batch's cost does not
        # depend on how random graphs happened to split into components.
        paths = [str(write_instance(work, f"batch{i}-{j}", *regular_instance(
                     size["n"], 3, 0.4, batch_seeds[i * size["gen"] + j])).path)
                 for j in range(size["gen"])]
        out = _out(work, i, "csv")
        ops.append(Op(
            "compare",
            ["compare", *paths, "--k", "2", "--out", str(out)],
            lambda: None,
            lambda _, out=out: check_compare(out, size["gen"]),
        ))
    eps, tol = 0.01, size["tolerance"]
    for j, s in enumerate(batch_seeds[size["batches"] * size["gen"]:]):
        n = size["marginal_n"]
        inst = write_instance(work, f"model{j}", *regular_instance(n, 3, 0.4, s))
        v = s % n
        out = _out(work, len(ops), "json")
        ops.append(Op(
            "estimate-marginal",
            ["estimate-marginal", str(inst.path), "--vertex", str(v), "--k", "2",
             "--solver", "local", "--epsilon", str(eps), "--tolerance", str(tol),
             "--out", str(out)],
            lambda inst=inst, v=v: exact.expectation(exact.PinnedModel.make(inst.model), v),
            lambda truth, out=out, v=v: check_marginal(out, truth, v, eps + tol + TOL),
        ))
    return ops


def setup_glauber(workload, work, seed, size):
    rng = np.random.default_rng(seed)
    m, w = regular_instance(size["size"], 3, 0.4, int(rng.integers(2**31 - 1)),
                            components=size["components"])
    inst = write_instance(work, "model", m, w)
    pool = {}
    ops = []
    for i in range(size["pinnings"]):
        S = sorted(int(v) for v in rng.choice(m.n, size=int(rng.integers(1, 4)), replace=False))
        pinning = {v: int(s) for v, s in zip(S, rng.choice((1, -1), size=len(S)))}
        out = _out(work, i, "json")
        ops.append(Op(
            "sample",
            ["sample", str(inst.path), "--pin", ",".join(f"{v}:{s:+d}" for v, s in pinning.items()),
             "--samples", str(size["samples"]), "--burn-in", str(size["burn_in"]),
             "--seed", str(int(rng.integers(2**31 - 1))), "--out", str(out)],
            lambda pinning=pinning: exact_influence(inst, pinning),
            lambda truth, out=out, key=tuple(sorted(pinning.items())):
                check_sample(out, truth, key, pool),
        ))
    return ops


SETUP = {
    "sparse_k2": setup_solve,
    "deep_ball": setup_solve,
    "small_batch": setup_small_batch,
    "glauber": setup_glauber,
}


# ---------------------------------------------------------------------------
# The timed loop
# ---------------------------------------------------------------------------


def python_kernel():
    """Wall time of a fixed piece of interpreted work: integer loop and dict inserts."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(200_000):
        total += i * i % 7
        if i % 4 == 0:
            table[i] = (i, total)
    return time.perf_counter() - start


def numpy_kernel():
    """Wall time of fixed array work shaped like a joint-table build (2^16 x 16)."""
    start = time.perf_counter()
    bits = (np.arange(1 << 16, dtype=np.uint64)[:, None]
            >> np.arange(16, dtype=np.uint64)) & np.uint64(1)
    spins = 1.0 - 2.0 * bits
    h = np.linspace(-0.5, 0.5, 16)
    energy = spins @ h + (spins[:, :15] * spins[:, 1:]) @ h[:15]
    float(np.exp(energy - energy.max()) @ spins[:, 0])
    return time.perf_counter() - start


# The host's speed drifts by tens of percent over minutes, and not equally
# for interpreted and for array code.  Each workload times, next to every
# op, the reference kernel of the kind of work that dominates it, so that
# run.py can report its times at a fixed reference speed.  Values: the
# kernel and its time on the reference host (2-core x86-64 VM, Python 3.11).
REFERENCE_KERNELS = {"python": (python_kernel, 0.030), "numpy": (numpy_kernel, 0.015)}
KERNEL_OF = {"sparse_k2": "python", "deep_ball": "numpy",
             "small_batch": "python", "glauber": "python"}


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


def run_op(op, expected, threads, kernel, tracer=None, op_id=None):
    """Time `kernel`, run one CLI command and check its output; returns the op record.

    With a tracer, spans are recorded under `op_id` during the command only.
    """
    os.environ[cli.THREADS_ENV] = str(threads)
    error, extra = None, {}
    # A CLI command normally runs in a fresh process; collect the cyclic
    # garbage earlier ops left so that it neither inflates this op's peak
    # memory nor lands its collection cost on this op.
    gc.collect()
    ref = kernel()
    if tracer is not None:
        tracer.install()
        tracer.op = op_id
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    start = time.perf_counter()
    try:
        code = cli.main(op.argv)
    except (Exception, SystemExit) as exc:  # a failed op, whatever the cause
        code, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.op = None
            tracer.uninstall()
    if error is None and code != 0:
        error = f"exit code {code}"
    if error is None:
        try:
            if isinstance(expected, CheckFailed):
                raise expected
            extra = op.check(expected)
        except Exception as exc:  # a check that cannot run fails its op, not the run
            error = f"check failed: {type(exc).__name__}: {exc}"
    return {"kind": op.kind, "threads": threads, "wall": wall, "ref": ref,
            "ok": error is None, "error": error, **extra}


def measure(ops, seconds, emit, kernel, tracer=None, two_workers=False):
    """Repeat passes over `ops` until `seconds` of op time are spent.

    Untraced, a pass runs the op list with one worker and then, when
    `two_workers` is set, its compare ops with ISINGMAX_THREADS=2; the run
    stops at the first op boundary past `seconds`.  Traced, a pass runs the
    op list once untraced and once traced, so the two give the tracing
    overhead, and only whole passes run, so per-pass counts are exact.
    Returns the number of whole passes.
    """
    listed = list(enumerate(ops))
    if tracer is not None:
        sequence = [(*io, 1, False) for io in listed] + [(*io, 1, True) for io in listed]
    else:
        sequence = [(*io, 1, False) for io in listed] + [
            (*io, 2, False) for io in listed if two_workers and io[1].kind == "compare"]
    expected = []
    for op in ops:
        try:
            expected.append(op.expected())
        except Exception as exc:  # the op's output cannot be checked, so it fails
            expected.append(CheckFailed(f"no expected value: {type(exc).__name__}: {exc}"))
    spent, passes, op_id = 0.0, 0, 0
    while True:
        for index, op, threads, traced in sequence:
            rec = run_op(op, expected[index], threads, kernel, tracer if traced else None, op_id)
            spent += rec["wall"]
            emit("op", {"id": op_id, "index": index, "pass": passes, "traced": traced, **rec})
            op_id += 1
            if tracer is None and spent >= seconds:
                return passes
        passes += 1
        if spent >= seconds:
            return passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    def emit(kind, payload):
        print("@bench " + json.dumps({"type": kind, **payload}), flush=True)

    signal.signal(signal.SIGALRM, _on_alarm)
    size = (TINY if args.tiny else SIZES)[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
            tracer.op = "setup"
        ops = SETUP[args.workload](args.workload, work, args.seed, size)
        if tracer is not None:
            tracer.op = None
            tracer.uninstall()
        kind = KERNEL_OF[args.workload]
        kernel, nominal = REFERENCE_KERNELS[kind]
        emit("ready", {"at": time.monotonic(), "kernel": kind, "kernel_nominal_s": nominal})
        if args.setup_only:
            return 0
        passes = measure(ops, args.seconds, emit, kernel, tracer,
                         two_workers=args.workload == "small_batch")
        summary = {"passes": passes}
        if tracer is not None:
            metrics, layers = tracer.layer_metrics(passes)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(spans)
            summary.update(per_layer=metrics, layer_self_s=layers,
                           self_time_error_s=tracer.op_balance(),
                           spans=str(spans.relative_to(ROOT)), span_count=len(tracer.spans))
        emit("summary", summary)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
