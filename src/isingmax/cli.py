"""Command-line interface: solve, oracle, compare, sample, estimate-marginal, gen.

Reports are JSON with a fixed key order; batch comparisons emit CSV with a
fixed column order.  All numeric output uses shortest round-trip float
formatting, so full precision survives a diff.  Timing is nondeterministic
by nature and is therefore only written into artifacts under --timing;
default runs with fixed seeds are byte-identical.

Exit codes: 0 success, 2 input or validation failure, 3 exact-capacity
overrun, 4 non-convergence.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

from . import estimate, graph, reduction, solver
from .errors import CapacityError, ConvergenceError, ModelFormatError
from .model import (
    FamilyParams,
    IsingModel,
    SolverConfig,
    WeightVector,
    load_model,
    random_instance,
    random_weights,
    save_model,
    serialize_model,
)

# Read by nothing in the package: `compare` runs its batch in one thread,
# because the work holds the interpreter lock.  The name stays because the
# benchmark's workloads set this variable before every op.
THREADS_ENV = "ISINGMAX_THREADS"

CSV_COLUMNS = [
    "instance_id", "n", "k", "epsilon", "r",
    "solver_value", "oracle_value", "gap", "wall_time",
]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (ModelFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingmax",
        description="Budgeted influence maximization on sparse Ising models",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("solve", help="run the localization solver on a model file")
    p.add_argument("model", help="model file (JSON)")
    p.add_argument("--k", type=int, default=None, help="budget (default 1)")
    p.add_argument("--epsilon", type=float, default=None, help="additive error (default 0.1)")
    p.add_argument("--delta", type=float, default=None,
                   help="family slack; required unless --radius is given")
    p.add_argument("--C", dest="decay_constant", type=float, default=None,
                   help="decay constant for the radius formula (default 1.0)")
    p.add_argument("--radius", type=int, default=None, help="override the formula radius")
    p.add_argument("--exact-ball-cap", type=int, default=None,
                   help="max free vertices per exact enumeration (default 25)")
    p.add_argument("--best-effort", action="store_true",
                   help="shrink the radius on capacity overrun instead of failing")
    p.add_argument("--config", default=None, help="JSON config file (flags win)")
    p.add_argument("--timing", action="store_true", help="include wall time in the report")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="run the exhaustive reference solver")
    p.add_argument("model")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--force", action="store_true", help="allow n > 16 (slow)")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare", help="solver vs oracle over instances, CSV output")
    p.add_argument("models", nargs="*", help="model files; omit when using --gen")
    p.add_argument("--gen", type=int, default=0, help="generate this many seeded instances")
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--delta-max", type=int, default=3)
    p.add_argument("--beta-min", type=float, default=-0.4)
    p.add_argument("--beta-max", type=float, default=0.4)
    p.add_argument("--h-min", type=float, default=-0.5)
    p.add_argument("--h-max", type=float, default=0.5)
    p.add_argument("--a-min", type=float, default=-1.0)
    p.add_argument("--a-max", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0, help="base seed for --gen")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--radius", default=None,
                   help="integer radius or 'diameter' (default: diameter)")
    p.add_argument("--exact-ball-cap", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--timing", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sample", help="Monte Carlo influence estimate via Glauber dynamics")
    p.add_argument("model")
    p.add_argument("--pin", required=True,
                   help="comma list of vertex:spin, e.g. '0:+1,3:-1'")
    p.add_argument("--burn-in", type=int, default=None,
                   help="site updates before the first sample, rounded up to whole "
                        "sweeps of n updates (default 100 * n * log(n))")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--thin", type=int, default=None,
                   help="site updates between samples, rounded up to whole sweeps "
                        "of n updates (default n: one sweep)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timing", action="store_true",
                   help="include wall time and sampler diagnostics in the report")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("estimate-marginal",
                       help="recover a vertex marginal via the gadget reduction")
    p.add_argument("model")
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--tolerance", type=float, default=0.01)
    p.add_argument("--solver", choices=("oracle", "local"), default="oracle")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_estimate_marginal)

    p = sub.add_parser("gen", help="generate a random model file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta-max", type=int, default=3)
    p.add_argument("--beta-min", type=float, default=-0.4)
    p.add_argument("--beta-max", type=float, default=0.4)
    p.add_argument("--h-min", type=float, default=-0.5)
    p.add_argument("--h-max", type=float, default=0.5)
    p.add_argument("--a-min", type=float, default=-1.0)
    p.add_argument("--a-max", type=float, default=1.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    return parser


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """One command's structured result; serialized with a stable key order.

    ``wall_time`` stays None unless timing was requested, keeping default
    artifacts byte-identical across reruns.  Best-effort and
    low-temperature runs always carry an explicit warning entry.
    """

    command: str
    inputs: dict
    solution: dict | None = None
    estimate: dict | None = None
    warnings: list[str] = field(default_factory=list)
    wall_time: float | None = None

    def to_dict(self) -> dict:
        out: dict = {"command": self.command, "inputs": self.inputs}
        if self.solution is not None:
            out["solution"] = self.solution
        if self.estimate is not None:
            out["estimate"] = self.estimate
        out["warnings"] = self.warnings
        if self.wall_time is not None:
            out["wall_time"] = self.wall_time
        return out


def _write_report(report: RunReport, out, timing: bool, elapsed: float) -> None:
    if timing:
        report.wall_time = elapsed
    text = json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ModelFormatError("config file must contain a JSON object")
    return obj


def _effective(flag_value, config: dict, key: str, default):
    """Precedence: explicit flag > config file > built-in default."""
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


def _model_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _low_temperature(model: IsingModel) -> bool:
    d = max(3, model.max_degree())
    return any((d - 1) * math.tanh(abs(b)) >= 1.0 for b in model.beta.values())


def _solution_payload(sol: solver.Solution) -> dict:
    return {
        "S_hat": list(sol.S_hat),
        "sigma_hat": [[v, sol.sigma_hat[v]] for v in sorted(sol.sigma_hat)],
        "local_value": sol.local_value,
        "global_value": sol.global_value,
        "radius_used": sol.radius_used,
        "diagnostics": sol.diagnostics,
    }


def _parse_pinning(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ModelFormatError(f"bad pin entry {item!r}; expected 'vertex:spin'")
        vs, ss = item.split(":", 1)
        v = int(vs)
        if ss in ("+1", "+", "1"):
            s = 1
        elif ss in ("-1", "-"):
            s = -1
        else:
            raise ModelFormatError(f"bad spin {ss!r} for vertex {v}; use +1 or -1")
        if v in out:
            raise ModelFormatError(f"vertex {v} pinned twice")
        out[v] = s
    if not out:
        raise ModelFormatError("empty pinning")
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    start = time.perf_counter()
    config = _load_config(args.config)
    model, weights = load_model(args.model)
    k = int(_effective(args.k, config, "k", 1))
    epsilon = float(_effective(args.epsilon, config, "epsilon", 0.1))
    delta = _effective(args.delta, config, "delta", None)
    decay_constant = float(_effective(args.decay_constant, config, "decay_constant", 1.0))
    radius = _effective(args.radius, config, "radius", None)
    cap = int(_effective(args.exact_ball_cap, config, "exact_ball_cap", 25))
    if radius is None and delta is None:
        raise ModelFormatError("either --radius or --delta is required to fix the radius")
    cfg = SolverConfig(
        k=k,
        epsilon=epsilon,
        decay_constant=decay_constant,
        radius_override=int(radius) if radius is not None else None,
        exact_ball_cap=cap,
    )
    params = None
    if delta is not None:
        params = FamilyParams.algorithmic(max(3, model.max_degree()), float(delta))
    sol = solver.solve_infmax(model, weights, cfg, params, best_effort=args.best_effort)
    warnings = list(sol.diagnostics.get("warnings", []))
    if _low_temperature(model):
        warnings.append("low-temperature instance: no efficient guarantee exists in this regime")
    report = RunReport(
        command="solve",
        inputs={
            "model": str(args.model),
            "model_sha256": _model_digest(args.model),
            "n": model.n,
            "config": {
                "k": k, "epsilon": epsilon, "delta": delta,
                "decay_constant": decay_constant,
                "radius_override": cfg.radius_override,
                "exact_ball_cap": cap,
                "best_effort": bool(args.best_effort),
            },
        },
        solution=_solution_payload(sol),
        warnings=warnings,
    )
    _write_report(report, args.out, args.timing, time.perf_counter() - start)
    return 0


def cmd_oracle(args) -> int:
    start = time.perf_counter()
    model, weights = load_model(args.model)
    if model.n > 16 and not args.force:
        raise ModelFormatError(
            f"oracle on n={model.n} > 16 requires --force (cost grows as 2^n)"
        )
    sol = solver.brute_force_infmax(model, weights, args.k, restrict_exact=not args.force)
    report = RunReport(
        command="oracle",
        inputs={
            "model": str(args.model),
            "model_sha256": _model_digest(args.model),
            "n": model.n,
            "config": {"k": args.k, "force": bool(args.force)},
        },
        solution=_solution_payload(sol),
    )
    _write_report(report, args.out, args.timing, time.perf_counter() - start)
    return 0


def _compare_one(instance_id, model, weights, k, epsilon, radius, cap, timing):
    start = time.perf_counter()
    r = graph.graph_diameter(model) if radius == "diameter" else int(radius)
    cfg = SolverConfig(k=k, epsilon=epsilon, radius_override=r, exact_ball_cap=cap)
    sol = solver.solve_infmax(model, weights, cfg)
    if sol.global_value is None:
        raise CapacityError(
            f"instance {instance_id}: global value exceeds exact capacity; "
            f"comparison is undefined"
        )
    oracle = solver.brute_force_infmax(model, weights, k)
    elapsed = time.perf_counter() - start
    return {
        "instance_id": instance_id,
        "n": model.n,
        "k": k,
        "epsilon": repr(epsilon),
        "r": sol.radius_used,
        "solver_value": repr(sol.global_value),
        "oracle_value": repr(oracle.global_value),
        "gap": repr(oracle.global_value - sol.global_value),
        "wall_time": repr(elapsed) if timing else "",
    }


def cmd_compare(args) -> int:
    config = _load_config(args.config)
    k = int(_effective(args.k, config, "k", 1))
    epsilon = float(_effective(args.epsilon, config, "epsilon", 0.1))
    radius = _effective(args.radius, config, "radius", "diameter")
    cap = int(_effective(args.exact_ball_cap, config, "exact_ball_cap", 25))

    jobs = []
    for path in args.models:
        model, weights = load_model(path)
        name = os.path.splitext(os.path.basename(path))[0]
        jobs.append((name, model, weights))
    for i in range(args.gen):
        seed = args.seed + i
        model = random_instance(
            args.n, args.delta_max,
            (args.beta_min, args.beta_max), (args.h_min, args.h_max), seed,
        )
        weights = random_weights(args.n, (args.a_min, args.a_max), seed + 1)
        jobs.append((f"seed{seed}", model, weights))
    if not jobs:
        raise ModelFormatError("nothing to compare: pass model files or --gen N")

    rows = [
        _compare_one(name, m, w, k, epsilon, radius, cap, args.timing)
        for name, m, w in jobs
    ]

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_sample(args) -> int:
    start = time.perf_counter()
    model, weights = load_model(args.model)
    pinning = _parse_pinning(args.pin)
    burn_in = args.burn_in if args.burn_in is not None else estimate.default_burn_in(model.n)
    thin = args.thin if args.thin is not None else max(1, model.n)
    diagnostics = {} if args.timing else None
    value, stderr = estimate.estimate_influence(
        model, weights, tuple(sorted(pinning)), pinning,
        burn_in=burn_in, samples=args.samples, thin=thin, seed=args.seed,
        diagnostics=diagnostics,
    )
    result = {"influence": value, "stderr": stderr}
    if diagnostics is not None:
        result["diagnostics"] = diagnostics
    warnings = []
    if _low_temperature(model):
        warnings.append(
            "low-temperature instance: Glauber dynamics may mix exponentially slowly; "
            "treat this estimate as indicative only"
        )
    report = RunReport(
        command="sample",
        inputs={
            "model": str(args.model),
            "model_sha256": _model_digest(args.model),
            "n": model.n,
            "config": {
                "pin": [[v, pinning[v]] for v in sorted(pinning)],
                "burn_in": burn_in, "samples": args.samples,
                "thin": thin, "seed": args.seed,
            },
        },
        estimate=result,
        warnings=warnings,
    )
    _write_report(report, args.out, args.timing, time.perf_counter() - start)
    return 0


def cmd_estimate_marginal(args) -> int:
    start = time.perf_counter()
    model, weights = load_model(args.model)
    if not (0 <= args.vertex < model.n):
        raise ModelFormatError(f"unknown vertex {args.vertex}")
    if args.solver == "oracle":
        run = reduction.oracle_solver
    else:
        run = reduction.make_localization_solver()
    search = reduction.binary_search_marginal(
        model, args.vertex, args.k, run, args.epsilon, args.tolerance
    )
    report = RunReport(
        command="estimate-marginal",
        inputs={
            "model": str(args.model),
            "model_sha256": _model_digest(args.model),
            "n": model.n,
            "config": {
                "vertex": args.vertex, "k": args.k, "epsilon": args.epsilon,
                "tolerance": args.tolerance, "solver": args.solver,
            },
        },
        estimate={
            "expectation": search.value,
            "probability_plus": search.probability,
            "probes": [[t, d.name] for t, d in search.probes],
        },
    )
    _write_report(report, args.out, args.timing, time.perf_counter() - start)
    return 0


def cmd_gen(args) -> int:
    model = random_instance(
        args.n, args.delta_max,
        (args.beta_min, args.beta_max), (args.h_min, args.h_max), args.seed,
    )
    weights = random_weights(args.n, (args.a_min, args.a_max), args.seed + 1)
    if args.out:
        save_model(args.out, model, weights)
    else:
        sys.stdout.write(serialize_model(model, weights))
    return 0


if __name__ == "__main__":
    sys.exit(main())
