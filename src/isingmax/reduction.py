"""Recovering a vertex marginal from an influence-maximization solver.

The construction appends k isolated vertices with a common adjustable
field x to the input model and gives weight 1 to those vertices and to the
target vertex v.  Over that augmented model the best pinning is, up to the
solver's error, either all the isolated vertices (when tanh x beats the
target's marginal) or the target plus all but one of them.  Which of the
two the solver picks therefore brackets E[X_v] against tanh x, and a
binary search over t = tanh x pins the marginal down to the solver error
plus the search tolerance.

The search operates on t in (-1, 1) directly and converts to a field only
when building a gadget, clamping |t| at 1 - 1e-9 to keep arctanh finite.

Successive gadgets differ only in the field x of the k isolated vertices,
and no other cluster's ball contains an isolated vertex, so the
localization solver (`make_localization_solver`) keeps the cluster graph
it built for the first probe, with every base cluster's score.  A later
probe re-scores just the singletons of the isolated vertices whose field
changed and reruns the budgeted MWIS: one cluster graph and one diameter
per search, and k clusters scored per later probe.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import solver
from .errors import ConvergenceError, ModelFormatError
from .exact import DEFAULT_EXACT_BALL_CAP
from .graph import graph_diameter
from .influence import InfluenceEvaluator
from .model import IsingModel, SolverConfig, VertexSet, WeightVector
# `solve_infmax` is not called here; it stays importable from this module
# next to the other solver entry points.
from .solver import Solution, brute_force_infmax, solve_infmax  # noqa: F401

# A solver callable: (model, weights, budget, epsilon) -> Solution.
InfMaxSolver = Callable[[IsingModel, WeightVector, int, float], Solution]

_T_CLAMP = 1.0 - 1e-9


class Direction(Enum):
    """What an optimal-set observation implies about the target marginal."""

    GE = "marginal >= tanh(x) - epsilon"
    LE = "marginal <= tanh(x) + epsilon"


@dataclass(frozen=True)
class Gadget:
    """The augmented model and bookkeeping for one probe field x."""

    augmented: IsingModel
    weights: WeightVector
    x: float
    target: int
    U: VertexSet
    W: VertexSet


@dataclass
class MarginalSearch:
    """Result of the binary search: the estimate plus its probe trace."""

    value: float
    probes: list[tuple[float, Direction]]

    @property
    def probability(self) -> float:
        return (1.0 + self.value) / 2.0


def build_gadget(model: IsingModel, v: int, k: int, x: float) -> Gadget:
    """Append k isolated field-x vertices and set up the probe weights.

    The new vertices get ids n..n+k-1.  Weights are 1 on v and on every
    new vertex, 0 elsewhere (1-bounded by construction); isolated vertices
    have degree zero, so family membership is preserved.
    """
    if not (0 <= v < model.n):
        raise ModelFormatError(f"unknown target vertex {v}")
    if k < 1:
        raise ValueError(f"budget must be >= 1, got {k}")
    if not math.isfinite(x):
        raise ValueError(f"probe field must be finite, got {x}")
    n = model.n
    h = np.concatenate([model.h, np.full(k, float(x))])
    augmented = IsingModel(n=n + k, beta=dict(model.beta), h=h)
    a = np.zeros(n + k)
    a[v] = 1.0
    a[n:] = 1.0
    U = tuple(range(n, n + k))
    W = tuple(sorted((v,) + U[: k - 1]))
    return Gadget(
        augmented=augmented,
        weights=WeightVector(a),
        x=float(x),
        target=v,
        U=U,
        W=W,
    )


def classify_optimum(gadget: Gadget, solver_output: Solution, epsilon: float) -> Direction:
    """Turn an epsilon-optimal solution on the gadget into a marginal bound.

    If the solver chose exactly the isolated set, the target marginal is at
    least tanh(x) - epsilon; any other choice means it is at most
    tanh(x) + epsilon.
    """
    S = set(solver_output.S_hat)
    k = len(gadget.U)
    if len(S) > k:
        raise ModelFormatError(
            f"solution pins {len(S)} vertices, above the budget {k}"
        )
    if any(not (0 <= v < gadget.augmented.n) for v in S):
        raise ModelFormatError("solution names vertices outside the gadget model")
    if set(solver_output.sigma_hat.keys()) != S:
        raise ModelFormatError("solution assignment keys do not match its vertex set")
    return Direction.GE if S == set(gadget.U) else Direction.LE


def oracle_solver(model: IsingModel, weights: WeightVector, k: int, epsilon: float) -> Solution:
    """Adapter running the exhaustive reference solver (epsilon is unused)."""
    return brute_force_infmax(model, weights, k)


class LocalizationSolver:
    """The localization solver as an `InfMaxSolver` that keeps its last graph.

    A call builds the scored cluster graph of its (model, weights) and
    keeps it, with the model, the weights, k and epsilon it was built for.
    The next call reuses it when only the fields of degree-0 vertices
    differ from the kept model: no other cluster's ball contains such a
    vertex v, and its only cluster is its singleton (v,), which the
    canonical cluster order puts at index v.  Those singletons are
    re-scored through an `InfluenceEvaluator` of the new model, so their
    scores have the same bits as in a fresh build, and the budgeted MWIS
    runs again; the answer equals `solve_infmax` on the new model.  Any
    other call builds and keeps a new graph.  Only one graph is kept.

    ``cluster_graphs_built`` and ``clusters_scored`` count the work done
    since construction.
    """

    def __init__(self, decay_constant: float, radius: int | None, exact_ball_cap: int):
        self.decay_constant = decay_constant
        self.radius = radius
        self.exact_ball_cap = exact_ball_cap
        self.cluster_graphs_built = 0
        self.clusters_scored = 0
        self._model: IsingModel | None = None
        self._weights: WeightVector | None = None
        self._epsilon: float | None = None
        self._loc: solver.Localization | None = None

    def __call__(
        self, model: IsingModel, weights: WeightVector, k: int, epsilon: float
    ) -> Solution:
        changed = self._changed_isolated(model, weights, k, epsilon)
        if changed is None:
            self._build(model, weights, k, epsilon)
        elif changed:
            self._rescore(model, weights, changed)
        return solver.localized_solution(self._loc, compute_global=False)

    def _changed_isolated(self, model, weights, k, epsilon) -> list[int] | None:
        """The vertices whose field alone changed, or None if the graph cannot be kept."""
        last = self._model
        if (
            last is None
            or model.n != last.n
            or k != self._loc.k
            or epsilon != self._epsilon
            or model.beta != last.beta
            or weights != self._weights
        ):
            return None
        changed = [int(v) for v in np.flatnonzero(model.h != last.h)]
        if any(model.adjacency[v] for v in changed):
            return None
        return changed

    def _build(self, model, weights, k, epsilon) -> None:
        self._model = None  # a failed build keeps nothing
        diameter = graph_diameter(model)
        cfg = SolverConfig(
            k=k,
            epsilon=epsilon,
            decay_constant=self.decay_constant,
            radius_override=self.radius if self.radius is not None else diameter,
            exact_ball_cap=self.exact_ball_cap,
        )
        self._loc = solver.localize(model, weights, cfg, diameter)
        self._model, self._weights, self._epsilon = model, weights, epsilon
        self.cluster_graphs_built += 1
        self.clusters_scored += self._loc.graph.n_vertices

    def _rescore(self, model, weights, changed: list[int]) -> None:
        loc = self._loc
        evaluator = InfluenceEvaluator(model, weights, ball_cap=self.exact_ball_cap)
        for v in changed:
            loc.graph.clusters[v] = solver.score_cluster(
                model, evaluator, (v,), loc.graph.radius, self.exact_ball_cap
            )
        loc.evaluator = evaluator
        self._model = model
        self.clusters_scored += len(changed)


def make_localization_solver(
    decay_constant: float = 1.0,
    radius: int | None = None,
    exact_ball_cap: int = DEFAULT_EXACT_BALL_CAP,
) -> LocalizationSolver:
    """Adapter running the localization solver on each probe gadget.

    If no radius is given, each call uses the gadget's graph diameter,
    which makes the local objective coincide with the global one.  The
    returned solver keeps the cluster graph of the gadget it last solved;
    a probe that changes only the isolated vertices' field x re-scores
    just their k singleton clusters (see `LocalizationSolver`).  Use one
    solver per search: its counters describe the calls it served.
    """
    return LocalizationSolver(decay_constant, radius, exact_ball_cap)


def binary_search_marginal(
    model: IsingModel,
    v: int,
    k: int,
    solver: InfMaxSolver,
    epsilon: float,
    tolerance: float,
) -> MarginalSearch:
    """Bisect t = tanh(x) until the bracket is 2*tolerance wide.

    Each probe builds the gadget at x = arctanh(t) and asks the solver;
    the classification moves one end of the bracket.  The returned value
    is the final bracket midpoint, within epsilon + tolerance of E[X_v].
    """
    if not (epsilon > 0 and tolerance > 0):
        raise ValueError("epsilon and tolerance must be positive")
    lo, hi = -1.0, 1.0
    probes: list[tuple[float, Direction]] = []
    max_iter = math.ceil(math.log2(2.0 / tolerance))
    while hi - lo > 2.0 * tolerance:
        if len(probes) >= max_iter:
            raise ConvergenceError(
                f"marginal search did not converge within {max_iter} probes",
                trace=probes,
            )
        t = (lo + hi) / 2.0
        x = math.atanh(max(-_T_CLAMP, min(_T_CLAMP, t)))
        gadget = build_gadget(model, v, k, x)
        solution = solver(gadget.augmented, gadget.weights, k, epsilon)
        direction = classify_optimum(gadget, solution, epsilon)
        probes.append((t, direction))
        if direction is Direction.GE:
            lo = t
        else:
            hi = t
    return MarginalSearch(value=(lo + hi) / 2.0, probes=probes)


def estimate_marginal(
    model: IsingModel,
    v: int,
    k: int,
    solver: InfMaxSolver,
    epsilon: float,
    tolerance: float,
) -> float:
    """Estimate E[X_v] via the gadget reduction; see `binary_search_marginal`."""
    return binary_search_marginal(model, v, k, solver, epsilon, tolerance).value


def check_probe_trace(
    probes: list[tuple[float, Direction]], epsilon: float
) -> bool:
    """Whether a probe trace is consistent with a single crossing.

    Up to the 2*epsilon ambiguity band, no GE observation may sit above an
    LE observation: every (t_ge, GE) and (t_le, LE) must satisfy
    t_ge <= t_le + 2*epsilon.
    """
    ge = [t for t, d in probes if d is Direction.GE]
    le = [t for t, d in probes if d is Direction.LE]
    if not ge or not le:
        return True
    return max(ge) <= min(le) + 2.0 * epsilon
