"""Global and local influence functionals.

The influence of pinning a set S to spins sigma_S is the change it causes
in the expected weighted spin sum; the local variant measures the same
change on the induced submodel of the radius-r ball around S.  Both reduce
to per-component conditional expectations, and components that contain no
pinned vertex contribute exactly zero and are skipped.

`InfluenceEvaluator` keeps the tables of one region, the last one queried,
for as long as queries stay on it: the solver's 2^|T| assignments of a
cluster share its ball, and the brute-force reference search queries the
whole model every time, so each costs one enumeration per region rather
than one per query, and memory stays that of a single region.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import exact, graph
from .errors import CapacityError, ModelFormatError
from .exact import DEFAULT_EXACT_BALL_CAP, DEFAULT_TABLE_CAP, JointTable, PinnedModel
from .model import (
    IsingModel,
    PartialAssignment,
    VertexSet,
    WeightVector,
    as_vertex_set,
    check_assignment,
    check_weights,
)


@dataclass(frozen=True)
class InfluenceQuery:
    """A pinning (S, sigma_S) to evaluate, globally or at a finite radius."""

    model: IsingModel
    weights: WeightVector
    S: VertexSet
    sigma_S: PartialAssignment
    radius: int | None = None

    def __post_init__(self):
        check_weights(self.model, self.weights)
        check_assignment(self.sigma_S, self.model.n)
        S = as_vertex_set(self.S)
        if set(self.sigma_S.keys()) != set(S):
            raise ModelFormatError("assignment keys must equal the pinned set exactly")
        object.__setattr__(self, "S", S)


@dataclass(frozen=True)
class MonteCarloFallback:
    """Sampling parameters used when a query exceeds exact capacity."""

    burn_in: int
    samples: int
    thin: int
    seed: int


class InfluenceEvaluator:
    """Exact influence queries against one fixed (model, weights) pair.

    The evaluator remembers the last region queried (a ball, or the whole
    model for global queries) with its induced components, and the pinned
    set and radius that produced it, so a repeated query skips the ball.
    A component of at most `DEFAULT_TABLE_CAP` vertices is enumerated on
    first use into a `JointTable`, with its per-configuration weighted spin
    sums and its unpinned mean; every later pinning of it is a view of that
    table.  Larger components, up to `ball_cap`, keep only their unpinned
    mean and are enumerated per query.  Tables live as long as their region
    is being queried: a query on another region replaces them.
    """

    def __init__(
        self,
        model: IsingModel,
        weights: WeightVector,
        ball_cap: int = DEFAULT_EXACT_BALL_CAP,
    ):
        check_weights(model, weights)
        self.model = model
        self.weights = weights
        self.ball_cap = ball_cap
        self._key = None  # (S, r) that produced the region; r None for global
        self._region: VertexSet | None = None
        self._comps: list[VertexSet] = []
        self._parts: dict[VertexSet, tuple] = {}  # comp -> (table, vals, base)

    def global_influence(self, S, sigma_S: PartialAssignment) -> float:
        """Influence of the pinning on the whole model."""
        return self._region_influence(S, sigma_S, None)

    def local_influence(self, S, sigma_S: PartialAssignment, r: int) -> float:
        """Influence of the pinning on the induced submodel of B(S, r)."""
        return self._region_influence(S, sigma_S, r)

    def _region_influence(self, S, sigma_S: PartialAssignment, r: int | None) -> float:
        S = as_vertex_set(S)
        if not S:
            return 0.0
        if (S, r) != self._key:
            region = tuple(range(self.model.n)) if r is None else graph.ball(self.model, S, r)
            if region != self._region:
                self._region = region
                self._comps = graph.induced_components(self.model, region)
                self._parts = {}
            self._key = (S, r)
        total = 0.0
        for comp in self._comps:
            members = set(comp)
            pin = {v: s for v, s in sigma_S.items() if v in members}
            if not pin:
                continue  # unpinned components cancel exactly
            total += self._component_influence(comp, pin)
        return total

    def _component_influence(self, comp: VertexSet, pin: PartialAssignment) -> float:
        if len(comp) > self.ball_cap:
            raise CapacityError(
                f"component of size {len(comp)} exceeds exact_ball_cap={self.ball_cap}"
            )
        part = self._parts.get(comp)
        if part is None:
            if len(comp) <= DEFAULT_TABLE_CAP:
                table = JointTable(self.model, comp)
                vals = table.config_values(self.weights.a[list(comp)])
                part = (table, vals, table.mean_of(vals))
            else:
                part = (None, None, self._enumerated_mean(comp, None))
            self._parts[comp] = part
        table, vals, base = part
        if table is None:
            return self._enumerated_mean(comp, pin) - base
        return table.mean_of(vals, pin) - base

    def _enumerated_mean(self, comp: VertexSet, pin: PartialAssignment | None) -> float:
        pm = PinnedModel.make(self.model, comp, pin)
        return exact.weighted_expectation(pm, self.weights.a[list(comp)], cap=self.ball_cap)


def global_influence(
    q: InfluenceQuery,
    ball_cap: int = DEFAULT_EXACT_BALL_CAP,
    mc: MonteCarloFallback | None = None,
) -> float:
    """Exact global influence of (S, sigma_S); optional Monte Carlo fallback.

    If a component exceeds the exact capacity and `mc` is provided, the
    value is estimated by Glauber sampling instead of raising.
    """
    if q.radius is not None:
        raise ModelFormatError("global influence takes a query without a radius")
    ev = InfluenceEvaluator(q.model, q.weights, ball_cap=ball_cap)
    try:
        return ev.global_influence(q.S, q.sigma_S)
    except CapacityError:
        if mc is None:
            raise
        from . import estimate

        value, _ = estimate.estimate_influence(
            q.model, q.weights, q.S, q.sigma_S,
            burn_in=mc.burn_in, samples=mc.samples, thin=mc.thin, seed=mc.seed,
        )
        return value


def local_influence(q: InfluenceQuery, ball_cap: int = DEFAULT_EXACT_BALL_CAP) -> float:
    """Exact local influence of (S, sigma_S) at the query's radius."""
    if q.radius is None:
        raise ModelFormatError("local influence requires a radius")
    ev = InfluenceEvaluator(q.model, q.weights, ball_cap=ball_cap)
    return ev.local_influence(q.S, q.sigma_S, q.radius)


def decompose_local(
    q: InfluenceQuery, ball_cap: int = DEFAULT_EXACT_BALL_CAP
) -> list[tuple[VertexSet, float]]:
    """Split a local influence into its power-graph component contributions.

    The parts partition S; the values sum to `local_influence(q)` exactly.
    """
    if q.radius is None:
        raise ModelFormatError("decomposition requires a radius")
    if not q.S:
        return []
    ev = InfluenceEvaluator(q.model, q.weights, ball_cap=ball_cap)
    parts = graph.components_in_power_graph(q.model, q.S, q.radius)
    out = []
    for T in parts:
        sigma_T = {v: q.sigma_S[v] for v in T}
        out.append((T, ev.local_influence(T, sigma_T, q.radius)))
    return out


def influence_decay_profile(
    model: IsingModel,
    weights: WeightVector,
    S,
    sigma_S: PartialAssignment,
    r_max: int,
    ball_cap: int = DEFAULT_EXACT_BALL_CAP,
) -> list[float]:
    """|global - local(r)| for r = 0..r_max; zero once balls saturate."""
    ev = InfluenceEvaluator(model, weights, ball_cap=ball_cap)
    S = as_vertex_set(S)
    g = ev.global_influence(S, sigma_S)
    return [abs(g - ev.local_influence(S, sigma_S, r)) for r in range(r_max + 1)]


def fit_geometric_decay(profile, floor: float = 1e-13) -> tuple[float, float]:
    """Least-squares fit of profile[r] ~ amplitude * ratio**r over entries > floor.

    Returns (amplitude, ratio); (0, 0) when fewer than two entries exceed
    the floor.  Only the decay shape is meaningful, no constant is asserted.
    """
    pts = [(r, math.log(g)) for r, g in enumerate(profile) if g > floor]
    if len(pts) < 2:
        return 0.0, 0.0
    xs = np.array([p[0] for p in pts], dtype=np.float64)
    ys = np.array([p[1] for p in pts], dtype=np.float64)
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(np.exp(intercept)), float(np.exp(slope))


def total_influence_profile(
    model: IsingModel,
    u: int,
    pinning: PartialAssignment | None = None,
    ball_cap: int = DEFAULT_EXACT_BALL_CAP,
) -> list[float]:
    """Summed pairwise influence of u on vertices at distance >= L, for L = 1, 2, ...

    Entry L-1 is sum over free v with dist(u, v) >= L of
    |Pr(X_v = + | X_u = +) - Pr(X_v = + | X_u = -)| under the given pinning.
    The list extends to the eccentricity of u; vertices in other components
    are independent of u and contribute exactly zero.
    """
    pinning = dict(pinning) if pinning else {}
    if u in pinning:
        raise ModelFormatError(f"vertex {u} is pinned; its influence profile is undefined")
    comp = next(c for c in graph.connected_components(model) if u in set(c))
    pin_plus = {v: s for v, s in pinning.items() if v in set(comp)}
    pin_minus = dict(pin_plus)
    pin_plus[u] = +1
    pin_minus[u] = -1
    if len(comp) - len(pin_plus) > ball_cap:
        raise CapacityError(
            f"component of {len(comp)} vertices leaves {len(comp) - len(pin_plus)} "
            f"free, exceeding exact_ball_cap={ball_cap}"
        )
    mean_by_id_p = exact.vertex_expectations(
        PinnedModel.make(model, comp, pin_plus), cap=ball_cap
    )
    mean_by_id_m = exact.vertex_expectations(
        PinnedModel.make(model, comp, pin_minus), cap=ball_cap
    )
    dist = graph.bfs_distances(model, [u])
    ecc = max((dist[v] for v in comp), default=0)
    sums = [0.0] * max(ecc, 0)
    for v in comp:
        if v == u or v in pinning:
            continue
        gap = abs(mean_by_id_p[v] - mean_by_id_m[v]) / 2.0
        for L in range(1, dist[v] + 1):
            sums[L - 1] += gap
    return sums


def total_influence_sum(
    model: IsingModel,
    u: int,
    L: int,
    pinning: PartialAssignment | None = None,
    ball_cap: int = DEFAULT_EXACT_BALL_CAP,
) -> float:
    """Single entry of `total_influence_profile` at distance threshold L >= 1."""
    if L < 1:
        raise ValueError(f"distance threshold must be >= 1, got {L}")
    profile = total_influence_profile(model, u, pinning, ball_cap)
    return profile[L - 1] if L - 1 < len(profile) else 0.0
