"""The budgeted influence-maximization solver and its brute-force reference.

The solver localizes the objective to radius-r balls and proceeds in four
steps: enumerate candidate clusters (subsets connected in the (2r+1)-power
graph), score each cluster's best local influence exactly, solve a budgeted
maximum-weight independent-set problem over the cluster graph, and combine
the winning clusters into the final pinning.  Because cluster scores are
exact here (enumeration instead of an approximate counting backend) and the
independent-set step is exact, the output maximizes the local influence
exactly; the only gap to the global optimum is the localization radius.

Radii beyond the graph diameter change nothing (balls saturate), so the
solver caps the working radius at the diameter and records both values.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations, product

from . import graph
from .errors import CapacityError
from .exact import DEFAULT_EXACT_BALL_CAP
from .influence import InfluenceEvaluator, total_influence_profile
from .model import (
    FamilyParams,
    IsingModel,
    PartialAssignment,
    SolverConfig,
    VertexSet,
    WeightVector,
    check_weights,
    validate_family,
)

# The assignment loop and pruning sizes assume a small constant budget.
DEFAULT_MAX_BUDGET = 6


@dataclass(frozen=True)
class Cluster:
    """A candidate subset with its cost, best score, and best assignment."""

    T: VertexSet
    cost: int
    weight: float
    best_assignment: PartialAssignment


@dataclass
class ClusterGraph:
    """Clusters plus their power-graph adjacency (pairs of indices, i < j).

    ``adjacency`` is read-only after construction: the neighbour sets are
    derived from it once, on first use (or handed over by
    `build_cluster_graph`), and then serve `neighbor_sets` and `max_degree`.
    """

    clusters: list[Cluster]
    adjacency: list[tuple[int, int]]
    radius: int
    _neighbors: list[set[int]] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        return len(self.clusters)

    @property
    def max_degree(self) -> int:
        return max(map(len, self.neighbor_sets()), default=0)

    def neighbor_sets(self) -> list[set[int]]:
        """Per cluster, the indices of its neighbours; shared, do not modify."""
        if self._neighbors is None:
            ns: list[set[int]] = [set() for _ in self.clusters]
            for i, j in self.adjacency:
                ns[i].add(j)
                ns[j].add(i)
            self._neighbors = ns
        return self._neighbors


@dataclass
class Solution:
    """A chosen pinning with its achieved values and run diagnostics."""

    S_hat: VertexSet
    sigma_hat: PartialAssignment
    local_value: float
    global_value: float | None
    radius_used: int | None
    diagnostics: dict = field(default_factory=dict)


def radius_schedule(cfg: SolverConfig, params: FamilyParams) -> tuple[int, int]:
    """The localization radii (rho, r) for the configured accuracy.

    rho = ceil((1/delta) * ln(6*C*k/epsilon)) and
    r = rho + ceil((1/delta) * (ln(24*C/epsilon) + rho*ln(delta_max))),
    clamped below at rho >= 1 and r >= rho (the derivation assumes a
    positive radius; very large epsilon would otherwise push the ceilings
    negative).
    """
    if params is None or params.delta is None:
        raise ValueError("radius formulas require FamilyParams with the slack delta set")
    d = params.delta
    C = cfg.decay_constant
    rho = math.ceil((1.0 / d) * math.log(6.0 * C * cfg.k / cfg.epsilon))
    rho = max(1, rho)
    step = math.ceil((1.0 / d) * (math.log(24.0 * C / cfg.epsilon) + rho * math.log(params.delta_max)))
    r = rho + max(0, step)
    return rho, r


def select_radius(cfg: SolverConfig, params: FamilyParams | None = None) -> int:
    """The working radius: the override verbatim if present, else the formula."""
    if cfg.radius_override is not None:
        return cfg.radius_override
    return radius_schedule(cfg, params)[1]


def score_cluster(
    model: IsingModel,
    evaluator: InfluenceEvaluator,
    T: VertexSet,
    r: int,
    ball_cap: int,
) -> Cluster:
    """Score cluster T by its best local influence at radius r, exactly.

    Assignments are enumerated lexicographically (+1 before -1 per vertex,
    smaller ids first), the local influence at radius r is computed on the
    induced ball, and the first maximizer is kept, so ties resolve
    deterministically.  A ball larger than ``ball_cap`` is refused.
    """
    ball_T = graph.ball(model, T, r)
    if len(ball_T) > ball_cap:
        raise CapacityError(
            f"cluster {T}: |B(T,{r})| = {len(ball_T)} exceeds exact_ball_cap={ball_cap}"
        )
    best_value = -math.inf
    best_sigma: PartialAssignment = {}
    for spins in product((1, -1), repeat=len(T)):
        sigma = dict(zip(T, spins))
        value = evaluator.local_influence(T, sigma, r)
        if value > best_value:
            best_value = value
            best_sigma = sigma
    return Cluster(T=T, cost=len(T), weight=best_value, best_assignment=best_sigma)


def build_cluster_graph(
    model: IsingModel,
    weights: WeightVector,
    cfg: SolverConfig,
    r: int,
    evaluator: InfluenceEvaluator | None = None,
) -> ClusterGraph:
    """Enumerate clusters, score their best local influence, wire adjacency.

    Every cluster is scored exactly by `score_cluster`.

    Clusters T_i and T_j are adjacent when T_j meets the (2r+1)-ball of T_i,
    i.e. when they overlap or lie within distance 2r+1 of each other.  An
    index from each vertex to the clusters holding it makes T_i's
    neighbours the union of that index over its ball, so wiring costs about
    as much as the edges it yields, not one test per pair of clusters.  The
    pairs (i, j), i < j, are listed in ascending order, and the neighbour
    sets found on the way are handed to the graph.
    """
    check_weights(model, weights)
    if evaluator is None:
        evaluator = InfluenceEvaluator(model, weights, ball_cap=cfg.exact_ball_cap)
    subsets = graph.enumerate_connected_clusters(model, cfg.k, r)
    containing: list[list[int]] = [[] for _ in range(model.n)]
    for i, T in enumerate(subsets):
        for v in T:
            containing[v].append(i)
    clusters: list[Cluster] = []
    neighbors: list[set[int]] = []
    adjacency: list[tuple[int, int]] = []
    for i, T in enumerate(subsets):
        clusters.append(score_cluster(model, evaluator, T, r, cfg.exact_ball_cap))
        near: set[int] = set()
        for v in graph.ball(model, T, 2 * r + 1):
            near.update(containing[v])
        near.discard(i)
        neighbors.append(near)
        adjacency.extend((i, j) for j in sorted(near) if j > i)
    H = ClusterGraph(clusters=clusters, adjacency=adjacency, radius=r)
    H._neighbors = neighbors  # distance is symmetric, so these match the pairs
    return H


# Relative slack on the search bound.  Every weight in the search is
# positive, so rounding in the running sums and in budget * ratio moves
# them by at most about (k + 4) ulps, relative; 1e-9 covers that for any
# budget below about 10^6.
_BOUND_SLACK = 1e-9


def budgeted_mwis(H: ClusterGraph, k: int) -> list[int]:
    """Max-weight independent set of H with total cost at most k, exactly.

    Keeps, per cost class, the k*(D+1) heaviest clusters (every vertex
    blocks at most D+1 others, so this pruned pool still contains an
    optimal solution), drops those with non-positive weight (the empty set
    is always feasible, so they are never needed), and searches subsets of
    the pool depth first in ascending index order.  A branch is cut when
    its weight plus the remaining budget times the best weight per unit
    cost left in the pool, inflated by a rounding slack, cannot beat the
    best weight found.  Only strict improvements are recorded, so the
    answer is the first maximum-weight set in lexicographic index order,
    with or without the cuts.
    """
    if k < 1:
        raise ValueError(f"budget must be >= 1, got {k}")
    keep = k * (H.max_degree + 1)
    pool: list[int] = []
    for cost in range(1, k + 1):
        cls = [i for i, c in enumerate(H.clusters) if c.cost == cost and c.weight > 0.0]
        cls.sort(key=lambda i: (-H.clusters[i].weight, i))
        pool.extend(cls[:keep])
    pool.sort()
    weight_of = [H.clusters[i].weight for i in pool]
    cost_of = [H.clusters[i].cost for i in pool]
    neighbor = H.neighbor_sets()
    # ratio[idx]: the largest weight per unit cost among pool[idx:]
    ratio = [0.0] * (len(pool) + 1)
    for idx in range(len(pool) - 1, -1, -1):
        ratio[idx] = max(weight_of[idx] / cost_of[idx], ratio[idx + 1])
    inflate = 1.0 + _BOUND_SLACK

    best_weight = 0.0
    best_set: tuple[int, ...] = ()

    def search(start: int, chosen: list[int], cost: int, weight: float) -> None:
        nonlocal best_weight, best_set
        if weight > best_weight:
            best_weight = weight
            best_set = tuple(chosen)
        room = k - cost
        for idx in range(start, len(pool)):
            if (weight + room * ratio[idx]) * inflate <= best_weight:
                break  # ratio only falls further along the pool
            i = pool[idx]
            if cost_of[idx] > room or not neighbor[i].isdisjoint(chosen):
                continue
            chosen.append(i)
            search(idx + 1, chosen, cost + cost_of[idx], weight + weight_of[idx])
            chosen.pop()

    try:
        search(0, [], 0, 0.0)
    finally:
        # The closure refers to itself through its cell; emptying the cell
        # breaks that cycle, which would keep H alive until a full collection.
        del search
    return list(best_set)


def solve_infmax(
    model: IsingModel,
    weights: WeightVector,
    cfg: SolverConfig,
    params: FamilyParams | None = None,
    best_effort: bool = False,
    compute_global: bool = True,
    max_budget: int = DEFAULT_MAX_BUDGET,
) -> Solution:
    """Run the full localization algorithm and return the chosen pinning.

    ``params`` supplies the family slack for the radius formula; it may be
    omitted when ``cfg.radius_override`` is set.  When the working radius
    makes some ball exceed the exact capacity, the solver fails with the
    largest feasible radius in the message, unless ``best_effort`` is set,
    in which case it shrinks the radius and flags the output as heuristic.
    """
    diameter = graph.graph_diameter(model)
    loc = localize(model, weights, cfg, diameter, params, best_effort, max_budget)
    return localized_solution(loc, compute_global)


@dataclass
class Localization:
    """A scored cluster graph and the run facts its `Solution` reports.

    `solve_infmax` is `localize` followed by `localized_solution`.  A caller
    may replace scores in ``graph.clusters`` (and ``evaluator`` with one
    for the model they now describe) and solve again without rebuilding.
    """

    graph: ClusterGraph
    evaluator: InfluenceEvaluator
    k: int
    requested_radius: int
    diameter: int
    best_effort: bool
    warnings: list[str]


def localize(
    model: IsingModel,
    weights: WeightVector,
    cfg: SolverConfig,
    diameter: int,
    params: FamilyParams | None = None,
    best_effort: bool = False,
    max_budget: int = DEFAULT_MAX_BUDGET,
) -> Localization:
    """Check the inputs, fix the radius and build the scored cluster graph.

    ``diameter`` must be `graph.graph_diameter(model)`; the working radius
    is the selected one capped at it.  The other arguments are those of
    `solve_infmax`.
    """
    check_weights(model, weights)
    if cfg.k > max_budget:
        raise ValueError(
            f"budget k={cfg.k} exceeds the supported constant budget {max_budget}; "
            f"raise max_budget explicitly if this is intended"
        )
    warnings: list[str] = []
    if params is not None:
        fc = validate_family(model, params)
        if not fc:
            warnings.append(f"model is outside the high-temperature family: {fc.reason}; "
                            "the approximation guarantee is void")
    if not weights.is_one_bounded():
        warnings.append("weights are not 1-bounded; the guarantee assumes max |a_v| <= 1")

    requested_r = select_radius(cfg, params)
    r = min(requested_r, diameter)

    evaluator = InfluenceEvaluator(model, weights, ball_cap=cfg.exact_ball_cap)
    H = None
    while True:
        try:
            H = build_cluster_graph(model, weights, cfg, r, evaluator=evaluator)
            break
        except CapacityError as exc:
            if not best_effort:
                feasible = _largest_feasible_radius(model, cfg, r)
                raise CapacityError(
                    f"{exc} (largest feasible radius is {feasible}; "
                    f"rerun with best_effort to proceed heuristically)"
                ) from exc
            if r == 0:
                raise
            r -= 1
    if best_effort and r < min(requested_r, diameter):
        warnings.append(
            f"best-effort mode reduced the radius from {min(requested_r, diameter)} to {r}; "
            "the output is heuristic and the guarantee is void"
        )
    return Localization(
        graph=H,
        evaluator=evaluator,
        k=cfg.k,
        requested_radius=requested_r,
        diameter=diameter,
        best_effort=best_effort,
        warnings=warnings,
    )


def localized_solution(loc: Localization, compute_global: bool = True) -> Solution:
    """Solve the budgeted MWIS on ``loc.graph`` and combine the chosen clusters.

    The global value is computed only if ``compute_global`` is set; a
    component beyond the exact capacity leaves it None with a warning.
    """
    H = loc.graph
    chosen = budgeted_mwis(H, loc.k)
    S_hat: list[int] = []
    sigma_hat: PartialAssignment = {}
    local_value = 0.0
    for i in chosen:
        c = H.clusters[i]
        S_hat.extend(c.T)
        sigma_hat.update(c.best_assignment)
        local_value += c.weight
    S = tuple(sorted(S_hat))

    warnings = list(loc.warnings)
    global_value: float | None = None
    if compute_global:
        try:
            global_value = loc.evaluator.global_influence(S, sigma_hat) if S else 0.0
        except CapacityError:
            warnings.append("global value not computed: component exceeds exact capacity")

    diagnostics = {
        "requested_radius": loc.requested_radius,
        "effective_radius": H.radius,
        "graph_diameter": loc.diameter,
        "cluster_count": H.n_vertices,
        "cluster_graph_max_degree": H.max_degree,
        "chosen_clusters": chosen,
        "best_effort": loc.best_effort,
        "warnings": warnings,
    }
    return Solution(
        S_hat=S,
        sigma_hat=sigma_hat,
        local_value=local_value,
        global_value=global_value,
        radius_used=H.radius,
        diagnostics=diagnostics,
    )


def _largest_feasible_radius(model: IsingModel, cfg: SolverConfig, r_start: int) -> int:
    """Largest radius <= r_start whose cluster balls all fit the exact cap."""
    for r in range(r_start, -1, -1):
        ok = True
        for T in graph.enumerate_connected_clusters(model, cfg.k, r):
            if len(graph.ball(model, T, r)) > cfg.exact_ball_cap:
                ok = False
                break
        if ok:
            return r
    return 0


def brute_force_infmax(
    model: IsingModel,
    weights: WeightVector,
    k: int,
    restrict_exact: bool = True,
    ball_cap: int = DEFAULT_EXACT_BALL_CAP,
) -> Solution:
    """Exhaustive reference solver: maximize the global influence directly.

    Scans every subset of size <= k and every assignment in canonical order
    (subsets by size then lexicographically; +1 before -1 per vertex), so
    ties resolve deterministically to the first maximizer.  The empty
    pinning with value 0 is the starting point.
    """
    check_weights(model, weights)
    if restrict_exact and model.n > 16:
        raise CapacityError(
            f"brute-force reference is limited to n <= 16 (got n={model.n}); "
            f"pass restrict_exact=False to override"
        )
    evaluator = InfluenceEvaluator(model, weights, ball_cap=ball_cap)
    best_value = 0.0
    best_S: VertexSet = ()
    best_sigma: PartialAssignment = {}
    queries = 0
    for size in range(1, min(k, model.n) + 1):
        for S in combinations(range(model.n), size):
            for spins in product((1, -1), repeat=size):
                sigma = dict(zip(S, spins))
                value = evaluator.global_influence(S, sigma)
                queries += 1
                if value > best_value:
                    best_value = value
                    best_S = S
                    best_sigma = sigma
    return Solution(
        S_hat=best_S,
        sigma_hat=best_sigma,
        local_value=best_value,
        global_value=best_value,
        radius_used=None,
        diagnostics={"method": "exhaustive", "queries": queries},
    )


def calibrate_decay_constant(
    model: IsingModel,
    weights: WeightVector,
    cfg: SolverConfig,
    params: FamilyParams,
    samples: int = 8,
) -> float:
    """Fit the smallest constant C' with influence sums <= C' * (1-delta)^L.

    Scans a deterministic sample of source vertices and every distance
    threshold; sums below 1e-12 are treated as zero (pure roundoff noise
    would otherwise be amplified by the (1-delta)^-L factor).  The result
    may be passed back in as ``cfg.decay_constant``.
    """
    if params.delta is None:
        raise ValueError("calibration requires FamilyParams with the slack delta set")
    base = 1.0 - params.delta
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if model.n <= samples:
        sources = list(range(model.n))
    else:
        stride = model.n / samples
        sources = sorted({int(i * stride) for i in range(samples)})
    best = 0.0
    for u in sources:
        profile = total_influence_profile(model, u, ball_cap=cfg.exact_ball_cap)
        for L, s in enumerate(profile, start=1):
            if s < 1e-12:
                continue
            best = max(best, s / base**L)
    return best
