"""Core Ising-model data types, family validation, and model I/O.

A model is a graph with one real coupling per edge and one real field per
vertex.  Vertex ids are dense integers ``0..n-1``; edge keys are canonical
``(min, max)`` pairs so that every undirected edge has exactly one
representation.  Models are immutable after construction and safe to share
across workers.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelFormatError

# Spin values allowed in assignments.
SPIN_UP = 1
SPIN_DOWN = -1

# A partial assignment maps vertex id -> spin (+1 or -1).
PartialAssignment = dict[int, int]

# A vertex set is a sorted, duplicate-free tuple of vertex ids.
VertexSet = tuple[int, ...]


def canonical_edge(u: int, v: int) -> tuple[int, int]:
    """Return the canonical (min, max) key for an undirected edge."""
    return (u, v) if u < v else (v, u)


def as_vertex_set(vertices) -> VertexSet:
    """Sort and deduplicate an iterable of vertex ids into a VertexSet."""
    return tuple(sorted(set(vertices)))


def check_assignment(sigma: PartialAssignment, n: int) -> None:
    """Validate that sigma maps distinct vertices of [0, n) to +/-1."""
    for v, s in sigma.items():
        if not (0 <= v < n):
            raise ModelFormatError(f"assignment names unknown vertex {v}")
        if s not in (SPIN_UP, SPIN_DOWN):
            raise ModelFormatError(f"assignment spin for vertex {v} must be +1 or -1, got {s}")


@dataclass(frozen=True, eq=False)
class IsingModel:
    """An Ising model: graph, per-edge couplings, per-vertex fields.

    Attributes:
        n: number of vertices; ids are 0..n-1.
        beta: coupling per canonical edge (u, v) with u < v.
        h: external field per vertex, shape (n,).
        adjacency: per-vertex sorted neighbor tuples, derived from beta.
    """

    n: int
    beta: dict[tuple[int, int], float]
    h: np.ndarray
    adjacency: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ModelFormatError(f"model must have at least one vertex, got n={self.n}")
        h = np.asarray(self.h, dtype=np.float64)
        if h.shape != (self.n,):
            raise ModelFormatError(f"field vector has shape {h.shape}, expected ({self.n},)")
        if not np.all(np.isfinite(h)):
            bad = int(np.flatnonzero(~np.isfinite(h))[0])
            raise ModelFormatError(f"non-finite field at vertex {bad}")
        neighbors: list[list[int]] = [[] for _ in range(self.n)]
        for (u, v), b in self.beta.items():
            if u == v:
                raise ModelFormatError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ModelFormatError(f"edge ({u},{v}) names an unknown vertex")
            if (u, v) != canonical_edge(u, v):
                raise ModelFormatError(f"edge key ({u},{v}) is not in canonical (min,max) order")
            if not math.isfinite(b):
                raise ModelFormatError(f"non-finite coupling on edge ({u},{v})")
            neighbors[u].append(v)
            neighbors[v].append(u)
        h.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "beta", dict(sorted(self.beta.items())))
        object.__setattr__(self, "adjacency", tuple(tuple(sorted(ns)) for ns in neighbors))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IsingModel):
            return NotImplemented
        return self.n == other.n and self.beta == other.beta and np.array_equal(self.h, other.h)

    def __hash__(self):
        return hash((self.n, tuple(self.beta.items()), self.h.tobytes()))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def max_degree(self) -> int:
        return max((len(ns) for ns in self.adjacency), default=0)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edges as parallel arrays (u, v, beta) in canonical order."""
        if not self.beta:
            z = np.zeros(0, dtype=np.int64)
            return z, z.copy(), np.zeros(0, dtype=np.float64)
        keys = list(self.beta.keys())
        eu = np.array([k[0] for k in keys], dtype=np.int64)
        ev = np.array([k[1] for k in keys], dtype=np.int64)
        eb = np.array([self.beta[k] for k in keys], dtype=np.float64)
        return eu, ev, eb


@dataclass(frozen=True)
class WeightVector:
    """Per-vertex weights for the objective, defined on all of 0..n-1."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim != 1:
            raise ModelFormatError("weight vector must be one-dimensional")
        if not np.all(np.isfinite(a)):
            bad = int(np.flatnonzero(~np.isfinite(a))[0])
            raise ModelFormatError(f"non-finite weight at vertex {bad}")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightVector):
            return NotImplemented
        return np.array_equal(self.a, other.a)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def is_one_bounded(self) -> bool:
        return bool(np.max(np.abs(self.a), initial=0.0) <= 1.0)

    @classmethod
    def ones(cls, n: int) -> "WeightVector":
        return cls(np.ones(n))

    @classmethod
    def zeros(cls, n: int) -> "WeightVector":
        return cls(np.zeros(n))


def check_weights(model: IsingModel, weights: WeightVector) -> None:
    if weights.n != model.n:
        raise ModelFormatError(
            f"weight vector has {weights.n} entries for a model with {model.n} vertices"
        )


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of the bounded-degree, bounded-interaction model family.

    ``delta_max`` bounds the graph degree and ``gamma`` bounds the edge
    interaction strength via (delta_max - 1) * tanh|beta| <= gamma.  In the
    algorithmic regime the slack ``delta`` satisfies gamma = 1 - delta; it is
    stored explicitly because the radius formulas consume delta while the
    membership check consumes gamma.
    """

    delta_max: int
    gamma: float
    delta: float | None = None

    def __post_init__(self):
        if self.delta_max < 3:
            raise ValueError(f"delta_max must be >= 3, got {self.delta_max}")
        if not (self.gamma > 0):
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.delta is not None:
            if not (0.0 < self.delta < 1.0):
                raise ValueError(f"delta must lie in (0,1), got {self.delta}")
            if abs(self.gamma - (1.0 - self.delta)) > 1e-12:
                raise ValueError(
                    f"algorithmic regime requires gamma = 1 - delta; "
                    f"got gamma={self.gamma}, delta={self.delta}"
                )

    @classmethod
    def algorithmic(cls, delta_max: int, delta: float) -> "FamilyParams":
        """Construct parameters for the high-temperature regime from the slack."""
        return cls(delta_max=delta_max, gamma=1.0 - delta, delta=delta)


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters for the influence-maximization solver.

    ``decay_constant`` is the constant in the correlation-decay bound; it is
    not determined by theory beyond existence, so it is configuration with
    default 1.0 (see solver.calibrate_decay_constant for an empirical fit).
    """

    k: int
    epsilon: float
    decay_constant: float = 1.0
    radius_override: int | None = None
    exact_ball_cap: int = 25

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"budget k must be >= 1, got {self.k}")
        if not (self.epsilon > 0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (self.decay_constant > 0):
            raise ValueError(f"decay_constant must be positive, got {self.decay_constant}")
        if self.radius_override is not None and self.radius_override < 0:
            raise ValueError(f"radius_override must be >= 0, got {self.radius_override}")
        if self.exact_ball_cap < 1:
            raise ValueError(f"exact_ball_cap must be >= 1, got {self.exact_ball_cap}")


@dataclass(frozen=True)
class FamilyCheck:
    """Outcome of a family-membership check; truthy iff the model qualifies."""

    ok: bool
    reason: str | None = None
    vertex: int | None = None
    edge: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_family(model: IsingModel, params: FamilyParams) -> FamilyCheck:
    """Check degree <= delta_max and (delta_max-1)*tanh|beta| <= gamma.

    Returns a truthy FamilyCheck on success, or a falsy one naming the first
    violating vertex or edge (vertices in id order, then edges in canonical
    order).
    """
    for v in range(model.n):
        d = model.degree(v)
        if d > params.delta_max:
            return FamilyCheck(
                False,
                reason=f"vertex {v} has degree {d} > {params.delta_max}",
                vertex=v,
            )
    bound = params.delta_max - 1
    for (u, v), b in model.beta.items():
        strength = bound * math.tanh(abs(b))
        if strength > params.gamma:
            return FamilyCheck(
                False,
                reason=(
                    f"edge ({u},{v}) has interaction {strength:.6g} > gamma={params.gamma:.6g}"
                ),
                edge=(u, v),
            )
    return FamilyCheck(True)


def critical_coupling(delta_max: int) -> float:
    """The coupling threshold arctanh(1/(delta_max - 1)) for degree-bounded graphs."""
    if delta_max < 3:
        raise ValueError(f"delta_max must be >= 3, got {delta_max}")
    return math.atanh(1.0 / (delta_max - 1))


def random_instance(
    n: int,
    delta_max: int,
    beta_range: tuple[float, float],
    h_range: tuple[float, float],
    seed: int,
) -> IsingModel:
    """Generate a random model with max degree <= delta_max, deterministically.

    Edge endpoints, couplings, and fields are drawn from a single seeded
    generator, so equal seeds give byte-identical models.  Roughly
    ``2 * n * delta_max`` insertion attempts are made, which fills most
    vertices close to the degree cap on sparse ranges.
    """
    if n < 1:
        raise ModelFormatError(f"cannot generate a model with n={n}")
    if delta_max < 0:
        raise ModelFormatError(f"infeasible degree cap {delta_max}")
    for name, rng_pair in (("beta", beta_range), ("h", h_range)):
        lo, hi = rng_pair
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ModelFormatError(f"invalid {name} range [{lo}, {hi}]")
    rng = np.random.default_rng(seed)
    beta: dict[tuple[int, int], float] = {}
    degree = [0] * n
    if n > 1 and delta_max > 0:
        for _ in range(2 * n * delta_max):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u == v:
                continue
            key = canonical_edge(u, v)
            if key in beta or degree[u] >= delta_max or degree[v] >= delta_max:
                continue
            beta[key] = float(rng.uniform(beta_range[0], beta_range[1]))
            degree[u] += 1
            degree[v] += 1
    h = rng.uniform(h_range[0], h_range[1], size=n)
    return IsingModel(n=n, beta=beta, h=h)


def random_weights(n: int, a_range: tuple[float, float], seed: int) -> WeightVector:
    """Generate uniform per-vertex weights, deterministically from the seed."""
    rng = np.random.default_rng(seed)
    return WeightVector(rng.uniform(a_range[0], a_range[1], size=n))


def restriction_ids(model: IsingModel, vertices) -> VertexSet:
    """Sorted ids of a nonempty subset of the model's vertices, validated."""
    ids = as_vertex_set(vertices)
    if not ids:
        raise ModelFormatError("cannot restrict a model to the empty vertex set")
    if ids[0] < 0 or ids[-1] >= model.n:
        bad = ids[0] if ids[0] < 0 else ids[-1]
        raise ModelFormatError(f"unknown vertex {bad} in restriction")
    return ids


def induced_submodel(model: IsingModel, vertices) -> tuple[IsingModel, VertexSet]:
    """Restrict the model to a vertex subset, relabelling to 0..m-1.

    Returns the submodel and the sorted original ids; original id
    ``ids[i]`` corresponds to submodel vertex ``i``.
    """
    ids = restriction_ids(model, vertices)
    pos = {v: i for i, v in enumerate(ids)}
    members = set(ids)
    beta = {
        (pos[u], pos[v]): b
        for (u, v), b in model.beta.items()
        if u in members and v in members
    }
    h = model.h[list(ids)]
    return IsingModel(n=len(ids), beta=beta, h=h), ids


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------
#
# {
#   "vertices": [{"id": 0, "h": 0.1, "a": 1.0}, ...],
#   "edges":    [{"u": 0, "v": 1, "beta": 0.3}, ...]
# }
#
# ids must be exactly 0..n-1 (the dense-id model invariant); "a" defaults
# to 0.  Serialization sorts vertices by id and edges canonically, so the
# output is byte-stable and parse(serialize(m)) round-trips exactly.


def serialize_model(model: IsingModel, weights: WeightVector | None = None) -> str:
    if weights is not None:
        check_weights(model, weights)
    a = weights.a if weights is not None else np.zeros(model.n)
    obj = {
        "vertices": [
            {"id": v, "h": float(model.h[v]), "a": float(a[v])} for v in range(model.n)
        ],
        "edges": [
            {"u": u, "v": v, "beta": float(b)} for (u, v), b in sorted(model.beta.items())
        ],
    }
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def parse_model(text: str) -> tuple[IsingModel, WeightVector]:
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise ModelFormatError("model file must be an object with 'vertices' and 'edges'")
    vertices = obj["vertices"]
    if not isinstance(vertices, list) or not vertices:
        raise ModelFormatError("model must declare at least one vertex")
    n = len(vertices)
    h = np.zeros(n)
    a = np.zeros(n)
    seen: set[int] = set()
    for entry in vertices:
        vid = _require_int(entry, "id", "vertex")
        if vid in seen:
            raise ModelFormatError(f"duplicate vertex id {vid}")
        seen.add(vid)
        if not (0 <= vid < n):
            raise ModelFormatError(
                f"vertex id {vid} is outside 0..{n - 1}; ids must be dense"
            )
        h[vid] = _require_number(entry, "h", f"vertex {vid}")
        a[vid] = _require_number(entry, "a", f"vertex {vid}", default=0.0)
    beta: dict[tuple[int, int], float] = {}
    for entry in obj["edges"]:
        u = _require_int(entry, "u", "edge")
        v = _require_int(entry, "v", "edge")
        if u == v:
            raise ModelFormatError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ModelFormatError(f"edge ({u},{v}) names an unknown vertex")
        key = canonical_edge(u, v)
        if key in beta:
            raise ModelFormatError(f"duplicate edge ({u},{v})")
        beta[key] = _require_number(entry, "beta", f"edge ({u},{v})")
    return IsingModel(n=n, beta=beta, h=h), WeightVector(a)


def load_model(path) -> tuple[IsingModel, WeightVector]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


def save_model(path, model: IsingModel, weights: WeightVector | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_model(model, weights))


def _reject_constant(name: str):
    raise ModelFormatError(f"non-finite number {name!r} in model file")


def _require_int(entry, key: str, what: str) -> int:
    if not isinstance(entry, dict) or key not in entry:
        raise ModelFormatError(f"{what} entry missing field {key!r}: {entry!r}")
    value = entry[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFormatError(f"{what} field {key!r} must be an integer, got {value!r}")
    return value


def _require_number(entry, key: str, what: str, default: float | None = None) -> float:
    if key not in entry:
        if default is not None:
            return default
        raise ModelFormatError(f"{what} is missing field {key!r}")
    value = entry[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"{what} field {key!r} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ModelFormatError(f"{what} field {key!r} is not finite")
    return float(value)
