"""Glauber-dynamics sampling and Monte Carlo influence estimation.

The chain performs chromatic heat-bath sweeps.  The graph is coloured
greedily, so each colour class is an independent set; a sweep resamples
the classes in turn, every vertex of a class at once from its conditional
distribution given its neighbours.  Each class update leaves the Gibbs
measure invariant.  A sweep makes n site updates, one per vertex, and
draws one uniform per site.  Pinned coordinates never move.  These
dynamics mix rapidly only in the high-temperature regime; at low
temperature they are known to be exponentially slow, so estimates there
should be treated as indicative (the CLI attaches an explicit warning).

Influence estimates run a pinned and a free chain as the two rows of one
state.  Both rows start from the same spins and read the same random
numbers, so they agree away from the pinned set; the estimate is the mean
of the per-sample weighted difference, with a batch-means standard error.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    IsingModel,
    PartialAssignment,
    WeightVector,
    check_assignment,
    check_weights,
)

# Batch count for the batch-means standard error.
N_BATCHES = 20


@dataclass
class ChainState:
    """Mutable state of one Glauber chain, or of two coupled chains.

    `spins` has shape (n,) or (2, n).  The pinning holds in row 0; with
    two rows, row 1 is a free chain driven by the same random numbers.
    """

    spins: np.ndarray
    pinned: PartialAssignment
    rng: np.random.Generator
    steps_taken: int = 0
    _sweep: "_Sweep | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for v, s in self.pinned.items():
            np.atleast_2d(self.spins)[0, v] = s


def make_chain(model: IsingModel, pinning: PartialAssignment, seed) -> ChainState:
    """Fresh chain with pinned coordinates set and free spins drawn uniformly."""
    pinning = dict(pinning) if pinning else {}
    check_assignment(pinning, model.n)
    rng = np.random.default_rng(seed)
    return ChainState(spins=_uniform_spins(rng, model.n), pinned=pinning, rng=rng)


def _uniform_spins(rng: np.random.Generator, n: int) -> np.ndarray:
    return (1 - 2 * rng.integers(0, 2, size=n)).astype(np.int8)


def colour_classes(model: IsingModel) -> list[np.ndarray]:
    """Greedy colouring in id order: at most max degree + 1 independent sets.

    Vertex v takes the smallest colour that none of its lower-numbered
    neighbours has.  Returns the vertices of each colour, ascending.
    """
    colour = np.empty(model.n, dtype=np.int64)
    for v, ns in enumerate(model.adjacency):
        used = {int(colour[u]) for u in ns if u < v}
        c = 0
        while c in used:
            c += 1
        colour[v] = c
    return [np.flatnonzero(colour == c) for c in range(int(colour.max()) + 1)]


@dataclass(frozen=True)
class _Sweep:
    """A chain's colour classes, laid out for one NumPy update per class.

    The working buffer holds each row's spins as bits b = (s + 1) / 2, in
    `order` (the classes one after another), followed by a pad entry fixed
    at 0, so a class is a slice.  Since sum_u beta_uv s_u equals
    sum_u 2 beta_uv b_u - sum_u beta_uv, vertex v turns +1 exactly when
    L_v + `offset`_v < sum_u 2 beta_uv b_u, where L_v is logistic with
    scale 1/2 and `offset`_v = sum_u beta_uv - h_v; that happens with
    probability sigmoid(2 * (h_v + sum_u beta_uv s_u)).  Per class: its
    slice bounds, the flat buffer positions of its neighbours in every
    row (padded with the pad entry), the doubled couplings (padded with 0)
    and the flat positions and bits of its pins.
    """

    model: IsingModel
    order: np.ndarray
    offset: np.ndarray
    classes: tuple[tuple[int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]

    @classmethod
    def make(cls, model: IsingModel, pinned: PartialAssignment, rows: int) -> "_Sweep":
        n = model.n
        vertex_sets = colour_classes(model)
        order = np.concatenate(vertex_sets)
        pos = np.empty(n + 1, dtype=np.int64)
        pos[order] = np.arange(n)
        pos[n] = n
        row_offsets = (n + 1) * np.arange(rows).reshape(rows, 1, 1)
        offset = -model.h[order]
        classes = []
        lo = 0
        for verts in vertex_sets:
            hi = lo + verts.size
            width = max(len(model.adjacency[v]) for v in verts)
            nbrs = np.full((verts.size, width), n, dtype=np.int64)
            couplings = np.zeros((verts.size, width))
            for i, v in enumerate(verts):
                for j, u in enumerate(model.adjacency[v]):
                    nbrs[i, j] = u
                    couplings[i, j] = model.beta[(u, v) if u < v else (v, u)]
            offset[lo:hi] += couplings.sum(axis=1)
            pins = [(pos[v], s) for v, s in pinned.items() if lo <= pos[v] < hi]
            classes.append((
                lo, hi, pos[nbrs] + row_offsets, 2.0 * couplings,
                np.array([p for p, _ in pins], dtype=np.int64),
                np.array([s > 0 for _, s in pins], dtype=np.float64),
            ))
            lo = hi
        return cls(model, order, offset, tuple(classes))


def glauber_step(state: ChainState, model: IsingModel) -> ChainState:
    """One heat-bath sweep in place; returns the same state object.

    Each vertex v is resampled to +1 with probability
    sigmoid(2 * (h_v + sum of beta_uv * spin_u over neighbors u)).
    With every vertex pinned a one-row chain is left untouched.
    """
    return run_steps(state, model, 1)


def run_steps(state: ChainState, model: IsingModel, count: int) -> ChainState:
    """Advance the chain by `count` site updates, rounded up to whole sweeps.

    A sweep updates the colour classes in turn; the pins are imposed again
    in row 0 after each class update, so later classes read pinned
    neighbours.  Each site draws one logistic variate per sweep (one
    uniform, by inversion), shared by both rows, so both rows take the
    same heat-bath decision wherever they see the same field.  The sample
    path is deterministic given the seed.
    """
    if count < 0:
        raise ValueError(f"update count must be >= 0, got {count}")
    n = model.n
    rows = np.atleast_2d(state.spins)
    if state._sweep is None or state._sweep.model is not model:
        state._sweep = _Sweep.make(model, state.pinned, rows.shape[0])
    sweep = state._sweep
    bits = np.zeros((rows.shape[0], n + 1))
    bits[:, :n] = rows[:, sweep.order] > 0
    flat = bits.reshape(-1)
    sweeps = -(-count // n)
    for _ in range(sweeps):
        threshold = state.rng.logistic(0.0, 0.5, size=n) + sweep.offset
        for lo, hi, nbrs, couplings, pin_at, pin_to in sweep.classes:
            np.less(threshold[lo:hi], np.add.reduce(flat[nbrs] * couplings, axis=-1),
                    out=bits[:, lo:hi])
            if pin_at.size:
                flat[pin_at] = pin_to
    rows[:, sweep.order] = 2 * bits[:, :n] - 1
    state.steps_taken += sweeps * n
    return state


def default_burn_in(n: int) -> int:
    """Heuristic burn-in of 100 * n * log(n) updates (no mixing guarantee)."""
    return int(math.ceil(100.0 * n * math.log(max(n, 2))))


def batch_means_stderr(values: np.ndarray, n_batches: int = N_BATCHES) -> float:
    """Standard error of the mean via non-overlapping batch means.

    Uses the largest equal split into at most `n_batches` batches; this
    dampens the bias a naive iid formula would have under autocorrelation.
    """
    m = values.shape[0]
    nb = min(n_batches, m)
    if nb < 2:
        return 0.0
    b = m // nb
    trimmed = values[: nb * b].reshape(nb, b)
    means = trimmed.mean(axis=1)
    var = means.var(ddof=1) / nb
    return float(math.sqrt(max(var, 0.0)))


def estimate_influence(
    model: IsingModel,
    weights: WeightVector,
    S,
    sigma_S: PartialAssignment,
    burn_in: int,
    samples: int,
    thin: int,
    seed,
    diagnostics: dict | None = None,
) -> tuple[float, float]:
    """Monte Carlo estimate of the global influence of (S, sigma_S).

    Runs a pinned and a free chain coupled through shared random numbers
    (the two rows of one state, started from the same uniform draw).
    After `burn_in` updates it records D = a . (x_pinned - x_free) every
    `thin` updates, both rounded up to whole sweeps of n updates, and
    returns the mean of D with its batch-means standard error.  If
    `diagnostics` is a dict, it receives the sweep count, the site updates
    per chain and the share of sites where the chains agree, averaged over
    the samples.
    """
    check_weights(model, weights)
    sigma_S = dict(sigma_S)
    if set(sigma_S.keys()) != set(S):
        raise ValueError("assignment keys must equal the pinned set")
    check_assignment(sigma_S, model.n)
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if thin < 1:
        raise ValueError(f"thin must be >= 1, got {thin}")
    a = weights.a
    if not np.any(a):
        if diagnostics is not None:
            diagnostics.update(sweeps=0, site_updates=0, agree_fraction=None)
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    start = _uniform_spins(rng, model.n)
    chain = ChainState(spins=np.stack([start, start]), pinned=sigma_S, rng=rng)
    run_steps(chain, model, burn_in)
    diffs = np.empty(samples)
    disagree = 0
    for i in range(samples):
        run_steps(chain, model, thin)
        diff = chain.spins[0] - chain.spins[1]
        diffs[i] = a @ diff
        disagree += np.count_nonzero(diff)
    if diagnostics is not None:
        diagnostics.update(
            sweeps=chain.steps_taken // model.n,
            site_updates=chain.steps_taken,
            agree_fraction=1.0 - disagree / (samples * model.n),
        )
    return float(diffs.mean()), batch_means_stderr(diffs)
