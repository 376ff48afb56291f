"""Glauber-dynamics sampling and Monte Carlo influence estimation.

The chain performs single-site heat-bath updates: a uniformly random free
vertex is resampled from its conditional distribution given its neighbors.
Pinned coordinates never move.  These dynamics mix rapidly only in the
high-temperature regime; at low temperature they are known to be
exponentially slow, so estimates there should be treated as indicative
(the CLI attaches an explicit warning).

Influence estimates run two chains, one pinned and one free, and report
the difference of sample means with a batch-means standard error.
"""

import math
from dataclasses import dataclass

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
    """Mutable state of one Glauber chain."""

    spins: np.ndarray
    pinned: PartialAssignment
    rng: np.random.Generator
    steps_taken: int = 0
    free: np.ndarray | None = None

    def __post_init__(self):
        if self.free is None:
            pinned = set(self.pinned)
            self.free = np.array(
                [v for v in range(self.spins.shape[0]) if v not in pinned],
                dtype=np.int64,
            )


def make_chain(model: IsingModel, pinning: PartialAssignment, seed) -> ChainState:
    """Fresh chain with pinned coordinates set and free spins drawn uniformly."""
    pinning = dict(pinning) if pinning else {}
    check_assignment(pinning, model.n)
    rng = np.random.default_rng(seed)
    spins = (1 - 2 * rng.integers(0, 2, size=model.n)).astype(np.int8)
    for v, s in pinning.items():
        spins[v] = s
    return ChainState(spins=spins, pinned=pinning, rng=rng)


def glauber_step(state: ChainState, model: IsingModel) -> ChainState:
    """One heat-bath update in place; returns the same state object.

    The chosen vertex v is resampled to +1 with probability
    sigmoid(2 * (h_v + sum of beta_uv * spin_u over neighbors u)).
    With every vertex pinned the spins are left untouched.
    """
    return run_steps(state, model, 1)


def run_steps(state: ChainState, model: IsingModel, count: int) -> ChainState:
    """Advance the chain by `count` heat-bath updates (tight loop).

    Draws vertex picks and coins from the generator in batches, so the
    sample path differs from `count` single `glauber_step` calls; both are
    deterministic given the seed.
    """
    free = state.free
    if free.size == 0:
        state.steps_taken += count
        return state
    spins = state.spins
    h = model.h
    adjacency = model.adjacency
    beta = model.beta
    rng = state.rng
    picks = rng.integers(0, free.size, size=count)
    coins = rng.random(size=count)
    for t in range(count):
        v = int(free[picks[t]])
        field = h[v]
        for u in adjacency[v]:
            field += beta[(u, v) if u < v else (v, u)] * spins[u]
        spins[v] = 1 if coins[t] < 0.5 * (1.0 + math.tanh(field)) else -1
    state.steps_taken += count
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
) -> tuple[float, float]:
    """Monte Carlo estimate of the global influence of (S, sigma_S).

    Runs one chain pinned at the assignment and one unpinned chain, records
    the weighted spin sum every `thin` steps after burn-in, and returns the
    difference of sample means together with its batch-means standard error
    (the chains are independent, so the variances add).
    """
    check_weights(model, weights)
    sigma_S = dict(sigma_S)
    if set(sigma_S.keys()) != set(S):
        raise ValueError("assignment keys must equal the pinned set")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if thin < 1:
        raise ValueError(f"thin must be >= 1, got {thin}")
    a = weights.a
    if not np.any(a):
        return 0.0, 0.0
    root = np.random.SeedSequence(seed)
    seed_pinned, seed_free = root.spawn(2)
    means = []
    errs = []
    for pinning, chain_seed in ((sigma_S, seed_pinned), ({}, seed_free)):
        chain = make_chain(model, pinning, chain_seed)
        run_steps(chain, model, burn_in)
        values = np.empty(samples)
        for i in range(samples):
            run_steps(chain, model, thin)
            values[i] = a @ chain.spins
        means.append(float(values.mean()))
        errs.append(batch_means_stderr(values))
    estimate = means[0] - means[1]
    stderr = math.hypot(errs[0], errs[1])
    return estimate, stderr
