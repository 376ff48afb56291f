"""Exact inference on small Ising models: log partition, marginals, expectations.

Every quantity comes from one kernel, `_log_weights`, which lists the
energy of every completion of the free vertices of a vertex set.  It walks
the set in increasing id order: a pinned vertex adds its spin times its
local field to every entry, and a free vertex doubles the array, so the
free vertices become the index bits (the b-th free vertex is bit b, and bit
value 0 is spin +1).  Pinned vertices stay inside the enumeration (never
folded into fields), so conditional and unconditional queries share one
code path.  Weights are exponentiated behind a max shift; nothing
exponentiates an unshifted energy.

Two structural guarantees are arranged deliberately:

* computations decompose over connected components, so the log partition
  of a disconnected model is bit-for-bit the sum of its parts;
* negating all fields and pinned spins gives every configuration's
  negation bit for bit the same energy, and log partitions and single-vertex
  expectations sum weights in sorted order, so expectations are exactly
  antisymmetric under that negation.

Components with more than 2^20 completions are streamed in chunks, each
chunk being the kernel run with the high free bits pinned; results are
then accurate to roundoff but carry no bitwise claims.  `JointTable` keeps
the kernel's weights of a whole vertex set, so that repeated conditional
queries read them through a view instead of enumerating again.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ModelFormatError
from .model import (
    IsingModel,
    PartialAssignment,
    VertexSet,
    check_assignment,
    restriction_ids,
)
from . import graph

DEFAULT_EXACT_BALL_CAP = 25
# Largest vertex set a JointTable may cover (2^20 weights, 8 MiB).
DEFAULT_TABLE_CAP = 20

# Components with at most this many free vertices are enumerated in one
# pass; larger ones stream in chunks of 2^_CHUNK_BITS completions.
_SINGLE_PASS_BITS = 20
_CHUNK_BITS = 16


@dataclass(frozen=True)
class PinnedModel:
    """A model restricted to a vertex subset with some spins pinned.

    ``ids`` is the sorted subset; ``pinning`` and ``free`` are in the same
    (original) ids.  The implied distribution is the Gibbs measure of the
    subgraph of ``model`` induced on ``ids``, conditioned on the pinned
    spins.
    """

    model: IsingModel
    ids: VertexSet
    pinning: PartialAssignment
    free: VertexSet

    @classmethod
    def make(
        cls,
        model: IsingModel,
        subset=None,
        pinning: PartialAssignment | None = None,
    ) -> "PinnedModel":
        pinning = dict(pinning) if pinning else {}
        check_assignment(pinning, model.n)
        ids = restriction_ids(model, range(model.n) if subset is None else subset)
        members = set(ids)
        for v in pinning:
            if v not in members:
                raise ModelFormatError(f"pinned vertex {v} is outside the restricted set")
        free = tuple(v for v in ids if v not in pinning)
        return cls(model=model, ids=ids, pinning=pinning, free=free)

    def local_index(self, v: int) -> int:
        try:
            return self.ids.index(v)
        except ValueError:
            raise ModelFormatError(f"vertex {v} is not in the restricted set") from None


def log_partition(pm: PinnedModel, cap: int = DEFAULT_EXACT_BALL_CAP) -> float:
    """Log of the summed weights of all completions consistent with the pinning.

    Decomposes over connected components of the restricted graph; the cap
    applies to the free-vertex count of each component.
    """
    total = 0.0
    for comp in graph.induced_components(pm.model, pm.ids):
        shift, w_sum = _stream(pm, comp, cap, lambda w, free, pin: np.sort(w).sum())
        total += shift + float(np.log(w_sum))
    return total


def expectation(pm: PinnedModel, v: int, cap: int = DEFAULT_EXACT_BALL_CAP) -> float:
    """Exact conditional expectation of the spin at vertex v, in [-1, 1]."""
    if v in pm.pinning:
        return float(pm.pinning[v])
    pm.local_index(v)
    comp = next(c for c in graph.induced_components(pm.model, pm.ids) if v in c)

    def fold(w, free, pin):
        return np.array([np.sort(x, axis=None).sum() for x in _halves(w, free, pin, v)])

    _, (w_plus, w_minus) = _stream(pm, comp, cap, fold)
    return float((w_plus - w_minus) / (w_plus + w_minus))


def marginal_plus(pm: PinnedModel, v: int, cap: int = DEFAULT_EXACT_BALL_CAP) -> float:
    """Conditional probability that the spin at v is +1."""
    return (1.0 + expectation(pm, v, cap)) / 2.0


def weighted_expectation(
    pm: PinnedModel, a: np.ndarray, cap: int = DEFAULT_EXACT_BALL_CAP
) -> float:
    """Exact conditional expectation of sum_i a[i] * X_{ids[i]}.

    ``a`` is aligned with ``pm.ids``.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (len(pm.ids),):
        raise ModelFormatError(
            f"weight slice has shape {a.shape}, expected ({len(pm.ids)},)"
        )
    weight = dict(zip(pm.ids, a.tolist()))
    total = 0.0
    for comp in graph.induced_components(pm.model, pm.ids):
        total += float(np.dot([weight[v] for v in comp], _component_means(pm, comp, cap)))
    return total


def vertex_expectations(
    pm: PinnedModel, cap: int = DEFAULT_EXACT_BALL_CAP
) -> dict[int, float]:
    """Conditional expectation of every vertex in the restricted set."""
    out: dict[int, float] = {}
    for comp in graph.induced_components(pm.model, pm.ids):
        out.update(zip(comp, _component_means(pm, comp, cap).tolist()))
    return {v: out[v] for v in pm.ids}


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------


def _log_weights(model: IsingModel, ids: VertexSet, pinning: PartialAssignment) -> np.ndarray:
    """Energy of every completion of the free vertices of the sorted set ids.

    Vertex v contributes s_v * c_v with c_v = h_v + sum of beta_uv * s_u over
    its neighbours u < v in ids.  A pinned v adds s_v * c_v to every entry;
    a free v doubles the array to [E + c_v, E - c_v].  Each beta_uv * s_u
    term of a free u is one add on the view of c_v that splits u's bit.
    ``pinning`` may also name vertices outside ids that have no neighbour
    in ids (the other components' pins).
    """
    E = np.zeros(1 << sum(v not in pinning for v in ids))
    bit: dict[int, int] = {}
    size = 1
    for v in ids:
        c = float(model.h[v])
        terms = []
        for u in model.adjacency[v]:
            if u >= v:
                break
            if u in bit:
                terms.append((bit[u], model.beta[(u, v)]))
            elif u in pinning:
                c += model.beta[(u, v)] * pinning[u]
        if terms:
            c = np.full(size, c)
            for b, beta in terms:
                split = c.reshape(-1, 2, 1 << b)
                split += np.array([[beta], [-beta]])
        s = pinning.get(v)
        if s is None:
            _double(E, size, c)
            bit[v] = len(bit)
            size *= 2
        else:
            E[:size] += s * c
    return E


def _double(x: np.ndarray, size: int, c) -> None:
    """In place, set x[:2*size] to [x[:size] + c, x[:size] - c]: one new spin bit."""
    np.subtract(x[:size], c, out=x[size:2 * size])
    x[:size] += c


def _stream(pm: PinnedModel, comp: VertexSet, cap: int, fold):
    """Fold the shifted weights of a component's completions.

    Returns (shift, sum of fold(w, free, pin) over chunks), where w holds
    exp(energy - shift) of one chunk, ``free`` lists the chunk's free
    vertices in bit order and ``pin`` is its pinning.  Up to 2^_SINGLE_PASS_BITS
    completions form a single chunk; beyond that the high free bits are
    pinned chunk by chunk and earlier sums are rescaled as the shift rises.
    """
    free = [v for v in comp if v not in pm.pinning]
    if len(free) > cap:
        raise CapacityError(
            f"component {comp[:4]}... has {len(free)} free vertices, "
            f"exceeding the exact enumeration cap of {cap}; "
            f"use Monte Carlo estimation instead"
        )
    low = len(free) if len(free) <= _SINGLE_PASS_BITS else min(len(free), _CHUNK_BITS)
    high = free[low:]
    shift, acc = -np.inf, 0.0
    for chunk in range(1 << len(high)):
        pin = dict(pm.pinning)
        pin.update((v, 1 - 2 * (chunk >> t & 1)) for t, v in enumerate(high))
        E = _log_weights(pm.model, comp, pin)
        top = float(E.max())
        if top > shift:
            acc = acc * np.exp(shift - top)
            shift = top
        E -= shift
        acc = acc + fold(np.exp(E, out=E), free[:low], pin)
    return shift, acc


def _halves(w: np.ndarray, free, pin: PartialAssignment, v: int):
    """Weights of the completions with spin +1 at v, and of those with -1."""
    if v in pin:
        return (w, w[:0]) if pin[v] == 1 else (w[:0], w)
    split = w.reshape(-1, 2, 1 << free.index(v))
    return split[:, 0], split[:, 1]


def _spin_sums(w: np.ndarray, free, pin: PartialAssignment, ids) -> np.ndarray:
    """Total weight, then the weighted spin sum of each vertex of ids."""
    sums = [w.sum()]
    for v in ids:
        plus, minus = _halves(w, free, pin, v)
        sums.append(plus.sum() - minus.sum())
    return np.array(sums)


def _component_means(pm: PinnedModel, comp: VertexSet, cap: int) -> np.ndarray:
    """Conditional expectation of each vertex of one component, in order."""
    _, sums = _stream(pm, comp, cap, lambda w, free, pin: _spin_sums(w, free, pin, comp))
    return sums[1:] / sums[0]


# ---------------------------------------------------------------------------
# Joint weight tables: cached weights for repeated conditional queries
# ---------------------------------------------------------------------------


class JointTable:
    """The kernel's weights of every configuration of a small vertex set.

    ``w`` holds exp(energy - log_shift) for all 2^m configurations of
    ``ids`` in the kernel's bit order.  Conditioning on a pinning is basic
    indexing on ``w`` viewed with one axis per vertex, so a conditional
    query reads the consistent weights without copying or enumerating.
    The cap is checked before anything is allocated.
    """

    def __init__(self, model: IsingModel, vertices, cap: int = DEFAULT_TABLE_CAP):
        ids = restriction_ids(model, vertices)
        if len(ids) > cap:
            raise CapacityError(
                f"joint table over {len(ids)} vertices exceeds the table cap of {cap}"
            )
        self.ids = ids
        # Vertex ids[i] is bit i, which is axis m-1-i of the (2,)*m view.
        self._axis = {v: len(ids) - 1 - i for i, v in enumerate(ids)}
        E = _log_weights(model, ids, {})
        self.log_shift = float(E.max())
        E -= self.log_shift
        self.w = np.exp(E, out=E)

    def _select(self, x: np.ndarray, pinning: PartialAssignment | None) -> np.ndarray:
        """View of x (one entry per configuration) consistent with the pinning."""
        index = [slice(None)] * len(self.ids)
        for v, s in (pinning or {}).items():
            index[self._axis[v]] = 0 if s == 1 else 1
        return x.reshape((2,) * len(self.ids))[tuple(index)]

    def config_values(self, a: np.ndarray) -> np.ndarray:
        """Per-configuration value of sum_i a[i] * spin_i, aligned with ids."""
        values = np.zeros(1 << len(self.ids))
        for b, a_v in enumerate(np.asarray(a, dtype=np.float64).tolist()):
            _double(values, 1 << b, a_v)
        return values

    def log_partition(self, pinning: PartialAssignment | None = None) -> float:
        return self.log_shift + float(np.log(self._select(self.w, pinning).sum()))

    def mean_of(self, values: np.ndarray, pinning: PartialAssignment | None = None) -> float:
        ws = self._select(self.w, pinning)
        return float((ws * self._select(values, pinning)).sum()) / float(ws.sum())

    def vertex_means(self, pinning: PartialAssignment | None = None) -> np.ndarray:
        pinning = pinning or {}
        free = [v for v in self.ids if v not in pinning]
        ws = self._select(self.w, pinning).ravel()
        sums = _spin_sums(ws, free, pinning, self.ids)
        return sums[1:] / sums[0]
