"""Graph-metric utilities over Ising models.

Everything here works on the unweighted graph underlying a model: balls,
adjacency in the distance-power graph, its connected components over a
vertex subset, and enumeration of the small power-connected clusters that
seed the solver.  All distances are exact integers from one level-by-level
breadth-first traversal, `_bfs`; a query with a distance limit visits only
the vertices within that limit, so its cost does not grow with the model.
The power graph is never materialized.
"""

from operator import index

from .errors import ModelFormatError
from .model import IsingModel, VertexSet, as_vertex_set


def _bfs(model: IsingModel, sources, limit: int | None = None) -> dict[int, int]:
    """Distance of every vertex within `limit` of `sources`, in BFS order.

    Vertices beyond `limit` (or unreachable) are absent; with no limit the
    traversal covers the sources' components.  Only reached vertices are
    touched.
    """
    dist: dict[int, int] = {}
    for s in sources:
        if not (0 <= s < model.n):
            raise ModelFormatError(f"unknown vertex {s}")
        dist[index(s)] = 0  # keys are plain ints, also for NumPy integer ids
    adjacency = model.adjacency
    frontier = list(dist)
    d = 0
    while frontier and (limit is None or d < limit):
        d += 1
        nxt = []
        for u in frontier:
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def bfs_distances(model: IsingModel, sources, limit: int | None = None) -> list[int]:
    """Multi-source BFS distances; -1 marks vertices beyond `limit` or unreachable."""
    dist = [-1] * model.n
    for v, d in _bfs(model, sources, limit).items():
        dist[v] = d
    return dist


def ball(model: IsingModel, S, r: int) -> VertexSet:
    """All vertices at graph distance <= r from the set S."""
    members = as_vertex_set(S)
    if not members:
        raise ModelFormatError("ball of the empty set is undefined")
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    return tuple(sorted(_bfs(model, members, r)))


def set_distance(model: IsingModel, T1, T2, limit: int | None = None) -> int:
    """Minimum graph distance between two vertex sets; -1 if beyond `limit`.

    BFS runs from the smaller set, up to `limit`; the answer is the smallest
    distance it reached on the other set.
    """
    A = as_vertex_set(T1)
    B = as_vertex_set(T2)
    if len(B) < len(A):
        A, B = B, A
    if not set(A).isdisjoint(B):
        return 0
    dist = _bfs(model, A, limit)
    return min((dist[v] for v in B if v in dist), default=-1)


def power_adjacent(model: IsingModel, T1, T2, r: int) -> bool:
    """Whether two disjoint sets are adjacent in the (2r+1)-power graph."""
    A = as_vertex_set(T1)
    B = as_vertex_set(T2)
    if not A or not B:
        raise ModelFormatError("power adjacency requires nonempty sets")
    if set(A) & set(B):
        raise ModelFormatError(f"sets overlap at vertex {min(set(A) & set(B))}")
    return set_distance(model, A, B, limit=2 * r + 1) != -1


def components_in_power_graph(model: IsingModel, S, r: int) -> list[VertexSet]:
    """Partition S into connected components of the (2r+1)-power graph on S.

    Components are returned sorted by smallest member.
    """
    members = as_vertex_set(S)
    if not members:
        raise ModelFormatError("cannot decompose the empty set")
    reach = 2 * r + 1
    # Union-find over the members, linking pairs within the power distance.
    parent = {v: v for v in members}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for v in members:
        dist = _bfs(model, (v,), reach)
        for w in members:
            if w > v and w in dist:
                rv, rw = find(v), find(w)
                if rv != rw:
                    parent[rw] = rv
    groups: dict[int, list[int]] = {}
    for v in members:
        groups.setdefault(find(v), []).append(v)
    return sorted((tuple(sorted(g)) for g in groups.values()), key=lambda t: t[0])


def induced_components(model: IsingModel, subset) -> list[VertexSet]:
    """Connected components of the subgraph induced on `subset`.

    Sorted by smallest member; traversal never leaves the subset.
    """
    members = as_vertex_set(subset)
    allowed = set(members)
    seen: set[int] = set()
    comps: list[VertexSet] = []
    for s in members:
        if s in seen:
            continue
        stack = [s]
        seen.add(s)
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in model.adjacency[u]:
                if w in allowed and w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def connected_components(model: IsingModel) -> list[VertexSet]:
    """Connected components of the model graph, sorted by smallest member."""
    return induced_components(model, range(model.n))


def graph_diameter(model: IsingModel) -> int:
    """Largest finite distance in the graph (max over components)."""
    # `_bfs` reaches vertices in order of distance: the last one is the farthest.
    return max(next(reversed(_bfs(model, (v,)).values())) for v in range(model.n))


def canonical_cluster_key(T: VertexSet) -> tuple[int, VertexSet]:
    """Total order on clusters: by size, then lexicographically."""
    return (len(T), T)


def enumerate_connected_clusters(model: IsingModel, k: int, r: int) -> list[VertexSet]:
    """All nonempty subsets of size <= k connected in the (2r+1)-power graph.

    Grows sets anchored at their minimum vertex, extending only by larger
    vertices adjacent (in the power graph) to the current set, with a
    seen-set filter; every qualifying cluster is produced exactly once.
    Output is in canonical order.
    """
    if k < 1:
        raise ValueError(f"cluster size bound must be >= 1, got {k}")
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    reach = 2 * r + 1
    pneighbors: dict[int, frozenset[int]] = {}

    def neighbors_of(v: int) -> frozenset[int]:
        cached = pneighbors.get(v)
        if cached is None:
            cached = frozenset(w for w in _bfs(model, (v,), reach) if w != v)
            pneighbors[v] = cached
        return cached

    out: list[VertexSet] = []
    for anchor in range(model.n):
        start = frozenset((anchor,))
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            out.append(tuple(sorted(cur)))
            if len(cur) == k:
                continue
            for u in cur:
                for w in neighbors_of(u):
                    if w <= anchor or w in cur:
                        continue
                    nxt = cur | {w}
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
    out.sort(key=canonical_cluster_key)
    return out
