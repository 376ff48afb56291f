"""Spans around the package's public functions, recorded from outside.

Each traced function is replaced, at every name its callers look it up
by, with a wrapper that records a span: name, layer, start, end, parent
span and op id.  Spans are kept in memory and written out when the run
ends.  A layer's self time is the duration of its spans minus the time
covered by their child spans; because spans of one op nest, the self
times of all spans under an op add up to the op's wall time.

Import this module only after `isingmax` is importable from the tree
being measured.
"""

import json
import time
from collections import Counter, defaultdict

from isingmax import cli, estimate, exact, graph, influence, model, reduction, solver

LAYERS = ("model", "graph", "exact", "influence", "solver", "estimate", "reduction", "cli")
# Spans of layer "trace" time the tracer's own bookkeeping.

# The exact-enumeration entry points used for components above the table cap.
STREAM_SPANS = (
    "exact.weighted_expectation", "exact.vertex_expectations",
    "exact.expectation", "exact.log_partition",
)


def _mwis_pool(args):
    """Candidates `budgeted_mwis` searches: k(D+1) heaviest per cost class."""
    H, k = args[0], args[1]
    keep = k * (H.max_degree + 1)
    per_cost = Counter(c.cost for c in H.clusters)
    return sum(min(per_cost[cost], keep) for cost in range(1, k + 1))


def _table_counts(tracer, args, table):
    m = len(table.ids)
    tracer.counts["exact.table_configs"] += 1 << m
    tracer.counts["exact.table_bytes"] += (1 << m) * (m + 1) * 8


# (span name, owner, attribute, other namespaces that import the name,
#  hook(tracer, args, result) run after the call)
def _points():
    E = influence.InfluenceEvaluator
    return [
        ("cli.main", cli, "main", (), None),
        ("model.load_model", model, "load_model", (cli,), None),
        ("model.save_model", model, "save_model", (cli,), None),
        ("model.random_instance", model, "random_instance", (cli,), None),
        ("model.random_weights", model, "random_weights", (cli,), None),
        ("graph.enumerate_connected_clusters", graph, "enumerate_connected_clusters", (),
         lambda t, a, r: t.counts.update({"graph.clusters": len(r)})),
        ("graph.ball", graph, "ball", (), None),
        ("graph.graph_diameter", graph, "graph_diameter", (reduction,), None),
        ("exact.JointTable", influence, "JointTable", (), _table_counts),
        *((name, exact, name.split(".")[1], (), None) for name in STREAM_SPANS),
        ("influence.local_influence", E, "local_influence", (), None),
        ("influence.global_influence", E, "global_influence", (), None),
        ("solver.solve_infmax", solver, "solve_infmax", (reduction,), None),
        ("solver.build_cluster_graph", solver, "build_cluster_graph", (),
         lambda t, a, r: t.counts.update({"solver.cluster_edges": len(r.adjacency)})),
        ("solver.budgeted_mwis", solver, "budgeted_mwis", (),
         lambda t, a, r: t.counts.update({"solver.mwis_pool": _mwis_pool(a)})),
        ("solver.brute_force_infmax", solver, "brute_force_infmax", (reduction,), None),
        ("estimate.estimate_influence", estimate, "estimate_influence", (),
         lambda t, a, r: t.ses.append(r[1])),
        ("estimate.run_steps", estimate, "run_steps", (),
         lambda t, a, r: t.counts.update({"estimate.updates": a[2]})),
        ("reduction.binary_search_marginal", reduction, "binary_search_marginal", (), None),
        ("reduction.probe", reduction, "oracle_solver", (), None),
    ]


class Tracer:
    """Records spans while installed and an op id is set."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index, op id]
        self.counts = Counter()
        self.ses = []
        self.op = None
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, hook=None):
        layer = name.split(".")[0]

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            rec = [name, layer, 0.0, 0.0, parent, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                # The hook's own cost is tracing overhead: give it a span of
                # its own so it is not billed to the caller's layer.
                start = time.perf_counter()
                hook(self, args, result)
                self.spans.append(["trace.hook", "trace", start, time.perf_counter(),
                                   parent, self.op])
            return result

        return traced

    def patch(self, owner, attr, replacement, sites=()):
        """Replace `owner.attr` and the same object under `attr` in `sites`."""
        original = getattr(owner, attr)
        for target in (owner, *sites):
            if getattr(target, attr) is original:
                self._saved.append((target, attr, original))
                setattr(target, attr, replacement)

    def install(self):
        for name, owner, attr, sites, hook in _points():
            self.patch(owner, attr, self.wrap(name, getattr(owner, attr), hook), sites)
        # Component queries are counted, not timed: they run thousands of
        # times per solve and have no child spans worth separating.
        E = influence.InfluenceEvaluator
        component = E._component_influence

        def counted(*args, **kwargs):
            if self.op is not None:
                self.counts["influence.component_queries"] += 1
            return component(*args, **kwargs)

        self.patch(E, "_component_influence", counted)
        # The localization solver is a closure; wrap each one handed out.
        make = reduction.make_localization_solver
        self.patch(reduction, "make_localization_solver",
                   lambda *a, **kw: self.wrap("reduction.probe", make(*a, **kw)))

    def uninstall(self):
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Self time of every span: duration minus its children's durations."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] is not None:
                own[s[4]] -= s[3] - s[2]
        return own

    def op_balance(self):
        """Largest |sum of self times under an op - the op's root span| in s."""
        own = self.self_times()
        total, root = defaultdict(float), {}
        for s, t in zip(self.spans, own):
            total[s[5]] += t
            if s[4] is None:
                root[s[5]] = root.get(s[5], 0.0) + s[3] - s[2]
        return max((abs(total[op] - root[op]) for op in root), default=0.0)

    def layer_metrics(self, passes, setup_op="setup"):
        """Per-layer metrics, per traced pass (set-up spans only in model.io_s)."""
        own = self.self_times()
        calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
        layer_self, setup_model = defaultdict(float), 0.0
        for s, t in zip(self.spans, own):
            if s[5] == setup_op:
                if s[1] == "model":
                    setup_model += t
                continue
            calls[s[0]] += 1
            incl[s[0]] += s[3] - s[2]
            self_s[s[0]] += t
            layer_self[s[1]] += t
        p = float(max(passes, 1))
        c = self.counts
        builds = calls["exact.JointTable"]
        build_s = self_s["exact.JointTable"]
        queries = c["influence.component_queries"]
        steps_s = incl["estimate.run_steps"]
        metrics = {
            "model.io_s": setup_model + layer_self["model"] / p,
            "graph.enumerate_s": self_s["graph.enumerate_connected_clusters"] / p,
            "graph.clusters": c["graph.clusters"] / p,
            "graph.ball_s": self_s["graph.ball"] / p,
            "graph.ball_calls": calls["graph.ball"] / p,
            "graph.diameter_s": self_s["graph.graph_diameter"] / p,
            "graph.diameter_calls": calls["graph.graph_diameter"] / p,
            "exact.table_builds": builds / p,
            "exact.table_build_s": build_s / p,
            "exact.table_configs": c["exact.table_configs"] / p,
            "exact.configs_per_s": c["exact.table_configs"] / build_s if build_s else 0.0,
            "exact.table_bytes": c["exact.table_bytes"] / p,
            "exact.stream_calls": sum(calls[n] for n in STREAM_SPANS) / p,
            "exact.stream_s": sum(incl[n] for n in STREAM_SPANS) / p,
            "influence.local_calls": calls["influence.local_influence"] / p,
            "influence.local_s": self_s["influence.local_influence"] / p,
            "influence.global_calls": calls["influence.global_influence"] / p,
            "influence.global_s": self_s["influence.global_influence"] / p,
            "influence.table_hit_ratio": 1.0 - builds / queries if queries else 0.0,
            "solver.build_s": incl["solver.build_cluster_graph"] / p,
            "solver.adjacency_s": self_s["solver.build_cluster_graph"] / p,
            "solver.cluster_edges": c["solver.cluster_edges"] / p,
            "solver.mwis_s": incl["solver.budgeted_mwis"] / p,
            "solver.mwis_pool": c["solver.mwis_pool"] / p,
            "solver.oracle_s": incl["solver.brute_force_infmax"] / p,
            "estimate.updates": c["estimate.updates"] / p,
            "estimate.updates_per_s": c["estimate.updates"] / steps_s if steps_s else 0.0,
            "estimate.se_mean": sum(self.ses) / len(self.ses) if self.ses else 0.0,
            "reduction.probes": calls["reduction.probe"] / p,
            "reduction.probe_s": incl["reduction.probe"] / p,
            "cli.self_s": layer_self["cli"] / p,
        }
        layers = {layer: layer_self[layer] / p for layer in (*LAYERS, "trace")}
        return metrics, layers

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))
