"""Span tracing of the program's layers, installed from outside the program.

``Tracer.install`` replaces each layer's public functions with wrappers
that record a span (name, start, end, parent) per call.  A function is
replaced at every module attribute that holds it, so calls through a
name import (``from .engine import sn_exact``) are traced as well as
calls through the defining module.  Per-node helpers (``frontier``,
``advance_round``) are not wrapped; node counts come from the ``nodes``
field of the results instead.

Spans are kept in memory for one pass and folded into per-layer metrics
by ``Tracer.pass_metrics``.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (span name, module, functions); the names follow the program's modules
LAYERS = (
    ("randgen", "randgen", ("random_triangulation", "random_tf_maximal")),
    ("augment.insert", "augment", ("insert_vertex_in_face", "insert_chord")),
    ("embedding.build", "embedding", ("build",)),
    ("formats", "formats", ("parse", "encode_rotation_json")),
    ("engine.run_simulation", "engine", ("run_simulation",)),
    ("engine.sn_exact", "engine", ("sn_exact",)),
    ("engine.containment", "engine", ("min_burned_containment",)),
    # the two search back ends behind min_burned_containment, chosen by
    # burn_cap against engine.REGION_ENUM_MAX_CAP
    ("engine.containment.region_enum", "engine", ("_contain_by_region_enum",)),
    ("engine.containment.dfs", "engine", ("_contain_by_dfs",)),
    ("strategies.lattice_probes", "strategies", ("lattice_probes",)),
    ("classify", "classify",
     ("classify_planar", "classify_triangle_free", "classify_girth5")),
    ("classify.grid_test", "classify", ("grid_neighborhood_test",)),
    ("discharge.transfer", "discharge", ("transfer_planar", "transfer_tf")),
    ("discharge.audit", "discharge", ("audit_planar", "audit_tf")),
    ("rates.certify", "rates", ("certify_bound",)),
    ("rates.exact", "rates", ("surviving_rate_exact",)),
    ("rates.lower_bound", "rates", ("surviving_rate_lower_bound",)),
    ("cli", "cli", ("main",)),
)
FACES = "embedding.faces"
SPAN_NAMES = tuple(name for name, _, _ in LAYERS) + (FACES,)


def _count_sn(counts, res):
    counts["engine.sn_exact.nodes"] += res.nodes
    counts["engine.sn_exact.optimal"] += res.optimal


def _count_containment(counts, res):
    counts["engine.containment.nodes"] += res.nodes
    counts["engine.containment.proven"] += res.proven


def _count_transfers(counts, res):
    counts["discharge.transfers"] += len(res.transfers)


COUNTERS = {
    "engine.sn_exact": _count_sn,
    "engine.containment": _count_containment,
    "discharge.transfer": _count_transfers,
}


class Tracer:
    """Records spans while ``active``; the harness switches it on only
    around timed calls, so output checks leave no spans."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent, nested]
        self.stack: list[int] = []
        self.open_names: Counter = Counter()
        self.counts: Counter = Counter()

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0,
                    self.stack[-1] if self.stack else -1,
                    self.open_names[name] > 0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            self.open_names[name] += 1
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
                self.open_names[name] -= 1
            if count is not None:
                count(self.counts, res)
            return res
        return traced

    def install(self, fc) -> None:
        """Wrap every layer function at every attribute of the program's
        modules that refers to it."""
        pkg = fc.embedding.__name__.rpartition(".")[0]
        modules = [m for name, m in sys.modules.items()
                   if name == pkg or name.startswith(pkg + ".")]
        for name, mod, funcs in LAYERS:
            for func in funcs:
                orig = getattr(getattr(fc, mod), func)
                wrapped = self.wrap(name, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
        graph = fc.embedding.EmbeddedGraph
        graph.faces = self.wrap(FACES, graph.faces)

    def pass_metrics(self) -> dict[str, float]:
        """Fold the spans and counts of one pass into per-layer metrics."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for i, (name, _, _, _, nested) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur[i] - child[i]
            if not nested:
                out[f"{name}.s"] += dur[i]
        # a containment call with no search child was settled by a probe
        searched = {s[3] for s in spans
                    if s[0] in ("engine.containment.dfs",
                                "engine.containment.region_enum")}
        contain = [i for i, s in enumerate(spans)
                   if s[0] == "engine.containment"]
        c = self.counts
        out["engine.containment.probe_hits"] = sum(
            1 for i in contain if i not in searched)
        out["classify.exact_resolutions"] = sum(
            1 for i in contain
            if spans[i][3] >= 0 and spans[spans[i][3]][0] == "classify")
        out["engine.containment.nodes"] = c["engine.containment.nodes"]
        out["engine.containment.nodes_per_s"] = _ratio(
            c["engine.containment.nodes"], out["engine.containment.dfs.s"])
        out["engine.containment.proven_ratio"] = _ratio(
            c["engine.containment.proven"], out["engine.containment.calls"])
        out["engine.sn_exact.nodes"] = c["engine.sn_exact.nodes"]
        out["engine.sn_exact.nodes_per_s"] = _ratio(
            c["engine.sn_exact.nodes"], out["engine.sn_exact.s"])
        out["engine.sn_exact.optimal_ratio"] = _ratio(
            c["engine.sn_exact.optimal"], out["engine.sn_exact.calls"])
        out["discharge.transfers"] = c["discharge.transfers"]
        return out

    def dump(self, path) -> None:
        """Write the spans of the last pass as JSON, times relative to its
        first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[s[0], s[1] - t0, s[2] - t0, s[3]] for s in self.spans]
        path.write_text(json.dumps(
            {"columns": ["name", "start_s", "end_s", "parent"],
             "spans": rows}))

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()


def _ratio(num, den) -> float:
    return num / den if den else 0.0
