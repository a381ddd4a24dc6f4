"""Surviving rates: exact computation on small graphs, plan-replay lower
bounds on large ones, and per-theorem certification.

The surviving rate is (1/n^2) * sum over starts of the saved count.  All
rates are exact rationals; decimals appear only in rendered output.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import classify, strategies
from .embedding import EmbeddedGraph
from .engine import Schedule, plan_strategy, run_simulation, sn_exact
from .errors import BadParameter, HypothesisViolated
from .formats import rational

# lower-bound theorem -> (classification context, threshold); the
# schedule is the context's, ``classify.SCHEDULES``
BOUNDS = {
    "thm2_girth5": ("girth5_thm2", Fraction(1, 22)),
    "thm3_planar": ("planar_thm3", Fraction(1, 2712)),
    "thm5_trianglefree": ("trianglefree_thm5", Fraction(1, 723636)),
}
THEOREMS = (*BOUNDS, "k2n_upper")


@dataclass
class RateReport:
    instance: str
    schedule: Schedule
    mode: str  # "exact" | "strategy_lower_bound"
    saved: dict[int, int]
    rate: Fraction
    partial: bool = False
    notes: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "instance": self.instance,
            "schedule": self.schedule.as_pair(),
            "mode": self.mode,
            "saved": {str(v): s for v, s in sorted(self.saved.items())},
            "rate": rational(self.rate),
            "threshold": None,
            "verdict": None,
            "partial": self.partial,
            "notes": self.notes,
        }


def _rate_from_saved(saved: dict[int, int], n: int) -> Fraction:
    return Fraction(sum(saved.values()), n * n)


def surviving_rate_exact(g: EmbeddedGraph, schedule: Schedule,
                         node_limit: int = 10_000_000,
                         instance: str = "") -> RateReport:
    """Exact rate via one solver call per orbit of starts.

    A map automorphism carries every protection sequence from one start
    to an equally good one from its image, so the saved count is the same
    for every start in an orbit of ``g.automorphisms``.  Each start copies
    the saved count of the least vertex of its orbit when that vertex was
    solved to optimality, and is solved itself otherwise, so that the
    per-start lower bounds of a partial report are those of its own
    solve.  If any solved start hits the node limit the report is marked
    partial and the rate is a lower bound."""
    saved: dict[int, int] = {}
    optimal: dict[int, bool] = {}
    partial = False
    for v, least in enumerate(g.orbit_minima):
        if least != v and optimal[least]:
            saved[v] = saved[least]
            continue
        res = sn_exact(g, v, schedule, node_limit=node_limit)
        saved[v] = res.value
        optimal[v] = res.optimal
        partial = partial or not res.optimal
    return RateReport(
        instance=instance, schedule=schedule,
        mode="exact" if not partial else "strategy_lower_bound",
        saved=saved, rate=_rate_from_saved(saved, g.n), partial=partial)


def surviving_rate_lower_bound(
        g: EmbeddedGraph, classification: "classify.ClassificationReport",
        instance: str = "") -> RateReport:
    """Rate lower bound from replaying the dispatched per-start plans
    under the classification context's schedule; starts labelled Y
    contribute zero."""
    schedule = classify.SCHEDULES[classification.context]
    plan_for = strategies.theorem_dispatch(classification)
    saved: dict[int, int] = {}
    for v in range(g.n):
        if classification.side(v) == "Y":
            saved[v] = 0
        else:
            saved[v] = run_simulation(g, v, schedule,
                                      plan_strategy(plan_for(g, v))).saved
    return RateReport(
        instance=instance, schedule=schedule, mode="strategy_lower_bound",
        saved=saved, rate=_rate_from_saved(saved, g.n))


def trivial_rate_lower_bound(g: EmbeddedGraph, schedule: Schedule
                             ) -> Fraction:
    """Protecting any first-round budget's worth of vertices saves them
    permanently, so every start saves at least min(first, n-1)."""
    per_start = min(schedule.first, g.n - 1)
    return Fraction(g.n * per_start, g.n * g.n)


@dataclass
class Certificate:
    theorem: str
    instance: str
    n: int
    rate: Fraction
    mode: str
    threshold: Fraction
    passed: bool
    direction: str  # "lower" | "upper"
    notes: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "instance": self.instance,
            "n": self.n,
            "rate": rational(self.rate),
            "mode": self.mode,
            "threshold": rational(self.threshold),
            "passed": self.passed,
            "direction": self.direction,
            "notes": self.notes,
        }


def certify_bound(g: EmbeddedGraph, theorem: str, instance: str = "",
                  node_limit: int = 10_000_000) -> Certificate:
    """Certify one theorem bound on one instance by the max of the
    trivial and the classification-based lower bounds; ``node_limit``
    bounds the exact search of ``k2n_upper``."""
    if theorem == "k2n_upper":
        return _certify_k2n_upper(g, instance, node_limit)
    if theorem not in BOUNDS:
        raise BadParameter(f"unknown theorem {theorem!r}")
    context, threshold = BOUNDS[theorem]
    schedule = classify.SCHEDULES[context]
    if g.n < 2:
        raise HypothesisViolated("need n >= 2")
    notes: dict = {}
    rate = trivial_rate_lower_bound(g, schedule)
    report = None
    if theorem == "thm2_girth5":
        report = classify.classify_girth5(g)
    elif theorem == "thm3_planar":
        if all(f.degree == 3 for f in g.faces()):
            report = classify.classify_planar(g)
    else:  # thm5_trianglefree
        g.require_triangle_free()
    if report is not None:
        lb = surviving_rate_lower_bound(g, report, instance=instance)
        notes["classification_rate"] = rational(lb.rate)
        rate = max(rate, lb.rate)
    return Certificate(theorem=theorem, instance=instance, n=g.n, rate=rate,
                       mode="strategy_lower_bound", threshold=threshold,
                       passed=rate >= threshold, direction="lower",
                       notes=notes)


def _certify_k2n_upper(g: EmbeddedGraph, instance: str,
                       node_limit: int) -> Certificate:
    """Exact single-firefighter rate of K_{2,m} is at most 2/(m+2)."""
    hubs = [v for v in range(g.n) if g.degree(v) == g.n - 2]
    leaves = [v for v in range(g.n) if g.degree(v) == 2]
    # m = 2 gives the 4-cycle, where every vertex doubles as a hub
    four_cycle = g.n == 4 and len(leaves) == 4
    if not four_cycle and (len(hubs) != 2 or len(leaves) != g.n - 2
                           or g.has_edge(*hubs)):
        raise HypothesisViolated("graph is not a complete bipartite K_{2,m}")
    exact = surviving_rate_exact(g, Schedule.constant(1),
                                 node_limit=node_limit, instance=instance)
    threshold = Fraction(2, g.n)
    return Certificate(
        theorem="k2n_upper", instance=instance, n=g.n, rate=exact.rate,
        mode=exact.mode, threshold=threshold,
        passed=(not exact.partial) and exact.rate <= threshold,
        direction="upper",
        notes={"exact_rate": rational(exact.rate)})

