"""Surviving rates: exact computation on small graphs, strategy-based
lower bounds on large ones, and per-theorem certification.

The surviving rate is (1/n^2) * sum over starts of the saved count.  All
rates are exact rationals; decimals appear only in rendered output.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import classify, strategies
from .embedding import EmbeddedGraph
from .engine import Schedule, run_simulation, sn_exact
from .errors import HypothesisViolated

THEOREMS = ("thm2_girth5", "thm3_planar", "thm5_trianglefree", "k2n_upper")

THRESHOLDS = {
    "thm2_girth5": Fraction(1, 22),
    "thm3_planar": Fraction(1, 2712),
    "thm5_trianglefree": Fraction(1, 723636),
}

SCHEDULES = {
    "thm2_girth5": Schedule.constant(2),
    "thm3_planar": Schedule(4, 3),
    "thm5_trianglefree": Schedule.constant(2),
    "k2n_upper": Schedule.constant(1),
}


@dataclass
class RateReport:
    instance: str
    schedule: Schedule
    mode: str  # "exact" | "strategy_lower_bound"
    saved: dict[int, int]
    rate: Fraction
    threshold: Optional[Fraction] = None
    verdict: Optional[bool] = None
    partial: bool = False
    notes: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "instance": self.instance,
            "schedule": self.schedule.as_pair(),
            "mode": self.mode,
            "saved": {str(v): s for v, s in sorted(self.saved.items())},
            "rate": f"{self.rate.numerator}/{self.rate.denominator}",
            "threshold": None if self.threshold is None else
                f"{self.threshold.numerator}/{self.threshold.denominator}",
            "verdict": self.verdict,
            "partial": self.partial,
            "notes": self.notes,
        }


def _rate_from_saved(saved: dict[int, int], n: int) -> Fraction:
    return Fraction(sum(saved.values()), n * n)


def surviving_rate_exact(g: EmbeddedGraph, schedule: Schedule,
                         node_limit: int = 10_000_000,
                         instance: str = "") -> RateReport:
    """Exact rate via one solver call per start.  If any start hits the
    node limit the report is marked partial and the rate is a lower
    bound."""
    saved: dict[int, int] = {}
    partial = False
    for v in range(g.n):
        res = sn_exact(g, v, schedule, node_limit=node_limit)
        saved[v] = res.value
        partial = partial or not res.optimal
    return RateReport(
        instance=instance, schedule=schedule,
        mode="exact" if not partial else "strategy_lower_bound",
        saved=saved, rate=_rate_from_saved(saved, g.n), partial=partial)


def surviving_rate_lower_bound(g: EmbeddedGraph, schedule: Schedule,
                               classification:
                               "classify.ClassificationReport",
                               instance: str = "") -> RateReport:
    """Rate lower bound from the dispatched per-class strategies; starts
    labelled Y contribute zero."""
    disp = strategies.theorem_dispatch(classification.context, classification)
    saved: dict[int, int] = {}
    for v in range(g.n):
        if classification.side(v) == "Y":
            saved[v] = 0
        else:
            saved[v] = run_simulation(g, v, schedule, disp.decide).saved
    return RateReport(
        instance=instance, schedule=schedule, mode="strategy_lower_bound",
        saved=saved, rate=_rate_from_saved(saved, g.n))


def trivial_rate_lower_bound(g: EmbeddedGraph, schedule: Schedule
                             ) -> Fraction:
    """Protecting any first-round budget's worth of vertices saves them
    permanently, so every start saves at least min(first, n-1)."""
    per_start = min(schedule.first, g.n - 1)
    return Fraction(g.n * per_start, g.n * g.n)


EXACT_RATE_MAX_N = 12


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
            "rate": f"{self.rate.numerator}/{self.rate.denominator}",
            "mode": self.mode,
            "threshold":
                f"{self.threshold.numerator}/{self.threshold.denominator}",
            "passed": self.passed,
            "direction": self.direction,
            "notes": self.notes,
        }


def certify_bound(g: EmbeddedGraph, theorem: str, instance: str = "",
                  node_limit: int = 10_000_000) -> Certificate:
    """Certify one theorem bound on one instance, using the best
    available rate (exact when feasible, else the max of the trivial and
    the classification-based lower bounds)."""
    if theorem not in THEOREMS:
        raise HypothesisViolated(f"unknown theorem {theorem!r}")
    if theorem == "k2n_upper":
        return _certify_k2n_upper(g, instance, node_limit)
    schedule = SCHEDULES[theorem]
    threshold = THRESHOLDS[theorem]
    if g.n < 2:
        raise HypothesisViolated("need n >= 2")
    notes: dict = {}
    rate = trivial_rate_lower_bound(g, schedule)
    mode = "strategy_lower_bound"
    if theorem == "thm2_girth5":
        if g.girth() < 5:
            raise HypothesisViolated(f"girth {g.girth()} < 5")
        report = classify.classify_girth5(g)
        lb = surviving_rate_lower_bound(g, schedule, report,
                                        instance=instance)
        notes["classification_rate"] = \
            f"{lb.rate.numerator}/{lb.rate.denominator}"
        rate = max(rate, lb.rate)
    elif theorem == "thm3_planar":
        g.require_verified()
        if all(f.degree == 3 for f in g.faces()):
            report = classify.classify_planar(g)
            lb = surviving_rate_lower_bound(g, schedule, report,
                                            instance=instance)
            notes["classification_rate"] = \
                f"{lb.rate.numerator}/{lb.rate.denominator}"
            rate = max(rate, lb.rate)
    else:  # thm5_trianglefree
        g.require_verified()
        if not g.is_triangle_free():
            raise HypothesisViolated("graph contains a triangle")
    if rate < threshold and g.n <= EXACT_RATE_MAX_N:
        exact = surviving_rate_exact(g, schedule, node_limit=node_limit,
                                     instance=instance)
        if not exact.partial:
            rate, mode = exact.rate, "exact"
    return Certificate(theorem=theorem, instance=instance, n=g.n, rate=rate,
                       mode=mode, threshold=threshold,
                       passed=rate >= threshold, direction="lower",
                       notes=notes)


def _certify_k2n_upper(g: EmbeddedGraph, instance: str,
                       node_limit: int) -> Certificate:
    """Exact single-firefighter rate of K_{2,m} is at most 2/(m+2)."""
    hubs = [v for v in range(g.n) if g.degree(v) == g.n - 2]
    leaves = [v for v in range(g.n) if g.degree(v) == 2]
    # m = 2 gives the 4-cycle, where every vertex doubles as a hub
    four_cycle = g.n == 4 and len(leaves) == 4
    if not four_cycle and (g.n < 4 or len(hubs) != 2
                           or len(leaves) != g.n - 2 or g.has_edge(*hubs)):
        raise HypothesisViolated("graph is not a complete bipartite K_{2,m}")
    schedule = SCHEDULES["k2n_upper"]
    exact = surviving_rate_exact(g, schedule, node_limit=node_limit,
                                 instance=instance)
    threshold = Fraction(2, g.n)
    return Certificate(
        theorem="k2n_upper", instance=instance, n=g.n, rate=exact.rate,
        mode=exact.mode, threshold=threshold,
        passed=(not exact.partial) and exact.rate <= threshold,
        direction="upper",
        notes={"exact_rate":
               f"{exact.rate.numerator}/{exact.rate.denominator}"})


def rates_csv(certs: list[Certificate]) -> str:
    lines = ["instance,n,mode,rate_num,rate_den,threshold,verdict"]
    for c in certs:
        lines.append(
            f"{c.instance},{c.n},{c.mode},{c.rate.numerator},"
            f"{c.rate.denominator},"
            f"{c.threshold.numerator}/{c.threshold.denominator},"
            f"{'pass' if c.passed else 'fail'}")
    return "\n".join(lines) + "\n"


def rate_report_json_str(report: RateReport) -> str:
    return json.dumps(report.to_json(), sort_keys=True)
