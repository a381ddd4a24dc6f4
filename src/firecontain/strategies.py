"""Containment plans for X starts, and the per-theorem dispatcher.

Every strategy of the lower bounds is fixed once the start is known, so
each is a plan: the vertices to protect in rounds 1, 2, ..., computed from
(graph, start) and replayed by ``engine.plan_strategy``.
``theorem_dispatch`` reads each X start's plan from its classification
evidence, which already names it: the witness of an exact resolution, the
checked grid plan of a grid rule, the whole neighbourhood, or all of it but
the evidence's spared vertex; the other local configurations take the
witness of the cap-18 containment search.  Y starts get the empty plan.

The two grid plans are frozen coordinate-relative plans stored as packaged
JSON (``plans/``), integrity-checked by hash at load time.  Their one
checked path onto a graph, ``_guaranteed``, walks the start's grid ball
once for its purity and offsets, then replays the plan against its caps;
the load-time guard, ``checked_grid_plan`` and the grid rules take it.
"""
from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from importlib import resources
from typing import Callable, Optional

from . import classify, families
from .embedding import EmbeddedGraph
from .engine import (
    Decide,
    Schedule,
    SimTrace,
    min_burned_containment,
    plan_strategy,
    run_simulation,
)
from .errors import CorruptPlan, FireContainError, NotApplicable

Plan = list[list[int]]

PLAN_HASHES = {
    "hex_containment":
        "454601b262340237d3f3d202e111d19288a5f26ce8842e1c002ffb9659e25997",
    "rect_containment":
        "61f11162c72afea4899311bb6310c9017a50dbe6ae7bc0f5ffd8f5bedaff2ff0",
}


# -- frozen lattice plans ---------------------------------------------------

@lru_cache(maxsize=None)
def load_plan(name: str) -> dict:
    """Load a packaged plan, verify its content hash, and prove its
    guarantee once by replay on the canonical lattice instance."""
    data = resources.files("firecontain.plans").joinpath(
        name + ".json").read_text()
    digest = hashlib.sha256(data.encode()).hexdigest()
    if digest != PLAN_HASHES[name]:
        raise CorruptPlan(f"plan file {name} corrupted (hash {digest})")
    plan = json.loads(data)
    plan["rounds"] = [[tuple(c) for c in rnd] for rnd in plan["rounds"]]
    _guard_plan(plan)
    return plan


def _guard_plan(plan: dict) -> None:
    if plan["lattice"] == "hex":
        g, start = families.hex_patch(4), 0
    else:
        g, start = families.rect_grid(17, 17), 8 * 17 + 8
    if _guaranteed(g, start, plan) is None:
        raise CorruptPlan(
            f"plan {plan['name']} fails its guarantee on the canonical grid")


def _guaranteed(g: EmbeddedGraph, start: int, plan: dict) -> Optional[Plan]:
    """``plan`` mapped through the offsets of ``start``'s grid ball if
    the ball is pure and the replay keeps the plan's burn and round caps,
    else None."""
    try:
        pure, _, at = classify.grid_neighborhood_test(g, start,
                                                      plan["lattice"])
    except FireContainError:
        return None
    if not pure:
        return None
    mapped = _through(at, plan)
    trace = run_simulation(g, start, Schedule(*plan["schedule"]),
                           plan_strategy(mapped))
    if trace.burned_count > plan["burn_cap"] or \
            len(trace.masks) > plan["round_cap"]:
        return None
    return mapped


def _through(at: dict, plan: dict) -> Plan:
    """``plan`` with each offset replaced by its vertex in ``at``, dropping
    the offsets off the graph (the fire cannot go there)."""
    return [[at[c] for c in rnd if c in at] for rnd in plan["rounds"]]


def checked_grid_plan(g: EmbeddedGraph, start: int, lattice: str) -> Plan:
    """The ``lattice`` plan mapped around ``start`` where ``start`` passes
    the grid test and the replay keeps the plan's guarantee: hex, schedule
    (4, 3) with at most 6 burned; rect, two firefighters with at most 18
    burned within 8 rounds."""
    name = f"{lattice}_containment"
    mapped = _guaranteed(g, start, load_plan(name))
    if mapped is None:
        raise NotApplicable(f"{name} does not apply to start {start}")
    return mapped


def lattice_probes(at: Optional[dict], lattice: str) -> list[Decide]:
    """The packaged ``lattice`` plan mapped through ``at``, the offsets of
    a start's ``classify.grid_ball``, as a probe for the containment
    solver, or none where the ball has no offsets; the solver's own
    simulation re-checks any probe outcome."""
    plan = load_plan(f"{lattice}_containment")
    return [] if at is None else [plan_strategy(_through(at, plan))]


# -- plans read from the evidence -------------------------------------------

def _spare_one_plan(g: EmbeddedGraph, start: int, u: int) -> Plan:
    """Round 1 protects every neighbour of ``start`` but u; round 2
    protects the neighbours of u that the fire reaches next."""
    return [sorted(g.adjacency[start] - {u}),
            sorted(g.adjacency[u] - {start} - g.adjacency[start])]


def _searched_plan(g: EmbeddedGraph, start: int) -> Plan:
    """The witness of the cap-18 two-firefighter containment search, for
    the local configurations whose plans depend on the instance."""
    context = "trianglefree_thm5"
    cap = classify.CLASSIFY[context][1]
    res = min_burned_containment(g, start, classify.SCHEDULES[context],
                                 burn_cap=cap)
    if not res.feasible:
        raise NotApplicable(f"no cap-{cap} containment from start {start}")
    return res.trace.protection_plan()


# -- theorem dispatch -------------------------------------------------------

def theorem_dispatch(classification: "classify.ClassificationReport"
                     ) -> Callable[[EmbeddedGraph, int], Plan]:
    """``plan_for(g, start)``: the plan each X start's evidence names, and
    the empty plan for Y starts.  An evidence rule with no plan, and a
    grid rule whose plan fails its check at the start, is NotApplicable."""

    def plan_for(g: EmbeddedGraph, start: int) -> Plan:
        if classification.side(start) == "Y":
            return []
        ev = classification.evidence[start]
        if "trace" in ev:
            return SimTrace.from_json(ev["trace"], g.n).protection_plan()
        rule = ev["rule"]
        if rule.endswith("_neighborhood"):
            return checked_grid_plan(g, start,
                                     rule.removesuffix("_neighborhood"))
        if rule.startswith("degree_le_"):  # the first budget covers it
            return [sorted(g.adjacency[start])]
        if rule in ("low_degree_neighbor", "degree5_low_neighbor"):
            return _spare_one_plan(g, start, ev["vertex"])
        if rule == "config_3.1":
            return _spare_one_plan(g, start, ev["witness"]["vertex"])
        if rule.startswith("config_"):
            return _searched_plan(g, start)
        raise NotApplicable(f"no plan for rule {rule!r} at start {start}")

    return plan_for
