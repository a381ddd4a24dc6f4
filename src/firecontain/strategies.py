"""Containment plans for X starts, and the per-theorem dispatcher.

Every strategy of the lower bounds is fixed once the start is known, so
each is a plan: the vertices to protect in rounds 1, 2, ..., computed from
(graph, start) and replayed by ``engine.plan_strategy``.
``theorem_dispatch`` gives each start of a classification its plan: the
witness of an exact resolution, a mapped grid plan, a configuration plan
or a local plan; Y starts get the empty plan.

The two grid plans are frozen coordinate-relative plans stored as packaged
JSON (``plans/``).  Each plan file is integrity-checked by hash and guarded
by a replay on its canonical instance at load time; ``mapped_plan`` then
maps it onto a concrete graph through the rotation system.
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

# the largest degree of a spared neighbour whose free neighbours the later
# budget protects in one round (in a triangulation it shares two
# neighbours with the start)
_SPARE_LIMIT = {"girth5_thm2": 3, "planar_thm3": 6}

_GRID_RULES = {"hex_neighborhood": "hex", "rect_neighborhood": "rect"}


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
    """``plan`` mapped around ``start`` if its replay keeps the plan's
    burn and round caps, else None."""
    mapped = mapped_plan(g, start, plan)
    if mapped is None:
        return None
    trace = run_simulation(g, start, Schedule(*plan["schedule"]),
                           plan_strategy(mapped))
    if trace.burned_count > plan["burn_cap"] or \
            len(trace.rounds) > plan["round_cap"]:
        return None
    return mapped


def lattice_map(g: EmbeddedGraph, start: int, lattice: str
                ) -> Optional[dict[tuple[int, int], int]]:
    """Offsets -> vertices of ``classify.grid_ball`` around ``start``;
    None if ``start`` has another degree or no orientation fits the ball."""
    if g.degree(start) != len(classify.GRID_LATTICES[lattice][0]):
        return None
    return classify.grid_ball(g, start, lattice)[0]


def mapped_plan(g: EmbeddedGraph, start: int, plan: dict) -> Optional[Plan]:
    """Translate a plan's offsets to vertex ids around ``start``; offsets
    that fall outside the graph are dropped (the fire cannot go there)."""
    at = lattice_map(g, start, plan["lattice"])
    if at is None:
        return None
    return [[at[c] for c in rnd if c in at] for rnd in plan["rounds"]]


def grid_plan(g: EmbeddedGraph, start: int, lattice: str) -> Plan:
    """The packaged ``lattice`` plan mapped around ``start``, unchecked:
    the classifier's grid test stands for it."""
    mapped = mapped_plan(g, start, load_plan(f"{lattice}_containment"))
    if mapped is None:
        raise NotApplicable(f"no {lattice} lattice map around start {start}")
    return mapped


def checked_grid_plan(g: EmbeddedGraph, start: int, lattice: str) -> Plan:
    """The mapped ``lattice`` plan where ``start`` passes the grid test
    and the replay keeps the plan's guarantee: hex, schedule (4, 3) with
    at most 6 burned; rect, two firefighters with at most 18 burned within
    8 rounds."""
    name = f"{lattice}_containment"
    try:
        ok, _ = classify.grid_neighborhood_test(g, start, lattice)
    except FireContainError:
        ok = False
    mapped = _guaranteed(g, start, load_plan(name)) if ok else None
    if mapped is None:
        raise NotApplicable(f"{name} does not apply to start {start}")
    return mapped


def lattice_probes(g: EmbeddedGraph, start: int, schedule: Schedule,
                   burn_cap: int) -> list[Decide]:
    """Plan-replay probes for the containment solver; validity of any
    probe outcome is re-checked by the solver's own simulation."""
    probes = []
    for name in ("hex_containment", "rect_containment"):
        plan = load_plan(name)
        if Schedule(*plan["schedule"]) != schedule or \
                plan["burn_cap"] > burn_cap:
            continue
        mapped = mapped_plan(g, start, plan)
        if mapped is not None:
            probes.append(plan_strategy(mapped))
    return probes


# -- local plans ------------------------------------------------------------

def _spare_one_plan(g: EmbeddedGraph, start: int, limit: int) -> Plan:
    """Round 1 protects every neighbour of ``start`` but the least one, u,
    of degree at most ``limit``; round 2 protects the neighbours of u that
    the fire reaches next."""
    u = next((u for u in sorted(g.adjacency[start]) if g.degree(u) <= limit),
             None)
    if u is None:
        raise NotApplicable(
            f"no neighbour of start {start} has degree <= {limit}")
    return [sorted(g.adjacency[start] - {u}),
            sorted(g.adjacency[u] - {start} - g.adjacency[start])]


def local_plan(g: EmbeddedGraph, start: int, context: str) -> Plan:
    """The cheap per-class containment moves: protect the whole first
    neighbourhood when the first budget covers it, or, one neighbour
    short of that, spare a low-degree neighbour and close in around it."""
    first = classify.SCHEDULES[context].first
    if g.degree(start) <= first:
        return [sorted(g.adjacency[start])]
    if g.degree(start) == first + 1 and context in _SPARE_LIMIT:
        return _spare_one_plan(g, start, _SPARE_LIMIT[context])
    raise NotApplicable(
        f"no local plan for {context} start {start} of degree "
        f"{g.degree(start)}")


def config_plan(g: EmbeddedGraph, start: int, config_id: str) -> Plan:
    """Two-firefighter containment from a degree-3 start matching local
    configuration ``config_id``.  Config 3.1 spares its low neighbour;
    the other plans are found per instance by the cap-18 containment
    search."""
    if g.degree(start) != 3 or not any(
            m.config == config_id
            for m in classify.detect_local_configs(g, start)):
        raise NotApplicable(
            f"config {config_id!r} does not match start {start}")
    if config_id == "3.1":
        return _spare_one_plan(g, start, 3)
    sched = classify.SCHEDULES["trianglefree_thm5"]
    res = min_burned_containment(g, start, sched, burn_cap=18,
                                 probes=lattice_probes(g, start, sched, 18))
    if not res.feasible:
        raise NotApplicable(f"no cap-18 containment from start {start}")
    return res.trace.protection_plan()


# -- theorem dispatch -------------------------------------------------------

def theorem_dispatch(context: str,
                     classification: "classify.ClassificationReport"
                     ) -> Callable[[EmbeddedGraph, int], Plan]:
    """``plan_for(g, start)``: each X start's evidence-matched containment
    plan, and the empty plan for Y starts."""
    if classification.context != context:
        raise NotApplicable(
            f"classification is for {classification.context}, not {context}")

    def plan_for(g: EmbeddedGraph, start: int) -> Plan:
        if classification.side(start) == "Y":
            return []
        ev = classification.evidence[start]
        if "trace" in ev:
            return SimTrace.from_json(ev["trace"], g.n).protection_plan()
        rule = ev["rule"]
        if rule in _GRID_RULES:
            return grid_plan(g, start, _GRID_RULES[rule])
        if rule.startswith("config_"):
            return config_plan(g, start, rule.removeprefix("config_"))
        return local_plan(g, start, context)

    return plan_for
