"""Firefighter round semantics, simulation, and exact containment search.

Round convention: the fire ignites at round 0; firefighters act at rounds
1, 2, ... before each spread.  Protecting fewer vertices than the budget
(including none) is legal.

Exact search comes in two flavours:

* ``sn_exact`` maximises the saved count by memoized depth-first
  branch-and-bound over per-round protection subsets.
* ``min_burned_containment`` decides whether the fire can be contained
  within a burned-vertex cap.  For small caps it enumerates all candidate
  final burned regions and checks an earliest-deadline-first schedule for
  the surrounding wall, which is exact and proves infeasibility.  For
  large caps it falls back to heuristic probes plus a capped DFS.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .embedding import EmbeddedGraph
from .errors import (
    BudgetExceeded,
    ProtectBurningVertex,
    StrategyBudgetViolation,
)


@dataclass(frozen=True)
class Schedule:
    """Firefighter budget per round: ``first`` at round 1, ``rest`` after."""

    first: int
    rest: int

    def __post_init__(self):
        if self.first < 0 or self.rest < 0:
            raise ValueError("budgets must be nonnegative")

    @classmethod
    def constant(cls, k: int) -> "Schedule":
        return cls(k, k)

    def budget(self, round_no: int) -> int:
        return self.first if round_no == 1 else self.rest

    def cumulative(self, round_no: int) -> int:
        if round_no <= 0:
            return 0
        return self.first + self.rest * (round_no - 1)

    def as_pair(self) -> list[int]:
        return [self.first, self.rest]


@dataclass(frozen=True)
class FireState:
    burning: frozenset[int]
    protected: frozenset[int]
    round: int


@dataclass(frozen=True)
class RoundRecord:
    protect: tuple[int, ...]
    burned: tuple[int, ...]


@dataclass(frozen=True)
class SimTrace:
    start: int
    schedule: Schedule
    rounds: tuple[RoundRecord, ...]
    saved: int
    n: int

    @property
    def burned_count(self) -> int:
        return self.n - self.saved

    def burned_set(self) -> frozenset[int]:
        out = {self.start}
        for r in self.rounds:
            out.update(r.burned)
        return frozenset(out)

    def protection_plan(self) -> list[list[int]]:
        return [list(r.protect) for r in self.rounds]

    def to_json(self) -> dict:
        return {
            "start": self.start,
            "schedule": self.schedule.as_pair(),
            "rounds": [
                {"protect": list(r.protect), "burned": list(r.burned)}
                for r in self.rounds
            ],
            "saved": self.saved,
        }

    @classmethod
    def from_json(cls, obj: dict, n: int) -> "SimTrace":
        return cls(
            start=obj["start"],
            schedule=Schedule(*obj["schedule"]),
            rounds=tuple(
                RoundRecord(tuple(r["protect"]), tuple(r["burned"]))
                for r in obj["rounds"]
            ),
            saved=obj["saved"],
            n=n,
        )


Decide = Callable[[EmbeddedGraph, FireState, int], Iterable[int]]


def ignite(start: int) -> FireState:
    return FireState(frozenset([start]), frozenset(), 0)


def frontier(g: EmbeddedGraph, burning: frozenset[int],
             protected: frozenset[int]) -> set[int]:
    """Unprotected, unburned neighbours of the burning set."""
    out: set[int] = set()
    for u in burning:
        out.update(g.adjacency[u])
    return out - burning - protected


def advance_round(g: EmbeddedGraph, state: FireState,
                  protections: Iterable[int], budget: int) -> FireState:
    """Apply one round: protections first, then the fire spreads to all
    unprotected, unburned neighbours of burning vertices."""
    prot = frozenset(protections)
    if len(prot) > budget:
        raise BudgetExceeded(f"{len(prot)} protections exceed budget {budget}")
    clash = prot & (state.burning | state.protected)
    if clash:
        raise ProtectBurningVertex(
            f"cannot protect burning/protected vertices {sorted(clash)}")
    protected = state.protected | prot
    newly = frontier(g, state.burning, protected)
    return FireState(state.burning | newly, protected, state.round + 1)


def run_simulation(g: EmbeddedGraph, start: int, schedule: Schedule,
                   strategy: Decide) -> SimTrace:
    """Run the process until no burning vertex has a free neighbour."""
    state = ignite(start)
    rounds: list[RoundRecord] = []
    while frontier(g, state.burning, state.protected):
        round_no = state.round + 1
        budget = schedule.budget(round_no)
        prot = sorted(set(strategy(g, state, budget)))
        try:
            nxt = advance_round(g, state, prot, budget)
        except (BudgetExceeded, ProtectBurningVertex) as exc:
            raise StrategyBudgetViolation(str(exc)) from exc
        rounds.append(RoundRecord(tuple(prot),
                                  tuple(sorted(nxt.burning - state.burning))))
        state = nxt
    return SimTrace(start=start, schedule=schedule, rounds=tuple(rounds),
                    saved=g.n - len(state.burning), n=g.n)


def plan_strategy(plan: Sequence[Sequence[int]]) -> Decide:
    """Replay a fixed per-round protection plan (empty after it runs out)."""
    def decide(g: EmbeddedGraph, state: FireState, budget: int) -> list[int]:
        round_no = state.round + 1
        if round_no <= len(plan):
            return [v for v in plan[round_no - 1]
                    if v not in state.burning and v not in state.protected]
        return []
    return decide


def null_strategy(g: EmbeddedGraph, state: FireState, budget: int) -> list[int]:
    return []


def replay(g: EmbeddedGraph, trace: SimTrace) -> SimTrace:
    """Re-run a trace's recorded protections; must reproduce it exactly."""
    return run_simulation(g, trace.start, trace.schedule,
                          plan_strategy([list(r.protect) for r in trace.rounds]))


# -- greedy probe strategies ------------------------------------------------

def greedy_frontier_strategy(key: str = "degree") -> Decide:
    """Protect the most dangerous frontier vertices first.  Cheap probe used
    to seed incumbents; makes no guarantee."""
    def decide(g: EmbeddedGraph, state: FireState, budget: int) -> list[int]:
        cand = frontier(g, state.burning, state.protected)
        if key == "degree":
            score = lambda v: (-g.degree(v), v)
        else:  # "spread": free neighbours the vertex would ignite
            free = lambda v: sum(1 for w in g.adjacency[v]
                                 if w not in state.burning
                                 and w not in state.protected)
            score = lambda v: (-free(v), v)
        return sorted(cand, key=score)[:budget]
    return decide


DEFAULT_PROBES: tuple[Decide, ...] = (
    greedy_frontier_strategy("degree"),
    greedy_frontier_strategy("spread"),
)


# -- exact maximum save count ----------------------------------------------

@dataclass(frozen=True)
class SnResult:
    value: int
    trace: Optional[SimTrace]
    optimal: bool
    nodes: int

    @property
    def timed_out(self) -> bool:
        return not self.optimal


class _NodeLimit(Exception):
    pass


def _reachable_free(g: EmbeddedGraph, burning: frozenset[int],
                    protected: frozenset[int]) -> dict[int, int]:
    """Distances from the burning set through free vertices."""
    dist: dict[int, int] = {}
    queue: list[int] = []
    for u in burning:
        for w in g.adjacency[u]:
            if w not in burning and w not in protected and w not in dist:
                dist[w] = 1
                queue.append(w)
    for u in queue:
        for w in g.adjacency[u]:
            if w not in burning and w not in protected and w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def sn_exact(g: EmbeddedGraph, start: int, schedule: Schedule,
             node_limit: int = 10_000_000) -> SnResult:
    """Exact maximum number of savable vertices, with a witnessing trace.

    Returns a non-optimal result carrying the best known lower bound when
    the node limit is hit.
    """
    n = g.n
    memo: dict = {}
    nodes = 0
    best_probe = None
    for probe in DEFAULT_PROBES:
        t = run_simulation(g, start, schedule, probe)
        if best_probe is None or t.saved > best_probe.saved:
            best_probe = t

    def solve(burning: frozenset, protected: frozenset, round_no: int):
        """Return (value, plan) exact for this state."""
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise _NodeLimit
        budget = schedule.budget(round_no)
        dist = _reachable_free(g, burning, protected)
        if not any(d == 1 for d in dist.values()):
            return n - len(burning), []
        relevant_prot = frozenset(
            p for p in protected
            if any(w in dist or w in burning for w in g.adjacency[p]))
        key = (burning, relevant_prot, budget)
        if key in memo:
            return memo[key]
        cands = sorted(dist, key=lambda v: (dist[v], -g.degree(v), v))
        k = min(budget, len(cands))
        best_val, best_plan = -1, None
        for combo in itertools.combinations(cands, k):
            prot2 = protected | frozenset(combo)
            newly = frontier(g, burning, prot2)
            burn2 = burning | newly
            # child's value can never beat this bound
            ub = n - len(burn2)
            if ub <= best_val:
                continue
            val, plan = solve(burn2, prot2, round_no + 1)
            if val > best_val:
                best_val, best_plan = val, [list(combo)] + plan
        if best_val < 0:  # no candidates at all: fire already contained
            best_val, best_plan = n - len(burning), []
        memo[key] = (best_val, best_plan)
        return best_val, best_plan

    try:
        value, plan = solve(frozenset([start]), frozenset(), 1)
    except _NodeLimit:
        return SnResult(value=best_probe.saved, trace=best_probe,
                        optimal=False, nodes=nodes)
    trace = run_simulation(g, start, schedule, plan_strategy(plan))
    assert trace.saved == value
    if best_probe.saved > value:  # pragma: no cover - probe is also a plan
        raise AssertionError("probe beat the exact optimum")
    return SnResult(value=value, trace=trace, optimal=True, nodes=nodes)


# -- containment search -----------------------------------------------------

@dataclass(frozen=True)
class ContainmentResult:
    status: str  # "feasible" | "infeasible" | "timeout"
    trace: Optional[SimTrace] = None
    proven: bool = False
    nodes: int = 0

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


REGION_ENUM_MAX_CAP = 8


def min_burned_containment(
    g: EmbeddedGraph,
    start: int,
    schedule: Schedule,
    burn_cap: int,
    round_cap: Optional[int] = None,
    node_limit: int = 2_000_000,
    probes: Sequence[Decide] = (),
) -> ContainmentResult:
    """Find a strategy whose total burned count stays within ``burn_cap``
    (contained within ``round_cap`` rounds if given), or prove none exists.
    """
    if burn_cap < 1 or (round_cap is not None and round_cap < 1):
        raise ValueError("caps must be positive")
    # an uncontained fire burns at least one vertex per round, so any
    # plan within the cap is contained by round burn_cap
    bound = burn_cap if round_cap is None else min(round_cap, burn_cap)

    if g.n <= burn_cap:
        # every strategy trivially respects the cap; letting it burn is a
        # (degenerate) witness, but still check the round bound
        t = run_simulation(g, start, schedule, null_strategy)
        if _containment_round(t) <= bound:
            return ContainmentResult("feasible", trace=t, proven=True)

    for probe in tuple(probes) + DEFAULT_PROBES:
        t = run_simulation(g, start, schedule, probe)
        if t.burned_count <= burn_cap and _containment_round(t) <= bound:
            return ContainmentResult("feasible", trace=t, proven=True)

    if burn_cap <= REGION_ENUM_MAX_CAP:
        return _contain_by_region_enum(g, start, schedule, burn_cap, bound,
                                       node_limit)
    return _contain_by_dfs(g, start, schedule, burn_cap, bound, node_limit)


def _containment_round(trace: SimTrace) -> int:
    return len(trace.rounds)


# .. exact region enumeration (small caps) ..................................

def _contain_by_region_enum(g, start, schedule, burn_cap, round_bound,
                            node_limit) -> ContainmentResult:
    """Exact containment decision for small caps.

    Any contained outcome has a connected final burned region B containing
    the start; the fire burns freely inside B (no vertex of B is
    protected), so every wall vertex w adjacent to B carries the hard
    deadline 1 + dist_B(start, nearest B-neighbour of w).  Containment is
    possible iff some B admits an earliest-deadline-first wall schedule
    within the budgets, which is checked exactly.  Each region counts as
    one node against ``node_limit``: next to a high-degree hub there are
    millions of regions.
    """
    best = None  # (size, sorted B, plan, rounds)
    nodes = 0
    for region in _connected_regions(g, start, burn_cap):
        nodes += 1
        if nodes > node_limit:
            return ContainmentResult("timeout", proven=False, nodes=nodes)
        plan = _wall_schedule(g, start, schedule, region, round_bound)
        if plan is None:
            continue
        key = (len(region), sorted(region))
        if best is None or key < best[0]:
            best = (key, plan)
    if best is None:
        return ContainmentResult("infeasible", proven=True, nodes=nodes)
    trace = run_simulation(g, start, schedule, plan_strategy(best[1]))
    assert trace.burned_count <= burn_cap
    assert _containment_round(trace) <= round_bound
    return ContainmentResult("feasible", trace=trace, proven=True,
                             nodes=nodes)


def _connected_regions(g: EmbeddedGraph, start: int, max_size: int):
    """All connected vertex sets containing ``start`` of size <= max_size,
    each yielded exactly once, lazily."""

    def rec(region: set[int], ext: list[int], banned: set[int]):
        yield frozenset(region)
        if len(region) == max_size:
            return
        local_ban = set(banned)
        for i, v in enumerate(ext):
            grown = [w for w in g.adjacency[v]
                     if w not in region and w not in local_ban
                     and w not in ext[i + 1:] and w != start
                     and w not in ext[:i + 1]]
            region.add(v)
            yield from rec(region, ext[i + 1:] + grown, local_ban)
            region.discard(v)
            local_ban.add(v)

    return rec({start}, sorted(g.adjacency[start]), set())


def _wall_schedule(g, start, schedule, region, round_bound
                   ) -> Optional[list[list[int]]]:
    """Earliest-fit protection plan for the wall around ``region``, or None
    if some wall vertex cannot be protected before the fire arrives."""
    # free-burn distances inside the region
    dist = {start: 0}
    queue = [start]
    for u in queue:
        for w in g.adjacency[u]:
            if w in region and w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    if len(dist) != len(region):
        return None  # not connected (defensive; enumeration is connected)
    walls: dict[int, int] = {}
    for u in region:
        for w in g.adjacency[u]:
            if w not in region:
                d = dist[u] + 1
                if w not in walls or d < walls[w]:
                    walls[w] = d
    plan: list[list[int]] = []
    used = 0
    for w, deadline in sorted(walls.items(), key=lambda kv: (kv[1], kv[0])):
        round_no = 1
        while len(plan) >= round_no and \
                len(plan[round_no - 1]) >= schedule.budget(round_no):
            round_no += 1
        if round_no > deadline:
            return None
        while len(plan) < round_no:
            plan.append([])
        plan[round_no - 1].append(w)
        used += 1
    last_spread = max(dist.values(), default=0)
    if max(len(plan), last_spread) > round_bound:
        return None
    return plan


# .. DFS fallback (large caps) ..............................................

def _contain_by_dfs(g, start, schedule, burn_cap, round_bound, node_limit
                    ) -> ContainmentResult:
    nodes = 0
    failed: set = set()
    found: list[list[list[int]]] = []

    def rec(burning: frozenset, protected: frozenset, round_no: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise _NodeLimit
        dist = _reachable_free(g, burning, protected)
        front = [v for v, d in dist.items() if d == 1]
        if not front:
            found.append([])
            return True
        if round_no > round_bound:
            return False
        allowance = burn_cap - len(burning)
        budget = schedule.budget(round_no)
        if len(front) - budget > allowance:
            return False
        relevant_prot = frozenset(
            p for p in protected
            if any(w in dist or w in burning for w in g.adjacency[p]))
        # round_no matters: the same state may fail purely because fewer
        # rounds remain, so it cannot be cached round-independently
        key = (burning, relevant_prot, round_no)
        if key in failed:
            return False
        # dist - allowance never decreases while the fire spreads, so a
        # vertex beyond allowance + 1 can neither burn within the cap nor
        # ever need protection in a within-cap trajectory
        cands = sorted((v for v, d in dist.items() if d <= allowance + 1),
                       key=lambda v: (dist[v], -g.degree(v), v))
        k = min(budget, len(cands))
        for combo in itertools.combinations(cands, k):
            prot2 = protected | frozenset(combo)
            newly = frontier(g, burning, prot2)
            burn2 = burning | newly
            if len(burn2) > burn_cap:
                continue
            if rec(burn2, prot2, round_no + 1):
                found[0].insert(0, list(combo))
                return True
        failed.add(key)
        return False

    try:
        ok = rec(frozenset([start]), frozenset(), 1)
    except _NodeLimit:
        return ContainmentResult("timeout", proven=False, nodes=nodes)
    if not ok:
        return ContainmentResult("infeasible", proven=True, nodes=nodes)
    trace = run_simulation(g, start, schedule, plan_strategy(found[0]))
    assert trace.burned_count <= burn_cap
    return ContainmentResult("feasible", trace=trace, proven=True,
                             nodes=nodes)


def trace_to_json_str(trace: SimTrace) -> str:
    return json.dumps(trace.to_json(), sort_keys=True)
