"""Firefighter round semantics, simulation, and exact containment search.

Round convention: the fire ignites at round 0; firefighters act at rounds
1, 2, ... before each spread.  Protecting fewer vertices than the budget
(including none) is legal.

Simulation: ``advance_round`` is the one round step, and
``run_simulation`` the one loop over it; the containment probes call it
with a burn cap.  A ``FireState`` holds its burning and protected sets
and its frontier, the free part of N(burning), as ``int`` masks over
``g.neighbour_masks``; the frontier is carried from ignition.  After a
spread the old frontier is burning or protected, so the new frontier is
the free part of the neighbour masks of the newly burned vertices alone,
and a round costs the fire's growth, not the whole burning set.  The
built-in strategies read the masks; a custom strategy may read
``burning`` and ``protected`` as frozensets, made on first access.  A
capped run stops as soon as the burned count passes the cap: the count
only grows, so such a probe could never be accepted.  A run is its
masks: a trace keeps each round's (protected, burned) masks, and builds
round records from them only when ``rounds`` is read.

Exact search: both searches hold vertex sets as ``int`` masks on one
bitset layer, with the neighbour masks cached on the graph.

* ``sn_exact`` maximises the saved count and ``_contain_by_dfs`` decides
  containment within a burned-vertex cap.  Both are memoized depth-first
  searches over per-round protection subsets: N(burning) is carried from
  node to child, and one layered flood of the free component yields the
  candidates, in the order (distance, -degree, vertex), and the protected
  vertices that matter to the state's key.
* ``sn_exact`` is a branch-and-bound: each state is searched against a
  threshold, the best save count already in hand, and is solved exactly
  only when it beats it; otherwise it yields an upper bound, and the memo
  keeps exact values and bounds apart.  Before a child is searched, it is
  bounded one round ahead: of its frontier, at most the next round's
  budget can be protected and the rest burns.
* Both searches take their children from one generator, ``_blocks``.
  The candidates start with the frontier, so a protection set is an
  inside part on the frontier plus an outside part beyond it; the sets
  with one inside part are contiguous in combination order and share the
  child burning set, its neighbourhood and its frontier before the
  outside part, which are computed once per block.
* ``_contain_by_dfs`` enters a child only if it would pass the frontier
  checks at the top of the child's call: its outside part must protect
  enough of the block's frontier.  Every other child is dead and counts
  as one node without a call, and a block in which no outside part can
  protect enough counts as one node, so the count is the work done.
* ``min_burned_containment`` tries heuristic probes first, and then runs
  the DFS at every cap.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .embedding import EmbeddedGraph
from .errors import StrategyBudgetViolation


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

    def as_pair(self) -> list[int]:
        return [self.first, self.rest]


class FireState:
    """The fire after ``round`` rounds, on bit masks (bit v for vertex
    v): the burning and the protected vertices, and ``front_mask``, the
    unprotected, unburned neighbours of the burning set, carried from
    ``ignite`` by ``advance_round``.  ``burning`` and ``protected`` are
    the same sets as frozensets, made on first access, for strategies
    that want sets."""

    __slots__ = ("burning_mask", "protected_mask", "round", "front_mask",
                 "__dict__")

    def __init__(self, burning_mask: int, protected_mask: int, round: int,
                 front_mask: int):
        self.burning_mask = burning_mask
        self.protected_mask = protected_mask
        self.round = round
        self.front_mask = front_mask

    @cached_property
    def burning(self) -> frozenset[int]:
        return frozenset(_vertices(self.burning_mask))

    @cached_property
    def protected(self) -> frozenset[int]:
        return frozenset(_vertices(self.protected_mask))


class RoundRecord(NamedTuple):
    protect: tuple[int, ...]
    burned: tuple[int, ...]


class SimTrace(NamedTuple):
    """One run is its masks: the (protected, burned) masks of each round,
    which ``rounds`` reads as vertex tuples, beside its start, schedule,
    saved count and the graph's order."""

    start: int
    schedule: Schedule
    masks: tuple[tuple[int, int], ...]
    saved: int
    n: int

    @property
    def rounds(self) -> tuple[RoundRecord, ...]:
        return tuple(RoundRecord(tuple(_vertices(p)), tuple(_vertices(b)))
                     for p, b in self.masks)

    @property
    def burned_count(self) -> int:
        return self.n - self.saved

    def protection_plan(self) -> list[list[int]]:
        return [_vertices(p) for p, _ in self.masks]

    def to_json(self) -> dict:
        return {
            "start": self.start,
            "schedule": self.schedule.as_pair(),
            "rounds": [{"protect": _vertices(p), "burned": _vertices(b)}
                       for p, b in self.masks],
            "saved": self.saved,
        }

    @classmethod
    def from_json(cls, obj: dict, n: int) -> "SimTrace":
        """The trace of ``obj`` on an ``n``-vertex graph; ValueError for a
        round list that is not ascending vertex ids, ints in 0..n-1, or a
        schedule that is not two non-negative ints."""
        def mask(vs) -> int:
            vs = list(vs)
            bad = [v for v in vs if type(v) is not int or not 0 <= v < n]
            if bad:
                raise ValueError(f"{bad!r} are not vertices of this "
                                 f"{n}-vertex graph")
            if any(u >= v for u, v in zip(vs, vs[1:])):
                raise ValueError(f"{vs!r} is not ascending without repeats")
            return sum(1 << v for v in vs)

        pair = obj["schedule"]
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(type(b) is int for b in pair)):
            raise ValueError(f"schedule {pair!r} is not two ints")
        mask([obj["start"]])  # the start must be a vertex too
        masks = tuple((mask(r["protect"]), mask(r["burned"]))
                      for r in obj["rounds"])
        return cls(obj["start"], Schedule(*pair), masks, obj["saved"], n)


Decide = Callable[[EmbeddedGraph, FireState, int], Iterable[int]]


def ignite(g: EmbeddedGraph, start: int) -> FireState:
    return FireState(1 << start, 0, 0, g.neighbour_masks[start])


def advance_round(g: EmbeddedGraph, state: FireState,
                  protections: Iterable[int], budget: int) -> FireState:
    """Apply one round: protections first, then the fire spreads to all
    unprotected, unburned neighbours of burning vertices.  The frontier
    that was not protected burns, so the next frontier is the free part of
    the neighbourhood of the newly burned vertices.  StrategyBudgetViolation
    for more protections than ``budget``, or for one that is not an ``int``
    in 0..n-1 or is already burning or protected."""
    prot = set(protections)
    n, bits = g.n, 0
    for v in prot:
        if type(v) is not int or not 0 <= v < n:
            bad = [v for v in prot if type(v) is not int or not 0 <= v < n]
            raise StrategyBudgetViolation(
                f"cannot protect {bad!r}: not vertices of this {n}-vertex "
                f"graph")
        bits |= 1 << v
    if len(prot) > budget:
        raise StrategyBudgetViolation(
            f"{len(prot)} protections exceed budget {budget}")
    clash = bits & (state.burning_mask | state.protected_mask)
    if clash:
        raise StrategyBudgetViolation(
            f"cannot protect burning/protected vertices {_vertices(clash)}")
    newly = state.front_mask & ~bits
    burning = state.burning_mask | newly
    protected = state.protected_mask | bits
    front = _neighbourhood(g.neighbour_masks, newly) & ~(burning | protected)
    return FireState(burning, protected, state.round + 1, front)


def run_simulation(g: EmbeddedGraph, start: int, schedule: Schedule,
                   strategy: Decide, burn_cap: float = math.inf
                   ) -> Optional[SimTrace]:
    """Run the process until no burning vertex has a free neighbour; or
    return None once more than ``burn_cap`` vertices burn.  A round's
    budget and clash checks come before the cut."""
    state = ignite(g, start)
    masks = []  # (protected, burned) mask per round
    while front := state.front_mask:
        budget = schedule.budget(state.round + 1)
        was = state.protected_mask
        state = advance_round(g, state, strategy(g, state, budget), budget)
        masks.append((state.protected_mask ^ was,
                      front & ~state.protected_mask))
        if state.burning_mask.bit_count() > burn_cap:
            return None
    return SimTrace(start, schedule, tuple(masks),
                    g.n - state.burning_mask.bit_count(), g.n)


def plan_strategy(plan: Sequence[Sequence[int]]) -> Decide:
    """Replay a fixed per-round protection plan (empty after it runs out)."""
    def decide(g: EmbeddedGraph, state: FireState, budget: int) -> list[int]:
        round_no = state.round + 1
        if round_no <= len(plan):
            blocked = state.burning_mask | state.protected_mask
            # what is not a vertex passes, for advance_round to reject
            return [v for v in plan[round_no - 1]
                    if type(v) is not int or v < 0 or not blocked >> v & 1]
        return []
    return decide


def null_strategy(g: EmbeddedGraph, state: FireState, budget: int) -> list[int]:
    return []


def replay(g: EmbeddedGraph, trace: SimTrace) -> SimTrace:
    """Re-run a trace's recorded protections; must reproduce it exactly."""
    return run_simulation(g, trace.start, trace.schedule,
                          plan_strategy(trace.protection_plan()))


# -- greedy probe strategies ------------------------------------------------

def greedy_frontier_strategy(key: str = "degree") -> Decide:
    """Protect the most dangerous frontier vertices first.  Cheap probe used
    to seed incumbents; makes no guarantee."""
    def decide(g: EmbeddedGraph, state: FireState, budget: int) -> list[int]:
        # ascending, so the stable sort breaks ties by the least vertex
        cand = _vertices(state.front_mask)
        if key == "degree":
            rot = g.rotations
            score = lambda v: -len(rot[v])
        else:  # "spread": free neighbours the vertex would ignite
            masks = g.neighbour_masks
            free = ~(state.burning_mask | state.protected_mask)
            score = lambda v: -(masks[v] & free).bit_count()
        return sorted(cand, key=score)[:budget]
    return decide


DEFAULT_PROBES: tuple[Decide, ...] = (
    greedy_frontier_strategy("degree"),
    greedy_frontier_strategy("spread"),
)


# -- exact search results ----------------------------------------------------

@dataclass(frozen=True)
class SnResult:
    value: int
    trace: SimTrace
    optimal: bool
    nodes: int


class _NodeLimit(Exception):
    pass


# -- bitset search layer ------------------------------------------------------
#
# The exact searches hold vertex sets as int bit masks (bit v for vertex
# v).  The two protection-subset searches carry N(B), the union of the
# neighbour masks of the burning set B, from each node to its children.
# The frontier is then N(B) & ~(B | P), P the protected set, and a child
# ORs in the masks of its newly burned vertices only.


def _vertices(x: int) -> list[int]:
    """The vertices of bit mask ``x``, ascending."""
    out = []
    while x:
        v = x.bit_length() - 1
        out.append(v)
        x ^= 1 << v
    out.reverse()
    return out


def _neighbourhood(masks: Sequence[int], x: int) -> int:
    """N(x): the union of the neighbour masks of the vertices of ``x``."""
    out = 0
    while x:
        v = x.bit_length() - 1
        out |= masks[v]
        x ^= 1 << v
    return out


def _flood(masks: Sequence[int], front: int, blocked: int
           ) -> tuple[list[int], int]:
    """Distance layers of the free vertices reachable from the burning set,
    from its free neighbours ``front`` through vertices outside
    ``blocked`` (burning or protected), and N(reach)."""
    layers = []
    reach_nbhd = 0
    seen = blocked | front
    layer = front
    while layer:
        layers.append(layer)
        nbhd = _neighbourhood(masks, layer)
        reach_nbhd |= nbhd
        layer = nbhd & ~seen
        seen |= layer
    return layers, reach_nbhd


def _search_rank(g: EmbeddedGraph) -> list[int]:
    """rank[v] orders vertices by (-degree, v)."""
    rank = [0] * g.n
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    for i, v in enumerate(order):
        rank[v] = i
    return rank


def _candidates(layers: Sequence[int], rank: Sequence[int]) -> list[int]:
    """The vertices of ``layers`` in the search order (distance, -degree,
    vertex)."""
    out = []
    for layer in layers:
        out.extend(sorted(_vertices(layer), key=rank.__getitem__))
    return out


def _blocks(masks: Sequence[int], burning: int, nbhd: int, protected: int,
            front: int, cands: Sequence[int], k: int,
            burn_cap: float = math.inf):
    """The k-subsets of ``cands`` in frontier blocks, in combination order.

    ``cands`` starts with the f frontier vertices, so a k-subset is an
    *inside* part on the frontier plus r = k - |inside| vertices of
    ``cands[f:]``.  The subsets with one inside part form a contiguous run
    of the combination order, and they share the child burning set (the
    fire takes the rest of the frontier) and so N(child burning).  Yields
    (inside, child burning, its N, child protected set before the outside
    part, base, r) per block, where ``base`` is the child frontier before
    the outside protections; a block whose child burning set is larger
    than ``burn_cap`` is skipped."""
    f = front.bit_count()
    last = len(cands) - k  # the next index must leave room for the rest

    def grow(i0: int, inside: tuple[int, ...], bits: int):
        r = k - len(inside)
        if r:
            for i in range(i0, min(f, last + len(inside) + 1)):
                v = cands[i]
                yield from grow(i + 1, inside + (v,), bits | 1 << v)
        burn2 = burning | (front & ~bits)
        if r <= len(cands) - f and burn2.bit_count() <= burn_cap:
            nbhd2 = nbhd | _neighbourhood(masks, burn2 & ~burning)
            prot2 = protected | bits
            yield inside, burn2, nbhd2, prot2, nbhd2 & ~(burn2 | prot2), r

    return grow(0, (), 0)


def _combos(outside: Sequence[int], r: int):
    """(vertices, bit mask) of each r-subset of ``outside``, in
    combination order."""
    for combo in itertools.combinations(outside, r):
        bits = 0
        for v in combo:
            bits |= 1 << v
        yield combo, bits


# -- exact maximum save count ----------------------------------------------

def sn_exact(g: EmbeddedGraph, start: int, schedule: Schedule,
             node_limit: int = 10_000_000) -> SnResult:
    """Exact maximum number of savable vertices, with a witnessing trace.

    Memoized depth-first branch-and-bound over per-round protection
    subsets of the free vertices reachable from the fire.  A state is
    keyed by its burning set, the protected vertices next to the burning
    set or to the free component, and the round's budget.

    Each state is searched against a threshold ``alpha``: above it the
    search returns the state's exact value and its plan, and at or below
    it only an upper bound that is at most ``alpha``.  The memo records
    which of the two it holds; a bound is reused only under a threshold
    at least as high.  A child is searched against the larger of the
    parent's threshold and the best exact sibling value so far, and is
    skipped when its one-round-ahead bound cannot beat that: of its
    frontier F', at most ``schedule.budget(round + 1)`` vertices can be
    protected next round and the rest burn.  The root's threshold is one
    below the best greedy probe, so the root is always exact.  Ties fail
    low, so the plan is that of the first child in combination order
    that reaches the maximum.

    Returns a non-optimal result carrying the best known lower bound when
    the node limit is hit.
    """
    n = g.n
    masks = g.neighbour_masks
    rank = _search_rank(g)
    memo: dict = {}
    nodes = 0
    best_probe = None
    for probe in DEFAULT_PROBES:
        t = run_simulation(g, start, schedule, probe)
        if best_probe is None or t.saved > best_probe.saved:
            best_probe = t

    def solve(burning: int, nbhd: int, protected: int, round_no: int,
              alpha: int):
        """(value, plan) for this state when its value is above
        ``alpha``, else (bound, None) with the upper bound at most
        ``alpha``; ``nbhd`` is N(burning)."""
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise _NodeLimit
        blocked = burning | protected
        front = nbhd & ~blocked
        if not front:
            return n - burning.bit_count(), []
        budget = schedule.budget(round_no)
        layers, reach_nbhd = _flood(masks, front, blocked)
        key = (burning, protected & (reach_nbhd | nbhd), budget)
        hit = memo.get(key)
        # an exact entry always serves; a bound only under a threshold at
        # least as high.  Thresholds never fall in the order states are
        # visited, so a bound in fact always serves; the check does not
        # rely on that.
        if hit is not None and (hit[1] is not None or hit[0] <= alpha):
            return hit
        cands = _candidates(layers, rank)
        outside = cands[front.bit_count():]
        ahead_budget = schedule.budget(round_no + 1)
        best_val, best_plan, bound = alpha, None, 0
        for inside, burn2, nbhd2, prot_in, base, r in _blocks(
                masks, burning, nbhd, protected, front, cands,
                min(budget, len(cands))):
            saved = n - burn2.bit_count()
            for combo, bits in _combos(outside, r):
                # next round protects at most ahead_budget of the child's
                # frontier; the rest of it burns
                spill = (base & ~bits).bit_count() - ahead_budget
                val = saved - max(0, spill)
                if val > best_val:
                    val, plan = solve(burn2, nbhd2, prot_in | bits,
                                      round_no + 1, best_val)
                    if val > best_val:
                        best_val = val
                        best_plan = [list(inside + combo)] + plan
                        continue
                bound = max(bound, val)
        result = ((best_val, best_plan) if best_plan is not None
                  else (bound, None))
        memo[key] = result
        return result

    try:
        value, plan = solve(1 << start, masks[start], 0, 1,
                            best_probe.saved - 1)
    except _NodeLimit:
        return SnResult(value=best_probe.saved, trace=best_probe,
                        optimal=False, nodes=nodes)
    if plan is None:  # pragma: no cover - probe is also a plan
        raise AssertionError("probe beat the exact optimum")
    trace = run_simulation(g, start, schedule, plan_strategy(plan))
    assert trace.saved == value
    return SnResult(value=value, trace=trace, optimal=True, nodes=nodes)


# -- containment search -----------------------------------------------------

@dataclass(frozen=True)
class ContainmentResult:
    status: str  # "feasible" | "infeasible" | "timeout"
    trace: Optional[SimTrace] = None
    nodes: int = 0

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"

    @property
    def proven(self) -> bool:
        return self.status != "timeout"


def min_burned_containment(
    g: EmbeddedGraph,
    start: int,
    schedule: Schedule,
    burn_cap: int,
    node_limit: int = 2_000_000,
    probes: Sequence[Decide] = (),
) -> ContainmentResult:
    """Find a strategy whose total burned count stays within ``burn_cap``,
    or prove none exists.  An uncontained fire burns at least one vertex
    per round, so such a strategy contains the fire by round ``burn_cap``.

    The probes run first, and the first that meets the cap is the
    witness.  Otherwise the DFS decides, and its witness is the first plan
    within the cap in combination order.
    """
    if burn_cap < 1:
        raise ValueError("burn_cap must be positive")
    # every strategy trivially respects the cap on a small graph; letting
    # it burn is a (degenerate) witness.  A probe is cut off as soon as it
    # can no longer meet the cap.
    trivial = (null_strategy,) if g.n <= burn_cap else ()
    for probe in trivial + tuple(probes) + DEFAULT_PROBES:
        t = run_simulation(g, start, schedule, probe, burn_cap)
        if t is not None:
            return ContainmentResult("feasible", trace=t)
    return _contain_by_dfs(g, start, schedule, burn_cap, node_limit)


def _contain_by_dfs(g, start, schedule, burn_cap, node_limit
                    ) -> ContainmentResult:
    """Exact containment decision by depth-first search over protection
    subsets, on the bitset layer of ``sn_exact``.  A state that fails is
    remembered keyed like a ``sn_exact`` state, but without its budget:
    only round 1 burns just the start, and every later round has the same
    budget.  The frontier checks run before the flood of the free
    component.

    A round that burns nothing empties the frontier, so a node at round r
    with a non-empty frontier has burned at least r vertices, and every
    plan within the cap contains the fire by round ``burn_cap``.

    Children come in ``_blocks``: a block shares the child burning set
    B' and ``base``, the child frontier F' before the outside part of the
    protection set.  A child passes the frontier checks iff F' is empty
    or |F'| - budget' <= cap - |B'|; so iff its outside part protects at
    least t = |base| - budget' - (cap - |B'|) vertices of ``base``.  A
    child below t is dead: it is not entered, and counts as one node.  A
    block whose outside part cannot reach t at all counts as one node,
    the one step it costs.  So every node counted is a step of work, and
    ``node_limit`` bounds the time.  A child whose burning set passes the
    cap is skipped uncounted, block by block."""
    masks = g.neighbour_masks
    rank = _search_rank(g)
    nodes = 0
    failed: set = set()

    def rec(burning: int, nbhd: int, protected: int, round_no: int
            ) -> Optional[list[list[int]]]:
        """A protection plan from this state within both caps, or None;
        ``nbhd`` is N(burning)."""
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise _NodeLimit
        blocked = burning | protected
        front = nbhd & ~blocked
        if not front:
            return []
        allowance = burn_cap - burning.bit_count()
        budget = schedule.budget(round_no)
        if front.bit_count() - budget > allowance:
            return None
        layers, reach_nbhd = _flood(masks, front, blocked)
        key = (burning, protected & (reach_nbhd | nbhd))
        if key in failed:
            return None
        # dist - allowance never decreases while the fire spreads, so a
        # vertex beyond allowance + 1 can neither burn within the cap nor
        # ever need protection in a within-cap trajectory
        cands = _candidates(layers[:allowance + 1], rank)
        outside = cands[front.bit_count():]
        outside_mask = 0  # the candidates beyond the frontier, layers[0]
        for layer in layers[1:allowance + 1]:
            outside_mask |= layer
        ahead_budget = schedule.budget(round_no + 1)
        for inside, burn2, nbhd2, prot_in, base, r in _blocks(
                masks, burning, nbhd, protected, front, cands,
                min(budget, len(cands)), burn_cap):
            # a child is live, and passes rec's frontier checks, iff its
            # outside part protects at least t vertices of base
            t = (base.bit_count() - ahead_budget
                 - (burn_cap - burn2.bit_count()))
            # a block that no outside part can make live costs one step:
            # the empty outside part, dead too, stands for all of them
            combos = (_combos(outside, r)
                      if min(r, (base & outside_mask).bit_count()) >= t
                      else [((), 0)])
            for combo, bits in combos:
                if (base & bits).bit_count() < t:
                    nodes += 1
                    if nodes > node_limit:
                        raise _NodeLimit
                    continue
                plan = rec(burn2, nbhd2, prot_in | bits, round_no + 1)
                if plan is not None:
                    return [list(inside + combo)] + plan
        failed.add(key)
        return None

    try:
        plan = rec(1 << start, masks[start], 0, 1)
    except _NodeLimit:
        return ContainmentResult("timeout", nodes=nodes)
    if plan is None:
        return ContainmentResult("infeasible", nodes=nodes)
    trace = run_simulation(g, start, schedule, plan_strategy(plan))
    assert trace.burned_count <= burn_cap
    return ContainmentResult("feasible", trace=trace, nodes=nodes)


def _contain_by_region_enum(g, start, schedule, burn_cap, node_limit
                            ) -> ContainmentResult:
    """``_contain_by_dfs``; never called.  The name stays because
    perfbench's trace mode looks it up to wrap it."""
    return _contain_by_dfs(g, start, schedule, burn_cap, node_limit)
