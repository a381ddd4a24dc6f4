"""The bitset search core against the frozenset searches it replaced:
equal values, statuses and witnesses.  The containment DFS also matches
their node counts, timeouts included; the pruned ``sn_exact`` never
takes more nodes, and matches them node for node on timeouts below its
own full count."""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_connected_graph
from firecontain import engine, families as F, randgen
from firecontain.engine import Schedule
from oracles import (
    contain_by_dfs_frozenset,
    sn_exact_frozenset,
    sn_reference,
    wall_deadlines,
    wall_schedule_reference,
)

SCHEDULES = (Schedule.constant(1), Schedule.constant(2), Schedule(4, 3))
# budgets that change after round 1: the one-round lookahead must use the
# next round's budget, not the current one's
SN_SCHEDULES = SCHEDULES + (Schedule(1, 2), Schedule(0, 1))


def _sn_cases():
    for w, h in itertools.product((3, 4), repeat=2):
        yield f"rect_grid({w},{h})", F.rect_grid(w, h), range(w * h)
    yield "cube", F.platonic("cube"), range(8)
    yield "dodecahedron", F.platonic("dodecahedron"), (0, 7, 13)


def _assert_same_solve(got, want, where):
    assert (got.value, got.trace, got.optimal) == \
        (want.value, want.trace, want.optimal), where
    assert got.nodes <= want.nodes, where


@pytest.mark.parametrize("sched", SN_SCHEDULES, ids=str)
def test_sn_exact_matches_frozenset_search(sched):
    for name, g, starts in _sn_cases():
        for v in starts:
            got = engine.sn_exact(g, v, sched)
            _assert_same_solve(got, sn_exact_frozenset(g, v, sched),
                               (name, v))
            assert got.optimal


def test_sn_exact_matches_frozenset_search_on_quadrangulations():
    for seed in range(1, 6):
        g = randgen.random_tf_maximal(18, seed)
        for v in range(0, g.n, 2):
            for sched in SN_SCHEDULES:
                _assert_same_solve(engine.sn_exact(g, v, sched),
                                   sn_exact_frozenset(g, v, sched),
                                   (seed, v, sched))


def test_sn_exact_timeouts_match_node_for_node():
    g = F.rect_grid(4, 4)
    k1 = Schedule.constant(1)
    for v in (0, 5):
        full = engine.sn_exact(g, v, k1).nodes
        for limit in (1, 2, 7, 50, full - 1):
            if limit >= full:  # the pruned search finishes within it
                continue
            got = engine.sn_exact(g, v, k1, limit)
            assert got == sn_exact_frozenset(g, v, k1, limit), (v, limit)
            assert not got.optimal and got.nodes == limit + 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 7), p=st.sampled_from((0.3, 0.5, 0.8)),
       seed=st.integers(0, 10_000), first=st.integers(0, 3),
       rest=st.integers(0, 3))
def test_sn_exact_matches_reference_on_any_schedule(n, p, seed, first, rest):
    g = random_connected_graph(n, p, seed)
    sched = Schedule(first, rest)
    for start in range(g.n):
        res = engine.sn_exact(g, start, sched)
        assert res.optimal and res.trace.saved == res.value
        assert res.value == sn_reference(g, start, sched), (start, sched)


def _dfs_cases():
    for seed in range(1, 6):
        yield f"tf18_{seed}", randgen.random_tf_maximal(18, seed)
    yield "rect_grid(4,4)", F.rect_grid(4, 4)
    yield "dodecahedron", F.platonic("dodecahedron")


def test_contain_by_dfs_matches_frozenset_search():
    statuses = set()
    for name, g in _dfs_cases():
        for v in (0, 3, 11):
            for sched in (Schedule.constant(1), Schedule.constant(2)):
                for cap, bound in ((4, 4), (7, 3), (9, 9)):
                    got = engine._contain_by_dfs(g, v, sched, cap, bound,
                                                 10_000)
                    want = contain_by_dfs_frozenset(g, v, sched, cap, bound,
                                                    10_000)
                    assert got == want, (name, v, sched, cap, bound)
                    statuses.add(got.status)
    assert statuses == {"feasible", "infeasible"}


def test_contain_by_dfs_timeouts_match_node_for_node():
    g = randgen.random_tf_maximal(40, 3)  # the full proof takes 1453 nodes
    for limit in (1, 3, 20, 150, 1452):
        args = (g, 5, Schedule.constant(1), 12, 12, limit)
        got = engine._contain_by_dfs(*args)
        assert got == contain_by_dfs_frozenset(*args), limit
        assert got.status == "timeout" and got.nodes == limit + 1


def test_cap18_infeasibility_proof_is_pinned():
    # a cap-18 proof of the triangle-free classification; its node count
    # is the frozenset search's
    g = randgen.random_tf_maximal(200, 12)
    res = engine._contain_by_dfs(g, 7, Schedule.constant(2), 18, 18, 500_000)
    assert res.status == "infeasible" and res.proven
    assert res.nodes == 19998


WALL_CASES = [
    ("random_triangulation(300,70)", randgen.random_triangulation(300, 70),
     21, 6),
    ("rect_grid(5,5)", F.rect_grid(5, 5), 12, 7),
    ("hex_patch(2)", F.hex_patch(2), 0, 6),
    ("random_tf_maximal(40,3)", randgen.random_tf_maximal(40, 3), 5, 7),
]


@pytest.mark.parametrize("name, g, start, cap", WALL_CASES)
def test_wall_schedule_early_reject_agrees(name, g, start, cap):
    """Rejecting a region with more walls than protections before the
    last deadline never changes the earliest-deadline-first result."""
    rejected = 0
    regions = itertools.islice(engine._connected_regions(g, start, cap),
                               2000)
    for region in regions:
        vs = set(engine._vertices(region))
        for sched in SCHEDULES:
            got = engine._wall_schedule(g, start, sched, region, cap)
            assert got == wall_schedule_reference(g, start, sched, vs,
                                                  cap), (name, sorted(vs))
            _, walls = wall_deadlines(g, start, vs)
            rejected += len(walls) > sched.cumulative(max(walls.values()))
    assert rejected > 0


def test_wall_schedule_skips_zero_budget_rounds():
    assert engine._wall_schedule(F.path(5), 0, Schedule(0, 1), 0b11, 5) \
        == [[], [2]]
    # no slot ever opens, and the search still ends
    assert engine._wall_schedule(F.path(5), 0, Schedule(0, 0), 0b11, 5) \
        is None
    # on the early-reject graphs every zero-budget region is rejected; on
    # paths and cycles walls get placed
    cases = WALL_CASES + [("path(9)", F.path(9), 0, 6),
                          ("path(9) centre", F.path(9), 4, 6),
                          ("cycle(9)", F.cycle(9), 0, 6)]
    placed = 0
    for name, g, start, cap in cases:
        for region in itertools.islice(
                engine._connected_regions(g, start, cap), 2000):
            vs = set(engine._vertices(region))
            for sched in (Schedule(0, 1), Schedule(0, 2), Schedule(1, 0)):
                plan = engine._wall_schedule(g, start, sched, region, cap)
                assert plan == wall_schedule_reference(
                    g, start, sched, vs, cap), (name, sorted(vs))
                if plan is not None:
                    placed += 1
                    # raises StrategyBudgetViolation past a round's budget
                    engine.run_simulation(g, start, sched,
                                          engine.plan_strategy(plan))
    assert placed > 0


# A child of the containment DFS that fails its frontier checks is counted
# as a node without being entered, and a block of children that share
# their frontier part and all fail is counted in one step.  The node
# counts below are those of the one-child-at-a-time search.

@pytest.mark.parametrize("start", (39, 25))
def test_dead_children_do_not_cost_time(start):
    # degree-9 starts: C(199, 4) protection sets at round 1, of which
    # only the 126 inside the frontier keep the fire within the cap
    g = randgen.random_triangulation(200, 1)
    res = engine._contain_by_dfs(g, start, Schedule(4, 3), 6, 6, 50_000)
    assert res.status == "infeasible" and res.nodes == 127


def test_square_grid_cap18_plan_from_the_centre():
    g = F.rect_grid(17, 17)
    centre = 8 * 17 + 8
    res = engine._contain_by_dfs(g, centre, Schedule.constant(2), 18, 18,
                                 2_000_000)
    assert res.status == "feasible" and res.nodes == 487_014
    trace = engine.replay(g, res.trace)
    assert trace == res.trace
    assert trace.burned_count <= 18 and len(trace.rounds) <= 18


def test_contain_by_dfs_timeouts_inside_counted_blocks():
    # the full proof takes 19998 nodes; nodes 18..28, 498..692 and
    # 1084..19998 are blocks of dead children counted in one step each
    g = randgen.random_tf_maximal(200, 12)
    for limit in (1, 2, 20, 500, 5000):
        args = (g, 7, Schedule.constant(2), 18, 18, limit)
        got = engine._contain_by_dfs(*args)
        assert got.status == "timeout" and got.nodes == limit + 1, limit
        assert got == contain_by_dfs_frozenset(*args), limit


def test_contain_by_dfs_agrees_with_region_enumeration_at_cap6():
    sched = Schedule(4, 3)
    statuses = set()
    for seed in range(1, 5):
        g = randgen.random_triangulation(16, seed)
        for v in range(g.n):
            dfs = engine._contain_by_dfs(g, v, sched, 6, 6, 20_000).status
            enum = engine._contain_by_region_enum(g, v, sched, 6, 6,
                                                  20_000).status
            if "timeout" not in (dfs, enum):
                assert dfs == enum, (seed, v)
                statuses.add(dfs)
    assert statuses == {"feasible", "infeasible"}
