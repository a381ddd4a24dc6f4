"""The bitset search core against the frozenset searches it replaced:
equal values, statuses and witnesses.  The pruned ``sn_exact`` and the
containment DFS, which counts each block of dead children as one node,
never take more nodes than the frozenset searches, and match them node
for node on timeouts below their own full count."""
import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_connected_graph
from firecontain import engine, families as F, randgen
from firecontain.engine import Schedule
from oracles import (
    contain_by_dfs_frozenset,
    contain_by_regions_reference,
    sn_exact_frozenset,
    sn_reference,
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
    """Equal results but for the node count, which is no larger."""
    assert replace(got, nodes=0) == replace(want, nodes=0), where
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
        for v in range(g.n):
            for sched in (Schedule.constant(1), Schedule.constant(2)):
                for cap in (4, 7, 9):
                    got = engine._contain_by_dfs(g, v, sched, cap, 10_000)
                    want = contain_by_dfs_frozenset(g, v, sched, cap, cap,
                                                    10_000)
                    _assert_same_solve(got, want, (name, v, sched, cap))
                    statuses.add(got.status)
    assert statuses == {"feasible", "infeasible"}


def _assert_timeouts_match(g, v, sched, cap, limits):
    full = engine._contain_by_dfs(g, v, sched, cap, 10_000_000).nodes
    for limit in limits + (full - 1,):
        if limit >= full:  # the DFS finishes within it
            continue
        got = engine._contain_by_dfs(g, v, sched, cap, limit)
        assert got == contain_by_dfs_frozenset(g, v, sched, cap, cap,
                                               limit), limit
        assert got.status == "timeout" and got.nodes == limit + 1, limit


def test_contain_by_dfs_timeouts_match_node_for_node():
    # the full proof takes 350 nodes
    _assert_timeouts_match(randgen.random_tf_maximal(40, 3), 5,
                           Schedule.constant(1), 12, (1, 3, 20, 150))


def test_cap18_infeasibility_proof_is_pinned():
    # a cap-18 proof of the triangle-free classification
    g = randgen.random_tf_maximal(200, 12)
    res = engine._contain_by_dfs(g, 7, Schedule.constant(2), 18, 500_000)
    assert res.status == "infeasible" and res.proven
    assert res.nodes == 148


# A child of the containment DFS that fails its frontier checks is counted
# as a node without being entered, and a block of children that share
# their frontier part and all fail is counted as one node.

@pytest.mark.parametrize("start", (39, 25))
def test_dead_children_do_not_cost_time(start):
    # degree-9 starts: C(199, 4) protection sets at round 1, of which
    # only the 126 inside the frontier keep the fire within the cap
    g = randgen.random_triangulation(200, 1)
    res = engine._contain_by_dfs(g, start, Schedule(4, 3), 6, 50_000)
    assert res.status == "infeasible" and res.nodes == 127


def test_square_grid_cap18_plan_from_the_centre():
    g = F.rect_grid(17, 17)
    centre = 8 * 17 + 8
    res = engine._contain_by_dfs(g, centre, Schedule.constant(2), 18,
                                 2_000_000)
    assert res.status == "feasible" and res.nodes == 56_468
    trace = engine.replay(g, res.trace)
    assert trace == res.trace
    assert trace.burned_count <= 18 and len(trace.masks) <= 18


def test_contain_by_dfs_timeouts_inside_counted_blocks():
    # the full proof takes 148 nodes, and nodes 3..148 are blocks of dead
    # children, counted as one node each
    _assert_timeouts_match(randgen.random_tf_maximal(200, 12), 7,
                           Schedule.constant(2), 18, (1, 2, 20, 100))


REGION_ENUM_CASES = (
    [(f"random_triangulation(16,{s})", randgen.random_triangulation(16, s),
      Schedule(4, 3), 6) for s in range(1, 5)]
    + [(f"random_tf_maximal(16,{s})", randgen.random_tf_maximal(16, s),
        Schedule.constant(2), 7) for s in (1, 2)]
    + [("rect_grid(4,4)", F.rect_grid(4, 4), Schedule.constant(2), 7),
       ("hex_patch(2)", F.hex_patch(2), Schedule(4, 3), 6)])


def test_contain_by_dfs_agrees_with_region_enumeration_at_cap6():
    sched = Schedule(4, 3)
    statuses = set()
    for seed in range(1, 5):
        g = randgen.random_triangulation(16, seed)
        for v in range(g.n):
            dfs = engine._contain_by_dfs(g, v, sched, 6, 20_000).status
            assert dfs == contain_by_regions_reference(g, v, sched, 6, 6), \
                (seed, v)
            statuses.add(dfs)
    assert statuses == {"feasible", "infeasible"}


def test_containment_matches_region_enumeration():
    """At every start the decision is region enumeration's, and where the
    probes fail the witness is the frozenset DFS's."""
    statuses = set()
    for name, g, sched, cap in REGION_ENUM_CASES:
        for v in range(g.n):
            res = engine.min_burned_containment(g, v, sched, cap)
            assert res.status == contain_by_regions_reference(
                g, v, sched, cap, cap), (name, v)
            statuses.add(res.status)
            dfs = engine._contain_by_dfs(g, v, sched, cap, 2_000_000)
            _assert_same_solve(dfs, contain_by_dfs_frozenset(
                g, v, sched, cap, cap, 2_000_000), (name, v))
            if res.nodes:  # decided by the search, not by a probe
                assert res == dfs, (name, v)
    assert statuses == {"feasible", "infeasible"}
