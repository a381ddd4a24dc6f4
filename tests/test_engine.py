import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_connected_graph
from firecontain import classify, engine, families as F, randgen
from firecontain.engine import (
    ContainmentResult,
    Schedule,
    SimTrace,
    advance_round,
    ignite,
    min_burned_containment,
    null_strategy,
    plan_strategy,
    replay,
    run_simulation,
    sn_exact,
)
from firecontain.errors import StrategyBudgetViolation
from firecontain.strategies import lattice_probes, load_plan
from oracles import (
    containment_reference,
    frontier,
    run_simulation_reference,
    sn_reference,
)


def test_schedule():
    s = Schedule(4, 3)
    assert s.budget(1) == 4 and s.budget(2) == 3 and s.budget(9) == 3
    assert Schedule.constant(2).as_pair() == [2, 2]
    with pytest.raises(ValueError):
        Schedule(-1, 2)


def test_round_semantics():
    g = F.path(5)
    state = ignite(g, 2)
    assert state.round == 0 and state.burning == frozenset([2])
    state = advance_round(g, state, [3], budget=1)
    assert state.burning == frozenset([1, 2])
    assert state.protected == frozenset([3])
    state = advance_round(g, state, [0], budget=1)
    assert state.burning == frozenset([1, 2])
    assert not frontier(g, state.burning, state.protected)


def test_advance_round_guards():
    g = F.path(4)
    state = ignite(g, 0)
    with pytest.raises(StrategyBudgetViolation, match="exceed budget"):
        advance_round(g, state, [2, 3], budget=1)
    with pytest.raises(StrategyBudgetViolation, match="cannot protect"):
        advance_round(g, state, [0], budget=1)
    state = advance_round(g, state, [2], budget=1)
    with pytest.raises(StrategyBudgetViolation, match="cannot protect"):
        advance_round(g, state, [2], budget=1)


def test_run_simulation_terminates_and_counts():
    g = F.star(8)
    trace = run_simulation(g, 0, Schedule.constant(1), null_strategy)
    assert trace.saved == 0
    assert trace.burned_count == 8
    # protecting fewer than the budget is legal (null strategy always does)
    trace = run_simulation(g, 1, Schedule.constant(3), null_strategy)
    assert trace.burned_count == 8 and len(trace.rounds) == 2


def test_strategy_budget_violation():
    g = F.path(4)

    def cheat(g_, state, budget):
        return [2, 3]

    with pytest.raises(StrategyBudgetViolation):
        run_simulation(g, 0, Schedule.constant(1), cheat)


def test_replay_determinism():
    g = F.platonic("icosahedron")
    res = sn_exact(g, 0, Schedule(4, 3))
    again = replay(g, res.trace)
    assert again == res.trace
    # JSON round trip preserves the trace
    back = SimTrace.from_json(json.loads(
        json.dumps(res.trace.to_json(), sort_keys=True)), g.n)
    assert back == res.trace


@pytest.mark.parametrize("protect", [[2, 1], [1, 1]],
                         ids=["descending", "repeat"])
def test_from_json_needs_ascending_round_lists(protect):
    # a trace is its masks, which keep no order: a list that a mask could
    # not give back is refused here, not at replay
    obj = {"start": 0, "schedule": [2, 2], "saved": 3,
           "rounds": [{"protect": protect, "burned": []}]}
    with pytest.raises(ValueError, match="ascending"):
        SimTrace.from_json(obj, 4)
    obj["rounds"] = [{"protect": [], "burned": protect}]
    with pytest.raises(ValueError, match="ascending"):
        SimTrace.from_json(obj, 4)


def test_sn_point_values():
    assert sn_exact(F.path(3), 1, Schedule.constant(1)).value == 1
    assert sn_exact(F.path(3), 0, Schedule.constant(1)).value == 2
    assert sn_exact(F.star(6), 0, Schedule.constant(1)).value == 1
    assert sn_exact(F.star(6), 1, Schedule.constant(1)).value == 5
    # one hub of K_{2,3}: protect a leaf, then the other hub
    g = F.complete_bipartite_2_m(3)
    assert sn_exact(g, 0, Schedule.constant(1)).value == 2
    # a leaf start: protect one hub, then one of the two free leaves
    assert sn_exact(g, 2, Schedule.constant(1)).value == 2


def test_sn_matches_reference_on_random_graphs():
    for seed in range(12):
        g = random_connected_graph(6, 0.45, seed)
        for k in (1, 2):
            sched = Schedule.constant(k)
            for start in range(g.n):
                res = sn_exact(g, start, sched)
                assert res.optimal
                assert res.value == sn_reference(g, start, sched)
                assert replay(g, res.trace).saved == res.value


def test_sn_matches_reference_uneven_schedule():
    sched = Schedule(2, 1)
    for seed in range(6):
        g = random_connected_graph(6, 0.5, seed + 100)
        for start in range(g.n):
            assert sn_exact(g, start, sched).value == \
                sn_reference(g, start, sched)


def test_sn_timeout_is_lower_bound():
    g = F.rect_grid(6, 6)  # the full search takes 32 nodes
    res = sn_exact(g, 14, Schedule.constant(2), node_limit=10)
    assert not res.optimal
    assert res.trace is not None
    assert res.value == res.trace.saved
    assert replay(g, res.trace).saved == res.value


@pytest.mark.parametrize("force_dfs", [False, True])
def test_containment_matches_reference(force_dfs, monkeypatch):
    if force_dfs:  # no probe decides, so every verdict is the DFS's
        monkeypatch.setattr(engine, "DEFAULT_PROBES", ())
    for seed in range(10):
        g = random_connected_graph(7, 0.4, seed + 300)
        for sched in (Schedule.constant(1), Schedule.constant(2),
                      Schedule(2, 1)):
            for cap in (2, 3, 5):
                res = min_burned_containment(g, 0, sched, burn_cap=cap)
                assert res.status in ("feasible", "infeasible")
                want = containment_reference(g, 0, sched, cap, cap)
                assert res.feasible == want
                if res.feasible:
                    t = replay(g, res.trace)
                    assert t.burned_count <= cap
                    assert len(t.rounds) <= cap


def test_containment_trivial_small_graph():
    g = F.path(3)
    res = min_burned_containment(g, 0, Schedule.constant(0), burn_cap=3)
    assert res.feasible and res.proven


def test_containment_rejects_bad_caps():
    with pytest.raises(ValueError):
        min_burned_containment(F.path(3), 0, Schedule.constant(1), burn_cap=0)


def test_containment_result_flags():
    for status, feasible, proven in (("feasible", True, True),
                                     ("infeasible", False, True),
                                     ("timeout", False, False)):
        r = ContainmentResult(status)
        assert (r.feasible, r.proven) == (feasible, proven), status


# -- the carried frontier and the probe cut-off --------------------------------

def _engine_corpus():
    yield F.hex_patch(3)
    yield F.rect_grid(9, 9)
    for seed in (1, 2, 3):
        yield randgen.random_triangulation(60, seed)
        yield randgen.random_tf_maximal(40, seed)


def _grid_probes(g, start, lattice):
    """The packaged ``lattice`` plan mapped through ``start``'s grid ball,
    as a probe, or none at a start of another degree."""
    if g.degree(start) != len(classify.GRID_LATTICES[lattice][0]):
        return []
    return lattice_probes(classify.grid_ball(g, start, lattice)[0], lattice)


def test_run_simulation_matches_the_reference_round_engine():
    plans = [(Schedule(*plan["schedule"]), plan["lattice"])
             for plan in map(load_plan, ("hex_containment",
                                         "rect_containment"))]
    for g in _engine_corpus():
        for start in range(g.n):
            runs = [(sched, strat)
                    for sched in (Schedule(4, 3), Schedule.constant(2))
                    for strat in (null_strategy,) + engine.DEFAULT_PROBES]
            for sched, lattice in plans:
                runs.extend((sched, probe)
                            for probe in _grid_probes(g, start, lattice))
            for sched, strat in runs:
                assert run_simulation(g, start, sched, strat) == \
                    run_simulation_reference(g, start, sched, strat)


def _violation(simulate, g, start, strategy):
    with pytest.raises(StrategyBudgetViolation) as err:
        simulate(g, start, Schedule.constant(1), strategy)
    return str(err.value)


def test_budget_violations_match_the_reference_round_engine():
    def over_budget(g, state, budget):
        if state.round < 2:
            return []
        return [v for v in range(g.n) if v not in state.burning
                and v not in state.protected][:budget + 1]

    def protect_burning(g, state, budget):
        return [max(state.burning)] if state.round == 2 else []

    def protect_twice(g, state, budget):
        if state.round == 0:
            return [max(g.adjacency[min(state.burning)])]
        return sorted(state.protected) if state.round == 2 else []

    g = F.rect_grid(9, 9)
    for strategy in (over_budget, protect_burning, protect_twice):
        for start in (0, 40):
            assert _violation(run_simulation, g, start, strategy) == \
                _violation(run_simulation_reference, g, start, strategy)


@pytest.mark.parametrize("v", [-1, 4, True], ids=["negative", "n", "bool"])
def test_a_protection_that_names_no_vertex_is_a_violation(v):
    # each of -1, n and True used to get past the round step: a bare
    # ValueError, a protection reported a round late, and vertex 1
    g, one = F.path(4), Schedule.constant(1)
    with pytest.raises(StrategyBudgetViolation, match="not vertices"):
        advance_round(g, ignite(g, 0), [v], 1)
    with pytest.raises(StrategyBudgetViolation, match="not vertices"):
        run_simulation(g, 0, one, lambda g, state, budget: [v])
    with pytest.raises(StrategyBudgetViolation, match="not vertices"):
        run_simulation(g, 0, one, plan_strategy([[v]]))


def test_lazy_traces_equal_hash_and_serialise_like_eager_ones():
    # run_simulation carries the frontier; the reference engine takes it
    # from the whole burning set each round
    for g in _engine_corpus():
        for start in (0, g.n // 2):
            for strat in (null_strategy,) + engine.DEFAULT_PROBES:
                sched = Schedule.constant(2)
                got = run_simulation(g, start, sched, strat)
                want = run_simulation_reference(g, start, sched, strat)
                assert got.masks == want.masks
                assert hash(got) == hash(want)
                assert got == want and want == got
                assert got.to_json() == want.to_json()
                assert got.protection_plan() == want.protection_plan()
                assert SimTrace.from_json(got.to_json(), g.n) == got
                assert repr(got) == repr(want)


@pytest.mark.parametrize("prot", [[3, 1], [1, 8], [0, 2], [1, 2, 3]],
                         ids=["valid", "non-vertex", "clash", "over-budget"])
def test_advance_round_reads_a_generator_like_a_list(prot):
    def outcome(protections):
        try:
            s = advance_round(g, ignite(g, 0), protections, 2)
        except StrategyBudgetViolation as err:
            return str(err)
        return s.burning_mask, s.protected_mask, s.round, s.front_mask

    g = F.platonic("cube")
    got = outcome(v for v in prot)
    assert got == outcome(list(prot))
    assert isinstance(got, str) == (prot != [3, 1])


_SMALL_GRAPHS = (F.path(6), F.star(5), F.rect_grid(5, 5), F.hex_patch(2),
                 randgen.random_triangulation(30, 1),
                 randgen.random_tf_maximal(30, 1))


def _random_strategy(seed, fault):
    """Random protections of free vertices, at most the budget; with
    probability ``fault`` a round also names a burning or protected
    vertex, repeats one, or spends one more than the budget."""
    rng = random.Random(seed)

    def decide(g, state, budget):
        free = sorted(set(g.vertices()) - state.burning - state.protected)
        picks = rng.sample(free, min(len(free), rng.randint(0, budget)))
        if rng.random() < fault:
            kind = rng.choice(("burning", "protected", "repeat", "over"))
            if kind == "burning":
                picks.append(rng.choice(sorted(state.burning)))
            elif kind == "protected" and state.protected:
                picks.append(rng.choice(sorted(state.protected)))
            elif kind == "repeat" and picks:
                picks.append(picks[0])
            elif kind == "over":
                picks = free[:budget + 1]
        return picks
    return decide


def _outcome(simulate, g, start, schedule, strategy):
    try:
        return simulate(g, start, schedule, strategy)
    except StrategyBudgetViolation as err:
        return str(err)


@settings(max_examples=200, deadline=None)
@given(graph=st.integers(0, len(_SMALL_GRAPHS) - 1), data=st.data(),
       first=st.integers(0, 3), rest=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1), fault=st.sampled_from([0, 0.1, 0.5]))
def test_mask_engine_matches_the_reference_under_random_strategies(
        graph, data, first, rest, seed, fault):
    g = _SMALL_GRAPHS[graph]
    start = data.draw(st.integers(0, g.n - 1))
    sched = Schedule(first, rest)
    got = _outcome(run_simulation, g, start, sched,
                   _random_strategy(seed, fault))
    want = _outcome(run_simulation_reference, g, start, sched,
                    _random_strategy(seed, fault))
    assert got == want


@pytest.mark.parametrize("burn_cap", [6], ids=["6-None"])
def test_probe_stops_at_the_caps(burn_cap):
    # without firefighters the greedy probes burn the whole grid, so every
    # probe fails and the search runs; from the centre the fire needs 8
    # rounds, so an uncut probe would be called 8 times
    g, start, sched = F.rect_grid(9, 9), 40, Schedule.constant(0)
    for probe in engine.DEFAULT_PROBES:
        assert run_simulation(g, start, sched, probe).burned_count == g.n
    calls = []

    def counting(g_, state, budget):
        calls.append(state.round + 1)
        return []

    res = min_burned_containment(g, start, sched, burn_cap=burn_cap,
                                 probes=[counting])
    assert res.status == "infeasible"
    assert 1 <= len(calls) <= burn_cap


def _capped_reference(g, start, schedule, strategy, burn_cap=math.inf):
    t = run_simulation_reference(g, start, schedule, strategy)
    return t if t.burned_count <= burn_cap else None


def _containment_outcomes(g, sched, cap, node_limit):
    lattice = "hex" if cap == 6 else "rect"
    out = []
    for start in range(g.n):
        res = min_burned_containment(
            g, start, sched, burn_cap=cap, node_limit=node_limit,
            probes=_grid_probes(g, start, lattice))
        out.append((res.status, res.nodes,
                    None if res.trace is None else res.trace.to_json()))
    return out


# node_limit bounds the region enumeration around the hubs of the stacked
# triangulations, whose timeouts are compared like any other outcome
@pytest.mark.parametrize("graph, sched, cap, node_limit", [
    (("random_triangulation", 200, 1), Schedule(4, 3), 6, 1000),
    (("random_triangulation", 200, 2), Schedule(4, 3), 6, 1000),
    (("random_triangulation", 200, 3), Schedule(4, 3), 6, 1000),
    (("random_tf_maximal", 60, 1), Schedule.constant(2), 18, 2_000_000),
    (("random_tf_maximal", 60, 2), Schedule.constant(2), 18, 2_000_000),
    (("random_tf_maximal", 60, 3), Schedule.constant(2), 18, 2_000_000),
], ids=["tri200-1", "tri200-2", "tri200-3", "tf60-1", "tf60-2", "tf60-3"])
def test_probe_cut_off_keeps_every_containment_result(
        monkeypatch, graph, sched, cap, node_limit):
    gen, n, seed = graph
    g = getattr(randgen, gen)(n, seed)
    got = _containment_outcomes(g, sched, cap, node_limit)
    monkeypatch.setattr(engine, "run_simulation", _capped_reference)
    assert got == _containment_outcomes(g, sched, cap, node_limit)
