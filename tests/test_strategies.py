import pytest

from firecontain import classify, engine, families as F, randgen, rates
from firecontain import strategies
from firecontain.augment import augment_maximal_planar
from firecontain.engine import (
    Schedule,
    min_burned_containment,
    plan_strategy,
    run_simulation,
    sn_exact,
)
from firecontain.errors import (
    CorruptPlan,
    NotApplicable,
)
from firecontain.strategies import (
    checked_grid_plan,
    config_plan,
    lattice_map,
    lattice_probes,
    load_plan,
    local_plan,
    mapped_plan,
    theorem_dispatch,
)
from oracles import dispatch_reference


def replay(g, start, sched, plan):
    return run_simulation(g, start, sched, plan_strategy(plan))


def test_load_plan_hash_and_guard():
    for name in ("hex_containment", "rect_containment"):
        plan = load_plan(name)
        assert plan["name"] == name
        assert all(isinstance(c, tuple) for rnd in plan["rounds"]
                   for c in rnd)


def test_load_plan_rejects_corruption(monkeypatch):
    load_plan.cache_clear()
    monkeypatch.setitem(strategies.PLAN_HASHES, "hex_containment", "0" * 64)
    with pytest.raises(CorruptPlan, match="corrupted"):
        load_plan("hex_containment")
    load_plan.cache_clear()


def test_corrupt_plans_name_themselves(monkeypatch):
    load_plan.cache_clear()
    monkeypatch.setitem(strategies.PLAN_HASHES, "rect_containment", "0" * 64)
    with pytest.raises(CorruptPlan, match="corrupted"):
        load_plan("rect_containment")
    load_plan.cache_clear()
    unprotected = dict(load_plan("hex_containment"), rounds=[])
    with pytest.raises(CorruptPlan, match="fails its guarantee"):
        strategies._guard_plan(unprotected)


def test_rect_plan_caps_are_met_by_a_searched_plan():
    # the shipped rect plan's guarantee, re-derived by the exact search:
    # from the centre of a large square grid, two firefighters a round can
    # keep the fire within 18 vertices and 8 rounds
    plan = load_plan("rect_containment")
    assert (plan["burn_cap"], plan["round_cap"]) == (18, 8)
    g = F.rect_grid(17, 17)
    centre = 8 * 17 + 8
    res = engine._contain_by_dfs(g, centre, Schedule.constant(2), 18, 8,
                                 3_000_000)
    assert res.status == "feasible" and res.nodes == 56_468
    trace = engine.replay(g, res.trace)
    assert trace == res.trace
    assert trace.burned_count <= 18 and len(trace.rounds) <= 8


def test_lattice_map_hex():
    g = F.hex_patch(3)
    at = lattice_map(g, 0, "hex")
    assert at is not None
    assert at[(0, 0)] == 0
    # mapped cells are real vertices with consistent adjacency
    for (x, y), v in at.items():
        for dx, dy in F.HEX_DIRS:
            w = at.get((x + dx, y + dy))
            if w is not None:
                assert g.has_edge(v, w)


def test_lattice_map_rect():
    g = F.rect_grid(7, 7)
    centre = 3 * 7 + 3
    at = lattice_map(g, centre, "rect")
    assert at is not None and at[(0, 0)] == centre
    for (x, y), v in at.items():
        for dx, dy in F.RECT_DIRS:
            w = at.get((x + dx, y + dy))
            if w is not None:
                assert g.has_edge(v, w)


def test_lattice_map_fails_off_grid():
    g = F.platonic("icosahedron")  # degree 5 everywhere
    assert lattice_map(g, 0, "hex") is None
    assert lattice_map(g, 0, "rect") is None


def test_hex_strategy_contract():
    for radius in (4, 5):
        g = F.hex_patch(radius)
        trace = replay(g, 0, Schedule(4, 3), checked_grid_plan(g, 0, "hex"))
        assert trace.burned_count <= 6
        assert len(trace.rounds) <= 4


def test_hex_strategy_not_applicable_near_boundary():
    g = F.hex_patch(2)
    with pytest.raises(NotApplicable):
        checked_grid_plan(g, 0, "hex")


def test_rect_strategy_contract():
    for size in (17, 21):
        g = F.rect_grid(size, size)
        centre = (size // 2) * size + size // 2
        trace = replay(g, centre, Schedule.constant(2),
                       checked_grid_plan(g, centre, "rect"))
        assert trace.burned_count <= 18
        assert len(trace.rounds) <= 8


def test_rect_strategy_not_applicable_small_grid():
    g = F.rect_grid(5, 5)
    with pytest.raises(NotApplicable):
        checked_grid_plan(g, 12, "rect")


def test_lattice_probes_schedule_filter():
    g = F.rect_grid(17, 17)
    centre = 8 * 17 + 8
    probes = lattice_probes(g, centre, Schedule.constant(2), 18)
    assert probes  # the rect plan maps here
    # schedule (4,3) filters the rect plan out, hex plan does not map
    assert lattice_probes(g, centre, Schedule(4, 3), 18) == []


def test_mapped_plan_drops_missing_offsets():
    # near the boundary some plan offsets leave the graph; the mapped plan
    # simply omits them
    g = F.rect_grid(9, 9)
    plan = load_plan("rect_containment")
    mapped = mapped_plan(g, 4 * 9 + 4, plan)
    assert mapped is not None
    total_cells = sum(len(r) for r in plan["rounds"])
    assert sum(len(r) for r in mapped) <= total_cells


def test_degree_local_strategies():
    g = F.path(5)
    t = replay(g, 2, Schedule.constant(2), local_plan(g, 2, "girth5_thm2"))
    assert t.burned_count == 1
    g = F.platonic("dodecahedron")
    t = replay(g, 0, Schedule.constant(2), local_plan(g, 0, "girth5_thm2"))
    assert t.burned_count <= 2
    g = F.platonic("icosahedron")
    t = replay(g, 0, Schedule(4, 3), local_plan(g, 0, "planar_thm3"))
    assert t.burned_count <= 6
    g = F.star(10)  # centre 0 of degree 9
    with pytest.raises(NotApplicable):
        local_plan(g, 0, "planar_thm3")


def test_config_strategy_31():
    g = F.platonic("cube")
    t = replay(g, 0, Schedule.constant(2), config_plan(g, 0, "3.1"))
    assert t.burned_count <= 18


def test_config_strategy_applicability_and_search():
    for seed in range(5):
        g = randgen.random_tf_maximal(16, seed)
        for v in range(g.n):
            if g.degree(v) != 3:
                continue
            for m in classify.detect_local_configs(g, v):
                t = replay(g, v, Schedule.constant(2),
                           config_plan(g, v, m.config))
                assert t.burned_count <= 18
                assert len(t.rounds) <= 18


def test_config_strategy_unknown_id():
    with pytest.raises(NotApplicable):
        config_plan(F.platonic("cube"), 0, "9.9")


def test_dispatch_contracts_girth5():
    g = F.platonic("dodecahedron")
    rep = classify.classify_girth5(g)
    plan_for = theorem_dispatch("girth5_thm2", rep)
    for v in range(g.n):
        t = replay(g, v, Schedule.constant(2), plan_for(g, v))
        assert t.burned_count <= 2  # X_3 contract: at most 2 burned


def test_dispatch_contracts_planar():
    for seed in range(3):
        g = randgen.random_triangulation(18, seed)
        rep = classify.classify_planar(g)
        plan_for = theorem_dispatch("planar_thm3", rep)
        for v in rep.x_vertices():
            t = replay(g, v, Schedule(4, 3), plan_for(g, v))
            assert t.burned_count <= 6, (seed, v)


def test_dispatch_contracts_tf():
    for seed in range(3):
        g = randgen.random_tf_maximal(18, seed)
        rep = classify.classify_triangle_free(g)
        plan_for = theorem_dispatch("trianglefree_thm5", rep)
        for v in rep.x_vertices():
            t = replay(g, v, Schedule.constant(2), plan_for(g, v))
            assert t.burned_count <= 18, (seed, v)


def test_dispatch_context_mismatch():
    rep = classify.classify_girth5(F.cycle(5))
    with pytest.raises(NotApplicable):
        theorem_dispatch("planar_thm3", rep)


def test_strategies_never_beat_exact():
    g = F.platonic("icosahedron")
    rep = classify.classify_planar(g)
    plan_for = theorem_dispatch("planar_thm3", rep)
    sched = Schedule(4, 3)
    for v in range(g.n):
        t = replay(g, v, sched, plan_for(g, v))
        assert t.saved <= sn_exact(g, v, sched).value


def test_containment_agrees_with_strategy_on_hex():
    g = F.hex_patch(4)
    res = min_burned_containment(
        g, 0, Schedule(4, 3), burn_cap=6,
        probes=lattice_probes(g, 0, Schedule(4, 3), 6))
    assert res.feasible and res.trace.burned_count <= 6


def _dispatch_cases():
    """(context, graph, classification, schedule, starts or None for every
    X start): the corpora of acceptance criterion 8, the triangulated hex
    patches and the centre of a square grid."""
    for g in [F.platonic("dodecahedron")] + \
            [randgen.random_girth5_planar(60, s) for s in range(10)]:
        yield ("girth5_thm2", g, classify.classify_girth5(g),
               Schedule.constant(2), None)
    for g in [F.platonic("icosahedron")] + \
            [randgen.random_triangulation(20, s) for s in range(10)] + \
            [augment_maximal_planar(F.hex_patch(r)) for r in range(4, 8)]:
        yield ("planar_thm3", g, classify.classify_planar(g), Schedule(4, 3),
               None)
    for g in [F.platonic("cube"), F.rect_grid(6, 6)] + \
            [randgen.random_tf_maximal(20, s) for s in range(10)]:
        yield ("trianglefree_thm5", g, classify.classify_triangle_free(g),
               Schedule.constant(2), None)
    g = F.rect_grid(17, 17)
    yield ("trianglefree_thm5", g,
           classify.classify_triangle_free(g, mode="rules_only"),
           Schedule.constant(2), [8 * 17 + 8])


def test_plans_replay_like_the_decision_procedures():
    rules = set()
    for context, g, rep, sched, starts in _dispatch_cases():
        plan_for = theorem_dispatch(context, rep)
        reference = dispatch_reference(context, rep)
        for v in starts or rep.x_vertices():
            want = run_simulation(g, v, sched, reference)
            assert replay(g, v, sched, plan_for(g, v)) == want, (context, v)
            rules.add((context, rep.evidence[v]["rule"]))
    assert rules >= {
        ("girth5_thm2", "degree_le_2"),
        ("girth5_thm2", "low_degree_neighbor"),
        ("planar_thm3", "degree_le_4"),
        ("planar_thm3", "degree5_low_neighbor"),
        ("planar_thm3", "hex_neighborhood"),
        ("planar_thm3", "exact"),
        ("trianglefree_thm5", "degree_le_2"),
        ("trianglefree_thm5", "config_3.1"),
        ("trianglefree_thm5", "config_3.2"),
        ("trianglefree_thm5", "config_3.5"),
        ("trianglefree_thm5", "rect_neighborhood"),
        ("trianglefree_thm5", "exact"),
    }, rules


def test_dispatch_plans_low_degree_starts():
    # degree-1 ends of a path: the first budget covers the neighbourhood
    g = F.path(5)
    rep = classify.classify_triangle_free(g)
    plan_for = theorem_dispatch("trianglefree_thm5", rep)
    for v in (0, 4):
        assert rep.labels[v] == "X_1"
        assert replay(g, v, Schedule.constant(2), plan_for(g, v)).saved == 4
    # every start of a triangle is X_2 under the planar schedule
    rep = classify.classify_planar(F.cycle(3))
    plan_for = theorem_dispatch("planar_thm3", rep)
    assert [plan_for(F.cycle(3), v) for v in range(3)] == \
        [[[1, 2]], [[0, 2]], [[0, 1]]]


@pytest.mark.parametrize("tube, context, middle", [
    ("capped_tube", "planar_thm3", range(20, 25)),
    ("square_tube", "trianglefree_thm5", range(40, 45)),
], ids=["capped_tube", "square_tube"])
def test_tube_middles_get_exact_witnesses_not_the_grid_rule(
        request, tube, context, middle):
    # the middle ring passes the degree-only walk to depth 3 (hex) or 7
    # (rect), but the lattice wraps round the tube: no lattice map, so no
    # grid rule, and the exact search decides each start with a witness
    g = request.getfixturevalue(tube)
    lattice, cap = {"planar_thm3": ("hex", 6),
                    "trianglefree_thm5": ("rect", 18)}[context]
    classify_fn = {"planar_thm3": classify.classify_planar,
                   "trianglefree_thm5": classify.classify_triangle_free}
    rep = classify_fn[context](g)
    assert not any(ev["rule"] in ("hex_neighborhood", "rect_neighborhood")
                   for ev in rep.evidence.values())
    plan_for = theorem_dispatch(context, rep)
    sched = classify.SCHEDULES[context]
    for v in middle:
        assert classify.grid_neighborhood_test(g, v, lattice) == (False, None)
        assert lattice_map(g, v, lattice) is None
        assert rep.side(v) == "X" and rep.evidence[v]["rule"] == "exact"
        trace = replay(g, v, sched, plan_for(g, v))
        assert trace.to_json() == rep.evidence[v]["trace"]
        assert trace.burned_count <= cap
    if context == "planar_thm3":
        assert rates.certify_bound(g, "thm3_planar").passed
