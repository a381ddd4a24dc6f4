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
    WrongContext,
)
from firecontain.strategies import (
    checked_grid_plan,
    lattice_probes,
    load_plan,
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
    res = engine._contain_by_dfs(g, centre, Schedule.constant(2), 18,
                                 3_000_000)
    assert res.status == "feasible" and res.nodes == 56_468
    trace = engine.replay(g, res.trace)
    assert trace == res.trace
    assert trace.burned_count <= 18 and len(trace.rounds) <= 8


def test_lattice_map_hex():
    g = F.hex_patch(3)
    at = classify.grid_ball(g, 0, "hex")[0]
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
    at = classify.grid_ball(g, centre, "rect")[0]
    assert at is not None and at[(0, 0)] == centre
    for (x, y), v in at.items():
        for dx, dy in F.RECT_DIRS:
            w = at.get((x + dx, y + dy))
            if w is not None:
                assert g.has_edge(v, w)


def test_lattice_map_fails_off_grid():
    g = F.platonic("icosahedron")  # degree 5 everywhere
    for lattice in ("hex", "rect"):
        with pytest.raises(WrongContext):
            classify.grid_ball(g, 0, lattice)
        with pytest.raises(NotApplicable):
            checked_grid_plan(g, 0, lattice)


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


def test_grid_plans_walk_the_ball_once(monkeypatch):
    # one grid-ball walk gives both the purity verdict and the offsets a
    # plan maps through: at the load-time guard, at each checked_grid_plan
    # call, and at each grid start the dispatcher hands a plan
    walked = []
    walk = classify.grid_ball
    monkeypatch.setattr(classify, "grid_ball", lambda g, v, lattice:
                        walked.append(v) or walk(g, v, lattice))
    load_plan.cache_clear()
    for name in ("hex_containment", "rect_containment"):
        load_plan(name)
    assert walked == [0, 8 * 17 + 8]
    cases = [(F.hex_patch(4), 0, "hex"), (F.hex_patch(2), 0, "hex"),
             (F.rect_grid(17, 17), 8 * 17 + 8, "rect"),
             (F.rect_grid(5, 5), 12, "rect")]
    walked.clear()
    for g, v, lattice in cases:
        try:
            checked_grid_plan(g, v, lattice)
        except NotApplicable:
            pass
    assert walked == [v for _, v, _ in cases]
    g = F.rect_grid(17, 17)
    plan_for = theorem_dispatch(
        classify.classify_triangle_free(g, mode="rules_only"))
    walked.clear()
    assert plan_for(g, 8 * 17 + 8)
    assert walked == [8 * 17 + 8]


def test_dispatch_checks_the_grid_plan_at_its_start():
    # a grid rule hands out the packaged plan only where it passes the
    # grid test and the replay there: the 5x5 grid is too small for it
    rep = classify.ClassificationReport(
        "trianglefree_thm5", "exact", {12: "X_4"},
        {12: {"rule": "rect_neighborhood"}})
    with pytest.raises(NotApplicable, match="rect_containment"):
        theorem_dispatch(rep)(F.rect_grid(5, 5), 12)


def test_lattice_probes_schedule_filter():
    g = F.rect_grid(17, 17)
    centre = 8 * 17 + 8
    probes = lattice_probes(classify.grid_ball(g, centre, "rect")[0], "rect")
    assert probes  # the rect plan maps here
    # the hex plan does not map around a degree-4 start
    with pytest.raises(WrongContext):
        classify.grid_ball(g, centre, "hex")
    assert lattice_probes(None, "hex") == []


def test_mapped_plan_drops_missing_offsets():
    # near the boundary some plan offsets leave the graph; the mapped plan
    # simply omits them
    g = F.rect_grid(9, 9)
    plan = load_plan("rect_containment")
    mapped = strategies._through(classify.grid_ball(g, 4 * 9 + 4, "rect")[0],
                                 plan)
    assert mapped is not None
    total_cells = sum(len(r) for r in plan["rounds"])
    assert sum(len(r) for r in mapped) <= total_cells


# burn cap of each context's X starts (girth 5: the X_3 contract)
CAPS = {"girth5_thm2": 2, "planar_thm3": 6, "trianglefree_thm5": 18}


def dispatched_local_rules(cases):
    # each X start's plan is read from its evidence: degree_le_* protects
    # the whole neighbourhood, a spare plan leaves the evidence's vertex
    # unprotected in round 1, and every replay keeps its context's cap
    rules = set()
    for g, classify_fn in cases:
        rep = classify_fn(g)
        plan_for = theorem_dispatch(rep)
        for v in rep.x_vertices():
            ev, plan = rep.evidence[v], plan_for(g, v)
            rules.add(ev["rule"])
            if ev["rule"].startswith("degree_le_"):
                assert plan == [sorted(g.adjacency[v])]
            else:
                spared = ev.get("witness", ev)["vertex"]
                assert spared in g.adjacency[v] and spared not in plan[0]
            t = replay(g, v, classify.SCHEDULES[rep.context], plan)
            assert t.burned_count <= CAPS[rep.context], (rep.context, v)
    return rules


def test_degree_local_strategies():
    rules = dispatched_local_rules([
        (F.path(5), classify.classify_girth5),
        (F.platonic("dodecahedron"), classify.classify_girth5),
        (F.platonic("icosahedron"), classify.classify_planar)])
    assert rules == {"degree_le_2", "low_degree_neighbor",
                     "degree5_low_neighbor"}


def test_config_strategy_31():
    rules = dispatched_local_rules(
        [(F.platonic("cube"), classify.classify_triangle_free)])
    assert rules == {"config_3.1"}


def test_config_starts_are_feasible_at_cap_18():
    # the dispatcher's search plan exists at every config-matching start
    for seed in range(5):
        g = randgen.random_tf_maximal(16, seed)
        for v in range(g.n):
            if g.degree(v) == 3 and list(classify.detect_local_configs(g, v)):
                res = min_burned_containment(g, v, Schedule.constant(2),
                                             burn_cap=18)
                assert res.status == "feasible", (seed, v)


def test_dispatch_rejects_a_rule_without_a_plan():
    rep = classify.ClassificationReport(
        "trianglefree_thm5", "exact", {0: "X_3"}, {0: {"rule": "bogus"}})
    with pytest.raises(NotApplicable, match="bogus"):
        theorem_dispatch(rep)(F.platonic("cube"), 0)


def test_dispatch_does_not_match_configurations_again(monkeypatch):
    g = randgen.random_tf_maximal(60, 3)
    rep = classify.classify_triangle_free(g)
    calls = []
    configs = classify.detect_local_configs
    monkeypatch.setattr(classify, "detect_local_configs",
                        lambda g, v: calls.append(v) or configs(g, v))
    plan_for = theorem_dispatch(rep)
    for v in rep.x_vertices():
        plan_for(g, v)
    assert calls == []


def test_dispatch_contracts_girth5():
    g = F.platonic("dodecahedron")
    rep = classify.classify_girth5(g)
    plan_for = theorem_dispatch(rep)
    for v in range(g.n):
        t = replay(g, v, Schedule.constant(2), plan_for(g, v))
        assert t.burned_count <= 2  # X_3 contract: at most 2 burned


def test_dispatch_contracts_planar():
    for seed in range(3):
        g = randgen.random_triangulation(18, seed)
        rep = classify.classify_planar(g)
        plan_for = theorem_dispatch(rep)
        for v in rep.x_vertices():
            t = replay(g, v, Schedule(4, 3), plan_for(g, v))
            assert t.burned_count <= 6, (seed, v)


def test_dispatch_contracts_tf():
    for seed in range(3):
        g = randgen.random_tf_maximal(18, seed)
        rep = classify.classify_triangle_free(g)
        plan_for = theorem_dispatch(rep)
        for v in rep.x_vertices():
            t = replay(g, v, Schedule.constant(2), plan_for(g, v))
            assert t.burned_count <= 18, (seed, v)


def test_strategies_never_beat_exact():
    g = F.platonic("icosahedron")
    rep = classify.classify_planar(g)
    plan_for = theorem_dispatch(rep)
    sched = Schedule(4, 3)
    for v in range(g.n):
        t = replay(g, v, sched, plan_for(g, v))
        assert t.saved <= sn_exact(g, v, sched).value


def test_containment_agrees_with_strategy_on_hex():
    g = F.hex_patch(4)
    res = min_burned_containment(
        g, 0, Schedule(4, 3), burn_cap=6,
        probes=lattice_probes(classify.grid_ball(g, 0, "hex")[0], "hex"))
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
        plan_for = theorem_dispatch(rep)
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
    plan_for = theorem_dispatch(rep)
    for v in (0, 4):
        assert rep.labels[v] == "X_1"
        assert replay(g, v, Schedule.constant(2), plan_for(g, v)).saved == 4
    # every start of a triangle is X_2 under the planar schedule
    rep = classify.classify_planar(F.cycle(3))
    plan_for = theorem_dispatch(rep)
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
    plan_for = theorem_dispatch(rep)
    sched = classify.SCHEDULES[context]
    for v in middle:
        assert classify.grid_neighborhood_test(g, v, lattice) == \
            (False, None, None)
        assert rep.side(v) == "X" and rep.evidence[v]["rule"] == "exact"
        trace = replay(g, v, sched, plan_for(g, v))
        assert trace.to_json() == rep.evidence[v]["trace"]
        assert trace.burned_count <= cap
    if context == "planar_thm3":
        assert rates.certify_bound(g, "thm3_planar").passed
