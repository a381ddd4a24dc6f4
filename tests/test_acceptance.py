"""End-to-end acceptance criteria for the whole package.

Each test is one acceptance criterion; together they cover the shipped
containment strategies, charge conservation, claim audits, solver/oracle
equivalence, the certified rate bounds, and the strategy contracts.
"""
import time
from fractions import Fraction

from conftest import random_connected_graph  # noqa: F401  (fixture module)
from oracles import sn_reference

from firecontain import classify, families as F, randgen, rates, strategies
from firecontain.augment import augment_maximal_planar
from firecontain.discharge import (
    audit_planar,
    audit_tf,
    init_planar_charges,
    init_tf_charges,
    transfer_planar,
    transfer_tf,
)
from firecontain.engine import (
    Schedule,
    min_burned_containment,
    plan_strategy,
    run_simulation,
    sn_exact,
)

CLASS_BURN_CAP = {
    "girth5_thm2": 2,
    "planar_thm3": 6,
    "trianglefree_thm5": 18,
}


def test_criterion_1_hex_strategy_and_oracle():
    t0 = time.monotonic()
    g = F.hex_patch(4)
    sched = Schedule(4, 3)
    trace = run_simulation(g, 0, sched, plan_strategy(
        strategies.checked_grid_plan(g, 0, "hex")))
    assert trace.burned_count <= 6
    res = min_burned_containment(
        g, 0, sched, burn_cap=6,
        probes=strategies.lattice_probes(
            classify.grid_ball(g, 0, "hex")[0], "hex"))
    assert res.feasible and res.proven
    assert res.trace.burned_count <= 6
    assert time.monotonic() - t0 <= 60


def test_criterion_2_rect_strategy():
    t0 = time.monotonic()
    g = F.rect_grid(17, 17)
    centre = 8 * 17 + 8
    trace = run_simulation(g, centre, Schedule.constant(2), plan_strategy(
        strategies.checked_grid_plan(g, centre, "rect")))
    assert trace.burned_count <= 18
    assert len(trace.rounds) <= 8
    assert time.monotonic() - t0 <= 5


def test_criterion_3_charge_conservation():
    planar_suite = [F.platonic("tetrahedron"), F.platonic("octahedron"),
                    F.platonic("icosahedron")]
    planar_suite += [augment_maximal_planar(F.hex_patch(r))
                     for r in range(2, 6)]
    rng_sizes = [(seed, 5 + seed % 36) for seed in range(100)]
    planar_suite += [randgen.random_triangulation(max(4, n), seed)
                     for seed, n in rng_sizes]
    for g in planar_suite:
        rep = classify.classify_planar(g)
        led = transfer_planar(g, init_planar_charges(g), rep)
        assert led.total() == -12

    tf_suite = [F.cycle(4), F.platonic("cube"),
                F.rect_grid(5, 5), F.rect_grid(7, 7), F.rect_grid(9, 9)]
    tf_suite += [randgen.random_tf_maximal(max(4, n), seed)
                 for seed, n in rng_sizes]
    for g in tf_suite:
        rep = classify.classify_triangle_free(g)
        led = transfer_tf(g, init_tf_charges(g), rep)
        assert led.total() == -8


def test_criterion_4_audits_clean():
    for seed in range(20):
        g = randgen.random_triangulation(8 + seed, seed)
        rep = classify.classify_planar(g)
        audit = audit_planar(g, transfer_planar(
            g, init_planar_charges(g), rep), rep)
        assert audit.ok, (seed, audit.bound_violations)
        for claim in classify.verify_structural_claims(g, rep):
            assert claim.passed, (seed, claim)
    for seed in range(20):
        g = randgen.random_tf_maximal(10 + seed, seed)
        rep = classify.classify_triangle_free(g)
        audit = audit_tf(g, transfer_tf(g, init_tf_charges(g), rep), rep)
        assert audit.ok, (seed, audit.bound_violations)
        for claim in classify.verify_structural_claims(g, rep):
            assert claim.passed, (seed, claim)


def test_criterion_5_solver_matches_oracle(small_corpus):
    t0 = time.monotonic()
    assert len(small_corpus) >= 100
    for g in small_corpus:
        for k in (1, 2):
            sched = Schedule.constant(k)
            for start in range(g.n):
                res = sn_exact(g, start, sched)
                assert res.optimal
                assert res.value == sn_reference(g, start, sched), \
                    (g.rotations, k, start)
    assert time.monotonic() - t0 <= 600


def test_criterion_6_girth5_pipeline():
    instances = [F.platonic("dodecahedron"), F.cycle(5), F.path(5)]
    instances += [randgen.random_girth5_planar(200, seed)
                  for seed in range(50)]
    for g in instances:
        if g.n < 3:
            continue
        rep = classify.classify_girth5(g)
        counts = rep.counts()
        y3 = counts.get("Y_3", 0)
        y4 = counts.get("Y_4", 0)
        x = counts.get("X_2", 0) + counts.get("X_3", 0)
        assert y3 <= y4
        assert y3 + y4 <= 20 * x
        lb = rates.surviving_rate_lower_bound(g, rep)
        assert lb.rate >= Fraction(g.n - 2, 21 * g.n)
        cert = rates.certify_bound(g, "thm2_girth5")
        assert cert.passed, g.rotations


def test_criterion_7_point_values():
    k1 = Schedule.constant(1)
    for n in range(2, 11):
        g = F.star(n)
        assert sn_exact(g, 0, k1).value == 1
        assert sn_exact(g, 1, k1).value == n - 1
    k2 = Schedule.constant(2)
    for n in range(2, 51):
        rep = rates.surviving_rate_exact(F.star(n), k2)
        assert not rep.partial
        assert rep.rate >= Fraction(1, 2), n
    for m in range(2, 9):
        cert = rates.certify_bound(F.complete_bipartite_2_m(m), "k2n_upper")
        assert cert.passed
        assert cert.rate <= Fraction(2, m + 2)


def test_criterion_8_strategy_contracts():
    cases = [
        ("girth5_thm2", classify.classify_girth5, Schedule.constant(2),
         [F.platonic("dodecahedron")]
         + [randgen.random_girth5_planar(60, s) for s in range(10)]),
        ("planar_thm3", classify.classify_planar, Schedule(4, 3),
         [F.platonic("icosahedron")]
         + [randgen.random_triangulation(20, s) for s in range(10)]),
        ("trianglefree_thm5", classify.classify_triangle_free,
         Schedule.constant(2),
         [F.platonic("cube"), F.rect_grid(6, 6)]
         + [randgen.random_tf_maximal(20, s) for s in range(10)]),
    ]
    for context, classifier, sched, graphs in cases:
        for g in graphs:
            if g.n < 2:
                continue
            rep = classifier(g)
            plan_for = strategies.theorem_dispatch(rep)
            for v in rep.x_vertices():
                # girth-5 X_2 starts burn alone (save n-1); X_3 starts burn
                # at most one extra (save n-2); the other contexts promise
                # n-6 and n-18
                cap = CLASS_BURN_CAP[context]
                if context == "girth5_thm2":
                    cap = 1 if rep.labels[v] == "X_2" else 2
                trace = run_simulation(g, v, sched,
                                       plan_strategy(plan_for(g, v)))
                assert trace.burned_count <= cap, (context, v)
                assert trace.saved >= g.n - cap


def test_criterion_9_tf_claims_on_maximal_instances():
    for seed in range(12):
        n = 19 + seed % 12
        g = randgen.random_tf_maximal(n, seed)
        rep = classify.classify_triangle_free(g)
        assert all(ev.get("rule") != "exact_unknown"
                   for ev in rep.evidence.values())
        for claim in classify.verify_structural_claims(g, rep):
            assert claim.passed, (seed, claim.claim, claim.counterexamples)
