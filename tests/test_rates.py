from fractions import Fraction

import pytest

from firecontain import classify, families as F, randgen, rates
from firecontain.engine import Schedule
from firecontain.errors import HypothesisViolated
from firecontain.rates import (
    certify_bound,
    surviving_rate_exact,
    surviving_rate_lower_bound,
    trivial_rate_lower_bound,
)


def test_exact_rate_point_values():
    # single path edge, one firefighter: each start saves one vertex
    rep = surviving_rate_exact(F.path(2), Schedule.constant(1))
    assert rep.rate == Fraction(1, 2)
    # 4-vertex star, two firefighters
    rep = surviving_rate_exact(F.star(4), Schedule.constant(2))
    assert rep.rate == Fraction(11, 16)
    assert rep.mode == "exact" and not rep.partial


def test_exact_rate_k23():
    # hubs save 2 of 5, leaves save 2 of 5: rate 10/25 = 2/n
    g = F.complete_bipartite_2_m(3)
    rep = surviving_rate_exact(g, Schedule.constant(1))
    assert rep.rate == Fraction(2, 5)
    assert rep.saved == {0: 2, 1: 2, 2: 2, 3: 2, 4: 2}


def test_star_rate_two_firefighters():
    # centre start saves two leaves; a leaf start saves everything but
    # itself by protecting the centre, so the rate stays >= 1/2
    for n in (2, 5, 10, 16):
        rep = surviving_rate_exact(F.star(n), Schedule.constant(2))
        assert rep.rate >= Fraction(1, 2)
        if n >= 4:
            assert rep.rate == Fraction(2 + (n - 1) ** 2, n * n)


def test_trivial_lower_bound():
    g = F.cycle(10)
    assert trivial_rate_lower_bound(g, Schedule.constant(2)) == \
        Fraction(10 * 2, 100)
    assert trivial_rate_lower_bound(F.path(2), Schedule(4, 3)) == \
        Fraction(2 * 1, 4)


def test_classification_lower_bound_girth5():
    g = F.platonic("dodecahedron")
    rep = classify.classify_girth5(g)
    lb = surviving_rate_lower_bound(g, Schedule.constant(2), rep)
    # every X_3 start burns at most 2 vertices: rate >= 18/20 = 9/10
    assert lb.rate == Fraction(9, 10)


def test_classification_bound_never_exceeds_exact():
    for seed in range(4):
        g = randgen.random_girth5_planar(12, seed)
        if g.n < 2:
            continue
        rep = classify.classify_girth5(g)
        lb = surviving_rate_lower_bound(g, Schedule.constant(2), rep)
        ex = surviving_rate_exact(g, Schedule.constant(2))
        assert lb.rate <= ex.rate


def test_certify_thm2():
    for g in (F.platonic("dodecahedron"), F.cycle(5), F.path(5)):
        cert = certify_bound(g, "thm2_girth5")
        assert cert.passed
        assert cert.rate >= rates.THRESHOLDS["thm2_girth5"]
        assert cert.direction == "lower"
    cert = certify_bound(F.platonic("dodecahedron"), "thm2_girth5")
    assert cert.rate == Fraction(9, 10)
    with pytest.raises(HypothesisViolated):
        certify_bound(F.platonic("cube"), "thm2_girth5")


def test_certify_thm2_formula_bound():
    # classification rate on girth-5 instances is at least (n-2)/(21n)
    for seed in range(6):
        g = randgen.random_girth5_planar(80, seed)
        if g.n < 3:
            continue
        rep = classify.classify_girth5(g)
        lb = surviving_rate_lower_bound(g, Schedule.constant(2), rep)
        assert lb.rate >= Fraction(g.n - 2, 21 * g.n)


def test_certify_thm3():
    cert = certify_bound(F.platonic("icosahedron"), "thm3_planar")
    assert cert.passed
    assert cert.rate == Fraction(5, 6)
    for seed in range(3):
        g = randgen.random_triangulation(20, seed)
        assert certify_bound(g, "thm3_planar").passed


def test_certify_thm5():
    for g in (F.platonic("cube"), F.rect_grid(5, 5),
              randgen.random_tf_maximal(20, 0)):
        cert = certify_bound(g, "thm5_trianglefree")
        assert cert.passed
    with pytest.raises(HypothesisViolated):
        certify_bound(F.platonic("octahedron"), "thm5_trianglefree")


def test_certify_k2n_upper():
    for m in range(2, 7):
        g = F.complete_bipartite_2_m(m)
        cert = certify_bound(g, "k2n_upper")
        assert cert.passed
        assert cert.direction == "upper"
        assert cert.rate <= Fraction(2, g.n)
    with pytest.raises(HypothesisViolated):
        certify_bound(F.path(5), "k2n_upper")


def test_certify_unknown_theorem():
    with pytest.raises(HypothesisViolated):
        certify_bound(F.path(3), "thm9")


def test_rates_csv_and_json():
    certs = [certify_bound(F.cycle(5), "thm2_girth5", instance="cycle:5")]
    csv = rates.rates_csv(certs)
    lines = csv.strip().split("\n")
    assert lines[0].startswith("instance,")
    assert lines[1].startswith("cycle:5,5,")
    assert lines[1].endswith(",pass")
    import json
    rep = surviving_rate_exact(F.path(3), Schedule.constant(1))
    obj = json.loads(rates.rate_report_json_str(rep))
    assert obj["rate"] == "5/9"


def test_certify_k2n_upper_partial_is_not_exact():
    cert = certify_bound(F.complete_bipartite_2_m(4), "k2n_upper",
                         node_limit=1)
    assert cert.mode == "strategy_lower_bound"
    assert not cert.passed
