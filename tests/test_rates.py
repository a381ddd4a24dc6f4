from fractions import Fraction

import pytest

from firecontain import classify, families as F, randgen, rates
from firecontain.engine import Schedule, sn_exact
from firecontain.errors import (
    BadParameter,
    ContainsTriangle,
    GirthTooSmall,
    HypothesisViolated,
    NotTriangulation,
    NotTwoConnected,
)
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


@pytest.mark.parametrize("w, h, k, rate", [
    (5, 5, 1, Fraction(378, 625)),
    (5, 5, 2, Fraction(553, 625)),
    (6, 6, 1, Fraction(11, 18)),
    (6, 6, 2, Fraction(293, 324)),
])
def test_exact_square_grid_rates(w, h, k, rate):
    # Only the pruned search (threshold passed down, children bounded one
    # round ahead) finishes rect_grid(6,6) at k = 1 in test time; the
    # search before it gave the same 5x5 values, which cross-checks it.
    rep = surviving_rate_exact(F.rect_grid(w, h), Schedule.constant(k))
    assert rep.mode == "exact" and not rep.partial
    assert rep.rate == rate


def test_orbit_solves_of_rect_grid_4_5_stay_small(monkeypatch):
    # the six orbit solves took 33 104 nodes before the search was pruned
    # by thresholds and one-round lookahead, and 128 after
    nodes = []

    def counting(g, v, schedule, node_limit):
        res = sn_exact(g, v, schedule, node_limit=node_limit)
        nodes.append(res.nodes)
        return res

    monkeypatch.setattr(rates, "sn_exact", counting)
    rep = surviving_rate_exact(F.rect_grid(4, 5), Schedule.constant(1))
    assert not rep.partial and rep.rate == Fraction(121, 200)
    assert len(nodes) == 6 and sum(nodes) < 1000


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


def test_certify_thm3_carried_by_classification():
    # past n = 10 848 the trivial bound first/n is below the threshold, so
    # the certificate rests on the classification, which decides every start
    g = randgen.random_triangulation(11000, 1)
    cert = certify_bound(g, "thm3_planar")
    assert trivial_rate_lower_bound(g, Schedule(4, 3)) < cert.threshold
    assert cert.passed
    assert cert.rate == Fraction(95270481, 121000000)
    assert cert.notes["classification_rate"] == "95270481/121000000"
    rep = classify.classify_planar(g)
    assert all(ev["rule"] != "exact_unknown" for ev in rep.evidence.values())


def test_certify_thm5():
    for g in (F.platonic("cube"), F.rect_grid(5, 5),
              randgen.random_tf_maximal(20, 0)):
        cert = certify_bound(g, "thm5_trianglefree")
        assert cert.passed
    with pytest.raises(HypothesisViolated):
        certify_bound(F.platonic("octahedron"), "thm5_trianglefree")


def test_hypothesis_errors_name_the_hypothesis():
    with pytest.raises(GirthTooSmall, match="girth 4 < 5"):
        certify_bound(F.platonic("cube"), "thm2_girth5")
    with pytest.raises(ContainsTriangle):
        certify_bound(F.platonic("octahedron"), "thm5_trianglefree")
    for cls in (GirthTooSmall, ContainsTriangle, NotTriangulation,
                NotTwoConnected):
        assert issubclass(cls, HypothesisViolated)


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
    with pytest.raises(BadParameter):
        certify_bound(F.path(3), "thm9")


def test_rates_csv_and_json():
    import json
    rep = surviving_rate_exact(F.path(3), Schedule.constant(1))
    obj = json.loads(json.dumps(rep.to_json(), sort_keys=True))
    assert obj["rate"] == "5/9"


def test_certify_k2n_upper_partial_is_not_exact():
    cert = certify_bound(F.complete_bipartite_2_m(4), "k2n_upper",
                         node_limit=1)
    assert cert.mode == "strategy_lower_bound"
    assert not cert.passed
