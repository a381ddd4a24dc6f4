from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from firecontain import classify, discharge, families as F, randgen
from firecontain.augment import augment_maximal_planar, insert_vertex_in_face
from firecontain.classify import ClassificationReport
from firecontain.embedding import build
from firecontain.discharge import (
    PLANAR_ALPHA,
    TF_ALPHA,
    TF_BETA,
    ChargeLedger,
    TransferRecord,
    audit_planar,
    audit_tf,
    init_planar_charges,
    init_tf_charges,
    replay_transfers,
    transfer_planar,
    transfer_tf,
)
from firecontain.errors import (
    ContainsTriangle,
    HypothesisViolated,
    NoEscapePath,
    NotTriangulation,
    NotTwoConnected,
    RequiresExactClassification,
)


def _fabricate(context, g, overrides):
    """All-X degree labels except the given overrides."""
    labels = {v: f"X_{g.degree(v)}" for v in range(g.n)}
    labels.update(overrides)
    return ClassificationReport(context, "exact", labels,
                                {v: {} for v in range(g.n)})


def _pentagon_wheel():
    """Degree-5 hub attached to alternating vertices of an 11-cycle: four
    quadrilateral faces plus one pentagon at the hub."""
    g = F.cycle(11)
    return insert_vertex_in_face(g, g.faces()[0], [0, 2, 4, 6, 8])


# -- initial charges --------------------------------------------------------

def test_planar_charges_point_values():
    g = F.platonic("tetrahedron")
    led = init_planar_charges(g)
    assert all(c == -3 for c in led.vertex_charge.values())
    assert led.total() == -12
    led = init_planar_charges(F.platonic("octahedron"))
    assert all(c == -2 for c in led.vertex_charge.values())
    led = init_planar_charges(F.platonic("icosahedron"))
    assert all(c == -1 for c in led.vertex_charge.values())


def test_planar_charges_require_triangulation():
    with pytest.raises(NotTriangulation):
        init_planar_charges(F.platonic("cube"))


def test_tf_charges_point_values():
    led = init_tf_charges(F.platonic("cube"))
    assert all(c == -1 for c in led.vertex_charge.values())
    assert all(c == 0 for c in led.face_charge.values())
    assert led.total() == -8

    led = init_tf_charges(F.cycle(4))
    assert all(c == -2 for c in led.vertex_charge.values())
    assert led.total() == -8

    g = F.rect_grid(3, 3)
    led = init_tf_charges(g)
    assert led.vertex_charge[0] == -2   # corner
    assert led.vertex_charge[1] == -1   # boundary middle
    assert led.vertex_charge[4] == 0    # centre
    outer = max(f.degree for f in g.faces())
    assert outer == 8
    assert sorted(led.face_charge.values()) == [0, 0, 0, 0, 4]
    assert led.total() == -8


def test_tf_charges_guards():
    with pytest.raises(ContainsTriangle):
        init_tf_charges(F.platonic("icosahedron"))
    with pytest.raises(NotTwoConnected):
        init_tf_charges(F.path(4))  # tree face repeats vertices


@pytest.mark.parametrize("rot", [[[]], [[1], [0]]], ids=["K1", "K2"])
def test_tiny_graphs_fail_the_hypotheses(rot):
    # K1's one face is an empty walk and K2's a 2-walk: neither is a
    # cycle, and neither is a triangle
    g = build(rot)
    (face,) = g.faces()
    assert face.degree == 2 * len(rot) - 2
    with pytest.raises(NotTwoConnected):
        init_tf_charges(g)
    with pytest.raises(NotTriangulation):
        init_planar_charges(g)


def test_k3_fails_the_planar_degree_hypothesis():
    # K3 is a triangulation, but the sigma argument needs minimum degree
    # 3: its charges of -4 used to reach the audit as x_bound violations
    g = F.cycle(3)
    with pytest.raises(HypothesisViolated) as err:
        init_planar_charges(g)
    assert type(err.value) is HypothesisViolated


def test_random_suites_conserve():
    for seed in range(10):
        g = randgen.random_triangulation(25, seed)
        assert init_planar_charges(g).total() == -12
        g = randgen.random_tf_maximal(25, seed)
        assert init_tf_charges(g).total() == -8


def test_initial_totals_and_their_text():
    # integral initial charges: the totals, and the text the audits print,
    # are those of the all-Fraction ledgers
    for seed in range(3):
        g = randgen.random_triangulation(25, seed)
        total = init_planar_charges(g).total()
        assert total == Fraction(-12) and str(total) == "-12"
        g = randgen.random_tf_maximal(25, seed)
        total = init_tf_charges(g).total()
        assert total == Fraction(-8) and str(total) == "-8"
    g = F.rect_grid(3, 3)
    led = init_tf_charges(g)
    assert [str(c) for c in led.vertex_charge.values()] == \
        [str(Fraction(g.degree(v) - 4)) for v in range(g.n)]


CHARGES = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-50, 50),
              st.sampled_from([1, 2, 3, 4, 6, 872, 360720])))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(CHARGES, max_size=12), st.lists(CHARGES, max_size=12))
# fractional parts that cancel to an integer, with ints mixed in
@example([Fraction(1, 3), Fraction(-5, 6), 3], [Fraction(1, 2), -1])
def test_total_is_the_exact_sum(vertex, face):
    led = ChargeLedger("trianglefree_nu", dict(enumerate(vertex)),
                       dict(enumerate(face)), TF_ALPHA, TF_BETA)
    total = led.total()
    assert total == sum(vertex + face, Fraction(0))
    assert type(total) is Fraction


# -- planar transfer rules --------------------------------------------------

def test_r1_arithmetic():
    g = randgen.random_triangulation(15, 2)
    hub = max(range(g.n), key=g.degree)
    assert g.degree(hub) >= 7
    nbr = sorted(g.adjacency[hub])[0]
    rep = _fabricate("planar_thm3", g, {nbr: "Y_5"})
    led = transfer_planar(g, init_planar_charges(g), rep)
    r1 = [t for t in led.transfers if t.rule == "R1"]
    donors = {t.donor[1] for t in r1}
    assert all(t.amount == Fraction(1, 4) for t in r1)
    assert all(t.recipient == ("vertex", nbr) for t in r1)
    # every degree >= 7 neighbour of nbr donates
    want = {u for u in g.adjacency[nbr] if g.degree(u) >= 7}
    assert donors == want
    assert led.vertex_charge[nbr] == \
        Fraction(g.degree(nbr) - 6) + Fraction(len(r1), 4)
    assert led.total() == -12


def test_r2_arithmetic_and_no_escape():
    g = augment_maximal_planar(F.hex_patch(2))
    centre = 0
    assert g.degree(centre) == 6
    rep = _fabricate("planar_thm3", g, {centre: "Y_6"})
    led = transfer_planar(g, init_planar_charges(g), rep)
    r2 = [t for t in led.transfers if t.rule == "R2"]
    assert len(r2) == 1
    t = r2[0]
    assert t.amount == PLANAR_ALPHA
    assert t.recipient == ("vertex", centre)
    assert t.witness["path"][0] == centre
    assert led.vertex_charge[centre] == 0 + PLANAR_ALPHA
    assert led.total() == -12

    pure = augment_maximal_planar(F.hex_patch(4))
    rep = _fabricate("planar_thm3", pure, {0: "Y_6"})
    with pytest.raises(NoEscapePath):
        transfer_planar(pure, init_planar_charges(pure), rep)


def test_transfer_requires_exact_report():
    g = F.platonic("icosahedron")
    rep = classify.classify_planar(g, mode="rules_only")
    # rules_only reports are accepted only when mode == "exact"
    rep.mode = "rules_only"
    with pytest.raises(RequiresExactClassification):
        transfer_planar(g, init_planar_charges(g), rep)


# -- triangle-free transfer rules -------------------------------------------

def test_s1_arithmetic():
    g = randgen.random_tf_maximal(20, 23)
    hub, partners = 5, [1, 6, 10]
    assert g.degree(hub) == 5
    rep = _fabricate("trianglefree_thm5", g,
                     {hub: "Y_5", **{u: "Y_3" for u in partners}})
    led = transfer_tf(g, init_tf_charges(g), rep)
    s1 = [t for t in led.transfers if t.rule == "S1"]
    assert {t.recipient[1] for t in s1} == set(partners)
    assert all(t.donor == ("vertex", hub) for t in s1)
    assert all(t.amount == Fraction(1, 3) - TF_BETA for t in s1)
    assert led.total() == -8
    assert replay_transfers(init_tf_charges(g), led)


def test_s3_s4_arithmetic():
    g = _pentagon_wheel()
    hub = g.n - 1
    assert g.degree(hub) == 5
    # a cycle vertex on both the pentagon and a quadrilateral at the hub
    v = next(u for u in g.adjacency[hub]
             if classify.five_adjacent(g, hub, u))
    assert g.degree(v) == 3
    rep = _fabricate("trianglefree_thm5", g, {v: "Y_3"})
    led = transfer_tf(g, init_tf_charges(g), rep)
    s3 = [t for t in led.transfers if t.rule == "S3"]
    s4 = [t for t in led.transfers if t.rule == "S4"]
    assert [t.donor for t in s3] == [("vertex", hub)]
    assert s3[0].amount == Fraction(1, 10) - TF_BETA
    # v touches the pentagon and the outer face
    assert len(s4) == 2
    assert all(t.amount == Fraction(1, 2) - TF_BETA for t in s4)
    assert all(t.donor[0] == "face" for t in s4)
    assert led.total() == -8


def test_s5_arithmetic_and_no_escape():
    g = F.rect_grid(9, 9)
    centre = 4 * 9 + 4
    rep = _fabricate("trianglefree_thm5", g, {centre: "Y_4"})
    led = transfer_tf(g, init_tf_charges(g), rep)
    s5 = [t for t in led.transfers if t.rule == "S5"]
    assert len(s5) == 1
    assert s5[0].amount == TF_ALPHA
    assert s5[0].recipient == ("vertex", centre)
    assert led.vertex_charge[centre] == 0 + TF_ALPHA
    assert led.total() == -8

    big = F.rect_grid(17, 17)
    rep = _fabricate("trianglefree_thm5", big, {8 * 17 + 8: "Y_4"})
    with pytest.raises(NoEscapePath):
        transfer_tf(big, init_tf_charges(big), rep)


def test_configurable_alpha_beta():
    g = F.rect_grid(9, 9)
    centre = 4 * 9 + 4
    alpha = Fraction(1, 100)
    beta = Fraction(1, 50)
    rep = _fabricate("trianglefree_thm5", g, {centre: "Y_4"})
    led = transfer_tf(g, init_tf_charges(g, alpha, beta), rep)
    s5 = [t for t in led.transfers if t.rule == "S5"]
    assert s5[0].amount == alpha

    g = augment_maximal_planar(F.hex_patch(2))
    rep = _fabricate("planar_thm3", g, {0: "Y_6"})
    led = transfer_planar(g, init_planar_charges(g, alpha), rep)
    r2 = [t for t in led.transfers if t.rule == "R2"]
    assert r2[0].amount == alpha


def test_replay_transfers_detects_tampering():
    g = randgen.random_triangulation(15, 2)
    rep = classify.classify_planar(g)
    init = init_planar_charges(g)
    led = transfer_planar(g, init, rep)
    assert replay_transfers(init, led)
    from dataclasses import replace
    vc = dict(led.vertex_charge)
    vc[0] += 1
    tampered = replace(led, vertex_charge=vc)
    assert not replay_transfers(init, tampered)


# -- audits -----------------------------------------------------------------

def test_audit_planar_random():
    for seed in range(8):
        g = randgen.random_triangulation(22, seed)
        rep = classify.classify_planar(g)
        led = transfer_planar(g, init_planar_charges(g), rep)
        audit = audit_planar(g, led, rep)
        assert audit.conservation_residual == 0
        assert audit.bound_violations == []
        assert audit.counting_ok and audit.crude_counts_ok
        assert audit.ok
        assert audit.counting_factor == 93 + 3 / PLANAR_ALPHA == 2709


def test_audit_tf_random():
    for seed in range(8):
        g = randgen.random_tf_maximal(22, seed)
        rep = classify.classify_triangle_free(g)
        led = transfer_tf(g, init_tf_charges(g), rep)
        audit = audit_tf(g, led, rep)
        assert audit.conservation_residual == 0
        assert audit.bound_violations == []
        assert audit.counting_ok and audit.crude_counts_ok
        assert audit.ok
        assert audit.counting_factor == (2 + TF_BETA) / TF_ALPHA == 723626


# charges about the bounds: ints, and fractions over the bounds' denominators
NEAR_BOUNDS = st.one_of(
    st.integers(-5, 2),
    st.builds(Fraction, st.integers(-5 * 360720, 2 * 360720),
              st.sampled_from([1, 3, 360720])))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.booleans(), NEAR_BOUNDS), min_size=8,
                max_size=8),
       st.sampled_from([TF_ALPHA, Fraction(1, 2), Fraction(1)]),
       st.sampled_from([TF_BETA, Fraction(0), Fraction(1, 3), Fraction(1)]))
def test_audit_bounds_match_exact_comparisons(rows, alpha, beta):
    g = F.platonic("cube")
    rep = _fabricate("trianglefree_thm5", g,
                     {v: "Y_3" for v, (x, _) in enumerate(rows) if not x})
    led = ChargeLedger("trianglefree_nu",
                       {v: c for v, (_, c) in enumerate(rows)}, {},
                       alpha, beta)
    audit = audit_tf(g, led, rep)
    x_bound = -2 - beta
    assert audit.bound_violations == [
        ("vertex", v, "x_bound" if x else "y_bound", c)
        for v, (x, c) in enumerate(rows)
        if (Fraction(c) < x_bound if x else Fraction(c) < alpha)]
    assert audit.strict_x_bound == all(
        Fraction(c) != x_bound for x, c in rows
        if x and not Fraction(c) < x_bound)


def test_audit_detects_bound_violation():
    g = F.platonic("icosahedron")
    # mislabelling every vertex Y makes the constant -1 charge violate the
    # Y-side lower bound alpha
    rep = _fabricate("planar_thm3", g, {v: "Y_5" for v in range(g.n)})
    led = init_planar_charges(g)
    audit = audit_planar(g, led, rep)
    assert audit.bound_violations
    assert not audit.ok


def test_audit_tf_x_vertex_on_the_bound_is_not_strict():
    g = F.platonic("cube")
    rep = classify.classify_triangle_free(g)
    assert rep.side(0) == "X"
    led = init_tf_charges(g)
    assert audit_tf(g, led, rep).strict_x_bound
    # vertex 0 (charge -1) gives 1 + beta and sits at exactly -2 - beta
    led = led.with_transfers([TransferRecord(
        "S1", ("vertex", 0), ("face", 0), 1 + TF_BETA)])
    assert led.vertex_charge[0] == -2 - TF_BETA
    audit = audit_tf(g, led, rep)
    assert audit.bound_violations == []
    assert audit.strict_x_bound is False
    assert audit.to_json()["strict_x_bound"] is False


def test_audit_planar_x_vertex_on_the_bound_is_not_strict():
    g = F.platonic("icosahedron")
    rep = classify.classify_planar(g)
    assert rep.side(0) == "X" and rep.side(1) == "X"
    led = init_planar_charges(g)
    assert audit_planar(g, led, rep).strict_x_bound
    # vertex 0 (charge -1) gives 2 + 93 alpha and sits at exactly
    # -3 - 93 alpha
    led = led.with_transfers([TransferRecord(
        "R1", ("vertex", 0), ("vertex", 1), 2 + 93 * PLANAR_ALPHA)])
    assert led.vertex_charge[0] == -3 - 93 * PLANAR_ALPHA
    audit = audit_planar(g, led, rep)
    assert audit.bound_violations == []
    assert audit.strict_x_bound is False
    assert audit.ok


def test_audit_planar_y5_neighbor_cap():
    g = randgen.random_triangulation(30, 1)
    v = max(range(g.n), key=g.degree)
    d = g.degree(v)
    assert d >= 7
    nbrs = sorted(g.adjacency[v])
    led = init_planar_charges(g)
    # floor(d/2) Y_5 neighbours are allowed, one more is not
    for many, bad in ((d // 2, False), (d // 2 + 1, True)):
        rep = _fabricate("planar_thm3", g,
                         {u: "Y_5" for u in nbrs[:many]})
        caps = [t for t in audit_planar(g, led, rep).bound_violations
                if t[2] == "y5_neighbor_cap"]
        assert caps == ([("vertex", v, "y5_neighbor_cap", many)]
                        if bad else [])


def test_audit_tf_negative_face_charge():
    g = F.platonic("cube")
    rep = classify.classify_triangle_free(g)
    led = init_tf_charges(g)
    assert led.face_charge[0] == 0
    led = led.with_transfers([TransferRecord(
        "S4", ("face", 0), ("vertex", 0), Fraction(1, 2))])
    audit = audit_tf(g, led, rep)
    assert audit.conservation_residual == 0
    assert audit.bound_violations == [
        ("face", 0, "face_bound", Fraction(-1, 2))]
    assert not audit.ok
    assert audit.to_json()["bound_violations"] == [
        ["face", "0", "face_bound", "-1/2"]]


def test_audit_json():
    import json
    g = randgen.random_tf_maximal(16, 1)
    rep = classify.classify_triangle_free(g)
    led = transfer_tf(g, init_tf_charges(g), rep)
    audit = audit_tf(g, led, rep)
    obj = json.loads(json.dumps(audit.to_json(led.transfers), sort_keys=True))
    assert obj["ok"] is True
    assert obj["conservation_residual"] == "0/1"
    assert obj["counting_factor"] == "723626/1"
