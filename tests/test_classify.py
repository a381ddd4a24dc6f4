import pytest

from firecontain import classify, families as F, randgen
from firecontain.augment import augment_maximal_planar
from firecontain.classify import (
    ClassificationReport,
    _opposite_partners,
    classify_girth5,
    classify_planar,
    classify_triangle_free,
    contiguous_elements,
    detect_local_configs,
    five_adjacent,
    four_adjacent,
    grid_neighborhood_test,
    special_sets,
    verify_structural_claims,
)
from firecontain.errors import (
    ContainsTriangle,
    GirthTooSmall,
    NotTriangulation,
    RequiresExactClassification,
    WrongContext,
)


# -- adjacency flavours -----------------------------------------------------

def test_cube_edges_are_four_adjacent():
    g = F.platonic("cube")
    for u, v in g.edges():
        assert four_adjacent(g, u, v) and not five_adjacent(g, u, v)


def test_k24_leaves_are_four_opposite():
    g = F.complete_bipartite_2_m(4)
    # consecutive leaves share a quadrilateral whose other corners are the
    # degree-4 hubs
    assert 3 in [u for u, _ in _opposite_partners(g, 2)]
    # the hubs are opposite across degree-2 leaves only: no flavour
    assert _opposite_partners(g, 0) == []
    assert not four_adjacent(g, 0, 1) and not five_adjacent(g, 0, 1)


def test_five_adjacent():
    # a 4-face glued to a larger face along an edge
    g = F.rect_grid(3, 2)
    # boundary edges of the grid lie on one 4-face and the outer face
    assert five_adjacent(g, 0, 1)


def test_contiguous_elements_cube():
    g = F.platonic("cube")
    els = contiguous_elements(g, 0)
    faces = [e for e in els if e.kind == "face"]
    verts = [e for e in els if e.kind == "vertex"]
    assert len(faces) == 3 and all(e.degree == 4 for e in faces)
    # the three neighbours are 4-adjacent; no 4-opposite partners (the
    # diagonal corners of each face have degree 3, not 4)
    assert sorted(e.id for e in verts) == sorted(g.adjacency[0])


def test_contiguous_elements_deduplicates():
    g = F.complete_bipartite_2_m(4)
    els = contiguous_elements(g, 2)
    ids = [(e.kind, e.id) for e in els]
    assert len(ids) == len(set(ids))


# -- degree-3 configurations ------------------------------------------------

def test_config_wrong_degree():
    g = F.rect_grid(3, 3)
    with pytest.raises(WrongContext):
        list(detect_local_configs(g, 4))  # centre has degree 4


def test_config_31_cube():
    g = F.platonic("cube")
    matches = detect_local_configs(g, 0)
    assert any(m.config == "3.1" for m in matches)


def test_config_33_k24():
    # a degree-3 leaf 4-opposite to a low-degree vertex
    g = randgen.random_tf_maximal(10, 3)
    found = False
    for v in range(g.n):
        if g.degree(v) != 3:
            continue
        for m in detect_local_configs(g, v):
            if m.config == "3.3":
                u = m.witness["vertex"]
                assert g.degree(u) <= 4
                assert not g.has_edge(u, v)
                found = True
    assert found


def test_config_32_witness_consistency():
    for seed in range(10):
        g = randgen.random_tf_maximal(16, seed)
        for v in range(g.n):
            if g.degree(v) != 3:
                continue
            for m in detect_local_configs(g, v):
                if m.config == "3.2":
                    u, w = m.witness["vertex"], m.witness["low"]
                    assert g.degree(u) == 4 and g.has_edge(v, u)
                    assert g.degree(w) <= 3 and g.has_edge(u, w)


# -- grid neighbourhood tests -----------------------------------------------

def test_hex_grid_test():
    g = F.hex_patch(4)
    ok, esc, _ = grid_neighborhood_test(g, 0, "hex")
    assert ok and esc is None
    g2 = F.hex_patch(2)
    ok, esc, _ = grid_neighborhood_test(g2, 0, "hex")
    assert not ok
    assert esc.length <= 3
    assert esc.path[0] == 0
    assert g2.degree(esc.path[-1]) != 6
    assert all(g2.degree(u) == 6 for u in esc.path[1:-1])


def test_rect_grid_test():
    g = F.rect_grid(17, 17)
    centre = 8 * 17 + 8
    ok, esc, _ = grid_neighborhood_test(g, centre, "rect")
    assert ok and esc is None
    g2 = F.rect_grid(9, 9)
    ok, esc, _ = grid_neighborhood_test(g2, 4 * 9 + 4, "rect")
    assert not ok
    assert esc.length <= 7
    # escape ends at a non-degree-4 vertex or donates through a big face
    kind, _ = esc.donor
    if kind == "vertex":
        assert g2.degree(esc.path[-1]) != 4
    else:
        assert any(f.degree >= 5
                   for f in g2.edge_faces(esc.path[-1], esc.path[-2]))


def test_grid_test_wrong_degree():
    g = F.rect_grid(3, 3)
    with pytest.raises(WrongContext):
        grid_neighborhood_test(g, 0, "rect")  # corner: degree 2
    with pytest.raises(WrongContext):
        grid_neighborhood_test(g, 4, "hex")  # degree 4, not 6
    with pytest.raises(WrongContext):
        grid_neighborhood_test(g, 4, "tri")


# -- context classifiers ----------------------------------------------------

def test_girth5_dodecahedron():
    g = F.platonic("dodecahedron")
    report = classify_girth5(g)
    assert report.count("X_3") == 20
    assert report.y_vertices() == []


def test_girth5_cycle_and_path():
    assert classify_girth5(F.cycle(5)).count("X_2") == 5
    assert classify_girth5(F.path(5)).count("X_2") == 5


def test_girth5_rejects_small_girth():
    with pytest.raises(GirthTooSmall):
        classify_girth5(F.platonic("cube"))


def test_girth5_y_labels():
    # subdividing splits triangles; original vertices keep high degree
    g = randgen.subdivide(F.platonic("icosahedron"), 2)
    report = classify_girth5(g)
    # original degree-5 vertices become Y_4 (degree >= 4 rule)
    assert report.count("Y_4") == 12
    # subdivision vertices have degree 2
    assert report.count("X_2") == g.n - 12


def test_planar_octahedron_icosahedron():
    rep = classify_planar(F.platonic("octahedron"))
    assert rep.count("X_4") == 6
    rep = classify_planar(F.platonic("icosahedron"))
    assert rep.count("X_5") == 12
    rep = classify_planar(F.platonic("tetrahedron"))
    assert rep.count("X_3") == 4


def test_planar_requires_triangulation():
    with pytest.raises(NotTriangulation):
        classify_planar(F.platonic("cube"))
    with pytest.raises(NotTriangulation):
        classify_planar(F.hex_patch(3))  # large outer face


def test_planar_hex_patch_triangulated():
    g = augment_maximal_planar(F.hex_patch(4))
    rep = classify_planar(g)
    assert rep.labels[0] == "X_6"
    assert rep.evidence[0]["rule"] == "hex_neighborhood"
    assert rep.side(0) == "X"


def test_planar_random_triangulations_all_labelled():
    for seed in range(5):
        g = randgen.random_triangulation(20, seed)
        rep = classify_planar(g)
        assert set(rep.labels) == set(range(g.n))
        for v, lab in rep.labels.items():
            assert lab[0] in "XY"
            assert int(lab.split("_")[1]) == g.degree(v)


def test_planar_containment_search_respects_node_limit():
    # vertex 21 is a degree-6 start among high-degree neighbours whose
    # cap-6 proof takes 57 nodes: below that, the search must stop at the
    # limit and report the start as undecided instead of running on
    g = randgen.random_triangulation(300, 70)
    rep = classify_planar(g, node_limit=50)
    assert rep.evidence[21]["rule"] == "exact_unknown"


@pytest.mark.parametrize("n, seed, hub", [(300, 70, 21), (400, 164, 2)])
def test_planar_hubs_are_decided(n, seed, hub):
    # degree-6 starts among high-degree neighbours, where no probe holds
    # the fire to 6 burned vertices; the search proves that nothing can
    rep = classify_planar(randgen.random_triangulation(n, seed))
    assert rep.labels[hub] == "Y_6"
    assert rep.evidence[hub]["rule"] == "exact_infeasible"


def test_tf_cube_all_config31():
    rep = classify_triangle_free(F.platonic("cube"))
    assert rep.count("X_3") == 8
    assert all(ev["rule"] == "config_3.1" for ev in rep.evidence.values())


def test_tf_rejects_triangles():
    with pytest.raises(ContainsTriangle):
        classify_triangle_free(F.platonic("octahedron"))


def test_tf_rect_grid():
    g = F.rect_grid(6, 6)
    rep = classify_triangle_free(g)
    # corners are degree 2, boundary vertices degree 3 with a low
    # neighbour, interior degree 4 (decided exactly: the grid is small
    # enough that everything is containable within 18)
    assert rep.count("X_2") == 4
    assert rep.side(0) == "X"
    assert all(lab[0] == "X" for lab in rep.labels.values())


def test_tf_rules_only_mode():
    g = F.rect_grid(6, 6)
    rep = classify_triangle_free(g, mode="rules_only")
    assert rep.mode == "rules_only"
    # interior vertices fail the depth-7 purity test and stay unresolved
    assert any(ev.get("rule") == "unmatched" for ev in rep.evidence.values())


def test_tf_big_grid_interior():
    g = F.rect_grid(17, 17)
    rep = classify_triangle_free(g, mode="rules_only")
    centre = 8 * 17 + 8
    assert rep.labels[centre] == "X_4"
    assert rep.evidence[centre]["rule"] == "rect_neighborhood"


# -- special sets and claims ------------------------------------------------

def test_special_sets_requires_exact_tf():
    g = F.platonic("dodecahedron")
    rep = classify_girth5(g)
    with pytest.raises(RequiresExactClassification):
        special_sets(g, rep)


def test_special_sets_shapes():
    # hub 5 of random_tf_maximal(20, 23) is 4-adjacent to 1, 6 and 10
    g = randgen.random_tf_maximal(20, 23)
    labels = {v: f"X_{g.degree(v)}" for v in range(g.n)}
    labels.update({5: "Y_5", 1: "Y_3", 6: "Y_3", 10: "Y_3"})
    rep = ClassificationReport("trianglefree_thm5", "exact", labels,
                               {v: {} for v in range(g.n)})
    assert special_sets(g, rep) == {"Y53": {5: [1, 6, 10]}}
    for seed in range(5):
        g = randgen.random_tf_maximal(24, seed)
        rep = classify_triangle_free(g)
        sets = special_sets(g, rep)
        for v, partners in sets["Y53"].items():
            assert rep.labels[v] == "Y_5"
            assert len(partners) >= 3
            for u in partners:
                assert rep.labels[u] == "Y_3"
                assert four_adjacent(g, v, u)


def test_structural_claims_planar():
    for seed in range(5):
        g = randgen.random_triangulation(24, seed)
        rep = classify_planar(g)
        for claim in verify_structural_claims(g, rep):
            assert claim.passed, (claim.claim, claim.counterexamples)


def test_structural_claims_tf():
    for seed in range(5):
        g = randgen.random_tf_maximal(24, seed)
        rep = classify_triangle_free(g)
        results = verify_structural_claims(g, rep)
        assert len(results) == 5
        for claim in results:
            assert claim.passed, (claim.claim, claim.counterexamples)


def test_claims_need_exact_labels():
    g = F.rect_grid(6, 6)
    rep = classify_triangle_free(g, mode="rules_only")
    with pytest.raises(RequiresExactClassification):
        verify_structural_claims(g, rep)


def test_report_json_round_trip():
    import json
    rep = classify_girth5(F.platonic("dodecahedron"))
    obj = json.loads(json.dumps(rep.to_json(), sort_keys=True))
    assert obj["counts"] == {"X_3": 20}
    assert obj["context"] == "girth5_thm2"


def test_classification_walks_each_ball_once_and_stops_at_the_first_config(
        monkeypatch):
    g = randgen.random_tf_maximal(200, 11)
    deg3 = [v for v in g.vertices() if g.degree(v) == 3]
    late = [v for v in deg3 if not any(
        m.config in ("3.1", "3.2") for m in detect_local_configs(g, v))]
    want = classify_triangle_free(g).to_json()
    walked, opposite = [], []
    walk, partners = classify.grid_ball, classify._opposite_partners

    def counted_walk(g_, v, lattice):
        walked.append(v)
        return walk(g_, v, lattice)

    def counted_partners(g_, v):
        opposite.append(v)
        return partners(g_, v)

    monkeypatch.setattr(classify, "grid_ball", counted_walk)
    monkeypatch.setattr(classify, "_opposite_partners", counted_partners)
    assert classify_triangle_free(g).to_json() == want
    assert walked == [v for v in g.vertices() if g.degree(v) == 4]
    assert opposite == late
    assert 0 < len(late) < len(deg3)
