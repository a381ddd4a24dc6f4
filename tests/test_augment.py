import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from firecontain import augment, families as F, randgen
from firecontain.augment import (
    DartBuilder,
    augment_maximal_planar,
    augment_maximal_triangle_free,
    insert_chord,
    insert_vertex_in_face,
)
from firecontain.embedding import Face
from firecontain.errors import (
    BadParameter,
    ContainsTriangle,
    Disconnected,
    LoopOrMultiEdge,
)
from oracles import (
    assert_same_graph,
    augment_maximal_planar_reference,
    augment_maximal_triangle_free_reference,
    insert_chord_reference,
    insert_vertex_reference,
    random_tf_maximal_reference,
    random_triangulation_reference,
)
from test_discharge import _pentagon_wheel


def test_insert_chord_splits_face():
    g = F.cycle(6)
    face = g.faces()[0]
    g2 = insert_chord(g, face, 0, 3)
    assert g2.num_edges == g.num_edges + 1
    assert len(g2.faces()) == len(g.faces()) + 1
    assert g2.has_edge(face.boundary[0], face.boundary[3])


def test_insert_vertex_in_face():
    g = F.cycle(4)
    face = g.faces()[0]
    g2 = insert_vertex_in_face(g, face, [0, 2])
    assert g2.n == 5
    assert g2.degree(4) == 2
    # the split face becomes two quadrilaterals; the other stays degree 4
    assert sorted(f.degree for f in g2.faces()) == [4, 4, 4]


def test_augment_maximal_planar():
    for g in (F.cycle(5), F.hex_patch(2), F.rect_grid(3, 3)):
        t = augment_maximal_planar(g)
        assert all(f.degree == 3 for f in t.faces())
        assert t.n == g.n
        assert t.num_edges == 3 * t.n - 6
        # old edges survive
        assert set(g.edges()) <= set(t.edges())


def test_augment_maximal_planar_idempotent():
    g = F.platonic("icosahedron")
    assert augment_maximal_planar(g) is g


def test_augmentations_return_the_graph_itself_when_no_chord_fits():
    # the icosahedron's case is test_augment_maximal_planar_idempotent
    g = randgen.random_tf_maximal(50, 1)
    assert augment_maximal_triangle_free(g) is g
    # each completes its output: run again, it inserts nothing
    for augment_, g in ((augment_maximal_planar, F.rect_grid(3, 3)),
                        (augment_maximal_triangle_free, F.cycle(8))):
        done = augment_(g)
        assert done is not g and augment_(done) is done


def test_augment_maximal_triangle_free():
    g = F.cycle(8)
    t = augment_maximal_triangle_free(g)
    assert t.is_triangle_free()
    assert t.num_edges > g.num_edges
    # local maximality: no face of degree >= 5 admits a triangle-free chord
    for f in t.faces():
        if f.degree < 5:
            continue
        b = f.boundary
        for i in range(f.degree):
            for step in range(2, f.degree - 1):
                u, v = b[i], b[(i + step) % f.degree]
                if u != v and not t.has_edge(u, v):
                    assert t.adjacency[u] & t.adjacency[v]


def test_augment_triangle_free_rejects_triangles():
    with pytest.raises(ContainsTriangle):
        augment_maximal_triangle_free(F.cycle(3))


def test_augment_triangle_free_idempotent_on_quadrangulation():
    g = F.rect_grid(4, 4)
    t = augment_maximal_triangle_free(g)
    # interior faces are 4-cycles; only the outer face can gain chords
    assert t.is_triangle_free()


def test_augment_maximal_planar_matches_reference():
    for g in (F.hex_patch(2), F.hex_patch(3), F.hex_patch(4),
              F.rect_grid(3, 3), F.rect_grid(4, 6), F.cycle(4), F.cycle(9),
              _pentagon_wheel(), F.path(6), F.star(6),
              randgen.random_tree(12, 3)):
        assert_same_graph(augment_maximal_planar(g),
                          augment_maximal_planar_reference(g))


def test_augment_triangle_free_matches_reference():
    for g in (F.cycle(8), F.cycle(13), F.rect_grid(4, 4), F.rect_grid(5, 7),
              F.platonic("dodecahedron"), F.path(7), F.star(5),
              randgen.subdivide(F.platonic("octahedron"), 1),
              randgen.random_girth5_planar(60, 2)):
        assert_same_graph(augment_maximal_triangle_free(g),
                          augment_maximal_triangle_free_reference(g))


def test_insertion_wrappers_match_reference():
    g = F.rect_grid(4, 3)
    outer = max(g.faces(), key=lambda f: f.degree)
    # a boundary may start at any of its darts
    turned = Face(outer.id, outer.boundary[3:] + outer.boundary[:3])
    for face in (outer, turned):
        assert_same_graph(insert_chord(g, face, 1, 5),
                          insert_chord_reference(g, face, 1, 5))
        assert_same_graph(insert_vertex_in_face(g, face, [0, 2, 7]),
                          insert_vertex_reference(g, face, [0, 2, 7]))
        assert_same_graph(insert_vertex_in_face(g, face, [4]),
                          insert_vertex_reference(g, face, [4]))


def test_builder_faces_track_traced_faces():
    # random chords and vertices, also in faces that revisit a vertex;
    # the maintained face list must equal a fresh trace after every step
    for seed in range(12):
        rng = random.Random(seed)
        b = DartBuilder(randgen.random_tree(9, seed))
        for _ in range(25):
            face = rng.choice(b.faces)
            k = len(face)
            if rng.random() < 0.5:
                chords = [(i, j) for i in range(k) for j in range(k)
                          if face[i] != face[j]
                          and face[j] not in b.index[face[i]]]
                if not chords:
                    continue
                b.insert_chord(face, *rng.choice(chords))
            else:
                picked = sorted(rng.sample(range(k), min(k, 3)))
                seen, attach = set(), []
                for p in picked:
                    if face[p] not in seen:
                        seen.add(face[p])
                        attach.append(p)
                b.insert_vertex(face, attach)
            g = b.freeze()
            assert b.faces == [f.boundary for f in g.faces()]


def _builder_state_is_consistent(b):
    g = b.freeze()
    assert b.faces == [f.boundary for f in g.faces()]
    assert b.keys == sorted(b.keys) == [b._key(f) for f in b.faces]
    for u, rot in enumerate(g.rotations):
        labels = [b.index[u][v] for v in rot]
        assert labels == sorted(set(labels))


def test_builder_relabels_a_rotation_whose_gap_closes():
    # stacking each new vertex into the face after dart (prev, hub) halves
    # the same gap of the hub's rotation, until it has no label left
    g = F.platonic("octahedron")
    b = DartBuilder(g)
    hub, (prev, after) = 0, g.rotations[0][:2]
    gap = b.index[hub][after] - b.index[hub][prev]
    relabelled = 0
    for _ in range(gap.bit_length() + 1):
        face = next(f for f in b.faces for i in range(len(f))
                    if (f[i - 1], f[i]) == (prev, hub))
        before = dict(b.index[hub])
        b.insert_vertex(face, [0, 1, 2])
        relabelled += any(b.index[hub][v] != x for v, x in before.items())
        _builder_state_is_consistent(b)
    assert relabelled == 1


def test_builder_relabels_keep_generated_graphs(monkeypatch):
    # sha256 of the rotations of oracles.random_*_reference(3000, 1),
    # pinned since that reference re-traces every face after each vertex
    # and is too slow to rerun here; an 8-bit label span makes each
    # generator relabel dozens of times and must change nothing
    want = {
        "random_triangulation":
            "088f40178ff5016ef729cddd5be55c4c9125f0d234a18d3022b072d4ce6679ec",
        "random_tf_maximal":
            "4f61e9adf8c1fe0763ec72c1434347a19b914082e391f4e105c7d41cccce800d",
    }
    for bits in (augment._BITS, 8):
        monkeypatch.setattr(augment, "_BITS", bits)
        monkeypatch.setattr(augment, "_SPAN", 1 << bits)
        for name, digest in want.items():
            g = getattr(randgen, name)(3000, 1)
            assert hashlib.sha256(json.dumps(g.rotations).encode()
                                  ).hexdigest() == digest, (name, bits)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(4, 60), st.integers(),
       st.sampled_from([augment._BITS, 8]))
def test_stacking_matches_reference_and_keeps_the_builder_consistent(
        n, seed, bits):
    # stack() writes the new faces down; the reference re-traces them
    # after every vertex.  At an 8-bit label span some graphs relabel.
    for name, reference in (("random_triangulation",
                             random_triangulation_reference),
                            ("random_tf_maximal",
                             random_tf_maximal_reference)):
        held = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(augment, "_BITS", bits)
            mp.setattr(augment, "_SPAN", 1 << bits)
            mp.setattr(DartBuilder, "freeze",
                       lambda b, freeze=DartBuilder.freeze:
                       held.append(b) or freeze(b))
            assert_same_graph(getattr(randgen, name)(n, seed),
                              reference(n, seed))
            _builder_state_is_consistent(held[0])


def test_builder_rejects_bad_insertions():
    g = F.cycle(6)
    b = DartBuilder(g)
    with pytest.raises(BadParameter):
        b.insert_chord((0, 2, 4), 0, 1)
    with pytest.raises(LoopOrMultiEdge):
        b.insert_chord(b.faces[0], 0, 1)
    with pytest.raises(LoopOrMultiEdge):
        insert_chord(g, g.faces()[0], 2, 2)
    with pytest.raises(Disconnected):
        insert_vertex_in_face(g, g.faces()[0], [])
    # positions out of walk order would cross the new edges
    with pytest.raises(BadParameter):
        b.insert_vertex(b.faces[0], [0, 3, 1])
    # nothing above changed the builder
    assert b.freeze() == g
    assert b.faces == [f.boundary for f in g.faces()]


def test_builder_locates_faces_from_any_dart():
    g = randgen.random_tf_maximal(30, 4)
    b = DartBuilder(g)
    for at, face in enumerate(b.faces):
        for s in range(len(face)):
            assert b._locate(face[s:] + face[:s]) == at


def test_builder_locate_rejects_walks_that_are_not_faces():
    g = F.rect_grid(3, 3)
    b = DartBuilder(g)
    faces = list(b.faces)
    face = b.faces[0]
    # walks that begin with a dart of the graph but are not faces: the
    # first two begin with the face's own least dart, the last two use
    # only darts of the graph
    for walk in (face[:2] + face[3:], face[:3], face + face, face[::-1]):
        with pytest.raises(BadParameter):
            b._locate(walk)
        with pytest.raises(BadParameter):
            b.insert_vertex(walk, [0])
    assert b.faces == faces
    assert b.freeze() == g


def test_builder_rejects_vertices_and_positions_off_the_graph():
    g = F.cycle(4)
    b = DartBuilder(g)
    faces = list(b.faces)
    face = b.faces[0]
    with pytest.raises(BadParameter):
        b._locate((9, 0, 1))
    with pytest.raises(BadParameter):
        b._locate((-1, 0, 1))
    with pytest.raises(BadParameter):
        b.insert_chord(face, 0, 9)
    with pytest.raises(BadParameter):
        b.insert_vertex(face, [7])
    # nothing above changed the builder
    assert b.faces == faces
    assert b.freeze() == g
