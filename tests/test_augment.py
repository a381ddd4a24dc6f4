import random

import pytest

from firecontain import families as F, randgen
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
    Disconnected,
    LoopOrMultiEdge,
    NotTriangleFree,
)
from oracles import (
    assert_same_graph,
    augment_maximal_planar_reference,
    augment_maximal_triangle_free_reference,
    insert_chord_reference,
    insert_vertex_reference,
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
    with pytest.raises(NotTriangleFree):
        augment_maximal_triangle_free(F.cycle(3))


def test_augment_triangle_free_idempotent_on_quadrangulation():
    g = F.rect_grid(4, 4)
    t = augment_maximal_triangle_free(g)
    # interior faces are 4-cycles; only the outer face can gain chords
    assert t.is_triangle_free()


def test_augment_maximal_planar_matches_reference():
    for g in (F.hex_patch(2), F.hex_patch(3), F.hex_patch(4),
              F.rect_grid(3, 3), F.rect_grid(4, 6), F.cycle(4), F.cycle(9),
              _pentagon_wheel(), F.path(6), F.star(6)):
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
        assert_same_graph(insert_vertex_in_face(g, face, [4], (9.0, 9.0)),
                          insert_vertex_reference(g, face, [4], (9.0, 9.0)))


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
                          and face[j] not in b.adjacency[face[i]]]
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
    # nothing above changed the builder
    assert b.freeze() == g
    assert b.faces == [f.boundary for f in g.faces()]
