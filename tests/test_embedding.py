import math

import pytest

from firecontain import families as F, randgen
from firecontain.embedding import build
from firecontain.errors import (
    AsymmetricAdjacency,
    Disconnected,
    EmbeddingInconsistent,
    LoopOrMultiEdge,
    UnverifiedEmbedding,
)
from oracles import faces_reference


def test_face_counts_platonic():
    expected = {"tetrahedron": 4, "cube": 6, "octahedron": 8,
                "dodecahedron": 12, "icosahedron": 20}
    for name, faces in expected.items():
        g = F.platonic(name)
        assert len(g.faces()) == faces
        assert g.n - g.num_edges + len(g.faces()) == 2


def test_face_tracing_cycle():
    g = F.cycle(5)
    assert len(g.faces()) == 2
    assert all(f.degree == 5 for f in g.faces())


def test_edge_and_vertex_faces():
    g = F.platonic("cube")
    for u, v in g.edges():
        assert len(g.edge_faces(u, v)) == 2
    for v in range(g.n):
        assert len(g.incident_faces(v)) == 3


def _face_corpus():
    yield from (F.path(1), F.path(6), F.star(5), F.cycle(7),
                F.complete_bipartite_2_m(4), F.rect_grid(6, 4),
                F.hex_patch(3))
    yield from map(F.platonic, ("tetrahedron", "cube", "octahedron",
                                "dodecahedron", "icosahedron"))
    # a tree with branching: every edge is a bridge on the one face
    yield build([[1, 2, 3], [0, 4, 5], [0], [0], [1], [1]])
    for seed in range(1, 6):
        yield randgen.random_triangulation(80, seed)
        yield randgen.random_tf_maximal(60, seed)


def _same_faces(g):
    try:
        faces, edge_faces, vertex_faces = faces_reference(g)
    except EmbeddingInconsistent as err:
        with pytest.raises(EmbeddingInconsistent) as got:
            g.faces()
        assert str(got.value) == str(err)
        return
    assert g.faces() == faces
    for (u, v), fs in edge_faces.items():
        assert g.edge_faces(u, v) == g.edge_faces(v, u) == fs
    assert [g.incident_faces(v) for v in range(g.n)] == vertex_faces


@pytest.mark.parametrize("g", list(_face_corpus()), ids=repr)
def test_dart_table_faces_match_the_reference_tracer(g):
    _same_faces(g)


def test_bridges_put_one_face_on_both_sides():
    g = F.path(4)
    (face,) = g.faces()
    assert face.boundary == (0, 1, 2, 3, 2, 1)
    assert g.edge_faces(1, 2) == [face, face]
    assert g.incident_faces(2) == (face,)


def test_non_sphere_rotations_fail_like_the_reference_tracer():
    # flipping rotations of a sphere map gives maps of higher genus
    for g in (F.platonic("tetrahedron"), F.platonic("cube"),
              F.rect_grid(4, 4)):
        for v in (0, 5 % g.n):
            rot = [list(r) for r in g.rotations]
            rot[v] = rot[v][::-1]
            if len(rot[v]) > 2:
                _same_faces(build(rot))
                with pytest.raises(EmbeddingInconsistent, match="Euler"):
                    build(rot).faces()


def test_girth():
    assert F.cycle(7).girth() == 7
    assert F.platonic("cube").girth() == 4
    assert F.platonic("icosahedron").girth() == 3
    assert F.path(6).girth() == math.inf
    assert F.platonic("dodecahedron").girth() == 5


def test_triangle_free():
    assert F.cycle(4).is_triangle_free()
    assert F.platonic("cube").is_triangle_free()
    assert not F.platonic("octahedron").is_triangle_free()


def test_build_rejects_bad_input():
    with pytest.raises(LoopOrMultiEdge):
        build([[0]])
    with pytest.raises(LoopOrMultiEdge):
        build([[1, 1], [0, 0]])
    with pytest.raises(AsymmetricAdjacency):
        build([[1], []])
    with pytest.raises(Disconnected):
        build([[1], [0], [3], [2]])


def test_inconsistent_rotation_raises():
    # K4 with one rotation flipped has nonzero Euler residual
    g = F.platonic("tetrahedron")
    rot = [list(r) for r in g.rotations]
    rot[0] = rot[0][::-1]
    bad = build(rot)
    with pytest.raises(EmbeddingInconsistent):
        bad.faces()


def test_unverified_embedding_refuses_faces():
    g = build([[1], [0]], embedding_verified=False)
    with pytest.raises(UnverifiedEmbedding):
        g.faces()


def test_distances():
    g = F.path(5)
    assert g.distances_from(0)[4] == 4
    assert g.distances_from(2) == [2, 1, 0, 1, 2]
