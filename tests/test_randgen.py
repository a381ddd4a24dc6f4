from firecontain import augment, randgen
from firecontain.families import cycle
from oracles import (
    assert_same_graph,
    random_tf_maximal_reference,
    random_triangulation_reference,
)


def test_random_triangulation():
    for seed in range(5):
        g = randgen.random_triangulation(12, seed)
        assert g.n == 12
        assert all(f.degree == 3 for f in g.faces())
        assert g.num_edges == 3 * g.n - 6


def test_random_tf_maximal():
    for seed in range(5):
        g = randgen.random_tf_maximal(14, seed)
        assert g.n == 14
        assert g.is_triangle_free()
        assert all(f.degree == 4 for f in g.faces())
        # quadrangulation: m = 2n - 4
        assert g.num_edges == 2 * g.n - 4


def test_determinism():
    a = randgen.random_triangulation(15, 7)
    b = randgen.random_triangulation(15, 7)
    assert a.rotations == b.rotations
    a = randgen.random_tf_maximal(15, 7)
    b = randgen.random_tf_maximal(15, 7)
    assert a.rotations == b.rotations


def test_subdivide():
    g = cycle(3)
    s = randgen.subdivide(g, 2)
    assert s.n == 3 + 2 * 3
    assert s.girth() == 9
    assert randgen.subdivide(g, 0) is g


def test_random_tree():
    for seed in range(5):
        g = randgen.random_tree(10, seed)
        assert g.n == 10 and g.num_edges == 9


def test_random_girth5_planar():
    import math
    for seed in range(10):
        g = randgen.random_girth5_planar(60, seed)
        assert g.n <= 60
        assert g.girth() >= 5 or g.girth() == math.inf


def test_generators_match_rebuilding_reference():
    for seed in range(1, 13):
        assert_same_graph(randgen.random_triangulation(40, seed),
                          random_triangulation_reference(40, seed))
        assert_same_graph(randgen.random_tf_maximal(40, seed),
                          random_tf_maximal_reference(40, seed))


def test_generation_validates_once(monkeypatch):
    # one build per generated graph, not one per inserted vertex
    calls = []
    real = augment.build

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(augment, "build", counting)
    randgen.random_triangulation(50, 3)
    assert len(calls) == 1
    randgen.random_tf_maximal(50, 3)
    assert len(calls) == 2
