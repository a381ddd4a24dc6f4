"""Map automorphisms and the orbit-reduced exact rates."""
import pytest

from conftest import random_connected_graph
from firecontain import families as F, randgen, rates
from firecontain.engine import Schedule, sn_exact
from firecontain.rates import surviving_rate_exact


@pytest.mark.parametrize("g, size", [
    (F.platonic("cube"), 48),
    (F.platonic("dodecahedron"), 120),
    (F.rect_grid(4, 5), 4),
    (F.rect_grid(5, 5), 8),
    (F.hex_patch(2), 12),
    (randgen.random_tf_maximal(18, 1), 1),
], ids=["cube", "dodecahedron", "rect_grid(4,5)", "rect_grid(5,5)",
        "hex_patch(2)", "random_tf_maximal(18,1)"])
def test_automorphism_group_sizes(g, size):
    assert len(g.automorphisms) == size


def _graphs():
    yield F.platonic("icosahedron")
    yield F.hex_patch(2)
    yield F.rect_grid(3, 4)
    yield F.path(5)
    yield F.star(6)
    yield F.complete_bipartite_2_m(4)
    yield randgen.random_tf_maximal(30, 4)
    for seed in range(6):  # arbitrary rotations: still graph automorphisms
        yield random_connected_graph(7, 0.5, seed + 900)


def test_automorphisms_preserve_adjacency():
    for g in _graphs():
        auts = g.automorphisms
        assert tuple(range(g.n)) in auts
        for p in auts:
            assert sorted(p) == list(range(g.n))
            assert all(g.has_edge(p[u], p[v]) for u, v in g.edges())
        # the orbit minima are those of the orbits the group generates
        for v, least in enumerate(g.orbit_minima):
            assert least == min(p[v] for p in auts) <= v


def _plain_rate(g, schedule, node_limit=10_000_000):
    saved, partial = {}, False
    for v in range(g.n):
        res = sn_exact(g, v, schedule, node_limit=node_limit)
        saved[v] = res.value
        partial = partial or not res.optimal
    return saved, partial


@pytest.mark.parametrize("g, schedule, node_limit", [
    (F.rect_grid(4, 4), Schedule.constant(1), 10_000_000),
    (F.platonic("cube"), Schedule.constant(2), 10_000_000),
    (F.hex_patch(1), Schedule(4, 3), 10_000_000),
    (F.star(7), Schedule.constant(1), 10_000_000),
    # orbit solves take 6-30 nodes on rect_grid(4,5), so 20 finishes
    # some and not others; every dodecahedron start takes 40-48
    (F.rect_grid(4, 5), Schedule.constant(1), 20),
    (F.platonic("dodecahedron"), Schedule.constant(1), 20),
], ids=["rect_grid(4,4)", "cube", "hex_patch(1)", "star(7)",
        "rect_grid(4,5)-partial", "dodecahedron-partial"])
def test_orbit_rate_equals_per_vertex_loop(g, schedule, node_limit):
    rep = surviving_rate_exact(g, schedule, node_limit=node_limit)
    saved, partial = _plain_rate(g, schedule, node_limit)
    assert rep.saved == saved
    assert rep.partial == partial
    assert rep.partial == (node_limit < 10_000_000)


def test_orbit_rate_solves_one_start_per_orbit(monkeypatch):
    calls = []

    def counting(g, v, schedule, node_limit):
        calls.append(v)
        return sn_exact(g, v, schedule, node_limit=node_limit)

    monkeypatch.setattr(rates, "sn_exact", counting)
    g = F.rect_grid(4, 5)
    rep = surviving_rate_exact(g, Schedule.constant(1))
    assert not rep.partial and str(rep.rate) == "121/200"
    assert calls == sorted(set(g.orbit_minima)) and len(calls) == 6
