"""The grid ball walk: one walk for the purity test, the lattice map and
the discharging escape paths."""
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import capped_triangulated_tube, square_grid_tube
from firecontain import families as F, randgen, strategies
from firecontain.classify import (
    GRID_LATTICES,
    grid_ball,
    grid_neighborhood_test,
)
from firecontain.errors import NotApplicable, WrongContext
from firecontain.strategies import checked_grid_plan, load_plan
from oracles import (
    hex_escape_path_reference,
    mapped_plan_reference,
    rect_escape_path_reference,
)

ESCAPE_REFERENCES = {"hex": hex_escape_path_reference,
                     "rect": rect_escape_path_reference}

CORPUS = {
    **{f"random_triangulation_300_{s}":
       partial(randgen.random_triangulation, 300, s) for s in range(1, 6)},
    **{f"random_tf_maximal_100_{s}":
       partial(randgen.random_tf_maximal, 100, s) for s in range(1, 11)},
    **{f"hex_patch_{r}": partial(F.hex_patch, r) for r in range(1, 7)},
    **{f"rect_grid_{w}x{h}": partial(F.rect_grid, w, h)
       for w, h in ((17, 17), (9, 9), (12, 7), (5, 5))},
}


@pytest.mark.parametrize("make", CORPUS.values(), ids=CORPUS.keys())
def test_ball_walk_equals_the_reference_walks(make):
    g = make()
    plans = {lat: load_plan(f"{lat}_containment") for lat in GRID_LATTICES}
    for v in range(g.n):
        for lat, (dirs, _) in GRID_LATTICES.items():
            want = mapped_plan_reference(g, v, plans[lat])
            if g.degree(v) != len(dirs):
                with pytest.raises(WrongContext):
                    grid_ball(g, v, lat)
                assert want is None
                continue
            ok, esc, at = grid_neighborhood_test(g, v, lat)
            ref = ESCAPE_REFERENCES[lat](g, v)
            assert esc == ref
            assert ok == (ref is None and at is not None)
            assert want == (None if at is None
                            else strategies._through(at, plans[lat]))
            if ok:
                assert checked_grid_plan(g, v, lat) == want
            else:
                with pytest.raises(NotApplicable):
                    checked_grid_plan(g, v, lat)


# -- soundness of the purity test -------------------------------------------

GRIDS = st.one_of(
    st.builds(lambda r: ("hex", F.hex_patch(r)), st.integers(1, 6)),
    st.builds(lambda w, h: ("rect", F.rect_grid(w, h)),
              st.integers(2, 19), st.integers(2, 19)),
    st.builds(lambda c, k: ("hex", capped_triangulated_tube(c, k)),
              st.integers(4, 8), st.integers(1, 12)),
    st.builds(lambda c, k: ("rect", square_grid_tube(c, k)),
              st.integers(4, 8), st.integers(1, 20)),
)


def assert_well_formed(g, v, lattice, esc):
    dirs, depth = GRID_LATTICES[lattice]
    path, end = esc.path, esc.path[-1]
    assert path[0] == v and 1 <= len(path) - 1 <= depth
    assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
    assert all(g.degree(u) == len(dirs) for u in path[1:-1])
    if g.degree(end) != len(dirs):
        assert esc.donor == ("vertex", end)
    else:
        big = [f.id for f in g.edge_faces(end, path[-2]) if f.degree >= 5]
        assert lattice == "rect" and esc.donor == ("face", min(big))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(GRIDS)
def test_pure_starts_keep_the_plan_guarantee(grid):
    lattice, g = grid
    plan = load_plan(f"{lattice}_containment")
    for v in range(g.n):
        if g.degree(v) != len(GRID_LATTICES[lattice][0]):
            continue
        ok, esc, _ = grid_neighborhood_test(g, v, lattice)
        if ok:
            assert strategies._guaranteed(g, v, plan) is not None
        elif esc is not None:
            assert_well_formed(g, v, lattice, esc)
