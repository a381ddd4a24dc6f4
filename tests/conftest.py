import pathlib
import random
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from firecontain.embedding import build

DATA_DIR = pathlib.Path(__file__).parent / "data"


def random_connected_graph(n, p, seed):
    """Arbitrary (not necessarily planar) connected graph; rotations in
    sorted order, embedding unverified."""
    rng = random.Random(seed)
    while True:
        rot = [[] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    rot[i].append(j)
                    rot[j].append(i)
        try:
            return build(rot, embedding_verified=False)
        except Exception:
            continue


@pytest.fixture(scope="session")
def small_corpus():
    from firecontain.formats import parse_graph6
    data = (DATA_DIR / "small_connected.g6").read_bytes()
    return parse_graph6(data)


def capped_triangulated_tube(c, rings):
    """A triangulated tube of circumference c, capped by an apex at each
    end: vertex (i, j), ring i, has the rotation (i,j+1), (i-1,j+1),
    (i-1,j), (i,j-1), (i+1,j-1), (i+1,j), with the apex in place of a
    missing ring.  Away from the caps it looks like the hexagonal grid
    until the lattice wraps round the tube."""
    top, bottom = c * rings, c * rings + 1

    def vid(i, j):
        if i < 0:
            return top
        if i >= rings:
            return bottom
        return i * c + j % c

    rot = []
    for i in range(rings):
        for j in range(c):
            r = [vid(i, j + 1), vid(i - 1, j + 1), vid(i - 1, j),
                 vid(i, j - 1), vid(i + 1, j - 1), vid(i + 1, j)]
            # an apex stands for two consecutive neighbours
            rot.append([v for k, v in enumerate(r) if v != r[k - 1]])
    rot.append([vid(0, j) for j in range(c)])
    rot.append([vid(rings - 1, -j) for j in range(c)])
    return build(rot)


def square_grid_tube(c, rings):
    """A quadrangulated tube of circumference c, uncapped: vertex (i, j)
    = i * c + j has the rotation (i,j+1), (i+1,j), (i,j-1), (i-1,j), the
    neighbours in missing rings left out.  Its two ends are c-gon faces;
    away from them it looks like the square grid until the lattice wraps
    round the tube."""
    rot = []
    for i in range(rings):
        for j in range(c):
            r = [(i, j + 1), (i + 1, j), (i, j - 1), (i - 1, j)]
            rot.append([a * c + b % c for a, b in r if 0 <= a < rings])
    return build(rot)


@pytest.fixture(scope="session")
def capped_tube():
    """``capped_triangulated_tube(5, 9)``, n = 47: the middle ring is
    degree-6 pure to depth 3, but the lattice wraps round the tube."""
    return capped_triangulated_tube(5, 9)


@pytest.fixture(scope="session")
def square_tube():
    """``square_grid_tube(5, 17)``, n = 85: the middle ring is degree-4
    pure to depth 7, but the lattice wraps round the tube."""
    return square_grid_tube(5, 17)
