"""Seeded random instance generators for the test corpora.

All generators are deterministic in their seed, so suites can "store" a
corpus as a list of seeds.
"""
from __future__ import annotations

import random

from .augment import DartBuilder
from .embedding import EmbeddedGraph, build
from .errors import BadParameter
from .families import cycle


def random_triangulation(n: int, seed: int) -> EmbeddedGraph:
    """Random stacked triangulation: repeatedly drop a new vertex into a
    random triangular face.  Output is maximal planar (all faces degree 3).
    """
    if n < 3:
        raise BadParameter("triangulation needs n >= 3")
    rng = random.Random(seed)
    b = DartBuilder(cycle(3))
    while b.n < n:
        b.stack(rng.randrange(len(b.faces)))
    return b.freeze()


def random_tf_maximal(n: int, seed: int) -> EmbeddedGraph:
    """Random stacked quadrangulation: repeatedly drop a degree-2 vertex
    across a random diagonal of a random quadrilateral face.

    Every face stays degree 4, so the result is triangle-free, 2-connected
    and locally edge-maximal (any chord inside a 4-face closes a triangle).
    """
    if n < 4:
        raise BadParameter("quadrangulation needs n >= 4")
    rng = random.Random(seed)
    b = DartBuilder(cycle(4))
    while b.n < n:
        b.stack(rng.randrange(len(b.faces)), rng.randrange(2))
    return b.freeze()


def subdivide(g: EmbeddedGraph, times: int) -> EmbeddedGraph:
    """Replace every edge by a path with ``times`` internal vertices,
    preserving the embedding (subdivision vertices have degree 2)."""
    if times < 1:
        return g
    rot = [list(r) for r in g.rotations]
    nxt = g.n
    for u, v in g.edges():
        chain = list(range(nxt, nxt + times))
        nxt += times
        rot[u][rot[u].index(v)] = chain[0]
        rot[v][rot[v].index(u)] = chain[-1]
        ends = [u] + chain + [v]
        for i, c in enumerate(chain, start=1):
            rot.append([ends[i - 1], ends[i + 1]])
    return build(rot)


def random_tree(n: int, seed: int) -> EmbeddedGraph:
    if n < 1:
        raise BadParameter("tree needs n >= 1")
    rng = random.Random(seed)
    rot: list[list[int]] = [[]]
    for v in range(1, n):
        parent = rng.randrange(v)
        rot[parent].append(v)
        rot.append([parent])
    return build(rot)


def random_girth5_planar(max_n: int, seed: int) -> EmbeddedGraph:
    """Random planar graph of girth >= 5: either a random tree or a
    twice-subdivided random triangulation (girth 9)."""
    rng = random.Random(seed)
    if rng.random() < 0.4:
        return random_tree(rng.randint(2, max_n), seed + 1)
    # a triangulation on m vertices has 3m - 6 edges; after a double
    # subdivision n = m + 2(3m - 6)
    m = rng.randint(4, max(4, (max_n + 12) // 7))
    g = random_triangulation(m, seed + 1)
    g = subdivide(g, 2)
    if g.n > max_n:
        return random_tree(rng.randint(2, max_n), seed + 2)
    return g
