"""Independent reference implementations used as test oracles.

These deliberately enumerate without pruning or memoization so that the
optimized solvers can be checked against them on small instances.
"""
import itertools
import random

from firecontain.embedding import build
from firecontain.engine import frontier
from firecontain.families import cycle


def sn_reference(g, start, schedule):
    """Maximum saved count by enumerating every protection sequence,
    including protecting fewer vertices than the budget."""
    best = [0]

    def rec(burning, protected, round_no):
        front = frontier(g, burning, protected)
        if not front:
            best[0] = max(best[0], g.n - len(burning))
            return
        budget = schedule.budget(round_no)
        free = [v for v in range(g.n)
                if v not in burning and v not in protected]
        for k in range(min(budget, len(free)) + 1):
            for combo in itertools.combinations(free, k):
                prot = protected | frozenset(combo)
                newly = frontier(g, burning, prot)
                rec(burning | newly, prot, round_no + 1)

    rec(frozenset([start]), frozenset(), 1)
    return best[0]


def containment_reference(g, start, schedule, burn_cap, round_cap):
    """True iff some protection sequence keeps the burned count within
    burn_cap and contains the fire within round_cap rounds."""

    def rec(burning, protected, round_no):
        if len(burning) > burn_cap:
            return False
        front = frontier(g, burning, protected)
        if not front:
            return True
        if round_no > round_cap:
            return False
        budget = schedule.budget(round_no)
        free = [v for v in range(g.n)
                if v not in burning and v not in protected]
        for k in range(min(budget, len(free)) + 1):
            for combo in itertools.combinations(free, k):
                prot = protected | frozenset(combo)
                newly = frontier(g, burning, prot)
                if rec(burning | newly, prot, round_no + 1):
                    return True
        return False

    return rec(frozenset([start]), frozenset(), 1)


def connected_subsets_reference(g, start, max_size):
    """All connected vertex sets containing start, sizes 1..max_size."""
    out = set()
    for size in range(1, max_size + 1):
        for comb in itertools.combinations(range(g.n), size):
            if start not in comb:
                continue
            s = set(comb)
            seen = {start}
            queue = [start]
            for u in queue:
                for w in g.adjacency[u]:
                    if w in s and w not in seen:
                        seen.add(w)
                        queue.append(w)
            if seen == s:
                out.add(frozenset(s))
    return out


# -- construction by rebuilding after every insertion ------------------------

def assert_same_graph(a, b):
    """Equal rotations, positions, labels and traced face list."""
    assert a.rotations == b.rotations
    assert a.positions == b.positions
    assert a.labels == b.labels
    assert [f.boundary for f in a.faces()] == [f.boundary for f in b.faces()]


def insert_chord_reference(g, face, i, j):
    """Chord insertion by copying and re-validating the whole graph."""
    b = face.boundary
    k = len(b)
    u, v = b[i], b[j]
    rot = [list(r) for r in g.rotations]
    pu = b[(i - 1) % k]
    pv = b[(j - 1) % k]
    rot[u].insert(rot[u].index(pu) + 1, v)
    rot[v].insert(rot[v].index(pv) + 1, u)
    return build(rot, labels=g.labels, positions=g.positions)


def insert_vertex_reference(g, face, attach_positions, position=None):
    """Vertex insertion by copying and re-validating the whole graph."""
    b = face.boundary
    k = len(b)
    new = g.n
    rot = [list(r) for r in g.rotations]
    for p in attach_positions:
        prev = b[(p - 1) % k]
        rot[b[p]].insert(rot[b[p]].index(prev) + 1, new)
    rot.append([b[p] for p in reversed(attach_positions)])
    pos = None
    if g.positions is not None:
        if position is None:
            xs = [g.positions[b[p]][0] for p in attach_positions]
            ys = [g.positions[b[p]][1] for p in attach_positions]
            position = (sum(xs) / len(xs), sum(ys) / len(ys))
        pos = list(g.positions) + [position]
    return build(rot, positions=pos)


def random_triangulation_reference(n, seed):
    """Stacked triangulation, re-tracing every face after each vertex."""
    rng = random.Random(seed)
    g = cycle(3)
    while g.n < n:
        face = rng.choice(g.faces())
        g = insert_vertex_reference(g, face, [0, 1, 2])
    return g


def random_tf_maximal_reference(n, seed):
    """Stacked quadrangulation, re-tracing every face after each vertex."""
    rng = random.Random(seed)
    g = cycle(4)
    while g.n < n:
        face = rng.choice(g.faces())
        corner = rng.randrange(2)
        g = insert_vertex_reference(g, face, [corner, corner + 2])
    return g


def augment_maximal_planar_reference(g):
    """Fan-triangulate the first big face from its least root whose chord
    is new, re-tracing every face after each chord."""
    while True:
        face = next((f for f in g.faces() if f.degree > 3), None)
        if face is None:
            return g
        b = face.boundary
        k = len(b)
        chord = None
        for _, p in sorted((b[p], p) for p in range(k)):
            for step in range(2, k - 1):
                q = (p + step) % k
                if b[p] != b[q] and not g.has_edge(b[p], b[q]):
                    chord = (p, q)
                    break
            if chord:
                break
        assert chord is not None
        g = insert_chord_reference(g, face, *chord)


def augment_maximal_triangle_free_reference(g):
    """Insert the first triangle-avoiding chord of the first face of degree
    >= 5 that has one, re-tracing every face after each chord."""
    while True:
        chord = None
        for face in g.faces():
            k = face.degree
            if k < 5:
                continue
            b = face.boundary
            for i in range(k):
                for step in range(2, k - 1):
                    j = (i + step) % k
                    u, v = b[i], b[j]
                    if u == v or g.has_edge(u, v):
                        continue
                    if g.adjacency[u] & g.adjacency[v]:
                        continue
                    chord = (face, i, j)
                    break
                if chord:
                    break
            if chord:
                break
        if chord is None:
            return g
        g = insert_chord_reference(g, *chord)
