"""Embedding-preserving edge and vertex insertion, plus the two
maximality augmentations used before classification.

All insertion goes through ``DartBuilder``, a mutable rotation system
that keeps its faces traced as it grows and freezes once into a
validated ``EmbeddedGraph``.  A chord between boundary positions i < j
of a face is placed immediately after the previous boundary vertex in
each endpoint's rotation, which splits the face into two faces; a new
vertex is placed the same way at each boundary vertex it joins.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from .embedding import EmbeddedGraph, Face, build
from .errors import (
    BadParameter,
    CannotTriangulate,
    Disconnected,
    LoopOrMultiEdge,
)


class DartBuilder:
    """Mutable rotation system whose face list is kept up to date.

    ``faces`` holds every face boundary in exactly the order and with
    exactly the start that ``EmbeddedGraph.faces()`` traces: faces are
    ranked by their least dart ``(u, index of v in rotations[u])`` and
    walked from it, so a face's key is read from its first two vertices.
    Inserting into a rotation keeps the relative order of the darts
    already there, so an insertion only removes the face it splits and
    places the faces replacing it by bisection on that key.  The cost of
    an insertion is the length of the split face plus the degree of the
    vertices it touches, not the size of the graph.
    """

    def __init__(self, g: EmbeddedGraph):
        self.faces: list[tuple[int, ...]] = [f.boundary for f in g.faces()]
        self.rotations = [list(r) for r in g.rotations]
        # index[u][v] is the position of v in rotations[u]
        self.index = [{v: i for i, v in enumerate(r)} for r in g.rotations]
        self.positions = None if g.positions is None else list(g.positions)

    @property
    def n(self) -> int:
        return len(self.rotations)

    def insert_vertex(self, face: Sequence[int],
                      attach_positions: Sequence[int]) -> None:
        """Add a new vertex inside ``face`` joined to the given boundary
        positions (in walk order); in a drawn graph it sits at the
        centroid of its neighbours."""
        b = tuple(face)
        at = self._locate(b)
        new = self.n
        attached = _on_walk(b, attach_positions)
        if not attached:
            raise Disconnected(f"new vertex {new} has no neighbour")
        if len(set(attached)) != len(attached):
            raise LoopOrMultiEdge(f"repeated neighbour at vertex {new}")
        for p in attach_positions:
            self._insert_after(b[p], b[(p - 1) % len(b)], new)
        rot = attached[::-1]
        self.rotations.append(rot)
        self.index.append({v: i for i, v in enumerate(rot)})
        if self.positions is not None:
            xs = [self.positions[v][0] for v in attached]
            ys = [self.positions[v][1] for v in attached]
            self.positions.append((sum(xs) / len(xs), sum(ys) / len(ys)))
        self._replace_face(at, [(new, v) for v in rot])

    def insert_chord(self, face: Sequence[int], i: int, j: int) -> None:
        """Add the chord between boundary positions i and j of ``face``."""
        b = tuple(face)
        at = self._locate(b)
        u, v = _on_walk(b, (i, j))
        if u == v:
            raise LoopOrMultiEdge(f"loop at vertex {u}")
        if v in self.index[u]:
            raise LoopOrMultiEdge(f"repeated neighbour at vertex {u}")
        self._insert_after(u, b[(i - 1) % len(b)], v)
        self._insert_after(v, b[(j - 1) % len(b)], u)
        self._replace_face(at, [(u, v), (v, u)])

    def freeze(self) -> EmbeddedGraph:
        """Validate once through ``build``; the frozen graph traces and
        Euler-checks its own faces on first use."""
        return build(self.rotations, positions=self.positions)

    # -- face bookkeeping ---------------------------------------------------

    def _locate(self, b: tuple[int, ...]) -> int:
        """Index in ``faces`` of the face walked by ``b``, which may start
        at any of its darts; a walk listed as in ``faces`` is found by its
        first dart alone."""
        k = len(b)
        index = self.index
        if k < 2 or not 0 <= b[0] < len(index):
            raise BadParameter(f"{b} is not a face of this graph")
        first = index[b[0]].get(b[1])
        if first is not None:
            at = bisect_left(self.faces, (b[0], first), key=self._key)
            if at < len(self.faces) and self.faces[at] == b:
                return at
        if min(b) < 0 or max(b) >= len(index):
            raise BadParameter(f"{b} is not a face of this graph")
        try:
            key, s = min(((b[i], index[b[i]][b[(i + 1) % k]]), i)
                         for i in range(k))
        except KeyError:
            raise BadParameter(f"{b} is not a face of this graph") from None
        at = bisect_left(self.faces, key, key=self._key)
        if at == len(self.faces) or self.faces[at] != b[s:] + b[:s]:
            raise BadParameter(f"{b} is not a face of this graph")
        return at

    def _key(self, f: tuple[int, ...]) -> tuple[int, int]:
        """The least dart of a face listed in ``faces``: its first."""
        return f[0], self.index[f[0]][f[1]]

    def _insert_after(self, u: int, prev: int, v: int) -> None:
        rot, index = self.rotations[u], self.index[u]
        i = index[prev] + 1
        rot.insert(i, v)
        for p in range(i, len(rot)):
            index[rot[p]] = p

    def _replace_face(self, at: int, new_darts: list[tuple[int, int]]
                      ) -> None:
        """Drop ``faces[at]``, which the insertion split, and trace the
        faces through ``new_darts``: together they cover its darts.  The
        new edges cut the split face, an open disk, into one face per new
        dart, so each walk ends where it started."""
        del self.faces[at]
        rotations, index = self.rotations, self.index
        for start in new_darts:
            walk = []
            best = None
            u, v = start
            while True:
                key = (u, index[u][v])
                if best is None or key < best:
                    best, s = key, len(walk)
                walk.append(u)
                rot = rotations[v]
                u, v = v, rot[(index[v][u] + 1) % len(rot)]
                if (u, v) == start:
                    break
            i = bisect_left(self.faces, best, key=self._key)
            self.faces.insert(i, tuple(walk[s:] + walk[:s]))


def _on_walk(b: tuple[int, ...], positions: Sequence[int]) -> list[int]:
    """The vertices at ``positions`` of the walk ``b``."""
    if positions and not 0 <= min(positions) <= max(positions) < len(b):
        raise BadParameter(f"positions {list(positions)} are not all on "
                           f"the walk {b}")
    return [b[p] for p in positions]


def insert_chord(g: EmbeddedGraph, face: Face, i: int, j: int
                 ) -> EmbeddedGraph:
    """Add the chord between boundary positions i and j of ``face``."""
    b = DartBuilder(g)
    b.insert_chord(face.boundary, i, j)
    return b.freeze()


def insert_vertex_in_face(g: EmbeddedGraph, face: Face,
                          attach_positions: Sequence[int]) -> EmbeddedGraph:
    """Add a new vertex inside ``face`` joined to the given boundary
    positions (in walk order)."""
    b = DartBuilder(g)
    b.insert_vertex(face.boundary, attach_positions)
    return b.freeze()


def _chord_ok(b: DartBuilder, u: int, v: int) -> bool:
    return u != v and v not in b.index[u]


def augment_maximal_planar(g: EmbeddedGraph) -> EmbeddedGraph:
    """Insert chords until every face is a triangle.

    Each big face is fan-triangulated from its minimum-id boundary vertex;
    if a fan chord already exists elsewhere in the graph the fan is
    rerooted to the next vertex.  Returns ``g`` itself when it is
    already maximal planar.
    """
    g.require_verified()
    b = DartBuilder(g)
    # the faces that replace a split face all rank after every face that
    # preceded it, so the first big face never moves backwards
    at = 0
    changed = False
    while True:
        at = next((i for i in range(at, len(b.faces))
                   if len(b.faces[i]) > 3), None)
        if at is None:
            return b.freeze() if changed else g
        face = b.faces[at]
        k = len(face)
        chord = None
        # roots in increasing vertex id, then walk position
        for _, p in sorted((face[p], p) for p in range(k)):
            for step in range(2, k - 1):
                q = (p + step) % k
                if _chord_ok(b, face[p], face[q]):
                    chord = (p, q)
                    break
            if chord:
                break
        if chord is None:
            raise CannotTriangulate(f"face {face} admits no new chord")
        b.insert_chord(face, *chord)
        changed = True


def augment_maximal_triangle_free(g: EmbeddedGraph) -> EmbeddedGraph:
    """Greedy local maximality: insert triangle-avoiding chords inside
    faces of degree >= 5 until none is insertable.  Returns ``g`` itself
    when no chord is insertable."""
    g.require_triangle_free()
    b = DartBuilder(g)
    index = b.index
    # a face with no insertable chord keeps none, since edges are only
    # added, and the faces replacing a split face rank after it: so the
    # scan resumes at the last split face instead of the first face
    at = 0
    changed = False
    while True:
        chord = None
        for at in range(at, len(b.faces)):
            face = b.faces[at]
            k = len(face)
            if k < 5:
                continue
            for i in range(k):
                for step in range(2, k - 1):
                    j = (i + step) % k
                    u, v = face[i], face[j]
                    if not _chord_ok(b, u, v):
                        continue
                    if index[u].keys() & index[v].keys():
                        continue  # chord would close a triangle
                    chord = (face, i, j)
                    break
                if chord:
                    break
            if chord:
                break
        if chord is None:
            return b.freeze() if changed else g
        b.insert_chord(*chord)
        changed = True
