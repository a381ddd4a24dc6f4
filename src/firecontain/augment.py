"""Embedding-preserving edge and vertex insertion, plus the two
maximality augmentations used before classification.

All insertion goes through ``DartBuilder``, a mutable rotation system
that keeps its faces traced as it grows and freezes once into a
validated ``EmbeddedGraph``.  Its darts carry stable integer labels in
rotation order.  A chord between boundary positions i < j of a face is
placed immediately after the previous boundary vertex in each
endpoint's rotation, which splits the face into two faces; a new vertex
is placed the same way at each boundary vertex it joins.  Both
augmentations run one face-completion loop, ``_complete``, and differ
only in the least face length they complete and the chord they pick.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence

from .embedding import EmbeddedGraph, Face, build
from .errors import (
    BadParameter,
    CannotTriangulate,
    Disconnected,
    LoopOrMultiEdge,
)


_BITS = 40  # a dart's label lies in [0, _SPAN)
_SPAN = 1 << _BITS


class DartBuilder:
    """Mutable rotation system whose face list is kept up to date.

    ``faces`` holds every face boundary in exactly the order and with
    exactly the start that ``EmbeddedGraph.faces()`` traces: faces are
    ranked by their least dart ``(u, position of v in rotations[u])`` and
    walked from it.  Dart (u, v) has a stable label ``index[u][v]`` that
    increases along u's rotation, so the int ``u << _BITS | label`` ranks
    it, and ``keys`` holds the key of each face's first dart: faces are
    found and placed by bisection in C.  ``succ[u][v]`` is the neighbour
    after v around u.  A dart inserted after ``prev`` takes the label
    halfway to the next; when that gap is closed, u's darts are labelled
    afresh and the keys of the faces they lead re-read.  An insertion
    keeps the order of the darts already there, so it only replaces the
    face it splits, at the cost of that face's length and a list shift.
    """

    def __init__(self, g: EmbeddedGraph):
        self.faces: list[tuple[int, ...]] = [f.boundary for f in g.faces()]
        self.index = [_labels(r) for r in g.rotations]
        self.succ = [dict(zip(r, r[1:] + r[:1])) for r in g.rotations]
        self.keys = [self._key(f) for f in self.faces]
        self.positions = None if g.positions is None else list(g.positions)

    @property
    def n(self) -> int:
        return len(self.index)

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
        self.index.append(_labels(rot))
        self.succ.append(dict(zip(rot, rot[1:] + rot[:1])))
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
        return build([sorted(lab, key=lab.__getitem__) for lab in self.index],
                     positions=self.positions)

    # -- face bookkeeping ---------------------------------------------------

    def _locate(self, b: tuple[int, ...]) -> int:
        """Index in ``faces`` of the face walked by ``b``, which may start
        at any of its darts; a walk listed as in ``faces`` is found by its
        first dart alone."""
        k, index = len(b), self.index
        if k < 2 or min(b) < 0 or max(b) >= len(index):
            raise BadParameter(f"{b} is not a face of this graph")
        first = index[b[0]].get(b[1])
        if first is not None:
            at = bisect_left(self.keys, b[0] << _BITS | first)
            if at < len(self.faces) and self.faces[at] == b:
                return at
        try:
            key, s = min((b[i] << _BITS | index[b[i]][b[(i + 1) % k]], i)
                         for i in range(k))
        except KeyError:
            raise BadParameter(f"{b} is not a face of this graph") from None
        at = bisect_left(self.keys, key)
        if at == len(self.faces) or self.faces[at] != b[s:] + b[:s]:
            raise BadParameter(f"{b} is not a face of this graph")
        return at

    def _key(self, f: tuple[int, ...]) -> int:
        """The key of a listed face's first dart; -1 for an empty walk."""
        return f[0] << _BITS | self.index[f[0]][f[1]] if f else -1

    def _insert_after(self, u: int, prev: int, v: int) -> None:
        lab, succ = self.index[u], self.succ[u]
        lo, after = lab[prev], succ[prev]
        hi = lab[after] if lab[after] > lo else _SPAN  # prev is u's last
        succ[prev], succ[v] = v, after
        lab[v] = (lo + hi) // 2
        if lab[v] == lo:
            # the gap is closed: label u's darts afresh (the stable sort
            # puts v, the last key, right after prev), and re-read the
            # keys of the faces that they lead
            self.index[u] = _labels(sorted(lab, key=lab.__getitem__))
            keys = self.keys
            for i in range(bisect_left(keys, u << _BITS),
                           bisect_left(keys, (u + 1) << _BITS)):
                keys[i] = self._key(self.faces[i])

    def _replace_face(self, at: int, new_darts: list[tuple[int, int]]
                      ) -> None:
        """Drop ``faces[at]``, which the insertion split, and trace the
        faces through ``new_darts``: together they cover its darts.  The
        new edges cut the split face, an open disk, into one face per new
        dart, so each walk ends where it started."""
        faces, keys = self.faces, self.keys
        del faces[at], keys[at]
        index, succ = self.index, self.succ
        for u0, v0 in new_darts:
            u, v = u0, v0
            best, s, walk = u << _BITS | index[u][v], 0, []
            while True:
                walk.append(u)
                u, v = v, succ[v][u]
                if u == u0 and v == v0:
                    break
                key = u << _BITS | index[u][v]
                if key < best:
                    best, s = key, len(walk)
            i = bisect_left(keys, best)
            faces.insert(i, tuple(walk[s:] + walk[:s]))
            keys.insert(i, best)


def _labels(order: Sequence[int]) -> dict[int, int]:
    """Labels spread evenly over [0, _SPAN), increasing along ``order``."""
    step = _SPAN // (len(order) + 1)
    return {v: (i + 1) * step for i, v in enumerate(order)}


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


def _complete(g: EmbeddedGraph, min_len: int, chord_rule) -> EmbeddedGraph:
    """Insert the chord that ``chord_rule(builder, face)`` picks, (i, j)
    or None, in the first face of at least ``min_len`` darts that gets
    one, until no face gets one; ``g`` itself when no chord goes in.

    The scan resumes at the split face.  Every face before it was scanned
    and got no chord; a chord only adds edges and leaves those faces as
    they are, so none of them gets one later; and the faces that replace
    a split face rank after every face that preceded it.
    """
    b = DartBuilder(g)
    at, changed = 0, False
    while True:
        for at in range(at, len(b.faces)):
            face = b.faces[at]
            chord = len(face) >= min_len and chord_rule(b, face)
            if chord:
                break
        else:
            return b.freeze() if changed else g
        b.insert_chord(face, *chord)
        changed = True


def _free(b: DartBuilder, u: int, v: int) -> bool:
    return u != v and v not in b.index[u]


def augment_maximal_planar(g: EmbeddedGraph) -> EmbeddedGraph:
    """Insert chords until every face is a triangle.

    Each big face is fan-triangulated from its minimum-id boundary vertex;
    if a fan chord already exists elsewhere in the graph the fan is
    rerooted to the next vertex.  Returns ``g`` itself when it is
    already maximal planar.
    """
    g.require_verified()

    def fan_chord(b: DartBuilder, face: tuple[int, ...]) -> tuple[int, int]:
        k = len(face)  # roots in increasing vertex id, then walk position
        for _, i in sorted((v, i) for i, v in enumerate(face)):
            for j in range(i + 2, i + k - 1):
                if _free(b, face[i], face[j % k]):
                    return i, j % k
        raise CannotTriangulate(f"face {face} admits no new chord")
    return _complete(g, 4, fan_chord)


def augment_maximal_triangle_free(g: EmbeddedGraph) -> EmbeddedGraph:
    """Greedy local maximality: insert triangle-avoiding chords inside
    faces of degree >= 5 until none is insertable.  Returns ``g`` itself
    when no chord is insertable."""
    g.require_triangle_free()

    def first_chord(b: DartBuilder, face: tuple[int, ...]
                    ) -> Optional[tuple[int, int]]:
        k, index = len(face), b.index
        for i, u in enumerate(face):
            for j in range(i + 2, i + k - 1):
                v = face[j % k]
                if _free(b, u, v) and not index[u].keys() & index[v].keys():
                    return i, j % k
        return None
    return _complete(g, 5, first_chord)
