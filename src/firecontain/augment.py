"""Embedding-preserving edge and vertex insertion, plus the two
maximality augmentations used before classification.

All insertion goes through ``DartBuilder``, a mutable rotation system
that keeps its face list as it grows and freezes once into a validated
``EmbeddedGraph`` without positions.  An inserted dart goes right after
the previous boundary vertex of its face, and so right before the next,
so the faces that split a face are written down from its boundary.  Both
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
    found and placed by bisection in C.  The dart after (u, v) on a face
    is (v, w), w after u around v; a dart put in at v between u and w
    takes the label halfway between theirs, and when that gap is closed
    v's darts are labelled afresh.  An insertion keeps the order of the
    darts already there, so it only replaces the face it splits.
    """

    def __init__(self, g: EmbeddedGraph):
        self.faces: list[tuple[int, ...]] = [f.boundary for f in g.faces()]
        self.index = [_labels(r) for r in g.rotations]
        self.keys = [self._key(f) for f in self.faces]

    @property
    def n(self) -> int:
        return len(self.index)

    def insert_vertex(self, face: Sequence[int],
                      attach_positions: Sequence[int]) -> None:
        """Add a new vertex inside ``face`` joined to the given boundary
        positions, in cyclic walk order."""
        b = tuple(face)
        at = self._locate(b)
        new, k, ps = self.n, len(b), list(attach_positions)
        attached = _on_walk(b, ps)
        if not attached:
            raise Disconnected(f"new vertex {new} has no neighbour")
        if len(set(attached)) != len(attached):
            raise LoopOrMultiEdge(f"repeated neighbour at vertex {new}")
        arcs = [_arc(b, p, q) for p, q in zip(ps, ps[1:] + ps[:1])]
        if sum(len(arc) - 1 for arc in arcs) != k:
            raise BadParameter(f"positions {ps} are out of walk order")
        for p in ps:
            self._insert_between(b[p], b[p - 1], new, b[(p + 1) % k])
        self.index.append(_labels(attached[::-1]))
        self._replace_face(at, [(new,) + arc for arc in arcs])

    def insert_chord(self, face: Sequence[int], i: int, j: int) -> None:
        """Add the chord between boundary positions i and j of ``face``."""
        b = tuple(face)
        at = self._locate(b)
        u, v = _on_walk(b, (i, j))
        if u == v:
            raise LoopOrMultiEdge(f"loop at vertex {u}")
        if v in self.index[u]:
            raise LoopOrMultiEdge(f"repeated neighbour at vertex {u}")
        self._insert_between(u, b[i - 1], v, b[(i + 1) % len(b)])
        self._insert_between(v, b[j - 1], u, b[(j + 1) % len(b)])
        self._replace_face(at, [_arc(b, i, j), _arc(b, j, i)])

    def stack(self, at: int, corner: int = 0) -> None:
        """Join a new vertex to every corner of ``faces[at]``, a triangle,
        or to corners ``corner`` and ``corner + 2`` of a quadrilateral;
        its vertices must be distinct.  The new vertex has the largest
        id, so each new face is listed from its least old vertex, and the
        one through the split face's first dart takes its place."""
        f, x, put = self.faces[at], len(self.index), self._insert_between
        if len(f) == 3:
            a, b, c = f
            put(a, c, x, b)
            put(b, a, x, c)
            put(c, b, x, a)
            self.index.append(_labels((c, b, a)))
            self.faces[at] = (a, b, x)
            self._place((a, x, c))
            self._place((b, c, x) if b < c else (c, x, b))
        elif corner:
            a, b, c, d = f
            put(b, a, x, c)
            put(d, c, x, a)
            self.index.append(_labels((d, b)))
            self.faces[at] = (a, b, x, d)
            m = min(b, c, d)
            self._place((b, c, d, x) if m == b else
                        (c, d, x, b) if m == c else (d, x, b, c))
        else:
            a, b, c, d = f
            put(a, d, x, b)
            put(c, b, x, d)
            self.index.append(_labels((c, a)))
            self.faces[at] = (a, b, c, x)
            self._place((a, x, c, d))

    def freeze(self) -> EmbeddedGraph:
        """Validate once through ``build``; the frozen graph traces and
        Euler-checks its own faces on first use."""
        return build([sorted(lab, key=lab.__getitem__) for lab in self.index])

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
            key, s = self._least(b)
        except KeyError:
            raise BadParameter(f"{b} is not a face of this graph") from None
        at = bisect_left(self.keys, key)
        if at == len(self.faces) or self.faces[at] != b[s:] + b[:s]:
            raise BadParameter(f"{b} is not a face of this graph")
        return at

    def _key(self, f: tuple[int, ...]) -> int:
        """The key of a listed face's first dart; -1 for an empty walk."""
        return f[0] << _BITS | self.index[f[0]][f[1]] if f else -1

    def _least(self, w: tuple[int, ...]) -> tuple[int, int]:
        """The key and the position of the least dart of the walk ``w``."""
        k, index = len(w), self.index
        return min((w[i] << _BITS | index[w[i]][w[(i + 1) % k]], i)
                   for i in range(k))

    def _insert_between(self, u: int, prev: int, v: int, after: int
                        ) -> None:
        """Label dart (u, v) to go between ``prev`` and ``after``."""
        lab = self.index[u]
        lo, hi = lab[prev], lab[after]
        lab[v] = (lo + hi) // 2 if hi > lo else (lo + _SPAN) // 2
        if lab[v] == lo:
            self._relabel(u)

    def _relabel(self, u: int) -> None:
        """Label u's darts afresh, the last one labelled right after the
        one it tied with, and re-read the keys of the faces they lead."""
        lab = self.index[u] = _labels(sorted(self.index[u],
                                              key=self.index[u].__getitem__))
        keys, faces = self.keys, self.faces
        for i in range(bisect_left(keys, u << _BITS),
                       bisect_left(keys, (u + 1) << _BITS)):
            keys[i] = u << _BITS | lab[faces[i][1]]

    def _place(self, f: tuple[int, ...]) -> None:
        """List the face ``f``, walked from its least dart."""
        key = self._key(f)
        at = bisect_left(self.keys, key)
        self.faces.insert(at, f)
        self.keys.insert(at, key)

    def _replace_face(self, at: int, walks: list[tuple[int, ...]]) -> None:
        """Drop ``faces[at]``, which an insertion split, and list the
        closed walks it was split into, each from its least dart."""
        del self.faces[at], self.keys[at]
        for w in walks:
            _, s = self._least(w)
            self._place(w[s:] + w[:s])


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


def _arc(b: tuple[int, ...], p: int, q: int) -> tuple[int, ...]:
    """The walk ``b`` from position p to q, once round when p == q."""
    return (b + b)[p:p + (q - p - 1) % len(b) + 2]


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
