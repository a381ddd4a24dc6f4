"""Embedded planar graphs given by rotation systems.

A graph is stored as one cyclic neighbour list per vertex.  A built graph
stores no faces: on first use they are traced once, with the
next-edge-in-rotation rule, into a flat dart table.  Dart (u, v) gets the
id ``off[u] + pos[u][v]``, v being ``rotations[u][pos[u][v]]``; the
successor of (u, v) on its face is (v, w), w the neighbour after u
around v; and each dart records the id of its face.  The one-vertex
graph has one face, with an empty walk.  ``faces()``, ``edge_faces`` and
``incident_faces`` are read from the table.  Face ids are stable only
within a single trace.  ``augment.DartBuilder`` keeps a face list in
that order and with those starts while it builds a graph, so it never
re-traces one; the list is not handed over, and the frozen graph traces
its own faces on first use.
"""
from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import accumulate
from math import inf
from typing import NamedTuple, Optional, Sequence

from .errors import (
    AsymmetricAdjacency,
    ContainsTriangle,
    Disconnected,
    EmbeddingInconsistent,
    LoopOrMultiEdge,
    UnverifiedEmbedding,
)


class Face(NamedTuple):
    """One traced face: a cyclic boundary walk."""

    id: int
    boundary: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.boundary)


class EmbeddedGraph:
    """Immutable simple connected graph with a combinatorial embedding.

    ``rotations[v]`` is the cyclic sequence of v's neighbours in embedding
    order.  ``embedding_verified`` marks whether the rotation order is
    trusted (generated / planar_code input) or arbitrary (graph6 input);
    face-dependent operations refuse unverified embeddings.
    """

    __slots__ = (
        "rotations", "embedding_verified", "positions", "__dict__",
    )

    def __init__(
        self,
        rotations: Sequence[Sequence[int]],
        embedding_verified: bool = True,
        positions: Optional[Sequence[tuple[float, float]]] = None,
    ):
        object.__setattr__(self, "rotations",
                           tuple(tuple(r) for r in rotations))
        object.__setattr__(self, "embedding_verified", bool(embedding_verified))
        object.__setattr__(self, "positions",
                           tuple(positions) if positions is not None else None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("EmbeddedGraph is immutable")

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.rotations)

    def degree(self, v: int) -> int:
        return len(self.rotations[v])

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(r) for r in self.rotations)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    @cached_property
    def neighbour_masks(self) -> tuple[int, ...]:
        """Bit mask of each vertex's neighbours: bit u of entry v is set
        iff u is adjacent to v."""
        return tuple(sum(1 << u for u in r) for r in self.rotations)

    @cached_property
    def num_edges(self) -> int:
        return sum(len(r) for r in self.rotations) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n)
                for v in self.rotations[u] if u < v]

    def __eq__(self, other) -> bool:
        return (isinstance(other, EmbeddedGraph)
                and self.rotations == other.rotations)

    def __hash__(self) -> int:
        return hash(self.rotations)

    def __repr__(self) -> str:
        return f"EmbeddedGraph(n={self.n}, m={self.num_edges})"

    # -- faces ---------------------------------------------------------------

    def require_verified(self) -> None:
        if not self.embedding_verified:
            raise UnverifiedEmbedding(
                "operation needs a trusted embedding; parse with rotations "
                "(planar_code / rotation_json) or force the flag")

    def require_triangle_free(self) -> None:
        self.require_verified()
        if not self.is_triangle_free():
            raise ContainsTriangle("graph contains a triangle")

    @cached_property
    def _darts(self) -> tuple[list[int], list[dict[int, int]], list[int],
                              tuple[Face, ...]]:
        """The dart table: dart (u, v) has id ``off[u] + pos[u][v]``, the
        position of v in ``rotations[u]``; ``face`` holds each dart's face
        id; and the faces, traced in dart order."""
        rot = self.rotations
        pos = [{v: i for i, v in enumerate(r)} for r in rot]
        off = [0, *accumulate(map(len, rot))]
        tails = [u for u, r in enumerate(rot) for _ in r]
        # the successor of (u, v) is (v, w), w the next of u around v
        succ = [off[v] + (pos[v][u] + 1) % len(rot[v])
                for u, r in enumerate(rot) for v in r]
        face = [-1] * len(succ)
        faces = [] if succ else [Face(0, ())]
        for d0 in range(len(succ)):
            if face[d0] < 0:
                walk, d, f = [], d0, len(faces)
                while face[d] < 0:
                    face[d] = f
                    walk.append(tails[d])
                    d = succ[d]
                if d != d0:
                    raise EmbeddingInconsistent("face walk does not close")
                faces.append(Face(f, tuple(walk)))
        residual = self.n - self.num_edges + len(faces) - 2
        if residual != 0:
            raise EmbeddingInconsistent(
                f"Euler residual {residual} != 0; not a sphere embedding")
        return off, pos, face, tuple(faces)

    def faces(self) -> tuple[Face, ...]:
        """Trace all faces; each directed edge is used exactly once."""
        self.require_verified()
        return self._darts[3]

    def edge_faces(self, u: int, v: int) -> list[Face]:
        """The faces of darts (u, v) and (v, u), by id: one face twice at
        a bridge."""
        self.require_verified()
        off, pos, face, faces = self._darts
        a, b = sorted((face[off[u] + pos[u][v]], face[off[v] + pos[v][u]]))
        return [faces[a], faces[b]]

    def incident_faces(self, v: int) -> tuple[Face, ...]:
        """The faces of the darts leaving v, by id; a walk that passes v
        several times is listed once."""
        self.require_verified()
        off, _, face, faces = self._darts
        return tuple(faces[f] for f in sorted(set(face[off[v]:off[v + 1]])))

    # -- metrics -------------------------------------------------------------

    def distances_from(self, source: int) -> list[int]:
        dist = [-1] * self.n
        dist[source] = 0
        queue = [source]
        for u in queue:
            for w in self.rotations[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def girth(self) -> float:
        """Length of a shortest cycle, or math.inf for forests."""
        best = inf
        for root in range(self.n):
            dist = [-1] * self.n
            parent = [-1] * self.n
            dist[root] = 0
            queue = [root]
            for u in queue:
                if 2 * dist[u] >= best:
                    break
                for w in self.rotations[u]:
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        queue.append(w)
                    elif parent[u] != w:
                        # non-tree edge closes a cycle through the BFS tree
                        best = min(best, dist[u] + dist[w] + 1)
        return best

    def is_triangle_free(self) -> bool:
        return self._triangle_free

    @cached_property
    def _triangle_free(self) -> bool:
        masks = self.neighbour_masks
        return not any(masks[u] & masks[v] for u, v in self.edges())

    # -- symmetry ------------------------------------------------------------

    @cached_property
    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """All automorphisms of the map, orientation-preserving or
        reversing, as sorted vertex permutations (``p[v]`` is the image of
        v).  Each is also an automorphism of the graph.

        A map automorphism is fixed by the image of one dart and by
        whether it keeps or reverses the rotations, so every candidate
        (image dart, orientation) is propagated through the rotations in
        O(m) and kept if consistent.  The base dart leaves a vertex of the
        rarest degree, which has the fewest candidate images.
        """
        rot = self.rotations
        if self.n == 1:
            return ((0,),)
        pos = [{u: i for i, u in enumerate(r)} for r in rot]
        count = Counter(len(r) for r in rot)
        base = min(range(self.n), key=lambda v: (count[len(rot[v])], v))
        found = set()
        for image in range(self.n):
            if len(rot[image]) == len(rot[base]):
                for i in range(len(rot[image])):
                    for sign in (1, -1):
                        p = _propagate_map(rot, pos, base, image, i, sign)
                        if p is not None:
                            found.add(p)
        return tuple(sorted(found))

    @cached_property
    def orbit_minima(self) -> tuple[int, ...]:
        """The least vertex of each vertex's orbit under the map
        automorphisms."""
        auts = self.automorphisms
        return tuple(min(p[v] for p in auts) for v in range(self.n))


def _propagate_map(rot, pos, base: int, image: int, offset: int,
                   sign: int) -> Optional[tuple[int, ...]]:
    """The map automorphism sending dart (base, rot[base][0]) to
    (image, rot[image][offset]), keeping the rotations (sign 1) or
    reversing them (sign -1); None if there is none."""
    p = [-1] * len(rot)
    taken = [False] * len(rot)
    p[base] = image
    taken[image] = True
    # (u, a, b): dart (u, rot[u][a]) maps to (p[u], rot[p[u]][b])
    queue = [(base, 0, offset)]
    for u, a, b in queue:
        src, dst = rot[u], rot[p[u]]
        d = len(src)
        if len(dst) != d:
            return None
        for j in range(d):
            x = src[(a + j) % d]
            y = dst[(b + sign * j) % d]
            if p[x] < 0:
                if taken[y]:
                    return None
                p[x] = y
                taken[y] = True
                queue.append((x, pos[x][u], pos[y][p[u]]))
            elif p[x] != y:
                return None
    return tuple(p)


def build(
    rotations: Sequence[Sequence[int]],
    embedding_verified: bool = True,
    positions: Optional[Sequence[tuple[float, float]]] = None,
) -> EmbeddedGraph:
    """Validate a rotation table and wrap it as an EmbeddedGraph.

    Rejects loops, repeated neighbours, asymmetric adjacency and
    disconnected input.
    """
    g = EmbeddedGraph(rotations, embedding_verified=embedding_verified,
                      positions=positions)
    n, adj = g.n, g.adjacency
    if n == 0:
        raise Disconnected("empty graph")
    for v, r in enumerate(g.rotations):
        if v in adj[v]:
            raise LoopOrMultiEdge(f"loop at vertex {v}")
        if len(adj[v]) != len(r):
            raise LoopOrMultiEdge(f"repeated neighbour at vertex {v}")
        for u in r:
            if not (0 <= u < n):
                raise AsymmetricAdjacency(
                    f"vertex {v} lists out-of-range neighbour {u}")
    for v, r in enumerate(g.rotations):
        for u in r:
            if v not in adj[u]:
                raise AsymmetricAdjacency(
                    f"{v} lists {u} but {u} does not list {v}")
    unreached = g.distances_from(0).count(-1)
    if unreached:
        raise Disconnected(f"only {n - unreached} of {n} vertices reachable")
    return g
