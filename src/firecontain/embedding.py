"""Embedded planar graphs given by rotation systems.

A graph is stored as one cyclic neighbour list per vertex.  A built graph
stores no faces: they are traced on first use with the next-edge-in-rotation
rule and carry stable ids only within a single trace.  During construction,
``augment.DartBuilder`` keeps the face list up to date, in the same order
and with the same starts as that trace, so generating or augmenting a graph
never re-traces it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf
from typing import Optional, Sequence

from .errors import (
    AsymmetricAdjacency,
    BadParameter,
    Disconnected,
    EmbeddingInconsistent,
    LoopOrMultiEdge,
    UnverifiedEmbedding,
)


@dataclass(frozen=True)
class Face:
    """One traced face: a cyclic boundary walk."""

    id: int
    boundary: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.boundary)

    def vertices(self) -> frozenset[int]:
        return frozenset(self.boundary)


class EmbeddedGraph:
    """Immutable simple connected graph with a combinatorial embedding.

    ``rotations[v]`` is the cyclic sequence of v's neighbours in embedding
    order.  ``embedding_verified`` marks whether the rotation order is
    trusted (generated / planar_code input) or arbitrary (graph6 input);
    face-dependent operations refuse unverified embeddings.
    """

    __slots__ = (
        "rotations", "labels", "embedding_verified", "positions", "__dict__",
    )

    def __init__(
        self,
        rotations: Sequence[Sequence[int]],
        labels: Optional[Sequence[str]] = None,
        embedding_verified: bool = True,
        positions: Optional[Sequence[tuple[float, float]]] = None,
    ):
        object.__setattr__(self, "rotations",
                           tuple(tuple(r) for r in rotations))
        object.__setattr__(self, "labels",
                           tuple(labels) if labels is not None else None)
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

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.rotations[v]

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(r) for r in self.rotations)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    @cached_property
    def num_edges(self) -> int:
        return sum(len(r) for r in self.rotations) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n)
                for v in self.rotations[u] if u < v]

    def vertices(self) -> range:
        return range(self.n)

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

    @cached_property
    def _faces(self) -> tuple[Face, ...]:
        faces = []
        # position of u in rotations[v], for O(1) successor lookup
        pos = [
            {u: i for i, u in enumerate(rot)} for rot in self.rotations
        ]
        seen: set[tuple[int, int]] = set()
        for start_u in range(self.n):
            for start_v in self.rotations[start_u]:
                if (start_u, start_v) in seen:
                    continue
                walk = []
                u, v = start_u, start_v
                while (u, v) not in seen:
                    seen.add((u, v))
                    walk.append(u)
                    i = pos[v][u]
                    w = self.rotations[v][(i + 1) % len(self.rotations[v])]
                    u, v = v, w
                if (u, v) != (start_u, start_v):
                    raise EmbeddingInconsistent("face walk does not close")
                faces.append(Face(len(faces), tuple(walk)))
        residual = self.n - self.num_edges + len(faces) - 2
        if residual != 0:
            raise EmbeddingInconsistent(
                f"Euler residual {residual} != 0; not a sphere embedding")
        return tuple(faces)

    def faces(self) -> tuple[Face, ...]:
        """Trace all faces; each directed edge is used exactly once."""
        self.require_verified()
        return self._faces

    @cached_property
    def _edge_faces(self) -> dict[tuple[int, int], list[Face]]:
        """Map each undirected edge to its (one or two) incident faces."""
        out: dict[tuple[int, int], list[Face]] = {}
        for f in self.faces():
            b = f.boundary
            for i, u in enumerate(b):
                v = b[(i + 1) % len(b)]
                key = (min(u, v), max(u, v))
                out.setdefault(key, []).append(f)
        return out

    def edge_faces(self, u: int, v: int) -> list[Face]:
        return self._edge_faces[(min(u, v), max(u, v))]

    @cached_property
    def _vertex_faces(self) -> tuple[tuple[Face, ...], ...]:
        inc: list[list[Face]] = [[] for _ in range(self.n)]
        for f in self.faces():
            counted = set()
            for v in f.boundary:
                # a face may touch a vertex several times on its walk; for
                # incidence we count it once
                if v not in counted:
                    inc[v].append(f)
                    counted.add(v)
        return tuple(tuple(fs) for fs in inc)

    def incident_faces(self, v: int) -> tuple[Face, ...]:
        self.require_verified()
        return self._vertex_faces[v]

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

    def distance(self, u: int, v: int) -> int:
        return self.distances_from(u)[v]

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
        adj = self.adjacency
        return not any(adj[u] & adj[v] for u, v in self.edges())


def build(
    rotations: Sequence[Sequence[int]] | dict[int, Sequence[int]],
    labels: Optional[Sequence[str]] = None,
    embedding_verified: bool = True,
    positions: Optional[Sequence[tuple[float, float]]] = None,
) -> EmbeddedGraph:
    """Validate a rotation table and wrap it as an EmbeddedGraph.

    Rejects loops, repeated neighbours, asymmetric adjacency and
    disconnected input.
    """
    if isinstance(rotations, dict):
        n = len(rotations)
        if set(rotations) != set(range(n)):
            raise AsymmetricAdjacency(
                f"rotation dict keys must be 0..{n - 1}")
        rotations = [rotations[v] for v in range(n)]
    rot = [tuple(r) for r in rotations]
    n = len(rot)
    if n == 0:
        raise Disconnected("empty graph")
    for v, r in enumerate(rot):
        if v in r:
            raise LoopOrMultiEdge(f"loop at vertex {v}")
        if len(set(r)) != len(r):
            raise LoopOrMultiEdge(f"repeated neighbour at vertex {v}")
        for u in r:
            if not (0 <= u < n):
                raise AsymmetricAdjacency(
                    f"vertex {v} lists out-of-range neighbour {u}")
    sets = [set(r) for r in rot]
    for v, r in enumerate(rot):
        for u in r:
            if v not in sets[u]:
                raise AsymmetricAdjacency(
                    f"{v} lists {u} but {u} does not list {v}")
    # connectivity
    seen = {0}
    queue = [0]
    for u in queue:
        for w in rot[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) != n:
        raise Disconnected(f"only {len(seen)} of {n} vertices reachable")
    return EmbeddedGraph(rot, labels=labels,
                         embedding_verified=embedding_verified,
                         positions=positions)


@dataclass(frozen=True)
class DensityReport:
    avg_degree: Fraction
    girth: float
    bound: Fraction
    bound_satisfied: bool


def density_report(g: EmbeddedGraph) -> DensityReport:
    """Average degree against the Euler bound matching the girth regime."""
    if g.n < 2:
        raise BadParameter("need at least two vertices")
    avg = Fraction(2 * g.num_edges, g.n)
    gth = g.girth()
    if gth >= 6:  # includes forests (girth inf)
        bound = Fraction(3)
    elif gth == 5:
        bound = Fraction(10, 3)
    else:
        bound = Fraction(6)
    return DensityReport(avg_degree=avg, girth=gth, bound=bound,
                         bound_satisfied=avg < bound)
