"""Local configuration detection and X/Y vertex classification.

Vertices are split into X (the fire, starting there, can be contained
within the context's burn cap) and Y (everything else).  Three contexts
are supported:

* ``girth5_thm2``: girth >= 5 planar, two firefighters; purely structural.
* ``planar_thm3``: maximal planar, schedule (4, 3), burn cap 6.
* ``trianglefree_thm5``: triangle-free planar, two firefighters, cap 18.

Cheap structural rules run first; in ``exact`` mode the remaining
candidate vertices are decided by the containment search.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .embedding import EmbeddedGraph
from .engine import Schedule, min_burned_containment
from .errors import (
    GirthTooSmall,
    NotTriangulation,
    RequiresExactClassification,
    WrongContext,
)
from .families import HEX_DIRS, RECT_DIRS

SCHEDULES = {
    "girth5_thm2": Schedule.constant(2),
    "planar_thm3": Schedule(4, 3),
    "trianglefree_thm5": Schedule.constant(2),
}
# exact context -> (lattice of its grid test, burn cap)
CLASSIFY = {
    "planar_thm3": ("hex", 6),
    "trianglefree_thm5": ("rect", 18),
}

@dataclass(frozen=True)
class Element:
    """A vertex or a face, tagged with its degree."""

    kind: str  # "vertex" | "face"
    id: int
    degree: int


@dataclass(frozen=True)
class ConfigMatch:
    config: str
    witness: dict


@dataclass
class ClassificationReport:
    context: str
    mode: str  # "rules_only" | "exact"
    labels: dict[int, str]  # vertex -> "X_3", "Y_5", ...
    evidence: dict[int, dict]

    def side(self, v: int) -> str:
        return self.labels[v][0]

    def x_vertices(self) -> list[int]:
        return [v for v, lab in self.labels.items() if lab[0] == "X"]

    def y_vertices(self) -> list[int]:
        return [v for v, lab in self.labels.items() if lab[0] == "Y"]

    def count(self, label: str) -> int:
        return sum(1 for lab in self.labels.values() if lab == label)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for lab in self.labels.values():
            out[lab] = out.get(lab, 0) + 1
        return out

    def to_json(self) -> dict:
        return {
            "context": self.context,
            "mode": self.mode,
            "labels": {str(v): lab for v, lab in sorted(self.labels.items())},
            "evidence": {str(v): ev for v, ev in sorted(self.evidence.items())},
            "counts": dict(sorted(self.counts().items())),
        }


# -- adjacency flavours -----------------------------------------------------

def four_adjacent(g: EmbeddedGraph, u: int, v: int) -> bool:
    """u and v are adjacent, and both faces at the edge have degree 4."""
    return _square_sides(g, u, v) == 2


def five_adjacent(g: EmbeddedGraph, u: int, v: int) -> bool:
    """u and v are adjacent, and one face at the edge has degree 4."""
    return _square_sides(g, u, v) == 1


def _square_sides(g: EmbeddedGraph, u: int, v: int) -> int:
    g.require_verified()
    if not g.has_edge(u, v):
        return 0
    return sum(f.degree == 4 for f in g.edge_faces(u, v))


def contiguous_elements(g: EmbeddedGraph, v: int) -> list[Element]:
    """Faces incident with v plus vertices 4-opposite or 4-adjacent to v
    (each element listed once)."""
    g.require_verified()
    out = [Element("face", f.id, f.degree) for f in g.incident_faces(v)]
    seen = {u for u in g.adjacency[v] if four_adjacent(g, v, u)}
    seen.update(u for u, _ in _opposite_partners(g, v))
    out.extend(Element("vertex", u, g.degree(u)) for u in sorted(seen))
    return out


def _contiguous_vertices(g: EmbeddedGraph, v: int) -> list[int]:
    return [e.id for e in contiguous_elements(g, v) if e.kind == "vertex"]


def _five_adjacent_vertices(g: EmbeddedGraph, v: int) -> list[int]:
    return [u for u in sorted(g.adjacency[v]) if five_adjacent(g, v, u)]


# -- degree-3 configurations (triangle-free context) ------------------------

def detect_local_configs(g: EmbeddedGraph, v: int) -> Iterator[ConfigMatch]:
    """The matching containment-friendly local patterns around a degree-3
    vertex of a triangle-free embedded graph, in order, each found only
    once the previous one is taken; WrongContext at another degree, once
    the first is asked for."""
    if g.degree(v) != 3:
        raise WrongContext(f"vertex {v} has degree {g.degree(v)}, need 3")
    g.require_verified()
    nbrs = sorted(g.adjacency[v])
    # 3.1: a neighbour of degree <= 3
    for u in nbrs:
        if g.degree(u) <= 3:
            yield ConfigMatch("3.1", {"vertex": u})
            break
    # 3.2: a degree-4 neighbour with another neighbour of degree <= 3
    for u in nbrs:
        if g.degree(u) != 4:
            continue
        w = next((w for w in sorted(g.adjacency[u])
                  if w != v and g.degree(w) <= 3), None)
        if w is not None:
            yield ConfigMatch("3.2", {"vertex": u, "low": w})
            break
    opposites = _opposite_partners(g, v)
    # 3.3: 4-opposite to a vertex of degree <= 4
    for u, fid in opposites:
        if g.degree(u) <= 4:
            yield ConfigMatch("3.3", {"vertex": u, "face": fid})
            break
    # 3.4: 4-opposite to a degree-5 vertex with a neighbour of degree <= 3
    for u, fid in opposites:
        if g.degree(u) != 5:
            continue
        w = next((w for w in sorted(g.adjacency[u]) if g.degree(w) <= 3),
                 None)
        if w is not None:
            yield ConfigMatch("3.4", {"vertex": u, "face": fid, "low": w})
            break
    # 3.5: a degree-5 neighbour w with three consecutive neighbours of
    # degree <= 3 (v among them), the middle one 4-adjacent to w
    for w in nbrs:
        if g.degree(w) != 5:
            continue
        rot = g.rotations[w]
        hit = None
        for i in range(5):
            window = [rot[i], rot[(i + 1) % 5], rot[(i + 2) % 5]]
            if v not in window:
                continue
            if any(g.degree(x) > 3 for x in window):
                continue
            mid = window[1]
            if four_adjacent(g, w, mid):
                hit = window
                break
        if hit is not None:
            yield ConfigMatch("3.5", {"vertex": w, "window": hit})
            break
    # 3.6: 4-adjacent to a degree-6 vertex that is 4-adjacent to six
    # vertices of degree <= 3
    for u in nbrs:
        if g.degree(u) != 6:
            continue
        if not four_adjacent(g, v, u):
            continue
        sat = [w for w in sorted(g.adjacency[u])
               if g.degree(w) <= 3 and four_adjacent(g, u, w)]
        if len(sat) >= 6:
            yield ConfigMatch("3.6", {"vertex": u, "low": sat})
            break


def _opposite_partners(g: EmbeddedGraph, v: int) -> list[tuple[int, int]]:
    """(u, face id) for each degree-4 face at v whose far corner u is not
    adjacent to v and is linked to v: some degree-4 face at v reads
    v,a,u,b with a or b of degree 4.  A face walked v,a,v,b has the
    leaves a and b, so v is never linked to itself."""
    far, linked = [], set()
    for f in g.incident_faces(v):
        if f.degree != 4:
            continue
        b = f.boundary
        i = b.index(v)
        u = b[(i + 2) % 4]
        far.append((u, f.id))
        if 4 in (g.degree(b[(i + 1) % 4]), g.degree(b[(i + 3) % 4])):
            linked.add(u)
    return sorted({(u, fid) for u, fid in far
                   if u in linked and not g.has_edge(u, v)})


# -- grid balls: purity test, lattice offsets and escape paths --------------

# lattice -> (directions, walk depth R); offsets reach the plans' R + 1
GRID_LATTICES = {"hex": (HEX_DIRS, 3), "rect": (RECT_DIRS, 7)}


@dataclass(frozen=True)
class EscapePath:
    """A short path leaving the pure grid pattern around a vertex.

    ``donor`` is ("vertex", id) or ("face", id): the off-grid element at
    the far end, used as the charge donor in the discharging rules.
    """
    path: tuple[int, ...]
    donor: tuple[str, int]

    @property
    def length(self) -> int:
        return len(self.path) - 1


def grid_neighborhood_test(g: EmbeddedGraph, v: int, kind: str
                           ) -> tuple[bool, Optional[EscapePath],
                                      Optional[dict]]:
    """Whether v's ``grid_ball`` is pure: it has lattice offsets and no
    escape path; then the ball's escape path and offsets, as it gives
    them."""
    offsets, esc = grid_ball(g, v, kind)
    return esc is None and offsets is not None, esc, offsets


def grid_ball(g: EmbeddedGraph, v: int, lattice: str
              ) -> tuple[Optional[dict], Optional[EscapePath]]:
    """One breadth-first walk from v (sorted neighbours) expanding the
    vertices of the lattice degree, 6 or 4, to depth R, 3 or 7.  Returns
    the ball's offsets (offset -> vertex) in the first orientation that
    fits every expanded rotation, or None; and the walk path to the
    (length, id)-least vertex at depth 1..R of the wrong degree or, for
    ``rect``, with its parent edge on a face of degree >= 5, or None."""
    if lattice not in GRID_LATTICES:
        raise WrongContext(f"unknown grid kind {lattice!r}")
    dirs, depth = GRID_LATTICES[lattice]
    if g.degree(v) != len(dirs):
        raise WrongContext(
            f"{lattice} test needs degree {len(dirs)}, got {g.degree(v)}")
    g.require_verified()
    paths = {v: (v,)}  # the walk path to each vertex reached
    escapes = []  # (length, endpoint, path, donor)
    queue = [v]
    for u in queue:
        d = len(paths[u]) - 1
        if g.degree(u) != len(dirs):
            escapes.append((d, u, paths[u], ("vertex", u)))
            continue
        if lattice == "rect" and d:
            big = [f.id for f in g.edge_faces(u, paths[u][-2])
                   if f.degree >= 5]
            if big:
                escapes.append((d, u, paths[u], ("face", min(big))))
        if d == depth:
            continue
        for w in sorted(g.adjacency[u]):
            if w not in paths:
                paths[w] = paths[u] + (w,)
                queue.append(w)
    walk = [u for u in queue if g.degree(u) == len(dirs)]  # expanded ones
    offsets = (_lattice_offsets(g, walk, dirs, 1)
               or _lattice_offsets(g, walk, dirs, -1))
    return offsets, EscapePath(*min(escapes)[2:]) if escapes else None


def _lattice_offsets(g, walk, dirs, orient):
    """Offsets of the walked ball, rotation index i at an expanded vertex
    pointing along ``align + orient * i``; None on any clash."""
    coord = {walk[0]: (0, 0)}
    at = {(0, 0): walk[0]}
    align = {walk[0]: 0}
    for u in walk:  # a vertex is first reached from its walk parent
        for i, w in enumerate(g.rotations[u]):
            d = (align[u] + orient * i) % len(dirs)
            cw = (coord[u][0] + dirs[d][0], coord[u][1] + dirs[d][1])
            if coord.setdefault(w, cw) != cw or at.setdefault(cw, w) != w:
                return None
            if w not in align:
                j = g.rotations[w].index(u)
                align[w] = (d + len(dirs) // 2 - orient * j) % len(dirs)
    return at


# -- context classifiers ----------------------------------------------------

def classify_girth5(g: EmbeddedGraph) -> ClassificationReport:
    """Two-firefighter classes on girth >= 5 planar graphs; purely
    degree-determined, no solver calls."""
    if g.girth() < 5:
        raise GirthTooSmall(f"girth {g.girth()} < 5")
    labels: dict[int, str] = {}
    evidence: dict[int, dict] = {}
    for v in range(g.n):
        d = g.degree(v)
        if d <= 2:
            labels[v] = "X_2"
            evidence[v] = {"rule": "degree_le_2"}
        elif d == 3:
            low = next((u for u in sorted(g.adjacency[v])
                        if g.degree(u) <= 3), None)
            if low is not None:
                labels[v] = "X_3"
                evidence[v] = {"rule": "low_degree_neighbor", "vertex": low}
            else:
                labels[v] = "Y_3"
                evidence[v] = {"rule": "no_low_neighbor"}
        else:
            labels[v] = "Y_4"
            evidence[v] = {"rule": "degree_ge_4"}
    return ClassificationReport("girth5_thm2", "rules_only", labels, evidence)


def require_triangulation(g: EmbeddedGraph) -> None:
    if any(f.degree != 3 for f in g.faces()):
        raise NotTriangulation("some face is not a triangle")


def classify_planar(g: EmbeddedGraph, mode: str = "exact",
                    node_limit: int = 2_000_000) -> ClassificationReport:
    """Schedule-(4,3) classes on a maximal planar graph, burn cap 6."""
    require_triangulation(g)
    return _classify(g, "planar_thm3", mode, node_limit, lambda v: next(
        ({"rule": "degree5_low_neighbor", "vertex": u}
         for u in sorted(g.adjacency[v]) if g.degree(u) <= 6), None))


def classify_triangle_free(g: EmbeddedGraph, mode: str = "exact",
                           node_limit: int = 2_000_000
                           ) -> ClassificationReport:
    """Two-firefighter classes on a triangle-free planar graph, cap 18."""
    g.require_triangle_free()
    return _classify(g, "trianglefree_thm5", mode, node_limit, lambda v: next(
        ({"rule": f"config_{c.config}", "witness": c.witness}
         for c in detect_local_configs(g, v)), None))


def _classify(g, context, mode, node_limit, local_rule
              ) -> ClassificationReport:
    """The rule pass of an exact context, D the degree of its lattice: a
    vertex of degree above D is Y and below D - 1 is X; at D - 1 it is X
    on the evidence ``local_rule(v)`` gives, if any, and at D if it
    passes the grid test.  Every other vertex goes to the containment
    search within the context's burn cap, which at D first tries the
    lattice plan mapped through the same grid ball."""
    lattice = CLASSIFY[context][0]
    top = len(GRID_LATTICES[lattice][0])
    labels: dict[int, str] = {}
    evidence: dict[int, dict] = {}
    for v in range(g.n):
        d = g.degree(v)
        if d > top:
            labels[v] = f"Y_{d}"
            evidence[v] = {"rule": f"degree_ge_{top + 1}"}
            continue
        offsets = None
        if d < top - 1:
            ev = {"rule": f"degree_le_{top - 2}"}
        elif d == top - 1:
            ev = local_rule(v)
        else:
            pure, _, offsets = grid_neighborhood_test(g, v, lattice)
            ev = {"rule": f"{lattice}_neighborhood"} if pure else None
        if ev is None:
            labels[v], evidence[v] = _resolve_exact(
                g, v, d, mode, context, node_limit, offsets)
        else:
            labels[v], evidence[v] = f"X_{d}", ev
    return ClassificationReport(context, mode, labels, evidence)


def _resolve_exact(g, v, d, mode, context, node_limit, offsets):
    if mode != "exact":
        return f"Y_{d}", {"rule": "unmatched"}
    from . import strategies  # deferred: strategies imports this module
    lattice, burn_cap = CLASSIFY[context]
    probes = strategies.lattice_probes(offsets, lattice)
    res = min_burned_containment(g, v, SCHEDULES[context], burn_cap=burn_cap,
                                 node_limit=node_limit, probes=probes)
    if res.status == "feasible":
        return f"X_{d}", {"rule": "exact", "trace": res.trace.to_json()}
    if res.status == "infeasible":
        return f"Y_{d}", {"rule": "exact_infeasible"}
    return f"Y_{d}", {"rule": "exact_unknown"}


# -- derived special sets and structural checks -----------------------------

def special_sets(g: EmbeddedGraph, report: ClassificationReport) -> dict:
    """The derived set over an exact triangle-free classification:
    Y53 = Y_5 vertices 4-adjacent to three Y_3 vertices."""
    require_exact(report, "trianglefree_thm5")
    y3 = {v for v, lab in report.labels.items() if lab == "Y_3"}
    y5 = {v for v, lab in report.labels.items() if lab == "Y_5"}
    y53 = {}
    for v in sorted(y5):
        partners = [u for u in sorted(g.adjacency[v])
                    if u in y3 and four_adjacent(g, v, u)]
        if len(partners) >= 3:
            y53[v] = partners
    return {"Y53": y53}


def require_exact(report: ClassificationReport, context: str) -> None:
    if report.context != context or report.mode != "exact":
        raise RequiresExactClassification(
            f"needs an exact {context} classification")


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    passed: bool
    counterexamples: tuple = ()


def verify_structural_claims(g: EmbeddedGraph, report: ClassificationReport
                             ) -> list[ClaimResult]:
    """Check the structural consequences of the classification.  Failures
    indicate an implementation bug; they are reported with witnesses."""
    if report.mode != "exact" and report.context != "girth5_thm2":
        raise RequiresExactClassification("claims need exact labels")
    if report.context == "planar_thm3":
        return [check_y5_neighbor_cap(g, report)]
    if report.context != "trianglefree_thm5":
        raise RequiresExactClassification(
            "structural claims apply to the planar or triangle-free context")
    sets = special_sets(g, report)
    y3 = {v for v, lab in report.labels.items() if lab == "Y_3"}
    y53 = set(sets["Y53"])
    out = []
    out.append(_check_y3_contiguous_support(g, report, y3))
    out.append(_check_y5_contiguity_cap(g, report, y3))
    out.append(_check_y3_y53_cap(g, y3, y53))
    out.append(_check_y6_cap(g, report, y3))
    out.append(_check_high_degree_cap(g, report, y3))
    return out


def check_y5_neighbor_cap(g, report):
    """Degree >= 7 vertices have at most floor(d/2) neighbours labelled
    Y_5 (maximal planar context)."""
    bad = []
    for v in range(g.n):
        d = g.degree(v)
        if d < 7:
            continue
        cnt = sum(1 for u in g.adjacency[v] if report.labels[u] == "Y_5")
        if cnt > d // 2:
            bad.append((v, cnt))
    return ClaimResult("high_degree_y5_neighbor_cap", not bad, tuple(bad))


def _check_y3_contiguous_support(g, report, y3):
    """Every Y_3 vertex is contiguous with >= 2 elements of degree >= 5;
    with exactly 2 it is also 5-adjacent to two degree->=5 vertices and
    touches a face of degree >= 5 and a face of degree 4."""
    bad = []
    for v in sorted(y3):
        big = [e for e in contiguous_elements(g, v) if e.degree >= 5]
        if len(big) < 2:
            bad.append((v, "support", len(big)))
        elif len(big) == 2:
            fives = [u for u in _five_adjacent_vertices(g, v)
                     if g.degree(u) >= 5]
            faces = g.incident_faces(v)
            if len(fives) < 2:
                bad.append((v, "five_adjacent", len(fives)))
            if not any(f.degree >= 5 for f in faces) or \
                    not any(f.degree == 4 for f in faces):
                bad.append((v, "face_mix", [f.degree for f in faces]))
    return ClaimResult("y3_contiguous_support", not bad, tuple(bad))


def _check_y5_contiguity_cap(g, report, y3):
    """At most three Y_3 vertices are contiguous with any Y_5 vertex; with
    exactly three they are pairwise non-consecutive neighbours and every
    face at the vertex has degree 4."""
    bad = []
    for v in range(g.n):
        if report.labels[v] != "Y_5":
            continue
        part = [u for u in _contiguous_vertices(g, v) if u in y3]
        if len(part) > 3:
            bad.append((v, "count", part))
        elif len(part) == 3:
            rot = g.rotations[v]
            if not all(u in rot for u in part):
                bad.append((v, "not_neighbors", part))
                continue
            idx = sorted(rot.index(u) for u in part)
            k = len(rot)
            gaps = [(idx[(i + 1) % 3] - idx[i]) % k for i in range(3)]
            if any(gap == 1 for gap in gaps):
                bad.append((v, "consecutive", part))
            if any(f.degree != 4 for f in g.incident_faces(v)):
                bad.append((v, "faces", [f.degree
                                         for f in g.incident_faces(v)]))
    return ClaimResult("y5_y3_contiguity_cap", not bad, tuple(bad))


def _check_y3_y53_cap(g, y3, y53):
    """Every Y_3 vertex is 4-adjacent to at most one Y53 vertex."""
    bad = []
    for v in sorted(y3):
        cnt = [u for u in sorted(g.adjacency[v])
               if u in y53 and four_adjacent(g, v, u)]
        if len(cnt) > 1:
            bad.append((v, cnt))
    return ClaimResult("y3_y53_adjacency_cap", not bad, tuple(bad))


def _y3_near(g, v, y3) -> tuple[set, set]:
    """The Y_3 vertices contiguous with or 5-adjacent to ``v``, and the
    5-adjacent ones."""
    fives = {u for u in _five_adjacent_vertices(g, v) if u in y3}
    return {u for u in _contiguous_vertices(g, v) if u in y3} | fives, fives


def _check_y6_cap(g, report, y3):
    """At most six Y_3 vertices are contiguous with or 5-adjacent to a Y_6
    vertex; with exactly six, at least two are 5-adjacent."""
    bad = []
    for v in range(g.n):
        if report.labels[v] != "Y_6":
            continue
        near, fives = _y3_near(g, v, y3)
        if len(near) > 6:
            bad.append((v, sorted(near)))
        elif len(near) == 6 and len(fives) < 2:
            bad.append((v, "five_adjacent_short", sorted(fives)))
    return ClaimResult("y6_y3_cap", not bad, tuple(bad))


def _check_high_degree_cap(g, report, y3):
    """A degree-d vertex labelled Y with d >= 7 has at most d Y_3 vertices
    contiguous with or 5-adjacent to it."""
    bad = []
    for v in range(g.n):
        d = g.degree(v)
        if d < 7 or report.side(v) != "Y":
            continue
        near, _ = _y3_near(g, v, y3)
        if len(near) > d:
            bad.append((v, sorted(near)))
    return ClaimResult("high_degree_y3_cap", not bad, tuple(bad))
