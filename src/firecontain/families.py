"""Generators for the graph families used throughout the test suites.

Every generator emits a validated EmbeddedGraph whose rotation orders come
from an actual plane (or sphere) drawing, so face tracing closes and the
Euler residual is zero.  Planar solids are built from 3D coordinates: the
rotation at a vertex is its neighbours sorted by angle in the tangent
plane, which is less error-prone than hand-written tables.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

from .embedding import EmbeddedGraph, build
from .errors import BadParameter

HEX_DIRS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
RECT_DIRS = ((1, 0), (0, 1), (-1, 0), (0, -1))


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in _GENERATORS:
            raise BadParameter(f"unknown family {self.family!r}")


def generate(spec: FamilySpec) -> EmbeddedGraph:
    fn = _GENERATORS[spec.family]
    return fn(**spec.params)


def parse_family(text: str) -> FamilySpec:
    """Parse CLI shorthand like ``star:5``, ``rect_grid:4,5``, ``cube``: a
    family name and one integer per parameter of its generator, or the
    name of a platonic solid alone."""
    name, colon, raw = text.partition(":")
    args = raw.split(",") if colon else []
    if name in _PLATONIC_COORDS and not args:
        return FamilySpec("platonic", {"which": name})
    if name not in _GENERATORS or name == "platonic":
        raise BadParameter(f"cannot parse family spec {text!r}")
    params = inspect.signature(_GENERATORS[name]).parameters
    try:  # a non-integer or a wrong count of arguments
        values = dict(zip(params, map(int, args), strict=True))
    except ValueError:
        raise BadParameter(f"family spec {text!r} should be "
                           f"{name}:{','.join(params)}, integers") from None
    return FamilySpec(name, values)


# -- simple families --------------------------------------------------------

def path(n: int) -> EmbeddedGraph:
    if n < 1:
        raise BadParameter("path needs n >= 1")
    rot = []
    for i in range(n):
        nbrs = []
        if i > 0:
            nbrs.append(i - 1)
        if i < n - 1:
            nbrs.append(i + 1)
        rot.append(nbrs)
    pos = [(float(i), 0.0) for i in range(n)]
    return build(rot, positions=pos)


def cycle(n: int) -> EmbeddedGraph:
    if n < 3:
        raise BadParameter("cycle needs n >= 3")
    rot = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
    pos = [(math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n))
           for i in range(n)]
    return build(rot, positions=pos)


def star(n: int) -> EmbeddedGraph:
    """K_{1,n-1}: vertex 0 is the centre."""
    if n < 2:
        raise BadParameter("star needs n >= 2")
    rot = [list(range(1, n))] + [[0] for _ in range(1, n)]
    pos = [(0.0, 0.0)] + [
        (math.cos(2 * math.pi * i / (n - 1)),
         math.sin(2 * math.pi * i / (n - 1))) for i in range(n - 1)]
    return build(rot, positions=pos)


def complete_bipartite_2_m(m: int) -> EmbeddedGraph:
    """K_{2,m} with hubs 0, 1 and the m leaves stacked between them."""
    if m < 1:
        raise BadParameter("K_{2,m} needs m >= 1")
    leaves = list(range(2, m + 2))
    rot = [leaves, leaves[::-1]] + [[0, 1] for _ in leaves]
    pos = [(-1.0, 0.0), (1.0, 0.0)] + [(0.0, float(i)) for i in range(m)]
    return build(rot, positions=pos)


def rect_grid(width: int, height: int) -> EmbeddedGraph:
    if width < 1 or height < 1 or width * height < 2:
        raise BadParameter("rect_grid needs width, height >= 1 and n >= 2")
    def vid(x, y):
        return y * width + x
    rot = []
    pos = []
    for y in range(height):
        for x in range(width):
            nbrs = []
            for dx, dy in RECT_DIRS:
                nx, ny = x + dx, y + dy
                if 0 <= nx < width and 0 <= ny < height:
                    nbrs.append(vid(nx, ny))
            rot.append(nbrs)
            pos.append((float(x), float(y)))
    return build(rot, positions=pos)


def hex_patch(radius: int) -> EmbeddedGraph:
    """Triangular-lattice ball of the given radius (3r^2+3r+1 vertices).

    Interior vertices have degree 6 and all inner faces are triangles; this
    is the triangulated hexagonal-grid neighbourhood used by the degree-6
    containment strategy.
    """
    if radius < 0:
        raise BadParameter("hex_patch needs radius >= 0")
    cells = [(q, r) for q in range(-radius, radius + 1)
             for r in range(-radius, radius + 1)
             if abs(q + r) <= radius]
    cells.sort(key=lambda c: (_hex_dist(c), c))
    index = {c: i for i, c in enumerate(cells)}
    rot = []
    pos = []
    for q, r in cells:
        nbrs = [index[(q + dq, r + dr)] for dq, dr in HEX_DIRS
                if (q + dq, r + dr) in index]
        rot.append(nbrs)
        pos.append((q + r / 2.0, r * math.sqrt(3) / 2.0))
    return build(rot, positions=pos)


def _hex_dist(cell: tuple[int, int]) -> int:
    q, r = cell
    return (abs(q) + abs(r) + abs(q + r)) // 2


# -- platonic solids --------------------------------------------------------

def platonic(which: str) -> EmbeddedGraph:
    if which not in _PLATONIC_COORDS:
        raise BadParameter(f"unknown platonic solid {which!r}")
    verts, edge_len = _PLATONIC_COORDS[which]()
    n = len(verts)
    # neighbours: vertex pairs at the solid's edge length
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if abs(_dist3(verts[i], verts[j]) - edge_len) < 1e-6:
                adj[i].append(j)
                adj[j].append(i)
    rot = [_sort_around(verts, i, adj[i]) for i in range(n)]
    pos = _project_positions(verts)
    return build(rot, positions=pos)


def _dist3(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def _sort_around(verts, i, nbrs):
    """Order i's neighbours by angle in the plane tangent to the sphere."""
    cx, cy, cz = verts[i]
    norm = math.sqrt(cx * cx + cy * cy + cz * cz)
    nx, ny, nz = cx / norm, cy / norm, cz / norm
    # any vector orthogonal to the outward normal
    ref = (1.0, 0.0, 0.0) if abs(nx) < 0.9 else (0.0, 1.0, 0.0)
    ux = ref[1] * nz - ref[2] * ny
    uy = ref[2] * nx - ref[0] * nz
    uz = ref[0] * ny - ref[1] * nx
    un = math.sqrt(ux * ux + uy * uy + uz * uz)
    ux, uy, uz = ux / un, uy / un, uz / un
    vx = ny * uz - nz * uy
    vy = nz * ux - nx * uz
    vz = nx * uy - ny * ux

    def angle(j):
        dx = verts[j][0] - cx
        dy = verts[j][1] - cy
        dz = verts[j][2] - cz
        a = dx * ux + dy * uy + dz * uz
        b = dx * vx + dy * vy + dz * vz
        return math.atan2(b, a)

    return sorted(nbrs, key=angle)


def _project_positions(verts) -> list[tuple[float, float]]:
    # crude stereographic-ish projection for rendering only
    return [(x / (2.2 - z) if abs(2.2 - z) > 1e-9 else x, y / (2.2 - z))
            for x, y, z in verts]


def _tetrahedron():
    v = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    return [tuple(map(float, p)) for p in v], 2 * math.sqrt(2)


def _cube():
    v = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    return [tuple(map(float, p)) for p in v], 2.0


def _octahedron():
    v = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    return [tuple(map(float, p)) for p in v], math.sqrt(2)


_PHI = (1 + math.sqrt(5)) / 2


def _icosahedron():
    v = []
    for a in (-1, 1):
        for b in (-_PHI, _PHI):
            v += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    return v, 2.0


def _dodecahedron():
    v = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    v = [tuple(map(float, p)) for p in v]
    for a in (-1 / _PHI, 1 / _PHI):
        for b in (-_PHI, _PHI):
            v += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    return v, 2 / _PHI


_PLATONIC_COORDS = {
    "tetrahedron": _tetrahedron,
    "cube": _cube,
    "octahedron": _octahedron,
    "dodecahedron": _dodecahedron,
    "icosahedron": _icosahedron,
}

_GENERATORS = {
    "hex_patch": hex_patch,
    "rect_grid": rect_grid,
    "star": star,
    "complete_bipartite_2_m": complete_bipartite_2_m,
    "cycle": cycle,
    "platonic": platonic,
    "path": path,
}
