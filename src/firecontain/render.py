"""SVG rendering of simulation traces, one image per round.

Burned vertices are drawn as squares labelled with the round they caught
fire; protected vertices are circles labelled with their protection
round; everything else is a small dot.
"""
from __future__ import annotations

import math

from .embedding import EmbeddedGraph
from .engine import SimTrace, _vertices

_SCALE = 60.0
_MARGIN = 40.0
_R = 9.0


def _layout(g: EmbeddedGraph) -> list[tuple[float, float]]:
    if g.positions is not None:
        pts = [tuple(p) for p in g.positions]
    else:
        pts = [(math.cos(2 * math.pi * v / g.n),
                math.sin(2 * math.pi * v / g.n)) for v in range(g.n)]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    w = max(xs) - min(xs) or 1.0
    h = max(ys) - min(ys) or 1.0
    s = _SCALE * max(1.0, 6.0 / max(w, h))
    return [((p[0] - min(xs)) * s + _MARGIN,
             (max(ys) - p[1]) * s + _MARGIN) for p in pts]


def render_round(g: EmbeddedGraph, trace: SimTrace, upto: int) -> str:
    """One SVG showing the state after ``upto`` rounds (0 = ignition)."""
    pts = _layout(g)
    burned = {trace.start: 0}
    protected: dict[int, int] = {}
    for rno, (prot, burn) in enumerate(trace.masks[:upto], start=1):
        for v in _vertices(prot):
            protected[v] = rno
        for v in _vertices(burn):
            burned[v] = rno
    width = max(p[0] for p in pts) + _MARGIN
    height = max(p[1] for p in pts) + _MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<title>round {upto}</title>',
    ]
    for u, v in g.edges():
        (x1, y1), (x2, y2) = pts[u], pts[v]
        parts.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
                     f'y2="{y2:.1f}" stroke="#999" stroke-width="1"/>')
    for v, (x, y) in enumerate(pts):
        if v in burned:
            parts.append(
                f'<rect x="{x - _R:.1f}" y="{y - _R:.1f}" '
                f'width="{2 * _R:.0f}" height="{2 * _R:.0f}" '
                f'fill="#e66" stroke="#600"/>')
            label = burned[v]
        elif v in protected:
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{_R:.0f}" '
                         f'fill="#9cf" stroke="#036"/>')
            label = protected[v]
        else:
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" '
                         f'fill="#444"/>')
            continue
        parts.append(
            f'<text x="{x:.1f}" y="{y + 3.5:.1f}" font-size="10" '
            f'text-anchor="middle" font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def render_trace(g: EmbeddedGraph, trace: SimTrace) -> list[str]:
    """SVG documents for rounds 0 .. len(trace.masks)."""
    return [render_round(g, trace, k) for k in range(len(trace.masks) + 1)]
