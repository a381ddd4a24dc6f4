import xml.etree.ElementTree as ET

from firecontain import families as F, render
from firecontain.engine import Schedule, sn_exact


def _trace(g, start, sched):
    return sn_exact(g, start, sched).trace


def test_render_round_is_valid_svg():
    g = F.path(5)
    trace = _trace(g, 2, Schedule.constant(1))
    svg = render.render_round(g, trace, 0)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    # every vertex appears as a shape and every edge as a line
    lines = [e for e in root.iter() if e.tag.endswith("line")]
    assert len(lines) == g.num_edges


def test_render_trace_progression():
    g = F.platonic("cube")
    trace = _trace(g, 0, Schedule.constant(1))
    svgs = render.render_trace(g, trace)
    assert len(svgs) == len(trace.masks) + 1

    def burned_squares(svg):
        root = ET.fromstring(svg)
        return sum(1 for e in root.iter() if e.tag.endswith("rect"))

    counts = [burned_squares(s) for s in svgs]
    assert counts[0] == 1  # only the ignition vertex
    assert counts == sorted(counts)  # burning is monotone
    assert counts[-1] == trace.burned_count


def test_render_uses_positions_or_circle():
    g = F.rect_grid(3, 3)
    trace = _trace(g, 4, Schedule.constant(2))
    assert "<svg" in render.render_round(g, trace, 1)
    from firecontain.embedding import build
    g2 = build([list(r) for r in g.rotations])  # no positions
    assert g2.positions is None
    assert "<svg" in render.render_round(g2, trace, 1)


def test_render_deterministic():
    g = F.platonic("cube")
    trace = _trace(g, 0, Schedule.constant(1))
    assert render.render_trace(g, trace) == render.render_trace(g, trace)
