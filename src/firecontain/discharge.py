"""Discharging in exact rational arithmetic: initial charges, transfer
rules, conservation audits, and the X/Y counting consequences.

Two contexts:

* ``planar_sigma``: maximal planar; vertex charge d(v) - 6, total -12;
  rules R1 (high-degree vertices support Y_5 neighbours) and R2 (the
  end of the depth-3 ``classify.grid_ball`` escape path supports Y_6).
* ``trianglefree_nu``: triangle-free; vertices and faces carry d - 4,
  total -8; rules S1-S4 support Y_3 vertices and S5 supports Y_4 via the
  depth-7 ``grid_ball`` escape path (its end vertex or big face).

Integral charges are ``int`` and the others ``fractions.Fraction``, so a
fraction is built only where a transfer makes a charge fractional; the
conservation check stays exact.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain
from typing import Optional

from . import classify
from .classify import (
    ClassificationReport,
    contiguous_elements,
    five_adjacent,
    grid_ball,
    require_exact,
    special_sets,
)
from .embedding import EmbeddedGraph
from .errors import HypothesisViolated, NoEscapePath, NotTwoConnected
from .formats import rational

PLANAR_ALPHA = Fraction(1, 872)
TF_ALPHA = Fraction(1, 360720)
TF_BETA = 2186 * TF_ALPHA

# crude per-donor frequency caps for the escape-path rules (paths counted
# through bounded-degree interiors)
R2_PATHS_PER_DEGREE = 31      # 1 + 5 + 25
S5_VERTEX_PATHS_PER_DEGREE = 1093   # 1 + 3 + ... + 3^6
S5_FACE_PATHS_PER_DEGREE = 728      # 2 * (1 + 3 + ... + 3^5)


@dataclass(frozen=True)
class TransferRecord:
    rule: str
    donor: tuple[str, int]
    recipient: tuple[str, int]
    amount: Fraction
    witness: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "donor": list(self.donor),
            "recipient": list(self.recipient),
            "amount": rational(self.amount),
            "witness": self.witness,
        }


@dataclass(frozen=True)
class ChargeLedger:
    context: str  # "planar_sigma" | "trianglefree_nu"
    vertex_charge: dict[int, int | Fraction]
    face_charge: dict[int, int | Fraction]
    alpha: Fraction
    beta: Optional[Fraction]
    transfers: tuple[TransferRecord, ...] = ()

    def total(self) -> Fraction:
        """The exact sum of all charges: numerators are added per
        denominator, then one ``Fraction`` is built per denominator."""
        numerators: dict[int, int] = {}
        for c in chain(self.vertex_charge.values(),
                       self.face_charge.values()):
            d = c.denominator
            numerators[d] = numerators.get(d, 0) + c.numerator
        return sum((Fraction(n, d) for d, n in numerators.items()),
                   Fraction(0))

    def with_transfers(self, records: list[TransferRecord]) -> "ChargeLedger":
        vc = dict(self.vertex_charge)
        fc = dict(self.face_charge)
        for r in records:
            src = vc if r.donor[0] == "vertex" else fc
            dst = vc if r.recipient[0] == "vertex" else fc
            src[r.donor[1]] -= r.amount
            dst[r.recipient[1]] += r.amount
        return replace(self, vertex_charge=vc, face_charge=fc,
                       transfers=self.transfers + tuple(records))


def replay_transfers(initial: ChargeLedger, final: ChargeLedger) -> bool:
    """Re-apply the final ledger's log to the initial charges and compare."""
    redo = initial.with_transfers(list(final.transfers))
    return redo.vertex_charge == final.vertex_charge and \
        redo.face_charge == final.face_charge


# -- escape-path rules ------------------------------------------------------

# lattice -> (escape-path rule, name of its grid)
_ESCAPE_RULES = {"hex": ("R2", "hex"), "rect": ("S5", "square-grid")}


def _escape_transfers(g, ledger, classification, lattice):
    """R2 or S5: for every Y vertex of the lattice degree, the donor at
    the end of its ``grid_ball`` escape path gives alpha."""
    rule, grid = _ESCAPE_RULES[lattice]
    label = f"Y_{len(classify.GRID_LATTICES[lattice][0])}"
    for v in range(g.n):
        if classification.labels[v] != label:
            continue
        _, esc = grid_ball(g, v, lattice)
        if esc is None:
            raise NoEscapePath(
                f"{label} vertex {v} sits in a pure {grid} neighbourhood")
        yield TransferRecord(rule, esc.donor, ("vertex", v), ledger.alpha,
                             witness={"path": list(esc.path)})


# -- planar context ---------------------------------------------------------

def init_planar_charges(g: EmbeddedGraph,
                        alpha: Fraction = PLANAR_ALPHA) -> ChargeLedger:
    classify.require_triangulation(g)
    if g.n < 4:  # K3, the one triangulation with a degree-2 vertex
        raise HypothesisViolated("the planar charges need minimum degree 3")
    vc = {v: g.degree(v) - 6 for v in range(g.n)}
    ledger = ChargeLedger("planar_sigma", vc, {}, alpha, None)
    assert ledger.total() == -12
    return ledger


def transfer_planar(g: EmbeddedGraph, ledger: ChargeLedger,
                    classification: ClassificationReport) -> ChargeLedger:
    """Apply the planar rules.  R1: every degree >= 7 vertex gives 1/4 to
    each Y_5 neighbour.  R2: for every Y_6 vertex, the escape-path
    endpoint (degree != 6, distance <= 3) gives alpha."""
    require_exact(classification, "planar_thm3")
    records: list[TransferRecord] = []
    for v in range(g.n):
        if g.degree(v) < 7:
            continue
        for u in sorted(g.adjacency[v]):
            if classification.labels[u] == "Y_5":
                records.append(TransferRecord(
                    "R1", ("vertex", v), ("vertex", u), Fraction(1, 4)))
    records.extend(_escape_transfers(g, ledger, classification, "hex"))
    return ledger.with_transfers(records)


# -- triangle-free context --------------------------------------------------

def init_tf_charges(g: EmbeddedGraph,
                    alpha: Fraction = TF_ALPHA,
                    beta: Optional[Fraction] = None) -> ChargeLedger:
    g.require_triangle_free()
    for f in g.faces():
        if f.degree < 3 or len(set(f.boundary)) != f.degree:
            raise NotTwoConnected(
                f"face {f.id} is shorter than 3 or repeats a vertex; "
                f"boundaries must be cycles")
    if beta is None:
        beta = 2186 * alpha
    vc = {v: g.degree(v) - 4 for v in range(g.n)}
    fc = {f.id: f.degree - 4 for f in g.faces()}
    ledger = ChargeLedger("trianglefree_nu", vc, fc, alpha, beta)
    assert ledger.total() == -8
    return ledger


def transfer_tf(g: EmbeddedGraph, ledger: ChargeLedger,
                classification: ClassificationReport) -> ChargeLedger:
    """Apply the triangle-free rules S1-S5 (see module docstring)."""
    require_exact(classification, "trianglefree_thm5")
    beta = ledger.beta
    sets = special_sets(g, classification)
    y53 = sets["Y53"]
    y3 = {v for v, lab in classification.labels.items() if lab == "Y_3"}
    records: list[TransferRecord] = []
    # S1: a Y53 vertex gives 1/3 - beta to each of its three 4-adjacent
    # Y_3 neighbours
    for v in sorted(y53):
        for u in y53[v]:
            records.append(TransferRecord(
                "S1", ("vertex", v), ("vertex", u), Fraction(1, 3) - beta))
    # S2: a degree >= 5 vertex not in Y53 gives 2/5 - beta to each Y_3
    # vertex it is contiguous with
    for v in sorted(y3):
        for e in contiguous_elements(g, v):
            if e.kind != "vertex" or e.degree < 5 or e.id in y53:
                continue
            records.append(TransferRecord(
                "S2", ("vertex", e.id), ("vertex", v), Fraction(2, 5) - beta))
    # S3: a degree >= 5 vertex gives 1/10 - beta to each Y_3 vertex it is
    # 5-adjacent to
    for v in sorted(y3):
        for u in sorted(g.adjacency[v]):
            if g.degree(u) < 5:
                continue
            if five_adjacent(g, v, u):
                records.append(TransferRecord(
                    "S3", ("vertex", u), ("vertex", v),
                    Fraction(1, 10) - beta))
    # S4: a face of degree >= 5 gives 1/2 - beta to each incident Y_3
    # vertex
    for v in sorted(y3):
        for f in g.incident_faces(v):
            if f.degree >= 5:
                records.append(TransferRecord(
                    "S4", ("face", f.id), ("vertex", v),
                    Fraction(1, 2) - beta))
    # S5: the escape-path endpoint (or its big face) gives alpha to each
    # Y_4 vertex
    records.extend(_escape_transfers(g, ledger, classification, "rect"))
    return ledger.with_transfers(records)


# -- audits -----------------------------------------------------------------

@dataclass
class AuditReport:
    context: str
    conservation_residual: Fraction
    bound_violations: list
    strict_x_bound: bool
    counting_ok: bool
    crude_counts_ok: bool
    x: int
    y: int
    counting_factor: Fraction
    extras: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (self.conservation_residual == 0
                and not self.bound_violations
                and self.counting_ok and self.crude_counts_ok)

    def to_json(self, transfers: tuple[TransferRecord, ...] = ()) -> dict:
        return {
            "context": self.context,
            "conservation_residual": rational(self.conservation_residual),
            "bound_violations": [list(map(str, v))
                                 for v in self.bound_violations],
            "strict_x_bound": self.strict_x_bound,
            "counting_ok": self.counting_ok,
            "crude_counts_ok": self.crude_counts_ok,
            "x": self.x,
            "y": self.y,
            "counting_factor": rational(self.counting_factor),
            "extras": self.extras,
            "transfers": [t.to_json() for t in transfers],
            "ok": self.ok,
        }


def audit_planar(g: EmbeddedGraph, ledger: ChargeLedger,
                 classification: ClassificationReport) -> AuditReport:
    """Check conservation (-12), the per-class charge bounds, the Y_5
    neighbour cap, the counting consequence (|Y| <= factor |X|), and the
    crude donor-frequency caps."""
    a = ledger.alpha
    cap = classify.check_y5_neighbor_cap(g, classification)
    return _audit(g, ledger, classification, total=-12, x_bound=-3 - 93 * a,
                  factor=93 + 3 / a, below=operator.le,
                  extra=[("vertex", v, "y5_neighbor_cap", cnt)
                         for v, cnt in cap.counterexamples],
                  vertex_caps={"R2": R2_PATHS_PER_DEGREE}, face_caps={})


def audit_tf(g: EmbeddedGraph, ledger: ChargeLedger,
             classification: ClassificationReport) -> AuditReport:
    """Check conservation (-8), the per-class vertex bounds, nonnegative
    face charges, the counting consequence (|Y| < factor |X|), and the
    donor caps."""
    a, b = ledger.alpha, ledger.beta
    return _audit(g, ledger, classification, total=-8, x_bound=-2 - b,
                  factor=(2 + b) / a, below=operator.lt, extra=[],
                  vertex_caps={"S5": S5_VERTEX_PATHS_PER_DEGREE},
                  face_caps={"S5": S5_FACE_PATHS_PER_DEGREE})


def _audit(g, ledger, classification, *, total, x_bound, factor, below,
           extra, vertex_caps, face_caps) -> AuditReport:
    """The audit of both contexts: the charges sum to ``total``, an X
    vertex keeps at least ``x_bound``, a Y vertex at least alpha and a
    face at least 0, and the counting consequence holds if X and Y are
    both empty or ``below(y, factor * x)``.  ``extra`` lists the
    context's own violations."""
    violations = []
    strict = True
    # an int charge is below a bound iff it is below the bound's ceiling,
    # so only fractional charges are compared with the Fraction bounds
    x_ceil, y_ceil = math.ceil(x_bound), math.ceil(ledger.alpha)
    for v in range(g.n):
        c = ledger.vertex_charge[v]
        frac = type(c) is not int
        if classification.side(v) == "X":
            if c < (x_bound if frac else x_ceil):
                violations.append(("vertex", v, "x_bound", c))
            elif c == x_bound:
                strict = False
        elif c < (ledger.alpha if frac else y_ceil):
            violations.append(("vertex", v, "y_bound", c))
    violations.extend(("face", f, "face_bound", c)
                      for f, c in ledger.face_charge.items() if c < 0)
    violations.extend(extra)
    x = len(classification.x_vertices())
    y = len(classification.y_vertices())
    return AuditReport(
        context=ledger.context,
        conservation_residual=ledger.total() - total,
        bound_violations=violations,
        strict_x_bound=strict,
        counting_ok=x == y == 0 or below(y, factor * x),
        crude_counts_ok=_check_crude(g, ledger, vertex_caps, face_caps),
        x=x, y=y, counting_factor=factor)


def _check_crude(g, ledger, vertex_caps, face_caps) -> bool:
    counts: dict[tuple, int] = {}
    for t in ledger.transfers:
        key = (t.rule, t.donor)
        counts[key] = counts.get(key, 0) + 1
    for (rule, donor), cnt in counts.items():
        kind, eid = donor
        if kind == "vertex" and rule in vertex_caps:
            if cnt > vertex_caps[rule] * g.degree(eid):
                return False
        if kind == "face" and rule in face_caps:
            if cnt > face_caps[rule] * g.faces()[eid].degree:
                return False
    return True
