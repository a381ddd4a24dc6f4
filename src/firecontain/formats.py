"""Graph input/output: planar_code, graph6 and rotation_json.

planar_code carries the rotation system verbatim and yields verified
embeddings.  graph6 has no embedding information: it is accepted only with
``allow_unverified=True`` and the result is flagged so that face-dependent
operations refuse it.  ``rational`` is the "p/q" text of every exact
rational in the JSON output.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable

from .embedding import EmbeddedGraph, build
from .errors import (
    MalformedHeader,
    TruncatedRecord,
    UnverifiedEmbedding,
    VertexIndexOutOfRange,
)

PLANAR_CODE_HEADER = b">>planar_code<<"
FORMATS = ("graph6", "planar_code", "rotation_json")


def rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse(data: bytes, fmt: str, allow_unverified: bool = False
          ) -> list[EmbeddedGraph]:
    """Parse one input blob into a list of embedded graphs."""
    if fmt == "planar_code":
        return parse_planar_code(data)
    if fmt == "graph6":
        if not allow_unverified:
            raise UnverifiedEmbedding(
                "graph6 carries no embedding; pass allow_unverified=True to "
                "accept an arbitrary rotation order")
        return parse_graph6(data)
    if fmt == "rotation_json":
        return parse_rotation_json(data)
    raise MalformedHeader(f"unknown format {fmt!r}")


# -- planar_code ------------------------------------------------------------

def parse_planar_code(data: bytes) -> list[EmbeddedGraph]:
    if not data.startswith(PLANAR_CODE_HEADER):
        raise MalformedHeader("missing >>planar_code<< header")
    body = data[len(PLANAR_CODE_HEADER):]
    graphs = []
    i = 0
    while i < len(body):
        n = body[i]
        i += 1
        if n == 0:
            raise MalformedHeader("planar_code record with n = 0")
        rotations = []
        for v in range(n):
            nbrs = []
            while True:
                if i >= len(body):
                    raise TruncatedRecord(
                        f"record ended inside vertex {v} of {n}")
                b = body[i]
                i += 1
                if b == 0:
                    break
                if b > n:
                    raise VertexIndexOutOfRange(
                        f"neighbour {b} out of range 1..{n}")
                nbrs.append(b - 1)
            rotations.append(nbrs)
        graphs.append(build(rotations, embedding_verified=True))
    if not graphs:
        raise TruncatedRecord("no records after header")
    return graphs


def encode_planar_code(graphs: Iterable[EmbeddedGraph]) -> bytes:
    out = bytearray(PLANAR_CODE_HEADER)
    for g in graphs:
        if g.n > 255:
            raise VertexIndexOutOfRange("planar_code limited to n <= 255")
        out.append(g.n)
        for v in range(g.n):
            out.extend(u + 1 for u in g.rotations[v])
            out.append(0)
    return bytes(out)


# -- graph6 -----------------------------------------------------------------

def _g6_read_n(s: bytes) -> tuple[int, int]:
    if not s:
        raise TruncatedRecord("empty graph6 line")
    if s[0] != 126:
        return s[0] - 63, 1
    if len(s) >= 4 and s[1] != 126:
        n = 0
        for c in s[1:4]:
            n = (n << 6) | (c - 63)
        return n, 4
    if len(s) >= 8:
        n = 0
        for c in s[2:8]:
            n = (n << 6) | (c - 63)
        return n, 8
    raise TruncatedRecord("graph6 size prefix truncated")


def parse_graph6(data: bytes) -> list[EmbeddedGraph]:
    graphs = []
    for line in data.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(b">>graph6<<"):
            line = line[len(b">>graph6<<"):]
        n, off = _g6_read_n(line)
        body = line[off:]
        if any(c < 63 or c > 126 for c in body):
            raise MalformedHeader("graph6 byte outside printable range")
        need = (n * (n - 1) // 2 + 5) // 6
        if len(body) < need:
            raise TruncatedRecord(
                f"graph6 body has {len(body)} bytes, needs {need}")
        bits = []
        for c in body[:need]:
            v = c - 63
            bits.extend((v >> k) & 1 for k in range(5, -1, -1))
        rotations = [[] for _ in range(n)]
        idx = 0
        for j in range(1, n):
            for i in range(j):
                if bits[idx]:
                    rotations[i].append(j)
                    rotations[j].append(i)
                idx += 1
        graphs.append(build(rotations, embedding_verified=False))
    if not graphs:
        raise TruncatedRecord("no graph6 records found")
    return graphs


def encode_graph6(g: EmbeddedGraph) -> bytes:
    n = g.n
    if n <= 62:
        prefix = bytes([n + 63])
    elif n <= 258047:
        prefix = bytes([126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63),
                        63 + (n & 63)])
    else:
        raise VertexIndexOutOfRange("graph6 encoder limited to n <= 258047")
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    body = bytearray()
    for k in range(0, len(bits), 6):
        v = 0
        for b in bits[k:k + 6]:
            v = (v << 1) | b
        body.append(v + 63)
    return prefix + bytes(body)


# -- rotation_json ----------------------------------------------------------

def parse_rotation_json(data: bytes) -> list[EmbeddedGraph]:
    try:
        obj = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise MalformedHeader(f"invalid JSON: {exc}") from exc
    records = obj if isinstance(obj, list) else [obj]
    graphs = []
    for rec in records:
        if not isinstance(rec, dict) or "n" not in rec or "rotations" not in rec:
            raise MalformedHeader("rotation_json needs {'n':..,'rotations':..}")
        n = rec["n"]
        rot = rec["rotations"]
        if type(n) is not int or not isinstance(rot, list) or not all(
                isinstance(r, list) for r in rot):
            raise MalformedHeader("rotation_json needs an int 'n' and "
                                  "'rotations', a list of lists")
        if len(rot) != n:
            raise TruncatedRecord(f"expected {n} rotations, got {len(rot)}")
        for r in rot:
            for u in r:
                if not isinstance(u, int) or not 0 <= u < n:
                    raise VertexIndexOutOfRange(f"vertex id {u} out of range")
        graphs.append(build(rot, embedding_verified=True))
    return graphs


def encode_rotation_json(g: EmbeddedGraph) -> bytes:
    obj = {"n": g.n, "rotations": [list(r) for r in g.rotations]}
    return json.dumps(obj, sort_keys=True).encode("utf-8")
