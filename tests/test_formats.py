import random

import pytest

from firecontain import families as F
from firecontain import formats, randgen
from firecontain.errors import (
    FireContainError,
    MalformedHeader,
    TruncatedRecord,
    UnverifiedEmbedding,
    VertexIndexOutOfRange,
)


@pytest.mark.parametrize("g", [F.path(4), F.cycle(5), F.platonic("cube"),
                               F.hex_patch(2), F.rect_grid(3, 4)])
def test_planar_code_round_trip(g):
    data = formats.encode_planar_code([g])
    (back,) = formats.parse_planar_code(data)
    assert back.rotations == g.rotations
    assert back.embedding_verified


def test_planar_code_multiple_records():
    gs = [F.path(3), F.cycle(4)]
    back = formats.parse_planar_code(formats.encode_planar_code(gs))
    assert [b.n for b in back] == [3, 4]


def test_planar_code_errors():
    with pytest.raises(MalformedHeader):
        formats.parse_planar_code(b"no header")
    data = formats.encode_planar_code([F.cycle(4)])
    with pytest.raises(TruncatedRecord):
        formats.parse_planar_code(data[:-2])
    bad = bytearray(data)
    bad[-2] = 9  # neighbour index > n
    with pytest.raises(VertexIndexOutOfRange):
        formats.parse_planar_code(bytes(bad))


@pytest.mark.parametrize("g", [F.path(4), F.platonic("icosahedron"),
                               F.rect_grid(4, 4)])
def test_graph6_round_trip(g):
    data = formats.encode_graph6(g)
    (back,) = formats.parse_graph6(data)
    assert back.n == g.n
    assert set(back.edges()) == set(g.edges())
    assert not back.embedding_verified


def test_graph6_requires_opt_in():
    data = formats.encode_graph6(F.path(4))
    with pytest.raises(UnverifiedEmbedding):
        formats.parse(data, "graph6")
    (g,) = formats.parse(data, "graph6", allow_unverified=True)
    assert g.n == 4


def test_graph6_known_encoding():
    # P4: upper-triangle bits 101001 -> value 41 -> byte 104 ('h')
    assert formats.encode_graph6(F.path(4)) == b"Ch"
    (g,) = formats.parse_graph6(b"Ch")
    assert set(g.edges()) == {(0, 1), (1, 2), (2, 3)}


def test_rotation_json_round_trip():
    g = F.platonic("dodecahedron")
    data = formats.encode_rotation_json(g)
    (back,) = formats.parse_rotation_json(data)
    assert back.rotations == g.rotations
    assert back.embedding_verified


def test_rotation_json_errors():
    with pytest.raises(MalformedHeader):
        formats.parse_rotation_json(b"not json")
    with pytest.raises(MalformedHeader):
        formats.parse_rotation_json(b'{"n": 2}')
    with pytest.raises(TruncatedRecord):
        formats.parse_rotation_json(b'{"n": 3, "rotations": [[1], [0]]}')
    with pytest.raises(VertexIndexOutOfRange):
        formats.parse_rotation_json(b'{"n": 2, "rotations": [[5], [0]]}')


@pytest.mark.parametrize("data", [
    b'{"n": 2, "rotations": 5}',
    b'{"n": 2, "rotations": [5, [0]]}',
    b'{"n": "2", "rotations": [[1], [0]]}',
    b'{"n": 2, "rotations": [[true], [0]]}',
])
def test_rotation_json_rotations_must_be_lists(data):
    with pytest.raises(MalformedHeader):
        formats.parse_rotation_json(data)


def test_parse_unknown_format():
    with pytest.raises(MalformedHeader):
        formats.parse(b"", "dot")


def test_mutated_inputs_parse_or_raise_fire_contain_errors():
    # seeded byte mutations of valid inputs in all three formats: each
    # either parses or raises a FireContainError, never another exception
    graphs = [F.platonic("cube"), F.path(3), randgen.random_tf_maximal(9, 1)]
    inputs = {"rotation_json": formats.encode_rotation_json(graphs[2]),
              "planar_code": formats.encode_planar_code(graphs),
              "graph6": b"\n".join(map(formats.encode_graph6, graphs))}
    rng = random.Random(11)
    for fmt, valid in inputs.items():
        assert len(formats.parse(valid, fmt, allow_unverified=True)) >= 1
        for _ in range(1000):
            data = bytearray(valid)
            for _ in range(rng.randint(1, 4)):
                at = rng.randrange(len(data) + 1)
                op = rng.randrange(3)
                if op == 0 and at < len(data):
                    data[at] = rng.randrange(256)
                elif op == 1:
                    data[at:at] = bytes([rng.randrange(256)])
                else:
                    del data[at:at + rng.randint(1, 3)]
            try:
                formats.parse(bytes(data), fmt, allow_unverified=True)
            except FireContainError:
                pass
