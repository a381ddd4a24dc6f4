import pytest

from firecontain import families as F
from firecontain import formats
from firecontain.errors import (
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
