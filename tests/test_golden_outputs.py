"""Golden outputs: sha256 digests of generated graphs, builder face lists,
triangle-free classification/audit/certificate JSON, region-enumeration
containment results and CLI output on fixed seeds.  A change to construction, classification or discharging
that is meant to keep every output byte-identical must keep these."""
import hashlib
import json

import pytest

from firecontain import augment, classify, cli, discharge, engine, formats
from firecontain import families, rates, randgen
from firecontain.engine import Schedule

GRAPH_DIGESTS = {
    ("random_tf_maximal", 200, 11):
        "6b0a6ed03cf6d9c5b877ca129ee76409c38555523d51cc767b78a3c420121266",
    ("random_tf_maximal", 200, 12):
        "9f829abe0bb4c8e2bd5d4fc26c88a05fb64654232cad3333e66d7cebf57b5c5f",
    ("random_tf_maximal", 200, 13):
        "039a1fb929910464e0858469cc103804ee7632df3127585137f94f1debf26707",
    ("random_tf_maximal", 200, 14):
        "93321ae300f65bc902b4c9151bb7bef28c7ec434fe9dcc600031545bed2a22db",
    ("random_tf_maximal", 200, 15):
        "471c5e1bbf0609092473b0b3086faec31971859072405fb9d66511f962d3ea9b",
    ("random_tf_maximal", 200, 16):
        "0a84f50b7041377722db3fa03a8d0a1ffd01aa5b8cb28f004233c09598ab9074",
    ("random_tf_maximal", 200, 17):
        "6ecc5b8cea2abffa604157c177a04b55666b5c0c8fd44f0c27ea4527a50cb07b",
    ("random_tf_maximal", 200, 18):
        "cad006335699735dc377b119309ab9395db94bf56edb3402f44fd3850d3059cb",
    ("random_tf_maximal", 200, 19):
        "41f0b91152c0eead94356b50b74d18bcd32d9300425933f84a51e3c2c362e3b1",
    ("random_tf_maximal", 200, 20):
        "a8dd007adea23b69f8fa73c8fbfb4607fd47892b92af67b60d5d223705c385e1",
    ("random_tf_maximal", 200, 21):
        "1f855568d1e1b39ab9c613b60f6c19e18f56e917e5e58d74f84942e91e88c7fe",
    ("random_tf_maximal", 200, 22):
        "c9a78ce29aa5eb44c30866c43726c29b42e53dd59898bb08b64aae19eba21117",
    ("random_tf_maximal", 200, 23):
        "fb78386d8ee1604bc3ad5a66486e2691e3a0c2e0cef881949c6df5098b11152e",
    ("random_tf_maximal", 200, 24):
        "555744bcd630d21d4e57a178d12e0941524d5e75e49d7a78a837c802972ff5d4",
    ("random_tf_maximal", 200, 25):
        "48b113edcdae7d40fd605ce0ed19e7def3474fe89ac4a00a5052483afe6d32e5",
    ("random_tf_maximal", 200, 26):
        "65ee3fb04f540f0b7c20161432236a11b0f67ad675ec01e83145087eb1f83922",
    ("random_triangulation", 400, 1):
        "575e01086deb0e19a2e8383ef5a34bb868cf391bc7d9f966efca7820506cea21",
    ("random_triangulation", 400, 2):
        "1b0efa2d81414fd1dd62ca7c8a925295c13cda18c593d10d87240d4b152472d3",
    ("random_triangulation", 400, 3):
        "1bd4aa6be6374818bfbca5a1b430154b1440dc42202279c9ec5ff9652750d1b8",
}
TF_OUTPUT_DIGESTS = {
    11: (
        "8a68a48b720c82c82e196a5aa4415a998af7ab4d095e7d6721188dfc8ef927df",
        "53588e5982a72784adf84c5dabd4b8a7f4eeefb2f12cdfb4da501cb0e59969fb",
        "dc59b5c333eb41ca0c059efd028c05e3a367059f940dc18a2b986a5e4706e8a3",
    ),
    12: (
        "35cb1deaf71ee69b6ab12b580c124efdfa5b76981ea10da1f94d99364f79812f",
        "376b022c4e4a358351e0638d66fa3a2930d1a30c1ff10e292c98abef0cbeeebc",
        "dc59b5c333eb41ca0c059efd028c05e3a367059f940dc18a2b986a5e4706e8a3",
    ),
    13: (
        "8f4fef92e33349d2506f14a30cfd89f6728e8c3396e7ba72ecd20465e6eeb41e",
        "09b0959b62eaab75d4987b8318a0dea6e8acb5dc44ac6ca90de502905747f69f",
        "dc59b5c333eb41ca0c059efd028c05e3a367059f940dc18a2b986a5e4706e8a3",
    ),
    14: (
        "cd499cd043e19534393c850d6444bca46cb027800e073e3b6748180395f44f1f",
        "0932a347844bafb427d6a3ec46248e9320b7c128d30d5cfb62b216325e65882e",
        "dc59b5c333eb41ca0c059efd028c05e3a367059f940dc18a2b986a5e4706e8a3",
    ),
}
REGION_ENUM_DIGESTS = {
    ("random_triangulation", 1):
        "2b29daff29f586e9668141c768fd0440748f6712122843e8e773d2a3cc266dd2",
    ("random_triangulation", 2):
        "78ab1e2fd57e555ca51cb8f9c92eeea1104ea3f36b9081a226897e660704cf25",
    ("random_triangulation", 3):
        "abc7c828ee96c1224300ab1b4d181909a16610933ef5f0df57b6380dee893844",
    ("random_triangulation", 4):
        "2c7e8c7740825d5b896fd986a7f7e97ec89c968f1edab67fd4cca42d8efb5d10",
    ("random_tf_maximal", 1):
        "5c91581a5b216fa45bb4f0f5e94fd945cc9522019c294428c22b0fc969bfb409",
    ("random_tf_maximal", 2):
        "2d444c82e302909a7dbe22d67d2c59be75c7e691f7d6fa9cd1761bf3cf94cc8d",
    ("rect_grid", 4):
        "0ee4996a448092a425125c1d5a4cef42f30e3340f39d7f18f18a9059e897d40a",
    ("hex_patch", 2):
        "483153106861bb83a5b03c718bb97dba6b04cb56ff3aab4c22965f3f0aa4b55b",
}
CLI_DIGESTS = {
    "classify":
        "614a653d8e9cd49d1c8a2d2494975c0d72160e81f5c7b161c8362b6a9d84152d",
    "discharge":
        "4122f05dddaf5eb9f7f3a7e18b81c7477d63b5b2fcbd2a6718b83634efca9bcb",
    "rate":
        "59be5a7ff26d90ac1353e6e6a3c2468efb007b6cfe8d4f06989fdaf75e620dd2",
}


def _digest(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _generate(monkeypatch, name, n, seed):
    """The generated graph and the face list of the builder that made
    it, as the builder held it just before freezing."""
    held = []
    freeze = augment.DartBuilder.freeze

    def keep(self):
        held.append(list(self.faces))
        return freeze(self)

    monkeypatch.setattr(augment.DartBuilder, "freeze", keep)
    g = getattr(randgen, name)(n, seed)
    monkeypatch.setattr(augment.DartBuilder, "freeze", freeze)
    return g, held[-1]


GRAPH_CASES = ([("random_tf_maximal", 200, s) for s in range(11, 27)]
               + [("random_triangulation", 400, s) for s in (1, 2, 3)])


def test_generated_graphs_and_builder_faces(monkeypatch):
    got = {}
    for case in GRAPH_CASES:
        g, faces = _generate(monkeypatch, *case)
        got[case] = _digest({"rotations": g.rotations, "faces": faces})
    assert got == GRAPH_DIGESTS


def test_triangle_free_outputs():
    got = {}
    for seed in range(11, 15):
        g = randgen.random_tf_maximal(200, seed)
        report = classify.classify_triangle_free(g)
        ledger = discharge.transfer_tf(g, discharge.init_tf_charges(g),
                                       report)
        audit = discharge.audit_tf(g, ledger, report)
        cert = rates.certify_bound(g, "thm5_trianglefree")
        got[seed] = (_digest(report.to_json()),
                     _digest(audit.to_json(ledger.transfers)),
                     _digest(cert.to_json()))
    assert got == TF_OUTPUT_DIGESTS


REGION_ENUM_CASES = (
    [(("random_triangulation", s), randgen.random_triangulation(16, s),
      Schedule(4, 3), 6) for s in range(1, 5)]
    + [(("random_tf_maximal", s), randgen.random_tf_maximal(16, s),
        Schedule.constant(2), 7) for s in (1, 2)]
    + [(("rect_grid", 4), families.rect_grid(4, 4), Schedule.constant(2), 7),
       (("hex_patch", 2), families.hex_patch(2), Schedule(4, 3), 6)])


def test_region_enumeration_outputs():
    # status, nodes and witness of every start; the corpus reaches all
    # three statuses at this node limit
    got, statuses = {}, set()
    for case, g, sched, cap in REGION_ENUM_CASES:
        out = []
        for v in range(g.n):
            res = engine._contain_by_region_enum(g, v, sched, cap, cap, 3000)
            statuses.add(res.status)
            out.append([res.status, res.nodes,
                        res.trace.to_json() if res.trace else None])
        got[case] = _digest(out)
    assert statuses == {"feasible", "infeasible", "timeout"}
    assert got == REGION_ENUM_DIGESTS


@pytest.mark.parametrize("argv", [
    ("classify", "--context", "planar"),
    ("discharge", "--context", "planar"),
    ("rate", "--theorem", "thm3_planar"),
])
def test_cli_outputs(argv, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_bytes(formats.encode_rotation_json(
        randgen.random_triangulation(400, 1)))
    code = cli.main([argv[0], "--input", str(path),
                     "--format", "rotation_json", *argv[1:]])
    obj = json.loads(capsys.readouterr().out)
    obj.pop("instance", None)  # the input's path
    assert code == 0
    assert _digest(obj) == CLI_DIGESTS[argv[0]]
