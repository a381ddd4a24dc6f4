"""Golden outputs: sha256 digests of generated graphs, builder face lists,
triangle-free classification/audit/certificate JSON, girth-5 rate and
certificate JSON, containment-search results on the region-enumeration
corpus, rendered SVG rounds and CLI output on fixed seeds.
A change to construction, classification, discharging or the search that
is meant to keep every output byte-identical must keep these."""
import hashlib
import json

import pytest

from firecontain import augment, classify, cli, discharge, engine, families
from firecontain import formats, rates, randgen, render
from test_search_core import REGION_ENUM_CASES

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
# seed of random_girth5_planar(200, seed) -> (classification lower-bound
# report, thm2 certificate)
GIRTH5_DIGESTS = {
    0: ("fdb480465c26ca04e89e2c42e620267293b2cd1c43b8346082ce87bb6dae18c3",
        "aed3aaaec00d5c13fce25ebf83df683bbcf68903e61672a95297eb7171fb0635"),
    1: ("ffef7a48b0f2ca71b4a0d1e69893ae17c9571c33beb65c770b50b1f98772cdd9",
        "e25d55adcce11c48a7d9222361686abbbf2768edc016c851449488e6fd123b70"),
    2: ("be3dec5898af384cac71eb6b9cbf7694e80259408659ad0d2b66c4e407795f3e",
        "1e1aec2a5da3e18768af349ee467819e7df6ed21df35713f75996b4778815c2c"),
    3: ("52aaf44dda583c65477a8c7d7a8118bcb09174bc9c3e8df831a239f1436ef70d",
        "c5a737eaf881153c4c2ebf0e6f5ea1e22dd00277fda0cb91839b52b3994dcd28"),
    4: ("04583cdee8c1bc35f96cb4a31499012f23e3410ccce4680b687d38f4f0dceb21",
        "e6cef36d7078c4249217118c67586f49eec4e9dcc56909e4e24fc9f3b3c5c473"),
    5: ("bb2fd8e89eb23e6ccaea1f580d624aeddfb736fe8f6e2c17cafa05e013a48337",
        "98a5925988b58561279e96cedcf222a50065515a4ec270fca38558891f4faac4"),
    6: ("264b988ae628b255a0ad866948038db62058277dd23b78a0591aa085f082ffee",
        "a3281513d59fa49f6813106667f93fe5cadab7254030ee77a96b904993cae686"),
    7: ("c329f34d8857902836bb793beb1c553ada7b278b8aeb84d2644c815a9adfd850",
        "d490a56ca56ffd6c3c03b31980afe21024a09d9cca4788e62a176d2f52e69131"),
    8: ("4173ee50dd826bae0cc89e5a434ffc5fa283478d6d3a4eb695bf0e1751a23072",
        "1843a32368d2f12407f5af29c877ffc71ab99360c630ed2744a283fd0ba3cb49"),
    9: ("c8234d041d1dc0c599c6f8c89e01696e1a92a0d7704328383dfab1844872a832",
        "165cd364298877df28416fea310279654d3b1bbb307450d326ba015577d95dfd"),
}
REGION_ENUM_DIGESTS = {
    "random_triangulation(16,1)":
        "3a06b61ca655f6dc95c6a52ad20427c979d9141c751b807a28051affedb98283",
    "random_triangulation(16,2)":
        "de53213280f914a34a962faba544a5c26755e6f118fca2c79dce774e5dedba81",
    "random_triangulation(16,3)":
        "fd1a31f313a351d651ec98abf166e76a7c54f09ca3b48b64038554f808641f9b",
    "random_triangulation(16,4)":
        "33316d627aa754359b989384b6943040ba9ee24a535ae7cf6b9ffe9a07798a9c",
    "random_tf_maximal(16,1)":
        "6e7844831c06a4f1e8f0da872d73c3dbe8ac82abbde4c484f6ff89226d16d4ca",
    "random_tf_maximal(16,2)":
        "1403fcbe3b281b60595e695bc0e6b036efeb6c9461548fa2ee9ed69daee105ed",
    "rect_grid(4,4)":
        "fc8adb94f0b4121ae0a82774ce851a84e2b25b4f996cd34c0cea19a19f1a5b63",
    "hex_patch(2)":
        "a585eb853851eef7c5de9a50dabee7953b00e62d25b7afb8e4e859160c4a871a",
}
# render_trace of the k = 1 sn_exact trace from one start: two graphs
# with positions, one drawn on a circle
RENDER_DIGESTS = {
    "rect_grid(5,5)":
        "9a6f197b459f9a2b4db80e41ffe84e3f7ec20c39417b10b9a2725f0d66f6b16a",
    "hex_patch(3)":
        "42cf72b520fa541c0af1d4dbd7ccdcf9405f9340f109c8a44f499262d1e29911",
    "random_triangulation(40,3)":
        "044bade65fa5fb962115f88ed321fb0db8da5f681fb25c72f2704d4f606803fb",
}
CLI_DIGESTS = {
    "classify":
        "614a653d8e9cd49d1c8a2d2494975c0d72160e81f5c7b161c8362b6a9d84152d",
    "discharge":
        "4122f05dddaf5eb9f7f3a7e18b81c7477d63b5b2fcbd2a6718b83634efca9bcb",
    "rate":
        "59be5a7ff26d90ac1353e6e6a3c2468efb007b6cfe8d4f06989fdaf75e620dd2",
}
CLI_THM2_DODECAHEDRON_DIGEST = \
    "92ef018f33406b08c3ff42b17a583730b8dbb48e1c0a33bae96f8bf897c0607c"


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


def test_girth5_outputs():
    got = {}
    for seed in range(10):
        g = randgen.random_girth5_planar(200, seed)
        lb = rates.surviving_rate_lower_bound(g, classify.classify_girth5(g))
        cert = rates.certify_bound(g, "thm2_girth5")
        got[seed] = (_digest(lb.to_json()), _digest(cert.to_json()))
    assert got == GIRTH5_DIGESTS


def test_region_enumeration_outputs():
    # status, nodes and witness of the containment DFS at every start of
    # the corpus that region enumeration was checked on, at a node limit
    # of 2 (which times some starts out) and at one it never reaches
    got, statuses = {}, set()
    for name, g, sched, cap in REGION_ENUM_CASES:
        out = []
        for limit in (2, 3000):
            for v in range(g.n):
                res = engine._contain_by_dfs(g, v, sched, cap, limit)
                statuses.add(res.status)
                out.append([res.status, res.nodes,
                            res.trace.to_json() if res.trace else None])
        got[name] = _digest(out)
    assert statuses == {"feasible", "infeasible", "timeout"}
    assert got == REGION_ENUM_DIGESTS


def test_render_outputs():
    got = {}
    for name, g, start in (
            ("rect_grid(5,5)", families.rect_grid(5, 5), 12),
            ("hex_patch(3)", families.hex_patch(3), 0),
            ("random_triangulation(40,3)",
             randgen.random_triangulation(40, 3), 0)):
        trace = engine.sn_exact(g, start, engine.Schedule.constant(1)).trace
        got[name] = _digest(render.render_trace(g, trace))
    assert got == RENDER_DIGESTS


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


def test_cli_thm2_output(capsys):
    code = cli.main(["rate", "--theorem", "thm2_girth5",
                     "--family", "dodecahedron"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["passed"] is True
    assert _digest(obj) == CLI_THM2_DODECAHEDRON_DIGEST
