import json

import pytest

from firecontain import cli, families as F, formats


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate(capsys):
    code, out, _ = run(capsys, "generate", "--family", "cube")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 8 and obj["edges"] == 12
    # twice gives byte-identical output
    _, out2, _ = run(capsys, "generate", "--family", "cube")
    assert out == out2


def test_generate_to_dir(tmp_path, capsys):
    code, _, _ = run(capsys, "generate", "--family", "star:5",
                     "--out", str(tmp_path / "o"))
    assert code == 0
    obj = json.loads((tmp_path / "o" / "result.json").read_text())
    assert obj["n"] == 5


def test_simulate_null(capsys):
    code, out, _ = run(capsys, "simulate", "--family", "star:6",
                       "--start", "0", "--k", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["saved"] == 0  # the null strategy protects nothing


def test_simulate_hex_strategy(capsys):
    code, out, _ = run(capsys, "simulate", "--family", "hex_patch:4",
                       "--start", "0", "--schedule", "4,3",
                       "--strategy", "hex")
    assert code == 0
    obj = json.loads(out)
    g = F.hex_patch(4)
    assert g.n - obj["saved"] <= 6


def test_simulate_strategy_not_applicable(capsys):
    code, out, err = run(capsys, "simulate", "--family", "hex_patch:2",
                         "--start", "0", "--schedule", "4,3",
                         "--strategy", "hex")
    assert code == 2
    assert json.loads(err)["error"] == "NotApplicable"


def test_solve(capsys):
    code, out, _ = run(capsys, "solve", "--family", "path:5",
                       "--start", "0", "--k", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == 4 and obj["optimal"]
    assert obj["trace"]["saved"] == 4


def test_solve_timeout_exit_code(capsys):
    code, out, _ = run(capsys, "solve", "--family", "rect_grid:6,6",
                       "--start", "14", "--k", "2", "--node-limit", "10")
    assert code == 3
    assert not json.loads(out)["optimal"]


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--family", "dodecahedron",
                       "--context", "girth5")
    assert code == 0
    obj = json.loads(out)
    assert obj["counts"] == {"X_3": 20}


def test_classify_hypothesis_error(capsys):
    code, _, err = run(capsys, "classify", "--family", "cube",
                       "--context", "girth5")
    assert code == 2
    assert json.loads(err)["error"] == "GirthTooSmall"


def test_rate_hypothesis_error_names_the_hypothesis(capsys):
    code, out, err = run(capsys, "rate", "--family", "cube",
                         "--theorem", "thm2_girth5")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "GirthTooSmall",
                               "message": "girth 4 < 5"}


def test_discharge(capsys):
    code, out, _ = run(capsys, "discharge", "--family", "icosahedron",
                       "--context", "planar")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["conservation_residual"] == "0/1"


def test_discharge_custom_alpha(capsys):
    code, out, _ = run(capsys, "discharge", "--family", "icosahedron",
                       "--context", "planar", "--alpha", "1/100")
    assert code == 0
    assert json.loads(out)["counting_factor"] == "393/1"


def test_rate_exact(capsys):
    code, out, _ = run(capsys, "rate", "--family", "path:3", "--k", "1")
    assert code == 0
    assert json.loads(out)["rate"] == "5/9"


def test_rate_theorem(capsys):
    code, out, _ = run(capsys, "rate", "--family", "cycle:5",
                       "--theorem", "thm2_girth5")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_input_file_round_trip(tmp_path, capsys):
    g = F.platonic("cube")
    path = tmp_path / "cube.json"
    path.write_bytes(formats.encode_rotation_json(g))
    code, out, _ = run(capsys, "classify", "--input", str(path),
                       "--format", "rotation_json",
                       "--context", "trianglefree")
    assert code == 0
    assert json.loads(out)["counts"] == {"X_3": 8}


def test_rotation_json_boolean_vertex_exits_2(tmp_path, capsys):
    # a JSON true is not vertex 1
    path = tmp_path / "bool.json"
    path.write_text('{"n": 2, "rotations": [[true], [0]]}')
    code, out, err = run(capsys, "generate", "--input", str(path),
                         "--format", "rotation_json")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "MalformedHeader"


def test_graph6_needs_allow_unverified(tmp_path, capsys):
    path = tmp_path / "g.g6"
    path.write_bytes(formats.encode_graph6(F.path(4)))
    code, _, err = run(capsys, "solve", "--input", str(path),
                       "--format", "graph6", "--start", "0", "--k", "1")
    assert code == 2
    assert json.loads(err)["error"] == "UnverifiedEmbedding"
    code, out, _ = run(capsys, "solve", "--input", str(path),
                       "--format", "graph6", "--allow-unverified",
                       "--start", "0", "--k", "1")
    assert code == 0 and json.loads(out)["value"] == 3


def test_exactly_one_source_required(capsys):
    code, _, err = run(capsys, "simulate", "--start", "0", "--k", "1")
    assert code == 2
    code, _, err = run(capsys, "simulate", "--family", "path:3",
                       "--input", "x.json", "--start", "0", "--k", "1")
    assert code == 2


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "path:5", "k": 1}))
    code, out, _ = run(capsys, "--config", str(cfg), "solve", "--start", "0")
    assert code == 0
    assert json.loads(out)["value"] == 4
    # explicit flags win over config defaults
    code, out, _ = run(capsys, "--config", str(cfg), "solve",
                       "--family", "path:3", "--start", "0")
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_render(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--family", "path:5",
                       "--start", "2", "--k", "1",
                       "--out", str(tmp_path / "sol"))
    assert code == 0
    trace = json.loads((tmp_path / "sol" / "result.json").read_text())["trace"]
    tr = tmp_path / "trace.json"
    tr.write_text(json.dumps(trace))
    code, out, _ = run(capsys, "render", "--family", "path:5",
                       "--trace", str(tr), "--out", str(tmp_path / "imgs"))
    assert code == 0
    svgs = sorted((tmp_path / "imgs").glob("round_*.svg"))
    assert len(svgs) == len(trace["rounds"]) + 1
    assert svgs[0].read_text().startswith("<svg")


def test_rate_theorem_low_degree_starts(capsys):
    code, out, _ = run(capsys, "rate", "--family", "cycle:3",
                       "--theorem", "thm3_planar")
    assert code == 0
    assert json.loads(out)["rate"] == "2/3"


def test_rate_theorem_on_a_hex_tube(tmp_path, capsys, capped_tube):
    # the tube's middle ring has no lattice map; its starts get exact
    # witnesses, and the certificate goes through
    path = tmp_path / "tube.json"
    path.write_bytes(formats.encode_rotation_json(capped_tube))
    code, out, _ = run(capsys, "rate", "--input", str(path),
                       "--format", "rotation_json", "--theorem", "thm3_planar")
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("argv", [
    ("discharge", "--family", "icosahedron", "--context", "planar",
     "--alpha", "abc"),
    ("discharge", "--family", "icosahedron", "--context", "planar",
     "--alpha", "0"),
    ("discharge", "--family", "cube", "--context", "trianglefree",
     "--beta=-1"),
    ("discharge", "--family", "cube", "--context", "trianglefree",
     "--beta", "0"),
    ("rate", "--family", "path:3", "--schedule", "4"),
    ("simulate", "--family", "path:3", "--start", "0", "--k", "-1"),
    ("solve", "--family", "path:3", "--start", "7", "--k", "1"),
    ("solve", "--family", "path:3", "--start", "0", "--k", "1",
     "--node-limit", "-5"),
    ("solve", "--family", "path:3", "--start", "0", "--k", "1",
     "--node-limit", "0"),
    ("rate", "--family", "path:3", "--k", "1", "--node-limit", "-1"),
    ("rate", "--family", "cycle:3", "--theorem", "thm3_planar",
     "--node-limit", "0"),
    ("classify", "--family", "octahedron", "--context", "planar",
     "--node-limit", "-3"),
    ("generate", "--family", "star"),
    ("generate", "--family", "star:x"),
    ("generate", "--family", "rect_grid:4"),
    ("generate", "--family", "complete_bipartite_2_m"),
    ("generate", "--family", "path:"),
    ("generate", "--family", "star:3,4"),
    ("generate", "--family", "cube:1"),
], ids=["alpha_abc", "alpha_0", "beta_minus_1", "beta_0", "schedule_4",
        "k_minus_1", "start_7",
        "solve_node_limit_minus_5", "solve_node_limit_0",
        "rate_node_limit_minus_1", "rate_theorem_node_limit_0",
        "classify_node_limit_minus_3", "family_star_bare", "family_star_x",
        "family_rect_grid_one_side", "family_k2m_bare", "family_path_empty",
        "family_star_two_args", "family_cube_with_arg"])
def test_bad_arguments_exit_2_with_json(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BadParameter"


def test_config_values_are_converted_like_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "path:5", "k": "1", "start": 3}))
    code, out, _ = run(capsys, "--config", str(cfg), "solve", "--start", "0")
    assert code == 0
    # "1" is read as --k 1, and the given --start 0 wins over the config
    assert out == run(capsys, "solve", "--family", "path:5", "--k", "1",
                      "--start", "0")[1]


def test_config_values_replace_defaults_but_not_given_flags(tmp_path,
                                                             capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"node-limit": 5}))
    solve = ("solve", "--family", "rect_grid:4,4", "--start", "0", "--k", "1")
    # the config replaces the default limit of 10 000 000
    code, out, _ = run(capsys, "--config", str(cfg), *solve)
    assert code == 3
    assert json.loads(out)["nodes"] == 6
    assert out == run(capsys, *solve, "--node-limit", "5")[1]
    # a flag given on the command line wins, even at its default value
    code, out, _ = run(capsys, "--config", str(cfg), *solve,
                       "--node-limit", "10000000")
    assert code == 0
    assert json.loads(out)["optimal"] is True


SOLVE = ("solve", "--family", "path:3", "--start", "0")
RENDER = ("render", "--family", "path:5", "--trace", "@trace.json",
          "--out", "@imgs")


@pytest.mark.parametrize("files, argv", [
    ({"cfg.json": '{"k": "one"}'}, ("--config", "@cfg.json", *SOLVE)),
    ({"cfg.json": '{"k": 1'}, ("--config", "@cfg.json", *SOLVE)),
    ({"cfg.json": '[1]'}, ("--config", "@cfg.json", *SOLVE)),
    ({}, ("--config", "@missing.json", *SOLVE)),
    ({}, ("solve", "--input", "@missing.json", "--format", "rotation_json",
          "--start", "0", "--k", "1")),
    ({"trace.json": '{"start": 0, "rounds": [], "saved": 5}'}, RENDER),
    ({"trace.json": 'not json'}, RENDER),
    ({"trace.json": '{"start": 99, "schedule": [1, 1], "rounds": [], '
                    '"saved": 0}'}, RENDER),
    ({"trace.json": '{"start": 0, "schedule": [1, 1], "rounds": '
                    '[{"protect": [], "burned": ["x"]}], "saved": 3}'},
     RENDER),
    ({"trace.json": '{"start": 0, "schedule": [1.5, 1], "rounds": [], '
                    '"saved": 4}'}, RENDER),
    ({"taken": ""}, ("generate", "--family", "cube", "--out", "@taken")),
    ({"trace.json": '{"start": 0, "schedule": [1, 1], "rounds": [], '
                    '"saved": 4}', "imgs": ""}, RENDER),
], ids=["config_k_one", "config_malformed", "config_not_object",
        "config_missing", "input_missing", "trace_without_schedule",
        "trace_not_json", "trace_start_99", "trace_burned_x",
        "trace_schedule_float", "generate_out_is_file",
        "render_out_is_file"])
def test_bad_files_exit_2_with_json(tmp_path, capsys, files, argv):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [a.replace("@", f"{tmp_path}/") for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BadParameter"
