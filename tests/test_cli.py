import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


@pytest.mark.parametrize("rot, context, error", [
    ([[]], "trianglefree", "NotTwoConnected"),
    ([[1], [0]], "trianglefree", "NotTwoConnected"),
    ([[]], "planar", "NotTriangulation"),
    ([[1, 2], [2, 0], [0, 1]], "planar", "HypothesisViolated"),
], ids=["K1-trianglefree", "K2-trianglefree", "K1-planar", "K3-planar"])
def test_discharge_on_tiny_graphs_names_the_hypothesis(tmp_path, capsys, rot,
                                                      context, error):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": len(rot), "rotations": rot}))
    code, out, err = run(capsys, "discharge", "--input", str(path),
                         "--format", "rotation_json", "--context", context)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == error


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
    # a config switch takes a JSON boolean
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"allow-unverified": true}')
    code, out, _ = run(capsys, "--config", str(cfg), "solve",
                       "--input", str(path), "--format", "graph6",
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
    # a config file may give a required flag
    cfg.write_text(json.dumps({"family": "path:5", "k": 1, "start": 0}))
    assert run(capsys, "--config", str(cfg), "solve")[:2] == run(
        capsys, "solve", "--family", "path:5", "--k", "1", "--start", "0")[:2]
    cfg.write_text(json.dumps({"trace": "t.json", "out": "imgs"}))
    code, _, err = run(capsys, "--config", str(cfg), "render",
                       "--family", "path:5")
    assert code == 2 and "--trace t.json" in json.loads(err)["message"]


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
    ("discharge", "--family", "icosahedron", "--context", "planar",
     "--beta", "1/2"),
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
], ids=["alpha_abc", "alpha_0", "beta_minus_1", "beta_0", "planar_beta",
        "schedule_4", "k_minus_1", "start_7",
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
    ({"cfg.json": '[["k", 1]]'}, ("--config", "@cfg.json", *SOLVE)),
    ({"cfg.json": '[[1, 2]]'}, ("--config", "@cfg.json", *SOLVE)),
    ({"cfg.json": '{"allow-unverified": "false"}', "g.g6": "Ch"},
     ("--config", "@cfg.json", "simulate", "--input", "@g.g6",
      "--format", "graph6", "--start", "0", "--k", "1")),
    ({}, ("--config", "@missing.json", *SOLVE)),
    ({"cfg.json": '{"nod_limit": 0, "k": 1}'},
     ("--config", "@cfg.json", *SOLVE)),
    # the top-level parser's own destinations are not flags of solve
    ({"cfg.json": '{"command": "rate", "k": 1}'},
     ("--config", "@cfg.json", *SOLVE)),
    ({"cfg.json": '{"config": "x.json", "k": 1}'},
     ("--config", "@cfg.json", *SOLVE)),
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
    ({"trace.json": '{"start": 0, "schedule": [1, 1], "rounds": '
                    '[{"protect": [1], "burned": []}], "saved": 0}'}, RENDER),
    ({"trace.json": '{"start": 0, "schedule": [1, 1], "rounds": '
                    '[{"protect": [1], "burned": []}], "saved": "x"}'},
     RENDER),
    ({"trace.json": '{"start": 0, "schedule": [1, 1], "rounds": '
                    '[{"protect": [1, 2], "burned": []}], "saved": 4}'},
     RENDER),
    ({"trace.json": '{"start": 0, "schedule": [2, 2], "rounds": '
                    '[{"protect": [2, 1], "burned": []}], "saved": 4}'},
     RENDER),
    ({"cfg.json": '{"k": "x"}'}, ("--config", "@cfg.json", *SOLVE,
                                  "--k", "1")),
    ({"taken": ""}, ("generate", "--family", "cube", "--out", "@taken")),
    ({"trace.json": '{"start": 0, "schedule": [1, 1], "rounds": '
                    '[{"protect": [1], "burned": []}], "saved": 4}',
      "imgs": ""}, RENDER),
    ({}, (*SOLVE, "--k", "x")),
    ({}, (*SOLVE, "--k", "1", "--no-such-flag")),
    ({}, ("solve", "--family", "path:3", "--k", "1")),
    ({}, ("render", "--family", "path:5", "--out", "@imgs")),
    # the config's start now reaches the command, which refuses it
    ({"cfg.json": '{"start": 9, "k": 1}'},
     ("--config", "@cfg.json", "solve", "--family", "path:3")),
], ids=["config_k_one", "config_malformed", "config_not_object",
        "config_pairs", "config_int_pairs", "config_switch_string",
        "config_missing", "config_unknown_key", "config_command_key",
        "config_config_key", "input_missing",
        "trace_without_schedule", "trace_not_json", "trace_start_99",
        "trace_burned_x", "trace_schedule_float", "trace_does_not_replay",
        "trace_saved_not_int", "trace_over_budget", "trace_descending",
        "config_bad_value_of_given_flag", "generate_out_is_file",
        "render_out_is_file", "solve_k_x", "unknown_flag",
        "solve_without_start", "render_without_trace", "config_gives_start"])
def test_bad_files_exit_2_with_json(tmp_path, capsys, files, argv):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [a.replace("@", f"{tmp_path}/") for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BadParameter"


# flags and values of the small commands a fuzzed command line is drawn
# from; none writes a file (no --out) or runs long (tiny families only)
FLAG_VALUES = {
    "family": ["path:3", "cycle:4", "cube", "octahedron", "star", "x"],
    "k": ["1", "2", "0", "x"], "start": ["0", "2", "9", "-1"],
    "schedule": ["2,1", "1", "a,b"], "node-limit": ["1", "50", "0"],
    "context": ["planar", "trianglefree", "girth5", "bad"],
    "theorem": ["thm2_girth5", "thm3_planar", "k2n_upper", "nope"],
    "strategy": ["null", "greedy", "rect"], "mode": ["rules_only", "x"],
    "alpha": ["1/2", "0", "x"], "beta": ["1/3", "-1"],
    "format": ["graph6", "rotation_json"], "input": ["@missing.json"],
    "trace": ["@missing.json"], "output-format": ["graph6", "dot"],
}
VALUES = [v for vs in FLAG_VALUES.values() for v in vs]


def _flag(name):
    return st.tuples(st.just(f"--{name}"), st.sampled_from(FLAG_VALUES[name]))


# a command with the flags it needs, then other flags, then at most one
# stray token
NEEDS = {"generate": [], "simulate": ["start", "k"], "solve": ["start", "k"],
         "classify": ["context"], "discharge": ["context"], "rate": ["k"],
         "render": ["trace"]}
COMMAND_LINES = st.sampled_from(list(NEEDS)).flatmap(lambda cmd: st.tuples(
    st.just([cmd]),
    *map(_flag, ["family", *NEEDS[cmd]]),
    st.lists(st.sampled_from(list(FLAG_VALUES)).flatmap(_flag), max_size=2)
    .map(lambda pairs: [a for pair in pairs for a in pair]),
    st.lists(st.sampled_from(["--allow-unverified", "--no-such-flag",
                              "--k", *VALUES]), max_size=1),
)).map(lambda parts: [a for part in parts for a in part])
CONFIGS = st.dictionaries(
    st.sampled_from([*FLAG_VALUES, "allow-unverified", "out_dir"]),
    st.one_of(st.sampled_from(VALUES), st.integers(-2, 9), st.booleans(),
              st.none()),
    max_size=3)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(COMMAND_LINES, st.one_of(st.none(), CONFIGS))
def test_fuzzed_command_lines_exit_0_2_or_3_with_json(tmp_path, capsys,
                                                      argv, config):
    argv = [a.replace("@", f"{tmp_path}/") for a in argv]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["--config", str(tmp_path / "cfg.json"), *argv]
    code, out, err = run(capsys, *argv)
    assert code in (0, 2, 3)
    if code == 2:
        assert out == "" and set(json.loads(err)) == {"error", "message"}
    else:
        json.loads(out)
