"""Command-line interface.

Subcommands: generate, simulate, solve, classify, discharge, rate,
render.  All output is deterministic JSON (sorted keys, rationals as
"p/q").  Exit codes: 0 ok, 2 input/hypothesis error, 3 timeout/partial.
``--config`` values are checked like their flags and become the
subcommand's defaults, required flags' too, so the flags given win.
Argparse's refusals are BadParameter errors too.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import sys
from fractions import Fraction

from . import classify, discharge, engine, families, formats, rates, render
from . import strategies
from .engine import Schedule
from .errors import BadParameter, FireContainError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TIMEOUT = 3


class _Parser(argparse.ArgumentParser):
    """Refusals exit 2 with JSON; the subparsers are of this class too."""

    def error(self, message):
        raise BadParameter(message)


def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="path to a graph file")
    p.add_argument("--format", choices=formats.FORMATS,
                   help="input file format")
    p.add_argument("--family",
                   help="family spec, e.g. star:5, rect_grid:4,5, cube")
    p.add_argument("--allow-unverified", action="store_true",
                   help="accept formats without embedding data (graph6)")


def _add_schedule_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, help="constant per-round budget")
    p.add_argument("--schedule",
                   help="first,rest budgets, e.g. 4,3")


def _parse_schedule(args) -> Schedule:
    try:
        if args.schedule:
            first, rest = (int(x) for x in args.schedule.split(","))
            return Schedule(first, rest)
        if args.k is not None:
            return Schedule.constant(args.k)
    except ValueError as exc:
        raise BadParameter(
            f"bad budgets {args.schedule or args.k!r}: {exc}") from None
    raise BadParameter("need --k or --schedule")


def _parse_start(args, g) -> int:
    if not 0 <= args.start < g.n:
        raise BadParameter(f"--start {args.start} is not a vertex of "
                           f"this {g.n}-vertex graph")
    return args.start


def _load_graph(args):
    if bool(args.input) == bool(args.family):
        raise BadParameter("need exactly one of --input or --family")
    if args.family:
        return families.generate(families.parse_family(args.family))
    if not args.format:
        raise BadParameter("--input needs --format")
    data = _read(args.input, "--input", bytes)
    graphs = formats.parse(data, args.format,
                           allow_unverified=args.allow_unverified)
    if len(graphs) != 1:
        raise BadParameter(f"input contains {len(graphs)} graphs, need 1")
    return graphs[0]


def _emit(obj, args) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2)
    if getattr(args, "out", None):
        _write(args.out, {"result.json": text})
    else:
        print(text)


def _parse_positive(text: str | None, flag: str, default):
    """``flag``'s value, a positive exact rational, or ``default`` when it
    is not given."""
    if not text:
        return default
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise BadParameter(
            f"{flag} needs an exact rational, got {text!r}") from None
    if value <= 0:
        raise BadParameter(f"{flag} must be positive, got {value}")
    return value


def _read(path: str, flag: str, parse):
    """``parse`` applied to a file's bytes; any failure is a BadParameter."""
    try:
        return parse(pathlib.Path(path).read_bytes())
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise BadParameter(f"{flag} {path}: {exc!r}") from None


def _write(out: str, files: dict[str, str]) -> None:
    """Write each text, plus a newline, to its name in directory ``out``;
    any failure is a BadParameter."""
    try:
        path = pathlib.Path(out)
        path.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (path / name).write_text(text + "\n")
    except OSError as exc:
        raise BadParameter(f"--out {out}: {exc!r}") from None


def _apply_config(args, subparser) -> None:
    """Make the ``--config`` object's values, read as flag text, the
    defaults of ``subparser``, so that flags given on the command line
    win.  A key that names no flag of the subcommand, or a value that its
    flag would refuse, is a BadParameter."""
    actions = {a.dest: a for a in subparser._actions}
    config = _read(args.config, "--config", json.loads)
    if type(config) is not dict:
        raise BadParameter(f"--config {args.config}: needs a JSON object")
    for key, value in config.items():
        attr = key.replace("-", "_")
        action = actions.get(attr)
        if action is None:
            raise BadParameter(
                f"--config {key}: not a flag of {args.command}")
        if action.nargs == 0:  # a switch: a bool
            if type(value) is not bool:
                raise BadParameter(f"--config {key}: needs true or false")
        else:
            try:
                value = subparser._get_value(action, str(value))
                subparser._check_value(action, value)
            except argparse.ArgumentError as exc:
                raise BadParameter(f"--config {key}: {exc}") from None
        subparser.set_defaults(**{attr: value})


def main(argv=None) -> int:
    ap = _Parser(
        prog="firecontain",
        description="Firefighter processes on embedded planar graphs")
    ap.add_argument("--config", help="JSON file with default flag values")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a family instance")
    _add_source_args(p)
    p.add_argument("--output-format", choices=formats.FORMATS,
                   default="rotation_json")
    p.add_argument("--out", help="output directory")

    p = sub.add_parser("simulate", help="run a strategy")
    _add_source_args(p)
    _add_schedule_args(p)
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--strategy", default="null",
                   choices=["null", "greedy", "hex", "rect"])
    p.add_argument("--out")

    p = sub.add_parser("solve", help="exact maximum save count")
    _add_source_args(p)
    _add_schedule_args(p)
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--node-limit", type=int, default=10_000_000)
    p.add_argument("--out")

    p = sub.add_parser("classify", help="X/Y vertex classification")
    _add_source_args(p)
    p.add_argument("--context", required=True,
                   choices=["girth5", "planar", "trianglefree"])
    p.add_argument("--mode", default="exact",
                   choices=["rules_only", "exact"])
    p.add_argument("--node-limit", type=int, default=2_000_000)
    p.add_argument("--out")

    p = sub.add_parser("discharge", help="charge transfer audit")
    _add_source_args(p)
    p.add_argument("--context", required=True,
                   choices=["planar", "trianglefree"])
    p.add_argument("--alpha", help="exact rational, e.g. 1/872")
    p.add_argument("--beta", help="exact rational")
    p.add_argument("--out")

    p = sub.add_parser("rate", help="surviving rate / theorem certificate")
    _add_source_args(p)
    _add_schedule_args(p)
    p.add_argument("--theorem", choices=list(rates.THEOREMS))
    p.add_argument("--node-limit", type=int, default=10_000_000)
    p.add_argument("--out")

    p = sub.add_parser("render", help="SVG images of a stored trace")
    _add_source_args(p)
    p.add_argument("--trace", required=True, help="trace JSON file")
    p.add_argument("--out", required=True, help="output directory")

    # parse for --config, then again with its values as defaults, from
    # which a required flag may take its value
    required = [a for p in sub.choices.values() for a in p._actions
                if a.required]
    for action in required:
        action.required = False
    try:
        args = ap.parse_args(argv)
        if args.config:
            _apply_config(args, sub.choices[args.command])
        for action in required:
            action.required = action.default is None
        return _dispatch(ap.parse_args(argv))
    except FireContainError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return EXIT_INPUT


def _dispatch(args) -> int:
    cmd = args.command
    # solve, classify and rate: a search needs room for its first node
    if getattr(args, "node_limit", 1) < 1:
        raise BadParameter(
            f"--node-limit must be at least 1, got {args.node_limit}")
    g = _load_graph(args)
    if cmd == "generate":
        if args.output_format == "rotation_json":
            payload = formats.encode_rotation_json(g).decode()
        elif args.output_format == "planar_code":
            payload = formats.encode_planar_code([g]).hex()
        else:
            payload = formats.encode_graph6(g).decode()
        _emit({"n": g.n, "edges": g.num_edges,
               "format": args.output_format, "payload": payload}, args)
        return EXIT_OK

    if cmd == "simulate":
        sched = _parse_schedule(args)
        start = _parse_start(args, g)
        strat = _pick_strategy(args.strategy, g, start)
        trace = engine.run_simulation(g, start, sched, strat)
        _emit(trace.to_json(), args)
        return EXIT_OK

    if cmd == "solve":
        sched = _parse_schedule(args)
        res = engine.sn_exact(g, _parse_start(args, g), sched,
                              node_limit=args.node_limit)
        _emit({"value": res.value, "optimal": res.optimal,
               "nodes": res.nodes, "trace": res.trace.to_json()}, args)
        return EXIT_OK if res.optimal else EXIT_TIMEOUT

    if cmd == "classify":
        fn = {"girth5": classify.classify_girth5,
              "planar": classify.classify_planar,
              "trianglefree": classify.classify_triangle_free}[args.context]
        if args.context == "girth5":
            report = fn(g)
        else:
            report = fn(g, mode=args.mode, node_limit=args.node_limit)
        _emit(report.to_json(), args)
        unknown = any(ev.get("rule") == "exact_unknown"
                      for ev in report.evidence.values())
        return EXIT_TIMEOUT if unknown else EXIT_OK

    if cmd == "discharge":
        if args.context == "planar":
            if args.beta is not None:
                raise BadParameter("--beta applies to --context "
                                   "trianglefree only")
            alpha = _parse_positive(args.alpha, "--alpha",
                                    discharge.PLANAR_ALPHA)
            report = classify.classify_planar(g)
            ledger = discharge.transfer_planar(
                g, discharge.init_planar_charges(g, alpha), report)
            audit = discharge.audit_planar(g, ledger, report)
        else:
            alpha = _parse_positive(args.alpha, "--alpha", discharge.TF_ALPHA)
            beta = _parse_positive(args.beta, "--beta", None)
            report = classify.classify_triangle_free(g)
            ledger = discharge.transfer_tf(
                g, discharge.init_tf_charges(g, alpha, beta), report)
            audit = discharge.audit_tf(g, ledger, report)
        _emit(audit.to_json(ledger.transfers), args)
        return EXIT_OK

    if cmd == "rate":
        if args.theorem:
            cert = rates.certify_bound(g, args.theorem,
                                       instance=args.family or args.input,
                                       node_limit=args.node_limit)
            _emit(cert.to_json(), args)
            return EXIT_OK
        sched = _parse_schedule(args)
        report = rates.surviving_rate_exact(
            g, sched, node_limit=args.node_limit,
            instance=args.family or args.input)
        _emit(report.to_json(), args)
        return EXIT_TIMEOUT if report.partial else EXIT_OK

    if cmd == "render":
        trace = _read(args.trace, "--trace", lambda b:
                      engine.SimTrace.from_json(json.loads(b), g.n))
        try:
            replays = engine.replay(g, trace) == trace
        except FireContainError:
            replays = False
        if not replays:
            raise BadParameter(f"--trace {args.trace}: its protections "
                               f"do not give this fire on this graph")
        svgs = render.render_trace(g, trace)
        _write(args.out, {f"round_{k:02d}.svg": s for k, s in enumerate(svgs)})
        print(json.dumps({"rounds": len(trace.masks),
                          "dir": str(pathlib.Path(args.out))}, sort_keys=True))
        return EXIT_OK

    raise BadParameter(f"unknown command {cmd!r}")


def _pick_strategy(name: str, g, start):
    if name == "null":
        return engine.null_strategy
    if name == "greedy":
        return engine.greedy_frontier_strategy("degree")
    return engine.plan_strategy(strategies.checked_grid_plan(g, start, name))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
