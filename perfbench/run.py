"""Benchmark of the firecontain pipeline, one workload per run.

    python3 perfbench/run.py --workload pipeline_planar --seed 1 \\
        --seconds 60 --trace 0

Run it from the root of a checkout; the program is imported from
``src/``.  Workloads and their reasons are listed in ``BENCHMARK.json``
and ``perfbench/README.md``.

A run first sets the program up several times (a fresh import of every
module plus loading the hash-checked strategy plans).  It then repeats
passes of the workload until ``--seconds`` are used up, at least
``MIN_PASSES`` times, on the inputs that ``--seed`` makes, and checks
every output.  With ``--trace 0`` it sets the program up as many times
more, aside, between passes spread over the run, and reports the end-to-end metrics: ``wall_s`` is the
mean pass time and ``setup_s`` the median set-up time over the run.  With
``--trace 1`` every pass is traced and it reports per-layer medians
instead.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--quick`` runs reduced sizes of each
workload, for the harness's own tests.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
PKG = "firecontain"
MODULES = ("augment", "classify", "cli", "discharge", "embedding", "engine",
           "families", "formats", "randgen", "rates", "strategies")
PLANS = ("hex_containment", "rect_containment")
SETUP_REPS = 5
MIN_PASSES = 3


def _drop_program() -> dict:
    """Remove the program's modules from ``sys.modules``; returns them."""
    return {name: sys.modules.pop(name) for name in list(sys.modules)
            if name == PKG or name.startswith(PKG + ".")}


def import_program() -> SimpleNamespace:
    """Import every module of the program afresh and finish its lazy
    set-up, so that no timed pass pays for it."""
    _drop_program()
    fc = SimpleNamespace(**{m: importlib.import_module(f"{PKG}.{m}")
                            for m in MODULES})
    for plan in PLANS:
        fc.strategies.load_plan(plan)
    return fc


def timed_setup(setup: list[float]) -> SimpleNamespace:
    t0 = perf_counter()
    fc = import_program()
    setup.append(perf_counter() - t0)
    return fc


def timed_setup_aside(setup: list[float]) -> None:
    """Time one more set-up and throw it away, leaving the modules that
    the passes use in place.  Each costs about 0.3 MB that is never freed,
    so a run makes a fixed number of them."""
    kept = _drop_program()
    timed_setup(setup)
    _drop_program()
    sys.modules.update(kept)


def metadata(seed: int) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed, "src_lines": src_lines}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    if name.endswith("nodes_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="reduced workload sizes, for the harness's tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / PKG / "__init__.py").is_file():
        print(f"error: the program is missing: no src/{PKG} under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    setup = []
    for _ in range(SETUP_REPS):
        fc = timed_setup(setup)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(fc)
    workdir = ROOT / "perfbench" / "_work"
    workdir.mkdir(exist_ok=True)

    run = workloads.WORKLOADS[args.workload]
    recs, layer_rows = [], []
    start = perf_counter()
    # a pass starts only if one more pass of the mean length so far still
    # ends within --seconds, so a run does not overrun by up to a pass
    while len(recs) < MIN_PASSES or ((perf_counter() - start)
                                     * (len(recs) + 1) / len(recs)
                                     <= args.seconds):
        if tracer is not None:
            tracer.clear()
        rec = workloads.Recorder(fc, tracer)
        run(rec, args.seed, args.quick, workdir)
        if recs:
            rec.compare(recs[0])
        recs.append(rec)
        if tracer is not None:
            layer_rows.append(tracer.pass_metrics())
        elif (len(setup) < 2 * SETUP_REPS
              and (len(setup) - SETUP_REPS) * args.seconds
              < SETUP_REPS * (perf_counter() - start)):
            # more set-ups, spread over the run as the passes are, so that
            # setup_s is not the host's speed in the run's first second
            timed_setup_aside(setup)
    while tracer is None and len(setup) < 2 * SETUP_REPS:
        timed_setup_aside(setup)
    if tracer is not None:
        tracer.dump(workdir / f"spans-{args.workload}.json")
    for name in ("pipeline_planar.json", "exact_rates.json"):
        (workdir / name).unlink(missing_ok=True)

    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    decisions = sum(r.decisions for r in recs)
    unknown = sum(r.unknown for r in recs)
    walls = [r.seconds for r in recs]
    # the mean, not the median: the host's speed switches between states
    # up to 1.7x apart that last seconds to a minute, and a run's median
    # jumps with whichever state held most of its passes
    wall = statistics.fmean(walls)
    if tracer is None:
        metrics = {
            "wall_s": _metric(wall, "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
            "decided_ratio": _metric(
                1 - unknown / decisions if decisions else 1.0, "ratio"),
        }
    else:
        metrics = {name: _metric(statistics.median(row[name]
                                                   for row in layer_rows),
                                 layer_unit(name))
                   for name in layer_rows[0]}
        metrics["traced.wall_s"] = _metric(wall, "s")

    workloads.report_errors(recs)
    print(f"meta: {json.dumps(metadata(args.seed), sort_keys=True)}")
    print(f"workload {args.workload}: {len(recs)} passes, wall_s mean "
          f"of {len(walls)}, median {statistics.median(walls):.4f} s, "
          f"min {min(walls):.4f} s, max {max(walls):.4f} s")
    print(f"failed_ratio = {failed}/{attempted}; unknown_ratio = "
          f"{unknown}/{decisions} exact decisions")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if tracer is not None:
        selfs = {k[:-len(".self_s")]: m["value"] for k, m in metrics.items()
                 if k.endswith(".self_s")}
        top = max(selfs, key=selfs.get)
        print(f"dominant layer by self time: {top} "
              f"({selfs[top]:.4f} s of {wall:.4f} s per pass)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
