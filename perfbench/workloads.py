"""The benchmark's workloads and the checks on their outputs.

A workload function runs one pass: a fixed sequence of calls into the
program, each timed through a ``Recorder``.  Every output is checked after
the call that made it returns; checks are not timed and leave no spans.
A failed check, an exception, or a CLI exit code outside {0, 2, 3} marks
its operation failed; nothing aborts the pass.

A pass that runs longer than ``PASS_DEADLINE_S`` is cut off: the
operation under way fails and the rest of the pass is skipped, so an input
that sends the program into a search without a limit costs a bounded
time.

Each workload has a full size and a reduced ``quick`` size for the
harness's own tests.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import signal
import sys
import time
import traceback
from fractions import Fraction

EXACT_RULES = ("exact", "exact_infeasible", "exact_unknown")
CLI_EXIT_CODES = (0, 2, 3)
PASS_DEADLINE_S = 45.0


class DeadlineExceeded(Exception):
    pass


def _expire(signum, frame):
    raise DeadlineExceeded(f"pass ran longer than {PASS_DEADLINE_S} s")


class Recorder:
    """Times the operations of one pass and records their outcomes."""

    def __init__(self, fc, tracer=None):
        self.fc = fc
        self.tracer = tracer
        self.seconds = 0.0
        self.ops: list[bool] = []  # one entry per operation: passed?
        self.decisions = 0
        self.unknown = 0
        self.digests: list[tuple[int, str]] = []  # (operation, sha256)
        self.errors: list[str] = []
        self.deadline = time.perf_counter() + PASS_DEADLINE_S
        signal.signal(signal.SIGALRM, _expire)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return self.ops.count(False)

    def call(self, fn, *args, **kwargs):
        """Run one timed operation; returns None if it raised, and skips
        it once the pass is past its deadline."""
        left = self.deadline - time.perf_counter()
        if left <= 0:
            return None
        self.ops.append(True)
        if self.tracer is not None:
            self.tracer.active = True
        t0 = time.perf_counter()
        try:
            # the alarm is cancelled inside the handled region, so one
            # that fires as the call returns is still caught
            signal.setitimer(signal.ITIMER_REAL, left)
            try:
                return fn(*args, **kwargs)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Exception:  # counted as a failure; the pass goes on
            self.fail(traceback.format_exc())
            return None
        finally:
            self.seconds += time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False

    def cli(self, argv: list[str]):
        """Run one CLI command in-process with its output captured;
        returns (exit code, stdout), or (None, None) if it raised."""
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = self.fc.cli.main(argv)
                except SystemExit as exc:  # argparse rejects the command
                    code = exc.code
            return code, out.getvalue()
        res = self.call(run)
        if res is None:
            return None, None
        code, text = res
        self.check(code in CLI_EXIT_CODES, f"{argv[0]} exit code {code}")
        return code, text

    def check(self, ok: bool, what: str) -> None:
        """Mark the last operation failed unless ``ok``."""
        if not ok:
            self.fail(f"check failed: {what}")

    def fail(self, message: str) -> None:
        self.ops[-1] = False
        self.errors.append(message)

    def parse(self, text):
        """Parse a CLI output; a missing or malformed one fails the
        operation."""
        try:
            return json.loads(text)
        except (TypeError, ValueError):
            self.fail("output is not JSON")
            return None

    def output(self, obj) -> None:
        """Remember the last operation's output, so that repeated passes
        can be compared."""
        text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
        self.digests.append(
            (len(self.ops) - 1, hashlib.sha256(text.encode()).hexdigest()))

    def decide(self, unknown: bool) -> None:
        """Count one exact decision, and whether it ended at a limit."""
        self.decisions += 1
        self.unknown += unknown

    def compare(self, first: "Recorder") -> None:
        """Fail each operation whose output differs from the first
        pass's."""
        if len(self.digests) != len(first.digests):
            self.fail("pass produced a different number of outputs")
            return
        for (op, mine), (_, theirs) in zip(self.digests, first.digests):
            if mine != theirs:
                self.ops[op] = False
                self.errors.append(f"output of operation {op} differs "
                                   "from the first pass")


def _replays(fc, g, start: int, obj: dict, cap: int) -> bool:
    """A witness trace starts at ``start``, burns at most ``cap`` vertices
    and is reproduced exactly by replaying its protections."""
    try:
        trace = fc.engine.SimTrace.from_json(obj, g.n)
        return (trace.start == start and trace.burned_count <= cap
                and fc.engine.replay(g, trace) == trace)
    except Exception:
        return False


def _check_evidence(rec: Recorder, g, labels: dict, evidence: dict,
                    cap: int) -> None:
    """Check a classification's labels and witnesses, and count its exact
    decisions."""
    rec.check(sorted(labels) == sorted(evidence)
              and len(labels) == g.n, "labels cover the graph")
    for v, ev in evidence.items():
        if ev.get("rule") in EXACT_RULES:
            rec.decide(ev["rule"] == "exact_unknown")
        if "trace" in ev:
            rec.check(_replays(rec.fc, g, int(v), ev["trace"], cap),
                      f"witness of vertex {v} replays within cap {cap}")


def _write_input(rec: Recorder, g, path) -> list[str] | None:
    """Encode ``g`` for the CLI; returns its source arguments."""
    data = rec.call(rec.fc.formats.encode_rotation_json, g)
    if data is None:
        return None
    path.write_bytes(data)
    return ["--input", str(path), "--format", "rotation_json"]


# -- pipeline_planar --------------------------------------------------------

PLANAR_N = {False: 400, True: 60}


def pipeline_planar(rec: Recorder, seed: int, quick: bool, workdir) -> None:
    """One seeded stacked triangulation through CLI classify, discharge
    and the thm3_planar certificate."""
    fc = rec.fc
    g = rec.call(fc.randgen.random_triangulation, PLANAR_N[quick], seed)
    if g is None:
        return
    src = _write_input(rec, g, workdir / "pipeline_planar.json")
    if src is None:
        return
    _, text = rec.cli(["classify", *src, "--context", "planar"])
    report = rec.parse(text)
    if report is not None:
        rec.output(text)
        rec.check(report.get("context") == "planar_thm3", "context")
        _check_evidence(rec, g, report.get("labels", {}),
                        report.get("evidence", {}), cap=6)
    _, text = rec.cli(["discharge", *src, "--context", "planar"])
    audit = rec.parse(text)
    if audit is not None:
        rec.output(text)
        rec.check(audit.get("ok") is True
                  and audit.get("conservation_residual") == "0/1",
                  "planar audit ok")
    _, text = rec.cli(["rate", *src, "--theorem", "thm3_planar"])
    cert = rec.parse(text)
    if cert is not None:
        rec.output(text)
        rec.check(cert.get("passed") is True and cert.get("n") == g.n,
                  "thm3_planar certificate passed")


# -- exact_rates ------------------------------------------------------------

# exact single-firefighter surviving rates, pinned
PINNED_RATES = {
    False: (("rect_grid:4,5", "121/200"), ("dodecahedron", "9/20")),
    True: (("rect_grid:3,3", "46/81"), ("cube", "3/8")),
}
RATE_TF_N = {False: 18, True: 8}


def exact_rates(rec: Recorder, seed: int, quick: bool, workdir) -> None:
    """Exact k = 1 surviving rates through CLI ``rate`` on two symmetric
    families and one seeded asymmetric quadrangulation."""
    fc = rec.fc
    for family, pinned in PINNED_RATES[quick]:
        code, text = rec.cli(["rate", "--k", "1", "--family", family])
        rep = rec.parse(text)
        if rep is None:
            continue
        rec.output(text)
        rec.decide(code == 3)
        rec.check(rep.get("rate") == pinned and rep.get("mode") == "exact",
                  f"rate of {family} is {pinned}")
    n = RATE_TF_N[quick]
    g = rec.call(fc.randgen.random_tf_maximal, n, seed)
    if g is None:
        return
    src = _write_input(rec, g, workdir / "exact_rates.json")
    if src is None:
        return
    code, text = rec.cli(["rate", "--k", "1", *src])
    rep = rec.parse(text)
    if rep is None:
        return
    rec.output(text)
    rec.decide(code == 3)
    saved = rep.get("saved", {})
    rec.check(code == 0 and rep.get("mode") == "exact"
              and len(saved) == n
              and all(1 <= s <= n - 1 for s in saved.values())
              and Fraction(rep["rate"]) == Fraction(sum(saved.values()), n * n),
              "seeded exact rate is consistent")


# -- trianglefree -----------------------------------------------------------

# instance seeds of the fixed structural pool; the workload seed relabels it
TF_POOL = {False: range(11, 27), True: range(11, 14)}
TF_N = {False: 200, True: 40}
TF_NODE_LIMIT = 500_000


def _relabel(fc, g, perm: list[int]):
    """The same embedded graph with vertex v renamed perm[v]."""
    rot = [None] * g.n
    for v, r in enumerate(g.rotations):
        rot[perm[v]] = [perm[u] for u in r]
    return fc.embedding.build(rot)


def _discharge_tf(fc, g, report):
    d = fc.discharge
    ledger = d.transfer_tf(g, d.init_tf_charges(g), report)
    return ledger, d.audit_tf(g, ledger, report)


def trianglefree(rec: Recorder, seed: int, quick: bool, workdir) -> None:
    """A pool of stacked quadrangulations, each relabelled by the seed,
    through classification, discharging and the thm5 certificate."""
    fc = rec.fc
    n = TF_N[quick]
    rng = random.Random(seed)
    for s in TF_POOL[quick]:
        perm = rng.sample(range(n), n)
        base = rec.call(fc.randgen.random_tf_maximal, n, s)
        if base is None:
            continue
        g = rec.call(_relabel, fc, base, perm)
        if g is None:
            continue
        report = rec.call(fc.classify.classify_triangle_free, g,
                          node_limit=TF_NODE_LIMIT)
        if report is None:
            continue
        rec.output(report.to_json())
        _check_evidence(rec, g, report.labels, report.evidence, cap=18)
        res = rec.call(_discharge_tf, fc, g, report)
        if res is not None:
            ledger, audit = res
            rec.output(audit.to_json(ledger.transfers))
            rec.check(audit.ok, "triangle-free audit ok")
        cert = rec.call(fc.rates.certify_bound, g, "thm5_trianglefree")
        if cert is not None:
            rec.output(cert.to_json())
            rec.check(cert.passed, "thm5_trianglefree certificate passed")


# -- exact_search -------------------------------------------------------------

def exact_search(rec: Recorder, seed: int, quick: bool, workdir) -> None:
    """Both exact searches in one pass: max-save memoisation through the
    exact rates, then cap-18 containment proofs through the triangle-free
    pool.  They share a workload, not a run each, so that every run can
    be long enough to be steady on a shared host."""
    exact_rates(rec, seed, quick, workdir)
    trianglefree(rec, seed, quick, workdir)


WORKLOADS = {
    "pipeline_planar": pipeline_planar,
    "exact_search": exact_search,
}


def report_errors(recs, limit: int = 5) -> None:
    """Print the first few failure messages to stderr."""
    errors = [e for r in recs for e in r.errors]
    for e in errors[:limit]:
        print(e.rstrip(), file=sys.stderr)
    if len(errors) > limit:
        print(f"... {len(errors) - limit} more failures", file=sys.stderr)
