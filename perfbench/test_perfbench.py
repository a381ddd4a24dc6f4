"""Tests of the benchmark harness, on the reduced (``--quick``) workloads.

Each run is a subprocess: the harness re-imports the program and wraps
its functions, which must not leak into the test process.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(args, cwd=ROOT, code=None):
    cmd = [sys.executable, "-c", code] if code else \
        [sys.executable, "perfbench/run.py"]
    return subprocess.run(cmd + args, cwd=cwd, capture_output=True,
                          text=True, timeout=120)


def _quick(workload, trace):
    return ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--quick"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    proc = _run(_quick(workload, trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_broken_output_check_counts_as_failure():
    # pin a wrong rate for the first quick family; the run must finish
    # and count that operation as failed in every pass
    code = (
        "import sys; sys.path.insert(0, 'perfbench');"
        "import run, workloads;"
        "(fam, _), other = workloads.PINNED_RATES[True];"
        "workloads.PINNED_RATES[True] = ((fam, '1/2'), other);"
        "sys.exit(run.main(sys.argv[1:]))"
    )
    proc = _run(_quick("exact_search", 0), code=code)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 1 <= result["failed"] < result["attempted"]
    assert "check failed: rate of" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run(_quick("pipeline_planar", 0), cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
