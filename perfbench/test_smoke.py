"""Smoke test of the benchmark harness: every workload at reduced sizes, and
the command line on a tree without the library sources.

Run with `python -m pytest perfbench` from the repository root.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

REDUCED = {
    "certify-large": dict(shapes=((1, 2), (2, 2)), norms=(1e-8,)),
    "certify-small": dict(shapes=((1, 2),), norms=(1e-6,)),
    "linearize-verify": dict(shapes=((1, 4),)),
}


def _run_reduced(name, trace):
    spec = dataclasses.replace(workloads.WORKLOADS[name], **REDUCED[name])
    results = []
    for child in range(2):
        started = run._monotonic()
        result = run.run_child(spec, 3, child, 2, 0.0, trace, min_ops=12)
        result["setup_s"] = result["first_op_at"] - started
        results.append(result)
    return results


def test_workload_names_match_the_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", list(REDUCED))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported_with_its_unit(name, trace):
    results = _run_reduced(name, trace)
    metrics, extras = run.summarize(results, trace)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in metrics.items()}
    assert sum(r["attempted"] for r in results) == 24
    assert sum(r["failed"] for r in results) == 0
    assert extras["fail_frac"]["value"] == 0
    if trace:
        assert all(r["layers"] for r in results)
        assert metrics["backward.certified_per_attempt"]["value"] == (name != "linearize-verify")
        if name == "linearize-verify":
            assert metrics["sylvester.fixed_point_ms"]["value"] == 0.0
            assert metrics["minbases.dual_complete_ms"]["value"] == 0.0
            assert metrics["spectra.share"]["value"] > 0.5
        else:
            assert metrics["sylvester.fixed_point_share"]["value"] > 0.2
            assert metrics["spectra.share"]["value"] == 0.0
    elif name != "linearize-verify":
        assert 0 < extras["max_ratio_over_bound"]["value"] < 1


def test_command_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_command_prints_the_result_as_its_last_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-small", "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    assert "fail_frac" in proc.stdout and "max_ratio_over_bound" in proc.stdout
