"""Smoke test of the benchmark at a tiny size.

    python -m pytest bench/test_bench.py

Shrinks every workload to a handful of cheap jobs, runs each once untraced
and once traced, and checks that the output names every metric of
BENCHMARK.json with its unit and that no job failed.  Then breaks one
reference per workload and checks that the run reports failures.
"""
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_package()

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "GROUPS", {k: workloads.GROUPS[k] for k in ("H3", "A4")})
    monkeypatch.setattr(workloads, "ORBIT_CYCLE", ("H3", "A4"))
    monkeypatch.setattr(workloads, "CERTIFY_DIMS", (6,))
    monkeypatch.setattr(workloads, "CERTIFY_N", (12,))
    monkeypatch.setattr(workloads, "CERTIFY_ORDERS", (1, 2))
    monkeypatch.setattr(workloads, "REACHABLE",
                        {(3, 1, 2, 2): workloads.REACHABLE[(3, 1, 2, 2)]})
    monkeypatch.setattr(workloads, "UNREACHABLE", {})
    monkeypatch.setattr(workloads, "MOMENT_TABLES", ((4, 2), (6, 3)))


def _run(tmp_path, workload, traced):
    return run.run_workload(workload, 1, 0, traced, out_dir=tmp_path)[1]


def test_spec_matches_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.catalogue()
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("traced", [False, True])
def test_every_metric_reported(tiny, tmp_path, workload, traced):
    result = _run(tmp_path, workload, traced)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if traced else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if traced:
        assert result["metrics"]["failed_frac"]["value"] == 0
        assert result["metrics"]["trace.spans"]["value"] > result["attempted"]
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_orbit_reference_fails(tiny, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "GROUPS",
                        {"H3": (workloads.GROUPS["H3"][0], (2, 4, 10))})
    monkeypatch.setattr(workloads, "ORBIT_CYCLE", ("H3",))
    result = _run(tmp_path, "orbit", True)
    assert not result["correct"]
    assert result["metrics"]["failed_frac"]["value"] > 0


def test_wrong_certify_reference_fails(tiny, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "E8_TIGHT", 1)
    result = _run(tmp_path, "certify", False)
    assert not result["correct"] and result["failed"] == 1


def test_wrong_search_reference_fails(tiny, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "REACHABLE", {(3, 1, 2, 2): Fraction(1, 2)})
    result = _run(tmp_path, "search", False)
    assert not result["correct"] and result["failed"] >= 1


def test_invariant_dims_from_degrees():
    # H3: degree 6 has x^6-type invariants (2+2+2) and the basic one of degree 6
    assert [workloads.invariant_dim((2, 6, 10), 2 * p) for p in (1, 2, 3)] == [1, 1, 2]
    assert workloads.max_tight_order((2, 3, 4, 5)) == 1
    assert workloads.max_tight_order((2, 6, 8, 12)) == 2


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "orbit",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
