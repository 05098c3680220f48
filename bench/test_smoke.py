"""Smoke test of the benchmark harness, in seconds rather than minutes.

    python3 -m pytest bench/test_smoke.py

Every workload runs with `--tiny` (N <= 10, a few grid points), untraced and
traced; each run must emit every metric of BENCHMARK.json with its unit and
fail no study call.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))

import studies  # noqa: E402


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.5",
                "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    *_, summary, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for m in SPEC["end_to_end"]:
        assert f" {m['name']}=" in summary and f" {m['unit']} " in summary
    assert " failed_frac=0 ratio " in summary


def test_seed_moves_grids_but_not_the_work():
    for workload in studies.WORKLOADS:
        base = studies.plan(workload, 0)
        for seed in (1, 2, 17):
            shifted = studies.plan(workload, seed)
            assert [s.name for s in shifted] == [s.name for s in base]
            for a, b in zip(base, shifted):
                for key, value in a.params.items():
                    if isinstance(value, studies.Grid):
                        assert b.params[key].count == value.count
                        assert b.params[key].step == value.step
                    elif key not in ("alpha", "alphas"):
                        assert b.params[key] == value
            if workload != "oracle":
                assert [s.argv for s in shifted] != [s.argv for s in base]
            assert [s.argv for s in studies.plan(workload, seed)] == [s.argv for s in shifted]


def test_seed_zero_is_the_readme_grid():
    argv = {s.name: " ".join(s.argv) for w in studies.WORKLOADS for s in studies.plan(w, 0)}
    assert argv["scaling"] == "scaling --n-list 50,100,200,400"
    assert argv["spectrum"] == "spectrum --n 40 --alpha-range 0:3:0.01"
    assert argv["ipr"] == "ipr-sweep --n 200 --alpha-range 0:2:0.005 --states 1:100"
    assert argv["c12_band"] == "concurrence-sweep --n 200 --alpha-range 0:2:0.005"
    assert argv["ipr_t_0.4"] == "evolve --n 200 --alpha 0.4 --kind ipr --t-range 0:500:0.05"
    assert argv["landscape"] == "landscape --n 31 --alpha-range 0.1:1.5:0.02 --t-range 0:40:0.1"
    assert argv["eigenvector_center"] == "eigenvector --n 112 --alpha 0.1 --state 56"
    assert argv["oracle"] == "oracle-check --n-max 10"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "oracle", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
