"""Smoke test of the benchmark at a tiny size (a few seconds per run).

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_every_declared_metric_is_emitted_with_its_unit(workload: str, trace: str) -> None:
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared
    }
    for entry in declared:
        value = result["metrics"][entry["name"]]["value"]
        assert isinstance(value, (int, float))
        if trace == "0":
            assert value > 0, entry["name"]


def test_corrupted_reference_fails_the_analyze_workload(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture
) -> None:
    setup = workloads.AnalyzeWorkload.setup

    def corrupted_setup(self: workloads.AnalyzeWorkload) -> None:
        setup(self)
        app = self.apps[0]
        summaries = pickle.loads(self.reference[app])
        stats = summaries["statistics"]
        summaries["statistics"] = dataclasses.replace(
            stats, mean=dataclasses.replace(stats.mean, traced=stats.mean.traced + 1)
        )
        self.reference[app] = pickle.dumps(summaries)

    monkeypatch.setattr(workloads.AnalyzeWorkload, "setup", corrupted_setup)
    code = run.main(["--workload", "analyze", "--seed", "3", "--seconds", "0.1",
                     "--trace", "0", "--size", "tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    error_rate = next(float(line.split()[1]) for line in lines if line.split()[:1] == ["error_rate"])
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0
    assert error_rate > 0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "study", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
