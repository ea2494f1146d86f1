"""Smoke test of the benchmark at toy size.

Run with: python3 -m pytest bench/test_smoke.py -q

Every workload runs untraced and traced on tiny inputs for half a second;
the test asserts that every metric BENCHMARK.json names is printed with
its unit, that the oracle gate passes, and that a wrong expected answer
makes the command fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from pathreach import decomposition, testkit  # noqa: E402

TOY = {
    "walks_random": {"n": 60, "k": 4, "max_len": 20, "instance_seed": 3,
                     "id_range": 600, "max_ops": 200},
    "chain_deep": {"n": 40, "k": 3, "pass_size": 5, "max_ops": 50},
    "dag_cover": {"n": 30, "p": 0.2, "max_ops": 5},
    "setup_reps": 2,
}


@pytest.fixture(autouse=True)
def toy_sizes(monkeypatch):
    for key, value in TOY.items():
        monkeypatch.setitem(run.PARAMS, key, value)


def _run(capsys, workload: str, trace: int):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.5",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_and_the_gate_passes(capsys, workload, trace):
    code, lines, result = _run(capsys, workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) >= 3}
    for name, unit in declared.items():
        assert printed.get(name) == unit, name
    assert any(line.startswith("failed_ops") for line in lines)
    assert any(line.startswith("instance {") for line in lines)


@pytest.mark.parametrize("workload", ["walks_random", "chain_deep"])
def test_wrong_oracle_answer_fails_the_run(capsys, monkeypatch, workload):
    real = testkit.switch_costs

    def off_by_one(*args, **kwargs):
        return [None if c is None else c + 1 for c in real(*args, **kwargs)]

    monkeypatch.setattr(testkit, "switch_costs", off_by_one)
    code, _, result = _run(capsys, workload, 0)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_wrong_lower_bound_fails_the_cover_run(capsys, monkeypatch):
    real = decomposition.path_number_lower_bound
    monkeypatch.setattr(decomposition, "path_number_lower_bound", lambda g: real(g) + 1)
    code, _, result = _run(capsys, "dag_cover", 0)
    assert code != 0
    assert result["failed"] == result["attempted"]


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "dag_cover", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
