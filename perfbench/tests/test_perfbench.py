"""Tests of the benchmark itself, on tiny ("smoke") inputs.

They check that every workload runs and passes its checks, that the
traced run's wrappers fire exactly where predicted and are removed
afterwards, that the output checks have teeth (a one-ulp change fails
them), and that a failing workload reports no throughput.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.core.cluster as cluster
import repro.core.simkernel as simkernel
from perfbench import bench, layers, workloads

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]


def smoke(name: str, tmp_path: Path, trace: bool = False) -> bench.RunResult:
    return bench.measure(
        name, 0, 0.0, "smoke", ROOT, trace, 0.0, [], tmp_path
    )


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(layers.WORKLOADS)
    assert set(workloads.WORKLOAD_TYPES) == set(layers.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ] == [(m.name, m.unit, m.better) for m in layers.PER_LAYER]
    for metric in layers.PER_LAYER:
        named = metric.exercised_by + metric.input_dependent
        assert set(named) <= set(layers.WORKLOADS)
    assert "setup_s" in END_TO_END


@pytest.mark.parametrize("name", layers.WORKLOADS)
def test_smoke_run_is_correct(name, tmp_path):
    result = smoke(name, tmp_path)
    assert result.correct, result.record["problems"]
    assert result.failed == 0 and result.attempted >= bench.MIN_PASSES
    assert list(result.metrics) == END_TO_END
    assert all(value > 0 for value, _ in result.metrics.values())


@pytest.mark.parametrize("name", layers.WORKLOADS)
def test_traced_smoke_run_meets_predictions(name, tmp_path):
    result = smoke(name, tmp_path, trace=True)
    assert result.correct, result.record["problems"]
    assert [m for m in result.metrics] == [m.name for m in layers.PER_LAYER]
    assert result.metrics["trace.coverage"][0] >= 0.95
    trace = json.loads(Path(result.record["trace_file"]).read_text())
    assert trace["traceEvents"]
    assert {"name", "ph", "ts", "dur"} <= set(trace["traceEvents"][0])
    # Every wrapper is gone again, including the direct imports.
    assert cluster.plan_dispatch is simkernel.plan_dispatch
    assert not hasattr(simkernel.plan_dispatch, "__wrapped__")
    assert not hasattr(cluster.ClusterSimulator.run, "__wrapped__")


def test_every_layer_key_has_wrappers_and_a_prediction():
    assert {t.layer for t in layers.targets()} == set(layers.LAYER_CALLS)


def test_prediction_check_flags_a_misfiring_wrapper():
    calls = {key: 1.0 for key in layers.LAYER_CALLS}
    values = {m.name: 0.0 for m in layers.PER_LAYER}
    errors = layers.prediction_errors(layers.FLEET, calls, values)
    assert any("'faults.advance'" in error for error in errors)
    assert any("metric fleet.self_s" in error for error in errors)


def _one_ulp(array: np.ndarray) -> np.ndarray:
    nudged = array.copy()
    nudged.flat[0] = np.nextafter(nudged.flat[0], np.inf)
    return nudged


def test_one_ulp_change_fails_the_pass_check(tmp_path, monkeypatch):
    original = workloads.EngineGooglenet.run
    calls = []

    def perturbed(self):
        calls.append(None)
        outputs = original(self)
        return outputs if len(calls) == 1 else _one_ulp(outputs)

    monkeypatch.setattr(workloads.EngineGooglenet, "run", perturbed)
    result = smoke(layers.ENGINE, tmp_path)
    assert not result.correct
    assert result.failed == result.attempted >= bench.MIN_PASSES
    # A workload with no good pass reports no throughput.
    assert "units_per_s" not in result.metrics


def test_one_ulp_change_fails_the_golden_replay():
    golden = workloads.load_golden_generator(ROOT)
    path = golden.fixture_path("adaptive", "recal")
    with np.load(path) as fixture:
        exact = {name: fixture[name] for name in fixture.files}
    assert workloads.golden_problems(path, exact) == []
    exact["completion_s"] = _one_ulp(exact["completion_s"])
    assert workloads.golden_problems(path, exact) == [
        "adaptive_recal.npz: 'completion_s' differs"
    ]


def test_one_ulp_change_moves_the_digest():
    latency = np.linspace(0.001, 0.002, 16)
    assert workloads.digest([latency]) != workloads.digest([_one_ulp(latency)])


def test_failing_warm_up_reports_no_metrics(tmp_path, monkeypatch):
    def broken(self):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.AdaptiveLenet, "run", broken)
    result = smoke(layers.LENET, tmp_path)
    assert not result.correct
    assert result.metrics == {}
    assert result.failed == result.attempted == 1


def _cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_cli_prints_the_result_line_last():
    done = _cli(
        ROOT, "--workload", layers.LENET, "--seed", "1", "--seconds", "0",
        "--trace", "0", "--size", "smoke",
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == END_TO_END


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _cli(tmp_path, "--workload", layers.FLEET, "--seed", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
