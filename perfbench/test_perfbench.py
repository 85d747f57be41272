"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q`` from the repo root.

They run short workloads in subprocesses, so they take about a minute.
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
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import eval_workloads  # noqa: E402
import schema  # noqa: E402
import serve_workloads  # noqa: E402
from common import sliced_p99  # noqa: E402
from host import SpeedProbe, scale_at  # noqa: E402
from ledger import LayerClock  # noqa: E402
from repro.runner import array_digest  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    return result


def test_benchmark_json_matches_schema():
    written = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert written == schema.benchmark_json()


@pytest.mark.parametrize("workload", list(schema.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "2", "--trace", "0"))
    units = {name: unit for name, (unit, _, _) in schema.END_TO_END.items()}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == units
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_eval_clean_covers_the_forward():
    result = _result(_run("--workload", "eval-clean", "--seed", "3", "--seconds", "3", "--trace", "1"))
    units = {name: unit for name, (unit, _) in schema.PER_LAYER.items()}
    metrics = result["metrics"]
    assert {name: metric["unit"] for name, metric in metrics.items()} == units
    assert metrics["trace.coverage_share"]["value"] >= 0.95
    assert metrics["nn.linear.ms_per_img"]["value"] > 0
    assert metrics["blocks.softmax.ms_per_img"]["value"] > 0
    assert metrics["eval_pipeline.faults.sites_per_batch"]["value"] == 0


@pytest.mark.parametrize("workload", list(schema.WORKLOADS))
def test_same_seed_gives_same_workload_digest(workload):
    def inputs_digest(seed: int) -> str:
        if workload.startswith("eval-"):
            split = eval_workloads.make_inputs(seed)
            return array_digest(split.images, split.labels)
        return array_digest(serve_workloads.make_inputs(seed))

    assert inputs_digest(5) == inputs_digest(5)
    assert inputs_digest(5) != inputs_digest(6)


def test_sliced_p99_shrugs_off_one_burst():
    steady = [10.0] * 700
    burst = steady[:350] + [80.0] * 100 + steady[350:]
    assert sliced_p99(burst) == pytest.approx(10.0)
    assert sliced_p99(steady) == pytest.approx(10.0)


def test_timings_scale_to_reference_speed():
    probe = SpeedProbe()
    slow = 2 * SpeedProbe.REFERENCE_S
    assert probe.scale(slow, slow) == pytest.approx(0.5)
    assert probe.run() > 0 and len(probe.samples) == 1
    spans = [(0.0, 1.0, 0.5), (1.1, 2.0, 2.0)]
    assert [scale_at(spans, when) for when in (-1.0, 0.5, 1.05, 1.5, 9.0)] == [0.5, 0.5, 0.5, 2.0, 2.0]
    assert scale_at([], 1.0) == 1.0


def test_ledger_refuses_a_missing_entry_point():
    class Layer:
        def forward(self):
            return 1

    raw = vars(Layer)["forward"]
    clock = LayerClock()
    with pytest.raises(AttributeError, match="Layer.backward"):
        with clock.patched([(Layer, "backward", "nn.other", None)]):
            pass
    with clock.patched([(Layer, "forward", "nn.other", None)]):
        assert Layer().forward() == 1
    assert clock.calls["nn.other"] == 1
    assert vars(Layer)["forward"] is raw


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "eval-clean", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
