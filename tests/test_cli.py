"""Tests of the ``python -m repro`` front end: the sweeps, ``verify`` and
argument-level guards."""

import json
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_dse_smoke_writes_the_explored_grid(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "dse.json"
    assert main(["dse", "--grid", "tiny", "--bx", "4", "--rows", "12", "--quiet", "--out", str(out)]) == 0
    space = json.loads(out.read_text())["spaces"]["4"]
    assert space["grid_size"] == space["explored"] == 8
    assert space["pareto"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["dse.json"]  # nothing but the output
    capsys.readouterr()  # drain


@pytest.mark.parametrize(
    "argv", [["tables"], ["run", str(ROOT / "examples" / "specs" / "table4_softmax.json")]], ids=["tables", "run-spec"]
)
def test_table4_output_equals_the_committed_table(argv, tmp_path, capsys):
    out = tmp_path / "t4.json"
    assert main([*argv, "--quiet", "--out", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "benchmarks" / "results" / "table4_softmax_blocks.json").read_bytes()
    capsys.readouterr()


def test_gelu_sweep_writes_the_fig7_rows_in_grid_order(tmp_path, capsys):
    from repro.evaluation.sweeps import fig7_gelu_configs

    out = tmp_path / "fig7.json"
    assert main(["gelu-sweep", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [row[1] for row in rows] == [config["bsl"] for config in fig7_gelu_configs()]
    assert "gelu-sweep: done — 12 configs" in capsys.readouterr().err


def test_verify_subcommand_passes(capsys):
    assert main(["verify"]) == 0
    captured = capsys.readouterr()
    for flip_prob in ("0.0", "0.05"):
        assert f"PASS batched == per-image (12 images, config test/[8, 16, 4, 2], flip_prob={flip_prob})" in captured.out
        assert f"PASS fabric == golden blocks path (flip_prob={flip_prob}, " in captured.out
    for engine in ("thread", "process"):
        assert f"PASS served == offline under a shard kill (scenario verify-kill-{engine}, flip_prob=0.05, " in captured.out
    assert sum(line.startswith("PASS ") for line in captured.out.splitlines()) == 6
    assert "FAIL" not in captured.err


def test_verify_names_the_failing_check(monkeypatch, capsys):
    """Corrupted served predictions fail the thread-engine scenario: verify
    exits 1 and its FAIL line names the scenario and the assertion."""
    from repro.serve.engine import PipelineEngine

    run = PipelineEngine.run

    def corrupted(self, images, indices):
        return (run(self, images, indices) + 1) % 10

    monkeypatch.setattr(PipelineEngine, "run", corrupted)
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    failures = [line for line in captured.err.splitlines() if line.startswith("FAIL ")]
    assert len(failures) == 1, captured.err
    assert failures[0].startswith("FAIL served != offline: scenario verify-kill-thread: bit_identity")
    assert "verify-kill-process" in captured.out  # the other checks still ran and passed


@pytest.mark.parametrize("command", ["eval", "serve", "bench"])
def test_retired_backend_flag_rejected(command, capsys):
    """The kernel engine is not selectable: a stale ``--backend`` fails
    at argument parsing, before any work starts."""
    # `serve` must get past its required spec file to reach the flag.
    required = ["--spec", "deployment.json"] if command == "serve" else []
    with pytest.raises(SystemExit) as excinfo:
        main([command, *required, "--backend", "numpy"])
    assert excinfo.value.code == 2
    assert "--backend" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["dse", "--workers", "2"],
        ["gelu-sweep", "--cache-dir", "c"],
        ["tables", "--no-cache"],
        ["tables", "--table", "table4"],
        ["eval", "--workers", "2"],
        ["run", "spec.json", "--workers", "2"],
        ["scenario", "spec.json", "--no-cache"],
        ["fabric", "spec.json", "--cache-dir", "c"],
        ["verify", "--workers", "2"],
    ],
)
def test_removed_pool_and_cache_options_rejected(argv, capsys):
    """Sweeps run serially and uncached: the pool/cache options are gone."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bench_check_floor_on_recorded_results(capsys):
    rc = main(["bench", "--check-floor", "--no-run"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "engine floors: all pass" in captured.out
