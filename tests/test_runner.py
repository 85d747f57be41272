"""Tests for the sweep orchestration subsystem (repro.runner).

The claims under test are the ones the orchestrator exists for:

* parallel exploration is **bit-for-bit identical** to the serial path, in
  the same grid order,
* the disk cache serves repeated sweeps without re-evaluating a single
  circuit, invalidates on code-version changes, and resumes a crashed
  (half-populated) sweep by recomputing only what is missing,
* ``max_designs`` truncates deterministically in grid order regardless of
  worker count (regression test),
* the CLI front-end drives all of the above.
"""

import json
import math
from itertools import islice

import numpy as np
import pytest

from repro.core.dse import SoftmaxDesignSpace, evaluate_design
from repro.evaluation.reporting import ProgressReporter
from repro.evaluation.vectors import attention_logit_vectors
from repro.runner.cache import ResultCache, array_digest, canonical_json, code_fingerprint
from repro.runner.runner import ParallelSweepRunner, SweepTask, derive_seed
from repro.runner.tasks import SoftmaxDesignTask, fig7_gelu_configs, table4_configs

class TraceTask(SweepTask):
    """Module-level (picklable) task whose results carry a numpy array."""

    name = "trace"

    def config_key(self, config):
        return {"n": config}

    def evaluate(self, config, seed):
        return {"n": config, "trace": np.arange(float(config))}

    def encode(self, result):
        return {"n": result["n"]}

    def result_arrays(self, result):
        return {"trace": result["trace"]}

    def decode(self, payload, arrays=None):
        assert arrays is not None, "decode must receive the arrays"
        return {"n": payload["n"], "trace": arrays["trace"]}


TINY_GRID = dict(
    by_choices=(4, 8),
    iteration_choices=(2,),
    s1_choices=(16, 64),
    s2_choices=(4, 16),
    alpha_y_multipliers=(1.0,),
)


@pytest.fixture(scope="module")
def logit_rows():
    return attention_logit_vectors(16, 64, seed=11)


@pytest.fixture(scope="module")
def tiny_space(logit_rows):
    return SoftmaxDesignSpace(bx=4, test_vectors=logit_rows, **TINY_GRID)


def assert_points_identical(a, b):
    """Bit-for-bit DesignPoint equality (NaN-aware for infeasible points)."""
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.config == right.config
        assert left.feasible == right.feasible
        for field in ("area_um2", "delay_ns", "adp", "mae"):
            x, y = getattr(left, field), getattr(right, field)
            assert x == y or (math.isnan(x) and math.isnan(y)), (field, x, y)


class TestParallelEqualsSerial:
    def test_parallel_matches_serial_bit_for_bit(self, tiny_space):
        serial = tiny_space.explore()
        parallel = tiny_space.explore(workers=2)
        assert_points_identical(serial, parallel)

    def test_all_cpus_setting(self, tiny_space):
        serial = tiny_space.explore()
        parallel = tiny_space.explore(workers=0)  # 0 = all CPUs
        assert_points_identical(serial, parallel)

    def test_runner_preserves_grid_order(self, tiny_space, logit_rows):
        configs = list(tiny_space.enumerate_configs())
        runner = ParallelSweepRunner(SoftmaxDesignTask(test_vectors=logit_rows), workers=2)
        points = runner.run(configs)
        assert [p.config for p in points] == configs


class TestCache:
    def test_second_run_is_all_hits_no_reevaluation(self, tiny_space, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        first = tiny_space.explore(workers=2, cache=cache)
        stats_first = tiny_space.last_run_stats
        assert stats_first.evaluated == len(first)
        assert stats_first.cache_hits == 0

        second = tiny_space.explore(workers=2, cache=cache)
        stats_second = tiny_space.last_run_stats
        assert stats_second.evaluated == 0
        assert stats_second.cache_hits == len(first)
        assert_points_identical(first, second)

    def test_cached_run_never_calls_evaluate(self, tiny_space, logit_rows, tmp_path, monkeypatch):
        """The acceptance claim: a warm cache means zero circuit evaluations."""
        cache = ResultCache(tmp_path, code_version="v1")
        configs = list(tiny_space.enumerate_configs())
        warm = tiny_space.explore(cache=cache)

        class Exploding(SoftmaxDesignTask):
            def evaluate(self, config, seed):
                raise AssertionError("evaluate() called despite warm cache")

        runner = ParallelSweepRunner(
            Exploding(test_vectors=logit_rows), workers=1, cache=cache
        )
        cached = runner.run(configs)
        assert runner.stats.evaluated == 0
        assert_points_identical(warm, cached)

    def test_code_version_change_invalidates(self, tiny_space, tmp_path):
        tiny_space.explore(cache=ResultCache(tmp_path, code_version="v1"))
        tiny_space.explore(cache=ResultCache(tmp_path, code_version="v2"))
        stats = tiny_space.last_run_stats
        assert stats.cache_hits == 0
        assert stats.evaluated == stats.total

    def test_different_test_vectors_do_not_alias(self, logit_rows, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        space_a = SoftmaxDesignSpace(bx=4, test_vectors=logit_rows, **TINY_GRID)
        space_b = SoftmaxDesignSpace(bx=4, test_vectors=logit_rows[:8], **TINY_GRID)
        points_a = space_a.explore(cache=cache)
        space_b.explore(cache=cache)
        stats = space_b.last_run_stats
        assert stats.cache_hits == 0  # the task version digests the vectors
        fresh_a = space_a.explore(cache=cache)
        assert space_a.last_run_stats.cache_hits == len(points_a)
        assert_points_identical(points_a, fresh_a)

    def test_crash_resume_from_half_populated_cache(self, tiny_space, tmp_path):
        """An interrupted sweep recomputes only the missing configs."""
        cache = ResultCache(tmp_path, code_version="v1")
        full = tiny_space.explore()
        half = len(full) // 2
        # Simulate the crash: only the first half ever got stored.
        tiny_space.explore(max_designs=half, cache=cache)
        assert tiny_space.last_run_stats.evaluated == half

        resumed = tiny_space.explore(workers=2, cache=cache)
        stats = tiny_space.last_run_stats
        assert stats.cache_hits == half
        assert stats.evaluated == len(full) - half
        assert_points_identical(full, resumed)

    def test_truncated_cache_entry_counts_as_miss(self, tiny_space, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        full = tiny_space.explore(cache=cache)
        # Corrupt one entry the way a hard kill mid-write would.
        victim = next(tmp_path.glob("*/*.json"))
        victim.write_text('{"payload": {"config"')
        resumed = tiny_space.explore(cache=cache)
        stats = tiny_space.last_run_stats
        assert stats.evaluated == 1
        assert stats.cache_hits == len(full) - 1
        assert_points_identical(full, resumed)

    def test_npz_array_sidecar_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        digest = cache.key("unit", {"i": 1})
        payload = {"mae": 0.125}
        arrays = {"trace": np.arange(12.0).reshape(3, 4)}
        cache.store(digest, payload, arrays=arrays)
        hit = cache.load(digest)
        assert hit.payload == payload
        np.testing.assert_array_equal(hit.arrays["trace"], arrays["trace"])

    def test_valid_json_without_payload_counts_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        digest = cache.key("unit", {"i": 1})
        cache.store(digest, {"ok": True})
        foreign = cache._json_path(digest)
        foreign.write_text('{"something": "else"}')  # parses, wrong shape
        assert cache.load(digest) is None

    def test_array_results_roundtrip_through_runner_and_cache(self, tmp_path):
        """Tasks with result_arrays() get the arrays back in decode()."""
        cache = ResultCache(tmp_path, code_version="v1")
        configs = [3, 5, 8]
        fresh = ParallelSweepRunner(TraceTask(), workers=2, cache=cache).run(configs)
        warm_runner = ParallelSweepRunner(TraceTask(), workers=1, cache=cache)
        warm = warm_runner.run(configs)
        assert warm_runner.stats.cache_hits == 3
        for n, a, b in zip(configs, fresh, warm):
            np.testing.assert_array_equal(a["trace"], np.arange(float(n)))
            np.testing.assert_array_equal(a["trace"], b["trace"])

    def test_len_and_clear(self, tiny_space, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        points = tiny_space.explore(cache=cache)
        assert len(cache) == len(points)
        assert cache.clear() == len(points)
        assert len(cache) == 0


class TestDeterminism:
    def test_derive_seed_is_stable_and_shard_independent(self):
        assert derive_seed(0, 7) == derive_seed(0, 7)
        assert derive_seed(0, 7) != derive_seed(0, 8)
        assert derive_seed(0, 7) != derive_seed(1, 7)
        assert 0 <= derive_seed(123, 456) < 2**63

    def test_canonical_json_sorts_and_roundtrips_floats(self):
        a = canonical_json({"b": 0.1 + 0.2, "a": 1})
        b = canonical_json({"a": 1, "b": 0.30000000000000004})
        assert a == b

    def test_code_fingerprint_tracks_module_source(self):
        import repro.runner.cache as cache_mod
        import repro.runner.runner as runner_mod

        assert code_fingerprint(cache_mod) == code_fingerprint(cache_mod)
        assert code_fingerprint(cache_mod) != code_fingerprint(runner_mod)

    def test_array_digest_sensitive_to_content(self):
        x = np.arange(8.0)
        y = x.copy()
        y[3] += 1e-12
        assert array_digest(x) == array_digest(x.copy())
        assert array_digest(x) != array_digest(y)


class TestMaxDesignsRegression:
    """``explore(max_designs=...)`` truncates deterministically in grid order."""

    def test_truncation_is_grid_prefix(self, tiny_space):
        expected = list(islice(tiny_space.enumerate_configs(), 5))
        points = tiny_space.explore(max_designs=5)
        assert [p.config for p in points] == expected

    def test_truncation_identical_across_worker_counts(self, tiny_space):
        serial = tiny_space.explore(max_designs=6)
        parallel = tiny_space.explore(max_designs=6, workers=2)
        assert_points_identical(serial, parallel)

    def test_truncated_points_match_full_prefix(self, tiny_space):
        full = tiny_space.explore()
        prefix = tiny_space.explore(max_designs=3)
        assert_points_identical(full[:3], prefix)

    def test_edge_counts(self, tiny_space):
        assert tiny_space.explore(max_designs=0) == []
        assert tiny_space.explore(max_designs=-1) == []
        assert len(tiny_space.explore(max_designs=10**6)) == tiny_space.grid_size()


class TestTaskGrids:
    def test_fig7_grid_order_is_historical(self):
        configs = fig7_gelu_configs()
        assert len(configs) == 12
        assert configs[0] == {"kind": "bernstein", "terms": 4, "bsl": 128}
        assert configs[8] == {"kind": "bernstein", "terms": 6, "bsl": 1024}
        assert configs[-1] == {"kind": "si", "bsl": 8}

    def test_table4_grid_order_is_historical(self):
        configs = table4_configs()
        assert [c["kind"] for c in configs] == ["fsm"] * 3 + ["ours"] * 3

    def test_design_task_evaluate_matches_function(self, tiny_space, logit_rows):
        config = next(tiny_space.enumerate_configs())
        task = SoftmaxDesignTask(test_vectors=logit_rows)
        direct = evaluate_design(config, logit_rows)
        via_task = task.decode(task.encode(task.evaluate(config, seed=0)))
        assert_points_identical([direct], [via_task])


class TestProgressReporter:
    def test_non_tty_prints_deciles_only(self):
        class Sink:
            def __init__(self):
                self.lines = []

            def write(self, text):
                self.lines.append(text)

            def flush(self):
                pass

        sink = Sink()
        reporter = ProgressReporter("sweep", stream=sink)
        reporter.start(100)
        for done in range(1, 101):
            reporter.update(done, 100)
        reporter.finish("ok")
        assert len(sink.lines) <= 15  # ~1 line per decile, not per update
        assert any("100/100" in line for line in sink.lines)

    def test_quiet_swallows_everything(self):
        reporter = ProgressReporter("sweep", quiet=True)
        reporter.start(10)
        reporter.update(5, 10, cached=2)
        reporter.finish()  # must not touch stderr or raise


class TestCli:
    def test_dse_smoke_parallel_then_warm_cache(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "dse.json"
        args = [
            "dse",
            "--grid", "tiny",
            "--bx", "4",
            "--rows", "12",
            "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--quiet",
            "--out", str(out),
        ]
        assert main(args) == 0
        cold = json.loads(out.read_text())["spaces"]["4"]
        assert cold["evaluated"] == 8 and cold["cache_hits"] == 0

        assert main(args) == 0
        warm = json.loads(out.read_text())["spaces"]["4"]
        assert warm["evaluated"] == 0 and warm["cache_hits"] == 8
        assert warm["pareto"] == cold["pareto"]
        capsys.readouterr()  # drain

    def test_verify_subcommand_passes(self, capsys):
        from repro.cli import main

        assert main(["verify", "--workers", "2"]) == 0
        captured = capsys.readouterr()
        assert "PASS parallel == serial" in captured.out
        assert "PASS cache round-trip" in captured.out
        for flip_prob in ("0.0", "0.05"):
            assert f"PASS batched == per-image (12 images, config test/[8, 16, 4, 2], flip_prob={flip_prob})" in captured.out
            assert f"PASS fabric == golden blocks path (flip_prob={flip_prob}, " in captured.out
        assert "PASS served == offline under a shard kill (scenario verify-kill-thread, flip_prob=0.0, " in captured.out
        assert "PASS served == offline under a shard kill (scenario verify-kill-process, flip_prob=0.05, " in captured.out
        assert "FAIL" not in captured.err

    def test_verify_names_the_failing_check(self, monkeypatch, capsys):
        """Corrupted served predictions fail the thread-engine scenario: verify
        exits 1 and its FAIL line names the scenario and the assertion."""
        from repro.cli import main
        from repro.serve.engine import PipelineEngine

        run = PipelineEngine.run

        def corrupted(self, images, indices):
            return (run(self, images, indices) + 1) % 10

        monkeypatch.setattr(PipelineEngine, "run", corrupted)
        assert main(["verify", "--workers", "1"]) == 1
        captured = capsys.readouterr()
        failures = [line for line in captured.err.splitlines() if line.startswith("FAIL ")]
        assert len(failures) == 1, captured.err
        assert failures[0].startswith("FAIL served != offline: scenario verify-kill-thread: bit_identity")
        assert "verify-kill-process" in captured.out  # the other checks still ran and passed

    @pytest.mark.parametrize("command", ["eval", "serve", "bench"])
    def test_retired_backend_flag_rejected(self, command, capsys):
        """The kernel engine is not selectable: a stale ``--backend`` fails
        at argument parsing, before any work starts."""
        from repro.cli import main

        # `serve` must get past its required spec file to reach the flag.
        required = ["--spec", "deployment.json"] if command == "serve" else []
        with pytest.raises(SystemExit) as excinfo:
            main([command, *required, "--backend", "numpy"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_bench_check_floor_on_recorded_results(self, capsys):
        from repro.cli import main

        rc = main(["bench", "--check-floor", "--no-run"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "engine floors: all pass" in captured.out
