"""Tests of the scenario/resilience layer (:mod:`repro.scenarios`).

The contract mirrors ``tests/test_serve_specs.py``: a
:class:`ScenarioSpec` is frozen, validates at construction, and
round-trips through JSON byte-identically — every shipped
``examples/specs/scenario_*.json`` is its own canonical serialisation.
On top of that, scenario-specific properties:

* workload generation is **byte-stable for a fixed seed** (hypothesis
  drives spec knobs; golden digests pin the exact streams across
  platforms and releases),
* recorded traces replay digest-identically,
* the assertion catalog judges outcomes exactly as documented (including
  the vacuous/absence-of-data edge cases),
* :class:`ScenarioRunner` drives a deployment through events with honest
  accounting — tested fast against a stub engine/service, and end to end
  (slow) against the real thread deployment via ``repro run``.
"""

import asyncio
import dataclasses
import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import (
    ASSERTION_CHECKS,
    SCENARIO_KIND,
    AssertionSpec,
    EventSpec,
    ScenarioError,
    ScenarioOutcome,
    ScenarioRunner,
    ScenarioSpec,
    WorkloadSpec,
    evaluate_assertions,
    generate_workload,
    load_trace,
    save_trace,
    workload_digest,
)
from repro.serve.specs import ServeSpec

EXAMPLES_SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs"

#: Deployment small enough that build_deployment is test-cheap.
TINY = dict(
    name="tiny", train_size=8, layers=1, embed_dim=8, heads=2,
    calibration_images=2, by=4, s1=8, s2=4, k=2, max_batch=4,
)

#: Golden digests: WorkloadSpec(arrival, requests=64, rate=500, seed=11,
#: image_pool=16) must generate these exact byte streams on every
#: platform (np.random.default_rng/PCG64 is specified independently of
#: OS and architecture).  A change here is a cache-invalidating,
#: scenario-reinterpreting event and must be deliberate.
GOLDEN_DIGESTS = {
    "poisson": "7d3c3d2f917368ee",
    "pareto": "dfbb740baecf1fc1",
    "flashcrowd": "02cd183b2c2fa655",
    "diurnal": "3985d005bd57616a",
}


def _golden_spec(arrival: str) -> WorkloadSpec:
    return WorkloadSpec(arrival=arrival, requests=64, rate=500.0, seed=11, image_pool=16)


# --------------------------------------------------------------------------
# Spec round-trip + validation
# --------------------------------------------------------------------------
class TestSpecRoundTrip:
    def _full_spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            name="full",
            description="every section populated",
            deployment=ServeSpec(**TINY, engine="process", workers=2, flip_prob=0.05),
            workload=WorkloadSpec(arrival="flashcrowd", requests=96, rate=300.0),
            events=(
                EventSpec(action="kill_shard", at_frac=0.5),
                EventSpec(action="flip_storm", at_frac=0.25, until_frac=0.75),
                EventSpec(action="queue_burst", at_frac=0.6, count=8),
                EventSpec(action="cache_loss", at_frac=0.7),
            ),
            assertions=(
                AssertionSpec(check="bit_identity"),
                AssertionSpec(check="p99_ms_max", value=5000),
            ),
        )

    def test_json_round_trip_is_byte_identical(self):
        spec = self._full_spec()
        text = spec.to_json()
        again = ScenarioSpec.from_json(text)
        assert again == spec
        assert again.to_json() == text

    def test_defaults_round_trip_from_minimal_payload(self):
        spec = ScenarioSpec.from_dict({"kind": SCENARIO_KIND, "params": {}})
        assert spec == ScenarioSpec()
        assert spec.workload.arrival == "poisson"
        assert spec.assertions == (AssertionSpec(check="bit_identity"),)

    def test_to_dict_preserves_field_declaration_order(self):
        params = self._full_spec().to_dict()["params"]
        assert list(params) == [f.name for f in dataclasses.fields(ScenarioSpec)]
        assert list(params["workload"]) == [f.name for f in dataclasses.fields(WorkloadSpec)]
        assert list(params["events"][0]) == [f.name for f in dataclasses.fields(EventSpec)]

    def test_with_updates_revalidates(self):
        spec = self._full_spec()
        assert spec.with_updates(name="renamed").name == "renamed"
        with pytest.raises(ValueError, match="assertion"):
            spec.with_updates(assertions=())

    def test_sniff_distinguishes_spec_kinds(self):
        assert ScenarioSpec.sniff({"kind": SCENARIO_KIND, "params": {}})
        assert not ScenarioSpec.sniff({"kind": "serve/deployment", "params": {}})
        assert not ScenarioSpec.sniff(["not", "a", "dict"])

    def test_from_file_prefixes_path_on_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "wrong/kind", "params": {}}))
        with pytest.raises(ValueError, match="bad.json"):
            ScenarioSpec.from_file(bad)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "updates, match",
        [
            ({"arrival": "uniform"}, "arrival"),
            ({"requests": 0}, "requests"),
            ({"rate": -1.0}, "rate"),
            ({"image_pool": 0}, "image_pool"),
            ({"pareto_shape": 1.0}, "pareto_shape"),
            ({"flash_frac": 1.5}, "flash_frac"),
            ({"diurnal_low": 0.0}, "diurnal_low"),
            ({"arrival": "trace"}, "trace_path"),
        ],
    )
    def test_bad_workload_fails_at_construction(self, updates, match):
        with pytest.raises(ValueError, match=match):
            WorkloadSpec(**updates)

    @pytest.mark.parametrize(
        "updates, match",
        [
            ({"action": "meteor_strike"}, "action"),
            ({"at_frac": 1.5}, "at_frac"),
            ({"action": "flip_storm"}, "until_frac"),
            ({"action": "flip_storm", "at_frac": 0.5, "until_frac": 0.25}, "until_frac"),
            ({"action": "kill_shard", "until_frac": 0.5}, "until_frac"),
            ({"every_frac": 0.0}, "every_frac"),
            ({"count": 0}, "count"),
            ({"index_offset": -1}, "index_offset"),
            ({"slot": -1}, "slot"),
        ],
    )
    def test_bad_event_fails_at_construction(self, updates, match):
        with pytest.raises(ValueError, match=match):
            EventSpec(**updates)

    def test_assertion_catalog_membership_enforced(self):
        with pytest.raises(ValueError, match="unknown assertion check"):
            AssertionSpec(check="vibes_good")
        with pytest.raises(ValueError, match="requires a value"):
            AssertionSpec(check="p99_ms_max")
        with pytest.raises(ValueError, match="takes no value"):
            AssertionSpec(check="bit_identity", value=3)

    def test_flip_storm_requires_fault_injection(self):
        with pytest.raises(ValueError, match="flip_prob"):
            ScenarioSpec(
                deployment=ServeSpec(**TINY),  # flip_prob defaults to 0
                events=(EventSpec(action="flip_storm", at_frac=0.2, until_frac=0.8),),
            )

    def test_unknown_params_rejected_per_section(self):
        with pytest.raises(ValueError, match="unknown scenario spec params"):
            ScenarioSpec.from_dict({"kind": SCENARIO_KIND, "params": {"chaos": []}})
        with pytest.raises(ValueError, match="unknown workload params"):
            ScenarioSpec.from_dict(
                {"kind": SCENARIO_KIND, "params": {"workload": {"ratee": 1}}}
            )
        with pytest.raises(ValueError, match="unknown deployment params: backend"):
            ScenarioSpec.from_dict(
                {"kind": SCENARIO_KIND, "params": {"deployment": {"backend": None}}}
            )


# --------------------------------------------------------------------------
# Shipped example files are canonical
# --------------------------------------------------------------------------
class TestExampleFiles:
    def test_examples_ship_and_are_canonical(self):
        paths = sorted(EXAMPLES_SPECS.glob("scenario_*.json"))
        assert paths, "examples/specs/ should ship scenario files"
        for path in paths:
            spec = ScenarioSpec.from_file(path)
            # Each shipped file is the spec's own canonical serialisation —
            # the content-addressed cache identity `repro scenario` uses.
            assert spec.to_json(indent=2) + "\n" == path.read_text(), path.name

    def test_examples_cover_both_engine_families(self):
        engines = {
            ScenarioSpec.from_file(path).deployment.engine
            for path in EXAMPLES_SPECS.glob("scenario_*.json")
        }
        # The fabric engine ships its own scenario too, but the two core
        # serving families must always stay covered.
        assert {"thread", "process"} <= engines

    def test_every_example_gates_on_bit_identity(self):
        for path in EXAMPLES_SPECS.glob("scenario_*.json"):
            checks = {a.check for a in ScenarioSpec.from_file(path).assertions}
            assert "bit_identity" in checks, path.name


# --------------------------------------------------------------------------
# Workload generation: byte-stability + trace round-trip
# --------------------------------------------------------------------------
class TestWorkloadGeneration:
    @pytest.mark.parametrize("arrival", sorted(GOLDEN_DIGESTS))
    def test_golden_digest_is_stable(self, arrival):
        workload = generate_workload(_golden_spec(arrival))
        assert workload_digest(workload) == GOLDEN_DIGESTS[arrival]

    @given(
        arrival=st.sampled_from(["poisson", "pareto", "flashcrowd", "diurnal"]),
        requests=st.integers(min_value=1, max_value=256),
        rate=st.floats(min_value=1.0, max_value=5000.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_generation_is_byte_stable_for_fixed_seed(self, arrival, requests, rate, seed):
        spec = WorkloadSpec(arrival=arrival, requests=requests, rate=rate, seed=seed)
        first, second = generate_workload(spec), generate_workload(spec)
        assert workload_digest(first) == workload_digest(second)
        assert first.arrivals_s.dtype == np.float64
        assert first.image_indices.dtype == np.int64
        assert np.all(np.diff(first.arrivals_s) >= 0)
        assert np.all((first.image_indices >= 0) & (first.image_indices < spec.image_pool))

    def test_different_seeds_differ(self):
        a = generate_workload(_golden_spec("poisson"))
        b = generate_workload(dataclasses.replace(_golden_spec("poisson"), seed=12))
        assert workload_digest(a) != workload_digest(b)

    def test_flashcrowd_compresses_burst_windows(self):
        spec = WorkloadSpec(arrival="flashcrowd", requests=512, rate=100.0,
                            flash_factor=50.0, flash_frac=0.4)
        gaps = np.diff(np.concatenate([[0.0], generate_workload(spec).arrivals_s]))
        # Burst gaps run at 50x the base rate; the gap distribution must be
        # visibly bimodal — the burstiest two-fifths far denser than the rest.
        assert np.median(np.sort(gaps)[: int(0.4 * 512)]) < np.median(gaps) / 5.0

    def test_trace_round_trip_re_digests_identically(self, tmp_path):
        workload = generate_workload(_golden_spec("pareto"))
        path = save_trace(tmp_path / "trace.json", workload)
        assert workload_digest(load_trace(path)) == workload_digest(workload)

    def test_trace_replay_resolves_relative_to_base_dir(self, tmp_path):
        workload = generate_workload(_golden_spec("poisson"))
        save_trace(tmp_path / "trace.json", workload)
        spec = WorkloadSpec(arrival="trace", trace_path="trace.json")
        replayed = generate_workload(spec, base_dir=tmp_path)
        assert workload_digest(replayed) == workload_digest(workload)

    def test_load_trace_rejects_wrong_kind(self, tmp_path):
        bad = tmp_path / "not_a_trace.json"
        bad.write_text(json.dumps({"kind": "serve/deployment", "params": {}}))
        with pytest.raises(ValueError, match="serve/trace"):
            load_trace(bad)


# --------------------------------------------------------------------------
# Assertion catalog semantics
# --------------------------------------------------------------------------
class TestAssertionCatalog:
    def _judge(self, check, value, outcome):
        specs = [AssertionSpec(check=check, value=value)]
        return evaluate_assertions(specs, outcome)[0]

    def test_bit_identity_requires_completions(self):
        # An all-failed run must not vacuously pass the paper's claim.
        assert not self._judge("bit_identity", None, ScenarioOutcome())["passed"]
        ok = ScenarioOutcome(offered=4, completed=4)
        assert self._judge("bit_identity", None, ok)["passed"]
        bad = ScenarioOutcome(offered=4, completed=4, mismatches=1)
        assert not self._judge("bit_identity", None, bad)["passed"]

    def test_latency_ceilings_fail_without_data(self):
        empty = ScenarioOutcome()
        assert not self._judge("p99_ms_max", 100, empty)["passed"]
        assert self._judge("p99_ms_max", 100, empty)["measured"] is None
        served = ScenarioOutcome(completed=3, latencies_ms=np.array([1.0, 2.0, 50.0]))
        assert self._judge("p99_ms_max", 100, served)["passed"]
        assert not self._judge("p50_ms_max", 1.5, served)["passed"]

    def test_rate_ceilings(self):
        outcome = ScenarioOutcome(offered=100, completed=90, timeouts=4, rejected=6)
        assert self._judge("timeout_rate_max", 0.05, outcome)["passed"]
        assert not self._judge("timeout_rate_max", 0.03, outcome)["passed"]
        assert self._judge("reject_rate_max", 0.06, outcome)["measured"] == 0.06

    def test_recovery_deadline_vacuous_and_never_recovered(self):
        assert self._judge("recovery_ms_max", 100, ScenarioOutcome())["passed"]
        hung = ScenarioOutcome(recovery_ms=(50.0, None))
        assert not self._judge("recovery_ms_max", 100, hung)["passed"]
        fine = ScenarioOutcome(recovery_ms=(50.0, 80.0))
        verdict = self._judge("recovery_ms_max", 100, fine)
        assert verdict["passed"] and verdict["measured"] == 80.0

    def test_deaths_floor_and_flapping_ceiling(self):
        outcome = ScenarioOutcome(deaths=3, scale_actions=2)
        assert self._judge("deaths_min", 3, outcome)["passed"]
        assert not self._judge("deaths_min", 4, outcome)["passed"]
        assert self._judge("scale_actions_max", 2, outcome)["passed"]
        assert not self._judge("scale_actions_max", 1, outcome)["passed"]

    def test_catalog_and_docstring_agree(self):
        assert set(ASSERTION_CHECKS) == {
            "bit_identity", "p50_ms_max", "p99_ms_max", "timeout_rate_max",
            "reject_rate_max", "error_rate_max", "completed_min",
            "recovery_ms_max", "deaths_min", "scale_actions_max",
            "replacements_min", "uncached_after_kill_min",
        }


# --------------------------------------------------------------------------
# ScenarioRunner against a stub deployment (fast: no model builds)
# --------------------------------------------------------------------------
def _stub_predict(image: np.ndarray, index: int) -> int:
    """Deterministic prediction both the stub engine and the offline oracle share."""
    digest = hashlib.blake2b(np.ascontiguousarray(image).tobytes()).digest()
    return (int.from_bytes(digest[:4], "little") + int(index)) % 251


def _stub_oracle(images: np.ndarray, indices: np.ndarray) -> np.ndarray:
    return np.array([_stub_predict(img, idx) for img, idx in zip(images, indices)])


class _UnkillableEngine:
    """An engine without the kill_shard chaos hook (the runner must refuse)."""

    workers = 2


class _StubEngine:
    def __init__(self, workers=2):
        self.workers = workers
        self.deaths = 0
        self.killed_slots = []

    def kill_shard(self, slot=None):
        self.deaths += 1
        self.killed_slots.append(slot)
        return slot if slot is not None else 0


class _StubCache:
    def __init__(self, entries=5):
        self.entries = entries
        self.cleared_with = None

    def __len__(self):
        return self.entries

    def clear(self, drop_backing=False):
        self.cleared_with = drop_backing
        self.entries = 0


class _StubService:
    """Answers every submit instantly with the shared deterministic oracle."""

    def __init__(self, mispredict=False, cached=False):
        self.mispredict = mispredict
        self.cached = cached
        self.seen_indices = []

    async def submit(self, image, index=0):
        self.seen_indices.append(int(index))
        prediction = _stub_predict(image, index) + (1 if self.mispredict else 0)
        return SimpleNamespace(prediction=prediction, cached=self.cached, latency_ms=0.01)

    def stats_snapshot(self):
        n = len(self.seen_indices)
        return {
            "requests": {"completed": n, "rejected": 0, "timeouts": 0,
                         "errors": 0, "queue_depth": 0},
            "throughput_per_s": 0.0,
            "latency": {"p99_ms": None},
            "batching": {"mean_batch_size": 1.0},
            "cache": {"hits": 0},
        }


class _StubDeployment:
    def __init__(self, engine=None, cache=None, mispredict=False, cached=False):
        self.engine = engine if engine is not None else _StubEngine()
        self.cache = cache
        self.service = _StubService(mispredict=mispredict, cached=cached)

    async def __aenter__(self):
        return self

    async def __aexit__(self, *exc_info):
        pass


def _stub_scenario(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="stub",
        deployment=ServeSpec(**TINY, flip_prob=0.05),
        workload=WorkloadSpec(requests=20, rate=10000.0, image_pool=4, seed=3),
        assertions=(AssertionSpec(check="bit_identity"),),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def _run_stub(spec: ScenarioSpec, deployment: _StubDeployment):
    runner = ScenarioRunner(spec, deployment=deployment, offline_predict=_stub_oracle)
    return runner.run()


class TestScenarioRunnerStubbed:
    def test_happy_path_accounts_and_passes(self):
        deployment = _StubDeployment()
        result = _run_stub(_stub_scenario(), deployment)
        assert result["ok"]
        assert result["requests"]["offered"] == 20
        assert result["requests"]["completed"] == 20
        assert result["requests"]["bit_mismatches"] == 0
        assert result["workload"]["digest"] == workload_digest(
            generate_workload(_stub_scenario().workload)
        )
        assert [t["label"] for t in result["timeline"]] == ["start", "end"]

    def test_bit_identity_catches_a_corrupted_service(self):
        result = _run_stub(_stub_scenario(), _StubDeployment(mispredict=True))
        assert not result["ok"]
        assert result["requests"]["bit_mismatches"] == 20
        verdict = {v["check"]: v for v in result["assertions"]}["bit_identity"]
        assert not verdict["passed"]

    def test_kill_shard_event_fires_and_recovery_is_measured(self):
        deployment = _StubDeployment()
        spec = _stub_scenario(
            events=(EventSpec(action="kill_shard", at_frac=0.5, slot=1),),
            assertions=(
                AssertionSpec(check="bit_identity"),
                AssertionSpec(check="deaths_min", value=1),
                AssertionSpec(check="recovery_ms_max", value=1000),
            ),
        )
        result = _run_stub(spec, deployment)
        assert result["ok"]
        assert deployment.engine.killed_slots == [1]
        assert result["deaths"] == 1
        assert len(result["recoveries_ms"]) == 1
        assert result["recoveries_ms"][0] is not None
        kill_events = [e for e in result["events"] if e["action"] == "kill_shard"]
        assert kill_events[0]["at_request"] == 10
        assert any(t["label"] == "event:kill_shard" for t in result["timeline"])

    def test_a_kill_met_only_by_cache_hits_fails_its_gate(self):
        spec = _stub_scenario(
            events=(EventSpec(action="kill_shard", at_frac=0.5),),
            assertions=(
                AssertionSpec(check="bit_identity"),
                AssertionSpec(check="deaths_min", value=1),
                AssertionSpec(check="uncached_after_kill_min", value=1),
            ),
        )
        warm = _run_stub(spec, _StubDeployment(cached=True))
        verdicts = {v["check"]: v for v in warm["assertions"]}
        assert verdicts["bit_identity"]["passed"] and verdicts["deaths_min"]["passed"]
        assert verdicts["uncached_after_kill_min"]["measured"] == 0.0
        assert not verdicts["uncached_after_kill_min"]["passed"] and not warm["ok"]
        cold = _run_stub(spec, _StubDeployment())
        assert cold["ok"] and cold["requests"]["uncached_after_kill"] == 10  # requests 10..19
        # Without a kill there is nothing to measure: the floor fails.
        assert not _run_stub(_stub_scenario(assertions=spec.assertions[2:]), _StubDeployment())["ok"]

    def test_kill_shard_without_hook_is_a_scenario_error(self):
        spec = _stub_scenario(events=(EventSpec(action="kill_shard", at_frac=0.0),))
        deployment = _StubDeployment(engine=_UnkillableEngine())
        with pytest.raises(ScenarioError, match="kill_shard"):
            _run_stub(spec, deployment)

    def test_repeated_kills_expand_via_every_frac(self):
        deployment = _StubDeployment()
        spec = _stub_scenario(
            events=(EventSpec(action="kill_shard", at_frac=0.25, every_frac=0.25),),
            assertions=(
                AssertionSpec(check="bit_identity"),
                AssertionSpec(check="deaths_min", value=3),
            ),
        )
        result = _run_stub(spec, deployment)
        # at 0.25, 0.5, 0.75 — every_frac stops before 1.0.
        assert result["deaths"] == 3
        assert result["ok"]

    def test_cache_loss_drops_backing(self):
        cache = _StubCache(entries=7)
        deployment = _StubDeployment(cache=cache)
        spec = _stub_scenario(events=(EventSpec(action="cache_loss", at_frac=0.5),))
        result = _run_stub(spec, deployment)
        assert cache.cleared_with is True
        event = [e for e in result["events"] if e["action"] == "cache_loss"][0]
        assert event["dropped_entries"] == 7

    def test_flip_storm_offsets_fault_indices_inside_the_window(self):
        deployment = _StubDeployment()
        spec = _stub_scenario(
            events=(
                EventSpec(action="flip_storm", at_frac=0.25, until_frac=0.75,
                          index_offset=1000),
            ),
        )
        result = _run_stub(spec, deployment)
        seen = deployment.service.seen_indices
        # Requests 5..14 carry the offset; bit identity still holds because
        # the offline oracle evaluates the same offset indices.
        assert all(idx >= 1000 for idx in seen[5:15])
        assert all(idx < 1000 for idx in seen[:5] + seen[15:])
        assert result["ok"]

    def test_queue_burst_injects_extras_on_top_of_the_stream(self):
        deployment = _StubDeployment()
        spec = _stub_scenario(
            events=(EventSpec(action="queue_burst", at_frac=0.5, count=6),),
            assertions=(
                AssertionSpec(check="bit_identity"),
                AssertionSpec(check="completed_min", value=26),
            ),
        )
        result = _run_stub(spec, deployment)
        assert result["requests"]["offered"] == 26
        assert result["ok"]

    def test_max_inflight_must_be_positive(self):
        with pytest.raises(ValueError, match="max_inflight"):
            ScenarioRunner(_stub_scenario(), max_inflight=0)


# --------------------------------------------------------------------------
# Chaos hooks on the real engines
# --------------------------------------------------------------------------
class TestThreadEngineChaosHook:
    def test_kill_shard_discards_replicas_and_counts_deaths(self):
        """The engine's one pipeline serves every batch until a kill rebuilds it."""
        from repro.serve.engine import PipelineEngine

        builds = []

        class _Replica:
            flip_prob = 0.0

            def __init__(self):
                builds.append(1)
                self.build = len(builds)

            @staticmethod
            def image_shape():
                return (4, 4, 3)

            def predict_batch(self, images, indices):
                return np.full(len(images), self.build, dtype=np.int64)

        engine = PipelineEngine(_Replica, workers=1, version="test")
        images = np.zeros((2, 4, 4, 3))
        indices = np.arange(2)
        assert engine.run(images, indices).tolist() == engine.run(images, indices).tolist() == [1, 1]
        assert sum(builds) == 1  # one pipeline, reused across batches
        assert engine.kill_shard() == 0
        assert engine.deaths == 1
        assert engine.run(images, indices).tolist() == [2, 2]
        assert sum(builds) == 2  # the kill rebuilt the one pipeline, and later batches run on it


# --------------------------------------------------------------------------
# End-to-end over the real serving stack (slow)
# --------------------------------------------------------------------------
@pytest.mark.slow
class TestScenarioEndToEnd:
    def _spec(self, tmp_path, **workload_overrides) -> ScenarioSpec:
        workload = dict(arrival="poisson", requests=24, rate=600.0, image_pool=8)
        workload.update(workload_overrides)
        return ScenarioSpec(
            name="e2e",
            deployment=ServeSpec(**TINY, flip_prob=0.05,
                                 cache_dir=str(tmp_path / "cache")),
            workload=WorkloadSpec(**workload),
            events=(
                EventSpec(action="kill_shard", at_frac=0.5),
                EventSpec(action="cache_loss", at_frac=0.7),
            ),
            assertions=(
                AssertionSpec(check="bit_identity"),
                AssertionSpec(check="completed_min", value=24),
                AssertionSpec(check="deaths_min", value=1),
                AssertionSpec(check="recovery_ms_max", value=20000),
                AssertionSpec(check="error_rate_max", value=0),
            ),
        )

    def test_thread_deployment_survives_kill_and_stays_bit_identical(self, tmp_path):
        result = ScenarioRunner(self._spec(tmp_path)).run()
        assert result["ok"], result["assertions"]
        assert result["requests"]["bit_mismatches"] == 0
        assert result["deaths"] == 1
        assert result["recoveries_ms"][0] is not None

    def test_trace_replay_drives_the_same_scenario(self, tmp_path):
        recorded = generate_workload(
            WorkloadSpec(arrival="poisson", requests=24, rate=600.0, image_pool=8)
        )
        save_trace(tmp_path / "trace.json", recorded)
        spec = self._spec(tmp_path, arrival="trace", trace_path="trace.json")
        result = ScenarioRunner(spec, base_dir=tmp_path).run()
        assert result["ok"], result["assertions"]
        assert result["workload"]["digest"] == workload_digest(recorded)


@pytest.mark.slow
class TestCliIntegration:
    def test_run_sniffs_scenario_files_and_caches_results(self, tmp_path, capsys):
        from repro.cli import main

        spec = ScenarioSpec(
            name="cli-smoke",
            deployment=ServeSpec(**TINY, cache=False),
            workload=WorkloadSpec(requests=12, rate=600.0, image_pool=4),
            assertions=(
                AssertionSpec(check="bit_identity"),
                AssertionSpec(check="completed_min", value=12),
            ),
        )
        path = tmp_path / "scenario.json"
        path.write_text(spec.to_json(indent=2) + "\n")
        out_path = tmp_path / "result.json"
        argv = ["run", str(path), "--cache-dir", str(tmp_path / "sweep-cache"),
                "--out", str(out_path)]
        assert main(argv) == 0
        payload = json.loads(out_path.read_text())
        assert payload["stats"]["evaluated"] == 1
        assert payload["scenarios"][0]["ok"]
        # Warm re-run: the content-addressed sweep cache serves the result.
        capsys.readouterr()
        assert main(argv) == 0
        payload = json.loads(out_path.read_text())
        assert payload["stats"]["evaluated"] == 0
        assert payload["stats"]["cache_hits"] == 1
        assert "(cached result)" in capsys.readouterr().out

    def test_run_rejects_unknown_kinds_with_a_clear_error(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "mystery.json"
        path.write_text(json.dumps({"kind": "serve/quantum", "params": {}}))
        with pytest.raises(SystemExit) as excinfo:
            main(["run", str(path)])
        message = str(excinfo.value.code)
        assert "unknown spec kind" in message and "serve/quantum" in message
        # The sniff table's own kinds are listed so the error is actionable.
        assert "serve/deployment" in message and "serve/scenario" in message

    def test_scenario_engine_override_exits_nonzero_on_failure(self, tmp_path):
        from repro.cli import main

        # A floor the 12-request run cannot meet: the gate must gate.
        spec = ScenarioSpec(
            name="doomed",
            deployment=ServeSpec(**TINY, cache=False),
            workload=WorkloadSpec(requests=12, rate=600.0, image_pool=4),
            assertions=(AssertionSpec(check="completed_min", value=10_000),),
        )
        path = tmp_path / "doomed.json"
        path.write_text(spec.to_json(indent=2) + "\n")
        code = main(["scenario", str(path), "--engine", "thread",
                     "--cache-dir", str(tmp_path / "cache"), "--quiet"])
        assert code == 1
