"""Tests of the observability plane (:mod:`repro.telemetry`) and its wiring.

Three layers of contract:

* **Unit** — tracer (ids, parentage, ingest, exports), metrics
  (monotone counters, Prometheus rendering, snapshot publishing), kernel
  profiling (proxy transparency, heaviest-first table), structured logging
  and trace summarising.
* **Inertness** — the load-bearing promise: telemetry off leaves the
  backend seam untouched (``active_backend`` returns the raw instance),
  the ``telemetry`` spec field never enters the scenario cache identity,
  and predictions are bit-identical with tracing on vs off.
* **End to end** (slow) — a real 2-shard process scenario with telemetry
  on emits a Perfetto-loadable trace containing the full
  service -> batcher -> shard-worker span chain plus a kill/recovery
  span, and ``render_metrics`` serves parseable Prometheus text with
  cache counters and per-kernel timings.
"""

import asyncio
import io
import json

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import (
    Counter,
    KernelProfiler,
    MetricsRegistry,
    Tracer,
    configure_logging,
    current_context,
    get_logger,
    load_trace,
    publish_snapshot,
    push_context,
    summarize_trace,
)
from repro.telemetry.profiling import ProfiledBackend


@pytest.fixture(autouse=True)
def _pristine_telemetry():
    """Every test starts and ends with the plane off and empty."""
    telemetry.reset()
    yield
    telemetry.reset()


class FakeClock:
    """Deterministic monotonic clock for exact span durations."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------------
# Tracer
# --------------------------------------------------------------------------
class TestTracer:
    def test_span_records_exact_duration_from_injected_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, pid=7)
        span = tracer.begin("service.request", cat="service", index=3)
        clock.advance(0.002)
        tracer.end(span, outcome="computed")
        (event,) = tracer.events()
        assert event["ph"] == "X"
        assert event["name"] == "service.request"
        assert event["cat"] == "service"
        assert event["pid"] == 7
        assert event["dur"] == pytest.approx(2000.0)
        assert event["args"]["index"] == 3
        assert event["args"]["outcome"] == "computed"
        assert event["args"]["trace_id"].startswith("t-")

    def test_parent_by_span_and_by_context_dict_share_the_trace(self):
        tracer = Tracer(clock=FakeClock(), pid=1)
        root = tracer.begin("root")
        child = tracer.begin("child", parent=root)
        # Context dicts are what crosses the pipe in a frame's metadata.
        ctx = tracer.context_of(child)
        assert set(ctx) == {"trace_id", "span_id"}
        grandchild = tracer.begin("grandchild", parent=ctx)
        assert child.trace_id == root.trace_id == grandchild.trace_id
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id

    def test_end_is_idempotent(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        span = tracer.begin("once")
        tracer.end(span)
        clock.advance(5.0)
        tracer.end(span)
        assert len(tracer) == 1

    def test_disabled_tracer_records_nothing_but_stays_usable(self):
        tracer = Tracer(clock=FakeClock(), enabled=False)
        with tracer.span("quiet"):
            pass
        tracer.instant("nope")
        assert tracer.ingest([{"ph": "X", "name": "alien"}]) == 0
        assert len(tracer) == 0

    def test_ingest_adopts_only_event_shaped_records(self):
        tracer = Tracer(clock=FakeClock())
        taken = tracer.ingest(
            [
                {"ph": "X", "name": "shard.predict", "pid": 999, "ts": 1, "dur": 2},
                {"not": "an event"},
                "junk",
            ]
        )
        assert taken == 1
        assert tracer.events()[0]["pid"] == 999

    def test_chrome_and_jsonl_exports_round_trip_through_load_trace(self, tmp_path):
        clock = FakeClock()
        tracer = Tracer(clock=clock, pid=4)
        with tracer.span("outer", cat="scenario"):
            clock.advance(0.001)
        tracer.instant("event.cache_loss", cat="scenario")
        chrome = tracer.export(tmp_path / "run.trace.json", other_data={"scenario": "s"})
        jsonl = tracer.export_jsonl(tmp_path / "run.trace.jsonl")

        doc = load_trace(chrome)
        assert doc["otherData"]["scenario"] == "s"
        assert [e["ph"] for e in doc["traceEvents"]] == ["X", "i"]
        # Perfetto loadability basics: every event has the required keys.
        for event in doc["traceEvents"]:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)

        stream = load_trace(jsonl)
        assert stream["traceEvents"] == doc["traceEvents"]

    def test_push_context_nests_and_restores(self):
        assert current_context() is None
        with push_context({"trace_id": "t-1", "span_id": "s-1"}):
            assert current_context()["span_id"] == "s-1"
            with push_context({"trace_id": "t-1", "span_id": "s-2"}):
                assert current_context()["span_id"] == "s-2"
            assert current_context()["span_id"] == "s-1"
        assert current_context() is None


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------
class TestMetrics:
    def test_counter_is_monotone(self):
        counter = Counter("repro_requests_total")
        counter.inc(2, route="predict")
        counter.inc(route="predict")
        assert counter.value(route="predict") == 3
        assert counter.value(route="other") == 0
        with pytest.raises(ValueError):
            counter.inc(-1)
        counter.set(10, route="predict")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.set(9, route="predict")

    def test_registry_rejects_kind_mismatch_and_renders_prometheus(self):
        registry = MetricsRegistry()
        registry.counter("repro_cache_hits_total", "Cache hits").inc(3, cache="prediction")
        registry.gauge("repro_queue_depth").set(2.5)
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_cache_hits_total")

        text = registry.render_prometheus()
        assert text.endswith("\n")
        assert "# HELP repro_cache_hits_total Cache hits" in text
        assert "# TYPE repro_cache_hits_total counter" in text
        assert 'repro_cache_hits_total{cache="prediction"} 3' in text
        assert "repro_queue_depth 2.5" in text
        # The snapshot mirror is JSON-able as-is.
        json.dumps(registry.snapshot())

    def test_label_values_are_escaped(self):
        counter = Counter("repro_odd_total")
        counter.inc(1, path='a"b\\c\nd')
        (line,) = counter._render()
        assert line == 'repro_odd_total{path="a\\"b\\\\c\\nd"} 1'

    def test_publish_snapshot_folds_nested_scalars_into_gauges(self):
        registry = MetricsRegistry()
        publish_snapshot(
            registry,
            {
                "requests": {"completed": 5, "queue-depth": 1},
                "latency": {"p99_ms": None},
                "ok": True,
                "nan": float("nan"),
                "throughput_per_s": 2.5,
            },
            prefix="repro_service",
        )
        snapshot = registry.snapshot()
        assert snapshot["repro_service_requests_completed"]["series"][0]["value"] == 5
        assert "repro_service_requests_queue_depth" in snapshot
        assert snapshot["repro_service_throughput_per_s"]["series"][0]["value"] == 2.5
        # None, bools and non-finite values never become samples.
        assert "repro_service_latency_p99_ms" not in snapshot
        assert "repro_service_ok" not in snapshot
        assert "repro_service_nan" not in snapshot


# --------------------------------------------------------------------------
# Kernel profiling at the backend seam
# --------------------------------------------------------------------------
class TestKernelProfiling:
    def test_profiled_backend_is_bit_transparent_and_records(self):
        from repro.sc.backends import NumpyBackend

        profiler = KernelProfiler()
        backend = NumpyBackend()
        proxy = profiler.wrap(backend)
        assert profiler.wrap(proxy) is proxy  # idempotent
        assert profiler.wrap(backend) is proxy  # cached per instance

        rng = np.random.default_rng(0)
        a = rng.integers(0, 2**63, size=(4, 8), dtype=np.int64).view(np.uint64)
        b = rng.integers(0, 2**63, size=(4, 8), dtype=np.int64).view(np.uint64)
        np.testing.assert_array_equal(proxy.and_words(a, b), backend.and_words(a, b))

        (row,) = profiler.table()
        assert row["backend"] == "numpy"
        assert row["kernel"] == "and_words"
        assert row["calls"] == 1
        assert row["words"] == a.size + b.size
        assert row["seconds"] >= 0.0
        # Non-kernel attributes pass through untouched.
        assert proxy.name == backend.name

    def test_traced_dispatch_adopts_worker_spans_and_no_profile(self):
        """A shard reply carries spans only; the parent profiler stays empty."""
        from repro.serve.sharded import ShardedProcessEngine, _Shard, pack_frame, unpack_frame

        worker_span = {"name": "shard.predict", "ph": "X", "ts": 1, "dur": 2, "pid": 99, "args": {}}

        class FakeConn:
            def send_bytes(self, blob):
                self.meta = unpack_frame(blob)[2]

            def poll(self, timeout):
                return True

            def recv_bytes(self):
                assert "trace" in self.meta  # the context rides the request frame
                return pack_frame(
                    "result", {"predictions": np.array([2, 0])}, job=self.meta["job"], spans=[worker_span]
                )

        class LiveProcess:
            def is_alive(self):
                return True

        class NeverCalledFactory:
            flip_prob = 0.0

            def image_shape(self):
                return (8, 8, 3)

        telemetry.enable()
        engine = ShardedProcessEngine(NeverCalledFactory(), shards=1, version="test")
        shard = _Shard(0, 0, LiveProcess(), FakeConn())
        with push_context({"trace_id": "t-1", "span_id": "s-1"}):
            predictions = engine._dispatch(shard, np.zeros((2, 8, 8, 3)), np.array([4, 5]))
        assert predictions.tolist() == [2, 0]
        names = [event["name"] for event in telemetry.get_tracer().events()]
        assert names.count("shard.predict") == 1 and names.count("shard.dispatch") == 1
        assert telemetry.get_profiler().table() == []

    def test_table_sorts_heaviest_first(self):
        profiler = KernelProfiler()
        profiler.record("numpy", "popcount_words", 0.125, 64)
        profiler.record("numpy", "xor_words", 0.5, 10)
        assert profiler.table(top=1)[0]["kernel"] == "xor_words"
        assert profiler.table()[1] == {
            "backend": "numpy", "kernel": "popcount_words", "calls": 1, "words": 64, "seconds": 0.125,
        }

    def test_backend_seam_is_untouched_when_off_and_wrapped_when_on(self):
        from repro.sc import backends

        raw = backends.active_backend()
        assert not isinstance(raw, ProfiledBackend)
        telemetry.enable()
        try:
            wrapped = backends.active_backend()
            assert isinstance(wrapped, ProfiledBackend)
            assert wrapped._backend is raw
        finally:
            telemetry.disable()
        # Off again: the seam hands back the exact raw instance — the
        # zero-overhead-off contract.
        assert backends.active_backend() is raw


# --------------------------------------------------------------------------
# Enablement
# --------------------------------------------------------------------------
class TestEnablement:
    def test_env_var_truthy_values(self, monkeypatch):
        for value in ("1", "true", "ON", " yes "):
            monkeypatch.setenv(telemetry.TELEMETRY_ENV_VAR, value)
            assert telemetry.enabled(), value
        for value in ("", "0", "off", "false"):
            monkeypatch.setenv(telemetry.TELEMETRY_ENV_VAR, value)
            assert not telemetry.enabled(), value

    def test_explicit_enable_disable_overrides_env(self, monkeypatch):
        monkeypatch.setenv(telemetry.TELEMETRY_ENV_VAR, "1")
        telemetry.disable()
        assert not telemetry.enabled()
        monkeypatch.delenv(telemetry.TELEMETRY_ENV_VAR)
        telemetry.enable()
        assert telemetry.enabled()
        telemetry.reset()
        assert not telemetry.enabled()


# --------------------------------------------------------------------------
# Structured logging
# --------------------------------------------------------------------------
class TestStructuredLogging:
    def test_text_format_carries_fields(self):
        stream = io.StringIO()
        configure_logging(level="debug", stream=stream)
        get_logger("scenario").info("event_fired", action="kill_shard", at_request=12)
        assert stream.getvalue() == "info    scenario: event_fired action=kill_shard at_request=12\n"

    def test_json_lines_format(self):
        stream = io.StringIO()
        configure_logging(level="info", json_lines=True, stream=stream)
        get_logger("serve").warning("recovery_deadline_missed", deadline_s=30.0)
        payload = json.loads(stream.getvalue())
        assert payload == {
            "level": "warning",
            "logger": "repro.serve",
            "event": "recovery_deadline_missed",
            "deadline_s": 30.0,
        }

    def test_level_filters_and_reconfigure_never_duplicates(self):
        first = io.StringIO()
        configure_logging(level="warning", stream=first)
        get_logger().info("ignored")
        assert first.getvalue() == ""
        second = io.StringIO()
        logger = configure_logging(level="info", stream=second)
        assert len(logger.handlers) == 1  # replaced, not stacked
        get_logger().info("hello")
        assert second.getvalue().count("hello") == 1

    def test_unknown_level_is_rejected(self):
        with pytest.raises(ValueError, match="log level"):
            configure_logging(level="chatty")


# --------------------------------------------------------------------------
# Trace summaries (the `repro trace` engine)
# --------------------------------------------------------------------------
class TestTraceSummary:
    def _document(self):
        return {
            "traceEvents": [
                {"name": "service.request", "ph": "X", "ts": 0, "dur": 4000, "pid": 1,
                 "tid": 1, "args": {"trace_id": "t-1"}},
                {"name": "service.request", "ph": "X", "ts": 10, "dur": 2000, "pid": 1,
                 "tid": 1, "args": {"trace_id": "t-2"}},
                {"name": "shard.predict", "ph": "X", "ts": 20, "dur": 1000, "pid": 2,
                 "tid": 2, "args": {"trace_id": "t-1"}},
                {"name": "event.cache_loss", "ph": "i", "ts": 30, "pid": 1, "tid": 1},
            ],
            "otherData": {},
        }

    def test_summarize_trace_aggregates_spans_and_processes(self):
        summary = summarize_trace(self._document())
        assert summary["events"] == 4
        assert summary["spans"] == 3
        assert summary["instants"] == 1
        assert summary["traces"] == 2
        assert summary["processes"] == [1, 2]
        by_name = {row["key"]: row for row in summary["by_name"]}
        assert by_name["service.request"]["count"] == 2
        assert by_name["service.request"]["total_ms"] == pytest.approx(6.0)
        assert by_name["service.request"]["mean_ms"] == pytest.approx(3.0)
        assert by_name["service.request"]["max_ms"] == pytest.approx(4.0)
        assert summary["instant_names"] == ["event.cache_loss"]

    def test_cli_trace_subcommand_renders_and_exits_clean(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.trace.json"
        path.write_text(json.dumps(self._document()))
        out = tmp_path / "summary.json"
        assert main(["trace", str(path), "--top", "3", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "service.request" in printed
        payload = json.loads(out.read_text())
        assert payload["traces"][str(path)]["spans"] == 3

    def test_cli_trace_flags_empty_traces(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "empty.trace.json"
        path.write_text(json.dumps({"traceEvents": []}))
        assert main(["trace", str(path)]) == 1


# --------------------------------------------------------------------------
# Inertness: specs, cache identity, predictions
# --------------------------------------------------------------------------
class TestInertness:
    def test_serve_spec_telemetry_field_round_trips_and_validates(self):
        from repro.serve.specs import ServeSpec

        assert ServeSpec().telemetry is False
        spec = ServeSpec(telemetry=True)
        assert ServeSpec.from_json(spec.to_json()) == spec
        with pytest.raises(ValueError, match="telemetry"):
            ServeSpec(telemetry="yes")

    def test_scenario_cache_identity_ignores_telemetry(self):
        from repro.runner.tasks import ScenarioTask
        from repro.scenarios import ScenarioSpec
        from repro.serve.specs import ServeSpec

        task = ScenarioTask()
        off = ScenarioSpec(name="same", deployment=ServeSpec(telemetry=False)).to_dict()
        on = ScenarioSpec(name="same", deployment=ServeSpec(telemetry=True)).to_dict()
        assert off != on  # the spec itself does serialize the field...
        assert task.config_key(off) == task.config_key(on)  # ...the identity strips it
        # Everything else still differentiates.
        other = ScenarioSpec(name="other", deployment=ServeSpec(telemetry=True)).to_dict()
        assert task.config_key(on) != task.config_key(other)

    def test_result_cache_counters_are_observational(self, tmp_path):
        from repro.runner.cache import ResultCache, cache_key

        cache = ResultCache(tmp_path)
        digest = cache_key("t", {"config": 1})
        assert cache.load(digest) is None
        cache.store(digest, {"x": 1})
        hit = cache.load(digest)
        assert hit is not None and hit.payload == {"x": 1}
        assert cache.counters() == {"hits": 1, "misses": 1, "stores": 1}

    def test_predictions_bit_identical_with_telemetry_on_vs_off(self):
        from repro.blocks.specs import SoftmaxCircuitConfig
        from repro.nn.vit import CompactVisionTransformer, ViTConfig
        from repro.serve import InferenceService, PipelineEngine, ReplicaFactory
        from repro.training.datasets import SyntheticImageDataset

        model = CompactVisionTransformer(
            ViTConfig(image_size=8, patch_size=4, num_classes=4, embed_dim=16,
                      num_layers=1, num_heads=2, norm="bn", seed=3)
        ).eval()
        dataset = SyntheticImageDataset(num_classes=4, image_size=8, seed=5)
        _, test = dataset.splits(train_size=4, test_size=6)
        softmax = SoftmaxCircuitConfig(m=64, iterations=2, bx=4, alpha_x=1.0,
                                       by=8, alpha_y=0.03, s1=16, s2=4)

        def serve_all() -> list:
            async def session():
                engine = PipelineEngine(ReplicaFactory(model, softmax), workers=1)
                service = InferenceService(engine, max_batch=3, max_wait_ms=2.0, cache=None)
                async with service:
                    results = await asyncio.gather(
                        *[service.submit(test.images[i], index=i) for i in range(6)]
                    )
                return [int(r.prediction) for r in results]

            return asyncio.run(session())

        telemetry.enable()
        traced = serve_all()
        assert len(telemetry.get_tracer()) > 0  # tracing genuinely ran
        telemetry.reset()
        plain = serve_all()
        assert len(telemetry.get_tracer()) == 0  # and genuinely did not
        assert traced == plain


# --------------------------------------------------------------------------
# /metrics rendering over a live service
# --------------------------------------------------------------------------
def _parse_prometheus(text: str) -> dict:
    """name{labels} -> float for every sample line; validates the format."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        assert name_part, f"malformed sample line: {line!r}"
        samples[name_part] = float(value_part)
    return samples


class TestMetricsEndpoint:
    def test_render_metrics_serves_cache_counters(self, stack):
        from repro.serve import (
            InferenceService,
            PipelineEngine,
            PredictionCache,
            ReplicaFactory,
            render_metrics,
        )

        telemetry.enable()
        model, test, softmax = stack

        async def session() -> str:
            engine = PipelineEngine(ReplicaFactory(model, softmax, flip_prob=0.05), workers=1)
            service = InferenceService(
                engine, max_batch=4, max_wait_ms=2.0, cache=PredictionCache()
            )
            async with service:
                for i in range(4):
                    await service.submit(test.images[i], index=i)
                await service.submit(test.images[0], index=0)  # warm hit
                return render_metrics(service)

        text = asyncio.run(session())
        samples = _parse_prometheus(text)
        assert samples['repro_cache_hits_total{cache="prediction"}'] == 1.0
        assert samples['repro_cache_misses_total{cache="prediction"}'] >= 4.0
        assert samples['repro_cache_stores_total{cache="prediction"}'] == 4.0
        assert samples["repro_service_requests_completed"] == 5.0
        assert "# TYPE repro_service_requests_completed gauge" in text

    def test_http_transport_routes_get_metrics(self, stack):
        import urllib.request

        from repro.serve import InferenceService, PipelineEngine, ReplicaFactory
        from repro.serve.transport import serve_http

        model, _, softmax = stack

        async def session():
            engine = PipelineEngine(ReplicaFactory(model, softmax), workers=1)
            service = InferenceService(engine, max_batch=2, max_wait_ms=1.0, cache=None)
            async with service:
                server = await serve_http(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]

                def fetch():
                    with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/metrics", timeout=10
                    ) as response:
                        return response.status, response.headers.get("Content-Type"), response.read()

                status, content_type, body = await asyncio.get_running_loop().run_in_executor(
                    None, fetch
                )
                server.close()
                await server.wait_closed()
                return status, content_type, body.decode()

        status, content_type, body = asyncio.run(session())
        assert status == 200
        assert content_type.startswith("text/plain; version=0.0.4")
        _parse_prometheus(body)
        assert "repro_service_uptime_seconds" in body


# --------------------------------------------------------------------------
# End to end: traced 2-shard scenario with a kill/recovery event (slow)
# --------------------------------------------------------------------------
@pytest.mark.slow
class TestTracedScenarioEndToEnd:
    def _spec(self):
        from repro.scenarios import AssertionSpec, EventSpec, ScenarioSpec, WorkloadSpec
        from repro.serve.specs import ServeSpec

        return ScenarioSpec(
            name="traced-kill",
            deployment=ServeSpec(
                name="tiny", train_size=8, layers=1, embed_dim=8, heads=2,
                calibration_images=2, by=4, s1=8, s2=4, k=2, max_batch=4,
                engine="process", workers=2, cache=False, telemetry=True,
                flip_prob=0.05,
            ),
            workload=WorkloadSpec(arrival="poisson", requests=24, rate=600.0, image_pool=8),
            events=(
                EventSpec(action="kill_shard", at_frac=0.5),
                EventSpec(action="cache_loss", at_frac=0.7),
            ),
            assertions=(
                AssertionSpec(check="bit_identity"),
                AssertionSpec(check="completed_min", value=24),
                AssertionSpec(check="deaths_min", value=1),
            ),
        )

    def test_trace_has_full_span_chain_and_recovery(self, tmp_path):
        from repro.scenarios import ScenarioRunner

        runner = ScenarioRunner(self._spec(), trace_dir=tmp_path / "traces")
        result = runner.run()
        assert result["ok"], result["assertions"]
        assert result["requests"]["bit_mismatches"] == 0

        assert runner.last_trace_path is not None
        document = load_trace(runner.last_trace_path)
        events = document["traceEvents"]
        for event in events:  # Perfetto-loadable basics
            assert {"name", "ph", "ts", "pid"} <= set(event)
        by_name = {}
        for event in events:
            by_name.setdefault(event["name"], []).append(event)

        # The full chain: service -> batcher -> engine -> dispatch -> worker.
        for name in ("scenario.run", "scenario.submit", "scenario.drain",
                     "service.request", "batcher.collect", "service.batch",
                     "shard.dispatch", "shard.predict"):
            assert name in by_name, f"missing span {name!r} in {sorted(by_name)}"

        # At least one request's spans thread one trace across layers and
        # across the process boundary (worker events keep their own pid).
        request = by_name["service.request"][0]
        trace_id = request["args"]["trace_id"]
        chain = [e for e in events if e.get("args", {}).get("trace_id") == trace_id]
        assert {e["name"] for e in chain} >= {"service.request"}
        parent_pid = request["pid"]
        worker_pids = {e["pid"] for e in by_name["shard.predict"]}
        assert worker_pids and parent_pid not in worker_pids

        # Dispatch spans parent onto the batch context of their trace.
        dispatch = by_name["shard.dispatch"][0]
        assert dispatch["args"].get("parent_id")
        assert dispatch["args"]["outcome"] in ("ok", "worker_error", "shard_died")

        # The kill event produced a closed recovery span.
        (kill,) = by_name["chaos.kill_shard"]
        assert kill["args"]["recovered"] is True
        assert kill["args"]["recovery_ms"] > 0
        # And the cache_loss event an instant.
        assert any(e["name"] == "event.cache_loss" and e["ph"] == "i" for e in events)

        # The export embeds the metrics snapshot.
        other = document["otherData"]
        assert other["scenario"] == "traced-kill"
        assert isinstance(other["metrics"], dict), "metrics snapshot missing from the export"
        summary = summarize_trace(document)
        assert summary["spans"] > 24  # at least one span per request plus phases
        assert len(summary["processes"]) >= 2

        # The JSONL sibling ships the same events.
        jsonl = load_trace(runner.last_trace_path.with_suffix("").with_suffix(".trace.jsonl"))
        assert len(jsonl["traceEvents"]) == len(events)
