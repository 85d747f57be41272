"""Declarative experiment files and the ``repro run`` / ``repro blocks`` CLI."""

import json
from pathlib import Path

import pytest

from repro.blocks.experiment import ExperimentSpec
from repro.cli import build_parser, main

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "specs"


class TestExperimentSpec:
    def test_roundtrip(self):
        spec = ExperimentSpec(
            task="dse",
            name="smoke",
            description="tiny grid",
            params={"grid": "tiny", "rows": 16},
            runner={"workers": 2},
        )
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment task"):
            ExperimentSpec(task="train-gpt")

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment keys"):
            ExperimentSpec.from_dict({"task": "dse", "grid": "tiny"})

    def test_params_runner_overlap_rejected(self):
        with pytest.raises(ValueError, match="both params and runner"):
            ExperimentSpec(task="dse", params={"workers": 1}, runner={"workers": 2})

    def test_to_argv_formatting(self):
        spec = ExperimentSpec(
            task="eval",
            params={
                "by_grid": [4, 8],
                "max_images": 32,
                "verify_batched": True,
                "gelu_bsl": None,
                "quiet": False,
            },
            runner={"workers": 2},
        )
        argv = spec.to_argv()
        assert argv[0] == "eval"
        assert argv[argv.index("--by-grid"):][:3] == ["--by-grid", "4", "8"]
        assert "--verify-batched" in argv  # True -> bare flag
        assert "--gelu-bsl" not in argv  # None -> omitted
        assert "--quiet" not in argv  # False -> omitted
        assert argv[argv.index("--workers") + 1] == "2"

    def test_overrides_replace_runner_options(self):
        spec = ExperimentSpec(task="dse", runner={"workers": 2, "cache_dir": "a"})
        argv = spec.to_argv({"workers": 8})
        assert argv[argv.index("--workers") + 1] == "8"
        assert argv[argv.index("--cache-dir") + 1] == "a"

    def test_validate_options_catches_typos(self):
        parser = build_parser()
        good = ExperimentSpec(task="dse", params={"max_designs": 8})
        good.validate_options(parser)
        bad = ExperimentSpec(task="dse", params={"max_desings": 8})
        with pytest.raises(ValueError, match="max_desings"):
            bad.validate_options(parser)

    def test_example_specs_are_valid(self):
        from pathlib import Path

        from repro.serve.specs import ServeSpec

        specs_dir = Path(__file__).resolve().parent.parent / "examples" / "specs"
        paths = sorted(specs_dir.glob("*.json"))
        assert paths, "examples/specs/ should ship experiment files"
        parser = build_parser()
        from repro.fabric import FabricRunSpec, FabricSpec
        from repro.scenarios import ScenarioSpec

        for path in paths:
            # `repro run` routes on the same sniffs: serve/deployment files
            # go to ServeSpec, serve/scenario to ScenarioSpec, fabric/design
            # and fabric/run to the fabric simulator, everything else to
            # ExperimentSpec.
            if ServeSpec.sniff(json.loads(path.read_text())):
                ServeSpec.from_file(path)
                continue
            if ScenarioSpec.sniff(json.loads(path.read_text())):
                ScenarioSpec.from_file(path)
                continue
            if FabricSpec.sniff(json.loads(path.read_text())):
                FabricSpec.from_file(path)
                continue
            if FabricRunSpec.sniff(json.loads(path.read_text())):
                FabricRunSpec.from_file(path)
                continue
            spec = ExperimentSpec.from_file(path)
            spec.validate_options(parser)
            # The synthesized argv parses cleanly against the real CLI.
            parser.parse_args(spec.to_argv())


@pytest.mark.slow
class TestRunSubcommand:
    def test_run_reproduces_the_direct_cli_through_the_cache(self, tmp_path, monkeypatch, capsys):
        """Acceptance loop: spec run == direct CLI run, byte-identical via cache."""
        monkeypatch.chdir(tmp_path)
        spec_path = tmp_path / "dse_tiny.json"
        spec_path.write_text(
            json.dumps(
                {
                    "name": "dse-tiny",
                    "task": "dse",
                    "params": {"grid": "tiny", "max_designs": 8, "rows": 8, "bx": [4]},
                    "runner": {"workers": 1, "cache_dir": str(tmp_path / "cache"), "quiet": True},
                }
            )
        )
        assert main(["run", str(spec_path), "--out", str(tmp_path / "cold.json")]) == 0
        assert main(["run", str(spec_path), "--out", str(tmp_path / "warm.json")]) == 0
        cold = json.loads((tmp_path / "cold.json").read_text())
        warm = json.loads((tmp_path / "warm.json").read_text())
        space = warm["spaces"]["4"]
        assert space["evaluated"] == 0, "warm spec run must be served from cache"
        assert space["cache_hits"] == space["explored"]
        assert cold["spaces"]["4"]["pareto"] == space["pareto"]

        # The hand-typed equivalent shares the same cache entries.
        direct = [
            "dse", "--grid", "tiny", "--max-designs", "8", "--rows", "8", "--bx", "4",
            "--workers", "1", "--cache-dir", str(tmp_path / "cache"), "--quiet",
            "--out", str(tmp_path / "direct.json"),
        ]
        assert main(direct) == 0
        direct_payload = json.loads((tmp_path / "direct.json").read_text())
        assert direct_payload["spaces"]["4"]["evaluated"] == 0
        assert direct_payload["spaces"]["4"]["pareto"] == space["pareto"]

    def test_run_rejects_bad_spec_before_executing_anything(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"task": "dse", "params": {"max_desings": 1}}))
        with pytest.raises(SystemExit, match="max_desings"):
            main(["run", str(bad)])

    def test_run_missing_file_is_a_clean_cli_error(self, tmp_path):
        with pytest.raises(SystemExit, match="missing.json"):
            main(["run", str(tmp_path / "missing.json")])

    def test_run_refuses_out_override_with_multiple_specs(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            path.write_text(json.dumps({"task": "dse", "params": {"grid": "tiny"}}))
        with pytest.raises(SystemExit, match="runner.out"):
            main(["run", str(a), str(b), "--out", str(tmp_path / "clobbered.json")])


class TestRunKindTable:
    def test_each_kind_routes_to_its_subcommand(self, tmp_path, monkeypatch, capsys):
        import repro.blocks as blocks
        import repro.cli as cli
        from repro.fabric import FabricRunSpec, FabricSpec
        from repro.scenarios import ScenarioSpec
        from repro.serve import ServeSpec

        # (spec, runner overrides, expected argv): a deployment spec is the
        # whole service, so `repro serve` takes no runner overrides at all.
        tagged = {
            "serve/deployment": (ServeSpec(), [], ["serve", "--spec", "{path}"]),
            "serve/scenario": (
                ScenarioSpec(), ["--cache-dir", "c", "--quiet"],
                ["scenario", "{path}", "--cache-dir", "c", "--quiet"],
            ),
            "fabric/design": (
                FabricSpec(), ["--cache-dir", "c", "--quiet"],
                ["fabric", "{path}", "--cache-dir", "c", "--quiet"],
            ),
            "fabric/run": (
                FabricRunSpec(schedule=(blocks.default_spec("gelu/bernstein"),)),
                ["--cache-dir", "c", "--quiet"],
                ["fabric", "{path}", "--cache-dir", "c", "--quiet"],
            ),
        }
        assert sorted(cli.RUN_SPEC_KINDS) == sorted(tagged)
        routed = []
        for name in ("serve", "scenario", "fabric"):
            monkeypatch.setattr(cli, f"cmd_{name}", lambda args, name=name: routed.append(name) or 0)
        for kind, (spec, overrides, argv) in tagged.items():
            path = tmp_path / f"{kind.replace('/', '_')}.json"
            path.write_text(spec.to_json())
            assert main(["run", str(path), *overrides]) == 0
            assert routed.pop() == argv[0]
            expected = " ".join(part.format(path=path) for part in argv)
            assert f"-> repro {expected}\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "example, flags, rejected",
        [
            ("fabric_run_smoke.json", ["--workers", "3"], "--workers"),
            ("fabric_design_4x4.json", ["--workers", "3"], "--workers"),
            ("scenario_poisson_slo.json", ["--workers", "3", "--quiet"], "--workers"),
            ("serve_thread_dev.json", ["--cache-dir", "c"], "--cache-dir"),
            ("serve_thread_dev.json", ["--workers", "2", "--out", "o.json"], "--workers, --out"),
        ],
    )
    def test_tagged_spec_rejects_overrides_its_subcommand_ignores(
        self, example, flags, rejected, monkeypatch
    ):
        import repro.cli as cli

        ran = []
        for name in ("serve", "scenario", "fabric"):
            monkeypatch.setattr(cli, f"cmd_{name}", lambda args: ran.append(args) or 0)
        path = EXAMPLES / example
        with pytest.raises(SystemExit) as excinfo:
            main(["run", *flags, str(path)])
        message = str(excinfo.value)
        assert message.startswith(f"{path}: ")
        assert f"takes no {rejected}" in message
        assert not ran

    def test_unknown_kind_lists_every_kind(self, tmp_path):
        from repro.cli import RUN_SPEC_KINDS

        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"kind": "not/a-kind", "params": {}}))
        with pytest.raises(SystemExit) as excinfo:
            main(["run", str(bogus)])
        message = str(excinfo.value)
        assert "'not/a-kind'" in message
        assert len(RUN_SPEC_KINDS) == 4
        for kind in RUN_SPEC_KINDS:
            assert kind in message


class TestBlocksSubcommand:
    def test_closed_stdout_ends_without_a_traceback(self):
        """`repro blocks | head` with the reader gone: exit 1, no traceback."""
        import os
        import subprocess
        import sys

        import repro

        env = dict(os.environ)
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "blocks", "--no-hardware"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()  # the reader closes before the first write
        stderr = proc.stderr.read().decode()
        assert proc.wait() == 1
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr

    def test_table1_matches_registry(self, tmp_path, capsys):
        out = tmp_path / "table1.json"
        assert main(["blocks", "--table1", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        import repro.blocks as blocks

        from repro.fabric import fabric_mappable

        # The trailing column is derived per design: mappable iff every
        # registered family carrying the design label fits the fabric.
        design_mappable = {}
        for name in blocks.names():
            capability = blocks.get(name).capability
            if capability is None:
                continue
            design_mappable[capability.design] = (
                design_mappable.get(capability.design, True) and fabric_mappable(name)
            )
        expected = [
            [
                r.design,
                r.supported_model,
                r.encoding_format,
                ", ".join(r.supported_functions),
                r.implementation_method,
                "yes" if design_mappable.get(r.design, False) else "no",
            ]
            for r in blocks.capability_matrix()
        ]
        assert rows == expected

    def test_catalog_lists_every_family(self, tmp_path, capsys):
        out = tmp_path / "catalog.json"
        assert main(["blocks", "--no-hardware", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        import repro.blocks as blocks

        assert sorted(payload["blocks"]) == blocks.names()
        si = payload["blocks"]["gelu/si"]
        assert si["input_encoding"] == "thermometer"
        assert si["parameters"]["output_length"] == 8
        assert si["default_spec"]["family"] == "gelu/si"
        # --no-hardware must keep the file strict-JSON (null, never NaN).
        assert si["hardware"] is None
        assert "NaN" not in out.read_text()
