"""The shared spec codec (:mod:`repro.utils.specs`) across every spec class.

Every spec file — deployment, scenario, fabric design and run, experiment
and circuit block — is framed, decoded and type-checked by one module.
These tests hold the codec to its contract over all of them at once: a
malformed value is rejected when the file is loaded, with the file and the
field named; nothing is coerced; and every shipped example re-serialises
to its own bytes.
"""

import dataclasses
import json
import typing
from pathlib import Path

import numpy as np
import pytest

import repro.blocks as blocks
from repro.blocks.experiment import ExperimentSpec
from repro.blocks.specs import BlockSpec, FsmSoftmaxSpec, SoftmaxCircuitConfig
from repro.fabric import FabricRunSpec, FabricSpec
from repro.scenarios import AssertionSpec, EventSpec, ScenarioSpec, WorkloadSpec
from repro.serve.specs import ServeSpec
from repro.utils.specs import field_types

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "specs"

#: The class ``repro run`` decodes each ``kind`` tag to; untagged files are experiments.
KINDS = {
    "serve/deployment": ServeSpec,
    "serve/scenario": ScenarioSpec,
    "fabric/design": FabricSpec,
    "fabric/run": FabricRunSpec,
}


def _loader(payload):
    return KINDS.get(payload.get("kind"), ExperimentSpec)


_SCENARIO = ScenarioSpec(
    events=(EventSpec(),), assertions=(AssertionSpec("p99_ms_max", 50.0),)
).to_dict()
_FABRIC_RUN = FabricRunSpec(schedule=(blocks.default_spec("gelu/bernstein"),)).to_dict()

#: (spec class, class that loads the file, a valid payload, key path of the class's fields).
SECTIONS = [
    (ServeSpec, ServeSpec, ServeSpec().to_dict(), ("params",)),
    (ScenarioSpec, ScenarioSpec, _SCENARIO, ("params",)),
    (WorkloadSpec, ScenarioSpec, _SCENARIO, ("params", "workload")),
    (EventSpec, ScenarioSpec, _SCENARIO, ("params", "events", 0)),
    (AssertionSpec, ScenarioSpec, _SCENARIO, ("params", "assertions", 0)),
    (FabricSpec, FabricSpec, FabricSpec().to_dict(), ("params",)),
    (FabricRunSpec, FabricRunSpec, _FABRIC_RUN, ("params",)),
    (ExperimentSpec, ExperimentSpec, ExperimentSpec(task="dse").to_dict(), ()),
] + [
    (spec_cls, BlockSpec, spec_cls().to_dict(), ("params",))
    for _, spec_cls in sorted(blocks.spec_families().items())
]

#: Values each scalar annotation must refuse (``Optional`` adds only ``None``).
BAD_VALUES = {
    int: (True, 2.5, "3"),
    float: (False, "0.5"),
    bool: (1, "no", 0.0),
    str: (5, True),
    dict: ([], "x"),
}


def _scalar(hint):
    """The plain type behind ``X`` / ``Optional[X]`` / ``Dict[...]``, or None."""
    if typing.get_origin(hint) is typing.Union:
        hint = next(arg for arg in typing.get_args(hint) if arg is not type(None))
    if typing.get_origin(hint) is dict:
        return dict
    return hint if hint in BAD_VALUES else None


def _cases():
    for cls, loader, payload, where in SECTIONS:
        for name, hint in field_types(cls).items():
            kind = _scalar(hint)
            for value in BAD_VALUES.get(kind, ()):
                yield pytest.param(
                    loader, payload, where, name, value,
                    id=f"{cls.__name__}.{name}={value!r}",
                )


def _write(tmp_path, payload, where, name, value):
    payload = json.loads(json.dumps(payload))
    section = payload
    for key in where:
        section = section[key]
    section[name] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return path


class TestTypeCheckAtLoad:
    def test_every_spec_class_is_covered(self):
        covered = {cls for cls, *_ in SECTIONS}
        assert set(blocks.spec_families().values()) <= covered
        assert {ServeSpec, ScenarioSpec, WorkloadSpec, EventSpec, AssertionSpec,
                FabricSpec, FabricRunSpec, ExperimentSpec} <= covered

    @pytest.mark.parametrize("loader, payload, where, name, value", list(_cases()))
    def test_wrong_scalar_type_rejected_naming_file_and_field(
        self, tmp_path, loader, payload, where, name, value
    ):
        path = _write(tmp_path, payload, where, name, value)
        with pytest.raises(ValueError) as excinfo:
            loader.from_file(path)
        message = str(excinfo.value)
        assert message.startswith(f"{path}: "), message
        assert f"{name} must be" in message, message

    @pytest.mark.parametrize(
        "example, where, name, value",
        [
            ("serve_thread_dev.json", ("params",), "flip_prob", "0.01"),
            ("serve_thread_dev.json", ("params",), "fault_seed", 1.5),
            ("serve_thread_dev.json", ("params",), "cache", 1),
            ("serve_thread_dev.json", ("params",), "port", "80"),
            ("fabric_run_smoke.json", ("params",), "rows", 2.5),
            ("fabric_run_smoke.json", ("params",), "rows", True),
            ("fabric_run_smoke.json", ("params",), "fault_seed", 3.9),
            ("fabric_run_smoke.json", ("params", "schedule", 0, "params"), "bx", 4.0),
            ("scenario_flashcrowd_kill.json", ("params", "events", 0), "at_frac", "0.5"),
            ("scenario_flashcrowd_kill.json", ("params",), "name", 5),
            ("scenario_flashcrowd_kill.json", ("params", "deployment"), "flip_prob", "0.01"),
        ],
    )
    def test_shipped_examples_with_one_bad_value(self, tmp_path, example, where, name, value):
        payload = json.loads((EXAMPLES / example).read_text())
        path = _write(tmp_path, payload, where, name, value)
        with pytest.raises(ValueError, match=f"^{path}: {name} must be"):
            _loader(payload).from_file(path)

    def test_block_spec_bool_is_not_truthiness(self, tmp_path):
        path = tmp_path / "fsm.json"
        path.write_text(json.dumps({"family": "softmax/fsm", "params": {"bit_level": "no"}}))
        with pytest.raises(ValueError, match="bit_level must be a bool"):
            BlockSpec.from_file(path)
        with pytest.raises(ValueError, match="bit_level must be a bool"):
            FsmSoftmaxSpec(bit_level="no")


class TestNoCoercion:
    def test_values_kept_as_given(self):
        spec = ServeSpec.from_dict({"kind": "serve/deployment", "params": {"max_wait_ms": 1}})
        assert spec.max_wait_ms == 1 and type(spec.max_wait_ms) is int
        assert spec.to_dict()["params"]["max_wait_ms"] == 1

    def test_numpy_integers_still_accepted_for_int_fields(self):
        spec = SoftmaxCircuitConfig(m=np.int64(17), by=np.int32(8))
        assert spec.m == 17 and isinstance(spec.m, np.int64)
        assert spec.with_updates(s1=np.int64(4)).s1 == 4

    def test_json_lists_become_tuples(self):
        spec = ScenarioSpec(events=[EventSpec()])
        assert isinstance(spec.events, tuple)


class TestEnvelope:
    def test_unknown_envelope_key_rejected(self):
        with pytest.raises(ValueError, match="unknown serve spec keys: extra"):
            ServeSpec.from_dict({"kind": "serve/deployment", "params": {}, "extra": 1})

    def test_nested_section_must_be_an_object(self):
        with pytest.raises(ValueError, match="deployment params must be a JSON object"):
            ScenarioSpec.from_dict({"kind": "serve/scenario", "params": {"deployment": []}})

    def test_tuple_entries_named_by_position(self):
        payload = {"kind": "serve/scenario", "params": {"events": [{}, {"when": 1}]}}
        with pytest.raises(ValueError, match=r"unknown events\[1\] params: when"):
            ScenarioSpec.from_dict(payload)

    def test_block_family_tag_picks_and_checks_the_class(self):
        payload = blocks.default_spec("gelu/si").to_dict()
        assert type(BlockSpec.from_dict(payload)).family == "gelu/si"
        with pytest.raises(ValueError, match="expected a SoftmaxCircuitConfig family"):
            SoftmaxCircuitConfig.from_dict(payload)

    def test_missing_required_field_named(self):
        with pytest.raises(ValueError, match="experiment needs a 'task' entry"):
            ExperimentSpec.from_dict({"name": "x"})

    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match=f"^{path}: "):
            ServeSpec.from_file(path)

    def test_missing_file_keeps_its_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="absent.json"):
            FabricSpec.from_file(tmp_path / "absent.json")


class TestExampleFiles:
    @pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.json")), ids=lambda p: p.name)
    def test_example_reserialises_byte_for_byte(self, path):
        text = path.read_text()
        spec = _loader(json.loads(text)).from_file(path)
        assert spec.to_json() + "\n" == text

    def test_field_defaults_follow_declaration_order(self):
        for spec_cls in (ServeSpec, WorkloadSpec, FabricRunSpec, ExperimentSpec):
            names = [f.name for f in dataclasses.fields(spec_cls)]
            assert list(spec_cls.field_defaults()) == names
        assert ExperimentSpec.field_defaults()["task"] is ...
