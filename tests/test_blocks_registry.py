"""Registry behaviour: lookup, lazy loading, registration, metadata."""

import sys

import numpy as np
import pytest

import repro.blocks as blocks
from repro.blocks.protocol import NonlinearBlock
from repro.blocks.registry import _REGISTRY, register_block
from repro.blocks.specs import BlockSpec, FsmTanhSpec


EXPECTED_FAMILIES = {
    "softmax/iterative",
    "softmax/fsm",
    "gelu/si",
    "gelu/si-ternary",
    "gelu/naive-si",
    "gelu/fsm",
    "gelu/bernstein",
    "tanh/fsm",
    "relu/fsm",
}


def _run_fresh(code: str):
    """Run ``code`` in a new interpreter with this checkout's ``src`` on the path."""
    import os
    import subprocess
    from pathlib import Path

    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


class TestCatalog:
    def test_every_family_registered(self):
        assert set(blocks.names()) >= EXPECTED_FAMILIES

    def test_unknown_family_names_the_catalog(self):
        with pytest.raises(KeyError, match="registered:"):
            blocks.get("softmax/does-not-exist")

    def test_entries_declare_metadata(self):
        for name in blocks.names():
            entry = blocks.get(name)
            assert entry.function
            assert entry.method
            assert entry.description
            assert entry.input_encoding in ("thermometer", "bipolar", "unipolar", "value")
            assert entry.output_encoding in ("thermometer", "bipolar", "unipolar", "value")
            assert issubclass(entry.spec_cls, BlockSpec)

    def test_default_spec_buildable_for_every_family(self):
        for name in blocks.names():
            spec = blocks.default_spec(name)
            assert spec.family == name
            block = blocks.build(name, spec=spec)
            assert isinstance(block, NonlinearBlock)
            assert block.family == name

    def test_loaded_classes_carry_registry_metadata(self):
        for name in blocks.names():
            entry = blocks.get(name)
            cls = entry.load()
            assert cls.family == name
            assert cls.spec_cls is entry.spec_cls
            assert cls.input_encoding == entry.input_encoding
            assert cls.output_encoding == entry.output_encoding


class TestLazyLoading:
    def test_import_blocks_does_not_import_circuit_layers(self):
        """The registry indirection is what breaks the core <-> eval cycle."""
        code = (
            "import sys; import repro.blocks; "
            "bad = [m for m in sys.modules if m.startswith(('repro.core', 'repro.sc', "
            "'repro.eval_pipeline'))]; "
            "assert not bad, bad; print('lazy ok')"
        )
        result = _run_fresh(code)
        assert result.returncode == 0, result.stderr
        assert "lazy ok" in result.stdout


class TestBuild:
    def test_spec_and_kwargs_are_mutually_exclusive(self):
        with pytest.raises(TypeError, match="not both"):
            blocks.build("tanh/fsm", spec=FsmTanhSpec(), num_states=8)

    def test_wrong_spec_type_rejected(self):
        with pytest.raises(TypeError, match="builds from"):
            blocks.build("softmax/iterative", spec=FsmTanhSpec())

    def test_directly_imported_class_rejects_another_familys_spec(self):
        """The spec check holds before the registry has loaded the class."""
        code = (
            "from repro.blocks.specs import NaiveSIGeluSpec; from repro.core.gelu_si import GeluSIBlock\n"
            "try:\n    GeluSIBlock.from_spec(NaiveSIGeluSpec())\n"
            "except TypeError:\n    print('rejected')"
        )
        result = _run_fresh(code)
        assert result.returncode == 0, result.stderr
        assert "rejected" in result.stdout

    def test_unknown_parameter_rejected(self):
        with pytest.raises(TypeError):
            blocks.build("tanh/fsm", num_statez=8)

    def test_mean_absolute_error_against_reference(self):
        block = blocks.build("tanh/fsm", bitstream_length=512, seed=0)
        x = np.linspace(-0.9, 0.9, 21)
        mae = block.mean_absolute_error(x)
        assert 0.0 <= mae < 0.5

    def test_hardware_summary_keys(self):
        cost = blocks.build("gelu/si-ternary").hardware_summary()
        assert set(cost) == {"area_um2", "delay_ns", "adp"}
        assert cost["adp"] == pytest.approx(cost["area_um2"] * cost["delay_ns"], rel=1e-9)


class TestRegisterBlock:
    def test_register_and_build_a_custom_family(self):
        from dataclasses import dataclass

        from repro.blocks.specs import BlockSpec, _spec_family

        @_spec_family("test/identity")
        @dataclass(frozen=True)
        class IdentitySpec(BlockSpec):
            gain: float = 1.0

        try:

            @register_block(
                "test/identity",
                spec=IdentitySpec,
                function="identity",
                method="wire",
                description="test-only identity block",
            )
            class IdentityBlock(NonlinearBlock):
                def __init__(self, gain=1.0):
                    self.gain = gain

                def to_spec(self):
                    return IdentitySpec(gain=self.gain)

                def evaluate(self, values):
                    return np.asarray(values, dtype=float) * self.gain

                def reference(self, values):
                    return np.asarray(values, dtype=float) * self.gain

                def build_hardware(self):
                    from repro.hw.netlist import ComponentInventory, HardwareModule

                    return HardwareModule(
                        name="identity",
                        inventory=ComponentInventory({"BUF": 1}),
                        critical_path=("BUF",),
                        cycles=1,
                    )

            block = blocks.build("test/identity", gain=2.0)
            np.testing.assert_array_equal(block.evaluate([1.0, 2.0]), [2.0, 4.0])
            assert block.mean_absolute_error(np.ones(4)) == 0.0
            # Duplicate registration of a *different* class is rejected.
            with pytest.raises(ValueError, match="already registered"):
                register_block(
                    "test/identity", spec=IdentitySpec, function="identity", method="wire"
                )(type("Other", (IdentityBlock,), {}))
        finally:
            _REGISTRY.pop("test/identity", None)
            from repro.blocks.specs import _SPEC_FAMILIES

            _SPEC_FAMILIES.pop("test/identity", None)

    def test_register_docstring_less_class_without_description(self):
        """The description falls back to the family name, never crashes."""
        from dataclasses import dataclass

        from repro.blocks.specs import _SPEC_FAMILIES, BlockSpec, _spec_family

        @_spec_family("test/bare")
        @dataclass(frozen=True)
        class BareSpec(BlockSpec):
            pass

        try:
            namespace = {
                "__init__": lambda self: None,
                "to_spec": lambda self: BareSpec(),
                "evaluate": lambda self, values: np.asarray(values, dtype=float),
                "reference": lambda self, values: np.asarray(values, dtype=float),
                "build_hardware": lambda self: None,
            }
            bare_cls = type("Bare", (NonlinearBlock,), namespace)  # no docstring
            register_block("test/bare", spec=BareSpec, function="identity", method="wire")(bare_cls)
            assert blocks.get("test/bare").description == "test/bare"
        finally:
            _REGISTRY.pop("test/bare", None)
            _SPEC_FAMILIES.pop("test/bare", None)

    def test_capability_matrix_is_pure_metadata(self):
        rows = blocks.capability_matrix()
        assert [row.design for row in rows][-1] == "ASCEND (ours)"
        assert all(row.supports(fn) for row, fn in [(rows[-1], "gelu"), (rows[-1], "softmax")])
        assert len({row.design for row in rows}) == len(rows)
