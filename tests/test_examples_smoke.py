"""Smoke tests for the example scripts.

The training-heavy examples are exercised through their building blocks
elsewhere (pipeline tests); here the cheap, circuit-level example entry
points are actually executed so a refactor of the public API cannot silently
break the documented usage.
"""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

pytestmark = pytest.mark.slow

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
sys.path.insert(0, str(EXAMPLES_DIR))


class TestQuickstart:
    def test_demo_functions_run(self, capsys):
        module = runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"))
        module["demo_thermometer_sc"]()
        module["demo_softmax"]()
        module["demo_accelerator"]()
        out = capsys.readouterr().out
        assert "Deterministic SC" in out
        assert "Iterative approximate softmax" in out
        assert "softmax share" in out


class TestGeluComparisonExample:
    def test_transfer_curves_and_cost_table(self):
        module = runpy.run_path(str(EXAMPLES_DIR / "gelu_circuit_comparison.py"))
        sweep = np.linspace(-2.0, 0.5, 21)
        curves = module["transfer_curves"](sweep)
        assert "exact_gelu" in curves and "gate_assisted_si_8b" in curves
        assert all(len(v) == len(sweep) for v in curves.values())

        samples = np.random.default_rng(0).normal(0, 0.6, 400)
        rows = module["cost_error_table"](samples)
        assert len(rows) == 6
        assert all(len(row) == 5 for row in rows)


class TestSoftmaxDesignSpaceExample:
    def test_table4_and_reduced_exploration(self, capsys):
        module = runpy.run_path(str(EXAMPLES_DIR / "softmax_design_space.py"))
        from repro.evaluation import attention_logit_vectors

        logits = attention_logit_vectors(24, 64, seed=3)
        module["table4_comparison"](logits)
        module["explore"](logits, full=False, budget=0.2)
        out = capsys.readouterr().out
        assert "Table IV" in out
        assert "Pareto optima" in out
        assert "chosen design" in out or "most accurate" in out


class TestAcceleratorConfigurationExample:
    def test_quick_run_prints_table6_and_recommendation(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["accelerator_configuration.py", "--quick", "--max-images", "32"])
        runpy.run_path(str(EXAMPLES_DIR / "accelerator_configuration.py"), run_name="__main__")
        out = capsys.readouterr().out
        assert "Table VI" in out
        assert "[8, 32, 8, 3]" in out
        assert "recommended configuration" in out
