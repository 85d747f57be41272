import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.pareto import pareto_front
from repro.evaluation.reporting import format_markdown_table, format_table, save_json_report
from repro.evaluation.sweeps import fig7_gelu_configs, fig7_gelu_row, table4_circuit, table4_configs, table4_row
from repro.evaluation.vectors import (
    attention_logit_vectors,
    collect_gelu_inputs,
    collect_softmax_inputs,
    gelu_input_vectors,
)


class TestVectors:
    def test_attention_logits_shape_and_determinism(self):
        a = attention_logit_vectors(10, 32, seed=1)
        b = attention_logit_vectors(10, 32, seed=1)
        assert a.shape == (10, 32)
        assert np.array_equal(a, b)

    def test_attention_rows_have_varied_scale(self):
        rows = attention_logit_vectors(200, 64, seed=0)
        stds = rows.std(axis=-1)
        assert stds.max() > 2 * stds.min()

    def test_gelu_inputs_distribution_shape(self):
        samples = gelu_input_vectors(5000, seed=0)
        assert samples.shape == (5000,)
        assert -1.0 < samples.mean() < 0.5
        assert 0.3 < samples.std() < 1.5

    def test_collect_softmax_inputs_from_model(self, frozen_vit, tiny_images, monkeypatch):
        rows = collect_softmax_inputs(frozen_vit, tiny_images, max_rows=32)
        assert rows.shape == (32, frozen_vit.config.num_tokens)
        # A bad limit fails before the calibration forward runs.
        calls = []
        monkeypatch.setattr(frozen_vit.patch_embedding, "forward", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="max_rows"):
            collect_softmax_inputs(frozen_vit, tiny_images, max_rows=0)
        assert not calls

    def test_collect_gelu_inputs_from_model(self, frozen_vit, tiny_images, monkeypatch):
        samples = collect_gelu_inputs(frozen_vit, tiny_images, max_samples=100)
        assert samples.shape == (100,)
        calls = []
        monkeypatch.setattr(frozen_vit.patch_embedding, "forward", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="max_samples"):
            collect_gelu_inputs(frozen_vit, tiny_images, max_samples=0)
        assert not calls

    @pytest.mark.parametrize(
        "collect,field",
        [(collect_softmax_inputs, "attention_logits"), (collect_gelu_inputs, "gelu_inputs")],
    )
    def test_collectors_trace_only_the_field_they_read(self, frozen_vit, tiny_images, monkeypatch, collect, field):
        received = []
        forward = frozen_vit.forward

        def spy(images, trace=None, **kwargs):
            received.append({name: getattr(trace, name) for name in vars(trace)})
            return forward(images, trace=trace, **kwargs)

        monkeypatch.setattr(frozen_vit, "forward", spy)
        collect(frozen_vit, tiny_images)
        (fields,) = received
        assert set(fields) == {"attention_logits", "gelu_inputs", "block_outputs"}
        assert {name for name, value in fields.items() if value is not None} == {field}


class TestPareto:
    def test_simple_front(self):
        costs = [1.0, 2.0, 3.0]
        errors = [0.3, 0.2, 0.1]
        assert pareto_front(costs, errors).all()  # all non-dominated

    def test_dominated_point_removed(self):
        costs = [1.0, 2.0, 2.0]
        errors = [0.3, 0.1, 0.2]
        mask = pareto_front(costs, errors)
        assert mask.tolist() == [True, True, False]

    def test_front_points_sorted_by_cost(self):
        rng = np.random.default_rng(0)
        costs = rng.uniform(1, 10, 50)
        errors = rng.uniform(0.01, 1.0, 50)
        mask = pareto_front(costs, errors)
        order = np.argsort(costs[mask])
        # along a Pareto front sorted by increasing cost, error must not increase
        assert np.all(np.diff(errors[mask][order]) <= 1e-12)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            pareto_front([1.0, 2.0], [0.1])

    @given(st.lists(st.tuples(st.floats(0.1, 10), st.floats(0.01, 1)), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_property_front_points_are_non_dominated(self, points):
        costs = np.array([p[0] for p in points])
        errors = np.array([p[1] for p in points])
        mask = pareto_front(costs, errors)
        assert mask.any()
        for i in np.nonzero(mask)[0]:
            dominated = (
                (costs <= costs[i]) & (errors <= errors[i]) & ((costs < costs[i]) | (errors < errors[i]))
            )
            assert not dominated.any()


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1.0], ["long-name", 123456.0]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "---" in lines[1]

    def test_format_table_row_length_check(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_markdown_table(self):
        table = format_markdown_table(["x"], [[1], [2]])
        assert table.startswith("| x |")
        assert table.count("\n") == 3

    def test_save_json_report_converts_numpy(self, tmp_path):
        payload = {"array": np.arange(3), "scalar": np.float64(1.5), "nested": {"v": np.int64(2)}}
        path = save_json_report(tmp_path / "report.json", payload)
        loaded = json.loads(path.read_text())
        assert loaded["array"] == [0, 1, 2]
        assert loaded["nested"]["v"] == 2


class TestSweepGrids:
    def test_fig7_grid_order_is_historical(self):
        configs = fig7_gelu_configs()
        assert len(configs) == 12
        assert configs[0] == {"kind": "bernstein", "terms": 4, "bsl": 128}
        assert configs[8] == {"kind": "bernstein", "terms": 6, "bsl": 1024}
        assert configs[-1] == {"kind": "si", "bsl": 8}

    def test_table4_grid_order_is_historical(self):
        configs = table4_configs()
        assert [c["kind"] for c in configs] == ["fsm"] * 3 + ["ours"] * 3

    def test_table4_circuit_reads_the_recipe_parameters(self):
        c = table4_circuit(4, alpha_x=1.5)
        assert (c.m, c.bx, c.s1, c.s2, c.iterations, c.alpha_x) == (64, 4, 32, 8, 3, 1.5)

    def test_unknown_config_kinds_rejected(self):
        with pytest.raises(ValueError, match="unknown GELU sweep config kind"):
            fig7_gelu_row({"kind": "fsm", "bsl": 8}, np.zeros(4))
        with pytest.raises(ValueError, match="unknown Table IV config kind"):
            table4_row({"kind": "si", "bsl": 8}, np.zeros((1, 64)), alpha_x=2.0)
