"""Tests of the accelerator-fabric simulator (:mod:`repro.fabric`).

The fabric's whole value is its determinism contract, so that is what the
suite pins down:

* **specs** — :class:`FabricSpec` / :class:`FabricRunSpec` are frozen,
  validate at construction, and round-trip through JSON byte-identically
  (hypothesis drives the geometry knobs); the shipped
  ``examples/specs/fabric_*.json`` files are their own canonical
  serialisations.
* **bitstreams** — place-and-route is a pure function of (design,
  schedule, seed, dead tiles): same inputs, byte-identical bitstream.
* **golden bit-identity** — a compiled fabric executes every mappable
  registry family bit-for-bit identically to the direct
  ``blocks.build(...)`` path, fault-free and under ``flip_prob`` fault
  injection.
* **configuration semantics** — partial reconfiguration rewrites only
  changed words (asserted by write counts), stuck-at faults are *detected*
  (checksums, route verification), dead tiles trigger re-place-and-route
  recovery, and exhausting the grid is an explicit error.
* **integration** — :class:`FabricTask` round-trips through the
  content-addressed sweep cache, and the Table VI reconciliation holds.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.blocks as blocks
from repro.fabric import (
    Bitstream,
    Fabric,
    FabricError,
    FabricRunSpec,
    FabricSpec,
    fabric_mappable,
    mappable_families,
    place_and_route,
    reconcile_table6,
    run_fabric,
)
from repro.fabric.bitstream import (
    HEADER_WORDS,
    LINK_DROP_PE,
    REG_CHECKSUM,
    REG_MODE,
    encode_payload,
    switch_base,
    tile_addr,
)

EXAMPLES_SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs"

SETTINGS = settings(max_examples=25, deadline=None)


def _small_softmax():
    return blocks.default_spec("softmax/iterative").with_updates(m=16, s1=4, s2=2)


def _small_schedule():
    return [_small_softmax(), blocks.default_spec("gelu/bernstein").with_updates(bitstream_length=256)]


# --------------------------------------------------------------------------
# Specs: validation + byte-exact JSON round-trip
# --------------------------------------------------------------------------
class TestFabricSpec:
    @given(
        rows=st.integers(min_value=2, max_value=8),
        cols=st.integers(min_value=2, max_value=8),
        word_bits=st.sampled_from([8, 16, 32]),
        payload_words=st.integers(min_value=1, max_value=256),
    )
    @SETTINGS
    def test_json_round_trip_is_byte_exact(self, rows, cols, word_bits, payload_words):
        spec = FabricSpec(rows=rows, cols=cols, word_bits=word_bits,
                          payload_words=payload_words)
        text = spec.to_json()
        again = FabricSpec.from_json(text)
        assert again == spec
        assert again.to_json() == text

    def test_run_spec_round_trip_is_byte_exact(self):
        spec = FabricRunSpec(
            name="rt", fabric=FabricSpec(), schedule=tuple(_small_schedule()),
            rows=8, seed=3, flip_prob=0.01,
        )
        text = spec.to_json()
        again = FabricRunSpec.from_json(text)
        assert again == spec
        assert again.to_json() == text

    def test_validation_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="rows"):
            FabricSpec(rows=0)
        with pytest.raises(ValueError, match="mem_cols"):
            FabricSpec(cols=2, mem_cols=2)
        with pytest.raises(ValueError, match="word_bits"):
            FabricSpec(word_bits=12)

    def test_run_spec_requires_a_schedule(self):
        with pytest.raises(ValueError, match="schedule"):
            FabricRunSpec(fabric=FabricSpec(), schedule=())

    def test_shipped_examples_are_canonical(self):
        design_paths = sorted(EXAMPLES_SPECS.glob("fabric_design_*.json"))
        run_paths = sorted(EXAMPLES_SPECS.glob("fabric_run_*.json"))
        assert design_paths and run_paths, "examples/specs/ should ship fabric files"
        for path in design_paths:
            spec = FabricSpec.from_file(path)
            assert spec.to_json(indent=2) + "\n" == path.read_text(), path.name
        for path in run_paths:
            spec = FabricRunSpec.from_file(path)
            assert spec.to_json(indent=2) + "\n" == path.read_text(), path.name


# --------------------------------------------------------------------------
# Place-and-route + bitstream determinism
# --------------------------------------------------------------------------
class TestBitstreamDeterminism:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @SETTINGS
    def test_same_inputs_same_bytes(self, seed):
        fabric = FabricSpec()
        schedule = _small_schedule()
        a = place_and_route(fabric, schedule, seed=seed).bitstream()
        b = place_and_route(fabric, schedule, seed=seed).bitstream()
        assert a.to_bytes() == b.to_bytes()
        assert a.digest() == b.digest()

    def test_different_seeds_place_differently(self):
        fabric = FabricSpec()
        schedule = _small_schedule()
        digests = {
            place_and_route(fabric, schedule, seed=seed).bitstream().digest()
            for seed in range(4)
        }
        assert len(digests) > 1

    def test_seed_rotation_is_slot_stable(self):
        # A shared schedule prefix must land on the same tiles regardless of
        # what follows it — the property partial reconfiguration relies on.
        fabric = FabricSpec()
        softmax = _small_softmax()
        a = place_and_route(fabric, [softmax, blocks.default_spec("gelu/fsm")], seed=5)
        b = place_and_route(fabric, [softmax, blocks.default_spec("tanh/fsm")], seed=5)
        assert a.tile_for_slot(0) == b.tile_for_slot(0)
        assert a.tile_for_slot(1) == b.tile_for_slot(1)

    def test_bitstream_serialises_every_write(self):
        fabric = FabricSpec()
        stream = place_and_route(fabric, _small_schedule(), seed=0).bitstream()
        assert isinstance(stream, Bitstream)
        assert len(stream.to_bytes()) == 8 * len(stream)


# --------------------------------------------------------------------------
# Golden bit-identity for every mappable family
# --------------------------------------------------------------------------
class TestGoldenBitIdentity:
    @pytest.mark.parametrize("family", sorted(blocks.names()))
    def test_every_mappable_family_matches_golden(self, family):
        fabric = FabricSpec()
        if not fabric_mappable(family, fabric):
            pytest.skip(f"{family} does not fit the default fabric payload")
        spec = blocks.default_spec(family)
        if family == "softmax/iterative":
            spec = spec.with_updates(m=16, s1=4, s2=2)
        result = run_fabric(
            FabricRunSpec(fabric=fabric, schedule=(spec,), rows=8, seed=11)
        )
        assert result["bit_identical"], result["slots"]

    def test_all_registry_families_are_mappable_on_the_default_fabric(self):
        # Derived, not hand-listed: the Table I column and the catalog both
        # come from this predicate.
        verdicts = mappable_families(FabricSpec())
        assert sorted(verdicts) == sorted(blocks.names())
        assert all(verdicts.values()), verdicts

    def test_tiny_payload_makes_families_unmappable(self):
        cramped = FabricSpec(payload_words=4)
        assert not fabric_mappable("softmax/iterative", cramped)
        assert not mappable_families(cramped)["softmax/iterative"]

    def test_bit_identity_survives_fault_injection(self):
        spec = FabricRunSpec(
            fabric=FabricSpec(), schedule=(_small_softmax(),), rows=8,
            seed=11, flip_prob=0.05, fault_seed=3,
        )
        result = run_fabric(spec)
        assert result["bit_identical"], result["slots"]

    def test_error_inside_a_faulted_forward_propagates(self, monkeypatch):
        """A fault seam that raises must fail the run, not silently re-run
        both sides fault-free and report them bit-identical."""
        from repro.eval_pipeline.faults import BitFlipFaultModel

        def broken(self, shape, length, sites):
            raise TypeError("broken fault seam")

        # At flip 0.05 every site of the default softmax is sparse: drawn up front through this seam.
        monkeypatch.setattr(BitFlipFaultModel, "sparse_flips", broken)
        spec = FabricRunSpec(
            fabric=FabricSpec(), schedule=(_small_softmax(),), rows=8,
            seed=11, flip_prob=0.05, fault_seed=3,
        )
        with pytest.raises(TypeError, match="broken fault seam"):
            run_fabric(spec)

    def test_run_payload_is_json_serialisable(self):
        result = run_fabric(
            FabricRunSpec(fabric=FabricSpec(), schedule=tuple(_small_schedule()), rows=4)
        )
        json.dumps(result)
        assert result["resources"]["pe_tiles"] == 2
        assert result["bitstream"]["writes"] == len(
            place_and_route(FabricSpec(), _small_schedule(), seed=0).bitstream()
        )


# --------------------------------------------------------------------------
# Configuration semantics: partial reconfig, stuck-at faults, dead tiles
# --------------------------------------------------------------------------
class TestConfigurationSemantics:
    def test_partial_reconfiguration_reuses_unchanged_tiles(self):
        design = FabricSpec()
        softmax = _small_softmax()
        fabric = Fabric(design)
        cold = fabric.reconfigure(
            place_and_route(design, [softmax, blocks.default_spec("gelu/fsm")], seed=0).bitstream()
        )
        swap = fabric.reconfigure(
            place_and_route(design, [softmax, blocks.default_spec("gelu/bernstein")], seed=0).bitstream()
        )
        # Only the swapped slot's tile is rewritten; the softmax tile and
        # the shared route words are diffed away.
        assert swap["written"] < cold["written"]
        assert swap["skipped"] > 0
        assert fabric.compile().block_for_slot(1).to_spec() == blocks.build(
            "gelu/bernstein"
        ).to_spec()

    def test_identical_reload_writes_nothing(self):
        design = FabricSpec()
        stream = place_and_route(design, _small_schedule(), seed=0).bitstream()
        fabric = Fabric(design)
        fabric.reconfigure(stream)
        again = fabric.reconfigure(stream)
        assert again["written"] == 0 and again["cleared"] == 0
        assert again["skipped"] == len(stream)

    def test_stuck_at_payload_bit_is_detected_by_checksum(self):
        design = FabricSpec()
        fabric = Fabric(design)
        placement = place_and_route(design, [_small_softmax()], seed=0)
        fabric.load_bitstream(placement.bitstream())
        tile = placement.tile_for_slot(0)
        addr = tile_addr(design, tile, HEADER_WORDS)  # first payload word
        fabric.set_stuck_at(addr, 0, 1 - (fabric.read(addr) & 1))
        with pytest.raises(FabricError, match="checksum"):
            fabric.compile()
        fabric.clear_faults()
        fabric.compile()  # recovers once the fault is lifted

    def test_stuck_at_route_bit_is_detected_by_reachability(self):
        design = FabricSpec()
        fabric = Fabric(design)
        placement = place_and_route(design, [_small_softmax()], seed=0)
        fabric.load_bitstream(placement.bitstream())
        tile = placement.tile_for_slot(0)
        addr = switch_base(design) + tile
        bit = LINK_DROP_PE.bit_length() - 1
        fabric.set_stuck_at(addr, bit, 0)
        with pytest.raises(FabricError, match="route"):
            fabric.compile()

    def test_dead_tile_replaces_and_stays_bit_identical(self):
        design = FabricSpec()
        schedule = _small_schedule()
        fabric = Fabric(design)
        first = place_and_route(design, schedule, seed=0)
        fabric.reconfigure(first.bitstream())
        logits = np.linspace(-1.0, 1.0, 16).reshape(1, 16)
        golden = fabric.compile().evaluate_slot(0, logits)

        victim = first.tile_for_slot(0)
        fabric.kill_tile(victim)
        replaced = place_and_route(design, schedule, seed=0, dead_tiles=fabric.dead_tiles)
        assert replaced.tile_for_slot(0) != victim
        fabric.reconfigure(replaced.bitstream())
        again = fabric.compile().evaluate_slot(0, logits)
        np.testing.assert_array_equal(golden, again)

    def test_compiling_a_dead_active_tile_is_an_error(self):
        design = FabricSpec()
        fabric = Fabric(design)
        placement = place_and_route(design, [_small_softmax()], seed=0)
        fabric.load_bitstream(placement.bitstream())
        fabric.kill_tile(placement.tile_for_slot(0))
        with pytest.raises(FabricError, match="dead"):
            fabric.compile()

    def test_exhausting_the_grid_is_an_explicit_error(self):
        design = FabricSpec(rows=2, cols=2, mem_cols=1)  # 2 PE tiles
        with pytest.raises(FabricError, match="tiles"):
            place_and_route(design, [_small_softmax()] * 3, seed=0)

    def test_payload_overflow_is_a_fabric_error(self):
        design = FabricSpec(payload_words=4)
        with pytest.raises(FabricError, match="payload"):
            place_and_route(design, [_small_softmax()], seed=0)

    def test_checksum_covers_the_encoded_payload(self):
        design = FabricSpec()
        words, length = encode_payload(design, _small_softmax().to_dict())
        assert length <= design.payload_capacity_bytes
        assert words  # non-empty canonical encoding

    def test_configure_masks_and_sparsifies(self):
        design = FabricSpec()
        fabric = Fabric(design)
        addr = tile_addr(design, design.pe_tiles[0], REG_MODE)
        fabric.configure(addr, 1 << design.word_bits)  # masked to 0
        assert fabric.read(addr) == 0
        assert fabric.config_writes == 1


# --------------------------------------------------------------------------
# Integration: sweep-cache round-trip, Table VI, CLI kind routing
# --------------------------------------------------------------------------
class TestIntegration:
    def test_fabric_task_round_trips_through_the_cache(self, tmp_path):
        from repro.runner.cache import ResultCache
        from repro.runner.runner import ParallelSweepRunner
        from repro.runner.tasks import FabricTask

        spec = FabricRunSpec(
            name="cache-rt", fabric=FabricSpec(), schedule=(_small_softmax(),), rows=4
        )
        cache = ResultCache(tmp_path)
        runner = ParallelSweepRunner(FabricTask(), workers=1, cache=cache)
        cold = runner.run([spec.to_dict()])[0]
        assert runner.stats.evaluated == 1
        runner = ParallelSweepRunner(FabricTask(), workers=1, cache=cache)
        warm = runner.run([spec.to_dict()])[0]
        assert runner.stats.evaluated == 0 and runner.stats.cache_hits == 1
        assert warm["slots"] == cold["slots"]
        assert warm["bitstream"]["digest"] == cold["bitstream"]["digest"]

    def test_table6_reconciliation(self):
        report = reconcile_table6()
        assert report["reconciles"], report
        assert 1.0 <= report["ratio"] <= report["tolerance"]

    def test_run_sniffing_enumerates_fabric_kinds(self, tmp_path, capsys):
        from repro.cli import main

        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"kind": "not/a-kind", "params": {}}))
        with pytest.raises(SystemExit) as excinfo:
            main(["run", str(bogus)])
        message = str(excinfo.value)
        assert "fabric/design" in message
        assert "fabric/run" in message

    def test_fabric_cli_names_unknown_schedule_params(self, tmp_path):
        from repro.cli import main

        good = EXAMPLES_SPECS / "fabric_run_smoke.json"
        payload = json.loads(good.read_text())
        payload["params"]["schedule"][1]["params"]["backend"] = None
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as excinfo:
            main(["fabric", str(good), str(stale)])
        # With several files the message must name the one that failed.
        assert str(excinfo.value) == f"{stale}: unknown gelu/bernstein params: backend"

    @pytest.mark.slow
    def test_dead_tile_scenario_recovers_via_replacement(self):
        from repro.runner.tasks import ScenarioTask
        from repro.scenarios import ScenarioSpec

        spec = ScenarioSpec.from_file(EXAMPLES_SPECS / "scenario_fabric_deadtile.json")
        result = ScenarioTask().evaluate(spec.to_dict(), seed=0)
        assert result["ok"], result["assertions"]
        assert result["deaths"] >= 1
        assert result["replacements"] >= 1
        checks = {entry["check"]: entry["passed"] for entry in result["assertions"]}
        assert checks["bit_identity"] and checks["replacements_min"]
