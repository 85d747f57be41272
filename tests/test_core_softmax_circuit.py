import contextlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.blocks.specs import SoftmaxCircuitConfig, calibrate_alpha_x, calibrate_alpha_y
from repro.core.dse import SoftmaxDesignSpace
from repro.core.softmax_circuit import IterativeSoftmaxCircuit
from repro.eval_pipeline import faults
from repro.eval_pipeline.faults import BitFlipFaultModel
from repro.hw.synthesis import synthesize
from repro.sc.bitstream import ThermometerStream, counts_in_range
from repro.sc.encodings import thermometer_encode_counts
from repro.utils.numeric import round_half_away_from_zero


def make_config(**overrides):
    defaults = dict(m=64, iterations=3, bx=4, alpha_x=2.0, by=8, alpha_y=0.0625, s1=32, s2=8)
    defaults.update(overrides)
    return SoftmaxCircuitConfig(**defaults)


def _encode(values, length, scale):
    """Thermometer encode as the hardware quantizer: round half away, clip."""
    counts = round_half_away_from_zero(np.asarray(values, dtype=float) / scale + length / 2.0)
    return ThermometerStream(np.clip(counts, 0, length).astype(np.int64), length, scale)


class SiteFaults:
    """A fake fault model at the dense seam: ``perturb_counts`` hands ``fn`` the dataflow site.

    It draws no sparse flips, so the circuit calls ``perturb_counts(counts,
    length)`` at ``x``, ``y0``, ``y1``, ... in that order;
    ``fn(site, counts, length)`` returns the counts that replace them.
    """

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def _site(self):
        self.calls += 1
        return "x" if self.calls == 1 else f"y{self.calls - 2}"

    def sparse_flips(self, shape, length, sites):
        return None

    def perturb_counts(self, counts, length):
        return self.fn(self._site(), counts, length)


class FlipFaults(SiteFaults):
    """A fake fault model at the sparse seam: ``fn(site, shape, length)`` draws ``(elements, bits)``.

    The circuit takes each stream length's sites up front through
    ``sparse_flips``; ``perturb_counts`` applies the same draws to the
    streams' bits, one site at a time, for :func:`reference_forward`.
    """

    def sparse_flips(self, shape, length, sites):
        return [self.fn(self._site(), shape, length) for _ in range(sites)]

    def perturb_counts(self, counts, length):
        elements, bits = self.fn(self._site(), counts.shape, length)
        stream = np.arange(length) < counts.reshape(-1, 1)  # thermometer bits: ones first
        stream[elements, bits] ^= True  # the draws never repeat an (element, bit) pair
        return stream.sum(axis=1).reshape(counts.shape)  # the next sorter keeps the popcount


def _perturbed(faults, stream):
    if faults is None:
        return stream
    return stream.with_counts(faults.perturb_counts(stream.counts, stream.length))


def reference_forward(cfg, x, faults=None):
    """The circuit dataflow element by element: the oracle of the table.

    Every element carries its own streams through MUL 1, BSN 1 + s1, MUL 2
    + s2 and the re-scaled BSN 2, with the fault seam at the same sites.
    """
    x = np.asarray(x, dtype=float)
    x_stream = _perturbed(faults, _encode(x, cfg.bx, cfg.alpha_x))
    x_levels = x_stream.signed_levels()

    init_level = max(1, int(round((1.0 / cfg.m) / cfg.alpha_y)))
    init_level = min(init_level, cfg.by // 2)
    y_stream = ThermometerStream.from_quantized(np.full(x.shape, init_level), cfg.by, cfg.alpha_y)
    y_stream = _perturbed(faults, y_stream)

    z_grid = cfg.alpha_x * cfg.alpha_y
    for iteration in range(cfg.iterations):
        y_levels = y_stream.signed_levels()
        y_q = y_levels * cfg.alpha_y
        z_levels = x_levels * y_levels
        z_q = z_levels * z_grid
        sum_levels = z_levels.sum(axis=-1, keepdims=True)
        sum_sub_levels = np.rint(sum_levels / cfg.s1).astype(np.int64)
        sum_grid = z_grid * cfg.s1
        prod_levels = y_levels * sum_sub_levels
        prod_sub_levels = np.rint(prod_levels / cfg.s2).astype(np.int64)
        prod_grid = cfg.alpha_y * sum_grid * cfg.s2
        prod = prod_sub_levels * prod_grid
        update = y_q + (z_q - prod) / cfg.iterations
        y_stream = _perturbed(faults, _encode(update, cfg.by, cfg.alpha_y))
    return y_stream.decode()


def jitter_faults(seed):
    """Deterministic fake faults: every count moves by -1, 0 or +1."""
    rng = np.random.default_rng(seed)

    def jitter(site, counts, length):
        return np.clip(counts + rng.integers(-1, 2, size=counts.shape), 0, length)

    return SiteFaults(jitter)


def jitter_flips(seed):
    """Deterministic fake sparse faults: a third of the elements flip one bit, a quarter of those a second."""
    rng = np.random.default_rng(seed)

    def jitter(site, shape, length):
        elements = rng.permutation(np.flatnonzero(rng.random(shape) < 1 / 3))
        bits = rng.integers(0, length, elements.size)
        twice = elements.size // 4
        second = (bits[:twice] + rng.integers(1, length, twice)) % length  # another bit of the same element
        return np.concatenate([elements, elements[:twice]]), np.concatenate([bits, second])

    return FlipFaults(jitter)


def no_flips():
    return FlipFaults(lambda site, shape, length: (np.zeros(0, np.intp), np.zeros(0, np.intp)))


class TestConfig:
    def test_geometry(self):
        cfg = make_config()
        assert cfg.z_length == 16
        assert cfg.sum_length_raw == 64 * 16
        assert cfg.sum_length == 32
        assert cfg.prod_length_raw == 128
        assert cfg.prod_length == 16

    def test_non_divisible_rates_are_padded(self):
        cfg = make_config(m=17)
        assert cfg.is_feasible()
        assert cfg.sum_length == -(-17 * 16 // 32)

    def test_excessive_rate_infeasible(self):
        cfg = make_config(m=2, by=2, bx=2, s1=100000)
        assert not cfg.is_feasible()

    def test_invalid_parameters_rejected(self):
        with pytest.raises((ValueError, TypeError)):
            make_config(by=0)
        with pytest.raises(ValueError):
            make_config(alpha_y=-0.1)

    def test_describe_format(self):
        assert make_config().describe() == "[8, 32, 8, 3]"

    def test_with_updates(self):
        cfg = make_config().with_updates(by=16)
        assert cfg.by == 16 and cfg.m == 64

    @pytest.mark.parametrize("name", ["SoftmaxCircuitConfig", "calibrate_alpha_x", "calibrate_alpha_y"])
    def test_config_has_one_home(self, name):
        """The spec layer owns the config; the circuit module does not re-export it."""
        import repro.blocks.specs as specs
        import repro.core
        import repro.core.softmax_circuit as circuit

        assert getattr(repro.core, name) is getattr(specs, name)
        assert not hasattr(circuit, name)


class TestCalibration:
    def test_alpha_x_covers_most_logits(self, logit_rows):
        alpha = calibrate_alpha_x(logit_rows, bx=4)
        assert alpha > 0
        covered = np.mean(np.abs(logit_rows) <= alpha * 2)
        assert covered > 0.99

    def test_alpha_y_decreases_with_by(self):
        assert calibrate_alpha_y(16, 64) < calibrate_alpha_y(4, 64)

    def test_alpha_x_requires_samples(self):
        with pytest.raises(ValueError):
            calibrate_alpha_x(np.array([]), 4)


class TestCircuitForward:
    def test_output_shape(self, logit_rows):
        circuit = IterativeSoftmaxCircuit(make_config())
        out = circuit.forward(logit_rows[:8])
        assert out.shape == (8, 64)

    def test_rejects_wrong_row_length(self):
        circuit = IterativeSoftmaxCircuit(make_config())
        with pytest.raises(ValueError):
            circuit.forward(np.zeros((4, 32)))

    def test_rejects_infeasible_config(self):
        with pytest.raises(ValueError):
            IterativeSoftmaxCircuit(make_config(m=2, by=2, bx=2, s1=100000))

    def test_outputs_on_alpha_y_grid(self, logit_rows):
        cfg = make_config()
        circuit = IterativeSoftmaxCircuit(cfg)
        out = circuit.forward(logit_rows[:4])
        levels = out / cfg.alpha_y
        assert np.allclose(levels, np.round(levels), atol=1e-9)

    def test_mae_decreases_with_output_bsl(self, logit_rows):
        maes = []
        for by in (4, 8, 16):
            cfg = make_config(by=by, alpha_y=calibrate_alpha_y(by, 64))
            maes.append(IterativeSoftmaxCircuit(cfg).mean_absolute_error(logit_rows))
        assert maes[0] > maes[1] > maes[2]

    def test_finer_grid_tracks_exact_softmax(self, logit_rows):
        cfg = make_config(by=64, alpha_y=calibrate_alpha_y(64, 64), s1=4, s2=2, iterations=4)
        mae = IterativeSoftmaxCircuit(cfg).mean_absolute_error(logit_rows)
        assert mae < 0.03

    def test_uniform_rows_stay_near_uniform(self):
        cfg = make_config()
        out = IterativeSoftmaxCircuit(cfg).forward(np.zeros((3, 64)))
        assert np.all(np.abs(out - 1.0 / 64) <= cfg.alpha_y)

    @given(st.sampled_from([2, 4]), st.sampled_from([4, 8, 16]))
    @settings(max_examples=12, deadline=None)
    def test_property_outputs_bounded_by_grid_range(self, bx, by):
        rng = np.random.default_rng(bx * by)
        rows = rng.normal(0, 1.5, size=(4, 64))
        cfg = make_config(bx=bx, by=by, alpha_x=calibrate_alpha_x(rows, bx), alpha_y=calibrate_alpha_y(by, 64))
        out = IterativeSoftmaxCircuit(cfg).forward(rows)
        assert np.all(np.abs(out) <= cfg.alpha_y * by / 2 + 1e-12)


class TestTableMatchesElementwiseOracle:
    """The next-state table reproduces the elementwise dataflow bit for bit."""

    @given(
        geometry=st.sampled_from([(3, 4), (5, 2), (4, 8), (2, 6), (4, 3)]),
        m=st.sampled_from([5, 17, 64]),
        iterations=st.integers(1, 4),
        s1=st.sampled_from([1, 3, 7, 32, 100]),
        s2=st.sampled_from([1, 3, 5, 8, 33]),
        alpha_y_mult=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
        alpha_x=st.sampled_from([None, 0.1, 0.3, 0.6, 1.5]),
        logit_scale=st.sampled_from([0.3, 1.0, 3.0, 50.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle(self, geometry, m, iterations, s1, s2, alpha_y_mult, alpha_x, logit_scale, seed):
        bx, by = geometry
        rng = np.random.default_rng(seed)
        rows = rng.normal(0.0, logit_scale, size=(3, 2, m))
        rows[0, 0, : m // 2] = 1e6  # saturating logits, both signs
        rows[0, 1, : m // 2] = -1e6
        cfg = SoftmaxCircuitConfig(
            m=m,
            iterations=iterations,
            bx=bx,
            alpha_x=alpha_x or calibrate_alpha_x(rng.normal(0.0, 1.0, size=(8, m)), bx),
            by=by,
            alpha_y=calibrate_alpha_y(by, m) * alpha_y_mult,
            s1=s1,
            s2=s2,
        )
        assume(cfg.is_feasible())
        out = IterativeSoftmaxCircuit(cfg).forward(rows)
        assert np.array_equal(out, reference_forward(cfg, rows))

    @pytest.mark.parametrize("bx", [2, 4])
    def test_reduced_dse_grid(self, bx, logit_rows):
        space = SoftmaxDesignSpace(
            bx=bx,
            test_vectors=logit_rows[:16],
            by_choices=(4, 8, 16, 32),
            iteration_choices=(2, 3, 4),
            s1_choices=(2, 8, 32, 512),
            s2_choices=(1, 4, 64, 256),
            alpha_y_multipliers=(0.5, 2.0),
        )
        feasible = [cfg for cfg in space.enumerate_configs() if cfg.is_feasible()]
        assert len(feasible) > 100
        for cfg in feasible:
            out = IterativeSoftmaxCircuit(cfg).forward(space.test_vectors)
            assert np.array_equal(out, reference_forward(cfg, space.test_vectors)), cfg

    @pytest.mark.parametrize("alpha_x", [0.1, 0.3, 0.6])
    @pytest.mark.parametrize("iterations", [1, 2, 3, 4])
    def test_scrambled_start_matches_oracle(self, alpha_x, iterations):
        # Random x and y0 counts reach (x, y, sum) states the softmax
        # dynamics rarely visit; decimal alpha_x puts some of them within an
        # ulp of a rounding tie, where any reordered float op would show.
        cfg = make_config(m=17, iterations=iterations, alpha_x=alpha_x, alpha_y=0.0625, s1=1, s2=1)
        rows = np.zeros((4096, 17))

        def scramble(seed):
            rng = np.random.default_rng(seed)
            # A random share of each row saturates high, so the row sums
            # sweep the whole reachable range, not just its centre.
            saturated = rng.random(rows.shape) < rng.random((len(rows), 1))

            def scrambled(site, counts, length):
                if site not in ("x", "y0"):
                    return counts
                return np.where(saturated, length, rng.integers(0, length + 1, counts.shape))

            return SiteFaults(scrambled)

        out = IterativeSoftmaxCircuit(cfg).forward(rows, faults=scramble(iterations))
        assert np.array_equal(out, reference_forward(cfg, rows, faults=scramble(iterations)))

    def test_empty_batch(self):
        out = IterativeSoftmaxCircuit(make_config()).forward(np.zeros((0, 64)))
        assert out.shape == (0, 64)

    def test_tables_are_reused(self, logit_rows):
        circuit = IterativeSoftmaxCircuit(make_config())
        first = circuit.forward(logit_rows)
        tables = dict(circuit._tables)
        assert np.array_equal(circuit.forward(logit_rows), first)
        assert circuit._tables.keys() == tables.keys()
        assert all(circuit._tables[key] is table for key, table in tables.items())


def identity_faults():
    return SiteFaults(lambda site, counts, length: counts)


class TestPerLevelMatchesElementLoop:
    """The fault-free per-(row, x level) path equals the per-element loop.

    ``forward(x, faults=<identity>)`` runs the per-element loop with every
    fault site returning its input, so it is the oracle of ``forward(x)``.
    """

    @staticmethod
    def assert_paths_agree(cfg, x):
        levels, elements = IterativeSoftmaxCircuit(cfg), IterativeSoftmaxCircuit(cfg)
        out = levels.forward(x)
        assert out.shape == np.shape(x)
        assert np.array_equal(out, elements.forward(x, faults=identity_faults()))
        assert np.array_equal(out, elements.forward(x, faults=no_flips()))
        assert levels._tables.keys() == elements._tables.keys()

    @given(
        bx=st.sampled_from([2, 4, 8]),
        by=st.sampled_from([2, 4, 8, 16]),
        m=st.sampled_from([1, 2, 3, 5, 8, 17]),
        iterations=st.integers(1, 4),
        s1=st.sampled_from([1, 3, 8, 32]),
        s2=st.sampled_from([1, 2, 5, 8]),
        logit_scale=st.sampled_from([0.3, 1.0, 3.0, 50.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_over_feasible_configs(self, bx, by, m, iterations, s1, s2, logit_scale, seed):
        rng = np.random.default_rng(seed)
        cfg = SoftmaxCircuitConfig(
            m=m, iterations=iterations, bx=bx, alpha_x=calibrate_alpha_x(rng.normal(0.0, 1.0, size=(8, m)), bx),
            by=by, alpha_y=calibrate_alpha_y(by, m), s1=s1, s2=s2,
        )
        assume(cfg.is_feasible())
        self.assert_paths_agree(cfg, rng.normal(0.0, logit_scale, size=(5, 3, m)))

    @pytest.mark.parametrize("shape", [(0, 17), (2, 0, 17), (17,), (2, 3, 4, 17)])
    def test_shapes(self, shape):
        rows = np.random.default_rng(0).normal(0.0, 2.0, size=shape)
        self.assert_paths_agree(make_config(m=17), rows)

    def test_rows_holding_a_single_level(self):
        # Constant rows, saturated both ways, and rows whose logits all
        # quantise to one count: every row has one non-empty level.
        rows = np.stack([np.full(17, v) for v in (-1e6, -3.0, 0.0, 0.4, 2.0, 1e6)])
        rows[3] += np.linspace(-0.1, 0.1, 17)
        self.assert_paths_agree(make_config(m=17), rows)

    def test_vectors_shorter_than_the_level_count(self, logit_rows):
        cfg = make_config(m=3, bx=8, alpha_y=calibrate_alpha_y(8, 3), s1=1, s2=1)
        self.assert_paths_agree(cfg, logit_rows[:, :3])

    def test_fault_free_forward_never_runs_the_element_loop(self, logit_rows, monkeypatch):
        circuit = IterativeSoftmaxCircuit(make_config())
        expected = circuit.forward(logit_rows, faults=identity_faults())
        calls = []
        monkeypatch.setattr(circuit, "_forward_elements", lambda *args: calls.append(args))
        assert np.array_equal(circuit.forward(logit_rows), expected)
        assert calls == []
        circuit.forward(logit_rows, faults=identity_faults())
        assert len(calls) == 1


class TestFaultSeam:
    """Both seams: dense sites through ``perturb_counts``, sparse ones drawn up front by ``sparse_flips``."""

    @pytest.mark.parametrize("fake", [SiteFaults, FlipFaults])
    def test_sites_fire_in_dataflow_order(self, fake, logit_rows):
        cfg = make_config(iterations=4)
        sites = []

        def record(site, counts_or_shape, length):
            shape = np.shape(counts_or_shape) if fake is SiteFaults else counts_or_shape
            sites.append((site, length, shape))
            return counts_or_shape if fake is SiteFaults else (np.zeros(0, np.intp), np.zeros(0, np.intp))

        IterativeSoftmaxCircuit(cfg).forward(logit_rows[:4], faults=fake(record))
        assert sites == [("x", cfg.bx, (4, 64))] + [
            (f"y{i}", cfg.by, (4, 64)) for i in range(cfg.iterations + 1)
        ]

    @pytest.mark.parametrize("identity", [identity_faults, no_flips])
    def test_identity_faults_change_nothing(self, identity, logit_rows):
        circuit = IterativeSoftmaxCircuit(make_config())
        faulted = circuit.forward(logit_rows, faults=identity())
        assert np.array_equal(faulted, circuit.forward(logit_rows))

    @pytest.mark.parametrize("jitter", [jitter_faults, jitter_flips])
    @pytest.mark.parametrize("geometry", [(4, 8), (3, 4), (5, 2)])
    def test_perturbing_faults_match_oracle(self, jitter, geometry, logit_rows):
        bx, by = geometry
        cfg = make_config(bx=bx, by=by, alpha_y=calibrate_alpha_y(by, 64), s1=7, s2=3)
        out = IterativeSoftmaxCircuit(cfg).forward(logit_rows, faults=jitter(5))
        expected = reference_forward(cfg, logit_rows, faults=jitter(5))
        assert np.array_equal(out, expected)
        assert not np.array_equal(out, reference_forward(cfg, logit_rows))

    @pytest.mark.parametrize("site", ["x", "y0", "y1", "y3"])
    @pytest.mark.parametrize("bad", ["above", "below", "int64_min", "int32_below", "shape"])
    def test_malformed_counts_raise(self, site, bad, logit_rows):
        cfg = make_config()

        def corrupt(at, counts, length):
            if at != site:
                return counts
            if bad == "shape":
                return counts[:1]
            if bad == "int64_min":
                counts = counts.copy()
                counts[0, 0] = np.iinfo(np.int64).min
                return counts
            if bad.startswith("int32"):
                # A non-int64 dtype: the range check has a two-pass path for it.
                return counts.astype(np.int32) - length - 1
            return counts + (length + 1 if bad == "above" else -length - 1)

        with pytest.raises(ValueError, match=site):
            IterativeSoftmaxCircuit(cfg).forward(logit_rows[:4], faults=SiteFaults(corrupt))

    @pytest.mark.parametrize("site", ["x", "y0", "y1", "y3"])
    @pytest.mark.parametrize(
        "bad", ["element_above", "element_below", "bit_above", "bit_below", "unpaired", "count_out_of_range"]
    )
    def test_malformed_flips_raise(self, site, bad, logit_rows):
        cfg = make_config()

        def corrupt(at, shape, length):
            elements, bits = np.array([0, 5]), np.array([0, length - 1])
            if at != site:
                return elements, bits
            if bad.startswith("element"):
                elements[1] = np.prod(shape) if bad == "element_above" else -1
            elif bad.startswith("bit"):
                bits[1] = length if bad == "bit_above" else -1
            elif bad == "unpaired":
                bits = bits[:1]
            else:
                # One pair flipped L + 1 times moves its count by L + 1 one way.
                elements, bits = np.zeros(length + 1, np.intp), np.full(length + 1, length - 1)
            return elements, bits

        with pytest.raises(ValueError, match=site):
            IterativeSoftmaxCircuit(cfg).forward(logit_rows[:4], faults=FlipFaults(corrupt))


def per_site_forward(circuit, x, faults):
    """The faulted forward with one ``perturb_counts`` per site, in dataflow order.

    This is the per-site loop the circuit ran before it drew each stream
    length's sparse sites up front: the oracle of that path.
    """
    cfg = circuit.config
    x_counts = faults.perturb_counts(thermometer_encode_counts(x, cfg.bx, cfg.alpha_x), cfg.bx)
    x_base = x_counts * (cfg.by + 1)
    state = x_base + faults.perturb_counts(np.full(x_counts.shape, circuit._y0_count, dtype=np.int64), cfg.by)
    for _ in range(cfg.iterations):
        table, offsets = circuit._step(circuit._z_levels.take(state).sum(axis=-1, keepdims=True))
        state = x_base + faults.perturb_counts(table.take(offsets + state) - x_base, cfg.by)
    return circuit._decoded.take(state)


@contextlib.contextmanager
def window_overflow(overflow):
    """Optionally shrink the sparse walk's window so that walks read several windows."""
    with pytest.MonkeyPatch.context() as patch:
        if overflow:
            patch.setattr(faults, "_WINDOW_SIGMAS", -3.0)
            patch.setattr(faults, "_WINDOW_SLACK", 0)
        yield


class TestDrawnSitesMatchPerSiteLoop:
    """Sites drawn up front and applied in place equal one ``perturb_counts`` per site."""

    @given(
        bx=st.sampled_from([2, 4, 8]),
        by=st.sampled_from([2, 4, 8, 16]),
        m=st.sampled_from([1, 3, 17]),
        iterations=st.integers(1, 4),
        # L·p <= 1 walks, L·p > 1 inverts: each value is sparse at some lengths and dense at others.
        flip_prob=st.sampled_from([0.0, 0.01, 0.06, 0.125, 0.3, 1.0]),
        images=st.sampled_from([0, 1, 3]),
        overflow=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_property(self, bx, by, m, iterations, flip_prob, images, overflow, seed):
        rng = np.random.default_rng(seed)
        cfg = SoftmaxCircuitConfig(
            m=m, iterations=iterations, bx=bx, alpha_x=calibrate_alpha_x(rng.normal(0.0, 1.0, size=(8, m)), bx),
            by=by, alpha_y=calibrate_alpha_y(by, m), s1=1, s2=1,
        )
        assume(cfg.is_feasible())
        x = rng.normal(0.0, 2.0, size=(images, 2, m))
        model, indices = BitFlipFaultModel(flip_prob, seed=seed), rng.integers(0, 2**40, images)
        with window_overflow(overflow):
            out = IterativeSoftmaxCircuit(cfg).forward(x, faults=model.armed(indices))
            expected = per_site_forward(IterativeSoftmaxCircuit(cfg), x, model.armed(indices))
        assert np.array_equal(out, expected)

    @given(
        length=st.sampled_from([1, 2, 4, 8, 16]),
        per_image=st.sampled_from([0, 1, 17, 100]),
        images=st.sampled_from([0, 1, 3]),
        sites=st.integers(1, 5),
        mean_flips=st.sampled_from([0.01, 0.2, 1.0]),  # L·p
        overflow=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_multi_site_walk_equals_site_by_site(self, length, per_image, images, sites, mean_flips, overflow, seed):
        keys = faults.counter_words(np.arange(seed, seed + images, dtype=np.uint64), 1, sites + 1).T
        with window_overflow(overflow):
            joint = faults._sparse_flips(keys, per_image, length, mean_flips / length)
            alone = [
                faults._sparse_flips(keys[site : site + 1], per_image, length, mean_flips / length)
                for site in range(sites)
            ]
        assert len(joint) == sites
        for (elements, bits), [(one_elements, one_bits)] in zip(joint, alone):
            assert np.array_equal(elements, one_elements) and np.array_equal(bits, one_bits)
            assert np.all(np.diff(elements) >= 0) and counts_in_range(elements, images * per_image - 1)
            assert counts_in_range(bits, length - 1)

    def test_sparse_sites_skip_perturb_counts_and_dense_sites_use_it(self, logit_rows, monkeypatch):
        calls = []
        perturb = BitFlipFaultModel.perturb_counts
        monkeypatch.setattr(BitFlipFaultModel, "perturb_counts", lambda *args: calls.append(args[2]) or perturb(*args))
        cfg = make_config()  # Bx 4, By 8
        for flip_prob, expected in [(0.01, []), (0.2, [cfg.by] * (cfg.iterations + 1)), (0.5, [cfg.bx] + [cfg.by] * 4)]:
            calls.clear()
            armed = BitFlipFaultModel(flip_prob, seed=1).armed([0, 1])
            IterativeSoftmaxCircuit(cfg).forward(logit_rows[:2], faults=armed)
            assert calls == expected, flip_prob


class TestCircuitHardware:
    def test_area_grows_with_by(self):
        areas = []
        for by in (4, 8, 16):
            cfg = make_config(by=by)
            areas.append(synthesize(IterativeSoftmaxCircuit(cfg).build_hardware()).area_um2)
        assert areas[0] < areas[1] < areas[2]

    def test_delay_scales_with_iterations(self):
        base = synthesize(IterativeSoftmaxCircuit(make_config(iterations=2)).build_hardware()).delay_ns
        more = synthesize(IterativeSoftmaxCircuit(make_config(iterations=4)).build_hardware()).delay_ns
        assert more > base

    def test_subsampling_reduces_area(self):
        fine = synthesize(IterativeSoftmaxCircuit(make_config(s1=4)).build_hardware()).area_um2
        coarse = synthesize(IterativeSoftmaxCircuit(make_config(s1=128)).build_hardware()).area_um2
        assert coarse < fine

    def test_compute_unit_replicated_m_times(self):
        cfg = make_config()
        module = IterativeSoftmaxCircuit(cfg).build_hardware()
        unit_counts = [count for sub, count in module.submodules if sub.name == "softmax_compute_unit"]
        assert unit_counts == [64]

    def test_metadata_records_parameters(self):
        cfg = make_config()
        report = synthesize(IterativeSoftmaxCircuit(cfg).build_hardware())
        assert report.metadata["s1"] == 32 and report.metadata["by"] == 8
