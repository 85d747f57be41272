import numpy as np
import pytest

from repro.nn.functional_math import gelu_exact, sigmoid_exact
from repro.sc.bernstein import BernsteinPolynomialUnit, bernstein_basis, fit_bernstein_coefficients


class TestBernsteinBasis:
    def test_partition_of_unity(self):
        u = np.linspace(0, 1, 17)
        basis = bernstein_basis(u, degree=5)
        assert np.allclose(basis.sum(axis=1), 1.0)

    def test_non_negative(self):
        basis = bernstein_basis(np.linspace(0, 1, 33), degree=4)
        assert np.all(basis >= -1e-12)

    def test_endpoint_interpolation(self):
        basis = bernstein_basis(np.array([0.0, 1.0]), degree=3)
        assert basis[0, 0] == pytest.approx(1.0)
        assert basis[1, -1] == pytest.approx(1.0)


class TestCoefficientFit:
    def test_coefficients_in_unit_interval(self):
        coeffs = fit_bernstein_coefficients(lambda u: u**2, degree=4)
        assert np.all(coeffs >= 0.0) and np.all(coeffs <= 1.0)

    def test_identity_function_fit_is_accurate(self):
        coeffs = fit_bernstein_coefficients(lambda u: u, degree=3)
        u = np.linspace(0, 1, 50)
        fit = bernstein_basis(u, 3) @ coeffs
        assert np.max(np.abs(fit - u)) < 1e-6

    def test_higher_degree_fits_no_worse(self):
        target = lambda u: np.clip(0.5 + 0.4 * np.sin(4 * u), 0, 1)
        u = np.linspace(0, 1, 200)
        errors = []
        for degree in (3, 5, 7):
            coeffs = fit_bernstein_coefficients(target, degree)
            errors.append(np.mean((bernstein_basis(u, degree) @ coeffs - target(u)) ** 2))
        assert errors[2] <= errors[0] + 1e-9

    def test_calibration_points_bias_the_fit(self):
        target = lambda u: u**3
        narrow = np.full(200, 0.25)
        coeffs = fit_bernstein_coefficients(target, 3, sample_points=narrow)
        fit_at_quarter = bernstein_basis(np.array([0.25]), 3) @ coeffs
        assert abs(fit_at_quarter[0] - 0.25**3) < 0.02


class TestBernsteinUnit:
    def test_polynomial_output_within_range(self):
        unit = BernsteinPolynomialUnit(gelu_exact, num_terms=5, input_range=3.0)
        x = np.linspace(-3, 3, 50)
        out = unit.polynomial(x)
        assert out.min() >= unit.output_lo - 1e-9
        assert out.max() <= unit.output_hi + 1e-9

    def test_more_terms_reduce_approximation_error(self):
        x = np.linspace(-3, 3, 400)
        err4 = np.mean(np.abs(BernsteinPolynomialUnit(gelu_exact, 4, 3.0).polynomial(x) - gelu_exact(x)))
        err6 = np.mean(np.abs(BernsteinPolynomialUnit(gelu_exact, 6, 3.0).polynomial(x) - gelu_exact(x)))
        assert err6 <= err4 + 1e-9

    def test_stochastic_error_decreases_with_bsl(self):
        x = np.linspace(-2, 2, 64)
        short_unit = BernsteinPolynomialUnit(gelu_exact, num_terms=5, input_range=3.0, bitstream_length=64, seed=0)
        long_unit = BernsteinPolynomialUnit(gelu_exact, num_terms=5, input_range=3.0, bitstream_length=4096, seed=0)
        reference = short_unit.polynomial(x)
        short = np.mean(np.abs(short_unit.evaluate(x) - reference))
        long = np.mean(np.abs(long_unit.evaluate(x) - reference))
        assert long < short

    def test_evaluate_tracks_target_roughly(self):
        unit = BernsteinPolynomialUnit(sigmoid_exact, num_terms=6, input_range=4.0, bitstream_length=4096, seed=1)
        x = np.array([-3.0, 0.0, 3.0])
        out = unit.evaluate(x)
        assert out[0] < out[1] < out[2]

    @pytest.mark.parametrize("num_terms", [4, 6])
    @pytest.mark.parametrize("shape", [(1,), (63,), (64,), (65,), (129,), (5, 27)], ids=lambda s: "x".join(map(str, s)))
    def test_chunked_draws_match_drawing_everything_at_once(self, num_terms, shape):
        # evaluate draws 64 values at a time; these shapes straddle the chunk boundary.
        unit = BernsteinPolynomialUnit(gelu_exact, num_terms=num_terms, input_range=3.0, bitstream_length=96, seed=3)
        x = np.random.default_rng(2).normal(size=shape)
        rng = np.random.default_rng(3)
        u = unit._x_to_u(x).reshape(-1)
        select = (rng.random((u.size, unit.degree, 96)) < u[:, None, None]).sum(axis=1)
        v = (rng.random((u.size, 96)) < unit.coefficients[select]).mean(axis=1)
        assert np.array_equal(unit.evaluate(x), unit._v_to_y(v).reshape(shape))

    def test_too_few_terms_rejected(self):
        with pytest.raises(ValueError):
            BernsteinPolynomialUnit(gelu_exact, num_terms=1)

    def test_invalid_input_range_rejected(self):
        with pytest.raises(ValueError):
            BernsteinPolynomialUnit(gelu_exact, num_terms=4, input_range=-1.0)


class TestBernsteinHardware:
    def test_cycles_equal_bsl(self):
        unit = BernsteinPolynomialUnit(gelu_exact, num_terms=4, bitstream_length=512)
        assert unit.build_hardware().cycles == 512

    def test_area_grows_with_terms(self):
        a4 = BernsteinPolynomialUnit(gelu_exact, 4, bitstream_length=128).build_hardware().area_um2()
        a6 = BernsteinPolynomialUnit(gelu_exact, 6, bitstream_length=128).build_hardware().area_um2()
        assert a6 > a4

    def test_adp_grows_with_bsl(self):
        from repro.hw.synthesis import synthesize

        long = BernsteinPolynomialUnit(gelu_exact, 4, bitstream_length=1024).build_hardware()
        short = BernsteinPolynomialUnit(gelu_exact, 4, bitstream_length=128).build_hardware()
        assert synthesize(long).adp > synthesize(short).adp
