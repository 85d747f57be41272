"""Bernstein-polynomial SC nonlinear units (baseline family #2).

The ReSC-style architecture (Qian et al., the paper's reference [18])
approximates a function ``f: [0, 1] -> [0, 1]`` with a Bernstein polynomial
whose coefficients lie in the unit interval.  Every clock cycle the unit
draws ``degree`` independent stochastic copies of the input, counts how many
are 1 (say ``j``), and emits one bit of the stochastic stream encoding the
``j``-th Bernstein coefficient.  Averaged over the stream, the output
probability is exactly the Bernstein polynomial evaluated at the input
probability.

For functions on a general interval (GELU on ``[-x_range, x_range]``) the
unit brackets the polynomial with affine input/output maps, the standard
trick in the SC literature.

The baseline's weaknesses, per Section III-A of the paper: the approximation
error falls only slowly with the number of terms, the random fluctuation
falls only as ``1/sqrt(BSL)``, and every term costs another stochastic
number generator.  :class:`BernsteinGeluUnit` is the GELU instance, the
``gelu/bernstein`` registry family.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
from scipy.special import comb

from repro.blocks.protocol import NonlinearBlock
from repro.blocks.specs import BernsteinGeluSpec
from repro.hw.netlist import ComponentInventory, HardwareModule
from repro.nn.functional_math import gelu_exact
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int

# Values per chunk of :meth:`BernsteinPolynomialUnit.evaluate`'s draws, which
# bounds its memory: one chunk of 1024-bit streams at 6 terms is 2.6 MB of
# uniforms, whatever the number of values.
_VALUES_PER_CHUNK = 64


def bernstein_basis(u: np.ndarray, degree: int) -> np.ndarray:
    """Matrix of Bernstein basis polynomials ``B_{k,degree}(u)``.

    Shape: ``(len(u), degree + 1)``.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    ks = np.arange(degree + 1)
    return comb(degree, ks)[None, :] * u[:, None] ** ks[None, :] * (1 - u[:, None]) ** (degree - ks)[None, :]


def fit_bernstein_coefficients(
    target: Callable[[np.ndarray], np.ndarray],
    degree: int,
    num_samples: int = 512,
    sample_points: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Least-squares fit of unit-interval Bernstein coefficients to ``target``.

    ``target`` maps ``[0, 1] -> [0, 1]``.  Coefficients are constrained to
    ``[0, 1]`` — a hard requirement of the stochastic implementation, which
    realises each coefficient as a probability — so the fit is a bounded
    linear least-squares problem.  ``sample_points`` (values in [0, 1])
    selects where the fit is evaluated; passing calibration data here makes
    the fit distribution-aware, the same courtesy the SI blocks get from
    their scale calibration.
    """
    from scipy.optimize import lsq_linear

    check_positive_int(degree, "degree")
    if sample_points is None:
        u = np.linspace(0.0, 1.0, num_samples)
    else:
        u = np.clip(np.asarray(sample_points, dtype=float).reshape(-1), 0.0, 1.0)
        if u.size < degree + 1:
            raise ValueError("need at least degree + 1 sample points for the fit")
        # Anchor the fit with a light uniform grid so the polynomial stays
        # sane outside the bulk of the calibration distribution.
        u = np.concatenate([u, np.linspace(0.0, 1.0, 64)])
    basis = bernstein_basis(u, degree)
    y = np.clip(np.asarray(target(u), dtype=float), 0.0, 1.0)
    result = lsq_linear(basis, y, bounds=(0.0, 1.0))
    return np.clip(result.x, 0.0, 1.0)


class BernsteinPolynomialUnit:
    """Stochastic Bernstein-polynomial evaluator for a scalar function.

    Parameters
    ----------
    target:
        The real function to approximate (e.g. exact GELU).
    num_terms:
        Number of Bernstein coefficients (= polynomial degree + 1); the
        paper's Table III evaluates 4, 5 and 6 terms.
    input_range:
        The input interval ``[-input_range, input_range]`` mapped onto
        ``[0, 1]`` for the stochastic core.
    output_range:
        Optional output interval ``(lo, hi)``; inferred from the target on
        the input range when omitted.
    calibration_samples:
        Optional operand samples used to weight the coefficient fit towards
        the distribution the unit will actually see (the counterpart of the
        SI blocks' output-scale calibration).
    bitstream_length, seed:
        The stream length of :meth:`evaluate` and :meth:`build_hardware`,
        and the seed every :meth:`evaluate` call draws its streams from.
    """

    def __init__(
        self,
        target: Callable[[np.ndarray], np.ndarray],
        num_terms: int = 4,
        input_range: float = 4.0,
        output_range: Optional[tuple] = None,
        calibration_samples: Optional[np.ndarray] = None,
        bitstream_length: int = 1024,
        seed: SeedLike = 0,
    ) -> None:
        check_positive_int(num_terms, "num_terms")
        check_positive_int(bitstream_length, "bitstream_length")
        if num_terms < 2:
            raise ValueError("a Bernstein unit needs at least 2 terms")
        if input_range <= 0:
            raise ValueError("input_range must be positive")
        self.target = target
        self.num_terms = num_terms
        self.degree = num_terms - 1
        self.input_range = float(input_range)
        self.bitstream_length = bitstream_length
        self.seed = seed

        xs = np.linspace(-self.input_range, self.input_range, 1024)
        ys = np.asarray(target(xs), dtype=float)
        if output_range is None:
            lo, hi = float(ys.min()), float(ys.max())
            pad = 0.05 * (hi - lo + 1e-12)
            output_range = (lo - pad, hi + pad)
        self.output_lo, self.output_hi = float(output_range[0]), float(output_range[1])
        if self.output_hi <= self.output_lo:
            raise ValueError("output range must be non-degenerate")

        def unit_target(u: np.ndarray) -> np.ndarray:
            x = self._u_to_x(u)
            y = np.asarray(target(x), dtype=float)
            return self._y_to_v(y)

        sample_points = None
        if calibration_samples is not None:
            sample_points = self._x_to_u(np.asarray(calibration_samples, dtype=float))
        self.coefficients = fit_bernstein_coefficients(
            unit_target, self.degree, sample_points=sample_points
        )

    # ------------------------------------------------------------- mappings
    def _x_to_u(self, x: np.ndarray) -> np.ndarray:
        return np.clip((np.asarray(x, dtype=float) + self.input_range) / (2 * self.input_range), 0.0, 1.0)

    def _u_to_x(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(u, dtype=float) * 2 * self.input_range - self.input_range

    def _y_to_v(self, y: np.ndarray) -> np.ndarray:
        return np.clip((np.asarray(y, dtype=float) - self.output_lo) / (self.output_hi - self.output_lo), 0.0, 1.0)

    def _v_to_y(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v, dtype=float) * (self.output_hi - self.output_lo) + self.output_lo

    # ------------------------------------------------------------- analytic
    def polynomial(self, values: np.ndarray) -> np.ndarray:
        """Deterministic (infinite-BSL) output of the fitted polynomial."""
        u = self._x_to_u(values)
        basis = bernstein_basis(u, self.degree)
        v = basis @ self.coefficients
        return self._v_to_y(v).reshape(np.shape(values))

    def reference(self, values: np.ndarray) -> np.ndarray:
        """The target function the unit approximates."""
        return self.target(np.asarray(values, dtype=float))

    # ------------------------------------------------------------ stochastic
    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """Stochastic evaluation with the ReSC counting architecture.

        Every cycle, ``degree`` independent Bernoulli copies of the input
        probability are summed; the sum selects which coefficient's stochastic
        bit is forwarded to the output.  The decoded output is the empirical
        probability mapped back to the real output range.

        .. note::
           Since the packed-engine refactor this draws one uniform per
           output bit instead of one per coefficient stream, so seeded noise
           realisations differ from earlier versions (the distribution of
           the outputs is unchanged — only the per-seed sample moves).

        Every call draws from a generator seeded from ``seed``.
        """
        bitstream_length = self.bitstream_length
        rng = as_generator(self.seed)
        values = np.asarray(values, dtype=float)
        flat_u = self._x_to_u(values).reshape(-1)
        chunks = range(0, flat_u.size, _VALUES_PER_CHUNK)

        # degree independent input streams per value, drawn a chunk of values
        # at a time in the generator's (n_values, degree, L) order.
        select = np.empty((flat_u.size, bitstream_length), dtype=np.min_scalar_type(self.degree))
        for start in chunks:
            u = flat_u[start : start + _VALUES_PER_CHUNK]
            draws = rng.random((u.size, self.degree, bitstream_length))
            select[start : start + u.size] = (draws < u[:, None, None]).sum(axis=1)  # in [0, degree]

        # Only the selected coefficient's stochastic bit reaches the output
        # each cycle, so one uniform draw per output bit compared against the
        # selected coefficient suffices — the num_terms unselected coefficient
        # streams of the hardware never need to be materialised.
        v = np.empty(flat_u.size)
        for start in chunks:
            chosen = self.coefficients[select[start : start + _VALUES_PER_CHUNK]]
            v[start : start + chosen.shape[0]] = (rng.random(chosen.shape) < chosen).mean(axis=1)
        return self._v_to_y(v).reshape(values.shape)

    # -------------------------------------------------------------- hardware
    def build_hardware(self) -> HardwareModule:
        """Structural model of the ReSC unit at its bitstream length.

        One shared 8-bit LFSR, ``degree`` comparators for the independent input
        copies, ``num_terms`` comparators for the coefficient streams, an
        adder counting the input bits, a coefficient-selection MUX tree and
        pipeline registers.  The datapath has no cycle-to-cycle recurrence,
        so the design is deeply pipelined and the per-cycle period is set by
        a register-to-register stage; one result still takes ``bitstream_length``
        cycles because the output probability is only defined over the whole
        stream.
        """
        bitstream_length = self.bitstream_length
        lfsr_width = 8
        adder_cells = max(1, int(np.ceil(np.log2(self.num_terms))))
        inventory = ComponentInventory(
            {
                "LFSR_BIT": lfsr_width,
                "CMP_BIT": lfsr_width * (self.degree + self.num_terms) // 2,
                "FULL_ADDER": adder_cells,
                "MUX2": self.num_terms - 1,
                "DFF": 3,
                "SRAM_BIT": 8 * self.num_terms,  # coefficient storage
            }
        )
        return HardwareModule(
            name=f"bernstein_{self.num_terms}term_L{bitstream_length}",
            inventory=inventory,
            critical_path=("DFF",),
            cycles=bitstream_length,
            pipelined=True,
            metadata={
                "num_terms": self.num_terms,
                "degree": self.degree,
                "input_range": self.input_range,
                "bitstream_length": bitstream_length,
            },
        )


class BernsteinGeluUnit(BernsteinPolynomialUnit, NonlinearBlock):
    """ReSC-style Bernstein-polynomial GELU of [18] (Table III / Fig. 7)."""

    def __init__(
        self, num_terms: int = 4, input_range: float = 3.0, bitstream_length: int = 1024, seed: SeedLike = 0
    ) -> None:
        super().__init__(
            gelu_exact, num_terms=num_terms, input_range=input_range, bitstream_length=bitstream_length, seed=seed
        )

    def to_spec(self) -> BernsteinGeluSpec:
        return BernsteinGeluSpec(
            num_terms=self.num_terms,
            input_range=self.input_range,
            bitstream_length=self.bitstream_length,
            seed=self.seed,
        )
