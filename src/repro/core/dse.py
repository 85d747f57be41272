"""Design-space exploration of the iterative approximate softmax block.

Section VI-B1 of the paper sweeps the circuit parameters of Table II
(output BSL ``By``, iteration count ``k``, the sub-sample rates ``s1`` and
``s2``, and the scaling factors) — 2916 candidate designs per input BSL —
and extracts the Pareto front in the (ADP, MAE) plane (Fig. 8).  This module
reproduces that sweep:

* :class:`SoftmaxDesignSpace` enumerates the same-size grid, evaluates each
  feasible configuration with the circuit emulation (for MAE on attention
  test vectors) and the hardware cost model (for ADP), and
* :meth:`SoftmaxDesignSpace.pareto_front` extracts the Pareto-optimal
  designs, which feed the accelerator-level study of Table VI.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.blocks import build as build_block
from repro.blocks.specs import (
    SoftmaxCircuitConfig,
    calibrate_alpha_x,
    calibrate_alpha_y,
)
from repro.evaluation.pareto import pareto_front
from repro.hw.cells import CellLibrary
from repro.hw.synthesis import SynthesisReport, synthesize
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated configuration of the softmax design space."""

    config: SoftmaxCircuitConfig
    feasible: bool
    area_um2: float = float("nan")
    delay_ns: float = float("nan")
    adp: float = float("nan")
    mae: float = float("nan")

    def as_row(self) -> Tuple:
        """Row used by the Fig. 8 bench output."""
        return (
            self.config.by,
            self.config.s1,
            self.config.s2,
            self.config.iterations,
            self.area_um2,
            self.delay_ns,
            self.adp,
            self.mae,
        )


#: Default parameter grid: 4 (By) x 3 (k) x 9 (s1) x 9 (s2) x 3 (alpha_y
#: multiplier) = 2916 candidate designs, matching the design-space size the
#: paper reports for each Bx.
DEFAULT_BY_CHOICES: Tuple[int, ...] = (4, 8, 16, 32)
DEFAULT_ITERATION_CHOICES: Tuple[int, ...] = (2, 3, 4)
DEFAULT_S1_CHOICES: Tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128, 256, 512)
DEFAULT_S2_CHOICES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)
DEFAULT_ALPHA_Y_MULTIPLIERS: Tuple[float, ...] = (0.5, 1.0, 2.0)


def evaluate_design(
    config: SoftmaxCircuitConfig,
    test_vectors: np.ndarray,
    library: Optional[CellLibrary] = None,
) -> DesignPoint:
    """Evaluate one configuration: MAE on ``test_vectors`` + synthesis cost.

    The evaluation is fully deterministic: the circuit emulation quantises
    on fixed grids and uses no RNG.
    """
    if not config.is_feasible():
        return DesignPoint(config=config, feasible=False)
    block = build_block("softmax/iterative", spec=config)
    report: SynthesisReport = synthesize(block.build_hardware(), library)
    mae = block.mean_absolute_error(test_vectors)
    return DesignPoint(
        config=config,
        feasible=True,
        area_um2=report.area_um2,
        delay_ns=report.delay_ns,
        adp=report.adp,
        mae=mae,
    )


class SoftmaxDesignSpace:
    """Enumerate and evaluate softmax circuit configurations.

    Parameters
    ----------
    bx:
        Input BSL (the paper explores ``Bx = 2`` and ``Bx = 4``).
    test_vectors:
        Attention-logit rows of shape ``(rows, m)`` used for MAE evaluation.
    m:
        Softmax vector length; inferred from the test vectors when omitted.
    library:
        Cell library for synthesis (defaults to the shared 28 nm-like one).
    """

    def __init__(
        self,
        bx: int,
        test_vectors: np.ndarray,
        m: Optional[int] = None,
        library: Optional[CellLibrary] = None,
        by_choices: Sequence[int] = DEFAULT_BY_CHOICES,
        iteration_choices: Sequence[int] = DEFAULT_ITERATION_CHOICES,
        s1_choices: Sequence[int] = DEFAULT_S1_CHOICES,
        s2_choices: Sequence[int] = DEFAULT_S2_CHOICES,
        alpha_y_multipliers: Sequence[float] = DEFAULT_ALPHA_Y_MULTIPLIERS,
    ) -> None:
        check_positive_int(bx, "bx")
        self.test_vectors = np.asarray(test_vectors, dtype=float)
        if self.test_vectors.ndim != 2:
            raise ValueError("test_vectors must be a 2-D (rows, m) array")
        self.bx = bx
        self.m = int(m if m is not None else self.test_vectors.shape[-1])
        if self.test_vectors.shape[-1] != self.m:
            raise ValueError("test vector row length must equal m")
        self.library = library
        self.by_choices = tuple(by_choices)
        self.iteration_choices = tuple(iteration_choices)
        self.s1_choices = tuple(s1_choices)
        self.s2_choices = tuple(s2_choices)
        self.alpha_y_multipliers = tuple(alpha_y_multipliers)
        self.alpha_x = calibrate_alpha_x(self.test_vectors, bx)

    # ------------------------------------------------------------ enumeration
    def grid_size(self) -> int:
        """Number of candidate designs in the full grid."""
        return (
            len(self.by_choices)
            * len(self.iteration_choices)
            * len(self.s1_choices)
            * len(self.s2_choices)
            * len(self.alpha_y_multipliers)
        )

    def enumerate_configs(self) -> Iterable[SoftmaxCircuitConfig]:
        """Yield every candidate configuration of the grid (feasible or not).

        The enumeration order is stable and documented: a nested product of
        ``by_choices`` → ``iteration_choices`` → ``s1_choices`` →
        ``s2_choices`` → ``alpha_y_multipliers``, each iterated in its
        declared sequence order (the last axis varies fastest).  Truncated
        explorations (``max_designs``) rely on this order being deterministic.
        """
        for by, k, s1, s2, mult in product(
            self.by_choices,
            self.iteration_choices,
            self.s1_choices,
            self.s2_choices,
            self.alpha_y_multipliers,
        ):
            yield SoftmaxCircuitConfig(
                m=self.m,
                iterations=k,
                bx=self.bx,
                alpha_x=self.alpha_x,
                by=by,
                alpha_y=calibrate_alpha_y(by, self.m) * mult,
                s1=s1,
                s2=s2,
            )

    # ------------------------------------------------------------- evaluation
    def evaluate(self, config: SoftmaxCircuitConfig) -> DesignPoint:
        """Evaluate one configuration (MAE on the test vectors + synthesis)."""
        return evaluate_design(config, self.test_vectors, self.library)

    def explore(self, max_designs: Optional[int] = None, *, reporter: Optional[Any] = None) -> List[DesignPoint]:
        """Evaluate the whole grid (or its first ``max_designs`` entries), in grid order.

        Infeasible grid points are returned with ``feasible=False`` so the
        bench can report the full design-space size the way the paper does.

        ``max_designs`` truncates **deterministically in grid order**: the
        grid is enumerated in the nested order documented by
        :meth:`enumerate_configs` (``by`` → ``iterations`` → ``s1`` → ``s2``
        → ``alpha_y`` multiplier, each in its declared sequence order) and
        exactly the first ``max_designs`` entries are evaluated.
        ``reporter`` is an optional
        :class:`repro.evaluation.reporting.ProgressReporter`.
        """
        if max_designs is not None and max_designs < 0:
            max_designs = 0
        configs = list(islice(self.enumerate_configs(), max_designs))
        return [self.evaluate(config) for config in (configs if reporter is None else reporter.track(configs))]

    # ----------------------------------------------------------------- pareto
    @staticmethod
    def feasible_points(points: Sequence[DesignPoint]) -> List[DesignPoint]:
        """Filter out infeasible grid points."""
        return [p for p in points if p.feasible]

    @staticmethod
    def pareto_points(points: Sequence[DesignPoint]) -> List[DesignPoint]:
        """Pareto-optimal subset in the (ADP, MAE) plane, sorted by ADP."""
        feasible = SoftmaxDesignSpace.feasible_points(points)
        if not feasible:
            return []
        mask = pareto_front([p.adp for p in feasible], [p.mae for p in feasible])
        optimal = [p for p, keep in zip(feasible, mask) if keep]
        return sorted(optimal, key=lambda p: p.adp)

    def pareto_front(self, max_designs: Optional[int] = None) -> List[DesignPoint]:
        """Convenience: explore the grid and return its Pareto front."""
        return self.pareto_points(self.explore(max_designs=max_designs))
