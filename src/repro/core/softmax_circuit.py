"""SC circuit block for the iterative approximate softmax — Fig. 5 / Table II.

The circuit executes Algorithm 1 on thermometer-coded bitstreams.  Per
iteration and per vector element it instantiates (Fig. 5):

* **MUL ①** — truth-table multiplier computing ``z_i = x_i * y_i``,
* **BSN ①** — a global bitonic sorting network accumulating ``sum(z)`` over
  the ``m`` elements, sub-sampled by ``s1`` before it fans back out,
* **MUL ②** — multiplier computing ``y_i * sum(z)``, sub-sampled by ``s2``,
* two **re-scaling blocks** aligning the scaling factors of ``z_i / k`` and
  ``- y_i * sum(z) / k`` (the division by the constant ``k`` is free: it only
  divides the scaling factor),
* **BSN ②** — the final accumulation producing ``y_i^j``, re-encoded on the
  ``(By, alpha_y)`` output grid for the next iteration.

The functional emulation below follows the same dataflow with the same
quantisation points: the products are exact on their product grids (that is
what a truth-table multiplier does), the two sub-sampling steps quantise on
grids coarsened by ``s1`` and ``s2``, and the iteration output is re-encoded
on the ``(By, alpha_y)`` grid.  Those are the only places the circuit loses
information, so they are the only places the emulation does.

Within one iteration everything an element computes is a function of three
integers: its x count, its y count and its row's sub-sampled ``sum(z)``.  The
emulation therefore carries one combined ``(x count, y count)`` state per
element and steps it through a next-state table indexed by that state and
the row sum.  Each table covers only the row sums an iteration observed and
is filled by the elementwise dataflow itself, with the same operations in
the same order, so it reproduces that dataflow bit for bit.

The structural model (:meth:`IterativeSoftmaxCircuit.build_hardware`)
instantiates the same pieces through the :mod:`repro.hw` cost model; the
design space of Table II / Fig. 8 is swept by :mod:`repro.core.dse`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from repro.hw.netlist import ComponentInventory, HardwareModule
from repro.nn.functional_math import softmax_exact
from repro.sc.arithmetic import thermometer_multiplier_hardware
from repro.sc.bitstream import counts_in_range
from repro.sc.encodings import thermometer_decode_counts, thermometer_encode_counts
from repro.sc.rescaling import RescalingBlock
from repro.sc.sorting_network import BitonicSortingNetwork

if TYPE_CHECKING:
    from repro.blocks.specs import SoftmaxCircuitConfig

__all__ = ["IterativeSoftmaxCircuit"]


class IterativeSoftmaxCircuit:
    """Functional + structural model of the ASCEND softmax block."""

    def __init__(self, config: SoftmaxCircuitConfig) -> None:
        if not config.is_feasible():
            raise ValueError(
                f"infeasible softmax circuit configuration: {config}"
            )
        self.config = config
        # Per-element state is one combined count ``x_count * (By+1) +
        # y_count``; these tables map a state to its z product level and to
        # its decoded output value.
        x_levels = np.arange(config.bx + 1) - config.bx // 2
        y_counts = np.arange(config.by + 1)
        y_levels = y_counts - config.by // 2
        self._z_levels = np.outer(x_levels, y_levels).ravel()
        self._decoded = np.tile(
            thermometer_decode_counts(y_counts, config.by, config.alpha_y), config.bx + 1
        )
        self._tables: Dict[Tuple[int, int], np.ndarray] = {}

    # -------------------------------------------------------------- simulate
    def forward(self, x: np.ndarray, faults=None) -> np.ndarray:
        """Run the circuit on a batch of logit rows.

        ``x`` has shape ``(..., m)``; the returned array has the same shape
        and contains the decoded circuit outputs.

        ``faults``, an armed :class:`~repro.eval_pipeline.faults.BitFlipFaultModel`
        (or anything with its ``perturb_counts(counts, length)``), flips bits
        at every thermometer-stream interface of the dataflow, in order:
        ``"x"`` (the encoded input), ``"y0"`` (the constant initial
        estimate) and ``"y<i>"`` (the re-encoded output of iteration ``i``).
        ``None`` (the default) keeps the exact fault-free numerics.  Returned
        counts must keep their shape and lie in ``[0, length]``; anything
        else raises ``ValueError`` naming the site.
        """
        cfg = self.config
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != cfg.m:
            raise ValueError(f"expected rows of length {cfg.m}, got {x.shape[-1]}")

        x_counts = thermometer_encode_counts(x, cfg.bx, cfg.alpha_x)
        if faults is not None:
            x_counts = _perturbed(faults, "x", x_counts, cfg.bx)

        # y^0 = 1/m, initialised as a constant bitstream.  The hardware pins
        # the initial count to the nearest non-zero level: if 1/m rounded to
        # zero the recurrence z = x * y could never leave the all-zero state.
        init_level = max(1, int(round((1.0 / cfg.m) / cfg.alpha_y)))
        init_level = min(init_level, cfg.by // 2)
        y_counts = init_level + cfg.by // 2
        if faults is not None:
            y_counts = _perturbed(faults, "y0", np.full(x.shape, y_counts, dtype=np.int64), cfg.by)

        states_per_sum = (cfg.bx + 1) * (cfg.by + 1)
        x_base = x_counts * (cfg.by + 1)  # the x part of the state; iterations keep it
        state = x_base + y_counts
        for iteration in range(cfg.iterations):
            # BSN (1) + s1 sub-sampling: the one cross-element quantity.
            sum_levels = self._z_levels.take(state).sum(axis=-1, keepdims=True)
            sum_sub_levels = np.rint(sum_levels / cfg.s1).astype(np.int64)
            lo, hi = (int(sum_sub_levels.min()), int(sum_sub_levels.max())) if state.size else (0, 0)
            table = self._next_state_table(lo, hi)
            state = table.take((sum_sub_levels - lo) * states_per_sum + state)
            if faults is not None:
                state -= x_base
                state = x_base + _perturbed(faults, f"y{iteration + 1}", state, cfg.by)

        return self._decoded.take(state)

    def _next_state_table(self, lo: int, hi: int) -> np.ndarray:
        """Next combined state for every ``(sum_sub, x_count, y_count)``.

        Flat index ``(sum_sub - lo) * (Bx+1)(By+1) + state``, over the row
        sums ``lo..hi`` one iteration observed.  Memoised per ``(lo, hi)``;
        both ends lie in the reachable sub-sampled range of ``sum(z)``
        (about ``±m·Bx·By / (4·s1)``, nine values for the eval config), so
        the memo stays small.  Two threads that miss on the same key both
        build it and store equal tables, so no lock is needed.
        """
        table = self._tables.get((lo, hi))
        if table is not None:
            return table
        cfg = self.config
        sum_sub_levels = np.arange(lo, hi + 1, dtype=np.int64)[:, None, None]
        x_counts = np.arange(cfg.bx + 1)[:, None]
        x_levels = x_counts - cfg.bx // 2
        y_levels = np.arange(cfg.by + 1) - cfg.by // 2

        # The Fig. 5 dataflow of one iteration, element by element, with the
        # same operations in the same order as the circuit: the table holds
        # exactly the counts the elementwise emulation would produce.
        y_q = y_levels * cfg.alpha_y

        # MUL (1): exact product on the (alpha_x * alpha_y) grid — a
        # truth-table multiplier introduces no error of its own.
        z_grid = cfg.alpha_x * cfg.alpha_y  # value of one signed level of a z stream
        z_levels = x_levels * y_levels
        z_q = z_levels * z_grid

        # BSN (1) + s1 sub-sampling (in ``forward``): the concatenated
        # product streams are sorted and every s1-th bit is kept.  On signed
        # levels that is a rounded division by s1 (the grid coarsens by s1).
        sum_grid = z_grid * cfg.s1

        # MUL (2) + s2 sub-sampling: y_i * sum(z) quantised on its
        # product grid, then coarsened by s2.
        prod_levels = y_levels * sum_sub_levels
        prod_sub_levels = np.rint(prod_levels / cfg.s2).astype(np.int64)
        prod_grid = cfg.alpha_y * sum_grid * cfg.s2
        prod = prod_sub_levels * prod_grid

        # Re-scaling + BSN (2): accumulate y + (z - y*sum(z)) / k and
        # re-encode onto the (By, alpha_y) output grid for the next
        # iteration (the division by k is a pure scale change).
        update = y_q + (z_q - prod) / cfg.iterations
        y_next = thermometer_encode_counts(update, cfg.by, cfg.alpha_y)
        table = (x_counts * (cfg.by + 1) + y_next).ravel()
        self._tables[(lo, hi)] = table
        return table

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def mean_absolute_error(self, x: np.ndarray) -> float:
        """MAE of the circuit against the exact softmax on a batch of rows."""
        x = np.asarray(x, dtype=float)
        return float(np.mean(np.abs(self.forward(x) - softmax_exact(x, axis=-1))))

    # -------------------------------------------------------------- hardware
    def build_compute_unit(self) -> HardwareModule:
        """One of the ``m`` per-element compute units of Fig. 5."""
        cfg = self.config
        mul1 = thermometer_multiplier_hardware(cfg.bx, cfg.by, name="mul1")
        mul2 = thermometer_multiplier_hardware(cfg.by, cfg.sum_length, name="mul2")
        # Streams whose length is not a multiple of the sub-sample rate are
        # padded up to the next multiple, exactly as in the functional model.
        padded_prod = cfg.prod_length * cfg.s2
        rescale1 = RescalingBlock(padded_prod, cfg.s2).build_hardware("rescale_prod")
        rescale2 = RescalingBlock(max(cfg.z_length, 2), 1).build_hardware("rescale_z")
        # BSN (2) adds y (By bits), z/k and -y*sum(z)/k after re-scaling; its
        # width is the concatenation of the three aligned streams.
        bsn2_width = cfg.by + cfg.z_length + cfg.prod_length
        bsn2 = BitonicSortingNetwork(bsn2_width).build_hardware(name="bsn2")
        inventory = ComponentInventory({"DFF": cfg.by, "INV": cfg.prod_length})
        return HardwareModule(
            name="softmax_compute_unit",
            inventory=inventory,
            critical_path=("DFF",),
            cycles=1,
            submodules=[(mul1, 1), (mul2, 1), (rescale1, 1), (rescale2, 1), (bsn2, 1)],
            pipelined=True,
            metadata={"by": cfg.by, "bx": cfg.bx, "bsn2_width": bsn2_width},
        )

    def build_hardware(self) -> HardwareModule:
        """The whole softmax block: ``m`` compute units plus the global BSN ①.

        The critical path of one iteration chains MUL ① → BSN ① → re-scale →
        MUL ② → re-scale → BSN ②; the block needs ``k`` iterations per
        softmax row, so the latency is ``k`` times that path.
        """
        cfg = self.config
        unit = self.build_compute_unit()
        bsn1 = BitonicSortingNetwork(cfg.sum_length_raw).build_hardware(name="bsn1")

        # Chain the per-iteration critical path explicitly (cell names).
        mul1_sorter_depth = BitonicSortingNetwork(max(cfg.z_length, 2)).depth
        mul2_sorter_depth = BitonicSortingNetwork(max(cfg.by * cfg.sum_length // 2, 2)).depth
        bsn2_depth = BitonicSortingNetwork(cfg.by + cfg.z_length + cfg.prod_length).depth
        path = (
            ["AND2", "XOR2"] + ["SORT_CE"] * mul1_sorter_depth  # MUL 1
            + ["SORT_CE"] * BitonicSortingNetwork(cfg.sum_length_raw).depth  # BSN 1
            + ["BUF"]  # s1 re-scaling tap
            + ["AND2", "XOR2"] + ["SORT_CE"] * mul2_sorter_depth  # MUL 2
            + ["BUF"]  # s2 re-scaling tap
            + ["SORT_CE"] * bsn2_depth  # BSN 2
            + ["DFF"]
        )
        inventory = ComponentInventory({"DFF": cfg.m * cfg.by})
        return HardwareModule(
            name=f"ascend_softmax_m{cfg.m}_bx{cfg.bx}_by{cfg.by}",
            inventory=inventory,
            critical_path=tuple(path),
            cycles=cfg.iterations,
            submodules=[(unit, cfg.m), (bsn1, 1)],
            pipelined=True,
            metadata={
                "m": cfg.m,
                "iterations": cfg.iterations,
                "bx": cfg.bx,
                "by": cfg.by,
                "alpha_x": cfg.alpha_x,
                "alpha_y": cfg.alpha_y,
                "s1": cfg.s1,
                "s2": cfg.s2,
            },
        )


def _perturbed(faults, site: str, counts: np.ndarray, length: int) -> np.ndarray:
    """``faults.perturb_counts`` at ``site``, checked before it enters the state.

    The combined state packs x and y counts into one index, so an
    out-of-range count would silently alias another entry; it fails here.
    """
    out = np.asarray(faults.perturb_counts(counts, length))
    if out.shape != counts.shape or not counts_in_range(out, length):
        raise ValueError(
            f"faults at site {site!r} must return counts of shape {counts.shape} in [0, {length}]"
        )
    return out
