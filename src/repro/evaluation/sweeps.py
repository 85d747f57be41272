"""The paper's block-level sweeps: the Fig. 7 GELU rows and the Table IV softmax rows.

Each sweep is a loop in grid order over the function that evaluates one
config, shared by ``python -m repro gelu-sweep`` / ``tables`` and the
``benchmarks/`` scripts, so both entry points produce byte-identical rows.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.blocks.specs import SoftmaxCircuitConfig, calibrate_alpha_x, sc_vit_softmax

__all__ = [
    "FIG7_BERNSTEIN_TERMS",
    "FIG7_BERNSTEIN_BSLS",
    "FIG7_SI_BSLS",
    "fig7_gelu_configs",
    "fig7_gelu_row",
    "fig7_gelu_rows",
    "TABLE4_FSM_BSLS",
    "TABLE4_BY_CHOICES",
    "table4_configs",
    "table4_row",
    "table4_rows",
]


# ---------------------------------------------------------------------------
# Fig. 7 — GELU block ADP/MAE across bitstream lengths.
# ---------------------------------------------------------------------------

FIG7_BERNSTEIN_TERMS: Tuple[int, ...] = (4, 5, 6)
FIG7_BERNSTEIN_BSLS: Tuple[int, ...] = (128, 256, 1024)
FIG7_SI_BSLS: Tuple[int, ...] = (2, 4, 8)

#: The Bernstein rows are scored on the first this-many samples (the
#: figure's historical protocol); the SI rows on the full sample set.
FIG7_BERNSTEIN_EVAL_ROWS = 1500


def fig7_gelu_configs() -> List[Dict[str, Any]]:
    """The Fig. 7 grid in its historical row order (Bernstein, then SI)."""
    configs: List[Dict[str, Any]] = []
    for terms in FIG7_BERNSTEIN_TERMS:
        for bsl in FIG7_BERNSTEIN_BSLS:
            configs.append({"kind": "bernstein", "terms": terms, "bsl": bsl})
    for bsl in FIG7_SI_BSLS:
        configs.append({"kind": "si", "bsl": bsl})
    return configs


def fig7_gelu_row(config: Dict[str, Any], samples: np.ndarray) -> Tuple[str, int, float, float]:
    """One Fig. 7 operating point: ``(series, bsl, adp, mae)``.

    ``{"kind": "bernstein", "terms": t, "bsl": b}`` is the polynomial
    baseline (seeded by ``terms``); ``{"kind": "si", "bsl": b}`` is the
    gate-assisted SI block, calibrated and scored on ``samples``.
    """
    from repro.blocks import build
    from repro.nn.functional_math import gelu_exact

    reference = gelu_exact(samples)
    bsl = int(config["bsl"])
    if config["kind"] == "bernstein":
        terms = int(config["terms"])
        # Historical protocol: the per-series noise seed is the term count.
        block = build("gelu/bernstein", num_terms=terms, input_range=3.0, bitstream_length=bsl, seed=terms)
        rows = FIG7_BERNSTEIN_EVAL_ROWS
        mae = float(np.mean(np.abs(block.evaluate(samples[:rows]) - reference[:rows])))
        return (f"{terms}-term Bern. Poly.", bsl, float(block.hardware_summary()["adp"]), mae)
    if config["kind"] == "si":
        block = build("gelu/si", output_length=bsl, calibration_samples=samples)
        mae = float(np.mean(np.abs(block.evaluate(samples) - reference)))
        return ("Gate-Assisted SI (ours)", bsl, float(block.hardware_summary()["adp"]), mae)
    raise ValueError(f"unknown GELU sweep config kind: {config['kind']!r}")


def fig7_gelu_rows(samples: np.ndarray, reporter: Optional[Any] = None) -> List[Tuple[str, int, float, float]]:
    """The Fig. 7 rows, in grid order (``reporter``: a :class:`ProgressReporter`)."""
    samples = np.asarray(samples, dtype=float)
    configs = fig7_gelu_configs()
    return [fig7_gelu_row(config, samples) for config in (configs if reporter is None else reporter.track(configs))]


# ---------------------------------------------------------------------------
# Table IV — softmax block comparison (FSM baseline vs ours).
# ---------------------------------------------------------------------------

TABLE4_FSM_BSLS: Tuple[int, ...] = (128, 256, 1024)
TABLE4_BY_CHOICES: Tuple[int, ...] = (4, 8, 16)
#: The "ours" rows' circuit besides ``By``: ``(s1, s2, k)``.
TABLE4_CIRCUIT: Tuple[int, int, int] = (32, 8, 3)


def table4_configs() -> List[Dict[str, Any]]:
    """The Table IV rows in their historical order (FSM rows, then ours)."""
    configs: List[Dict[str, Any]] = [{"kind": "fsm", "bsl": bsl} for bsl in TABLE4_FSM_BSLS]
    configs.extend({"kind": "ours", "by": by} for by in TABLE4_BY_CHOICES)
    return configs


def table4_circuit(by: int, alpha_x: float) -> SoftmaxCircuitConfig:
    """The "ours" row's :func:`~repro.blocks.specs.sc_vit_softmax` circuit at :data:`TABLE4_CIRCUIT`."""
    return sc_vit_softmax(by, *TABLE4_CIRCUIT, alpha_x=alpha_x)


def table4_row(config: Dict[str, Any], logits: np.ndarray, alpha_x: float) -> Tuple[str, float, float, float, float]:
    """One Table IV row: ``(design, area, delay, adp, mae)``.

    ``{"kind": "fsm", "bsl": b}`` is the FSM baseline; ``{"kind": "ours",
    "by": by}`` the iterative circuit.  ``alpha_x`` is calibrated once by
    the caller so every row shares the table's calibration.
    """
    from repro.blocks import build

    if config["kind"] == "fsm":
        bsl = int(config["bsl"])
        block = build("softmax/fsm", m=logits.shape[-1], bitstream_length=bsl, seed=bsl)
        label = f"FSM [17] {bsl}b BSL"
    elif config["kind"] == "ours":
        by = int(config["by"])
        block = build("softmax/iterative", spec=table4_circuit(by, alpha_x))
        label = f"Ours By={by}"
    else:
        raise ValueError(f"unknown Table IV config kind: {config['kind']!r}")
    cost = block.hardware_summary()
    mae = block.mean_absolute_error(logits)
    return (label, float(cost["area_um2"]), float(cost["delay_ns"]), float(cost["adp"]), float(mae))


def table4_rows(logits: np.ndarray, reporter: Optional[Any] = None) -> List[Tuple[str, float, float, float, float]]:
    """The Table IV rows (``m = 64`` logit rows), in grid order."""
    logits = np.asarray(logits, dtype=float)
    alpha_x = calibrate_alpha_x(logits, bx=4)  # sc_vit_softmax's Bx
    configs = table4_configs()
    return [table4_row(config, logits, alpha_x) for config in (configs if reporter is None else reporter.track(configs))]
