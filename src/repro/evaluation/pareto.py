"""Pareto-front extraction for the design-space exploration of Fig. 8.

Every design point is a (cost, error) pair — area-delay product and MAE for
the softmax block.  A point is Pareto-optimal when no other point is at
least as good on both axes and strictly better on one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def pareto_front(costs: Sequence[float], errors: Sequence[float]) -> np.ndarray:
    """Boolean mask of Pareto-optimal points (both axes minimised).

    Ties are handled conservatively: of several identical points, all are
    kept (they are mutually non-dominating).
    """
    costs = np.asarray(costs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if costs.shape != errors.shape or costs.ndim != 1:
        raise ValueError("costs and errors must be 1-D arrays of equal length")
    n = costs.size
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        dominates_i = (
            (costs <= costs[i])
            & (errors <= errors[i])
            & ((costs < costs[i]) | (errors < errors[i]))
        )
        if dominates_i.any():
            mask[i] = False
    return mask

