"""Small shared utilities used across the ASCEND reproduction.

The package intentionally stays small: deterministic random-number handling,
argument validation helpers, the JSON codec every spec file shares
(:mod:`repro.utils.specs`) and a couple of generic numeric helpers that do
not belong to any specific subsystem.
"""

from repro.utils.rng import as_generator
from repro.utils.validation import check_in_choices, check_positive_int
from repro.utils.numeric import clamp, round_half_away_from_zero
from repro.utils.specs import Spec, load_file

__all__ = [
    "Spec",
    "as_generator",
    "check_in_choices",
    "check_positive_int",
    "clamp",
    "load_file",
    "round_half_away_from_zero",
]
