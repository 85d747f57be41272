"""Content digests: canonical JSON, array digests and model-weight digests.

Golden tests, engine fingerprints, workload digests and the benchmark's
prediction digests all name a result by what it contains, through these
three functions.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

import numpy as np

__all__ = ["array_digest", "canonical_json", "weights_digest"]


def _plain(obj: Any) -> Any:
    """Convert numpy scalars/arrays and mappings into plain JSON-able types."""
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def canonical_json(obj: Any) -> str:
    """Deterministic JSON used for content identities.

    Sorted keys and no whitespace make the serialisation canonical; floats
    serialise via ``repr`` which round-trips exactly, so two configs hash
    equal iff their values are bit-identical.
    """
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))


def array_digest(*arrays: np.ndarray) -> str:
    """Short content digest of one or more arrays (dtype + shape + bytes)."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str(array.dtype).encode())
        h.update(str(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def weights_digest(model: Any) -> str:
    """:func:`array_digest` of a model's ``state_dict``, in sorted key order."""
    state = model.state_dict()
    return array_digest(*(state[key] for key in sorted(state)))
