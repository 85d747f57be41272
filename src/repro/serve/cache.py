"""Idempotent per-request result cache for the inference service.

Serving the same image twice must not cost two forwards: predictions are a
pure function of ``(weights, image, circuit config, fault seed, image
index)`` — see :meth:`repro.eval_pipeline.ScViTEvalPipeline.predict_batch`
— so a prediction is content-addressed by a SHA-256 over canonical JSON of
``{config, version}``, where

* ``config`` is the digest of the image bytes plus (only when fault
  injection is on) the per-request image index — fault masks are seeded per
  index, so the same pixels at a different index legitimately differ,
* ``version`` is the engine fingerprint (weights digest + circuit config +
  fault settings), so swapping the model or circuit invalidates everything.

The cache is an in-memory LRU that lives and dies with its service, so it
can never outlive the code that filled it.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Dict, Optional

import numpy as np

from repro.utils.digests import array_digest, canonical_json

__all__ = ["PredictionCache", "request_fingerprint"]


def request_fingerprint(
    image: np.ndarray,
    engine_version: str,
    image_index: Optional[int] = None,
) -> str:
    """Content-addressed identity of one prediction request.

    ``image_index`` must be passed iff fault injection is enabled: with
    faults off the prediction depends on the pixels alone (duplicate
    submissions collapse onto one entry); with faults on the per-index mask
    is part of the answer's identity.
    """
    config = {"image": array_digest(np.ascontiguousarray(image))}
    if image_index is not None:
        config["index"] = int(image_index)
    material = canonical_json({"config": config, "version": engine_version})
    return hashlib.sha256(material.encode()).hexdigest()


class PredictionCache:
    """Bounded in-memory LRU of predictions.

    Parameters
    ----------
    max_entries:
        LRU capacity (oldest entries evicted first).
    """

    def __init__(self, max_entries: int = 65536) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self._memory: "OrderedDict[str, int]" = OrderedDict()
        # Plain-int accounting (not gated on telemetry: always cheap, and the
        # run/scenario summaries report them whether or not tracing is on).
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def __len__(self) -> int:
        return len(self._memory)

    def get(self, key: str) -> Optional[int]:
        """The cached prediction for ``key``, or ``None`` on a miss."""
        if key in self._memory:
            self._memory.move_to_end(key)
            self.hits += 1
            return self._memory[key]
        self.misses += 1
        return None

    def put(self, key: str, prediction: int) -> None:
        """Store one prediction."""
        self._memory[key] = int(prediction)
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
        self.stores += 1

    def counters(self) -> Dict[str, int]:
        """Hit/miss/store totals since construction (JSON-able)."""
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}

    def clear(self) -> None:
        """Forget every entry (the scenario layer's ``cache_loss`` degradation)."""
        self._memory.clear()

    def __contains__(self, key: Any) -> bool:
        return key in self._memory
