"""Idempotent per-request result cache for the inference service.

Serving the same image twice must not cost two forwards: predictions are a
pure function of ``(weights, image, circuit config, fault seed, image
index)`` — see :meth:`repro.eval_pipeline.ScViTEvalPipeline.predict_batch`
— so a prediction can be content-addressed exactly like a sweep result.
Keys come from the same :func:`repro.runner.cache.cache_key` scheme the
sweep orchestrator uses: SHA-256 over canonical JSON of ``{task, config,
version, code}``, where

* ``config`` is the digest of the image bytes plus (only when fault
  injection is on) the per-request image index — fault masks are seeded per
  index, so the same pixels at a different index legitimately differ,
* ``version`` is the engine fingerprint (weights digest + circuit config +
  fault settings), so swapping the model or circuit invalidates everything,
* ``code`` is the usual source fingerprint.

The cache is an in-memory LRU, optionally write-through to a
:class:`repro.runner.cache.ResultCache` directory so a restarted server
starts warm and CLI/benchmark runs can share entries across processes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional

import numpy as np

from repro.runner.cache import ResultCache, array_digest, cache_key

__all__ = ["PredictionCache", "request_fingerprint"]

#: Task label mixed into every request key (namespaces serve entries apart
#: from sweep entries that may share a ResultCache directory).
REQUEST_TASK = "serve/predict"


def request_fingerprint(
    image: np.ndarray,
    engine_version: str,
    image_index: Optional[int] = None,
    code_version: str = "",
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
    return cache_key(REQUEST_TASK, config, version=engine_version, code_version=code_version)


class PredictionCache:
    """Bounded in-memory LRU of predictions, optionally disk-backed.

    Parameters
    ----------
    backing:
        Optional :class:`ResultCache`; hits are promoted to memory, stores
        are written through, so a restarted service resumes warm.
    max_entries:
        In-memory LRU capacity (oldest entries evicted first).
    """

    def __init__(self, backing: Optional[ResultCache] = None, max_entries: int = 65536) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.backing = backing
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
        if self.backing is not None:
            hit = self.backing.load(key)
            if hit is not None and isinstance(hit.payload, dict) and "prediction" in hit.payload:
                prediction = int(hit.payload["prediction"])
                self._remember(key, prediction)
                self.hits += 1
                return prediction
        self.misses += 1
        return None

    def put(self, key: str, prediction: int) -> None:
        """Store one prediction (write-through when disk-backed)."""
        self._remember(key, int(prediction))
        self.stores += 1
        if self.backing is not None:
            self.backing.store(key, {"prediction": int(prediction)})

    def counters(self) -> Dict[str, int]:
        """Hit/miss/store totals since construction (JSON-able)."""
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}

    def clear(self, drop_backing: bool = False) -> None:
        """Forget every in-memory entry; optionally detach the disk backing.

        ``drop_backing=True`` is the scenario layer's ``cache_loss``
        degradation: the cache behaves as if its disk vanished — it
        detaches the :class:`ResultCache` handle rather than deleting the
        directory (which other processes may share).
        """
        self._memory.clear()
        if drop_backing:
            self.backing = None

    def _remember(self, key: str, prediction: int) -> None:
        self._memory[key] = prediction
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)

    # ResultCache.store takes a digest directly, so `key` strings from
    # request_fingerprint address both layers without translation.
    def __contains__(self, key: Any) -> bool:
        return key in self._memory or (self.backing is not None and key in self.backing)
