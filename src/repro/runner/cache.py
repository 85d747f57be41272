"""Content-addressed on-disk result cache for sweep orchestration.

The paper's headline experiments are embarrassingly parallel sweeps over
config grids (2916 softmax design points per input BSL, the GELU BSL/degree
sweep, the accelerator study).  Re-running a sweep after an interruption —
or re-running the same sweep from a different entry point (bench script,
CLI, notebook) — should not re-evaluate circuits whose results are already
known.  This module provides that reuse:

* every result is stored under a SHA-256 digest of its *cache key* — the
  canonical JSON of ``{task, config, version, code}`` where ``code`` is a
  fingerprint of the source files the evaluation depends on, so editing the
  circuit models automatically invalidates stale entries,
* payloads are JSON files (exact float round-trip via ``repr``); results
  that carry numpy arrays store them in an ``.npz`` sidecar next to the
  JSON, and
* writes go through a temp file + :func:`os.replace` so a crash mid-store
  never leaves a truncated entry — an interrupted sweep resumes from every
  fully stored result and recomputes only the rest.

The cache layout is ``<root>/<digest[:2]>/<digest>.json`` (two-level fanout
keeps directories small for full-grid sweeps).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Any, Dict, Iterator, Mapping, Optional, Union

import numpy as np

__all__ = [
    "CachedResult",
    "ResultCache",
    "array_digest",
    "cache_key",
    "canonical_json",
    "code_fingerprint",
    "default_code_version",
    "weights_digest",
]


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
    """Deterministic JSON used for cache keys.

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


def _module_files(module: ModuleType) -> Iterator[Path]:
    """Yield the source files a module (or package, recursively) consists of."""
    path = getattr(module, "__file__", None)
    if path is None:  # namespace package or builtin: nothing hashable
        return
    path = Path(path)
    if path.name == "__init__.py":
        yield from sorted(path.parent.rglob("*.py"))
    else:
        yield path


def code_fingerprint(*modules: ModuleType) -> str:
    """Fingerprint of the source files behind ``modules`` (packages recurse).

    Used as the ``code`` component of cache keys: any edit to the files a
    sweep's evaluation depends on changes the fingerprint and therefore
    invalidates every cached result computed with the old code.
    """
    h = hashlib.sha256()
    for module in modules:
        for file in _module_files(module):
            h.update(file.name.encode())
            h.update(file.read_bytes())
    return h.hexdigest()[:16]


def cache_key(task_name: str, config_key: Any, version: str = "", code_version: str = "") -> str:
    """SHA-256 digest of one ``(task, config, version, code)`` identity.

    The content-addressing scheme shared by every cache in the repo:
    :class:`ResultCache` keys sweep results with it, and
    :mod:`repro.serve` keys per-request predictions with it, so "same
    inputs, same code" means "same digest" everywhere.
    """
    material = canonical_json(
        {
            "task": task_name,
            "config": config_key,
            "version": version,
            "code": code_version,
        }
    )
    return hashlib.sha256(material.encode()).hexdigest()


def default_code_version() -> str:
    """Fingerprint of the whole ``repro`` package (conservative: any change
    to the library invalidates the cache, which is always safe)."""
    import repro

    return code_fingerprint(repro)


@dataclass
class CachedResult:
    """One cache entry: a JSON payload plus optional numpy arrays."""

    payload: Any
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)


class ResultCache:
    """Content-addressed result store on disk.

    Parameters
    ----------
    root:
        Cache directory (created on first store).
    code_version:
        Version token mixed into every key; defaults to a fingerprint of
        the ``repro`` package source.  Pass an explicit string to pin or
        deliberately segregate cache generations.
    """

    def __init__(self, root: Union[str, Path], code_version: Optional[str] = None) -> None:
        self.root = Path(root)
        self.code_version = default_code_version() if code_version is None else str(code_version)
        # Plain-int hit/miss/store accounting for run summaries and /metrics;
        # observational only (never part of any key or payload).
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------ keys
    def key(self, task_name: str, config_key: Any, version: str = "") -> str:
        """SHA-256 digest addressing one (task, config) result."""
        return cache_key(task_name, config_key, version, self.code_version)

    def _json_path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def _npz_path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.npz"

    # -------------------------------------------------------------- load/store
    def load(self, digest: str) -> Optional[CachedResult]:
        """Return the stored result for ``digest``, or ``None`` on a miss.

        Unreadable/truncated entries (e.g. from a crash on a filesystem
        without atomic rename) count as misses rather than errors, so a
        damaged cache degrades to recomputation instead of failing a sweep.
        """
        path = self._json_path(digest)
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(document, dict) or "payload" not in document:
            self.misses += 1
            return None  # foreign or stale-format file: treat as a miss
        arrays: Dict[str, np.ndarray] = {}
        if document.get("has_arrays"):
            try:
                with np.load(self._npz_path(digest)) as npz:
                    arrays = {name: npz[name] for name in npz.files}
            except (OSError, ValueError):
                self.misses += 1
                return None
        self.hits += 1
        return CachedResult(payload=document["payload"], arrays=arrays)

    def store(self, digest: str, payload: Any, arrays: Optional[Mapping[str, np.ndarray]] = None) -> None:
        """Persist ``payload`` (JSON) and optional ``arrays`` (NPZ) atomically."""
        json_path = self._json_path(digest)
        json_path.parent.mkdir(parents=True, exist_ok=True)
        if arrays:
            npz_path = self._npz_path(digest)
            fd, tmp = tempfile.mkstemp(dir=str(npz_path.parent), suffix=".npz.tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    np.savez(handle, **{str(k): np.asarray(v) for k, v in arrays.items()})
                os.replace(tmp, npz_path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        document = {"payload": _plain(payload), "has_arrays": bool(arrays)}
        fd, tmp = tempfile.mkstemp(dir=str(json_path.parent), suffix=".json.tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(document, handle)
            os.replace(tmp, json_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.stores += 1

    def counters(self) -> Dict[str, int]:
        """Hit/miss/store totals since construction (JSON-able)."""
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}

    # ------------------------------------------------------------------ misc
    def __contains__(self, digest: str) -> bool:
        return self._json_path(digest).exists()

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number of JSON entries removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.glob("*/*"):
            if path.suffix == ".json":
                removed += 1
            path.unlink()
        return removed
