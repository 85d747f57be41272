"""Per-layer ledger: self time and work counts at each layer's entry point.

The traced run wraps public entry points of the model, circuit, fault and
serving layers (classes, or module functions) with :class:`LayerClock`
spans.  A span's *self time* is its duration minus the time covered by
spans opened inside it on the same thread, so the self times of nested
layers add up to the root's wall time without double counting.

Wrapping is undone on exit of :meth:`LayerClock.patched`; untraced runs
never install it.  An entry point that no longer exists raises, so a
renamed layer cannot silently read zero while its time goes unexplained.
"""

from __future__ import annotations

import contextlib
import math
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# One entry point to wrap: (owner class or module, attribute name, layer
# label, optional work counter called with the call's result and arguments).
EntryPoint = Tuple[Any, str, str, Optional[Callable[..., float]]]


class LayerClock:
    """Thread-safe self-time and work accumulator keyed by layer label."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.work: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, label: str, fn: Callable, counter: Optional[Callable[..., float]] = None) -> Callable:
        """``fn`` wrapped in a span named ``label``."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            stack.append(0.0)  # time covered by child spans
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                work = counter(result, *args, **kwargs) if counter is not None else 0.0
                with self._lock:
                    self.self_s[label] += duration - children
                    self.total_s[label] += duration
                    self.calls[label] += 1
                    self.work[label] += work

        return wrapper

    def counted(self, label: str, fn: Callable) -> Callable:
        """``fn`` with a call counter and no span (for very hot callees)."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self._lock:
                self.calls[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def patched(self, entry_points: List[EntryPoint], counted: List[Tuple[Any, str, str]] = ()) -> Iterator["LayerClock"]:
        """Install the wrappers for the duration of the block."""
        restore = []
        try:
            for owner, name, label, counter in entry_points:
                self._patch(owner, name, lambda fn, label=label, counter=counter: self.timed(label, fn, counter), restore)
            for owner, name, label in counted:
                self._patch(owner, name, lambda fn, label=label: self.counted(label, fn), restore)
            yield self
        finally:
            for owner, name, raw in reversed(restore):
                setattr(owner, name, raw)

    @staticmethod
    def _patch(owner: Any, name: str, make: Callable[[Callable], Callable], restore: list) -> None:
        raw = vars(owner).get(name)
        if raw is None:
            raise AttributeError(f"ledger entry point {getattr(owner, '__name__', owner)}.{name} does not exist")
        wrapped = classmethod(make(raw.__func__)) if isinstance(raw, classmethod) else make(raw)
        setattr(owner, name, wrapped)
        restore.append((owner, name, raw))

    def ms(self, label: str) -> float:
        return self.self_s.get(label, 0.0) * 1e3


def model_entry_points() -> List[EntryPoint]:
    """Span every model, circuit and fault layer of the SC-patched ViT.

    Only leaves are spanned under the model's ``forward``: the encoder and
    MLP blocks are not, so glue inside them that no layer explains stays
    uncovered and lowers ``trace.coverage_share``.  ``nn.other`` is the
    patch embedding (minus its projection) and the residual quantizers;
    the head is a ``QuantizedLinear`` and books to ``nn.linear``.  Circuit
    classes come from the block registry, the families every pipeline
    replica builds its softmax and GELU from.
    """
    from repro import blocks
    from repro.eval_pipeline.faults import BitFlipFaultModel
    from repro.nn.attention import MultiHeadSelfAttention
    from repro.nn.layers import BatchNorm
    from repro.nn.quantization import QuantizedLinear, ResidualQuantizer
    from repro.nn.vit import CompactVisionTransformer, PatchEmbedding

    gelu = blocks.get("gelu/si").load()
    return [
        (CompactVisionTransformer, "forward", "forward", None),
        (PatchEmbedding, "forward", "nn.other", None),
        (ResidualQuantizer, "forward", "nn.other", None),
        (QuantizedLinear, "forward", "nn.linear", None),
        (MultiHeadSelfAttention, "forward", "nn.attention", None),
        (BatchNorm, "forward", "nn.norm", None),
        (blocks.get("softmax/iterative").load(), "forward", "blocks.softmax", _rows),
        (gelu, "evaluate", "blocks.gelu", _elements),
        (gelu, "process", "blocks.gelu", _stream_elements),
        (BitFlipFaultModel, "perturb_counts", "eval_pipeline.faults", None),
    ]


def model_counted() -> List[Tuple[Any, str, str]]:
    from repro.sc.packed import PackedBitPlane

    return [(PackedBitPlane, "random", "eval_pipeline.faults.mask_draws")]


def _rows(result: Any, self: Any, x: Any, *args: Any, **kwargs: Any) -> float:
    return float(math.prod(getattr(x, "shape", (1,))[:-1]))


def _elements(result: Any, self: Any, values: Any, *args: Any, **kwargs: Any) -> float:
    return float(getattr(values, "size", 0))


def _stream_elements(result: Any, self: Any, stream: Any, *args: Any, **kwargs: Any) -> float:
    return float(getattr(getattr(stream, "counts", None), "size", 0))


def serve_entry_points() -> List[EntryPoint]:
    """Span the parent-side frame codec of the sharded engine."""
    from repro.serve import sharded

    return [
        (sharded, "pack_frame", "serve.codec", lambda result, *a, **k: float(len(result or b""))),
        (sharded, "unpack_frame", "serve.codec", lambda result, blob, *a, **k: float(len(blob))),
    ]


def model_layer_metrics(clock: LayerClock, images: int, batches: int, kernel_rows: List[Dict]) -> Dict[str, float]:
    """The model/circuit/fault/kernel rows of the per-layer table."""
    per_img = 1.0 / max(1, images)
    per_batch = 1.0 / max(1, batches)
    forward_s = clock.total_s.get("forward", 0.0)
    covered_s = forward_s - clock.self_s.get("forward", 0.0)
    return {
        "nn.linear.ms_per_img": clock.ms("nn.linear") * per_img,
        "nn.attention.ms_per_img": clock.ms("nn.attention") * per_img,
        "nn.norm.ms_per_img": clock.ms("nn.norm") * per_img,
        "nn.other.ms_per_img": clock.ms("nn.other") * per_img,
        "blocks.softmax.ms_per_img": clock.ms("blocks.softmax") * per_img,
        "blocks.softmax.rows_per_batch": clock.work.get("blocks.softmax", 0.0) * per_batch,
        "blocks.gelu.ms_per_img": clock.ms("blocks.gelu") * per_img,
        "blocks.gelu.elements_per_batch": clock.work.get("blocks.gelu", 0.0) * per_batch,
        "eval_pipeline.faults.ms_per_img": clock.ms("eval_pipeline.faults") * per_img,
        "eval_pipeline.faults.sites_per_batch": clock.calls.get("eval_pipeline.faults", 0) * per_batch,
        "eval_pipeline.faults.mask_draws_per_batch": clock.calls.get("eval_pipeline.faults.mask_draws", 0)
        * per_batch,
        "sc.kernel.calls_per_batch": sum(row["calls"] for row in kernel_rows) * per_batch,
        "sc.kernel.ms_per_batch": sum(row["seconds"] for row in kernel_rows) * 1e3 * per_batch,
        "trace.coverage_share": covered_s / forward_s if forward_s > 0 else 0.0,
    }


def layer_table(clock: LayerClock, images: int) -> List[str]:
    """Self-time table, heaviest layer first; shares are of the forward's wall time.

    Serving layers run outside the forward, so they get no share.
    """
    forward_s = clock.total_s.get("forward", 0.0)
    rows = sorted(clock.self_s.items(), key=lambda row: (row[0] == "forward", -row[1]))
    lines = [f"{'layer':<24}{'self ms/img':>12}{'of fwd':>8}{'calls':>9}"]
    for label, seconds in rows:
        inside = forward_s > 0 and not label.startswith("serve.")
        share = f"{seconds / forward_s:>8.1%}" if inside else f"{'-':>8}"
        name = "(forward, unspanned)" if label == "forward" else label
        lines.append(f"{name:<24}{seconds * 1e3 / max(1, images):>12.4f}{share}{clock.calls[label]:>9}")
    return lines
