"""Reverse-mode automatic differentiation over numpy arrays.

PyTorch is not available offline, so the training side of the reproduction
(LSQ quantisation, knowledge distillation, progressive quantisation,
approximate-softmax-aware fine-tuning) runs on this small engine.  It
follows the familiar define-by-run design:

* a :class:`Tensor` wraps a numpy array, remembers the operation that
  produced it and the parent tensors,
* every differentiable operation records a backward closure that maps the
  output gradient to parent gradients,
* :meth:`Tensor.backward` topologically sorts the recorded graph and runs
  the closures in reverse order.

Only the operations the ViT/LSQ stack actually needs are implemented, but
each handles full numpy broadcasting so the layer code stays natural.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import erf as _erf

ArrayLike = Union[np.ndarray, float, int, Sequence]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference / statistics)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """True when operations currently record the autograd graph."""
    return _GRAD_ENABLED


_BATCH_INVARIANT_MATMUL = False

#: Memoised outcome of the stacked-GEMM self-check: ``"stacked"`` or ``"einsum"``.
_FORMULATION: Optional[str] = None
_FORMULATION_LOCK = threading.Lock()

#: Images per 2-D GEMM on the flat path; every chunk size up to it is checked.
_FLAT_IMAGES = 16
#: Memoised per-``(T, K, N)`` verdict of :func:`_flat_matmul_is_exact`.
_FLAT_SHAPES: Dict[Tuple[int, int, int], bool] = {}
_FLAT_LOCK = threading.Lock()


@contextlib.contextmanager
def batch_invariant_matmul():
    """Context manager making ``@`` results independent of batch shape.

    BLAS picks different kernels for different operand shapes (a ``(1, K)``
    row hits the gemv path, a ``(B, K)`` block hits gemm), and those kernels
    accumulate the ``K`` reduction in different orders — so the *same* logical
    row can round differently depending on how many rows ride along in the
    batch.  Inside this context every matmul gives each image a GEMM of a
    fixed, batch-independent shape, or runs a linear's rows as one 2-D GEMM
    where a per-shape check proved that bit-equal to it (see
    :func:`matmul_data`), so splitting a batch into chunks of any size
    produces bit-identical results.  The eval pipeline evaluates whole
    dataset splits under this mode so its cached accuracies never depend on
    ``batch_size``.

    The first entry runs a memoised self-check of that per-image
    formulation; should it ever fail (say, a numpy that folds a stack of
    matmuls into one GEMM), the mode falls back to ``np.einsum`` and logs
    one ``batch_invariant_matmul_fallback`` warning.
    """
    global _BATCH_INVARIANT_MATMUL
    _matmul_formulation()
    previous = _BATCH_INVARIANT_MATMUL
    _BATCH_INVARIANT_MATMUL = True
    try:
        yield
    finally:
        _BATCH_INVARIANT_MATMUL = previous


def _stacked_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked ``@`` with one GEMM per leading-index slice of fixed shape."""
    if a.ndim == 2 and b.ndim == 2:
        # A lone (1, K) row takes the gemv path and a (B, K) block gemm, so
        # every row is lifted to its own (1, K) matrix whatever the batch.
        return (a[:, None, :] @ b)[:, 0, :]
    return a @ b


def _einsum_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matmul whose per-element reduction order depends only on ``K``."""
    return np.einsum("...ij,...jk->...ik", a, b)


def _stacked_matmul_is_batch_invariant() -> bool:
    """Whether :func:`_stacked_matmul` gives each image the same bits in any batch.

    Probes the three operand kinds of the ViT forward at their real
    layouts — ``(B, T, K)`` activations against a transposed ``(N, K)``
    weight, ``(B, H, T, d)`` heads against a ``swapaxes`` view of a fused
    qkv tensor (attention scores), and the ``(B, K)`` classifier head — and
    compares single-image and chunked results against the full batch.
    """
    rng = np.random.default_rng(0)
    batch, tokens, dim, heads = 11, 17, 64, 4
    weight = rng.standard_normal((48, dim))
    x = rng.standard_normal((batch, tokens, dim))
    qkv = rng.standard_normal((batch, tokens, 3, heads, dim // heads)).transpose(2, 0, 3, 1, 4)
    cases = (
        (x, weight.swapaxes(-1, -2)),
        (qkv[0], qkv[1].swapaxes(-1, -2)),
        (x[:, 0], weight.swapaxes(-1, -2)),
    )
    for a, b in cases:
        full = _stacked_matmul(a, b)
        for size in (1, 4):
            parts = [
                _stacked_matmul(a[i : i + size], b[i : i + size] if b.ndim > 2 else b)
                for i in range(0, batch, size)
            ]
            if not np.array_equal(np.concatenate(parts), full):
                return False
    return True


def _matmul_formulation() -> str:
    """The formulation batch-invariant mode uses in this process (memoised).

    ``"stacked"`` when the self-check passes, ``"einsum"`` otherwise.  The
    two may differ by an ulp, so prediction cache keys fold this in.
    """
    global _FORMULATION
    with _FORMULATION_LOCK:  # serving threads enter the mode concurrently
        if _FORMULATION is None:
            if _stacked_matmul_is_batch_invariant():
                _FORMULATION = "stacked"
            else:
                from repro.telemetry.logging import get_logger

                get_logger("nn").warning(
                    "batch_invariant_matmul_fallback",
                    formulation="einsum",
                    reason="stacked matmul is not batch-invariant under this numpy/BLAS",
                )
                _FORMULATION = "einsum"
        return _FORMULATION


def _flat_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(B, T, K) @ (K, N)`` as one 2-D GEMM per chunk of ``_FLAT_IMAGES`` images."""
    batch, tokens, k = a.shape
    n = b.shape[1]
    out = np.empty((batch, tokens, n))
    for start in range(0, batch, _FLAT_IMAGES):
        stop = min(start + _FLAT_IMAGES, batch)
        rows = (stop - start) * tokens
        np.matmul(a[start:stop].reshape(rows, k), b, out=out[start:stop].reshape(rows, n))
    return out


def _flat_matmul_is_exact(tokens: int, k: int, n: int) -> bool:
    """Whether :func:`_flat_matmul` gives every image the bits of :func:`_stacked_matmul`.

    Runs each chunk size ``1.._FLAT_IMAGES`` through the flat path at the
    layout it accepts and compares its rows with the stacked per-image
    GEMMs, stopping at the first mismatch.  BLAS picks its kernels by
    shape alone, so random operands suffice.
    """
    rng = np.random.default_rng(0)
    a = rng.random((_FLAT_IMAGES, tokens, k))
    b = rng.random((n, k)).T
    stacked = _stacked_matmul(a, b)
    return all(
        np.array_equal(_flat_matmul(a[:size], b), stacked[:size])
        for size in range(1, _FLAT_IMAGES + 1)
    )


def _flat_applies(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a @ b`` is a linear's layout whose shape passed the flat check (memoised)."""
    if not (a.ndim == 3 and b.ndim == 2 and a.flags.c_contiguous and b.flags.f_contiguous):
        return False
    key = (a.shape[1], a.shape[2], b.shape[1])
    verdict = _FLAT_SHAPES.get(key)
    if verdict is None:
        with _FLAT_LOCK:  # serving threads enter the mode concurrently
            verdict = _FLAT_SHAPES.get(key)
            if verdict is None:
                verdict = _FLAT_SHAPES[key] = _flat_matmul_is_exact(*key)
    return verdict


def matmul_data(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, batch-invariant when :func:`batch_invariant_matmul` is on.

    In that mode operands with three or more dims run as stacked ``@``:
    numpy issues one GEMM per leading-index slice, so each image always
    sees the same kernel and reduction order.  A 2-D ``(B, K) @ (K, N)``
    runs as ``B`` stacked ``(1, K)`` rows.  If the startup self-check found
    this unsafe, ``np.einsum`` is used instead.

    A linear's ``(B, T, K)`` C-contiguous activation times the ``.T`` view
    of a C-contiguous ``(N, K)`` weight instead runs as one 2-D GEMM per
    chunk of up to ``_FLAT_IMAGES`` images, but only for a ``(T, K, N)``
    whose memoised check found every chunk size bit-equal to the stacked
    GEMMs.  It yields the stacked result, so the formulation stays
    ``"stacked"`` and cache keys do not change.
    """
    if _BATCH_INVARIANT_MATMUL and a.ndim >= 2 and b.ndim >= 2:
        if _FORMULATION == "stacked":
            if _flat_applies(a, b):
                return _flat_matmul(a, b)
            return _stacked_matmul(a, b)
        return _einsum_matmul(a, b)
    return a @ b


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self.name = name
        self._parents = _parents if self.requires_grad or any(p.requires_grad for p in _parents) else ()
        self._backward = _backward

    # ------------------------------------------------------------ properties
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """The scalar value of a 0-d / single-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def __array__(self, dtype=None) -> np.ndarray:
        return self.data.astype(dtype) if dtype is not None else self.data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    # --------------------------------------------------------- graph plumbing
    @staticmethod
    def _coerce(other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def _needs_graph(self, *others: "Tensor") -> bool:
        return _GRAD_ENABLED and (
            self.requires_grad or any(o.requires_grad for o in others)
        )

    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = cls(data)
        out.requires_grad = requires
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        topo: List[Tensor] = []
        visited = set()

        def visit(node: "Tensor") -> None:
            if id(node) in visited:
                return
            visited.add(id(node))
            for parent in node._parents:
                visit(parent)
            topo.append(node)

        visit(self)
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return self._from_op(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return self._from_op(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return self._from_op(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data**2))

        return self._from_op(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._from_op(data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = matmul_data(self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    grad_self = np.expand_dims(grad, -1) * other.data
                else:
                    grad_self = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(grad_self, self.data.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    grad_other = np.expand_dims(self.data, -1) * np.expand_dims(grad, -2)
                else:
                    grad_other = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(grad_other, other.data.shape))

        return self._from_op(data, (self, other), backward)

    # ------------------------------------------------------------ reductions
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return self._from_op(data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        centred = self - self.mean(axis=axis, keepdims=True)
        return (centred * centred).mean(axis=axis, keepdims=keepdims)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad if keepdims else np.expand_dims(grad, axis)
            maxima = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == maxima).astype(np.float64)
            mask /= mask.sum(axis=axis, keepdims=True)
            self._accumulate(mask * g)

        return self._from_op(data, (self,), backward)

    # ------------------------------------------------------- shape operations
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.data.shape))

        return self._from_op(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return self._from_op(data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return self._from_op(data, (self,), backward)

    # ------------------------------------------------------------ elementwise
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data)

        return self._from_op(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._from_op(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / np.maximum(data, 1e-12))

        return self._from_op(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data**2))

        return self._from_op(data, (self,), backward)

    def erf(self) -> "Tensor":
        data = _erf(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 2.0 / np.sqrt(np.pi) * np.exp(-self.data**2))

        return self._from_op(data, (self,), backward)

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (self.data > 0))

        return self._from_op(data, (self,), backward)

    def clamp(self, lo: float, hi: float) -> "Tensor":
        """Clamp with zero gradient outside the interval (hard clipping)."""
        data = np.clip(self.data, lo, hi)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                inside = (self.data >= lo) & (self.data <= hi)
                self._accumulate(grad * inside)

        return self._from_op(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return self._from_op(data, (self,), backward)

    # --------------------------------------------------------------- helpers
    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._coerce(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    index = [slice(None)] * grad.ndim
                    index[axis] = slice(start, stop)
                    tensor._accumulate(grad[tuple(index)])

        return Tensor._from_op(data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._coerce(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            slices = np.moveaxis(grad, axis, 0)
            for tensor, piece in zip(tensors, slices):
                if tensor.requires_grad:
                    tensor._accumulate(piece)

        return Tensor._from_op(data, tuple(tensors), backward)

    @staticmethod
    def custom(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Escape hatch for custom primitives (used by the LSQ quantisers).

        ``backward`` receives the output gradient and must call
        ``parent._accumulate`` itself for every parent that requires grad.
        """
        return Tensor._from_op(np.asarray(data, dtype=np.float64), parents, backward)


def parameter(data: ArrayLike, name: Optional[str] = None) -> Tensor:
    """A trainable tensor (requires_grad=True)."""
    return Tensor(data, requires_grad=True, name=name)
