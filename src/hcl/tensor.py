"""Dense float64 tensors with reverse-mode automatic differentiation.

Define-by-run: every operation records its inputs and a backward closure
on the output tensor, so the tape is rebuilt from scratch each step.
`backward()` consumes it: each node drops its closure and its parents
once its gradient has been passed on, so a node nobody else holds is
freed there, with its gradient and saved buffers.  Gradients are
accumulated in deterministic tape order, which makes repeated runs
bitwise identical.

Supported operation kinds: matmul, add, scalar multiply, elementwise
multiply, relu, exp, mean, sum, concat, L2-normalize, reshape, transpose,
2-D convolution, 2-D average pooling, softmax cross-entropy with logits.

No-tape mode: inside `with no_tape():` every op still computes and
passes `_make`'s checks, but the result records no parents, no backward
closure and `requires_grad=False`.  Forward-only passes (MoCo's key encoder,
stop-gradient targets, feature extraction) use it, so each op's working
buffers (conv2d's `colsT` and padded input, earlier activations) are
freed as soon as the next op has read them rather than when the pass
returns.  `backward()` on such an output raises the empty-tape error.

Finiteness invariant: every op builds its output through `_make`, which
rejects NaN or Inf first in each parent that is a leaf (`_kind` "leaf",
role "input"), then in the output, with or without a tape.  Op outputs
are never re-checked as inputs: they are never mutated after creation,
and the only in-place writes go to Parameters, which are leaves.  Each
array is therefore scanned once, and a non-finite value is reported by
the op that produced it.  The leaf check runs after the op has computed,
so when an input is wrong in two ways at once the op's own error (a
shape mismatch, l2_normalize's zero row, scalar_multiply's non-finite
scalar) wins over the leaf's `NonFiniteError`, and numpy may emit a
RuntimeWarning before that error.

Memory: a training step's live set peaks at the end of forward, when
every activation and saved im2col matrix is held; backward then frees
them layer by layer as it walks back, so it adds little on top of that
peak and leaves only the parameters' gradients and whatever the caller
still holds.  Importing this module on glibc raises malloc's mmap and
trim thresholds (`mallopt`) for the whole process, so the multi-MB
arrays a step frees stay in the heap and are reused by the next step
instead of being unmapped and faulted in again as fresh zeroed pages.
Other libcs are left alone.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from typing import Sequence

import numpy as np

# glibc <malloc.h> parameter numbers.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# glibc caps the mmap threshold at 32 MiB on 64-bit builds; the largest
# per-step array at the desk config (conv2d's layer-1 `colsT`) is ~19 MB.
_MMAP_THRESHOLD = 32 * 1024 * 1024
_TRIM_THRESHOLD = 256 * 1024 * 1024


def _retain_heap() -> None:
    """Keep freed multi-MB arrays in the malloc heap (glibc only)."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success; lift the trim threshold only once
    # large blocks are known to come from the heap.
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1:
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_retain_heap()

_tape = True


@contextmanager
def no_tape():
    """Run ops without recording them; outputs are constants.

    Nests, and restores the previous mode on exit, also on exceptions.
    The mode is process-wide, not per thread.
    """
    global _tape
    previous = _tape
    _tape = False
    try:
        yield
    finally:
        _tape = previous


class ShapeMismatchError(ValueError):
    """Input shapes do not conform to an operation's shape rule."""

    def __init__(self, kind: str, *shapes):
        super().__init__(f"{kind}: incompatible shapes {' vs '.join(str(tuple(s)) for s in shapes)}")


class NonFiniteError(ArithmeticError):
    """A tensor involved in an operation contains NaN or Inf."""

    def __init__(self, kind: str, role: str = "output"):
        super().__init__(f"{kind}: non-finite values in {role}")


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    # ascontiguousarray would promote 0-d scalars to shape (1,)
    return arr if arr.ndim == 0 else np.ascontiguousarray(arr)


def _check_finite(arr: np.ndarray, kind: str, role: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(kind, role)


class Tensor:
    """A float64 array node on the autodiff tape.

    `data` is always contiguous float64.  Tensors produced by operations
    keep references to their inputs (`_parents`) and a closure
    (`_backward`) that propagates `self.grad` to them.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_kind")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._kind = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, kind={self._kind})"

    # ---- graph plumbing ------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            # g + 0.0 has the bits of 0.0 + g, signed zeros included
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def zero_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad[...] = 0.0

    def backward(self) -> None:
        """Reverse-mode pass from a scalar loss; consumes the tape.

        Accumulates d(loss)/d(leaf) into `.grad` of every tensor with
        requires_grad=True that the loss depends on.  Visits each tape
        node exactly once, in deterministic order.  Once a node has passed
        its gradient on, it drops its backward closure and its parents but
        keeps `.grad`: a node only the tape held is freed then, with its
        saved buffers, while one the caller holds keeps its gradient.

        Raises ValueError, before touching any gradient, if the loss is not
        scalar, if it was not produced by any taped operation (empty tape),
        or if it or any node it reaches was already consumed by an earlier
        backward, which would otherwise count that node's gradient twice.
        """
        if self.size != 1:
            raise ValueError(f"backward: loss must be scalar, got shape {self.shape}")

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            # an op output that needs a gradient but has lost its parents
            if node.requires_grad and not node._parents and node._kind != "leaf":
                raise ValueError("backward: tape already consumed by an earlier backward")
            visited.add(id(node))
            stack.append((node, True))
            for parent in reversed(node._parents):
                if id(parent) not in visited:
                    stack.append((parent, False))
        # after the walk, so that a consumed loss is reported as consumed
        if not self._parents:
            raise ValueError("backward: empty tape (loss was not produced by any operation)")

        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node._backward = None
                node._parents = ()

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])


class Parameter(Tensor):
    """Trainable tensor: always carries an allocated gradient buffer."""

    __slots__ = ("name",)

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward, kind: str) -> Tensor:
    """The one gate every op passes: check leaf inputs, then the output,
    and build the node."""
    for p in parents:
        if p._kind == "leaf":
            _check_finite(p.data, kind, "input")
    _check_finite(data, kind, "output")
    out = Tensor(data)
    out._kind = kind
    if _tape:
        # parents stay on a no-grad output too, for tape-empty detection
        out._parents = parents
        out.requires_grad = any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---- elementwise and linear-algebra kinds -------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeMismatchError("add", a.shape, b.shape) from None

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return _make(data, (a, b), backward, "add")


def multiply(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeMismatchError("multiply", a.shape, b.shape) from None

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.shape))
        b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward, "multiply")


def scalar_multiply(a: Tensor, c: float) -> Tensor:
    c = float(c)
    if not np.isfinite(c):
        raise NonFiniteError("scalar_multiply", "scalar input")

    def backward(g):
        a._accumulate(g * c)

    return _make(a.data * c, (a,), backward, "scalar_multiply")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError("matmul", a.shape, b.shape)
    data = a.data @ b.data

    def backward(g):
        a._accumulate(g @ b.data.T)
        b._accumulate(a.data.T @ g)

    return _make(data, (a, b), backward, "matmul")


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def backward(g):
        a._accumulate(g * (a.data > 0.0))

    return _make(data, (a,), backward, "relu")


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * data)

    return _make(data, (a,), backward, "exp")


def mean(a: Tensor) -> Tensor:
    n = a.size

    def backward(g):
        a._accumulate(np.full_like(a.data, float(g) / n))

    return _make(np.asarray(a.data.mean()), (a,), backward, "mean")


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            a._accumulate(np.full_like(a.data, float(g)))
        else:
            gx = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(gx, a.shape).copy())

    return _make(np.asarray(data), (a,), backward, "sum")


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ValueError("concat: need at least one tensor")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeMismatchError("concat", *[t.shape for t in tensors]) from None
    ax = axis % data.ndim
    extents = [t.shape[ax] for t in tensors]
    offsets = np.cumsum([0] + extents)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * data.ndim
            idx[ax] = slice(lo, hi)
            t._accumulate(g[tuple(idx)])

    return _make(data, tensors, backward, "concat")


def l2_normalize(a: Tensor, axis: int = -1) -> Tensor:
    """Scale rows along `axis` to unit Euclidean norm.

    A zero vector cannot be normalized; that is an error rather than a
    silent epsilon result, because denormalized features would corrupt
    every similarity and uniformity diagnostic downstream.
    """
    norm = np.sqrt(np.sum(a.data * a.data, axis=axis, keepdims=True))
    if np.any(norm == 0.0):
        raise ValueError("l2_normalize: zero vector along normalization axis")
    unit = a.data / norm

    def backward(g):
        dot = np.sum(unit * g, axis=axis, keepdims=True)
        a._accumulate((g - unit * dot) / norm)

    return _make(unit, (a,), backward, "l2_normalize")


def reshape(a: Tensor, shape) -> Tensor:
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeMismatchError("reshape", a.shape, shape) from None

    def backward(g):
        a._accumulate(g.reshape(a.shape))

    return _make(data, (a,), backward, "reshape")


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeMismatchError("transpose", a.shape)

    def backward(g):
        a._accumulate(g.T)

    return _make(a.data.T, (a,), backward, "transpose")


# ---- convolution stack ---------------------------------------------------


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, *, padding: int = 0) -> Tensor:
    """Direct 2-D convolution (cross-correlation), NCHW layout.

    x: (N, C, H, W); w: (F, C, kh, kw); b: (F,) or None.  Windows are one
    pixel apart, so the output is (N, F, H+2p-kh+1, W+2p-kw+1).
    Implemented as one GEMM over a channel-major im2col matrix `colsT` of
    shape (C*kh*kw, N*Ho*Wo), filled by kh*kw block copies from a padded
    (C, N, H+2p, W+2p) buffer, so the product is already (F, N, Ho, Wo).
    Backward is two GEMMs plus a col2im of kh*kw block adds, in the same
    (i, j) order as a window-by-window scatter.  The GEMMs take their
    operands in the opposite roles to a row-major (N*Ho*Wo, C*kh*kw)
    im2col; blocked BLAS kernels round both the same, but small products
    that BLAS sends to size-specific kernels may differ in the last bit.
    """
    if x.data.ndim != 4 or w.data.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ShapeMismatchError("conv2d", x.shape, w.shape)
    if b is not None and b.shape != (w.shape[0],):
        raise ShapeMismatchError("conv2d bias", b.shape, (w.shape[0],))
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    p = int(padding)
    ho = h + 2 * p - kh + 1
    wo = wd + 2 * p - kw + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatchError("conv2d", x.shape, w.shape)

    xpT = np.zeros((c, n, h + 2 * p, wd + 2 * p))
    xpT[:, :, p : p + h, p : p + wd] = x.data.transpose(1, 0, 2, 3)
    colsT = np.empty((c, kh, kw, n, ho, wo))
    for i in range(kh):
        for j in range(kw):
            colsT[:, i, j] = xpT[:, :, i : i + ho, j : j + wo]
    colsT = colsT.reshape(c * kh * kw, n * ho * wo)
    wmat = w.data.reshape(f, -1)
    out = wmat @ colsT
    # one-shot: backward frees colsT before allocating gcolsT, its twin
    saved = [colsT]
    del colsT
    if b is not None:
        out += b.data[:, None]
    data = out.reshape(f, n, ho, wo).transpose(1, 0, 2, 3)

    def backward(g):
        # (N*Ho*Wo, F) rows keep the bias reduction in its row-by-row order
        gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, f)
        w._accumulate((saved.pop() @ gmat).T.reshape(w.shape))
        if b is not None:
            b._accumulate(gmat.sum(axis=0))
        if not x.requires_grad:
            return
        gcolsT = (wmat.T @ gmat.T).reshape(c, kh, kw, n, ho, wo)
        gxpT = np.zeros((c, n, h + 2 * p, wd + 2 * p))
        for i in range(kh):
            for j in range(kw):
                gxpT[:, :, i : i + ho, j : j + wo] += gcolsT[:, i, j]
        x._accumulate(gxpT[:, :, p : p + h, p : p + wd].transpose(1, 0, 2, 3))

    parents = (x, w) if b is None else (x, w, b)
    return _make(data, parents, backward, "conv2d")


def avg_pool2d(x: Tensor) -> Tensor:
    """Non-overlapping 2-by-2 average pooling; extents must be even.

    Each window sums as ((x00 + x01) + (x10 + x11)) / 4.  That is the
    order numpy's `mean` over the two window axes uses for widths above
    2, so values match it bitwise there; at width 2 numpy sums left to
    right instead.
    """
    if x.data.ndim != 4 or x.shape[2] % 2 or x.shape[3] % 2:
        raise ShapeMismatchError("avg_pool2d", x.shape, (2, 2))
    a = x.data
    data = ((a[:, :, 0::2, 0::2] + a[:, :, 0::2, 1::2]) + (a[:, :, 1::2, 0::2] + a[:, :, 1::2, 1::2])) / 4

    def backward(g):
        x._accumulate(np.repeat(np.repeat(g / 4, 2, axis=3), 2, axis=2))

    return _make(data, (x,), backward, "avg_pool2d")


# ---- losses ---------------------------------------------------------------


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy of integer class labels against logits (N, C)."""
    if logits.data.ndim != 2:
        raise ShapeMismatchError("softmax_cross_entropy", logits.shape)
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeMismatchError("softmax_cross_entropy", logits.shape, labels.shape)
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"softmax_cross_entropy: label out of range [0, {c})")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sez = ez.sum(axis=1, keepdims=True)
    log_probs = z - np.log(sez)
    losses = -log_probs[np.arange(n), labels]
    data = np.asarray(losses.mean())

    def backward(g):
        grad = ez / sez
        grad[np.arange(n), labels] -= 1.0
        logits._accumulate(grad * (float(g) / n))

    return _make(data, (logits,), backward, "softmax_cross_entropy")

