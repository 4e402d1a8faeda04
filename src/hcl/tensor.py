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
2-D convolution, 2-D average pooling, the fused encoder stage
conv -> relu -> 2x2 average pool (`conv_relu_pool`), softmax
cross-entropy with logits.

No-tape mode: inside `with no_tape():` every op still computes and
passes `_make`'s checks, but the result records no parents, no backward
closure and `requires_grad=False`.  Forward-only passes (MoCo's key encoder,
stop-gradient targets, feature extraction) use it, so each op's working
buffers (conv2d's `colsT` and padded input, earlier activations) are
freed as soon as the next op has read them rather than when the pass
returns; `conv_relu_pool` keeps nothing and builds no relu mask, and,
as under the tape, holds one image chunk's `colsT` and conv output at a
time, so its peak is one chunk's, not the batch's.
`backward()` on such an output raises the empty-tape error.

Finiteness invariant: every op builds its output through `_make`, which
rejects NaN or Inf first in each parent that is a leaf (`_kind` "leaf",
role "input"), then in the output, with or without a tape.  Op outputs
are never re-checked as inputs: they are never mutated after creation,
and the only in-place writes go to Parameters, which are leaves.  Each
array is therefore scanned once, and a non-finite value is reported by
the op that produced it.  Only op outputs are checked: inside
`conv_relu_pool` the conv output (the pre-activation) is not one, so a
NaN or +Inf there is reported in its pooled output, but a -Inf that relu
maps to 0 goes unreported.  The leaf check runs after the op has computed,
so when an input is wrong in two ways at once the op's own error (a
shape mismatch, l2_normalize's zero row, scalar_multiply's non-finite
scalar) wins over the leaf's `NonFiniteError`, and numpy may emit a
RuntimeWarning before that error.

Memory: at the end of forward a training step holds every activation
and saved buffer; per encoder stage, `conv_relu_pool` holds a 1-byte
relu mask and its pooled output, and no `colsT`, conv or relu output.
Its forward builds those one image chunk at a time (`_images_per_chunk`,
~1 MiB of `colsT`), so it peaks at one chunk's `colsT` plus its conv
output, beside the mask and pooled output it is filling.  Its backward,
like `conv2d`'s, which also frees `colsT` after its forward GEMM,
rebuilds `colsT` from the stage input, which the node holds as its
parent, in blocks of rows (`_row_blocks`, ~4 MiB each, the last up to
twice that), and runs its input gradient over image chunks of ~1 MiB of
`colsT`'s gradient twin, so no whole-batch `colsT` or twin is built.
That re-read rests on the rule every op's backward already relies on
when it reads a parent's `data`: no op output is mutated after
creation, and Parameters change only in the optimizer step, after
backward.  Backward frees the rest
layer by layer as it walks back, so the step peaks in backward at what
forward held plus one stage's gradient rows, padded input and current
block or chunk.
It leaves only the parameters' gradients and whatever the caller still
holds.  Importing this module on glibc
raises malloc's mmap and trim thresholds (`mallopt`) for the whole
process, so the multi-MB arrays a step frees stay in the heap and are
reused by the next step instead of being unmapped and faulted in again
as fresh zeroed pages.  Other libcs are left alone.
"""

from __future__ import annotations

import ctypes
import math
import os
from contextlib import contextmanager
from typing import Sequence

import numpy as np

# glibc <malloc.h> parameter numbers.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# glibc caps the mmap threshold at 32 MiB on 64-bit builds; the largest
# per-step array at the desk config (the first stage's gradient rows in
# backward) is ~8 MB.
_MMAP_THRESHOLD = 32 * 1024 * 1024
_TRIM_THRESHOLD = 256 * 1024 * 1024
# `conv_relu_pool`'s forward runs over as many images at a time as keep
# their `colsT` within this many bytes, in whole multiples of this many
# GEMM columns (see `_images_per_chunk`).
_CHUNK_COLS_BYTES = 1024 * 1024
_CHUNK_COLS_ALIGN = 64
# `_conv_backward` builds `colsT` for its weight GEMM in blocks of rows
# (see `_row_blocks`).
_BLOCK_ROWS_BYTES = 4 * 1024 * 1024
_BLOCK_ROWS_ALIGN = 8
_SMALL_GEMM_MACS = 10**6


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
    if not np.isfinite(arr).all():
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


def _conv_geometry(kind: str, x: Tensor, w: Tensor, b: Tensor | None, padding: int):
    """Shape-check a conv's operands; return (n, f, kh, kw, p, ho, wo)."""
    if x.data.ndim != 4 or w.data.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ShapeMismatchError(kind, x.shape, w.shape)
    if b is not None and b.shape != (w.shape[0],):
        raise ShapeMismatchError(f"{kind} bias", b.shape, (w.shape[0],))
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    p = int(padding)
    ho = h + 2 * p - kh + 1
    wo = wd + 2 * p - kw + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatchError(kind, x.shape, w.shape)
    return n, f, kh, kw, p, ho, wo


def _padded(x: np.ndarray, p: int) -> np.ndarray:
    """NCHW `x` as a zero-padded, channel-major (C, N, H+2p, W+2p) buffer."""
    n, c, h, wd = x.shape
    xpT = np.zeros((c, n, h + 2 * p, wd + 2 * p))
    xpT[:, :, p : p + h, p : p + wd] = x.transpose(1, 0, 2, 3)
    return xpT


def _fill_cols(out: np.ndarray, xpT: np.ndarray, r0: int, kh: int, kw: int) -> None:
    """Rows [r0, r0 + len(out)) of the channel-major im2col matrix of the
    padded input `xpT`, written into `out`, an (rows, N, Ho, Wo) array:
    one strided copy per tap.  Row r is channel r // (kh*kw), tap
    r % (kh*kw)."""
    ho, wo = out.shape[2:]
    taps = kh * kw
    for t in range(taps):
        s = (t - r0) % taps  # the block's first row of tap t
        if s < len(out):
            c0 = (r0 + s) // taps
            rows = out[s::taps]
            i, j = divmod(t, kw)
            rows[...] = xpT[c0 : c0 + len(rows), :, i : i + ho, j : j + wo]


def _im2col(x: np.ndarray, kh: int, kw: int, p: int, ho: int, wo: int) -> np.ndarray:
    """Channel-major im2col of NCHW `x`: (C*kh*kw, N*Ho*Wo), filled by
    kh*kw block copies from a padded (C, N, H+2p, W+2p) buffer."""
    n, c = x.shape[:2]
    colsT = np.empty((c * kh * kw, n, ho, wo))
    _fill_cols(colsT, _padded(x, p), 0, kh, kw)
    return colsT.reshape(c * kh * kw, n * ho * wo)


def _col2im(gcolsT: np.ndarray, x_shape, kh: int, kw: int, p: int, ho: int, wo: int) -> np.ndarray:
    """Adjoint of `_im2col`: kh*kw block adds into a padded buffer, in the
    same (i, j) order as a window-by-window scatter; an NCHW view."""
    n, c, h, wd = x_shape
    gcolsT = gcolsT.reshape(c, kh, kw, n, ho, wo)
    gxpT = np.zeros((c, n, h + 2 * p, wd + 2 * p))
    for i in range(kh):
        for j in range(kw):
            gxpT[:, :, i : i + ho, j : j + wo] += gcolsT[:, i, j]
    return gxpT[:, :, p : p + h, p : p + wd].transpose(1, 0, 2, 3)


def _pool2x2(a: np.ndarray) -> np.ndarray:
    """2-by-2 window means over the last two axes, as
    ((x00 + x01) + (x10 + x11)) * 0.25: two paired adds, then one scale."""
    r = a[..., 0::2] + a[..., 1::2]
    out = r[..., 0::2, :] + r[..., 1::2, :]
    out *= 0.25
    return out


def _images_per_chunk(rows: int, ho: int, wo: int) -> int:
    """Images per chunk of `conv_relu_pool`'s forward: as many as keep a
    (rows, n*Ho*Wo) `colsT` within `_CHUNK_COLS_BYTES` (1 MiB), rounded
    down to a multiple of `_CHUNK_COLS_ALIGN` columns, but at least one
    multiple: 4, 3 and 7 images at the desk encoder's three stages.
    BLAS kernels round a product's last columns modulo their unroll
    width in their own way; starting every chunk on such a multiple runs
    each column through the kernel the whole-batch GEMM would use."""
    unit = math.lcm(ho * wo, _CHUNK_COLS_ALIGN) // (ho * wo)
    fit = _CHUNK_COLS_BYTES // (rows * ho * wo * 8)
    return max(unit, fit - fit % unit)


def _row_blocks(rows: int, m: int, f: int) -> list[tuple[int, int]]:
    """Row ranges of the weight-gradient GEMM `colsT[r0:r1] @ gmat`, for a
    (rows, m) `colsT` and (m, f) `gmat`: blocks of a multiple of
    `_BLOCK_ROWS_ALIGN` rows within `_BLOCK_ROWS_BYTES` (4 MiB), the last
    one taking the remainder; one block when such a block's product would
    not exceed `_SMALL_GEMM_MACS` multiply-adds.  Starting every block on
    such a multiple runs each row through the kernel the whole product
    would use, and OpenBLAS sends products of at most 10**6 multiply-adds
    to small-matrix kernels that round otherwise."""
    fit = _BLOCK_ROWS_BYTES // (max(m, 1) * 8)
    step = max(_BLOCK_ROWS_ALIGN, fit - fit % _BLOCK_ROWS_ALIGN)
    if step >= rows or step * m * f <= _SMALL_GEMM_MACS:
        return [(0, rows)]
    starts = range(0, rows - step + 1, step)
    return list(zip(starts, [*starts[1:], rows]))


def _conv_backward(gmat: np.ndarray, x: Tensor, w: Tensor, b: Tensor | None,
                   p: int, ho: int, wo: int) -> None:
    """The convolution backward of `conv2d` and `conv_relu_pool`, from the
    (N*Ho*Wo, F) output-gradient rows `gmat` and the input `x.data`.

    The weight gradient rebuilds `colsT` from `x.data` in row blocks
    (`_row_blocks`) and runs one GEMM per block, never split along
    N*Ho*Wo; the bias gradient sums `gmat`'s rows; the input gradient
    runs the other GEMM and col2im one image chunk at a time
    (`_images_per_chunk`).  Every element is summed as in one whole-batch
    pass, so the bits are those of the unsplit GEMMs."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    rows, m = c * kh * kw, n * ho * wo
    blocks = _row_blocks(rows, m, f)
    xpT = _padded(x.data, p)
    block = np.empty((max(r1 - r0 for r0, r1 in blocks), n, ho, wo))
    gwT = np.empty((rows, f))
    for r0, r1 in blocks:
        _fill_cols(block[: r1 - r0], xpT, r0, kh, kw)
        gwT[r0:r1] = block[: r1 - r0].reshape(r1 - r0, m) @ gmat
    del block, xpT
    w._accumulate(gwT.T.reshape(w.shape))
    if b is not None:
        b._accumulate(gmat.sum(axis=0))
    if x.requires_grad:
        wmat = w.data.reshape(f, rows)
        step = _images_per_chunk(rows, ho, wo)
        gx = np.empty(x.shape)
        for i in range(0, n, step):
            k = min(step, n - i)
            gcolsT = wmat.T @ gmat[i * ho * wo : (i + k) * ho * wo].T
            gx[i : i + k] = _col2im(gcolsT, (k, c, h, wd), kh, kw, p, ho, wo)
        x._accumulate(gx)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, *, padding: int = 0) -> Tensor:
    """Direct 2-D convolution (cross-correlation), NCHW layout.

    x: (N, C, H, W); w: (F, C, kh, kw); b: (F,) or None.  Windows are one
    pixel apart, so the output is (N, F, H+2p-kh+1, W+2p-kw+1).
    Implemented as one GEMM over a channel-major im2col matrix `colsT` of
    shape (C*kh*kw, N*Ho*Wo), filled by kh*kw block copies from a padded
    (C, N, H+2p, W+2p) buffer, so the product is already (F, N, Ho, Wo);
    `colsT` is freed right after it.  Backward (`_conv_backward`) is two
    GEMMs plus a col2im of kh*kw block adds, in the same (i, j) order as
    a window-by-window scatter: it rebuilds `colsT` in row blocks for the
    weight GEMM and runs the other GEMM and col2im in image chunks, with
    the bits of whole-batch GEMMs.  The GEMMs take their operands in the
    opposite roles to a row-major (N*Ho*Wo, C*kh*kw) im2col; blocked BLAS
    kernels round both the same, but small products that BLAS sends to
    size-specific kernels may differ in the last bit.
    """
    n, f, kh, kw, p, ho, wo = _conv_geometry("conv2d", x, w, b, padding)
    colsT = _im2col(x.data, kh, kw, p, ho, wo)
    wmat = w.data.reshape(f, -1)
    out = wmat @ colsT
    # backward rebuilds colsT from x.data (module docstring, "Memory")
    del colsT
    if b is not None:
        out += b.data[:, None]
    data = out.reshape(f, n, ho, wo).transpose(1, 0, 2, 3)

    def backward(g):
        gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, f)
        _conv_backward(gmat, x, w, b, p, ho, wo)

    parents = (x, w) if b is None else (x, w, b)
    return _make(data, parents, backward, "conv2d")


def avg_pool2d(x: Tensor) -> Tensor:
    """Non-overlapping 2-by-2 average pooling; extents must be even.

    Each window sums as ((x00 + x01) + (x10 + x11)) / 4 (times 0.25, the
    same bits).  That is the order numpy's `mean` over the two window axes
    uses for widths above 2, so values match it bitwise there; at width 2
    numpy sums left to right instead.
    """
    if x.data.ndim != 4 or x.shape[2] % 2 or x.shape[3] % 2:
        raise ShapeMismatchError("avg_pool2d", x.shape, (2, 2))

    def backward(g):
        x._accumulate(np.repeat(np.repeat(g / 4, 2, axis=3), 2, axis=2))

    return _make(_pool2x2(x.data), (x,), backward, "avg_pool2d")


def conv_relu_pool(x: Tensor, w: Tensor, b: Tensor, *, padding: int) -> Tensor:
    """One encoder stage, `avg_pool2d(relu(conv2d(x, w, b, padding=padding)))`,
    as one op, with the bits of that composition in its output and all
    three gradients.

    NCHW in, NCHW out; the conv output extents must be even.  Forward
    runs over the batch in image chunks (`_images_per_chunk`): each
    chunk's `_im2col`, GEMM, bias, in-place relu, mask and pool, with its
    conv output channel-major (F, n*Ho*Wo) throughout and only its
    quarter-size pooled rows transposed into the NCHW output.  `colsT`
    is freed right after each GEMM, and the output is allocated once the
    first chunk's conv output is freed, so the forward peaks at one
    chunk's `colsT` plus its conv output.  The GEMM reduces over C*kh*kw,
    never over positions, chunks start on the whole GEMM's kernel
    boundaries, and pool windows never cross images, so the bits are
    those of one whole-batch pass.
    Under the tape the op keeps a 1-byte relu mask (pre-activation > 0),
    stored in (N, Ho, Wo, F) order, and no conv or relu output; without a
    tape it builds no mask.  Backward writes `g * 0.25` into all four
    positions of each window with the mask multiplied in, by one
    broadcast multiply straight into conv2d's (N*Ho*Wo, F) gradient rows,
    and runs conv2d's own backward (`_conv_backward`), which rebuilds
    `colsT` from `x.data` in row blocks.  On an empty batch it gives zero
    weight and bias gradients.
    """
    n, f, kh, kw, p, ho, wo = _conv_geometry("conv_relu_pool", x, w, b, padding)
    if ho % 2 or wo % 2:
        raise ShapeMismatchError("conv_relu_pool", x.shape, w.shape, (2, 2))
    wmat = w.data.reshape(f, -1)
    step = _images_per_chunk(wmat.shape[1], ho, wo)
    mask = np.empty((n, ho, wo, f), dtype=bool) if _tape else None
    data = None
    for i in range(0, max(n, 1), step):  # an empty batch takes one empty pass
        xs = x.data[i : i + step]
        colsT = _im2col(xs, kh, kw, p, ho, wo)
        out = wmat @ colsT
        # backward rebuilds colsT from x.data (module docstring, "Memory")
        del colsT
        out += b.data[:, None]
        np.maximum(out, 0.0, out=out)
        out = out.reshape(f, len(xs), ho, wo)
        if _tape:
            np.greater(out, 0.0, out=mask[i : i + len(xs)].transpose(3, 0, 1, 2))
        pooled = _pool2x2(out)
        del out
        if data is None:  # after the conv output is freed, not beside it
            data = np.empty((n, f, ho // 2, wo // 2))
        data[i : i + len(xs)] = pooled.transpose(1, 0, 2, 3)

    def backward(g):
        # g * 0.25 masked into all four positions of each window, written
        # in conv2d's (N, Ho, Wo, F) gradient-row order
        gmat = np.empty((n, ho // 2, 2, wo // 2, 2, f))
        rows = (g * 0.25).transpose(0, 2, 3, 1)[:, :, None, :, None]
        np.multiply(rows, mask.reshape(gmat.shape), out=gmat)
        del rows
        _conv_backward(gmat.reshape(n * ho * wo, f), x, w, b, p, ho, wo)

    return _make(data, (x, w, b), backward, "conv_relu_pool")


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

