"""Reverse-mode autodiff over dense float64 numpy buffers.

Each forward pass records a fresh graph: each op wires its output Tensor to a
node holding the parent tensors and a backward closure. ``backward()`` walks
the graph once, in reverse topological order, accumulating gradients
additively, so using a tensor twice doubles its gradient. The walk consumes
the graph: as soon as a node's closure has run, the node and its tensor's
gradient are dropped, so only leaf tensors (Parameters among them) keep a
``grad``. Backpropagating through a consumed graph again raises
ContractError.

A node keeps its output's parents, and its closure keeps what its vjp
reads; every parent Tensor's data stays alive with it until the walk has
passed. So a chain of ops whose intermediates no vjp reads is one op here,
and the intermediate never becomes a Tensor: ``residual_layer_norm`` (a
residual add, then a layer norm) keeps the normalized sum and the inverse
deviations, not the sum; ``ffn`` (linear, relu, linear) keeps the post-relu
hidden, not the pre-activation; ``deform_attend`` sums its (map, query)
pair rows per query, scales each query's sum and keeps no pair row; ``conv2d_3x3``
keeps its padded input [B,H+2,W+2,Ci] and rebuilds each tap's slice in
backward. Each runs the expressions of the composition it replaces in the
same order, so outputs and grads keep their bits. A vjp computes no grad for
a parent that does not require one.

Image and feature maps travel as one [B,H,W,C] tensor of B same-shape maps:
``conv2d_3x3``, ``avgpool2x2`` and ``deform_attend`` take that rank only.

Everything is float64 and deterministic. Elementwise ops follow numpy
broadcasting (gradients are summed back over broadcast axes); every other op
demands exact shapes and raises ShapeError otherwise.
"""

from __future__ import annotations

import contextvars
import itertools
from typing import Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError

# per thread (and per asyncio task): a no_grad block in one never stops
# another from recording its tape
_grad_enabled = contextvars.ContextVar("bevkit_grad_enabled", default=True)


class no_grad:
    """Context manager that disables graph recording (inference mode) in the
    current thread or task."""

    def __enter__(self):
        self._token = _grad_enabled.set(False)
        return self

    def __exit__(self, *exc):
        _grad_enabled.reset(self._token)
        return False


def grad_enabled() -> bool:
    """Whether ops record the tape in the current thread or task: True
    outside ``no_grad``."""
    return _grad_enabled.get()


class _Node:
    """Graph node: op label, parent tensors, and the vjp closure."""

    __slots__ = ("op", "parents", "vjp")

    def __init__(self, op, parents, vjp):
        self.op = op
        self.parents = parents
        self.vjp = vjp


# the node of every tensor whose graph backward has consumed
_CONSUMED = _Node("consumed", (), None)


class Tensor:
    """Dense float64 array with an optional autodiff graph node.

    Data is contiguous row-major and treated as immutable once the tensor has
    been consumed by an op; only ``grad`` mutates afterwards. Constants
    (requires_grad=False leaves) never accumulate gradient.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # np.ascontiguousarray would promote 0-d to 1-d
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Backpropagate from this scalar and consume its graph (see ``backward``)."""
        backward(self)

    def __repr__(self):
        op = self.node.op if self.node is not None else "leaf"
        return f"Tensor(shape={self.shape}, op={op}, requires_grad={self.requires_grad})"


class Parameter:
    """Named trainable tensor. Names are unique, dot-separated paths."""

    def __init__(self, name: str, data):
        self.name = name
        self.tensor = Tensor(np.array(data, dtype=np.float64), requires_grad=True)

    @property
    def data(self):
        return self.tensor.data

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, op: str, parents: tuple, vjp) -> Tensor:
    out = Tensor(data)
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.node = _Node(op, parents, vjp)
    return out


def _accum(t: Tensor, g: np.ndarray, own: bool = False):
    """Add g into t.grad. own=True promises g is a fresh array the caller will
    not reuse, letting the first accumulation take it without copying."""
    if not t.requires_grad:
        return
    if t.grad is None:
        if own and isinstance(g, np.ndarray) and g.base is None and g.dtype == np.float64:
            t.grad = g
        else:
            t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _grad_buffer(t: Tensor) -> np.ndarray:
    """t.grad, allocated as zeros if nothing has been accumulated yet."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    return t.grad


def _accum_slice(t: Tensor, sl, g: np.ndarray):
    if not t.requires_grad:
        return
    _grad_buffer(t)[sl] += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def backward(loss: Tensor):
    """Populate ``grad`` on every requires_grad leaf reachable from loss, and
    consume the graph on the way.

    Gradients add into any existing ``grad`` buffers (call ``zero_grad``
    between steps). The loss must hold a single scalar. Once a node's vjp has
    run, the node (its closure and everything the closure captured) and its
    tensor's grad are dropped, so afterwards only leaves keep a ``grad`` and
    holding ``loss`` or any intermediate pins none of the graph. A second
    backward through any part of a consumed graph, from the same loss or
    from a new graph built on one of its intermediates, raises ContractError
    before any grad changes.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    # iterative topo sort: creation order is not stored, so DFS from the loss
    topo: list[Tensor | None] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        t, processed = stack.pop()
        if processed:
            topo.append(t)
            continue
        if id(t) in visited:
            continue
        visited.add(id(t))
        if t.node is _CONSUMED:
            raise ContractError(f"graph already consumed by backward (reached {t!r})")
        stack.append((t, True))
        if t.node is not None:
            for p in t.node.parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
    _accum(loss, np.ones_like(loss.data))
    for i in range(len(topo) - 1, -1, -1):
        t = topo[i]
        topo[i] = None
        if t.node is None:
            continue  # a leaf keeps its grad
        if t.grad is not None:
            t.node.vjp(t.grad)
        t.node = _CONSUMED
        t.grad = None


# ---------------------------------------------------------------------------
# elementwise suite


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def vjp(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make(data, "add", (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not broadcast")

    def vjp(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.shape), own=True)

    return _make(data, "sub", (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")

    def vjp(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape), own=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape), own=True)

    return _make(data, "mul", (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    def vjp(g):
        _accum(a, -g, own=True)

    return _make(-a.data, "neg", (a,), vjp)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)  # a tenth of np.where's time; NaN stays NaN

    def vjp(g):
        # data > 0 is a > 0 for every a, NaN, +-0 and +-inf included, so no
        # mask of a is kept from forward
        _accum(a, g * (data > 0.0), own=True)

    return _make(data, "relu", (a,), vjp)


def sigmoid(a: Tensor) -> Tensor:
    # split positive/negative branches for stability
    data = np.empty_like(a.data)
    pos = a.data >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    e = np.exp(a.data[~pos])
    data[~pos] = e / (1.0 + e)

    def vjp(g):
        _accum(a, g * data * (1.0 - data), own=True)

    return _make(data, "sigmoid", (a,), vjp)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def vjp(g):
        _accum(a, g * data, own=True)

    return _make(data, "exp", (a,), vjp)


def absval(a: Tensor) -> Tensor:
    data = np.abs(a.data)

    def vjp(g):
        _accum(a, g * np.sign(a.data), own=True)

    return _make(data, "abs", (a,), vjp)


def tsum(a: Tensor) -> Tensor:
    data = a.data.sum()

    def vjp(g):
        _accum(a, np.broadcast_to(g, a.shape).copy(), own=True)

    return _make(data, "sum", (a,), vjp)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product [m,k] @ [k,n]."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} incompatible")
    data = a.data @ b.data

    def vjp(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T, own=True)
        if b.requires_grad:
            _accum(b, a.data.T @ g, own=True)

    return _make(data, "matmul", (a, b), vjp)


def transpose2d(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose2d: expected 2-D, got {a.shape}")

    def vjp(g):
        _accum(a, np.ascontiguousarray(g.T))

    return _make(a.data.T, "transpose", (a,), vjp)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x[...,I] @ weight[I,O] + bias[O]."""
    i_in = x.shape[-1] if x.data.ndim else 0
    if weight.data.ndim != 2 or weight.shape[0] != i_in:
        raise ShapeError(f"linear: input {x.shape} incompatible with weight {weight.shape}")
    if bias.shape != (weight.shape[1],):
        raise ShapeError(f"linear: bias {bias.shape} incompatible with weight {weight.shape}")
    x2 = x.data.reshape(-1, i_in)
    out2 = x2 @ weight.data
    out2 += bias.data  # in place: no second [rows, O] array
    data = out2.reshape(*x.shape[:-1], weight.shape[1])

    def vjp(g):
        g2 = g.reshape(-1, weight.shape[1])
        _accum(x, (g2 @ weight.data.T).reshape(x.shape), own=True)
        _accum(weight, x2.T @ g2, own=True)
        _accum(bias, g2.sum(axis=0), own=True)

    return _make(data, "linear", (x, weight, bias), vjp)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two-layer relu MLP, linear(relu(linear(x, w1, b1)), w2, b2): x[...,I]
    -> [...,O] through a hidden width w1.shape[1].

    One tape op for the composition, with the same expressions in the same
    order, so the same bits. Relu runs in place on the hidden buffer, and
    backward keeps only x's [rows, I] view and the post-relu hidden h, not
    the pre-activation: relu's grad mask is h > 0, as in ``relu``'s vjp.
    """
    i_in = x.shape[-1] if x.data.ndim else 0
    if (w1.data.ndim != 2 or w2.data.ndim != 2 or w1.shape[0] != i_in
            or w2.shape[0] != w1.shape[1] or b1.shape != (w1.shape[1],)
            or b2.shape != (w2.shape[1],)):
        raise ShapeError(f"ffn: input {x.shape} incompatible with w1 {w1.shape}, b1 {b1.shape}, "
                         f"w2 {w2.shape}, b2 {b2.shape}")
    x2 = x.data.reshape(-1, i_in)
    h = x2 @ w1.data
    h += b1.data
    np.maximum(h, 0.0, out=h)  # relu in place; NaN stays NaN
    out2 = h @ w2.data
    out2 += b2.data
    data = out2.reshape(*x.shape[:-1], w2.shape[1])

    def vjp(g):
        g2 = g.reshape(-1, w2.shape[1])
        gh = g2 @ w2.data.T
        _accum(w2, h.T @ g2, own=True)
        _accum(b2, g2.sum(axis=0), own=True)
        gh *= h > 0.0
        if x.requires_grad:
            _accum(x, (gh @ w1.data.T).reshape(x.shape), own=True)
        _accum(w1, x2.T @ gh, own=True)
        _accum(b1, gh.sum(axis=0), own=True)

    return _make(data, "ffn", (x, w1, b1, w2, b2), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot reshape {a.shape} to {shape}") from None

    def vjp(g):
        _accum(a, g.reshape(a.shape))

    return _make(data, "reshape", (a,), vjp)


def concat_lastaxis(parts: Sequence[Tensor]) -> Tensor:
    parts = [_wrap(p) for p in parts]
    lead = parts[0].shape[:-1]
    if any(p.shape[:-1] != lead for p in parts):
        raise ShapeError(f"concat_lastaxis: leading shapes differ: {[p.shape for p in parts]}")
    data = np.concatenate([p.data for p in parts], axis=-1)
    sizes = [p.shape[-1] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[..., lo:hi])

    return _make(data, "concat", tuple(parts), vjp)


def split_lastaxis(a: Tensor, sizes: Sequence[int]) -> tuple:
    """Split the last axis into consecutive blocks of the given sizes."""
    if sum(sizes) != a.shape[-1]:
        raise ShapeError(f"split_lastaxis: sizes {sizes} do not cover last axis of {a.shape}")
    outs = []
    lo = 0
    for n in sizes:
        sl = (Ellipsis, slice(lo, lo + n))

        def vjp(g, sl=sl):
            _accum_slice(a, sl, g)

        outs.append(_make(np.ascontiguousarray(a.data[sl]), "split", (a,), vjp))
        lo += n
    return tuple(outs)


def take_rows(a: Tensor, idx) -> Tensor:
    """Select rows of a 2-D tensor by integer index (rows may repeat). The
    grad sums g's rows into a's rows by index with ``_sum_pairs``."""
    if a.data.ndim != 2:
        raise ShapeError(f"take_rows: expected 2-D, got {a.shape}")
    idx = np.asarray(idx, dtype=np.intp)
    data = a.data[idx]

    def vjp(g):
        _accum(a, _sum_pairs(g, idx, a.shape[0]), own=True)

    return _make(data, "take_rows", (a,), vjp)


# ---------------------------------------------------------------------------
# normalization


# a last axis shorter than this is reduced slice by slice, which takes a
# third of the time of numpy's reduction over a [1024,2,4] array; numpy sums
# fewer than 8 elements left to right from +0.0, and pairwise from 8 up
_SHORT_AXIS = 8


def _max_lastaxis(x: np.ndarray) -> np.ndarray:
    """The maximum over the last axis, by slices when it is short; max is
    exact, so any order gives the same value."""
    k = x.shape[-1]
    if not 0 < k < _SHORT_AXIS:
        return x.max(axis=-1)
    out = x[..., 0].copy()
    for i in range(1, k):
        np.maximum(out, x[..., i], out=out)
    return out


def _sum_lastaxis(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=-1) bit for bit. A short axis is summed slice by slice in
    numpy's order for it: left to right, starting from +0.0."""
    k = x.shape[-1]
    if not 0 < k < _SHORT_AXIS:
        return x.sum(axis=-1)
    out = x[..., 0] + 0.0  # as numpy's start: a -0.0 first term gives +0.0
    for i in range(1, k):
        out += x[..., i]
    return out


def softmax_lastaxis(x: Tensor) -> Tensor:
    """Numerically stabilized softmax along the last axis."""
    if not np.all(np.isfinite(x.data)):
        raise NumericError("softmax_lastaxis: non-finite input")
    data = x.data - _max_lastaxis(x.data)[..., None]
    np.exp(data, out=data)
    data /= _sum_lastaxis(data)[..., None]

    def vjp(g):
        gx = g * data
        dot = _sum_lastaxis(gx)
        np.subtract(g, dot[..., None], out=gx)
        gx *= data
        _accum(x, gx, own=True)

    return _make(data, "softmax", (x,), vjp)


def log_softmax_lastaxis(x: Tensor) -> Tensor:
    if not np.all(np.isfinite(x.data)):
        raise NumericError("log_softmax_lastaxis: non-finite input")
    m = x.data.max(axis=-1, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    data = shifted - lse
    soft = np.exp(data)

    def vjp(g):
        _accum(x, g - soft * g.sum(axis=-1, keepdims=True), own=True)

    return _make(data, "log_softmax", (x,), vjp)


def residual_layer_norm(x: Tensor, y: Tensor, gain: Tensor, shift: Tensor) -> Tensor:
    """Post-norm residual: the sum x + y normalized over its last axis to zero
    mean and unit variance (eps 1e-5), then gain*xhat + shift.

    One tape op for the composition of an add and a layer norm, with the
    same expressions in the same order, so the same bits. The sum is formed
    in a scratch buffer that is centred and scaled in place; only xhat and
    the per-row inverse deviation are kept for backward, not the sum. x and
    y get the same grad: x adopts it, y gets a copy.
    """
    if x.shape != y.shape:
        raise ShapeError(f"residual_layer_norm: x {x.shape} and y {y.shape} differ")
    c = x.shape[-1]
    if gain.shape != (c,) or shift.shape != (c,):
        raise ShapeError(
            f"residual_layer_norm: gain {gain.shape} / shift {shift.shape} must be ({c},)"
        )
    xhat = x.data + y.data  # the sum, centred and then scaled in place
    xhat -= xhat.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv
    data = xhat * gain.data
    data += shift.data

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        _accum(gain, (g * xhat).sum(axis=lead), own=True)
        _accum(shift, g.sum(axis=lead), own=True)
        gx = g * gain.data
        gs = inv * (
            gx
            - gx.mean(axis=-1, keepdims=True)
            - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
        )
        _accum(y, gs)
        _accum(x, gs, own=True)

    return _make(data, "residual_layer_norm", (x, y, gain, shift), vjp)


# ---------------------------------------------------------------------------
# sampling and convolution


# sample points per block of deform_attend's forward: it builds its corner
# tables (and, with no backward to follow, takes their product) one block at a
# time, so no per-point temporary is longer than a block; 8192 built the
# camera tables 6-8% faster, but raised train peak RSS by 3 MB
_BLOCK = 4096

# (pair, head) rows per corner gather of deform_attend's backward. Every
# gather of a call writes into one buffer allocated once per call, so it stays
# in cache from gather to gather: 128 rows of K=4 at 16 channels are 256 KiB.
# 64 and 256 rows measured about as fast, 16 (per-gather overhead) and 1024 (a
# 2 MiB buffer) slower. The gathers clip rather than check their indices:
# numpy buffers an out= gather that checks them, which measured slower than
# fresh arrays; the call checks its indices' range once instead
_GATHER_ROWS = 128


def _neighbours(x: np.ndarray, n: int, keep):
    """The lower and upper grid neighbours of coordinates x along an axis of
    length n: their indices clipped into [0, n), as floats, and their
    bilinear factors 1 - f and f (f = x - floor(x)), each zeroed where its
    neighbour is outside the axis. keep is None or the (lower in-range mask,
    upper in-range mask, f) arrays, shaped like x, to write into.

    The indices are clipped in float with fmax/fmin, which pass over NaN, so
    a cast of them never sees a value outside [0, n), whatever x holds.
    """
    in0, in1, f = keep if keep is not None else (None, None, None)
    x0 = np.floor(x)
    f = np.subtract(x, x0, out=f)
    lo = np.fmax(x0, 0.0)
    np.fmin(lo, n - 1.0, out=lo)
    in0 = np.equal(lo, x0, out=in0)
    x0 += 1.0
    hi = np.fmax(x0, 0.0)
    np.fmin(hi, n - 1.0, out=hi)
    in1 = np.equal(hi, x0, out=in1)
    w0 = np.subtract(1.0, f)
    w0 *= in0
    return lo, hi, w0, f * in1


class _BilinearPlan:
    """Bilinear corner tables of R rows of K sample points, built block by
    block straight into the arrays a CSR matrix keeps.

    Point (r, k) lies at (rows[r, k], cols[r, k]) of an H x W map; its corner
    at (row, col) is row ``row_base[r] + (row*W + col) * stride`` of the flat
    value table, so a table that interleaves ``stride`` rows per cell (one
    per head) is addressed by per-row ``row_base`` offsets. Forward builds,
    per point and in corner order (0,0), (0,1), (1,0), (1,1), the corner's
    table row (``indices``, int32, the index type scipy computes with, so a
    CSR matrix over them shares them instead of copying) and its bilinear
    weight times the point's attention weight (``data``); a corner outside
    the map gets weight zero. Each block of ``_BLOCK`` points computes per
    axis one floor, the fraction, the clipped neighbours and their masked
    factors, and writes each corner's column of both tables with ``out=``.

    With ``grads`` set (a recorded call that needs attention or offset
    grads), forward also keeps for backward the unscaled corner weights
    [R,K,4] and, per axis, the lower and upper in-range masks and the
    fraction [R,K]; ``point_grads`` turns the corner dots (see
    ``deform_attend``) into the points' grads. Without it, only ``indices``
    and ``data`` are built.
    """

    __slots__ = ("indices", "data", "weights", "rows", "cols")

    def __init__(self, shape_hw, row_base: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 attn: np.ndarray, n_rows: int, stride: int, grads: bool):
        h, w = shape_hw
        r, k = rows.shape
        # int32 unless a row index or the 4RK row pointers would overflow it
        dtype = np.int32 if max(4 * r * k, n_rows) <= np.iinfo(np.int32).max else np.intp
        idx = np.empty((r, k, 4), dtype=dtype)
        data = np.empty((r, k, 4))
        base = row_base.astype(dtype)[:, None]
        # for backward only: holding tables through a forward that no backward
        # follows raised peak RSS by 2.3 MB (3%) in no_grad evaluation
        self.weights = np.empty((r, k, 4)) if grads else None
        self.rows, self.cols = [(np.empty((r, k), bool), np.empty((r, k), bool), np.empty((r, k)))
                                for _ in range(2)] if grads else (None, None)
        step = max(1, _BLOCK // k)
        for lo in range(0, r, step):
            s = slice(lo, lo + step)
            keep_r = [a[s] for a in self.rows] if grads else None
            keep_c = [a[s] for a in self.cols] if grads else None
            r0, r1, wr0, wr1 = _neighbours(rows[s], h, keep_r)
            c0, c1, wc0, wc1 = _neighbours(cols[s], w, keep_c)
            # table row = (base + row * W*stride) + col * stride, in integers
            row_part = [ri.astype(dtype) * (w * stride) + base[s] for ri in (r0, r1)]
            col_part = [ci.astype(dtype) * stride for ci in (c0, c1)]
            corners = itertools.product(zip(row_part, (wr0, wr1)), zip(col_part, (wc0, wc1)))
            for corner, ((ri, wr), (ci, wc)) in enumerate(corners):
                np.add(ri, ci, out=idx[s, :, corner])
                # (wr*rin)*(wc*cin) is wr*wc*(rin&cin) bit for bit: the masks
                # are 0/1 and the factors non-negative
                wgt = np.multiply(wr, wc, out=self.weights[s, :, corner] if grads else None)
                np.multiply(wgt, attn[s], out=data[s, :, corner])
        self.indices = idx.reshape(-1)
        self.data = data.reshape(-1)

    def point_grads(self, h: np.ndarray, attn: np.ndarray, want_attn: bool, want_off: bool):
        """The grads of every point: [R,K] the grad of its sample in its
        attention weight (if want_attn, else None), and [R,K,2] the grads in
        its row and column times its attention weight attn [R,K] (if
        want_off, else None).

        h [R, K, 4] holds, per point and corner, the corner's row of the
        value table dotted with the output grad. Corners outside the map
        read as zero, so their dots are zeroed first. The weight grad sums
        w*h over the corners in corner order; the row grad is
        (1-fc)(h10-h00) + fc(h11-h01) and the column grad
        (1-fr)(h01-h00) + fr(h11-h10).
        """
        rin0, rin1, fr = self.rows
        cin0, cin1, fc = self.cols
        h00 = h[..., 0] * (rin0 & cin0)
        h01 = h[..., 1] * (rin0 & cin1)
        h10 = h[..., 2] * (rin1 & cin0)
        h11 = h[..., 3] * (rin1 & cin1)
        d_attn = d_off = None
        if want_attn:
            w = self.weights
            d_attn = w[..., 0] * h00 + w[..., 1] * h01 + w[..., 2] * h10 + w[..., 3] * h11
        if want_off:
            d_off = np.empty(h.shape[:2] + (2,))
            np.multiply((1.0 - fc) * (h10 - h00) + fc * (h11 - h01), attn, out=d_off[..., 0])
            np.multiply((1.0 - fr) * (h01 - h00) + fr * (h11 - h10), attn, out=d_off[..., 1])
        return d_attn, d_off


def _sum_pairs(rows: np.ndarray, qry_idx: np.ndarray, n_out: int) -> np.ndarray:
    """Rows [P,C] summed into a fresh [n_out,C] by query, in pair order:
    output row q is the sum of rows[p] over the p with qry_idx[p] == q, in
    increasing p, and zero where no p has it.

    The sum is one product with the [n_out, P] matrix of ones whose column p
    holds its one 1 at row qry_idx[p], stored by columns (CSC), so building
    it needs no sort. scipy's product starts every output row at +0.0 and
    walks the columns in order, adding row p into output row qry_idx[p];
    1.0 * x is exact, so the bits are those of adding the rows one pair at a
    time: those of ``np.add.at`` into zeros.
    """
    from scipy import sparse

    p = qry_idx.size
    dtype = np.int32 if max(p, n_out) <= np.iinfo(np.int32).max else np.intp
    ones = sparse.csc_matrix((np.ones(p), qry_idx.astype(dtype), np.arange(p + 1, dtype=dtype)),
                             shape=(n_out, p))
    return ones @ rows


def _block_pairs(m: int, k: int) -> int:
    """Pairs per block of at most ``_BLOCK`` points of M heads of K points."""
    return max(1, _BLOCK // (m * k))


class _PairPoints:
    """The sample points of deform_attend's P pairs on B maps [H, W] of M
    heads: per axis the offsets [T, M*K], contiguous, and the attention
    weights [T, M*K]. ``matrix`` builds the attention-scaled corner weights of
    a range of pairs, ``blocks`` those of every block of pairs in turn."""

    __slots__ = ("shape", "map_idx", "base_pts", "qry_idx", "m", "k", "offs", "attn")

    def __init__(self, maps_bhw, map_idx, base_pts, offsets: np.ndarray, attn: np.ndarray,
                 qry_idx):
        t, self.m, self.k, _ = offsets.shape
        self.shape = tuple(maps_bhw)
        self.map_idx, self.base_pts, self.qry_idx = map_idx, base_pts, qry_idx
        self.offs = [np.ascontiguousarray(offsets[..., axis]).reshape(t, self.m * self.k)
                     for axis in (0, 1)]
        self.attn = attn.reshape(t, self.m * self.k)

    def matrix(self, ps, grads):
        """The [rows, B*H*W*M] CSR matrix of the attention-scaled corner
        weights of pairs ps, its plan and its attention weights [rows, K]."""
        from scipy import sparse

        b, h, w = self.shape
        m, k = self.m, self.k
        q = self.qry_idx[ps]
        rows = q.size * m
        # sample rows and columns [pairs, M*K]: offset plus base point, as (rows, K)
        coords = []
        for axis, o in enumerate(self.offs):
            x = np.take(o, q, axis=0)
            x += self.base_pts[ps, axis, None]
            coords.append(x.reshape(rows, k))
        attnp = np.take(self.attn, q, axis=0).reshape(rows, k)
        # row of corner (0,0) of map map_idx in head m's block, per (pair, head)
        row_base = (self.map_idx[ps, None] * (h * w * m) + np.arange(m)).reshape(-1)
        n_cols = b * h * w * m
        plan = _BilinearPlan((h, w), row_base, *coords, attnp, n_cols, m, grads)
        indptr = np.arange(0, 4 * k * rows + 1, 4 * k, dtype=plan.indices.dtype)
        s_attn = sparse.csr_matrix((plan.data, plan.indices, indptr), shape=(rows, n_cols))
        return s_attn, plan, attnp

    def blocks(self):
        """The matrices of the pairs of one block at a time, in pair order:
        each is built only when the one before it has been taken."""
        step = _block_pairs(self.m, self.k)
        for lo in range(0, self.qry_idx.size, step):
            yield self.matrix(slice(lo, lo + step), False)[0]


def _check_points(b: int, offsets: Tensor, attn: Tensor, map_idx, base_pts, qry_idx,
                  scale, op: str):
    """map_idx, base_pts, qry_idx and scale as arrays, once they and
    offsets and attn are what deform_attend's docstring asks for on B maps
    (ShapeError otherwise)."""
    if offsets.data.ndim != 4 or offsets.shape[3] != 2:
        raise ShapeError(f"{op}: offsets must be [T,M,K,2], got {offsets.shape}")
    if attn.shape != offsets.shape[:3]:
        raise ShapeError(f"{op}: attn {attn.shape} is not offsets' [T,M,K] "
                         f"{offsets.shape[:3]}")
    t = offsets.shape[0]
    map_idx = np.asarray(map_idx, dtype=np.intp)
    qry_idx = np.asarray(qry_idx, dtype=np.intp)
    base_pts = np.asarray(base_pts)
    p = qry_idx.size
    if qry_idx.shape != (p,) or map_idx.shape != (p,) or base_pts.shape != (p, 2):
        raise ShapeError(f"{op}: map_idx {map_idx.shape}, base_pts {base_pts.shape} "
                         f"and qry_idx {qry_idx.shape} must be [P], [P,2] and [P]")
    if scale is not None:
        scale = np.asarray(scale, dtype=np.float64)
        if scale.shape != (t,):
            raise ShapeError(f"{op}: scale {scale.shape} is not [{t}]")
    if p and (map_idx.min() < 0 or map_idx.max() >= b or qry_idx.min() < 0 or qry_idx.max() >= t):
        raise ShapeError(f"{op}: map_idx outside [0,{b}) or qry_idx outside [0,{t})")
    return map_idx, base_pts, qry_idx, scale


def attend_blocks(maps_bhw, map_idx, base_pts, offsets: Tensor, attn: Tensor,
                  qry_idx) -> tuple:
    """The block matrices that ``deform_attend`` multiplies out when no
    backward follows, for the same points on B maps of H x W (maps_bhw is
    (B, H, W)), as a tuple; the other arguments are deform_attend's. They depend on
    the points and the maps' shape only, so a caller that samples many maps
    of one shape at the same points builds them once and hands them to each
    call. Their arrays are read-only.
    """
    map_idx, base_pts, qry_idx, _ = _check_points(maps_bhw[0], offsets, attn, map_idx,
                                                  base_pts, qry_idx, None, "attend_blocks")
    blocks = tuple(_PairPoints(maps_bhw, map_idx, base_pts, offsets.data, attn.data,
                               qry_idx).blocks())
    for mat in blocks:
        for a in (mat.data, mat.indices, mat.indptr):
            a.flags.writeable = False
    return blocks


def deform_attend(feats: Tensor, map_idx, base_pts: np.ndarray, offsets: Tensor,
                  attn: Tensor, qry_idx, scale=None, blocks=None) -> Tensor:
    """Fused deformable-attention gather over per-head value maps, summed and
    scaled per query.

    feats [B,H,W,M*D] holds B value maps whose channels are M blocks of D,
    one block per head. For each of P (map, query) pairs with base point
    base_pts[p] on map map_idx[p], head m samples its own block at base +
    offsets[qry_idx[p], m, k] and combines its K points with attn[qry_idx[p],
    m, k]; the [M, D] rows of the pairs of each query are summed, in pair
    order, and the sum of query q is multiplied by scale[q] (when given), into
    the output [T, M, D]. A query without pairs gets zeros. Read as the table
    ``feats.reshape(B*H*W*M, D)``, head m's corners are the rows
    ``cell*M + m``, so every head's samples come from one sparse matmul,
    without the [P,M,K,D] intermediates of sampling every point first.
    Corners outside a map read as zero, so a sample decays linearly to zero
    within one cell of the border and is zero beyond.

    The per-query sum is the CSC product of ``_sum_pairs``. When pair p is
    query p for every p, the pair rows are the per-query sums already and no
    sum is taken: it would only add each row to +0.0, and the rows, sparse
    products that start at +0.0 themselves, hold no -0.0 for that to change.
    The scale multiplies the summed rows in place, as a ``mul`` by a [T,1,1]
    constant would do; it is not folded into the sparse matrix, which would
    round differently. Backward scales the output grad by the same scale and
    then gathers its row of each pair's query (g[qry_idx]), the vjps of the
    multiply and the sum; no pair row is kept for it.

    Forward gathers the sample rows and columns as two [P, M*K] arrays and
    builds the [P*M, B*H*W*M] CSR matrix of attention-scaled corner weights
    block by block (see ``_BilinearPlan``); when only feats needs a grad,
    that matrix is all it keeps. When no backward can follow (under
    ``no_grad``, or when no input needs a grad), nothing needs to outlive
    the call: forward builds the matrix rows of the pairs of one block of
    at most ``_BLOCK`` points at a time and multiplies them out before
    building the next, which changes no bits, since each output row reads
    only its own row of the matrix. That loop takes the block matrices as
    given when blocks holds them (``attend_blocks`` of the same points and
    maps' shape, kept by a caller that samples other maps of that shape at
    the same points) and builds them otherwise; with a backward to follow,
    blocks is not read.
    Backward reuses the matrix for the value grad. For the attention and
    offset grads it gathers, per (pair, head) row, the 4K corner rows of the
    value table and dots each with that row's output grad g, as Deformable
    DETR's MSDeformAttn backward does. It gathers ``_GATHER_ROWS`` rows at a
    time into one buffer allocated once per call, and writes their dots into
    one [P*M, 4K] array, which changes no bits, since each dot reads one
    row's corners and grad only; ``_BilinearPlan.point_grads`` then turns
    all the dots into the points' grads at once. A corner index outside the
    value table raises ContractError. Both grads are then summed over the
    pairs of a query in pair order by ``_sum_pairs``, the sum forward takes;
    when pair p is query p for every p, only that sum's +0.0 start is added,
    which gives the same bits.

    offsets must be [T,M,K,2] and attn [T,M,K]; map_idx, base_pts [P,2] and
    qry_idx must agree on P, with map_idx in [0,B) and qry_idx in [0,T);
    scale is None or [T].
    """
    if feats.data.ndim != 4:
        raise ShapeError(f"deform_attend: expected [B,H,W,M*D], got {feats.shape}")
    b, h, w, ch = feats.shape
    map_idx, base_pts, qry_idx, scale = _check_points(
        b, offsets, attn, map_idx, base_pts, qry_idx, scale, "deform_attend")
    t, m, k, _ = offsets.shape
    if ch % m:
        raise ShapeError(f"deform_attend: {ch} value channels do not split into {m} heads")
    hd = ch // m  # per-head width D
    p = qry_idx.size
    if p == 0:
        def vjp_empty(g):
            pass
        return _make(np.zeros((t, m, hd)), "deform_attend", (feats, offsets, attn), vjp_empty)

    in_order = p == t and np.array_equal(qry_idx, np.arange(t))
    flat = feats.data.reshape(b * h * w * m, hd)

    def per_query(pairs):
        """The pair rows [P*M, D], a fresh array, summed and scaled per query."""
        rows = pairs.reshape(p, m * hd)
        if not in_order:
            rows = _sum_pairs(rows, qry_idx, t)
        if scale is not None:
            rows *= scale[:, None]
        return rows.reshape(t, m, hd)

    if not (_grad_enabled.get()
            and (feats.requires_grad or offsets.requires_grad or attn.requires_grad)):
        # no backward follows, so no table needs to outlive its block's product
        step = _block_pairs(m, k)
        starts = range(0, p, step)
        if blocks is None:
            blocks = _PairPoints((b, h, w), map_idx, base_pts, offsets.data, attn.data,
                                 qry_idx).blocks()
        elif [mat.shape for mat in blocks] != [(min(step, p - lo) * m, flat.shape[0])
                                               for lo in starts]:
            raise ContractError(f"deform_attend: blocks {[mat.shape for mat in blocks]} are "
                                f"not those of {p} pairs on maps {feats.shape}")
        pairs = np.empty((p * m, hd))
        for lo, mat in zip(starts, blocks):
            pairs[lo * m:(lo + step) * m] = mat @ flat
        return Tensor(per_query(pairs))
    grads = offsets.requires_grad or attn.requires_grad
    s_attn, plan, attnp = _PairPoints((b, h, w), map_idx, base_pts, offsets.data, attn.data,
                                      qry_idx).matrix(slice(None), grads)
    out = per_query(s_attn @ flat)

    def per_query_grad(d, shape):
        """Point grads [P*M, ...] summed per query, as _sum_pairs sums them.
        Pairs that are the queries in order need no sum, only its +0.0 start,
        which turns a masked corner's -0.0 into +0.0."""
        if in_order:
            return d.reshape(shape) + 0.0
        return _sum_pairs(d.reshape(p, -1), qry_idx, t).reshape(shape)

    def vjp(g):
        # the corner gathers clip (see _GATHER_ROWS): check their indices once,
        # both ends in one pass, since a negative index viewed as unsigned is huge
        if grads and plan.indices.view(f"u{plan.indices.itemsize}").max() >= flat.shape[0]:
            raise ContractError(f"deform_attend: a corner index lies outside the "
                                f"{flat.shape[0]}-row value table")
        g2 = g.reshape(t, m * hd)
        if scale is not None:
            g2 = g2 * scale[:, None]
        if not in_order:
            # the sum's vjp: each pair reads its query's row
            g2 = np.take(g2, qry_idx, axis=0)
        g2 = g2.reshape(p * m, hd)
        if feats.requires_grad:
            _accum(feats, (s_attn.T @ g2).reshape(feats.shape), own=True)
        if not grads:
            return
        rows = p * m
        step = min(_GATHER_ROWS, rows)
        buf = np.empty((step * 4 * k, hd))
        dots = np.empty((rows, 4 * k))
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            corners = np.take(flat, plan.indices[4 * k * lo:4 * k * hi], axis=0,
                              out=buf[:4 * k * (hi - lo)], mode="clip")
            np.einsum("rjc,rc->rj", corners.reshape(hi - lo, 4 * k, hd), g2[lo:hi],
                      out=dots[lo:hi])
        d_attn, d_off = plan.point_grads(dots.reshape(rows, k, 4), attnp, attn.requires_grad,
                                         offsets.requires_grad)
        if d_attn is not None:
            _accum(attn, per_query_grad(d_attn, attn.shape), own=True)
        if d_off is not None:
            _accum(offsets, per_query_grad(d_off, offsets.shape), own=True)

    return _make(out, "deform_attend", (feats, offsets, attn), vjp)


def conv2d_3x3(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Same-size 3x3 convolution with zero padding of each of B maps:
    x[B,H,W,Ci] -> [B,H,W,Co]. Every tap is one product over all B*H*W
    cells, so a cell's output does not depend on the other maps."""
    if x.data.ndim != 4 or kernel.data.ndim != 4 or kernel.shape[:2] != (3, 3):
        raise ShapeError(f"conv2d_3x3: x {x.shape} is not [B,H,W,Ci] or kernel {kernel.shape} "
                         f"is not [3,3,Ci,Co]")
    b, h, w, ci = x.shape
    if kernel.shape[2] != ci:
        raise ShapeError(f"conv2d_3x3: input channels {ci} != kernel channels {kernel.shape[2]}")
    co = kernel.shape[3]
    if bias.shape != (co,):
        raise ShapeError(f"conv2d_3x3: bias {bias.shape} != ({co},)")
    n = b * h * w
    xp = np.zeros((b, h + 2, w + 2, ci))
    xp[:, 1:-1, 1:-1] = x.data

    def tap(di, dj):
        """The [B*H*W, Ci] input slice that kernel tap (di, dj) multiplies."""
        return xp[:, di : di + h, dj : dj + w].reshape(n, ci)

    out2 = np.tile(bias.data, (n, 1))
    for di in range(3):
        for dj in range(3):
            out2 += tap(di, dj) @ kernel.data[di, dj]

    def vjp(g):
        g2 = g.reshape(n, co)
        if kernel.requires_grad:
            # each tap's slice is rebuilt here: backward keeps only xp
            kgrad = _grad_buffer(kernel)
            for di in range(3):
                for dj in range(3):
                    kgrad[di, dj] += tap(di, dj).T @ g2
        _accum(bias, g2.sum(axis=0), own=True)
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for di in range(3):
                for dj in range(3):
                    gxp[:, di : di + h, dj : dj + w] += (g2 @ kernel.data[di, dj].T).reshape(
                        b, h, w, ci)
            _accum(x, gxp[:, 1:-1, 1:-1])

    return _make(out2.reshape(b, h, w, co), "conv3x3", (x, kernel, bias), vjp)


def avgpool2x2(x: Tensor) -> Tensor:
    """2x2 average pooling with stride 2 of each of B maps: x[B,H,W,C] ->
    [B,H/2,W/2,C]; H and W must be even."""
    if x.data.ndim != 4 or x.shape[1] % 2 or x.shape[2] % 2:
        raise ShapeError(f"avgpool2x2: expected [B,H,W,C] with H,W even, got {x.shape}")
    b, h, w, c = x.shape
    data = x.data.reshape(b, h // 2, 2, w // 2, 2, c).mean(axis=(2, 4))

    def vjp(g):
        gx = np.broadcast_to(g[:, :, None, :, None, :] * 0.25, (b, h // 2, 2, w // 2, 2, c))
        _accum(x, gx.reshape(b, h, w, c))

    return _make(data, "avgpool", (x,), vjp)
