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
residual add, then a layer norm), ``ffn`` (linear, relu, linear),
``deform_attend``, which sums its (map, query) pair rows per query and
scales each query's sum, and ``conv2d_3x3``. Each runs the expressions of
the composition it replaces in the same order, so outputs and grads keep
their bits. ``_accum`` drops the grad of a parent that does not require
one, so a vjp may compute it anyway, as deform_attend's does.

What a vjp can rebuild bit for bit in one cheap pass, from its parents'
data and from little else, is rebuilt rather than kept:
``residual_layer_norm`` keeps the per-row mean and inverse deviation and
rebuilds the normalized sum from its two inputs; ``ffn`` keeps nothing but
its input's view and rebuilds the post-relu hidden with one GEMM;
``conv2d_3x3`` keeps nothing and rebuilds its zero-padded input, and each
tap's slice from it; a recorded ``deform_attend`` keeps, per block of pairs,
a plan that holds per sample point only corner (0,0)'s int32 index and, per
axis, the in-range masks and the fraction, and backward walks the same
blocks and builds each block's corner indices, weights and attention-scaled
values again with the plan method forward built them with. Each rebuild
runs forward's expressions in forward's order, so it has forward's bits.

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
        """The value of a one-element tensor (ShapeError for any other size)."""
        if self.size != 1:
            raise ShapeError(f"item: needs one element, got shape {self.shape}")
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
    """Add g into t.grad. own=True promises that nothing else reads or writes
    g's memory once the caller returns: g is a fresh array, or a same-size
    view of one, such as a reshape of the grad a vjp is given (see
    ``backward``). The first accumulation then takes g without copying; a
    view of part of a larger array is still copied."""
    if not t.requires_grad:
        return
    if t.grad is None:
        if (own and isinstance(g, np.ndarray) and g.dtype == np.float64
                and (g.base is None or getattr(g.base, "size", None) == g.size)):
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
    holding ``loss`` or any intermediate pins none of the graph. So the grad
    a vjp is given is held by that tensor alone and dead once the vjp
    returns: the vjp may hand it, or a same-size view of it, to a parent's
    ``_accum`` with own=True. A second
    backward through any part of a consumed graph, from the same loss or
    from a new graph built on one of its intermediates, raises ContractError
    before any grad changes.

    Vjps read their parents' data, Parameters' among them, as forward left
    it: ``matmul`` multiplies by the other operand's data, and the fused ops
    rebuild what they did not keep from it. So no Tensor's data, and no
    Parameter, may change between a forward and the backward of its graph:
    take the optimizer step after backward.
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


def _ffn_hidden(x2: np.ndarray, w1: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """relu(x2 @ w1 + b1) in one fresh buffer, the bias add and relu in
    place: ffn's post-relu hidden [rows, hidden]."""
    h = x2 @ w1
    h += b1
    np.maximum(h, 0.0, out=h)  # relu in place; NaN stays NaN
    return h


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two-layer relu MLP, linear(relu(linear(x, w1, b1)), w2, b2): x[...,I]
    -> [...,O] through a hidden width w1.shape[1].

    One tape op for the composition, with the same expressions in the same
    order, so the same bits. Relu runs in place on the hidden buffer.
    Backward keeps only x's [rows, I] view: it rebuilds the post-relu hidden
    h with forward's GEMM, bias add and relu, reads it for w2's grad and
    relu's grad mask h > 0 (as in ``relu``'s vjp), and frees it before the
    grads of the first layer.
    """
    i_in = x.shape[-1] if x.data.ndim else 0
    if (w1.data.ndim != 2 or w2.data.ndim != 2 or w1.shape[0] != i_in
            or w2.shape[0] != w1.shape[1] or b1.shape != (w1.shape[1],)
            or b2.shape != (w2.shape[1],)):
        raise ShapeError(f"ffn: input {x.shape} incompatible with w1 {w1.shape}, b1 {b1.shape}, "
                         f"w2 {w2.shape}, b2 {b2.shape}")
    x2 = x.data.reshape(-1, i_in)
    out2 = _ffn_hidden(x2, w1.data, b1.data) @ w2.data
    out2 += b2.data
    data = out2.reshape(*x.shape[:-1], w2.shape[1])

    def vjp(g):
        g2 = g.reshape(-1, w2.shape[1])
        gh = g2 @ w2.data.T
        h = _ffn_hidden(x2, w1.data, b1.data)
        _accum(w2, h.T @ g2, own=True)
        _accum(b2, g2.sum(axis=0), own=True)
        gh *= h > 0.0
        del h
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
        # g is the output's grad, which backward drops once this returns
        _accum(a, g.reshape(a.shape), own=True)

    return _make(data, "reshape", (a,), vjp)


def concat_lastaxis(parts: Sequence[Tensor]) -> Tensor:
    parts = [_wrap(p) for p in parts]
    if not parts or any(p.data.ndim == 0 for p in parts):
        raise ShapeError(f"concat_lastaxis: needs one or more parts of rank 1 or more, got "
                         f"{[p.shape for p in parts]}")
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
    """Split the last axis into consecutive blocks of the given sizes, which
    must be non-negative integers that sum to its length (ShapeError
    otherwise)."""
    sizes = list(sizes)
    if (a.data.ndim == 0
            or not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 0
                       for n in sizes)
            or sum(sizes) != a.shape[-1]):
        raise ShapeError(f"split_lastaxis: sizes {sizes} are not non-negative integers that "
                         f"sum to the last axis of {a.shape}")
    outs = []
    lo = 0
    for n in sizes:
        sl = (Ellipsis, slice(lo, lo + n))

        def vjp(g, sl=sl):
            _accum_slice(a, sl, g)

        outs.append(_make(np.ascontiguousarray(a.data[sl]), "split", (a,), vjp))
        lo += n
    return tuple(outs)


def index_array(x, what: str) -> np.ndarray:
    """x as an array of an integer dtype, unless it is empty (ShapeError
    otherwise): a cast to intp would truncate float indices and read bools
    as 0 and 1. what names x in the error."""
    a = np.asarray(x)
    if a.size and a.dtype.kind not in "iu":
        raise ShapeError(f"{what} must hold integers, got {a.dtype}")
    return a


def take_rows(a: Tensor, idx) -> Tensor:
    """Select rows of a 2-D tensor by a 1-D array of integer indices in
    [0, rows) (rows may repeat; ShapeError otherwise, as a negative index
    would count from the end in forward but not in backward). The grad sums
    g's rows into a's rows by index with ``_sum_pairs``."""
    if a.data.ndim != 2:
        raise ShapeError(f"take_rows: expected 2-D, got {a.shape}")
    arr = index_array(idx, "take_rows: indices")
    n = a.shape[0]
    if arr.ndim != 1 or (arr.size and (arr.min() < 0 or arr.max() >= n)):
        raise ShapeError(f"take_rows: indices must be a 1-D array of integers in [0,{n}), "
                         f"got {arr.dtype} {arr.shape}")
    idx = arr.astype(np.intp)
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


def _check_last_axis(x: Tensor, op: str):
    """ShapeError unless x has a last axis with one or more elements."""
    if x.data.ndim == 0 or x.shape[-1] == 0:
        raise ShapeError(f"{op}: needs a last axis of one or more elements, got {x.shape}")


def softmax_lastaxis(x: Tensor) -> Tensor:
    """Numerically stabilized softmax along the last axis."""
    _check_last_axis(x, "softmax_lastaxis")
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
    _check_last_axis(x, "log_softmax_lastaxis")
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


def _normalized_sum(x: np.ndarray, y: np.ndarray, mean: np.ndarray,
                    inv: np.ndarray) -> np.ndarray:
    """(x + y - mean) * inv in one fresh buffer, in residual_layer_norm's
    order: its xhat, rebuilt from its row mean and inverse deviation."""
    xhat = x + y
    xhat -= mean
    xhat *= inv
    return xhat


def residual_layer_norm(x: Tensor, y: Tensor, gain: Tensor, shift: Tensor) -> Tensor:
    """Post-norm residual: the sum x + y normalized over its last axis to zero
    mean and unit variance (eps 1e-5), then gain*xhat + shift.

    One tape op for the composition of an add and a layer norm, with the
    same expressions in the same order, so the same bits. The sum is formed
    in a scratch buffer that is centred and scaled in place into xhat. Only
    the per-row mean and inverse deviation ([..., 1] each) are kept for
    backward: it rebuilds xhat from x and y, which stay on the tape as
    parents anyway, with forward's three passes (add, subtract the mean,
    scale), so with forward's bits. x and y get the same grad: x adopts it,
    y gets a copy.
    """
    if x.shape != y.shape:
        raise ShapeError(f"residual_layer_norm: x {x.shape} and y {y.shape} differ")
    c = x.shape[-1]
    if gain.shape != (c,) or shift.shape != (c,):
        raise ShapeError(
            f"residual_layer_norm: gain {gain.shape} / shift {shift.shape} must be ({c},)"
        )
    xhat = x.data + y.data  # the sum, centred and then scaled in place
    mean = xhat.mean(axis=-1, keepdims=True)
    xhat -= mean
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv
    data = xhat * gain.data
    data += shift.data

    def vjp(g):
        xhat = _normalized_sum(x.data, y.data, mean, inv)
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


# sample points per block of deform_attend, the one unit of its forward and
# backward: a block holds _BLOCK // (M*K) pairs (one at least), forward builds
# and multiplies out one block's corner tables at a time, and backward walks
# the same blocks, so no per-point temporary is longer than a block; 8192
# built the camera tables 6-8% faster, but raised train peak RSS by 3 MB
_BLOCK = 4096

# (pair, head) rows per corner gather of deform_attend's backward. Every
# gather of a call writes into one buffer allocated once per call, so it stays
# in cache from gather to gather: 128 rows of K=4 at 16 channels are 256 KiB.
# 64 and 256 rows measured about as fast, 16 (per-gather overhead) and 1024 (a
# 2 MiB buffer) slower. The gathers clip rather than check their indices:
# numpy buffers an out= gather that checks them, which measured slower than
# fresh arrays; the call checks its indices' range instead
_GATHER_ROWS = 128


def _index_dtype(*sizes) -> type:
    """int32, the index type scipy computes with, so that a sparse matrix
    over an index array shares it instead of copying; intp when one of sizes
    (the largest index, or the count of stored entries that the row or
    column pointers reach) would overflow int32."""
    return np.int32 if max(sizes) <= np.iinfo(np.int32).max else np.intp


def _neighbours(x: np.ndarray, n: int):
    """The lower grid neighbours of coordinates x along an axis of length n,
    their indices clipped into [0, n), as floats, and the axis' (lower
    in-range mask, upper in-range mask, fraction f = x - floor(x)), each a
    fresh array shaped like x.

    The indices are clipped in float with fmax/fmin, which pass over NaN, so
    a cast of them never sees a value outside [0, n), whatever x holds. The
    upper neighbour floor(x) + 1 is in range where floor(x) lies in [-1,
    n - 1); a NaN compares false, so both its masks are false.
    """
    x0 = np.floor(x)
    f = x - x0
    lo = np.fmax(x0, 0.0)
    np.fmin(lo, n - 1.0, out=lo)
    in0 = lo == x0
    in1 = x0 >= -1.0
    in1 &= x0 < n - 1.0
    return lo, (in0, in1, f)


def _factors(in0: np.ndarray, in1: np.ndarray, f: np.ndarray) -> tuple:
    """The bilinear factors (1 - f) * in0 and f * in1 of the lower and upper
    neighbours along an axis, from their in-range masks and the fraction f:
    each is zero where its neighbour is outside the axis."""
    w0 = np.subtract(1.0, f)
    w0 *= in0
    return w0, f * in1


def _corner_matrix(data: np.ndarray, indices: np.ndarray, k: int, n_cols: int):
    """The [R, n_cols] CSR matrix whose row r holds the 4K values
    data[4Kr : 4K(r+1)] at the columns indices[4Kr : 4K(r+1)]. scipy keeps
    both arrays as they are: int32 indices are shared, not copied."""
    from scipy import sparse

    indptr = np.arange(0, indices.size + 1, 4 * k, dtype=indices.dtype)
    return sparse.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, n_cols))


class _BilinearPlan:
    """Bilinear corner tables of R rows of K sample points: those of one
    block of deform_attend's pairs, R = pairs * M.

    Point (r, k) lies at (rows[r, k], cols[r, k]) of an H x W map; its corner
    at (row, col) is row ``row_base[r] + (row*W + col) * stride`` of the flat
    value table, so a table that interleaves ``stride`` rows per cell (one
    per head) is addressed by per-row ``row_base`` offsets. The plan holds
    what a recorded call keeps for backward and nothing more: per point the
    table row of its corner (0,0), clipped into the map (``indices`` [R*K],
    of ``_index_dtype``), and per axis the lower and upper in-range masks and
    the fraction [R,K] (``rows``, ``cols``).

    ``tables`` builds the rest of the block's tables from these, and forward
    and backward both call it, so backward's tables have forward's bits;
    ``point_grads`` turns the block's corner dots (see ``deform_attend``)
    into its points' grads. Both write into arrays the caller hands them.
    """

    __slots__ = ("indices", "rows", "cols", "steps")

    def __init__(self, shape_hw, row_base: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 n_rows: int, stride: int):
        h, w = shape_hw
        r, k = rows.shape
        dtype = _index_dtype(4 * r * k, n_rows)  # the 4RK row pointers and the table rows
        r0, self.rows = _neighbours(rows, h)
        c0, self.cols = _neighbours(cols, w)
        self.steps = (w * stride, stride)  # table rows between row and column neighbours
        # table row = base + row * W*stride + col * stride, in integers
        idx = r0.astype(dtype)
        idx *= w * stride
        idx += row_base.astype(dtype)[:, None]
        idx += c0.astype(dtype) * stride
        self.indices = idx.reshape(-1)

    def tables(self, attn: np.ndarray, idx_out: np.ndarray, wgt_out: np.ndarray,
               val_out: np.ndarray):
        """The block's corner tables, per point in corner order (0,0), (0,1),
        (1,0), (1,1), written into the arrays handed in: the corners' table
        rows into idx_out [R*K*4], their bilinear weights into wgt_out [4, R,
        K] (zero for a corner outside the map), and the weights times the
        points' attention weights attn [R, K] into val_out [R, K, 4].

        Along an axis the two neighbours' clipped indices differ by one
        exactly where both lie inside it; elsewhere both clip to the same
        border index, for a NaN coordinate too, and on an axis of length 1
        always. So corner (0,1) is (0,0)'s row plus stride*(cin0 & cin1),
        (1,0) is (0,0)'s plus W*stride*(rin0 & rin1), and (1,1) is (1,0)'s
        plus stride*(cin0 & cin1). Each weight is the product of its row and
        column factors (``_factors``).
        """
        (rin0, rin1, _), (cin0, cin1, _) = self.rows, self.cols
        idx00 = self.indices.reshape(rin0.shape)
        row_step, col_step = self.steps
        d_col = np.multiply(cin0 & cin1, col_step, dtype=idx00.dtype)
        idx = idx_out.reshape(idx00.shape + (4,))
        idx[..., 0] = idx00
        np.add(idx00, d_col, out=idx[..., 1])
        np.add(idx00, np.multiply(rin0 & rin1, row_step, dtype=idx00.dtype), out=idx[..., 2])
        np.add(idx[..., 2], d_col, out=idx[..., 3])
        (wr0, wr1), (wc0, wc1) = _factors(*self.rows), _factors(*self.cols)
        # (wr*rin)*(wc*cin) is wr*wc*(rin&cin) bit for bit: the masks are 0/1
        # and the factors non-negative
        for corner, (wr, wc) in enumerate(itertools.product((wr0, wr1), (wc0, wc1))):
            np.multiply(wr, wc, out=wgt_out[corner])
            np.multiply(wgt_out[corner], attn, out=val_out[..., corner])

    def point_grads(self, h: np.ndarray, weights, attn: np.ndarray, d_attn, d_off):
        """The grads of the points: into d_attn [R, K] the grad of each
        sample in its attention weight, from the corner weights ``weights``,
        and into d_off [R, K, 2] the grads in its row and column times its
        attention weight attn [R, K].

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
        w00, w01, w10, w11 = weights
        np.multiply(w00, h00, out=d_attn)
        d_attn += w01 * h01
        d_attn += w10 * h10
        d_attn += w11 * h11
        np.multiply((1.0 - fc) * (h10 - h00) + fc * (h11 - h01), attn, out=d_off[..., 0])
        np.multiply((1.0 - fr) * (h01 - h00) + fr * (h11 - h10), attn, out=d_off[..., 1])


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
    dtype = _index_dtype(p, n_out)
    ones = sparse.csc_matrix((np.ones(p), qry_idx.astype(dtype), np.arange(p + 1, dtype=dtype)),
                             shape=(n_out, p))
    return ones @ rows


def _pair_blocks(p: int, m: int, k: int) -> list:
    """The pair slices, in order, of deform_attend's blocks over P pairs of
    M heads of K points: at most ``_BLOCK`` points, and one pair at least,
    per block."""
    step = max(1, _BLOCK // (m * k))
    return [slice(lo, min(lo + step, p)) for lo in range(0, p, step)]


def _pair_attn(attn: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The attention weights [pairs*M, K] of pairs of queries q, from attn
    [T,M,K]: one row per (pair, head)."""
    return np.take(attn, q, axis=0).reshape(-1, attn.shape[2])


def _plan_blocks(maps_bhw, map_idx, base_pts, offsets: np.ndarray, attn: np.ndarray, qry_idx):
    """Per block (``_pair_blocks``) of deform_attend's P pairs on B maps of
    H x W, in pair order: the block's pair slice, its [pairs*M, B*H*W*M] CSR
    matrix of attention-scaled corner weights, and its ``_BilinearPlan``.
    Each block is built only when the one before it has been taken."""
    b, h, w = maps_bhw
    t, m, k, _ = offsets.shape
    n_cols = b * h * w * m
    offs = [np.ascontiguousarray(offsets[..., axis]).reshape(t, m * k) for axis in (0, 1)]
    for ps in _pair_blocks(qry_idx.size, m, k):
        q = qry_idx[ps]
        rows = q.size * m
        # sample rows and columns [pairs, M*K]: offset plus base point, as (rows, K)
        coords = []
        for axis, o in enumerate(offs):
            x = np.take(o, q, axis=0)
            x += base_pts[ps, axis, None]
            coords.append(x.reshape(rows, k))
        # row of corner (0,0) of map map_idx in head m's block, per (pair, head)
        row_base = (map_idx[ps, None] * (h * w * m) + np.arange(m)).reshape(-1)
        plan = _BilinearPlan((h, w), row_base, *coords, n_cols, m)
        idx, values = np.empty(4 * rows * k, dtype=plan.indices.dtype), np.empty((rows, k, 4))
        plan.tables(_pair_attn(attn, q), idx, np.empty((4, rows, k)), values)
        yield ps, _corner_matrix(values.reshape(-1), idx, k, n_cols), plan


class _Blocks(tuple):
    """The block matrices of ``attend_blocks``, in pair order, and the
    (B, H, W) of the maps they were built for (``maps_bhw``)."""

    def __new__(cls, mats, maps_bhw):
        blocks = super().__new__(cls, mats)
        blocks.maps_bhw = tuple(maps_bhw)
        return blocks


def pair_arrays(map_idx, base_pts, qry_idx, n_maps: int, n_queries: int, scale, what: str):
    """The pairs' arrays as intp, float64, intp and float64-or-None, copied
    only to cast. ShapeError unless map_idx, base_pts [P,2] and qry_idx agree
    on P with integer indices and scale is None or [n_queries]; ContractError
    unless map_idx lies in [0, n_maps) and qry_idx in [0, n_queries)."""
    map_idx = index_array(map_idx, f"{what}: map_idx").astype(np.intp, copy=False)
    qry_idx = index_array(qry_idx, f"{what}: qry_idx").astype(np.intp, copy=False)
    base_pts = np.asarray(base_pts, dtype=np.float64)
    scale = None if scale is None else np.asarray(scale, dtype=np.float64)
    p = qry_idx.size
    shapes = (map_idx.shape, base_pts.shape, qry_idx.shape,
              (n_queries,) if scale is None else scale.shape)
    if shapes != ((p,), (p, 2), (p,), (n_queries,)):
        raise ShapeError(f"{what}: map_idx, base_pts, qry_idx and scale are {shapes}, "
                         f"not [P], [P,2], [P] and [{n_queries}]")
    if p and not (0 <= map_idx.min() and map_idx.max() < n_maps
                  and 0 <= qry_idx.min() and qry_idx.max() < n_queries):
        raise ContractError(f"{what}: map_idx outside [0,{n_maps}) or qry_idx outside "
                            f"[0,{n_queries})")
    return map_idx, base_pts, qry_idx, scale


def _check_points(b: int, offsets: Tensor, attn: Tensor, map_idx, base_pts, qry_idx,
                  scale, op: str):
    """``pair_arrays`` of the pairs on B maps and offsets' T queries, once
    offsets and attn are [T,M,K,2] and [T,M,K] (ShapeError otherwise); on
    every call, as scipy multiplies CSR columns past the maps silently."""
    if offsets.data.ndim != 4 or offsets.shape[3] != 2 or 0 in offsets.shape[1:3]:
        raise ShapeError(f"{op}: offsets must be [T,M,K,2] with M and K positive, got "
                         f"{offsets.shape}")
    if attn.shape != offsets.shape[:3]:
        raise ShapeError(f"{op}: attn {attn.shape} is not offsets' [T,M,K] "
                         f"{offsets.shape[:3]}")
    return pair_arrays(map_idx, base_pts, qry_idx, b, offsets.shape[0], scale, op)


def attend_blocks(maps_bhw, map_idx, base_pts, offsets: Tensor, attn: Tensor,
                  qry_idx) -> tuple:
    """The block matrices that ``deform_attend`` multiplies out when no
    backward follows, for the same points on B maps of H x W (maps_bhw is
    (B, H, W)), as a tuple that also carries maps_bhw; the other arguments
    are deform_attend's. They depend on the points and the maps' shape only,
    so a caller that samples many maps of one shape at the same points
    builds them once and hands them to each call. Their arrays are
    read-only.
    """
    map_idx, base_pts, qry_idx, _ = _check_points(maps_bhw[0], offsets, attn, map_idx,
                                                  base_pts, qry_idx, None, "attend_blocks")
    built = _plan_blocks(maps_bhw, map_idx, base_pts, offsets.data, attn.data, qry_idx)
    blocks = _Blocks((mat for _, mat, _ in built), maps_bhw)
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
    ``cell*M + m``, so every head's samples come from sparse matmuls,
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

    One loop over blocks of at most ``_BLOCK`` points (``_pair_blocks``)
    serves forward, recorded or not, and backward. Per block, forward builds
    the [pairs*M, B*H*W*M] CSR matrix of attention-scaled corner weights
    (see ``_BilinearPlan``) and multiplies it out before building the next;
    each output row reads only its own row of the matrix, so blocks change
    no bits. When no backward can follow (under ``no_grad``, or when no
    input needs a grad), the loop takes the block matrices from blocks when
    given (``attend_blocks`` of the same points on maps of the same (B, H,
    W), kept by a caller that samples many such maps; ContractError for
    others) and nothing outlives its block. A recorded call ignores blocks
    and keeps each block's plan, which holds only each point's corner (0,0)
    index and, per axis, the in-range masks and the fraction; the block's
    matrix, which its plan's ``tables`` filled, dies with the block.

    Backward walks the same blocks and computes all three grads, since every
    recorded call of the model wants them (``_accum`` drops any that is not
    wanted). Per block, the plan's ``tables`` builds again, from the pairs'
    rows of attn's data, the corner indices into one array that spans the
    call, the corner weights into one block-sized buffer and the
    attention-scaled values into the call's value array. The block's
    indices are checked (one outside the value table raises ContractError);
    the 4K corner rows of the value table of each (pair, head) row are
    gathered and each dotted with that row's output grad g, as Deformable
    DETR's MSDeformAttn backward does, ``_GATHER_ROWS`` rows at a time into
    one buffer per call; and ``_BilinearPlan.point_grads`` turns the dots
    into the block's slices of the point grads. After the loop the point
    grads are summed per query in pair order by ``_sum_pairs``, the sum
    forward takes (when pair p is query p for every p, only that sum's +0.0
    start is added, which gives the same bits), and the value grad is one
    product of the transposed CSR matrix over the call's indices and values,
    whose column order fixes its sums. What spans the call is thus the
    indices, the value array and the pairs' rows of g, besides the grads
    themselves.

    offsets must be [T,M,K,2] and attn [T,M,K] (ShapeError otherwise), and
    map_idx, base_pts, qry_idx and scale P pairs over B maps and T queries,
    as ``pair_arrays`` checks them.
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
    slices = _pair_blocks(p, m, k)
    record = _grad_enabled.get() and (feats.requires_grad or offsets.requires_grad
                                      or attn.requires_grad)
    if record or blocks is None:
        built = _plan_blocks((b, h, w), map_idx, base_pts, offsets.data, attn.data, qry_idx)
    else:
        shapes, bhw = [mat.shape for mat in blocks], getattr(blocks, "maps_bhw", None)
        if bhw != (b, h, w) or shapes != [((s.stop - s.start) * m, flat.shape[0])
                                          for s in slices]:
            raise ContractError(f"deform_attend: blocks {shapes} for maps {bhw} are not "
                                f"those of {p} pairs on maps {feats.shape}")
        built = ((s, mat, None) for s, mat in zip(slices, blocks))
    pairs = np.empty((p * m, hd))
    plans = []
    for ps, mat, plan in built:
        pairs[ps.start * m:ps.stop * m] = mat @ flat
        if record:
            plans.append(plan)
    pairs = pairs.reshape(p, m * hd)
    if not in_order:
        pairs = _sum_pairs(pairs, qry_idx, t)
    if scale is not None:
        pairs *= scale[:, None]
    out = pairs.reshape(t, m, hd)
    if not record:
        return Tensor(out)

    def per_query_grad(d, shape):
        """Point grads [P*M, ...] summed per query, as _sum_pairs sums them.
        Pairs that are the queries in order need no sum, only its +0.0 start,
        which turns a masked corner's -0.0 into +0.0."""
        if in_order:
            return d.reshape(shape) + 0.0
        return _sum_pairs(d.reshape(p, -1), qry_idx, t).reshape(shape)

    def vjp(g):
        g2 = g.reshape(t, m * hd)
        if scale is not None:
            g2 = g2 * scale[:, None]
        if not in_order:
            # the sum's vjp: each pair reads its query's row
            g2 = np.take(g2, qry_idx, axis=0)
        rows = p * m
        g2 = g2.reshape(rows, hd)
        block = (slices[0].stop - slices[0].start) * m  # (pair, head) rows of the longest block
        indices = np.empty(4 * k * rows, dtype=_index_dtype(4 * k * rows, flat.shape[0]))
        weights, values = np.empty((4, block, k)), np.empty((rows, k, 4))
        gather = min(_GATHER_ROWS, block)
        buf, dots = np.empty((gather * 4 * k, hd)), np.empty((block, 4 * k))
        d_attn, d_off = np.empty((rows, k)), np.empty((rows, k, 2))
        for ps, plan in zip(slices, plans):
            lo, hi = ps.start * m, ps.stop * m
            attnp, wgt = _pair_attn(attn.data, qry_idx[ps]), weights[:, :hi - lo]
            block_idx = indices[4 * k * lo:4 * k * hi]
            plan.tables(attnp, block_idx, wgt, values[lo:hi])
            # the corner gathers clip (see _GATHER_ROWS): check their indices
            # first, both ends in one pass, since a negative index viewed as
            # unsigned is huge
            if block_idx.view(f"u{block_idx.itemsize}").max() >= flat.shape[0]:
                raise ContractError(f"deform_attend: a corner index lies outside the "
                                    f"{flat.shape[0]}-row value table")
            for glo in range(lo, hi, gather):
                ghi = min(glo + gather, hi)
                corners = np.take(flat, indices[4 * k * glo:4 * k * ghi], axis=0,
                                  out=buf[:4 * k * (ghi - glo)], mode="clip")
                np.einsum("rjc,rc->rj", corners.reshape(ghi - glo, 4 * k, hd), g2[glo:ghi],
                          out=dots[glo - lo:ghi - lo])
            plan.point_grads(dots[:hi - lo].reshape(hi - lo, k, 4), wgt, attnp, d_attn[lo:hi],
                             d_off[lo:hi])
        del weights, buf, dots
        _accum(attn, per_query_grad(d_attn, attn.shape), own=True)
        _accum(offsets, per_query_grad(d_off, offsets.shape), own=True)
        del d_attn, d_off  # freed before the value grad's product allocates
        mat = _corner_matrix(values.reshape(-1), indices, k, flat.shape[0])
        _accum(feats, (mat.T @ g2).reshape(feats.shape), own=True)

    return _make(out, "deform_attend", (feats, offsets, attn), vjp)


def _pad1(x: np.ndarray) -> np.ndarray:
    """x [B,H,W,C] zero-padded by one cell on each side of H and W."""
    b, h, w, c = x.shape
    xp = np.zeros((b, h + 2, w + 2, c))
    xp[:, 1:-1, 1:-1] = x
    return xp


def _tap(xp: np.ndarray, di: int, dj: int) -> np.ndarray:
    """The [B*H*W, C] slice of a padded input xp [B,H+2,W+2,C] that kernel
    tap (di, dj) multiplies."""
    _, hp, wp, c = xp.shape
    return xp[:, di : di + hp - 2, dj : dj + wp - 2].reshape(-1, c)


def conv2d_3x3(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Same-size 3x3 convolution with zero padding of each of B maps:
    x[B,H,W,Ci] -> [B,H,W,Co]. Every tap is one product over all B*H*W
    cells, so a cell's output does not depend on the other maps.

    The closure keeps nothing of its own: when the kernel needs a grad,
    backward rebuilds the padded input from x's data with forward's one pad,
    and each tap's slice from that."""
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
    xp = _pad1(x.data)
    out2 = np.tile(bias.data, (n, 1))
    for di in range(3):
        for dj in range(3):
            out2 += _tap(xp, di, dj) @ kernel.data[di, dj]

    def vjp(g):
        g2 = g.reshape(n, co)
        if kernel.requires_grad:
            xp = _pad1(x.data)
            kgrad = _grad_buffer(kernel)
            for di in range(3):
                for dj in range(3):
                    kgrad[di, dj] += _tap(xp, di, dj).T @ g2
            del xp
        _accum(bias, g2.sum(axis=0), own=True)
        if x.requires_grad:
            gxp = np.zeros((b, h + 2, w + 2, ci))
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
