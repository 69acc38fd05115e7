"""Backward passes kept as oracles for the production ops.

Both deform_attend references build their own bilinear corner tables with a
loop over the four corners, and scatter with np.add.at; take_rows scatters
with np.add.at. Forward passes equal the production ones, so any difference
a test sees comes from backward. Like production, deform_attend reads values
[B,H,W,M*D] as the table [B*H*W*M, D], head m of cell c being row c*M + m,
sums the pairs' attended rows per query and scales each query's sum; the
references always sum, with np.add.at from zeros, where production skips a
sum of the queries in order.

- deform_attend_reference gets the attention and offset grads from the dots
  of every point's four corner rows with the output grad, as production
  does, but gathers the whole call at once. Production must match it bit
  for bit, whatever its block size.
- deform_attend_jet_reference is the backward the corner dots replaced: three
  separate CSR products (samples, row slopes, column slopes), each dotted
  with the output grad. It sums in another order, so it checks the corner-dot
  arithmetic to rounding.

layer_normalize_reference is the layer norm op that residual_layer_norm
replaced, an add being its input; ffn's unfused form needs no oracle, as
linear and relu are production ops.

retaining_backward is the graph walk as it was before backward consumed the
graph: the same vjps in the same order, with every node and every grad kept.
Production backward must give every leaf the same grad bits.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

import bevkit.tensor as T
from bevkit.tensor import Tensor

CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def corner_tables(shape_hw, base, pts, stride):
    """Per point [N] and corner, in the order of CORNERS, as [N,4] arrays: the
    row of the value table, the in-range mask, the bilinear weight and its
    derivatives in row and in column (all three zero outside the map); and
    the row and column fractions [N].

    The corners' rows and columns stay floats until they are clipped into
    the map with fmax/fmin, which take a NaN to the lower border, so no cast
    sees a NaN or a value past intp; a NaN is outside the map, as its
    comparisons are false."""
    h, w = shape_hw
    r0, c0 = np.floor(pts[:, 0]), np.floor(pts[:, 1])
    fr, fc = pts[:, 0] - r0, pts[:, 1] - c0
    n = pts.shape[0]
    idx = np.empty((n, 4), dtype=np.intp)
    inside = np.empty((n, 4), dtype=bool)
    wgt, dwr, dwc = np.empty((n, 4)), np.empty((n, 4)), np.empty((n, 4))
    for corner, (i, j) in enumerate(CORNERS):
        r, c = r0 + i, c0 + j
        ok = (r >= 0) & (r < h) & (c >= 0) & (c < w)
        wr = fr if i else 1.0 - fr
        wc = fc if j else 1.0 - fc
        rc = np.fmin(np.fmax(r, 0.0), h - 1.0).astype(np.intp)
        cc = np.fmin(np.fmax(c, 0.0), w - 1.0).astype(np.intp)
        idx[:, corner] = base + (rc * w + cc) * stride
        inside[:, corner] = ok
        wgt[:, corner] = wr * wc * ok
        dwr[:, corner] = (1.0 if i else -1.0) * wc * ok
        dwc[:, corner] = wr * (1.0 if j else -1.0) * ok
    return idx, inside, wgt, dwr, dwc, fr, fc


def pair_rows(feats, map_idx, base_pts, offsets, attn, qry_idx):
    """The attended row [P, M, D] of every pair, before the sum and scale,
    and the sparse matrix and corner tables that produced them."""
    b, h, w, ch = feats.shape
    t, m, k, _ = offsets.shape
    ch //= m  # per-head width D
    p = qry_idx.size
    attnp = attn.data[qry_idx]
    pts = (base_pts[:, None, None, :] + offsets.data[qry_idx]).reshape(p * m * k, 2)
    # point (p, m, k) reads rows (map_idx[p]*H*W + cell)*M + m
    head_base = (np.asarray(map_idx, dtype=np.intp)[:, None] * (h * w * m)
                 + np.arange(m)[None, :]).repeat(k, axis=1).reshape(-1)
    tables = corner_tables((h, w), head_base, pts, m)
    idx, wgt = tables[0], tables[2]
    flat = feats.data.reshape(b * h * w * m, ch)
    data_attn = (wgt * attnp.reshape(p * m * k, 1)).reshape(-1)
    indptr_pm = np.arange(0, 4 * k * (p * m) + 1, 4 * k)
    s_attn = sparse.csr_matrix((data_attn, idx.reshape(-1), indptr_pm),
                               shape=(p * m, b * h * w * m))
    return (s_attn @ flat).reshape(p, m, ch), s_attn, tables


def _attend(feats, map_idx, base_pts, offsets, attn, qry_idx, scale, grads):
    """deform_attend's forward. Its vjp gets the attention grads [P*M*K] and
    the offset grads before the attention weight [P*M*K, 2] from
    grads(corner tables, value table [B*H*W*M, D], output grad [P*M, D])."""
    b, h, w, ch = feats.shape
    t, m, k, _ = offsets.shape
    ch //= m  # per-head width D
    qry_idx = np.asarray(qry_idx, dtype=np.intp)
    p = qry_idx.size
    if p == 0:
        return T._make(np.zeros((t, m, ch)), "deform_attend", (feats, offsets, attn),
                       lambda g: None)
    rows, s_attn, tables = pair_rows(feats, map_idx, base_pts, offsets, attn, qry_idx)
    out = np.zeros((t, m, ch))
    np.add.at(out, qry_idx, rows)
    out = out * np.asarray(scale)[:, None, None]
    attnp = attn.data[qry_idx]
    flat = feats.data.reshape(b * h * w * m, ch)

    def vjp(g):
        g = g * np.asarray(scale)[:, None, None]
        g2 = g[qry_idx].reshape(p * m, ch)
        if feats.requires_grad:
            T._accum(feats, (s_attn.T @ g2).reshape(feats.shape), own=True)
        if not (attn.requires_grad or offsets.requires_grad):
            return
        dattn, dpts = grads(tables, flat, g2)
        if attn.requires_grad:
            if attn.grad is None:
                attn.grad = np.zeros_like(attn.data)
            np.add.at(attn.grad, qry_idx, dattn.reshape(p, m, k))
        if offsets.requires_grad:
            if offsets.grad is None:
                offsets.grad = np.zeros_like(offsets.data)
            np.add.at(offsets.grad, qry_idx, dpts.reshape(p, m, k, 2) * attnp[..., None])

    return T._make(out, "deform_attend", (feats, offsets, attn), vjp)


def corner_dot_grads(tables, flat, g2):
    """Attention grads [N] and pre-attention offset grads [N,2] from the dot
    of each point's four corner rows with g, all points at once."""
    idx, inside, wgt, _, _, fr, fc = tables
    pm, ch = g2.shape
    corners = flat[idx.reshape(-1)].reshape(pm, -1, ch)
    h = np.einsum("rjc,rc->rj", corners, g2).reshape(-1, 4) * inside
    h00, h01, h10, h11 = h.T
    dattn = wgt[:, 0] * h00 + wgt[:, 1] * h01 + wgt[:, 2] * h10 + wgt[:, 3] * h11
    d_row = (1.0 - fc) * (h10 - h00) + fc * (h11 - h01)
    d_col = (1.0 - fr) * (h01 - h00) + fr * (h11 - h10)
    return dattn, np.stack([d_row, d_col], axis=-1)


def jet_grads(tables, flat, g2):
    """The same grads from three separate CSR products over the corner
    weights and their slopes, each sample dotted with g."""
    idx, _, wgt, dwr, dwc, _, _ = tables
    pm, ch = g2.shape
    n = idx.shape[0]
    indptr = np.arange(0, 4 * n + 1, 4)

    def dot(data):
        mat = sparse.csr_matrix((data.reshape(-1), idx.reshape(-1), indptr),
                                shape=(n, flat.shape[0]))
        return np.einsum("xkc,xoc->xk", (mat @ flat).reshape(pm, -1, ch),
                         g2.reshape(pm, 1, ch)).reshape(-1)

    return dot(wgt), np.stack([dot(dwr), dot(dwc)], axis=-1)


# blocks, deform_attend's no-grad block matrices kept by a caller, only spare
# building them, so the references take them and build their own


def deform_attend_reference(feats, map_idx, base_pts, offsets, attn, qry_idx, scale,
                            blocks=None):
    return _attend(feats, map_idx, base_pts, offsets, attn, qry_idx, scale, corner_dot_grads)


def deform_attend_jet_reference(feats, map_idx, base_pts, offsets, attn, qry_idx,
                                scale, blocks=None):
    return _attend(feats, map_idx, base_pts, offsets, attn, qry_idx, scale, jet_grads)


def take_rows_reference(a: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.intp)

    def vjp(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        np.add.at(a.grad, idx, g)

    return T._make(a.data[idx], "take_rows", (a,), vjp)


def layer_normalize_reference(x: Tensor, gain: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then gain*xhat + shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu  # centred here, scaled in place below
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    data = xhat * gain.data
    data += shift.data

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        T._accum(gain, (g * xhat).sum(axis=lead), own=True)
        T._accum(shift, g.sum(axis=lead), own=True)
        gx = g * gain.data
        T._accum(
            x,
            inv
            * (
                gx
                - gx.mean(axis=-1, keepdims=True)
                - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
            ),
            own=True,
        )

    return T._make(data, "layer_norm", (x, gain, shift), vjp)


def residual_layer_norm_reference(x, y, gain, shift, eps=1e-5):
    """The composition residual_layer_norm replaced: an add, then a layer norm."""
    return layer_normalize_reference(T.add(x, y), gain, shift, eps)


def ffn_reference(x, w1, b1, w2, b2):
    """The composition ffn replaced: linear, relu, linear."""
    return T.linear(T.relu(T.linear(x, w1, b1)), w2, b2)


def install(monkeypatch, attend=deform_attend_reference):
    """Route every scatter on the model's backward path through the
    references, deform_attend through attend, and the fused layer norm and
    FFN through the compositions they replaced."""
    monkeypatch.setattr(T, "deform_attend", attend)
    monkeypatch.setattr(T, "take_rows", take_rows_reference)
    monkeypatch.setattr(T, "residual_layer_norm", residual_layer_norm_reference)
    monkeypatch.setattr(T, "ffn", ffn_reference)


def retaining_backward(loss: Tensor):
    """Reverse topological walk from a scalar loss that keeps the graph: every
    node stays wired and every tensor keeps its grad."""
    topo, visited, stack = [], set(), [(loss, False)]
    while stack:
        t, processed = stack.pop()
        if processed:
            topo.append(t)
            continue
        if id(t) in visited:
            continue
        visited.add(id(t))
        stack.append((t, True))
        if t.node is not None:
            for p in t.node.parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
    T._accum(loss, np.ones_like(loss.data))
    for t in reversed(topo):
        if t.node is not None and t.grad is not None:
            t.node.vjp(t.grad)
