"""Backward passes as they were before the single-pass rewrite, kept as
bit-exact oracles for the production ops.

deform_attend's vjp here runs three separate CSR products (samples, row
slopes, column slopes) and scatters with np.add.at; take_rows and
scatter_rows scatter with np.add.at. Forward passes equal the production
ones, so any difference a test sees comes from backward. Like production,
deform_attend reads values [B,H,W,M*D] as the table [B*H*W*M, D], head m of
cell c being row c*M + m.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

import bevkit.tensor as T
from bevkit.tensor import Tensor


def slopes_reference(plan, pts):
    """d(weights)/d(row) and d(weights)/d(col), flat like plan.weights."""
    dwr = np.empty((plan.p, 4))
    dwc = np.empty((plan.p, 4))
    for k, ((_, rin, wr, sr), (_, cin, wc, sc)) in enumerate(T._corners(plan.shape_hw, pts)):
        inside = rin & cin
        dwr[:, k] = sr * wc * inside
        dwc[:, k] = wr * sc * inside
    return dwr.reshape(-1), dwc.reshape(-1)


def plan_matrix(plan, data):
    """[P, cells] CSR with row p holding data over point p's four corners."""
    indptr = np.arange(0, 4 * plan.p + 1, 4)
    return sparse.csr_matrix((data, plan.indices, indptr), shape=(plan.p, plan.n_rows))


def deform_attend_reference(feats, map_idx, base_pts, offsets, attn, qry_idx):
    b, h, w, ch = feats.shape
    t, m, k, _ = offsets.shape
    ch //= m  # per-head width D
    qry_idx = np.asarray(qry_idx, dtype=np.intp)
    p = qry_idx.size
    if p == 0:
        return T._make(np.zeros((0, m, ch)), "deform_attend", (feats, offsets, attn),
                       lambda g: None)
    offp = offsets.data[qry_idx]
    attnp = attn.data[qry_idx]
    pts = (base_pts[:, None, None, :] + offp).reshape(p * m * k, 2)
    # point (p, m, k) reads rows (map_idx[p]*H*W + cell)*M + m
    head_base = (np.asarray(map_idx, dtype=np.intp)[:, None] * (h * w * m)
                 + np.arange(m)[None, :]).repeat(k, axis=1).reshape(-1)
    plan = T._BilinearPlan((h, w), head_base, pts, b * h * w * m, m)
    flat = feats.data.reshape(b * h * w * m, ch)
    data_attn = (plan.weights.reshape(p * m * k, 4) * attnp.reshape(p * m * k, 1)).reshape(-1)
    indptr_pm = np.arange(0, 4 * k * (p * m) + 1, 4 * k, dtype=np.intp)
    s_attn = sparse.csr_matrix((data_attn, plan.indices, indptr_pm),
                               shape=(p * m, b * h * w * m))
    out = (s_attn @ flat).reshape(p, m, ch)

    def vjp(g):
        g2 = g.reshape(p * m, ch)
        if feats.requires_grad:
            T._accum(feats, (s_attn.T @ g2).reshape(feats.shape), own=True)
        g3 = g2.reshape(p * m, 1, ch)
        if attn.requires_grad:
            samples = (plan_matrix(plan, plan.weights) @ flat).reshape(p * m, k, ch)
            dattn = np.einsum("xkc,xoc->xk", samples, g3).reshape(p, m, k)
            if attn.grad is None:
                attn.grad = np.zeros_like(attn.data)
            np.add.at(attn.grad, qry_idx, dattn)
        if offsets.requires_grad:
            dwdr, dwdc = slopes_reference(plan, pts)
            sr = plan_matrix(plan, dwdr) @ flat
            sc = plan_matrix(plan, dwdc) @ flat
            dr = np.einsum("xkc,xoc->xk", sr.reshape(p * m, k, ch), g3).reshape(p, m, k)
            dc = np.einsum("xkc,xoc->xk", sc.reshape(p * m, k, ch), g3).reshape(p, m, k)
            dpts = np.stack([dr * attnp, dc * attnp], axis=-1)
            if offsets.grad is None:
                offsets.grad = np.zeros_like(offsets.data)
            np.add.at(offsets.grad, qry_idx, dpts)

    return T._make(out, "deform_attend", (feats, offsets, attn), vjp)


def take_rows_reference(a: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.intp)

    def vjp(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        np.add.at(a.grad, idx, g)

    return T._make(a.data[idx], "take_rows", (a,), vjp)


def scatter_rows_reference(rows: Tensor, idx, n_out: int) -> Tensor:
    data = np.zeros((n_out, rows.shape[1]))
    np.add.at(data, idx, rows.data)

    def vjp(g):
        T._accum(rows, g[idx])

    return T._make(data, "scatter_rows", (rows,), vjp)


def install(monkeypatch):
    """Route every scatter on the model's backward path through the references."""
    import bevkit.attention as attention

    monkeypatch.setattr(T, "deform_attend", deform_attend_reference)
    monkeypatch.setattr(T, "take_rows", take_rows_reference)
    monkeypatch.setattr(attention, "_scatter_rows", scatter_rows_reference)
