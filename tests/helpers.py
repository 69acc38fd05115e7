"""Shared test utilities: central finite differences and gradient checks."""

from __future__ import annotations

import numpy as np

from bevkit.tensor import Tensor, backward


def numeric_grad(f, arrays, which, h=1e-5):
    """Central-difference gradient of scalar f(arrays) w.r.t. arrays[which]."""
    base = [a.copy() for a in arrays]
    g = np.zeros_like(base[which])
    flat = base[which].reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(base)
        flat[i] = orig - h
        fm = f(base)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a, n):
    """Gradient mismatch: |a-n| relative to magnitude, with an absolute floor
    so exactly-zero gradients compare cleanly."""
    denom = max(abs(a), abs(n))
    if denom < 1e-7:
        return 0.0 if abs(a - n) < 1e-8 else 1.0
    return abs(a - n) / denom


def check_grads(build_loss, arrays, requires=None, h=1e-5, tol=1e-4):
    """Assert analytic gradients of build_loss match central differences.

    build_loss(tensors) -> scalar Tensor; arrays are the leaf values. Returns
    the worst relative error seen.
    """
    requires = requires if requires is not None else [True] * len(arrays)
    tensors = [Tensor(a, requires_grad=r) for a, r in zip(arrays, requires)]
    loss = build_loss(tensors)
    backward(loss)

    def f(vals):
        ts = [Tensor(v) for v in vals]
        return float(build_loss(ts).data.reshape(-1)[0])

    worst = 0.0
    for k, (t, r) in enumerate(zip(tensors, requires)):
        if not r:
            continue
        num = numeric_grad(f, arrays, k, h=h)
        ana = t.grad if t.grad is not None else np.zeros_like(t.data)
        for a, n in zip(ana.reshape(-1), num.reshape(-1)):
            e = rel_err(a, n)
            worst = max(worst, e)
            assert e < tol, f"grad mismatch on input {k}: analytic {a}, numeric {n}"
    return worst


def source_pairs(sources, n_maps, scale):
    """Pairs of sources (map index, refs [T,2], visible [T] bool or None):
    each source's visible queries in ascending order, one source after the
    other, with the per-query scale [T]."""
    from bevkit.attention import Pairs

    map_idx, base, qry = [], [], []
    for m, refs, visible in sources:
        q = np.arange(len(scale)) if visible is None else np.nonzero(visible)[0]
        map_idx.append(np.full(q.size, m))
        base.append(np.asarray(refs)[q])
        qry.append(q)
    return Pairs(np.concatenate(map_idx), np.concatenate(base), np.concatenate(qry), n_maps,
                 scale)


def grid_pairs(h, w):
    """Self-attention pairs of an h x w token grid: each token at its own cell."""
    from bevkit.attention import Pairs

    r, c = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    return Pairs.one_map(np.stack([r.reshape(-1), c.reshape(-1)], axis=1).astype(np.float64),
                         np.ones(h * w))


def encoder_layer(tokens, grid_hw, self_pairs, maps, pairs, params):
    """One encoder layer over (H*W) tokens, as ``encoders.encode_bev`` runs
    it: ``map_half`` of ``query_half``."""
    from bevkit.attention import map_half, query_half

    return map_half(*query_half(tokens, grid_hw, self_pairs, params), maps, pairs, params)
