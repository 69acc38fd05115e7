"""Naive, loop-everything references used as oracles against the vectorized
implementations. Deliberately written with explicit per-query / per-head /
per-point loops and scalar bilinear interpolation, sharing no code with the
package internals beyond numpy."""

from __future__ import annotations

import numpy as np


def bilinear_scalar(feat: np.ndarray, r: float, c: float) -> np.ndarray:
    """One-point bilinear interpolation with zero padding."""
    h, w, _ = feat.shape
    r0, c0 = int(np.floor(r)), int(np.floor(c))
    out = np.zeros(feat.shape[2])
    for dr in (0, 1):
        for dc in (0, 1):
            ri, ci = r0 + dr, c0 + dc
            wr = (r - r0) if dr else (1.0 - (r - r0))
            wc = (c - c0) if dc else (1.0 - (c - c0))
            if 0 <= ri < h and 0 <= ci < w:
                out += wr * wc * feat[ri, ci]
    return out


def deform_attn_naive(queries: np.ndarray, ref_pts: np.ndarray, feat: np.ndarray,
                      offset_w, offset_b, weight_w, weight_b, value_w, out_w,
                      valid=None) -> np.ndarray:
    """Triple-loop deformable attention: query x head x point."""
    t, n = queries.shape
    heads = len(value_w)
    k = offset_w.shape[1] // (heads * 2)
    out = np.zeros((t, n))
    for ti in range(t):
        if valid is not None and not valid[ti]:
            continue
        q = queries[ti]
        off = (q @ offset_w + offset_b).reshape(heads, k, 2)
        logits = (q @ weight_w + weight_b).reshape(heads, k)
        head_cat = []
        for m in range(heads):
            e = np.exp(logits[m] - logits[m].max())
            a = e / e.sum()
            acc = np.zeros(value_w[m].shape[1])
            for p in range(k):
                pt = ref_pts[ti] + off[m, p]
                sampled = bilinear_scalar(feat, pt[0], pt[1])
                acc += a[p] * (sampled @ value_w[m])
            head_cat.append(acc)
        out[ti] = np.concatenate(head_cat) @ out_w
    return out


def hungarian_brute_force(cost: np.ndarray):
    """Exhaustive minimum-cost injective assignment gt -> prediction.

    Iterates candidate assignments in lexicographic order and keeps the first
    strict minimum, so ties resolve to the lexicographically smallest tuple.
    """
    from itertools import permutations

    n_obj, n_gt = cost.shape
    best, best_assign = np.inf, None
    for perm in permutations(range(n_obj), n_gt):
        total = sum(cost[perm[j], j] for j in range(n_gt))
        if total < best:
            best, best_assign = total, perm
    return list(best_assign), best


def average_precision_naive(preds, gts, radius: float) -> float:
    """Center-distance AP for one class with explicit loops.

    preds: (scene, score, x, y); gts: scene -> [(x, y)]. Predictions are
    taken by descending score (ties by scene, then list position); each takes
    the nearest still-free ground truth of its scene if that lies within
    `radius`. AP sums, at each true positive, the recall step times the best
    precision at any later rank. No ground truths: 1 without predictions,
    else 0.
    """
    n_pos = sum(len(v) for v in gts.values())
    if n_pos == 0:
        return 1.0 if len(preds) == 0 else 0.0
    order = sorted(range(len(preds)), key=lambda i: (-preds[i][1], preds[i][0], i))
    taken = {scene: [False] * len(centers) for scene, centers in gts.items()}
    hits = []
    for i in order:
        scene, _, x, y = preds[i]
        best, best_d = None, None
        for j, (gx, gy) in enumerate(gts.get(scene, [])):
            if taken[scene][j]:
                continue
            d = float(np.hypot(gx - x, gy - y))
            if best_d is None or d < best_d:
                best, best_d = j, d
        hit = best is not None and best_d <= radius
        if hit:
            taken[scene][best] = True
        hits.append(hit)
    precision, recall = [], []
    tp = 0
    for k, hit in enumerate(hits):
        tp += hit
        precision.append(tp / (k + 1))
        recall.append(tp / n_pos)
    ap, prev = 0.0, 0.0
    for k, hit in enumerate(hits):
        if hit:
            ap += (recall[k] - prev) * max(precision[k:])
            prev = recall[k]
    return ap
