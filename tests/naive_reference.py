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


def softmax_naive(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, one row at a time: the maximum by
    comparisons, exp of each shifted element, then a left-to-right sum from
    0.0 that every element is divided by."""
    x = np.asarray(x, dtype=np.float64)
    k = x.shape[-1]
    rows = x.reshape(-1, k)
    out = np.empty_like(rows)
    for r, row in enumerate(rows):
        top = row[0]
        for v in row[1:]:
            if v > top:
                top = v
        e = [np.exp(v - top) for v in row]
        total = 0.0
        for v in e:
            total += v
        for j in range(k):
            out[r, j] = e[j] / total
    return out.reshape(x.shape)


def softmax_vjp_naive(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Softmax backward from the output y and its grad g, one row at a time:
    dot = left-to-right sum from 0.0 of g*y, then (g - dot) * y per element."""
    k = y.shape[-1]
    ys, gs = y.reshape(-1, k), g.reshape(-1, k)
    out = np.empty_like(ys)
    for r in range(ys.shape[0]):
        dot = 0.0
        for j in range(k):
            dot += gs[r, j] * ys[r, j]
        for j in range(k):
            out[r, j] = (gs[r, j] - dot) * ys[r, j]
    return out.reshape(y.shape)


def scatter_rows_naive(rows: np.ndarray, idx, n_out: int) -> np.ndarray:
    """Per-pair loop: out[idx[p], c] += rows[p, c] for p in order, from zeros."""
    out = np.zeros((n_out, rows.shape[1]))
    for p, q in enumerate(idx):
        for c in range(rows.shape[1]):
            out[q, c] += rows[p, c]
    return out


def camera_pairs_naive(projections, n_queries: int):
    """Per-(view, level, query) loop over the views' (uv [D,H,W,2], visible
    [D,H,W]): one pair per visible entry, in loop order, as (view, (row, col)
    = (v, u), query), plus each query's count of pairs. Returns (map_idx,
    base_pts [P,2], qry_idx, hits)."""
    map_idx, base, qry = [], [], []
    hits = np.zeros(n_queries)
    for view, (uv, visible) in enumerate(projections):
        for level in range(visible.shape[0]):
            uv_level = uv[level].reshape(n_queries, 2)
            visible_level = visible[level].reshape(n_queries)
            for q in range(n_queries):
                if visible_level[q]:
                    map_idx.append(view)
                    base.append((uv_level[q, 1], uv_level[q, 0]))
                    qry.append(q)
                    hits[q] += 1
    return (np.array(map_idx, dtype=np.intp), np.array(base, dtype=np.float64).reshape(-1, 2),
            np.array(qry, dtype=np.intp), hits)


def _box_corners_naive(box) -> np.ndarray:
    """8 corners [8,4] in homogeneous world coordinates, box base on the
    ground plane, exactly as the camera splats of render_cameras_naive
    project them."""
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    half = np.array([
        [+box.l / 2, +box.w / 2], [+box.l / 2, -box.w / 2],
        [-box.l / 2, +box.w / 2], [-box.l / 2, -box.w / 2],
    ])
    rot = np.array([[c, -s], [s, c]])
    xy = half @ rot.T + np.array([box.cx, box.cy])
    corners = np.zeros((8, 4))
    corners[:4, :2] = xy
    corners[4:, :2] = xy
    corners[:4, 2] = 0.0
    corners[4:, 2] = box.height
    corners[:, 3] = 1.0
    return corners


def render_cameras_naive(scene, rig, rng: np.random.Generator, sigma_cam: float) -> np.ndarray:
    """The camera renderer as first written: per view, every box's splat
    from a full-grid meshgrid exponent blended into an [H,W,3] image, far to
    near, then that view's noise from rng.normal."""
    v = len(rig)
    h_img, w_img = rig[0].image_h, rig[0].image_w
    images = np.zeros((v, h_img, w_img, 3))
    vv, uu = np.meshgrid(np.arange(h_img), np.arange(w_img), indexing="ij")
    for vi, cam in enumerate(rig):
        w2c = np.asarray(cam.world_to_cam)
        order = []
        for box in scene.boxes:
            center = w2c @ np.array([box.cx, box.cy, box.height / 2.0, 1.0])
            order.append((center[2], box))
        order.sort(key=lambda t: -t[0])  # far first
        img = images[vi]
        for depth, box in order:
            if depth < 0.5:
                continue
            pc = _box_corners_naive(box) @ w2c.T
            good = pc[:, 2] > 0.1
            if good.sum() < 4:
                continue
            us = cam.fx * pc[good, 0] / pc[good, 2] + cam.cx
            vs = cam.fy * pc[good, 1] / pc[good, 2] + cam.cy
            cu, cv = us.mean(), vs.mean()
            su = max(0.7, (us.max() - us.min()) / 4.0)
            sv = max(0.7, (vs.max() - vs.min()) / 4.0)
            if cu < -3 * su or cu > w_img - 1 + 3 * su or cv < -3 * sv or cv > h_img - 1 + 3 * sv:
                continue
            alpha = np.exp(-0.5 * (((uu - cu) / su) ** 2 + ((vv - cv) / sv) ** 2))
            color = np.zeros(3)
            color[box.class_id] = 0.35 + 0.65 * box.appearance
            img += alpha[:, :, None] * (color[None, None, :] - img)
        img += rng.normal(0.0, sigma_cam, img.shape)
    return images
