"""Set-prediction detection head: plain-attention decoder over the fused BEV
tokens, optimal bipartite matching, and the matched classification+box loss.

Boxes are parameterized as (cx, cy, w, l, yaw): centers decode through a
sigmoid mapped onto the BEV extent, sizes through exp (always positive), and
yaw through atan2 of a regressed (sin, cos) pair so there is no wrap-around
seam. Matching runs on detached values; gradients flow only through the loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .geometry import BEVGridSpec
from .synthscene import SceneBox
from .tensor import Parameter, Tensor

# DETR's loss weights (Carion et al., arXiv 2005.12872): the class and box
# terms of the matching cost and the loss, and the no-object class's weight
LAMBDA_CLS, LAMBDA_BOX, BACKGROUND_WEIGHT = 1.0, 2.0, 0.1


@dataclass
class BoxPrediction:
    cx: float
    cy: float
    w: float
    l: float
    yaw: float
    class_logits: np.ndarray  # length C, last entry = background

    def class_probs(self) -> np.ndarray:
        e = np.exp(self.class_logits - self.class_logits.max())
        return e / e.sum()

    def class_and_score(self) -> Tuple[int, float]:
        """(class_id, score) from one softmax of the class logits."""
        probs = self.class_probs()[:-1]
        j = int(probs.argmax())
        return j, float(probs[j])


class DecoderParams:
    """Object queries, decoder layers (softmax cross-attention + FFN, post-norm),
    and the class / box prediction heads."""

    def __init__(self, n_obj: int, channels: int, n_classes: int, n_layers: int,
                 rng: np.random.Generator):
        self.n_obj = n_obj
        self.channels = channels
        self.n_classes = n_classes  # includes background as the last class
        n = channels
        s = 1.0 / np.sqrt(n)
        self.obj_embed = Parameter("decoder.obj_embed", rng.uniform(-1.0, 1.0, (n_obj, n)))
        self.layers = []
        for i in range(n_layers):
            pre = f"decoder.layer{i}"
            layer = {
                "wq": Parameter(f"{pre}.attn.wq", rng.uniform(-s, s, (n, n))),
                "bq": Parameter(f"{pre}.attn.bq", np.zeros(n)),
                "wk": Parameter(f"{pre}.attn.wk", rng.uniform(-s, s, (n, n))),
                "bk": Parameter(f"{pre}.attn.bk", np.zeros(n)),
                "wv": Parameter(f"{pre}.attn.wv", rng.uniform(-s, s, (n, n))),
                "bv": Parameter(f"{pre}.attn.bv", np.zeros(n)),
                "wo": Parameter(f"{pre}.attn.wo", rng.uniform(-s, s, (n, n))),
                "bo": Parameter(f"{pre}.attn.bo", np.zeros(n)),
                "ffn_w1": Parameter(f"{pre}.ffn.w1", rng.uniform(-s, s, (n, 4 * n))),
                "ffn_b1": Parameter(f"{pre}.ffn.b1", np.zeros(4 * n)),
                "ffn_w2": Parameter(f"{pre}.ffn.w2", rng.uniform(-0.5 * s, 0.5 * s, (4 * n, n))),
                "ffn_b2": Parameter(f"{pre}.ffn.b2", np.zeros(n)),
                "n1_gain": Parameter(f"{pre}.norm1.gain", np.ones(n)),
                "n1_shift": Parameter(f"{pre}.norm1.shift", np.zeros(n)),
                "n2_gain": Parameter(f"{pre}.norm2.gain", np.ones(n)),
                "n2_shift": Parameter(f"{pre}.norm2.shift", np.zeros(n)),
            }
            self.layers.append(layer)
        self.cls_w = Parameter("decoder.class_head.weight", rng.uniform(-s, s, (n, n_classes)))
        self.cls_b = Parameter("decoder.class_head.bias", np.zeros(n_classes))
        self.box_w1 = Parameter("decoder.box_head.w1", rng.uniform(-s, s, (n, n)))
        self.box_b1 = Parameter("decoder.box_head.b1", np.zeros(n))
        self.box_w2 = Parameter("decoder.box_head.w2", rng.uniform(-s, s, (n, 6)))
        self.box_b2 = Parameter("decoder.box_head.b2", np.zeros(6))

    def parameters(self) -> List[Parameter]:
        ps = [self.obj_embed]
        for layer in self.layers:
            ps.extend(layer[k] for k in sorted(layer))
        ps += [self.cls_w, self.cls_b, self.box_w1, self.box_b1, self.box_w2, self.box_b2]
        return ps


def decode_raw(fused_tokens: Tensor, params: DecoderParams):
    """Run the decoder; returns (class_logits [n_obj,C], box_raw [n_obj,6]).

    box_raw columns: (dx, dy, log w, log l, sin_raw, cos_raw).
    """
    n = params.channels
    if fused_tokens.shape[-1] != n:
        raise ShapeError(
            f"decode: fused width {fused_tokens.shape[-1]} != decoder width {n}"
        )
    x = params.obj_embed.tensor
    scale = Tensor(1.0 / np.sqrt(n))
    for layer in params.layers:
        q = T.linear(x, layer["wq"].tensor, layer["bq"].tensor)
        k = T.linear(fused_tokens, layer["wk"].tensor, layer["bk"].tensor)
        v = T.linear(fused_tokens, layer["wv"].tensor, layer["bv"].tensor)
        scores = T.mul(T.matmul(q, T.transpose2d(k)), scale)
        attn = T.softmax_lastaxis(scores)
        gathered = T.matmul(attn, v)
        out = T.linear(gathered, layer["wo"].tensor, layer["bo"].tensor)
        x = T.residual_layer_norm(x, out, layer["n1_gain"].tensor, layer["n1_shift"].tensor)
        ff = T.ffn(x, layer["ffn_w1"].tensor, layer["ffn_b1"].tensor,
                   layer["ffn_w2"].tensor, layer["ffn_b2"].tensor)
        x = T.residual_layer_norm(x, ff, layer["n2_gain"].tensor, layer["n2_shift"].tensor)
    logits = T.linear(x, params.cls_w.tensor, params.cls_b.tensor)
    box_raw = T.ffn(x, params.box_w1.tensor, params.box_b1.tensor,
                    params.box_w2.tensor, params.box_b2.tensor)
    return logits, box_raw


def decode_boxes(box_raw: Tensor):
    """Differentiable box fields from the raw head output [n,6], taken as
    three [n,2] blocks: sigmoid of the first, exp of the second, and the
    third as it is.

    Returns (center_norm [n,2] in [0,1], sizes [n,2] meters, sincos [n,2]).
    """
    center_raw, size_raw, sincos = T.split_lastaxis(box_raw, [2, 2, 2])
    return T.sigmoid(center_raw), T.exp(size_raw), sincos


def decode(fused: Tensor, params: DecoderParams, spec: BEVGridSpec) -> List[BoxPrediction]:
    """Fused map [H,W,N] -> exactly n_obj box predictions."""
    h, w, n = fused.shape
    tokens = T.reshape(fused, (h * w, n))
    logits, box_raw = decode_raw(tokens, params)
    center_norm, sizes, sincos = decode_boxes(box_raw)
    x_min, x_max, y_min, y_max = spec.extent
    cx = x_min + center_norm.data[:, 0] * (x_max - x_min)
    cy = y_min + center_norm.data[:, 1] * (y_max - y_min)
    yaw = np.arctan2(sincos.data[:, 0], sincos.data[:, 1])
    preds = []
    for i in range(params.n_obj):
        preds.append(BoxPrediction(
            cx=float(cx[i]), cy=float(cy[i]),
            w=float(sizes.data[i, 0]), l=float(sizes.data[i, 1]),
            yaw=float(yaw[i]), class_logits=logits.data[i].copy(),
        ))
    return preds


# ---------------------------------------------------------------------------
# bipartite matching


def _solve_lap(cost):
    """Min-cost assignment of every row to a distinct column (rows <= cols) by
    shortest augmenting paths with potentials.

    Returns (total, assign row->col, u, v); (u, v) are optimal dual potentials,
    so cost[i][j] - u[i] - v[j] >= 0 with equality on every matched edge.
    """
    n = len(cost)
    m = len(cost[0]) if n else 0
    inf = float("inf")
    u = [0.0] * n
    v = [0.0] * (m + 1)
    col_row = [-1] * (m + 1)  # column -> matched row; m is the virtual column
    for i in range(n):
        col_row[m] = i
        j0 = m
        minv = [inf] * m
        way = [m] * m
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = col_row[j0]
            row = cost[i0]
            ui = u[i0]
            delta = inf
            j1 = -1
            for j in range(m):
                if not used[j]:
                    cur = row[j] - ui - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(m):
                if used[j]:
                    u[col_row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            u[col_row[m]] += delta
            v[m] -= delta
            j0 = j1
            if col_row[j0] == -1:
                break
        while j0 != m:
            j1 = way[j0]
            col_row[j0] = col_row[j1]
            j0 = j1
    assign = [-1] * n
    total = 0.0
    for j in range(m):
        if col_row[j] != -1:
            assign[col_row[j]] = j
            total += cost[col_row[j]][j]
    return total, assign, u, v


def hungarian_match(cost: np.ndarray) -> List[int]:
    """Minimum-cost injective assignment of ground truths to predictions.

    cost is [n_obj, n_gt]; returns assign[j] = prediction index for gt j.
    Among cost-minimal assignments the lexicographically smallest index tuple
    wins, two totals counting as equal within 1e-9 * (1 + |total|) of the
    optimum: gts are fixed in order, each to the smallest free prediction
    that leaves an assignment of the rest within that tolerance.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ShapeError(f"hungarian_match: cost must be 2-D, got {cost.shape}")
    n_obj, n_gt = cost.shape
    if n_gt == 0:
        return []
    if n_gt > n_obj:
        raise ContractError(f"more ground truths ({n_gt}) than predictions ({n_obj})")
    if not np.all(np.isfinite(cost)):
        raise ContractError("hungarian_match: costs must be finite")

    work = cost.T  # rows = gts, cols = predictions
    assign: List[int] = []
    free = list(range(n_obj))
    for j in range(n_gt):
        sub = [[float(work[r, c]) for c in free] for r in range(j, n_gt)]
        total, sub_assign, u, v = _solve_lap(sub)
        tol = 1e-9 * (1.0 + abs(total))
        # only zero-reduced-cost edges can appear in an optimal assignment
        row0 = sub[0]
        chosen_local = sub_assign[0]
        for c in range(chosen_local):
            if row0[c] - u[0] - v[c] > tol:
                continue
            if len(sub) == 1:
                chosen_local = c
                break
            rest_cost = [[row[k] for k in range(len(free)) if k != c] for row in sub[1:]]
            rest, _, _, _ = _solve_lap(rest_cost)
            if row0[c] + rest <= total + tol:
                chosen_local = c
                break
        chosen = free[chosen_local]
        assign.append(chosen)
        free.remove(chosen)
    return assign


# ---------------------------------------------------------------------------
# loss


def box_targets(gts: Sequence[SceneBox], spec: BEVGridSpec) -> np.ndarray:
    """Targets aligned with the regression space: normalized center, sizes,
    (sin, cos) of yaw. Shape [n_gt, 6]."""
    x_min, x_max, y_min, y_max = spec.extent
    out = np.zeros((len(gts), 6))
    for j, g in enumerate(gts):
        out[j] = [
            (g.cx - x_min) / (x_max - x_min),
            (g.cy - y_min) / (y_max - y_min),
            g.w, g.l, np.sin(g.yaw), np.cos(g.yaw),
        ]
    return out


def matching_cost(logits: np.ndarray, boxes6: np.ndarray, targets: np.ndarray,
                  gt_classes: np.ndarray) -> np.ndarray:
    """Detached [n_obj, n_gt] cost: -p(gt class) weighted by LAMBDA_CLS plus
    LAMBDA_BOX times the L1 distance in regression space."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    cls_cost = -probs[:, gt_classes]  # [n_obj, n_gt]
    l1 = np.abs(boxes6[:, None, :] - targets[None, :, :]).sum(axis=2)
    return LAMBDA_CLS * cls_cost + LAMBDA_BOX * l1


def set_loss(logits: Tensor, box_raw: Tensor, gts: Sequence[SceneBox],
             spec: BEVGridSpec) -> Tensor:
    """Cross-entropy over all queries (matched -> gt class, rest -> background,
    background weighted by BACKGROUND_WEIGHT) plus LAMBDA_BOX * L1 on matched
    boxes, averaged per scene; the matching cost weighs its class term by
    LAMBDA_CLS. Empty gt list reduces to pure background classification."""
    n_obj, n_classes = logits.shape
    bg = n_classes - 1
    center_norm, sizes, sincos = decode_boxes(box_raw)
    boxes6 = T.concat_lastaxis([center_norm, sizes, sincos])

    targets_cls = np.full(n_obj, bg, dtype=np.intp)
    box_term = Tensor(0.0)
    if len(gts):
        tgt = box_targets(gts, spec)
        gt_classes = np.array([g.class_id for g in gts], dtype=np.intp)
        if gt_classes.min() < 0 or gt_classes.max() >= bg:
            raise ContractError(f"set_loss: class ids must lie in [0, {bg}) ({bg} is "
                                f"background), got {sorted(set(gt_classes.tolist()))}")
        cost = matching_cost(logits.data, boxes6.data, tgt, gt_classes)
        assign = hungarian_match(cost)
        pred_idx = np.asarray(assign, dtype=np.intp)
        targets_cls[pred_idx] = gt_classes
        matched = T.take_rows(boxes6, pred_idx)
        diff = T.absval(T.sub(matched, Tensor(tgt)))
        box_term = T.mul(T.tsum(diff), Tensor(1.0 / len(gts)))

    logp = T.log_softmax_lastaxis(logits)
    onehot = np.zeros((n_obj, n_classes))
    onehot[np.arange(n_obj), targets_cls] = 1.0
    weights = np.where(targets_cls == bg, BACKGROUND_WEIGHT, 1.0)
    picked = T.tsum(T.mul(logp, Tensor(onehot * weights[:, None])))
    ce = T.mul(T.neg(picked), Tensor(1.0 / weights.sum()))
    return T.add(ce, T.mul(box_term, Tensor(LAMBDA_BOX)))
