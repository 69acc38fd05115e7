"""Single-scale multi-head deformable attention and the encoder layer.

Each query predicts, per head, K sampling offsets around its reference point
and K softmax-normalized weights. Head m samples its value map at the K
points and weights the samples; heads are concatenated and output-projected.

The value projection happens before sampling. ``deform_attn_multi`` projects
each distinct feature map [H,W,value_dim] once, with all M heads' value
weights side by side in one matmul, to a value map [H,W,M*N/M] whose
channels are M blocks, one per head; ``tensor.deform_attend`` then samples
head m from block m only. Bilinear sampling, attention weighting and the sum
over sources are linear, and the value projection is linear and bias-free,
so projecting before sampling equals projecting the sampled values (as
Deformable DETR's formula reads) in real arithmetic. In float64 the two
orders round differently, by about 1e-15 relative. Projecting first makes
every sparse product N/M wide instead of value_dim wide.

One evaluation aggregates many (source map, reference set) pairs at once:
offsets and weights depend only on the query, so they are computed once and
shared across sources, and invalid (source, query) pairs contribute exactly
zero. Sources that share one feature-map Tensor, such as the D pillar levels
of a camera view, share one projected map. ``tensor.deform_attend`` attends
one row per visible (source, query) pair, scales it by the source's
multiplicity, and sums the rows per query with one sparse product, all in one
tape op, so no pair row outlives the forward pass. When the pairs are the
queries in order, as in self-attention and LiDAR cross-attention (one map, no
visibility mask), there is nothing to sum and the rows are used as they are.

Value and output projections carry no bias; this keeps "sum over sources of
per-source attention outputs" exactly equal to "output projection of the
summed per-head features", which is how the batched path evaluates it.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .tensor import Parameter, Tensor


class DeformAttnParams:
    """Projection weights for one deformable attention block.

    heads * (channels/heads) value projections of width value_dim -> N/M,
    offset projection N -> M*K*2, weight projection N -> M*K, output
    projection N -> N. Offset and weight projections start at zero so the
    block begins as uniform attention at the reference points.
    """

    def __init__(self, prefix: str, heads: int, points: int, channels: int,
                 value_dim: int, rng: np.random.Generator):
        if channels % heads:
            raise ContractError(f"channels {channels} not divisible by heads {heads}")
        if points < 1:
            raise ContractError(f"points_per_head must be >= 1, got {points}")
        self.heads = heads
        self.points = points
        self.channels = channels
        self.value_dim = value_dim
        head_dim = channels // heads
        s = 1.0 / np.sqrt(channels)
        sv = 1.0 / np.sqrt(value_dim)
        self.offset_w = Parameter(f"{prefix}.offset.weight", np.zeros((channels, heads * points * 2)))
        self.offset_b = Parameter(f"{prefix}.offset.bias", np.zeros(heads * points * 2))
        self.weight_w = Parameter(f"{prefix}.weight.weight", np.zeros((channels, heads * points)))
        self.weight_b = Parameter(f"{prefix}.weight.bias", np.zeros(heads * points))
        self.value_w = [
            Parameter(f"{prefix}.value{m}.weight", rng.uniform(-sv, sv, (value_dim, head_dim)))
            for m in range(heads)
        ]
        self.out_w = Parameter(f"{prefix}.out.weight", rng.uniform(-s, s, (channels, channels)))

    def parameters(self) -> List[Parameter]:
        return [self.offset_w, self.offset_b, self.weight_w, self.weight_b,
                *self.value_w, self.out_w]


class EncoderLayerParams:
    """Self-attention, cross-attention, FFN (N -> 4N -> N, relu) and the three
    post-norm gain/shift pairs of one encoder layer."""

    def __init__(self, prefix: str, heads: int, points: int, channels: int,
                 value_dim: int, rng: np.random.Generator):
        self.channels = channels
        self.self_attn = DeformAttnParams(f"{prefix}.self_attn", heads, points, channels, channels, rng)
        self.cross_attn = DeformAttnParams(f"{prefix}.cross_attn", heads, points, channels, value_dim, rng)
        hidden = 4 * channels
        s1 = 1.0 / np.sqrt(channels)
        s2 = 1.0 / np.sqrt(hidden)
        self.ffn_w1 = Parameter(f"{prefix}.ffn.w1", rng.uniform(-s1, s1, (channels, hidden)))
        self.ffn_b1 = Parameter(f"{prefix}.ffn.b1", np.zeros(hidden))
        self.ffn_w2 = Parameter(f"{prefix}.ffn.w2", rng.uniform(-s2, s2, (hidden, channels)))
        self.ffn_b2 = Parameter(f"{prefix}.ffn.b2", np.zeros(channels))
        self.norms = []
        for i in (1, 2, 3):
            self.norms.append((Parameter(f"{prefix}.norm{i}.gain", np.ones(channels)),
                               Parameter(f"{prefix}.norm{i}.shift", np.zeros(channels))))

    def parameters(self) -> List[Parameter]:
        ps = self.self_attn.parameters() + self.cross_attn.parameters()
        ps += [self.ffn_w1, self.ffn_b1, self.ffn_w2, self.ffn_b2]
        for g, b in self.norms:
            ps += [g, b]
        return ps


def _query_offsets_weights(queries: Tensor, params: DeformAttnParams):
    """Per-query sampling offsets [T,M,K,2] and softmaxed weights [T,M,K]."""
    t = queries.shape[0]
    m, k = params.heads, params.points
    off = T.linear(queries, params.offset_w.tensor, params.offset_b.tensor)
    off = T.reshape(off, (t, m, k, 2))
    logits = T.linear(queries, params.weight_w.tensor, params.weight_b.tensor)
    attn = T.softmax_lastaxis(T.reshape(logits, (t, m, k)))
    return off, attn


def deform_attn_multi(queries: Tensor, sources: Sequence, params: DeformAttnParams) -> Tensor:
    """Sum of deformable attention over many (feature map, refs, valid) sources.

    sources: list of (feat Tensor [Hf,Wf,Vd], ref_pts [T,2], valid [T] bool)
    tuples, optionally with a fourth integer multiplicity (the source counted
    that many times). All maps must share one shape. Offsets/weights are
    computed once from the queries; invalid (source, query) pairs are skipped,
    which equals the masked dense sum bit for bit because their contribution
    is exactly zero. Each distinct map Tensor is value-projected once, however
    many sources list it; a lone map is projected in place, without a stacked
    copy.

    The attended rows, one per visible (source, query) pair, are weighted
    by their source's multiplicity and summed per query inside
    ``tensor.deform_attend``; a sum of one pair per query in query order is
    no sum at all, and is skipped there.
    """
    if not sources:
        raise ContractError("deform_attn_multi: no sources")
    sources = [s if len(s) == 4 else (*s, 1) for s in sources]
    t = queries.shape[0]
    shape0 = sources[0][0].shape
    for f, _, _, _ in sources:
        if f.shape != shape0:
            raise ShapeError(f"deform_attn_multi: map shapes differ: {f.shape} vs {shape0}")
    if len(shape0) != 3 or shape0[2] != params.value_dim:
        raise ShapeError(
            f"deform_attn_multi: maps must be [H,W,{params.value_dim}], got {shape0}"
        )
    off, attn = _query_offsets_weights(queries, params)

    maps = []
    slot_of = {}  # id of a map Tensor -> its index in maps
    pair_map, pair_query, pair_ref, pair_mult = [], [], [], []
    for f, ref, vis, mult in sources:
        ref = np.asarray(ref)
        if ref.shape != (t, 2):
            raise ShapeError(f"deform_attn_multi: ref_pts must be [{t},2], got {ref.shape}")
        slot = slot_of.setdefault(id(f), len(maps))
        if slot == len(maps):
            maps.append(f)
        qidx = np.nonzero(np.asarray(vis))[0] if vis is not None else np.arange(t)
        pair_map.append(np.full(qidx.shape, slot, dtype=np.intp))
        pair_query.append(qidx)
        pair_ref.append(ref[qidx])
        pair_mult.append(np.full(qidx.shape, float(mult)))
    qry_idx = np.concatenate(pair_query)
    mults = np.concatenate(pair_mult)

    width = params.channels  # M blocks of N/M, one per head
    if not qry_idx.size:
        return T.matmul(Tensor(np.zeros((t, width))), params.out_w.tensor)
    hf, wf, vd = shape0
    value_w = T.concat_lastaxis([w.tensor for w in params.value_w])  # [Vd, M*N/M]
    if len(maps) == 1:
        cells = T.reshape(maps[0], (hf * wf, vd))  # a view: no copy of a lone map
    else:
        cells = T.reshape(T.stack_first(maps), (len(maps) * hf * wf, vd))
    values = T.reshape(T.matmul(cells, value_w), (len(maps), hf, wf, width))
    del cells  # unless the tape holds it, freed before sampling
    weight = mults if np.any(mults != 1.0) else None
    attended = T.deform_attend(values, np.concatenate(pair_map), np.concatenate(pair_ref),
                               off, attn, qry_idx, weight)
    return T.matmul(T.reshape(attended, (t, width)), params.out_w.tensor)


def cross_attend(x: Tensor, sources: Sequence, params: DeformAttnParams,
                 normalize_by_hits: bool = False) -> Tensor:
    """Cross-attention term of an encoder layer: deform_attn_multi over the
    sources, divided per query by its number of visible sources (counting
    multiplicity, at least 1) when normalize_by_hits is set."""
    out = deform_attn_multi(x, sources, params)
    if not normalize_by_hits:
        return out
    hits = np.zeros(x.shape[0])
    for src in sources:
        vis = src[2]
        mult = src[3] if len(src) == 4 else 1
        hits += (np.asarray(vis, dtype=np.float64) if vis is not None else 1.0) * mult
    return T.mul(out, Tensor(1.0 / np.maximum(hits, 1.0)[:, None]))


def encoder_layer(tokens: Tensor, grid_hw, self_refs: np.ndarray,
                  sources: Sequence, params: EncoderLayerParams,
                  normalize_by_hits: bool = False) -> Tensor:
    """One encoder layer over (H*W) BEV tokens.

    tokens: [T,N]; grid_hw: (H, W) with T = H*W; self_refs: [T,2] of each
    token's own cell (row, col); sources: cross-attention inputs as for
    deform_attn_multi. Post-norm residual order: self-attn, cross-attn, ffn.
    """
    h, w = grid_hw
    t, n = tokens.shape
    if t != h * w:
        raise ContractError(f"encoder_layer: {t} tokens != grid {h}x{w}")
    if n != params.channels:
        raise ShapeError(f"encoder_layer: token width {n} != layer width {params.channels}")

    token_map = T.reshape(tokens, (h, w, n))
    sa = deform_attn_multi(tokens, [(token_map, self_refs, None)], params.self_attn)
    g1, b1 = params.norms[0]
    x1 = T.residual_layer_norm(tokens, sa, g1.tensor, b1.tensor)

    ca = cross_attend(x1, sources, params.cross_attn, normalize_by_hits)
    g2, b2 = params.norms[1]
    x2 = T.residual_layer_norm(x1, ca, g2.tensor, b2.tensor)

    ff = T.ffn(x2, params.ffn_w1.tensor, params.ffn_b1.tensor,
               params.ffn_w2.tensor, params.ffn_b2.tensor)
    g3, b3 = params.norms[2]
    return T.residual_layer_norm(x2, ff, g3.tensor, b3.tensor)
