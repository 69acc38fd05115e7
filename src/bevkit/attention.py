"""Single-scale multi-head deformable attention and the encoder layer.

Each query predicts, per head, K sampling offsets around its reference point
and K softmax-normalized weights. Head m samples its value map at the K
points and weights the samples; heads are concatenated and output-projected.

Which (map, query, reference point) pairs a block samples, and how much
each query's sum over its pairs counts (its scale), is one ``Pairs`` value.
It depends only on the grid and the sensor geometry, so it is built once
(``encoders.camera_pairs`` per camera rig, ``BEVQuerySet.self_pairs`` per
grid) and every layer reuses it. Offsets and weights depend only on the
query, so all of its pairs share them.

``deform_attn_multi`` takes its B maps as one tensor [B,H,W,N] (the camera
backbone's V views, the one LiDAR map, or the token map [1,H,W,N] of
self-attention) and projects them before sampling, in one matmul with the
block's value weight [N, N], to value maps [B,H,W,N] whose channels are M
blocks of N/M, one per head; ``tensor.deform_attend`` samples
head m from block m only, sums the rows per query and scales each query's
sum in one tape op. Sampling, the sum and the scale are linear and the
value projection is linear and bias-free, so this equals projecting the
sampled values (Deformable DETR's order) in real arithmetic; in float64 the
two round differently, by about 1e-15 relative, and every sparse product is
N/M wide instead of N. The output projection is bias-free too, so
"sum over pairs of per-pair outputs" equals "output projection of the scaled
per-head sums", which is how it is evaluated: a query's scale applies before
the output projection, as BEVFormer's spatial cross-attention divides by
the hit count.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .tensor import Parameter, Tensor


class Pairs:
    """The (map, query, reference point) pairs one attention block samples:
    pair p has query qry_idx[p] sample map map_idx[p] around the (row, col)
    point base_pts[p]. A query's pairs are summed in pair order, which fixes
    the float sum, and the sum is then multiplied by scale[q] (None: by 1).
    The arrays are read-only copies, checked once, by ``tensor.pair_arrays``
    (ShapeError, or ContractError for an index out of range).
    """

    def __init__(self, map_idx, base_pts, qry_idx, n_maps: int, n_queries: int,
                 scale=None):
        own = []
        for a in T.pair_arrays(map_idx, base_pts, qry_idx, n_maps, n_queries, scale, "Pairs"):
            if a is not None:
                a = np.array(a)
                a.flags.writeable = False
            own.append(a)
        self.map_idx, self.base_pts, self.qry_idx, self.scale = own
        self.n_maps, self.n_queries = n_maps, n_queries

    @classmethod
    def one_map(cls, base_pts, scale=None) -> "Pairs":
        """Query q samples one map around base_pts[q]: T pairs in query order."""
        t = len(base_pts)
        return cls(np.zeros(t, dtype=np.intp), base_pts, np.arange(t), 1, t, scale)


class DeformAttnParams:
    """Projection weights for one deformable attention block.

    value projection N -> N whose columns are M blocks of N/M, one per
    head, offset projection N -> M*K*2, weight projection N -> M*K, output
    projection N -> N. Offset and weight projections start at zero so the
    block begins as uniform attention at the reference points.
    """

    def __init__(self, prefix: str, heads: int, points: int, channels: int,
                 rng: np.random.Generator):
        if channels % heads:
            raise ContractError(f"channels {channels} not divisible by heads {heads}")
        if points < 1:
            raise ContractError(f"points_per_head must be >= 1, got {points}")
        self.heads = heads
        self.points = points
        self.channels = channels
        head_dim = channels // heads
        s = 1.0 / np.sqrt(channels)
        self.offset_w = Parameter(f"{prefix}.offset.weight", np.zeros((channels, heads * points * 2)))
        self.offset_b = Parameter(f"{prefix}.offset.bias", np.zeros(heads * points * 2))
        self.weight_w = Parameter(f"{prefix}.weight.weight", np.zeros((channels, heads * points)))
        self.weight_b = Parameter(f"{prefix}.weight.bias", np.zeros(heads * points))
        self.value_w = Parameter(f"{prefix}.value.weight", np.concatenate(
            [rng.uniform(-s, s, (channels, head_dim)) for _ in range(heads)], axis=1))
        self.out_w = Parameter(f"{prefix}.out.weight", rng.uniform(-s, s, (channels, channels)))

    def parameters(self) -> List[Parameter]:
        return [self.offset_w, self.offset_b, self.weight_w, self.weight_b,
                self.value_w, self.out_w]


class EncoderLayerParams:
    """Self-attention, cross-attention, FFN (N -> 4N -> N, relu) and the three
    post-norm gain/shift pairs of one encoder layer."""

    def __init__(self, prefix: str, heads: int, points: int, channels: int,
                 rng: np.random.Generator):
        self.channels = channels
        self.self_attn = DeformAttnParams(f"{prefix}.self_attn", heads, points, channels, rng)
        self.cross_attn = DeformAttnParams(f"{prefix}.cross_attn", heads, points, channels, rng)
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


class Sampling(NamedTuple):
    """Where and how much a block's queries sample: offsets [T,M,K,2],
    softmaxed weights [T,M,K] and, when a caller keeps them for one set of
    pairs and maps' shape (``tensor.attend_blocks``), ``deform_attend``'s
    no-grad block matrices; None: built per call."""

    offsets: Tensor
    attn: Tensor
    blocks: Optional[tuple] = None


def _query_offsets_weights(queries: Tensor, params: DeformAttnParams):
    """Per-query sampling offsets [T,M,K,2] and softmaxed weights [T,M,K]."""
    t = queries.shape[0]
    m, k = params.heads, params.points
    off = T.linear(queries, params.offset_w.tensor, params.offset_b.tensor)
    off = T.reshape(off, (t, m, k, 2))
    logits = T.linear(queries, params.weight_w.tensor, params.weight_b.tensor)
    attn = T.softmax_lastaxis(T.reshape(logits, (t, m, k)))
    return off, attn


def deform_attn_multi(queries: Tensor, maps: Tensor, pairs: Pairs,
                      params: DeformAttnParams, sampling: Optional[Sampling] = None) -> Tensor:
    """Deformable attention of queries [T,N] over B maps [B,H,W,N],
    summed per query over its pairs and scaled by the pairs' scale before
    the output projection; a query without pairs gets zeros.
    sampling is the queries' own (``_query_offsets_weights``) when a caller
    has it already, and is computed from them otherwise.
    ContractError unless B is the pairs' map count; ShapeError for T not the
    pairs' query count or maps of another rank or width.
    """
    if maps.shape[:1] != (pairs.n_maps,):
        raise ContractError(f"deform_attn_multi: maps {maps.shape} for pairs over "
                            f"{pairs.n_maps} maps")
    t = queries.shape[0]
    if t != pairs.n_queries:
        raise ShapeError(f"deform_attn_multi: {t} queries for pairs over {pairs.n_queries}")
    off, attn, blocks = sampling or Sampling(*_query_offsets_weights(queries, params))
    cells = T.reshape(maps, (-1, maps.shape[-1]))  # a view: no copy of the maps
    values = T.reshape(T.matmul(cells, params.value_w.tensor),
                       (*maps.shape[:-1], params.channels))
    attended = T.deform_attend(values, pairs.map_idx, pairs.base_pts, off, attn,
                               pairs.qry_idx, pairs.scale, blocks)
    return T.matmul(T.reshape(attended, (t, params.channels)), params.out_w.tensor)


def query_half(tokens: Tensor, grid_hw, self_pairs: Pairs,
               params: EncoderLayerParams) -> Tuple[Tensor, Sampling]:
    """The part of an encoder layer that reads its tokens [T,N] and nothing
    else: self-attention over the token map, the first post-norm residual,
    and where the result x1 samples in cross-attention. Returns (x1, its
    cross-attention ``Sampling``)."""
    h, w = grid_hw
    t, n = tokens.shape
    if t != h * w:
        raise ContractError(f"query_half: {t} tokens != grid {h}x{w}")
    if n != params.channels:
        raise ShapeError(f"query_half: token width {n} != layer width {params.channels}")
    sa = deform_attn_multi(tokens, T.reshape(tokens, (1, h, w, n)), self_pairs, params.self_attn)
    g1, b1 = params.norms[0]
    x1 = T.residual_layer_norm(tokens, sa, g1.tensor, b1.tensor)
    return x1, Sampling(*_query_offsets_weights(x1, params.cross_attn))


def map_half(x1: Tensor, sampling: Sampling, maps: Tensor, pairs: Pairs,
             params: EncoderLayerParams) -> Tensor:
    """The rest of an encoder layer, from ``query_half``'s (x1, sampling):
    cross-attention over the maps, its post-norm residual, the FFN and the
    last post-norm residual."""
    ca = deform_attn_multi(x1, maps, pairs, params.cross_attn, sampling)
    g2, b2 = params.norms[1]
    x2 = T.residual_layer_norm(x1, ca, g2.tensor, b2.tensor)

    ff = T.ffn(x2, params.ffn_w1.tensor, params.ffn_b1.tensor,
               params.ffn_w2.tensor, params.ffn_b2.tensor)
    g3, b3 = params.norms[2]
    return T.residual_layer_norm(x2, ff, g3.tensor, b3.tensor)

