"""Per-modality BEV feature construction from shared queries.

Both sensors run one encoder body, ``encode_bev``. They differ only in where
each BEV pillar's D reference points land on their feature maps, and this
module turns that geometry into cross-attention ``Pairs``: one pair per
visible (view, level, query) for the cameras (``camera_pairs``, from
``geometry.project_to_camera``), and one pair per query, its sum scaled by
D, for the LiDAR map, whose projection drops z (``lidar_pairs``). Each
builder folds ``normalize_by_hits`` (BEVFormer's division by the hit count)
into that per-query scale, so no encoder layer reads the flag.

Each layer is ``attention.map_half`` of ``attention.query_half``.
At inference the first layer's query half (its self-attention over the BEV
queries, its first norm and where cross-attention samples) depends on
parameters alone, and given the pairs and the maps' shape so do
``deform_attend``'s block matrices. A caller that keeps them (the
``Detector``, in its memo) hands them to ``encode_bev`` as ``first_half``;
this module keeps no state.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .attention import EncoderLayerParams, Pairs, Sampling, map_half, query_half
from .errors import ContractError
from .geometry import BEVGridSpec, build_reference_grid, project_to_lidar
from .tensor import Parameter, Tensor


class BEVQuerySet:
    """Learnable BEV queries plus their reference grid.

    mode="shared" exposes one parameter object to both encoders (the coupling
    that aligns the two feature spaces); mode="separate" gives each modality
    its own queries.
    """

    def __init__(self, spec: BEVGridSpec, channels: int, mode: str,
                 rng: np.random.Generator):
        if mode not in ("shared", "separate"):
            raise ContractError(f"query mode must be shared|separate, got {mode!r}")
        self.spec = spec
        self.channels = channels
        self.mode = mode
        self.refs = build_reference_grid(spec)
        r, c = np.meshgrid(np.arange(spec.h), np.arange(spec.w), indexing="ij")
        # self-attention: each token samples the token map around its own cell
        self.self_pairs = Pairs.one_map(np.stack([r.reshape(-1), c.reshape(-1)], axis=1))
        shape = (spec.h, spec.w, channels)
        scale = 1.0 / np.sqrt(channels)
        if mode == "shared":
            q = Parameter("queries.shared", rng.uniform(-scale, scale, shape))
            self._by_modality = {"camera": q, "lidar": q}
        else:
            self._by_modality = {
                "camera": Parameter("queries.camera", rng.uniform(-scale, scale, shape)),
                "lidar": Parameter("queries.lidar", rng.uniform(-scale, scale, shape)),
            }

    def query_param(self, modality: str) -> Parameter:
        return self._by_modality[modality]

    def tokens(self, modality: str) -> Tensor:
        spec = self.spec
        return T.reshape(self._by_modality[modality].tensor, (spec.h * spec.w, self.channels))

    def parameters(self) -> List[Parameter]:
        seen = {}
        for p in self._by_modality.values():
            seen[p.name] = p
        return [seen[k] for k in sorted(seen)]


def camera_pairs(projections: Sequence, n_queries: int, normalize_by_hits: bool) -> Pairs:
    """Cross-attention pairs of V camera views on their V maps, one per
    visible (view, pillar level, query): views outer, then levels, then
    queries ascending. projections[v] is view v's (uv [D,H,W,2], visible
    [D,H,W]) from ``project_to_camera``, H*W = n_queries; uv is (u, v), a
    base point (row, col). With normalize_by_hits a query's sum is divided
    by its pair count (at least 1)."""
    if not projections:
        raise ContractError("camera_pairs: no camera views")
    shape = (len(projections), -1, n_queries)  # [V, D, T]
    view, level, qry = np.nonzero(np.stack([vis for _, vis in projections]).reshape(shape))
    rc = np.stack([uv for uv, _ in projections]).reshape(*shape, 2)[view, level, qry, ::-1]
    hits = np.bincount(qry, minlength=n_queries)
    scale = 1.0 / np.maximum(hits, 1) if normalize_by_hits else None
    return Pairs(view, np.ascontiguousarray(rc), qry, len(projections), n_queries, scale)


def lidar_pairs(refs, map_hw, normalize_by_hits: bool) -> Pairs:
    """Cross-attention pairs of the LiDAR map [H_L,W_L]: it drops z, so the D
    pillar levels of a query are one pair whose sum is scaled by D, or by
    D/D = 1 with normalize_by_hits."""
    rc = project_to_lidar(refs, map_hw)
    depth, t = rc.shape[0], rc[0].size // 2
    scale = None if depth == 1 or normalize_by_hits else np.full(t, float(depth))
    return Pairs.one_map(rc[0].reshape(t, 2), scale)


def encode_bev(queries: BEVQuerySet, modality: str, maps: Tensor, pairs: Pairs,
               layers: Sequence[EncoderLayerParams],
               first_half: Optional[Tuple[Tensor, Sampling]] = None) -> Tensor:
    """BEV feature map [H,W,N] of one modality: its queries cross-attend to
    the maps [B,H_f,W_f,N] through the pairs in every layer.

    Each layer runs ``map_half`` on its ``query_half``. first_half, when
    given, is the first layer's ``query_half`` on these queries, kept by the
    caller, and stands in for it. It records no tape, so pass it only under
    ``no_grad``."""
    spec = queries.spec
    x = queries.tokens(modality)
    half = first_half
    for lp in layers:
        if half is None:
            half = query_half(x, (spec.h, spec.w), queries.self_pairs, lp)
        x = map_half(*half, maps, pairs, lp)
        half = None
    return T.reshape(x, (spec.h, spec.w, queries.channels))


def encode_camera_bev(queries: BEVQuerySet, feats: Tensor, pairs: Pairs,
                      layers: Sequence[EncoderLayerParams],
                      first_half: Optional[Tuple[Tensor, Sampling]] = None) -> Tensor:
    """Camera-branch BEV map over V views: the views' feature maps
    [V,H_f,W_f,N] and the ``camera_pairs`` of the rig."""
    return encode_bev(queries, "camera", feats, pairs, layers, first_half)


def encode_lidar_bev(queries: BEVQuerySet, feat_l: Tensor, pairs: Pairs,
                     layers: Sequence[EncoderLayerParams],
                     first_half: Optional[Tuple[Tensor, Sampling]] = None) -> Tensor:
    """LiDAR-branch BEV map: the same encoder over the one LiDAR map
    [1,H_L,W_L,N] and the ``lidar_pairs`` of the grid on it."""
    return encode_bev(queries, "lidar", feat_l, pairs, layers, first_half)


def make_encoder_layers(prefix: str, n_layers: int, heads: int, points: int,
                        channels: int, rng) -> List[EncoderLayerParams]:
    return [EncoderLayerParams(f"{prefix}.layer{i}", heads, points, channels, rng)
            for i in range(n_layers)]
