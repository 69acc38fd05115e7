"""Per-modality BEV feature construction from shared queries.

Both sensors run one encoder body, ``encode_bev``. The only thing that
differs is where each BEV pillar's D reference points land on the sensor's
feature map, and this module turns that geometry into cross-attention
sources. A camera view comes as the (uv, visible) arrays of
``geometry.project_to_camera``, D sources per view. The LiDAR map comes from
``geometry.project_to_lidar``, which drops z, so its D levels are one source
with multiplicity D. Cross-attention sums over every visible (source, level)
pair.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from . import tensor as T
from .attention import EncoderLayerParams, encoder_layer
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
        self.spec = spec.validate()
        self.channels = channels
        self.mode = mode
        self.refs = build_reference_grid(spec)
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

    def self_refs(self) -> np.ndarray:
        h, w = self.spec.h, self.spec.w
        r, c = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        return np.stack([r.reshape(-1), c.reshape(-1)], axis=1).astype(np.float64)


def camera_sources(projections: Sequence, feats: Sequence[Tensor]):
    """Cross-attention sources of V camera views, one per (view, pillar level).

    projections[v] is view v's (uv [D,H,W,2], visible [D,H,W]) as
    ``project_to_camera`` returns them; uv is (u, v) and a source's
    references are (row, col). Order is views outer, levels inner, which
    fixes the float summation order for reproducibility.
    """
    if len(projections) != len(feats):
        raise ContractError(f"{len(projections)} projections vs {len(feats)} feature maps")
    sources = []
    for (uv, vis), feat in zip(projections, feats):
        rc = np.ascontiguousarray(uv[..., ::-1])
        for z in range(uv.shape[0]):
            sources.append((feat, rc[z].reshape(-1, 2), vis[z].reshape(-1), 1))
    return sources


def encode_bev(queries: BEVQuerySet, modality: str, sources: Sequence,
               layers: Sequence[EncoderLayerParams],
               normalize_by_hits: bool = False) -> Tensor:
    """BEV feature map [H,W,N] of one modality: its queries cross-attend to
    the (map, refs [H*W,2], visible, multiplicity) sources in every layer."""
    if len(sources) == 0:
        raise ContractError(f"encode_bev: {modality} needs at least one source")
    spec = queries.spec
    self_refs = queries.self_refs()
    x = queries.tokens(modality)
    for lp in layers:
        x = encoder_layer(x, (spec.h, spec.w), self_refs, sources, lp,
                          normalize_by_hits=normalize_by_hits)
    return T.reshape(x, (spec.h, spec.w, queries.channels))


def encode_camera_bev(queries: BEVQuerySet, projections: Sequence, feats: Sequence[Tensor],
                      layers: Sequence[EncoderLayerParams],
                      normalize_by_hits: bool = False) -> Tensor:
    """Camera-branch BEV map over V views x D levels; one (uv, visible) pair
    from ``project_to_camera`` and one feature map per view."""
    return encode_bev(queries, "camera", camera_sources(projections, feats), layers,
                      normalize_by_hits)


def encode_lidar_bev(queries: BEVQuerySet, feat_l: Tensor,
                     layers: Sequence[EncoderLayerParams],
                     normalize_by_hits: bool = False) -> Tensor:
    """LiDAR-branch BEV map: the same encoder over one source. The LiDAR map
    drops z, so the D pillar levels are one source with multiplicity D."""
    rc = project_to_lidar(queries.refs, feat_l.shape[:2])
    source = (feat_l, rc[0].reshape(-1, 2), None, rc.shape[0])
    return encode_bev(queries, "lidar", [source], layers, normalize_by_hits)


def make_encoder_layers(prefix: str, n_layers: int, heads: int, points: int,
                        channels: int, value_dim: int, rng) -> List[EncoderLayerParams]:
    return [EncoderLayerParams(f"{prefix}.layer{i}", heads, points, channels, value_dim, rng)
            for i in range(n_layers)]
