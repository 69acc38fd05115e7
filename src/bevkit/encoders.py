"""Per-modality BEV feature construction from shared queries.

Both sensors run the identical encoder path; the only thing that differs is
the projection used to turn the 3D reference grid into per-source sampling
coordinates. The camera path takes V pinhole views (each contributing D
pillar levels of references); the LiDAR path is the same machinery with a
single affine-projected source. Cross-attention sums over every
(source, level) pair where the reference is visible.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from . import tensor as T
from .attention import EncoderLayerParams, encoder_layer
from .errors import ContractError
from .geometry import AffineBEVProjector, BEVGridSpec, ReferenceGrid, build_reference_grid
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


def build_sources(refs: ReferenceGrid, projectors: Sequence, feats: Sequence[Tensor]):
    """Flatten (view, pillar level) pairs into encoder cross-attention sources.

    Order is views outer, z levels inner, which fixes the float summation
    order for reproducibility. A projector advertising z_invariant collapses
    its D identical levels into one source with multiplicity D.
    """
    if len(projectors) != len(feats):
        raise ContractError(f"{len(projectors)} projectors vs {len(feats)} feature maps")
    d, h, w, _ = refs.points.shape
    t = h * w
    sources = []
    for proj, feat in zip(projectors, feats):
        uv, vis = proj.project(refs)
        rc = np.ascontiguousarray(uv[..., ::-1])  # (u,v) -> (row,col)
        if getattr(proj, "z_invariant", False):
            sources.append((feat, rc[0].reshape(t, 2), vis[0].reshape(t), d))
        else:
            for z in range(d):
                sources.append((feat, rc[z].reshape(t, 2), vis[z].reshape(t), 1))
    return sources


def encode_bev(queries: BEVQuerySet, modality: str, projectors: Sequence,
               feats: Sequence[Tensor], layers: Sequence[EncoderLayerParams],
               normalize_by_hits: bool = False) -> Tensor:
    """BEV feature map [H,W,N] of one modality.

    The modality's queries cross-attend to every (feature map, pillar level)
    source that ``build_sources`` makes from the projectors, one per map.
    """
    if len(projectors) == 0:
        raise ContractError(f"encode_bev: {modality} needs at least one feature map")
    spec = queries.spec
    sources = build_sources(queries.refs, projectors, feats)
    self_refs = queries.self_refs()
    x = queries.tokens(modality)
    for lp in layers:
        x = encoder_layer(x, (spec.h, spec.w), self_refs, sources, lp,
                          normalize_by_hits=normalize_by_hits)
    return T.reshape(x, (spec.h, spec.w, queries.channels))


def encode_camera_bev(queries: BEVQuerySet, views: Sequence, feats: Sequence[Tensor],
                      layers: Sequence[EncoderLayerParams],
                      normalize_by_hits: bool = False) -> Tensor:
    """Camera-branch BEV map: cross-attention over all V views x D levels.

    `views` are projection providers (CameraModel or anything with a
    .project(refs) -> (uv, visible) method); one feature map per view.
    """
    return encode_bev(queries, "camera", views, feats, layers, normalize_by_hits)


def encode_lidar_bev(queries: BEVQuerySet, feat_l: Tensor,
                     layers: Sequence[EncoderLayerParams],
                     normalize_by_hits: bool = False) -> Tensor:
    """LiDAR-branch BEV map: the same encoder over one affine-projected source."""
    proj = AffineBEVProjector((feat_l.shape[0], feat_l.shape[1]))
    return encode_bev(queries, "lidar", [proj], [feat_l], layers, normalize_by_hits)


def make_encoder_layers(prefix: str, n_layers: int, heads: int, points: int,
                        channels: int, value_dim: int, rng) -> List[EncoderLayerParams]:
    return [EncoderLayerParams(f"{prefix}.layer{i}", heads, points, channels, value_dim, rng)
            for i in range(n_layers)]
