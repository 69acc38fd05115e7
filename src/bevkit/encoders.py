"""Per-modality BEV feature construction from shared queries.

Both sensors run one encoder body, ``encode_bev``. They differ only in where
each BEV pillar's D reference points land on their feature maps, and this
module turns that geometry into cross-attention ``Pairs``: one pair per
visible (view, level, query) for the cameras (``camera_pairs``, from
``geometry.project_to_camera``), and one pair of weight D per query for the
LiDAR map, whose projection drops z (``lidar_pairs``).

At inference the first layer's query half (``attention.query_half``: its
self-attention over the BEV queries, its first norm and where cross-attention
samples) depends on parameters alone, and given the pairs and the maps' shape
so do ``deform_attend``'s block matrices. A ``QueryHalfCache``, owned by the
``Detector``, keeps them per modality between encodes, for as long as every
array they were derived from holds the bytes it held when they were built.
With the tape recording, ``encode_bev`` neither reads nor fills the cache.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .attention import (EncoderLayerParams, Pairs, Sampling, encoder_layer, map_half, query_half,
                        with_blocks)
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


def camera_pairs(projections: Sequence, n_queries: int) -> Pairs:
    """Cross-attention pairs of V camera views on their V maps, one per
    visible (view, pillar level, query): views outer, then levels, then
    queries ascending. projections[v] is view v's (uv [D,H,W,2], visible
    [D,H,W]) from ``project_to_camera``, H*W = n_queries; uv is (u, v), a
    base point (row, col)."""
    if not projections:
        raise ContractError("camera_pairs: no camera views")
    shape = (len(projections), -1, n_queries)  # [V, D, T]
    view, level, qry = np.nonzero(np.stack([vis for _, vis in projections]).reshape(shape))
    rc = np.stack([uv for uv, _ in projections]).reshape(*shape, 2)[view, level, qry, ::-1]
    return Pairs(view, np.ascontiguousarray(rc), qry, len(projections), n_queries)


def lidar_pairs(refs, map_hw) -> Pairs:
    """Cross-attention pairs of the LiDAR map [H_L,W_L]: it drops z, so the D
    pillar levels of a query are one pair of weight D."""
    rc = project_to_lidar(refs, map_hw)
    depth, t = rc.shape[0], rc[0].size // 2
    return Pairs.one_map(rc[0].reshape(t, 2), None if depth == 1 else np.full(t, float(depth)))


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Same dtype, shape and bytes: unlike ==, a NaN equals itself and -0.0
    differs from 0.0, so equal arrays give equal outputs bit for bit."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(np.ascontiguousarray(a).view(np.uint8),
                               np.ascontiguousarray(b).view(np.uint8)))


class _Entry(NamedTuple):
    """One modality's kept query half, its maps' shape, the arrays it was
    derived from and their copies."""

    maps_shape: tuple
    sources: List[np.ndarray]
    copies: List[np.ndarray]
    half: Tuple[Tensor, Sampling]


class QueryHalfCache:
    """The first encoder layer's query half of each modality, kept between
    no-grad encodes.

    An entry holds ``query_half``'s x1 and cross-attention ``Sampling`` with
    its block matrices for the cross-attention pairs on maps of one shape
    (``with_blocks``), and a copy of every array they were derived from: the
    modality's query parameter, the layer's self-attention parameters and
    first norm, its cross-attention offset and weight projections, and the
    self-attention and cross-attention pairs. ``query_half`` returns the entry
    while each of those arrays has the bytes of its copy and the maps' shape
    is the entry's; otherwise it builds a new one in its place. So an
    optimizer step, a checkpoint load, an in-place write or a new rig or map
    shape makes the next encode rebuild, and nothing needs to tell the cache.
    There is one entry per modality, and the arrays it hands out are
    read-only. A source that two entries read with the same bytes, such as
    shared queries, is copied once.
    """

    def __init__(self):
        self._entries: Dict[str, _Entry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _sources(queries: BEVQuerySet, modality: str, pairs: Pairs,
                 layer: EncoderLayerParams) -> List[np.ndarray]:
        ca = layer.cross_attn
        params = [queries.query_param(modality), *layer.self_attn.parameters(),
                  *layer.norms[0], ca.offset_w, ca.offset_b, ca.weight_w, ca.weight_b]
        arrays = [p.data for p in params]
        for prs in (queries.self_pairs, pairs):
            arrays += [prs.map_idx, prs.base_pts, prs.qry_idx]
            if prs.weight is not None:
                arrays.append(prs.weight)
        return arrays

    def query_half(self, queries: BEVQuerySet, modality: str, maps_shape, pairs: Pairs,
                   layer: EncoderLayerParams) -> Tuple[Tensor, Sampling]:
        """(x1, sampling) of ``query_half`` on the modality's BEV queries
        through the layer, with the block matrices of the pairs on maps of
        maps_shape: the kept entry when nothing it was derived from changed,
        a new one otherwise. Call it under no_grad."""
        sources = self._sources(queries, modality, pairs, layer)
        entry = self._entries.get(modality)
        if (entry is not None and entry.maps_shape == tuple(maps_shape)
                and len(entry.copies) == len(sources)
                and all(map(_same_bytes, sources, entry.copies))):
            return entry.half
        self._entries.pop(modality, None)
        # the other entry holds its sources, so their ids name live arrays
        kept = {id(a): c for other in self._entries.values()
                for a, c in zip(other.sources, other.copies)}
        copies = []
        for a in sources:
            c = kept.get(id(a))
            copies.append(c if c is not None and _same_bytes(a, c) else a.copy())
        spec = queries.spec
        x1, sampling = query_half(queries.tokens(modality), (spec.h, spec.w), queries.self_pairs,
                                  layer)
        sampling = with_blocks(sampling, maps_shape, pairs)
        for t in (x1, sampling.offsets, sampling.attn):
            t.data.flags.writeable = False
        self._entries[modality] = _Entry(tuple(maps_shape), sources, copies, (x1, sampling))
        return x1, sampling


def encode_bev(queries: BEVQuerySet, modality: str, maps: Tensor, pairs: Pairs,
               layers: Sequence[EncoderLayerParams], normalize_by_hits: bool = False,
               cache: Optional[QueryHalfCache] = None) -> Tensor:
    """BEV feature map [H,W,N] of one modality: its queries cross-attend to
    the maps [B,H_f,W_f,N] through the pairs in every layer.

    Each layer is an ``encoder_layer``, ``map_half`` of ``query_half``.
    With a cache and the tape off (``no_grad``), the first layer runs only
    its map half, on the query half the cache holds
    (``QueryHalfCache.query_half``, which rebuilds it only when an array it
    was derived from has changed); with the tape recording, the cache is
    neither read nor written, so a train step records every op."""
    spec = queries.spec
    x = queries.tokens(modality)
    for i, lp in enumerate(layers):
        if i == 0 and cache is not None and not T.grad_enabled():
            x = map_half(*cache.query_half(queries, modality, maps.shape, pairs, lp), maps,
                         pairs, lp, normalize_by_hits)
        else:
            x = encoder_layer(x, (spec.h, spec.w), queries.self_pairs, maps, pairs, lp,
                              normalize_by_hits)
    return T.reshape(x, (spec.h, spec.w, queries.channels))


def encode_camera_bev(queries: BEVQuerySet, feats: Tensor, pairs: Pairs,
                      layers: Sequence[EncoderLayerParams], normalize_by_hits: bool = False,
                      cache: Optional[QueryHalfCache] = None) -> Tensor:
    """Camera-branch BEV map over V views: the views' feature maps
    [V,H_f,W_f,N] and the ``camera_pairs`` of the rig."""
    return encode_bev(queries, "camera", feats, pairs, layers, normalize_by_hits, cache)


def encode_lidar_bev(queries: BEVQuerySet, feat_l: Tensor, pairs: Pairs,
                     layers: Sequence[EncoderLayerParams], normalize_by_hits: bool = False,
                     cache: Optional[QueryHalfCache] = None) -> Tensor:
    """LiDAR-branch BEV map: the same encoder over the one LiDAR map
    [1,H_L,W_L,N] and the ``lidar_pairs`` of the grid on it."""
    return encode_bev(queries, "lidar", feat_l, pairs, layers, normalize_by_hits, cache)


def make_encoder_layers(prefix: str, n_layers: int, heads: int, points: int,
                        channels: int, value_dim: int, rng) -> List[EncoderLayerParams]:
    return [EncoderLayerParams(f"{prefix}.layer{i}", heads, points, channels, value_dim, rng)
            for i in range(n_layers)]
