"""Full detector: backbones -> uniform BEV encoders -> fusion -> set decoder.

In concat mode each encoder runs at half width so the fused map (and thus the
decoder) keeps the same channel count as avg/cnw mode. Dropping a modality
skips its whole branch; that is numerically identical to computing it and
discarding the features, since nothing downstream reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .attention import EncoderLayerParams, Pairs, Sampling, query_half
from .detection import BoxPrediction, DecoderParams, decode, decode_raw, set_loss
from .encoders import (BEVQuerySet, camera_pairs, encode_camera_bev, encode_lidar_bev,
                       lidar_pairs, make_encoder_layers)
from .errors import ConfigError, ContractError, check_field_kinds
from .fusion import FusionWeights, ModalityMask, fuse
from .geometry import BEVGridSpec, CameraModel, project_to_camera
from .synthscene import ConvBackbone, RenderedSample
from .tensor import Parameter, Tensor


def _array_key(a: np.ndarray) -> tuple:
    """a as a memo key: its dtype, shape and bytes. Unlike ==, a NaN equals
    itself and -0.0 differs from 0.0, so equal keys give equal outputs bit
    for bit."""
    return a.dtype.str, a.shape, a.tobytes()


@dataclass(frozen=True)
class ModelConfig:
    channels: int = 32
    heads: int = 2
    points: int = 4
    enc_layers: int = 3
    dec_layers: int = 2
    n_obj: int = 20
    n_classes: int = 4  # object classes + background
    fusion: str = "cnw"  # cnw | avg | concat
    query_mode: str = "shared"  # shared | separate
    normalize_by_hits: bool = False
    cam_hidden: Tuple[int, int] = (8, 16)
    lidar_hidden: Tuple[int, int] = (12, 16)

    def validate(self):
        check_field_kinds(self)
        if self.fusion not in ("cnw", "avg", "concat"):
            raise ConfigError(f"fusion must be cnw|avg|concat, got {self.fusion!r}")
        if self.query_mode not in ("shared", "separate"):
            raise ConfigError(f"query_mode must be shared|separate, got {self.query_mode!r}")
        if self.enc_layers < 1 or self.dec_layers < 1:
            # with no encoder layer the fused map is the BEV queries whatever the
            # sensors see; with no decoder layer the boxes ignore the fused map
            raise ConfigError(f"need at least one layer: enc_layers={self.enc_layers}, "
                              f"dec_layers={self.dec_layers}")
        if self.heads < 1 or self.points < 1:
            raise ConfigError(f"bad attention sizes: heads={self.heads}, points={self.points}")
        if min(*self.cam_hidden, *self.lidar_hidden) < 1:
            raise ConfigError(f"hidden widths must be positive: cam_hidden={self.cam_hidden}, "
                              f"lidar_hidden={self.lidar_hidden}")
        n_enc = self.encoder_channels
        if self.fusion == "concat" and self.channels % 2:
            raise ConfigError(f"concat fusion needs even channels, got {self.channels}")
        if n_enc < 3:
            # a layer norm over 2 channels outputs +-gain whatever its input,
            # so almost no gradient would reach the encoders and backbones
            raise ConfigError(f"encoder width {n_enc} is below 3 (fusion={self.fusion!r})")
        if n_enc % self.heads:
            raise ConfigError(
                f"encoder width {n_enc} not divisible by heads {self.heads}"
            )
        if self.n_obj < 1 or self.n_classes < 2:
            raise ConfigError(f"bad head sizes: n_obj={self.n_obj}, n_classes={self.n_classes}")
        return self

    @property
    def encoder_channels(self) -> int:
        return self.channels // 2 if self.fusion == "concat" else self.channels


class Detector:
    """The detector's parameters, and what it derives from them and from the
    sensor geometry once instead of per scene.

    Everything derived lives in one memo, ``_derive``: each entry is a value
    and the key it was built under, a tuple compared with ``==`` in which an
    array stands as its dtype, shape and bytes. It holds the camera pairs
    (keyed by the rig's values), the LiDAR pairs (by the LiDAR map's shape)
    and, under ``no_grad`` only, each modality's first-layer query half with
    its block matrices (by its read-only ``Pairs`` object, the maps' shape
    and the bytes of the modality's queries and of the first layer's
    parameters, a superset of what it reads). So a new or moved camera,
    ``Adam.step``, ``load_arrays`` or any in-place write makes the next
    encode rebuild what it changed, and nothing needs to tell the memo. A
    recorded forward (``loss``) never reads or fills the query halves.
    """

    def __init__(self, cfg: ModelConfig, spec: BEVGridSpec, rng: np.random.Generator):
        self.cfg = cfg.validate()
        self.spec = spec.validate()
        n_enc = cfg.encoder_channels
        self.cam_backbone = ConvBackbone(3, cfg.cam_hidden, n_enc, True, "backbone.camera", rng)
        self.lidar_backbone = ConvBackbone(2, cfg.lidar_hidden, n_enc, False, "backbone.lidar",
                                           rng)
        self.queries = BEVQuerySet(spec, n_enc, cfg.query_mode, rng)
        self.cam_layers = make_encoder_layers("encoder.camera", cfg.enc_layers, cfg.heads,
                                              cfg.points, n_enc, rng)
        self.lidar_layers = make_encoder_layers("encoder.lidar", cfg.enc_layers, cfg.heads,
                                                cfg.points, n_enc, rng)
        self.fusion_weights = FusionWeights(n_enc) if cfg.fusion == "cnw" else None
        self.decoder = DecoderParams(cfg.n_obj, cfg.channels, cfg.n_classes,
                                     cfg.dec_layers, rng)
        self._memo: Dict[object, tuple] = {}

    # -- parameters and state ------------------------------------------------

    def parameters(self) -> List[Parameter]:
        ps: List[Parameter] = []
        ps += self.cam_backbone.parameters()
        ps += self.lidar_backbone.parameters()
        ps += self.queries.parameters()
        for layer in self.cam_layers + self.lidar_layers:
            ps += layer.parameters()
        if self.fusion_weights is not None:
            ps += self.fusion_weights.parameters()
        ps += self.decoder.parameters()
        return ps

    def param_arrays(self) -> Dict[str, np.ndarray]:
        return {p.name: p.tensor.data for p in self.parameters()}

    def load_arrays(self, arrays: Dict[str, np.ndarray]):
        """Copy the named arrays into the parameters. Every name and shape is
        checked before any parameter is written, so a ConfigError leaves the
        detector as it was."""
        params = self.parameters()
        for p in params:
            if p.name not in arrays:
                raise ConfigError(f"checkpoint is missing parameter {p.name}")
            if tuple(arrays[p.name].shape) != p.tensor.shape:
                raise ConfigError(
                    f"checkpoint shape {arrays[p.name].shape} != {p.tensor.shape} for {p.name}"
                )
        for p in params:
            p.tensor.data[:] = arrays[p.name]

    # -- forward -------------------------------------------------------------

    def _derive(self, name, key: tuple, build):
        """build()'s value, kept under name while key equals the key it was
        built under."""
        entry = self._memo.get(name)
        if entry is not None and entry[0] == key:
            return entry[1]
        value = build()
        self._memo[name] = (key, value)
        return value

    def _rig_pairs(self, cams: Sequence[CameraModel]) -> Pairs:
        """The camera pairs of this rig's views on their feature maps, derived
        from each camera's fx, fy, cx, cy, image size and world_to_cam."""
        rig = np.array([[cam.fx, cam.fy, cam.cx, cam.cy, cam.image_h, cam.image_w,
                         *np.ravel(cam.world_to_cam)] for cam in cams], dtype=np.float64)
        stride = self.cam_backbone.stride
        return self._derive("camera_pairs", _array_key(rig), lambda: camera_pairs(
            [project_to_camera(self.queries.refs, cam.scaled(stride)) for cam in cams],
            self.spec.h * self.spec.w, self.cfg.normalize_by_hits))

    def _first_half(self, modality: str, maps_shape, pairs: Pairs,
                    layer: EncoderLayerParams) -> Optional[Tuple[Tensor, Sampling]]:
        """The first encoder layer's ``query_half`` of the modality's BEV
        queries, with the block matrices of the pairs on maps of maps_shape;
        its arrays are read-only. None while the tape records, so that a
        recorded forward runs every op."""
        if T.grad_enabled():
            return None
        params = [self.queries.query_param(modality), *layer.parameters()]
        key = (pairs, tuple(maps_shape), *(_array_key(p.data) for p in params))

        def build():
            x1, sampling = query_half(self.queries.tokens(modality), (self.spec.h, self.spec.w),
                                      self.queries.self_pairs, layer)
            sampling = sampling._replace(blocks=T.attend_blocks(
                maps_shape[:3], pairs.map_idx, pairs.base_pts, sampling.offsets, sampling.attn,
                pairs.qry_idx))
            for t in (x1, sampling.offsets, sampling.attn):
                t.data.flags.writeable = False
            return x1, sampling

        return self._derive(("first_half", modality), key, build)

    def encode(self, sample: RenderedSample, mask: ModalityMask):
        """Per-modality BEV features under the given availability mask. Under
        no_grad the first encoder layer's query half comes from the memo."""
        mask.validate()
        cam_bev = lidar_bev = None
        if mask.use_cam:
            # the pairs index feature maps of the cameras' image size
            shape = np.shape(sample.camera_images)
            want = {(len(sample.cams), cam.image_h, cam.image_w, 3) for cam in sample.cams}
            if want != {shape}:
                raise ContractError(f"camera images {shape} for cameras {sorted(want)}")
            pairs = self._rig_pairs(sample.cams)
            feats = self.cam_backbone.forward(sample.camera_images)
            half = self._first_half("camera", feats.shape, pairs, self.cam_layers[0])
            cam_bev = encode_camera_bev(self.queries, feats, pairs, self.cam_layers, half)
        if mask.use_lidar:
            feat_l = self.lidar_backbone.forward(sample.lidar_grid[None])
            hw = feat_l.shape[1:3]
            pairs = self._derive("lidar_pairs", hw, lambda: lidar_pairs(
                self.queries.refs, hw, self.cfg.normalize_by_hits))
            half = self._first_half("lidar", feat_l.shape, pairs, self.lidar_layers[0])
            lidar_bev = encode_lidar_bev(self.queries, feat_l, pairs, self.lidar_layers, half)
        return cam_bev, lidar_bev

    def fused_maps(self, sample: RenderedSample, masks: Sequence[ModalityMask]) -> List[Tensor]:
        """The fused BEV map under each mask, in the order given.

        Each modality that any mask uses is encoded once, and every mask fuses
        only its own maps. Dropping a modality skips its branch exactly, so
        element i equals what encoding under masks[i] alone gives, bit for bit.
        """
        if not masks:
            raise ContractError("fused_maps: no masks")
        for mask in masks:
            mask.validate()
        union = ModalityMask(any(m.use_cam for m in masks), any(m.use_lidar for m in masks))
        cam_bev, lidar_bev = self.encode(sample, union)
        return [fuse(self.cfg.fusion,
                     cam_bev if mask.use_cam else None,
                     lidar_bev if mask.use_lidar else None,
                     self.fusion_weights)
                for mask in masks]

    def loss(self, sample: RenderedSample, mask: ModalityMask) -> Tensor:
        fused, = self.fused_maps(sample, [mask])
        tokens = T.reshape(fused, (self.spec.h * self.spec.w, self.cfg.channels))
        logits, box_raw = decode_raw(tokens, self.decoder)
        return set_loss(logits, box_raw, sample.gts, self.spec)

    def predict(self, sample: RenderedSample, mask: ModalityMask) -> List[BoxPrediction]:
        return self.predict_many(sample, [mask])[0]

    def predict_many(self, sample: RenderedSample,
                     masks: Sequence[ModalityMask]) -> List[List[BoxPrediction]]:
        """Predictions for one scene under each mask, in the order given.

        The scene is encoded once (see ``fused_maps``); each mask's fused map
        is then decoded. Element i equals ``predict(sample, masks[i])`` bit for
        bit.
        """
        with T.no_grad():
            return [decode(fused, self.decoder, self.spec)
                    for fused in self.fused_maps(sample, masks)]
