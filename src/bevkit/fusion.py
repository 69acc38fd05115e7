"""Fusing per-modality BEV maps with one ``fuse(mode, cam, lidar, w)``:
averaging, concatenation, or channel normalized weights (a learnable
per-channel softmax between the modalities).

With both inputs present, CNW fuses F_cam * w + F_lidar * (1-w) with w the
per-channel two-way softmax of the raw weight vectors; equal raw weights make
it exact averaging. With one input present the normalized weight collapses to
one, so cnw and avg return that input unchanged. Concatenation zero-fills the
missing modality's block instead. Every mode checks its inputs the same way:
at least one map, and equal shapes when both are present; cnw also needs its
weights when both are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, ShapeError, check_field_kinds
from .tensor import Parameter, Tensor


class FusionWeights:
    """Raw (unnormalized) per-modality channel weight vectors, length N.

    Initialized to zero so training starts at exact average fusion.
    """

    def __init__(self, channels: int):
        self.channels = channels
        self.a_cam = Parameter("fusion.a_cam", np.zeros(channels))
        self.a_lidar = Parameter("fusion.a_lidar", np.zeros(channels))

    def parameters(self) -> List[Parameter]:
        return [self.a_cam, self.a_lidar]


@dataclass(frozen=True)
class ModalityMask:
    use_cam: bool
    use_lidar: bool

    def validate(self):
        if not (self.use_cam or self.use_lidar):
            raise ContractError("modality mask drops every sensor")
        return self

    @property
    def label(self) -> str:
        if self.use_cam and self.use_lidar:
            return "both"
        return "camera" if self.use_cam else "lidar"


@dataclass(frozen=True)
class MDConfig:
    """Modality-dropout probabilities: drop one modality with p_md; if so keep
    LiDAR with p_l (cameras with 1 - p_l)."""

    p_md: float = 0.5
    p_l: float = 0.5

    def validate(self):
        check_field_kinds(self)
        if not (0.0 <= self.p_md <= 1.0 and 0.0 <= self.p_l <= 1.0):
            raise ConfigError(f"probabilities out of range: p_md={self.p_md}, p_l={self.p_l}")
        return self


def sample_modality_mask(cfg: MDConfig, rng: np.random.Generator) -> ModalityMask:
    """Both with prob 1-p_md; lidar-only with p_md*p_l; cam-only otherwise."""
    cfg.validate()
    u, v = rng.random(), rng.random()  # always two draws, branch-independent
    if u >= cfg.p_md:
        return ModalityMask(True, True)
    if v < cfg.p_l:
        return ModalityMask(False, True)
    return ModalityMask(True, False)


def normalize_weights(w: FusionWeights):
    """Per-channel two-way softmax of the raw weights: (a_cam_bar,
    a_lidar_bar) as length-N Tensors that sum to one."""
    n = w.channels
    stacked = T.concat_lastaxis([
        T.reshape(w.a_cam.tensor, (n, 1)),
        T.reshape(w.a_lidar.tensor, (n, 1)),
    ])
    soft = T.softmax_lastaxis(stacked)
    cam_col, lidar_col = T.split_lastaxis(soft, [1, 1])
    return T.reshape(cam_col, (n,)), T.reshape(lidar_col, (n,))


def fuse(mode: str, cam: Optional[Tensor], lidar: Optional[Tensor],
         w: Optional[FusionWeights]) -> Tensor:
    """Fuse same-shape maps (either may be None) by mode: "cnw" weighs them
    per channel by ``normalize_weights(w)``, "avg" takes their mean, and
    "concat" joins them [cam || lidar] along channels. cnw and avg return a
    lone map as it is; concat zero-fills the missing one's block."""
    if mode not in ("cnw", "avg", "concat"):
        raise ContractError(f"unknown fusion mode {mode!r}")
    if cam is None and lidar is None:
        raise ContractError("fusion needs at least one modality")
    if cam is not None and lidar is not None and cam.shape != lidar.shape:
        raise ShapeError(f"fusion inputs disagree: {cam.shape} vs {lidar.shape}")
    present = cam if cam is not None else lidar
    if mode == "concat":
        zeros = Tensor(np.zeros(present.shape))
        return T.concat_lastaxis([cam if cam is not None else zeros,
                                  lidar if lidar is not None else zeros])
    if cam is None or lidar is None:
        return present
    if mode == "avg":
        return T.mul(T.add(cam, lidar), Tensor(0.5))
    if w is None:
        raise ContractError("cnw fusion of both maps needs the fusion weights, got None")
    a_cam, a_lidar = normalize_weights(w)
    return T.add(T.mul(cam, a_cam), T.mul(lidar, a_lidar))
