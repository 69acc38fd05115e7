"""Synthetic labeled scenes with complementary sensor renders.

The two sensors are engineered so that fusing them genuinely helps: camera
images color-code each box's class (channel = class one-hot scaled by an
appearance factor) but see geometry only through perspective; the LiDAR
occupancy grid captures footprints precisely and degrades smoothly with
range, but carries no class channel at all. Classes differ by footprint
aspect ratio at a shared area distribution, so geometry alone separates them
spatially while first-order LiDAR channel statistics stay class-blind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import tensor as T
from .detection import GroundTruthBox
from .errors import ConfigError, ContractError, check_field_kinds
from .geometry import BEVGridSpec, CameraModel, make_camera
from .tensor import Parameter, Tensor


@dataclass
class SceneBox(GroundTruthBox):
    height: float = 1.5
    appearance: float = 1.0


@dataclass
class RenderedSample:
    scene_id: int
    camera_images: np.ndarray  # [V, h_img, w_img, 3]
    lidar_grid: np.ndarray  # [H_L, W_L, 2] (occupancy, mean height)
    gts: List[SceneBox]
    cams: List[CameraModel]


@dataclass(frozen=True)
class SceneParams:
    """Scene sampling knobs. Classes share one footprint-area distribution and
    differ in aspect ratio (length/width), most elongated first."""

    n_boxes: Tuple[int, int] = (1, 6)
    min_center_dist: float = 3.0
    margin: float = 2.5
    area_range: Tuple[float, float] = (6.5, 9.5)
    aspect_ranges: Tuple[Tuple[float, float], ...] = ((3.2, 4.8), (1.6, 2.4), (0.9, 1.3))
    height_range: Tuple[float, float] = (1.2, 1.8)
    appearance_range: Tuple[float, float] = (0.2, 1.0)
    sigma_cam: float = 0.05
    sigma_lidar: float = 0.05
    lidar_drop_full_range: float = 40.0  # p_drop(r) = min(0.8, r / this)

    @property
    def n_classes(self) -> int:
        return len(self.aspect_ranges)

    def validate(self):
        """ConfigError unless every field has its default's kind, n_boxes is
        0 <= lo <= hi, every range is finite with lo <= hi, areas and aspects
        are positive (a box's sides are square roots of their product and
        quotient), distances and noise levels finite and non-negative, and
        the dropout range positive."""
        check_field_kinds(self)
        if not 0 <= self.n_boxes[0] <= self.n_boxes[1]:
            raise ConfigError(f"n_boxes must be 0 <= lo <= hi, got {self.n_boxes}")
        for r in (self.area_range, self.height_range, self.appearance_range, *self.aspect_ranges):
            if not (np.all(np.isfinite(r)) and r[0] <= r[1]):
                raise ConfigError(f"ranges must be finite (lo, hi) with lo <= hi, got {r}")
        if min(self.area_range[0], *(lo for lo, _ in self.aspect_ranges)) <= 0:
            raise ConfigError(f"areas and aspects must be positive: {self}")
        for name in ("min_center_dist", "margin", "sigma_cam", "sigma_lidar",
                     "lidar_drop_full_range"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
        if self.lidar_drop_full_range == 0:
            raise ConfigError("lidar_drop_full_range must be positive")
        return self

    def center_bounds(self, spec: BEVGridSpec) -> Tuple[np.ndarray, np.ndarray]:
        """(lo, hi) corners of where box centers may lie: spec's extent less
        the margin on every side. ConfigError where the margin leaves no room."""
        x_min, x_max, y_min, y_max = spec.extent
        lo = np.array([x_min + self.margin, y_min + self.margin])
        hi = np.array([x_max - self.margin, y_max - self.margin])
        if np.any(hi <= lo):
            raise ConfigError(f"margin {self.margin} leaves no room in extent {spec.extent}")
        return lo, hi


def sample_scene(rng: np.random.Generator, params: SceneParams,
                 spec: BEVGridSpec) -> List[SceneBox]:
    """Rejection-sample box centers until the pairwise distance bound holds;
    after 1000 failed attempts the box count is reduced (the first candidate
    is always accepted, so a scene that asks for boxes gets at least one)."""
    lo, hi = params.center_bounds(spec)
    n_target = int(rng.integers(params.n_boxes[0], params.n_boxes[1] + 1))
    centers: List[np.ndarray] = []
    attempts = 0
    while len(centers) < n_target and attempts <= 1000:  # then give up on the rest
        c = rng.uniform(lo, hi)
        if all(np.hypot(*(c - o)) >= params.min_center_dist for o in centers):
            centers.append(c)
        else:
            attempts += 1
    boxes = []
    for c in centers:
        class_id = int(rng.integers(0, params.n_classes))
        area = rng.uniform(*params.area_range)
        aspect = rng.uniform(*params.aspect_ranges[class_id])
        length = float(np.sqrt(area * aspect))
        width = float(np.sqrt(area / aspect))
        boxes.append(SceneBox(
            cx=float(c[0]), cy=float(c[1]), w=width, l=length,
            yaw=float(rng.uniform(-np.pi, np.pi)), class_id=class_id,
            height=float(rng.uniform(*params.height_range)),
            appearance=float(rng.uniform(*params.appearance_range)),
        ))
    return boxes


def default_rig(image_h: int = 48, image_w: int = 64, fx: float = 24.0) -> List[CameraModel]:
    """Four cameras 1.6 m above the ego origin at yaw 0/90/180/270 degrees,
    pitched 5 degrees down."""
    return [
        make_camera([0.0, 0.0, 1.6], yaw=np.deg2rad(90.0 * i),
                    pitch_down=np.deg2rad(5.0), fx=fx, fy=fx,
                    image_h=image_h, image_w=image_w)
        for i in range(4)
    ]


def _box_corners_3d(box: SceneBox) -> np.ndarray:
    """8 corners in world coordinates, box base on the ground plane."""
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


def _check_sigma(name: str, sigma: float):
    """ContractError unless the noise level is finite and non-negative."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ContractError(f"{name} must be finite and non-negative, got {sigma!r}")


def _normal_fill(rng: np.random.Generator, sigma: float, out: np.ndarray) -> np.ndarray:
    """out filled, in C order, with the draws of rng.normal(0.0, sigma,
    out.shape): that is loc + scale * z for each standard normal z of the
    same stream, so one standard_normal fill times sigma plus 0.0 (which
    turns a -0.0 into the 0.0 that loc + scale * z gives) is the same bits."""
    rng.standard_normal(out=out)
    out *= sigma
    out += 0.0
    return out


def render_cameras(boxes: Sequence[SceneBox], rig: Sequence[CameraModel],
                   rng: np.random.Generator, sigma_cam: float) -> np.ndarray:
    """Painter's-algorithm Gaussian splats, far to near, plus pixel noise.

    Color channel c carries (class == c) * (0.35 + 0.65 * appearance), so the
    class is readable from color alone while geometry is only implicit in the
    blob footprint.

    The records depend on this draw order: per view, all splats far to near
    (which draw nothing), then that view's [H,W,3] noise in C order from
    rng.normal(0.0, sigma_cam). As the splats draw nothing, the views' noise
    is one [V,H,W,3] fill (_normal_fill), added to each view's splats.
    Each splat's exponent is a column term plus a row term, broadcast into
    [H,W], and the blend runs on channel planes [3,H,W] with the per-pixel
    arithmetic of img += alpha * (color - img).
    ContractError for an empty rig, views of different image sizes, or a
    negative or non-finite sigma_cam.
    """
    if not rig:
        raise ContractError("render_cameras needs at least one camera")
    sizes = {(cam.image_h, cam.image_w) for cam in rig}
    if len(sizes) != 1:
        raise ContractError(f"cameras must share one image size, got {sorted(sizes)}")
    _check_sigma("sigma_cam", sigma_cam)
    (h_img, w_img), = sizes
    images = _normal_fill(rng, sigma_cam, np.empty((len(rig), h_img, w_img, 3)))
    rows, cols = np.arange(h_img), np.arange(w_img)
    planes = np.empty((3, h_img, w_img))
    blend = np.empty((3, h_img, w_img))
    alpha = np.empty((h_img, w_img))
    colors = []
    for box in boxes:
        color = np.zeros((3, 1, 1))
        color[box.class_id] = 0.35 + 0.65 * box.appearance
        colors.append(color)
    corners = [_box_corners_3d(box) for box in boxes]
    centers = [np.array([box.cx, box.cy, box.height / 2.0, 1.0]) for box in boxes]
    for vi, cam in enumerate(rig):
        w2c = np.asarray(cam.world_to_cam)
        depths = [(w2c @ center)[2] for center in centers]
        planes.fill(0.0)
        for j in sorted(range(len(depths)), key=lambda j: -depths[j]):  # far first
            if depths[j] < 0.5:
                continue
            # the corner depths pair up around the center's, so at least 4 of
            # the 8 lie in front of the center's 0.5 and pass the 0.1 test
            pc = corners[j] @ w2c.T
            good = pc[:, 2] > 0.1
            us = cam.fx * pc[good, 0] / pc[good, 2] + cam.cx
            vs = cam.fy * pc[good, 1] / pc[good, 2] + cam.cy
            cu, cv = us.mean(), vs.mean()
            su = max(0.7, (us.max() - us.min()) / 4.0)
            sv = max(0.7, (vs.max() - vs.min()) / 4.0)
            if cu < -3 * su or cu > w_img - 1 + 3 * su or cv < -3 * sv or cv > h_img - 1 + 3 * sv:
                continue
            np.add(((cols - cu) / su) ** 2, (((rows - cv) / sv) ** 2)[:, None], out=alpha)
            alpha *= -0.5
            np.exp(alpha, out=alpha)
            np.subtract(colors[j], planes, out=blend)
            blend *= alpha
            planes += blend
        images[vi] += planes.transpose(1, 2, 0)
    return images


def _interior_mask(box: SceneBox, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    dx = xs - box.cx
    dy = ys - box.cy
    along = c * dx + s * dy
    across = -s * dx + c * dy
    return (np.abs(along) <= box.l / 2.0) & (np.abs(across) <= box.w / 2.0)


def render_lidar(boxes: Sequence[SceneBox], spec: BEVGridSpec, lidar_shape: Tuple[int, int],
                 rng: np.random.Generator, sigma_lidar: float,
                 drop_full_range: float) -> np.ndarray:
    """Occupancy + height grid with range-dependent cell dropout.

    Cells inside a footprint survive with probability 1 - min(0.8, r/range);
    the height channel records the box height on surviving cells. No class
    information is rendered.

    rng's draws, in order: the [H,W] keep field (rng.random), then one
    [2,H,W] C-order fill of rng.normal(0.0, sigma_lidar)'s draws
    (_normal_fill), the occupancy noise before the height noise.
    ContractError for a negative or non-finite sigma_lidar, or a
    drop_full_range that is not finite and positive.
    """
    _check_sigma("sigma_lidar", sigma_lidar)
    if not (math.isfinite(drop_full_range) and drop_full_range > 0):
        raise ContractError(f"drop_full_range must be finite and positive, "
                            f"got {drop_full_range!r}")
    h_l, w_l = lidar_shape
    x_min, x_max, y_min, y_max = spec.extent
    xs = x_min + (np.arange(w_l) + 0.5) * (x_max - x_min) / w_l
    ys = y_min + (np.arange(h_l) + 0.5) * (y_max - y_min) / h_l
    gx, gy = np.meshgrid(xs, ys)  # [h_l, w_l], row = y
    keep_field = rng.random((h_l, w_l))
    noise = _normal_fill(rng, sigma_lidar, np.empty((2, h_l, w_l)))
    r = np.hypot(gx, gy)
    kept = keep_field >= np.minimum(0.8, r / drop_full_range)
    occ = np.zeros((h_l, w_l))
    hgt = np.zeros((h_l, w_l))
    for box in boxes:
        inside = _interior_mask(box, gx, gy) & kept
        occ[inside] = 1.0
        hgt[inside] = np.maximum(hgt[inside], box.height)
    return np.stack([occ + noise[0], hgt + noise[1]], axis=-1)


# ---------------------------------------------------------------------------
# tiny trainable backbones


class ConvBackbone:
    """conv3x3 -> relu -> [2x2 avg pool] -> conv3x3 -> relu -> 1x1 linear,
    over a batch of same-shape maps [B,H,W,in_channels] at once, giving
    [B,H/stride,W/stride,out_channels].

    ``stride`` is how many input pixels one output cell spans along each
    axis: 2 with the pool, 1 without.
    """

    def __init__(self, in_channels: int, hidden: Tuple[int, int], out_channels: int,
                 pool: bool, prefix: str, rng: np.random.Generator):
        h1, h2 = hidden
        self.pool = pool
        self.stride = 2 if pool else 1
        s1 = 1.0 / np.sqrt(9 * in_channels)
        s2 = 1.0 / np.sqrt(9 * h1)
        s3 = 1.0 / np.sqrt(h2)
        self.k1 = Parameter(f"{prefix}.conv1.kernel", rng.uniform(-s1, s1, (3, 3, in_channels, h1)))
        self.b1 = Parameter(f"{prefix}.conv1.bias", np.zeros(h1))
        self.k2 = Parameter(f"{prefix}.conv2.kernel", rng.uniform(-s2, s2, (3, 3, h1, h2)))
        self.b2 = Parameter(f"{prefix}.conv2.bias", np.zeros(h2))
        self.pw = Parameter(f"{prefix}.proj.weight", rng.uniform(-s3, s3, (h2, out_channels)))
        self.pb = Parameter(f"{prefix}.proj.bias", np.zeros(out_channels))

    def forward(self, maps) -> Tensor:
        """Feature maps [B,H/stride,W/stride,out_channels] of maps [B,H,W,in_channels]."""
        x = T.relu(T.conv2d_3x3(Tensor(maps), self.k1.tensor, self.b1.tensor))
        if self.pool:
            x = T.avgpool2x2(x)
        x = T.relu(T.conv2d_3x3(x, self.k2.tensor, self.b2.tensor))
        return T.linear(x, self.pw.tensor, self.pb.tensor)

    def parameters(self) -> List[Parameter]:
        return [self.k1, self.b1, self.k2, self.b2, self.pw, self.pb]
