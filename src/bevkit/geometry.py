"""BEV reference grid and its projections into sensor feature coordinates,
(row, col) on every sensor's map.

The grid uses a cell-center convention throughout: cell (h, w) at pillar
level z sits at (x_min + (w+0.5)dx, y_min + (h+0.5)dy, z_min + (z+0.5)dz).
With matching resolutions this makes the BEV-to-LiDAR map an exact identity
on cell indices.

The grid spec and the camera check themselves when built (ConfigError) and
cannot change afterwards, so the functions here take them unchecked and are
safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ConfigError, check_field_kinds, finite, fits, of_kind


@dataclass(frozen=True)
class BEVGridSpec:
    """BEV grid resolution and metric extent."""

    h: int = 32
    w: int = 32
    d: int = 4
    extent: Tuple[float, float, float, float] = (-16.0, 16.0, -16.0, 16.0)  # x_min,x_max,y_min,y_max
    z_range: Tuple[float, float] = (-1.0, 3.0)

    def __post_init__(self):
        check_field_kinds(self)
        x_min, x_max, y_min, y_max = self.extent
        z_min, z_max = self.z_range
        if not fits((self.d, self.h, self.w), 4):
            raise ConfigError(f"grid dims must be >= 1 and fit np.empty, "
                              f"got {(self.h, self.w, self.d)}")
        if not finite(*self.extent, *self.z_range):
            raise ConfigError(f"non-finite extent {self.extent} / z_range {self.z_range}")
        if not (x_max > x_min and y_max > y_min and z_max > z_min):
            raise ConfigError(f"degenerate extent {self.extent} / z_range {self.z_range}")


def cell_centers(lo: float, hi: float, n: int) -> np.ndarray:
    """Centers of n equal cells over [lo, hi]: the BEV-to-LiDAR identity rests on it."""
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


def build_reference_grid(spec: BEVGridSpec) -> np.ndarray:
    """Homogeneous cell-center anchors [D,H,W,4], D per BEV cell:
    (z,h,w) -> (x(w), y(h), z(z), 1)."""
    xs = cell_centers(*spec.extent[:2], spec.w)
    ys = cell_centers(*spec.extent[2:], spec.h)
    zs = cell_centers(*spec.z_range, spec.d)
    pts = np.empty((spec.d, spec.h, spec.w, 4))
    pts[..., 0] = xs[None, None, :]
    pts[..., 1] = ys[None, :, None]
    pts[..., 2] = zs[:, None, None]
    pts[..., 3] = 1.0
    return pts


def _check_image_size(image_h, image_w):
    """ConfigError unless an [image_h, image_w, 3] image fits (errors.fits)."""
    if not fits((image_h, image_w), 3):
        raise ConfigError(f"image_h and image_w must be integers >= 1 and fit np.empty, "
                          f"got {(image_h, image_w)!r}")


def _finite_numbers(value, shape):
    """value as a float64 copy if it is an array of that shape of finite
    numbers (integers or reals, not bools or strings), else None."""
    try:
        a = np.asarray(value)
    except ValueError:  # ragged nesting
        return None
    ok = a.dtype.kind in "iuf" and a.shape == shape and np.isfinite(a).all()
    return a.astype(np.float64) if ok else None


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera: focal lengths and principal point (zero skew), rigid
    world-to-camera transform, and the size in cells of the feature map its
    projections index into."""

    fx: float
    fy: float
    cx: float
    cy: float
    world_to_cam: np.ndarray  # 4x4
    image_h: int
    image_w: int

    def __post_init__(self):
        """ConfigError unless fx, fy, cx, cy are finite reals (not bools), fx
        and fy positive, the image size fits, and world_to_cam is a finite 4x4
        rotation and translation, which is kept as a read-only float64 copy."""
        intrinsics = (self.fx, self.fy, self.cx, self.cy)
        if not (all(of_kind(v, 0.0) for v in intrinsics) and finite(*intrinsics)):
            raise ConfigError(f"fx, fy, cx, cy must be finite reals, got {intrinsics!r}")
        if self.fx <= 0 or self.fy <= 0:
            raise ConfigError(f"focal lengths must be positive, got {(self.fx, self.fy)}")
        _check_image_size(self.image_h, self.image_w)
        w2c = _finite_numbers(self.world_to_cam, (4, 4))
        if w2c is None:
            raise ConfigError(f"world_to_cam must be a finite 4x4 of numbers, "
                              f"got {self.world_to_cam!r}")
        r = w2c[:3, :3]
        if not np.allclose(r @ r.T, np.eye(3), atol=1e-9) or abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ConfigError("world_to_cam upper-left 3x3 is not a rotation")
        w2c.flags.writeable = False
        object.__setattr__(self, "world_to_cam", w2c)

    def scaled(self, factor: float) -> "CameraModel":
        """Camera for a feature map `factor` times smaller than the image.

        Uses the half-pixel-aligned rescale so that a feature cell covers
        exactly a factor x factor pixel block; ConfigError unless factor is a
        real > 0 (not a bool) that leaves the map a finite, non-zero size.
        """
        if not (of_kind(factor, 0.0) and factor > 0
                and finite(max(self.image_h, self.image_w) / factor)):
            raise ConfigError(f"scale factor {factor!r} is not a real > 0 giving a finite size")
        return CameraModel(
            fx=self.fx / factor,
            fy=self.fy / factor,
            cx=(self.cx + 0.5) / factor - 0.5,
            cy=(self.cy + 0.5) / factor - 0.5,
            world_to_cam=self.world_to_cam,
            image_h=int(self.image_h // factor),
            image_w=int(self.image_w // factor),
        )

    def to_json(self) -> dict:
        """The fields as plain floats, ints and nested lists."""
        return {
            "fx": float(self.fx), "fy": float(self.fy), "cx": float(self.cx), "cy": float(self.cy),
            "world_to_cam": self.world_to_cam.tolist(),
            "image_h": int(self.image_h), "image_w": int(self.image_w),
        }


def project_to_camera(refs: np.ndarray, cam: CameraModel):
    """Project anchors refs [...,4] into camera feature coordinates.

    Returns (rc, visible): rc[...,0] is the row, the vertical image
    coordinate v, and rc[...,1] the column, the horizontal u. A point is
    visible iff its camera depth exceeds 1e-6 and (u, v) lies inside
    [0, image_w-1] x [0, image_h-1]. Invisible entries carry rc = (0, 0) and
    must be masked downstream.
    """
    p = refs @ cam.world_to_cam.T  # [...,4]
    z = p[..., 2]
    in_front = z > 1e-6
    safe_z = np.where(in_front, z, 1.0)
    u = cam.fx * p[..., 0] / safe_z + cam.cx
    v = cam.fy * p[..., 1] / safe_z + cam.cy
    visible = in_front & (u >= 0.0) & (u <= cam.image_w - 1.0) & (v >= 0.0) & (v <= cam.image_h - 1.0)
    rc = np.stack([np.where(visible, v, 0.0), np.where(visible, u, 0.0)], axis=-1)
    return rc, visible


def project_to_lidar(refs: np.ndarray, extent, lidar_shape: Tuple[int, int]) -> np.ndarray:
    """Affine map from the world (x, y) of anchors refs [...,4] onto LiDAR
    grid (row, col) coordinates.

    The LiDAR grid covers extent, the BEV spec's (x_min, x_max, y_min,
    y_max); with matching resolution, cell centers land exactly on their own
    indices. The map drops z, so all D levels share the same 2D coordinates.
    """
    h_l, w_l = lidar_shape
    x_min, x_max, y_min, y_max = extent
    col = (refs[..., 0] - x_min) / (x_max - x_min) * w_l - 0.5
    row = (refs[..., 1] - y_min) / (y_max - y_min) * h_l - 0.5
    return np.stack([row, col], axis=-1)


def make_camera(position, yaw: float, pitch_down: float, fx: float, fy: float,
                image_h: int, image_w: int) -> CameraModel:
    """Camera at `position` looking along world yaw (radians, 0 = +x), tilted
    `pitch_down` radians below horizontal. Optical axis = camera +z, image
    right = +x, image down = +y; principal point at the image center.
    ConfigError unless position is 3 finite numbers, yaw and pitch_down
    finite reals (not bools), and the camera builds."""
    _check_image_size(image_h, image_w)
    pos = _finite_numbers(position, (3,))
    if pos is None or not (of_kind(yaw, 0.0) and of_kind(pitch_down, 0.0)
                           and finite(yaw, pitch_down)):
        raise ConfigError(f"position must be 3 finite numbers and yaw, pitch_down finite "
                          f"reals, got {position!r}, {yaw!r}, {pitch_down!r}")
    cp, sp = np.cos(pitch_down), np.sin(pitch_down)
    cy_, sy_ = np.cos(yaw), np.sin(yaw)
    forward = np.array([cy_ * cp, sy_ * cp, -sp])
    right = np.cross(forward, np.array([0.0, 0.0, 1.0]))
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    r_cw = np.stack([right, down, forward], axis=1)  # camera axes as world columns
    w2c = np.eye(4)
    w2c[:3, :3] = r_cw.T
    w2c[:3, 3] = -r_cw.T @ pos
    return CameraModel(
        fx=fx, fy=fy, cx=(image_w - 1) / 2.0, cy=(image_h - 1) / 2.0,
        world_to_cam=w2c, image_h=image_h, image_w=image_w,
    )
