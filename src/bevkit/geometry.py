"""BEV reference grid and its projections into sensor feature coordinates.

The grid uses a cell-center convention throughout: cell (h, w) at pillar
level z sits at (x_min + (w+0.5)dx, y_min + (h+0.5)dy, z_min + (z+0.5)dz).
With matching resolutions this makes the BEV-to-LiDAR map an exact identity
on cell indices.

Pure functions over immutable inputs; safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ConfigError, ContractError, check_field_kinds


@dataclass(frozen=True)
class BEVGridSpec:
    """BEV grid resolution and metric extent."""

    h: int = 32
    w: int = 32
    d: int = 4
    extent: Tuple[float, float, float, float] = (-16.0, 16.0, -16.0, 16.0)  # x_min,x_max,y_min,y_max
    z_range: Tuple[float, float] = (-1.0, 3.0)

    def validate(self):
        check_field_kinds(self)
        x_min, x_max, y_min, y_max = self.extent
        z_min, z_max = self.z_range
        if min(self.h, self.w, self.d) < 1:
            raise ConfigError(f"grid dims must be >= 1, got {(self.h, self.w, self.d)}")
        if not np.all(np.isfinite([*self.extent, *self.z_range])):
            raise ConfigError(f"non-finite extent {self.extent} / z_range {self.z_range}")
        if not (x_max > x_min and y_max > y_min and z_max > z_min):
            raise ConfigError(f"degenerate extent {self.extent} / z_range {self.z_range}")
        return self


class ReferenceGrid:
    """Homogeneous 3D anchor points, D per BEV cell, shape [D,H,W,4]."""

    def __init__(self, points: np.ndarray, spec: BEVGridSpec):
        self.points = points
        self.spec = spec

    @property
    def shape(self):
        return self.points.shape


def build_reference_grid(spec: BEVGridSpec) -> ReferenceGrid:
    """Cell-center anchors: (z,h,w) -> (x(w), y(h), z(z), 1)."""
    spec.validate()
    x_min, x_max, y_min, y_max = spec.extent
    z_min, z_max = spec.z_range
    xs = x_min + (np.arange(spec.w) + 0.5) * (x_max - x_min) / spec.w
    ys = y_min + (np.arange(spec.h) + 0.5) * (y_max - y_min) / spec.h
    zs = z_min + (np.arange(spec.d) + 0.5) * (z_max - z_min) / spec.d
    pts = np.empty((spec.d, spec.h, spec.w, 4))
    pts[..., 0] = xs[None, None, :]
    pts[..., 1] = ys[None, :, None]
    pts[..., 2] = zs[:, None, None]
    pts[..., 3] = 1.0
    return ReferenceGrid(pts, spec)


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

    def validate(self):
        if not np.all(np.isfinite([self.fx, self.fy, self.cx, self.cy])):
            raise ContractError(f"non-finite fx, fy, cx, cy {(self.fx, self.fy, self.cx, self.cy)}")
        if self.fx <= 0 or self.fy <= 0:
            raise ContractError(f"focal lengths must be positive, got {(self.fx, self.fy)}")
        if self.image_h < 1 or self.image_w < 1:
            raise ContractError(f"image size must be >= 1, got {(self.image_h, self.image_w)}")
        w2c = np.asarray(self.world_to_cam, dtype=np.float64)
        if w2c.shape != (4, 4) or not np.all(np.isfinite(w2c)):
            raise ContractError(f"world_to_cam must be a finite 4x4 matrix, got {w2c.tolist()}")
        r = w2c[:3, :3]
        if not np.allclose(r @ r.T, np.eye(3), atol=1e-9) or abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ContractError("world_to_cam upper-left 3x3 is not a rotation")
        return self

    def scaled(self, factor: float) -> "CameraModel":
        """Camera for a feature map `factor` times smaller than the image.

        Uses the half-pixel-aligned rescale so that a feature cell covers
        exactly a factor x factor pixel block.
        """
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
        return {
            "fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy,
            "world_to_cam": np.asarray(self.world_to_cam).tolist(),
            "image_h": self.image_h, "image_w": self.image_w,
        }

    @staticmethod
    def from_json(d: dict) -> "CameraModel":
        return CameraModel(
            fx=d["fx"], fy=d["fy"], cx=d["cx"], cy=d["cy"],
            world_to_cam=np.asarray(d["world_to_cam"], dtype=np.float64),
            image_h=d["image_h"], image_w=d["image_w"],
        )


def project_to_camera(refs: ReferenceGrid, cam: CameraModel):
    """Project anchors into camera feature coordinates.

    Returns (uv, visible): uv[...,0] is the horizontal coordinate u,
    uv[...,1] the vertical v. A point is visible iff its camera depth
    exceeds 1e-6 and (u, v) lies inside [0, image_w-1] x [0, image_h-1].
    Invisible entries carry uv = (0, 0) and must be masked downstream.
    """
    cam.validate()
    p = refs.points @ np.asarray(cam.world_to_cam).T  # [...,4]
    z = p[..., 2]
    in_front = z > 1e-6
    safe_z = np.where(in_front, z, 1.0)
    u = cam.fx * p[..., 0] / safe_z + cam.cx
    v = cam.fy * p[..., 1] / safe_z + cam.cy
    visible = in_front & (u >= 0.0) & (u <= cam.image_w - 1.0) & (v >= 0.0) & (v <= cam.image_h - 1.0)
    uv = np.stack([np.where(visible, u, 0.0), np.where(visible, v, 0.0)], axis=-1)
    return uv, visible


def project_to_lidar(refs: ReferenceGrid, lidar_shape: Tuple[int, int]) -> np.ndarray:
    """Affine map from world (x, y) onto LiDAR grid (row, col) coordinates.

    The LiDAR grid covers the same extent as the BEV spec; with matching
    resolution, cell centers land exactly on their own indices. The map drops
    z, so all D levels share the same 2D coordinates.
    """
    h_l, w_l = lidar_shape
    spec = refs.spec
    x_min, x_max, y_min, y_max = spec.extent
    col = (refs.points[..., 0] - x_min) / (x_max - x_min) * w_l - 0.5
    row = (refs.points[..., 1] - y_min) / (y_max - y_min) * h_l - 0.5
    return np.stack([row, col], axis=-1)


def make_camera(position, yaw: float, pitch_down: float, fx: float, fy: float,
                image_h: int, image_w: int) -> CameraModel:
    """Camera at `position` looking along world yaw (radians, 0 = +x), tilted
    `pitch_down` radians below horizontal. Optical axis = camera +z, image
    right = +x, image down = +y; principal point at the image center."""
    cp, sp = np.cos(pitch_down), np.sin(pitch_down)
    cy_, sy_ = np.cos(yaw), np.sin(yaw)
    forward = np.array([cy_ * cp, sy_ * cp, -sp])
    right = np.cross(forward, np.array([0.0, 0.0, 1.0]))
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    r_cw = np.stack([right, down, forward], axis=1)  # camera axes as world columns
    w2c = np.eye(4)
    w2c[:3, :3] = r_cw.T
    w2c[:3, 3] = -r_cw.T @ np.asarray(position, dtype=np.float64)
    return CameraModel(
        fx=fx, fy=fy, cx=(image_w - 1) / 2.0, cy=(image_h - 1) / 2.0,
        world_to_cam=w2c, image_h=image_h, image_w=image_w,
    ).validate()
