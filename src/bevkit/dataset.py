"""On-disk scene datasets.

A dataset is a directory holding ``manifest.json`` (generation parameters,
seed, camera models, counts, and the per-record field list) plus one binary
record per scene under ``scenes/``. Each record is the manifest-declared
fields in order; every field is written as little-endian unsigned 64-bit
``ndim`` then each dimension, then the raw little-endian payload. Bytes are a
pure function of (seed, params): per-scene rng streams are derived from
(seed, kind, scene_id), so records can be produced in any order without
changing a single byte.
Each setting has one check, made by both the writer (ConfigError) and the
reader (DataError); the configs and cameras make theirs when built.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DataError, fits, of_kind
from .geometry import BEVGridSpec, CameraModel
from .rng import SEED_LIMIT, seeded_rng
from .synthscene import (
    FX,
    IMAGE_H,
    IMAGE_W,
    RenderedSample,
    SceneBox,
    SceneParams,
    default_rig,
    render_cameras,
    render_lidar,
    sample_scene,
)

_FIELDS = [
    ("camera_images", "<f8"),
    ("lidar_grid", "<f8"),
    ("gt_centers", "<f8"),
    ("gt_sizes", "<f8"),
    ("gt_yaws", "<f8"),
    ("gt_heights", "<f8"),
    ("gt_classes", "<i8"),
    ("gt_appearance", "<f8"),
]


def _record_bytes(arrays) -> bytes:
    """The record of arrays, a mapping from every name of _FIELDS to its
    array: each field's header and payload in _FIELDS order, joined once."""
    parts = []
    for name, dtype in _FIELDS:
        arr = np.ascontiguousarray(arrays[name], dtype=dtype)
        parts += (struct.pack(f"<{arr.ndim + 1}Q", arr.ndim, *arr.shape), arr)
    return b"".join(parts)


def _read_array(path, buf: memoryview, offset: int, dtype: str):
    """(view of buf, offset past it) of the field at offset in the record
    read from path; DataError where the record ends inside the field."""
    if offset + 8 > len(buf):
        raise DataError(f"{path}: record truncated inside a field header")
    (ndim,) = struct.unpack_from("<Q", buf, offset)
    offset += 8
    if offset + 8 * ndim > len(buf):
        raise DataError(f"{path}: record truncated inside a header of {ndim} dimensions")
    shape = struct.unpack_from(f"<{ndim}Q", buf, offset)
    offset += 8 * ndim
    count = math.prod(shape)
    if offset + count * np.dtype(dtype).itemsize > len(buf):
        raise DataError(f"{path}: record truncated inside a field of shape {shape}")
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=offset).reshape(shape)
    return arr, offset + arr.nbytes


def _config_from_json(cls, d, what: str):
    """The manifest's section what as a cls, which checks itself when built;
    DataError unless d has exactly cls's fields as keys."""
    if not isinstance(d, dict) or d.keys() != {f.name for f in fields(cls)}:
        raise DataError(f"manifest {what} must have the keys of {cls.__name__}, got {d!r}")
    return cls(**d)


def _check_n_scenes(n_scenes):
    """ConfigError unless n_scenes is an integer len() can return, >= 0."""
    if not of_kind(n_scenes, 0) or not 0 <= n_scenes <= sys.maxsize:
        raise ConfigError(f"n_scenes must be an integer in [0, sys.maxsize], got {n_scenes!r}")


def _check_lidar_shape(lidar_shape):
    """ConfigError unless lidar_shape is two sizes whose [h, w, 2] grid fits."""
    if not (of_kind(lidar_shape, (0, 0)) and fits(lidar_shape, 2)):
        raise ConfigError(f"lidar_shape must be two integers >= 1 that fit np.empty, "
                          f"got {lidar_shape!r}")


def render_scene_record(seed: int, scene_id: int, params: SceneParams,
                        spec: BEVGridSpec, rig, lidar_shape) -> bytes:
    """Render one scene to its record bytes (deterministic in all arguments).
    ContractError unless seed and scene_id are integers in [0, 2**32), and
    ConfigError unless lidar_shape passes _check_lidar_shape."""
    _check_lidar_shape(lidar_shape)
    boxes = sample_scene(seeded_rng(seed, "scene", scene_id), params, spec)
    images = render_cameras(boxes, rig, seeded_rng(seed, "cam", scene_id), params)
    lidar = render_lidar(boxes, spec, lidar_shape, seeded_rng(seed, "lidar", scene_id), params)
    n = len(boxes)
    arrays = {
        "camera_images": images,
        "lidar_grid": lidar,
        "gt_centers": np.array([[b.cx, b.cy] for b in boxes]).reshape(n, 2),
        "gt_sizes": np.array([[b.w, b.l] for b in boxes]).reshape(n, 2),
        "gt_yaws": np.array([b.yaw for b in boxes]),
        "gt_heights": np.array([b.height for b in boxes]),
        "gt_classes": np.array([b.class_id for b in boxes], dtype=np.int64),
        "gt_appearance": np.array([b.appearance for b in boxes]),
    }
    return _record_bytes(arrays)


def generate_dataset(root, n_scenes: int, seed: int, params: SceneParams,
                     spec: BEVGridSpec, lidar_shape=(32, 32), image_h: int = IMAGE_H,
                     image_w: int = IMAGE_W, fx: float = FX) -> "SceneDataset":
    """Render n_scenes scenes into root, a new or empty directory, and open
    it. root, the scene parameters' margin against the grid's extent,
    n_scenes, seed, lidar_shape and the cameras built from image_h, image_w
    and fx are checked (ConfigError) before anything is written. The
    manifest is written after the last record, so a run that stops part-way
    leaves no directory that opens as a dataset."""
    params.center_bounds(spec)
    _check_n_scenes(n_scenes)
    if not of_kind(seed, 0) or not 0 <= seed < SEED_LIMIT:
        raise ConfigError(f"seed must be an integer in [0, 2**32), got {seed!r}")
    _check_lidar_shape(lidar_shape)
    rig = default_rig(image_h=image_h, image_w=image_w, fx=fx)
    root = Path(root)
    if root.exists() and not (root.is_dir() and next(root.iterdir(), None) is None):
        raise ConfigError(f"{root} exists and is not an empty directory")
    n_scenes, seed, lidar_shape = int(n_scenes), int(seed), tuple(map(int, lidar_shape))
    (root / "scenes").mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": "bevkit-dataset",
        "version": 1,
        "seed": seed,
        "n_scenes": n_scenes,
        "scene_params": asdict(params),
        "grid": asdict(spec),
        "lidar_shape": list(lidar_shape),
        "cameras": [c.to_json() for c in rig],
        "record_fields": [{"name": n, "dtype": d} for n, d in _FIELDS],
    }
    for i in range(n_scenes):
        record = render_scene_record(seed, i, params, spec, rig, lidar_shape)
        (root / "scenes" / f"scene_{i:06d}.bin").write_bytes(record)
    with open(root / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    return SceneDataset(root)


class SceneDataset:
    """Read access to a generated dataset directory."""

    def __init__(self, root):
        """Open a dataset directory. A missing, truncated or malformed
        manifest.json (not JSON, a key missing, a setting that fails the
        check generate_dataset makes) raises DataError."""
        self.root = Path(root)
        manifest_path = self.root / "manifest.json"
        if not manifest_path.exists():
            raise DataError(f"{self.root}: no manifest.json (not a dataset directory)")
        try:
            manifest = json.loads(manifest_path.read_bytes())
        except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
            raise DataError(f"{manifest_path}: not a JSON manifest: {e}") from None
        if not isinstance(manifest, dict) or manifest.get("format") != "bevkit-dataset":
            raise DataError(f"{self.root}: unrecognized dataset format")
        if manifest.get("record_fields") != [{"name": n, "dtype": d} for n, d in _FIELDS]:
            raise DataError(f"{manifest_path}: record_fields are not {_FIELDS}")
        cameras = manifest.get("cameras")
        if not isinstance(cameras, list):
            raise DataError(f"{manifest_path}: cameras must be a list, got {cameras!r}")
        try:
            _check_n_scenes(manifest.get("n_scenes"))
            _check_lidar_shape(manifest.get("lidar_shape"))
            self.params = _config_from_json(SceneParams, manifest.get("scene_params"),
                                            "scene_params")
            self.spec = _config_from_json(BEVGridSpec, manifest.get("grid"), "grid")
            self.cams = [_config_from_json(CameraModel, c, "camera") for c in cameras]
        except ConfigError as e:
            raise DataError(f"{manifest_path}: {e}") from None
        self.n_scenes = manifest["n_scenes"]
        self.lidar_shape = tuple(manifest["lidar_shape"])
        image_sizes = {(c.image_h, c.image_w) for c in self.cams}
        if len(image_sizes) != 1:
            raise DataError(f"{manifest_path}: cameras must share one image size, "
                            f"got {sorted(image_sizes)}")
        self._images_shape = (len(self.cams), *image_sizes.pop(), 3)

    def __len__(self):
        return self.n_scenes

    def load(self, i: int) -> RenderedSample:
        if not of_kind(i, 0):
            raise ContractError(f"scene index must be an integer, got {i!r}")
        i = int(i)
        if not 0 <= i < self.n_scenes:
            raise DataError(f"scene index {i} out of range [0, {self.n_scenes})")
        path = self.root / "scenes" / f"scene_{i:06d}.bin"
        try:
            with open(path, "rb") as f:
                # the fields are views of it; np.empty skips bytearray's zero fill
                raw = np.empty(os.fstat(f.fileno()).st_size, dtype=np.uint8)
                raw = memoryview(raw)[:f.readinto(raw)]
        except FileNotFoundError:
            raise DataError(f"missing scene record {path}")
        arrays = {}
        offset = 0
        for name, dtype in _FIELDS:
            arrays[name], offset = _read_array(path, raw, offset, dtype)
        if offset != len(raw):
            raise DataError(f"{path}: {len(raw) - offset} bytes past the last field")
        if arrays["camera_images"].shape != self._images_shape:
            raise DataError(f"{path}: camera_images shaped {arrays['camera_images'].shape}, "
                            f"not {list(self._images_shape)}")
        if arrays["lidar_grid"].shape != (*self.lidar_shape, 2):
            raise DataError(f"{path}: lidar_grid shaped {arrays['lidar_grid'].shape}, "
                            f"not {[*self.lidar_shape, 2]}")
        n = arrays["gt_yaws"].size
        box_shapes = [arrays[name].shape for name, _ in _FIELDS[2:]]
        if box_shapes != [(n, 2), (n, 2), (n,), (n,), (n,), (n,)]:
            raise DataError(f"{path}: box fields disagree on the box count: {box_shapes}")
        boxes = []
        n_classes = self.params.n_classes
        rows = zip(*(arrays[name].tolist() for name, _ in _FIELDS[2:]))
        for j, ((cx, cy), (w, l), yaw, height, class_id, appearance) in enumerate(rows):
            box = SceneBox(cx=cx, cy=cy, w=w, l=l, yaw=yaw, class_id=class_id, height=height,
                           appearance=appearance)
            if not (0 <= class_id < n_classes
                    and all(map(math.isfinite, (cx, cy, w, l, yaw, height, appearance)))):
                raise DataError(f"{path}: box {j} has a class id outside [0, {n_classes}) "
                                f"or a non-finite field: {box}")
            boxes.append(box)
        return RenderedSample(
            scene_id=i,
            camera_images=arrays["camera_images"],
            lidar_grid=arrays["lidar_grid"],
            gts=boxes,
            cams=self.cams,
        )
