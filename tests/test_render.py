"""The scene renderers against their loop oracle and pinned record bytes.

render_cameras must give the bytes of naive_reference.render_cameras_naive
(a full-grid meshgrid splat and an HWC blend per box and view, then each
view's rng.normal noise) on seeded scenes and on hand-built edge cases; the
sha256 of whole records is pinned, so a change in sampling, either renderer,
the record layout or numpy's normal stream fails here. The camera renderer
refuses a rig it would render wrong bytes for without a word, and
SceneParams the noise levels and LiDAR drop range that would."""

import hashlib

import numpy as np
import pytest

from bevkit.dataset import render_scene_record
from bevkit.errors import ConfigError, ContractError
from bevkit.geometry import BEVGridSpec, make_camera
from bevkit.rng import seeded_rng
from bevkit.synthscene import (SceneBox, SceneParams, _box_corners_3d, default_rig, render_cameras,
                               render_lidar, sample_scene)

from naive_reference import render_cameras_naive

SPEC = BEVGridSpec()
TINY_SPEC = BEVGridSpec(h=8, w=8, d=2)


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def splat_kind(box, cam):
    """How render_cameras treats box in cam: "behind" (center depth below
    0.5), "culled" (splat center past 3 sigma of the frame), "off-frame"
    (center outside the frame, drawn) or "in-frame"; and the number of the
    box's 8 corners in front of the 0.1 plane."""
    w2c = np.asarray(cam.world_to_cam)
    pc = _box_corners_3d(box) @ w2c.T
    good = pc[:, 2] > 0.1
    if (w2c @ np.array([box.cx, box.cy, box.height / 2.0, 1.0]))[2] < 0.5:
        return "behind", good.sum()
    us = cam.fx * pc[good, 0] / pc[good, 2] + cam.cx
    vs = cam.fy * pc[good, 1] / pc[good, 2] + cam.cy
    cu, cv = us.mean(), vs.mean()
    su = max(0.7, (us.max() - us.min()) / 4.0)
    sv = max(0.7, (vs.max() - vs.min()) / 4.0)
    w, h = cam.image_w, cam.image_h
    if cu < -3 * su or cu > w - 1 + 3 * su or cv < -3 * sv or cv > h - 1 + 3 * sv:
        return "culled", good.sum()
    if 0 <= cu <= w - 1 and 0 <= cv <= h - 1:
        return "in-frame", good.sum()
    return "off-frame", good.sum()


def box(cx, cy, yaw=0.2, w=2.0, l=4.0, class_id=1, height=1.5, appearance=0.7):
    return SceneBox(cx=cx, cy=cy, w=w, l=l, yaw=yaw, class_id=class_id, height=height,
                    appearance=appearance)


def test_cameras_equal_the_loop_oracle_on_seeded_scenes():
    """120 sampled scenes of 1 to 6 boxes on the default rig, each rendered
    from its own stream, give the oracle's bytes."""
    rig = default_rig()
    for scene_id in range(120):
        boxes = sample_scene(seeded_rng(5, "scene", scene_id), SceneParams(), SPEC)
        got = render_cameras(boxes, rig, seeded_rng(5, "cam", scene_id), SceneParams())
        want = render_cameras_naive(boxes, rig, seeded_rng(5, "cam", scene_id), 0.05)
        assert same_bytes(got, want), scene_id


# each box is chosen for what it does in view 0 of the default rig (yaw 0):
# the near box straddles the 0.1 plane with 6 of its corners in front; the
# far box at (6, 8) is centered left of the frame but within 3 sigma, so it
# is drawn, the one at (5, 30) is culled; the box at (-10, 0) is behind view 0
EDGE_SCENES = {
    "no boxes": [],
    "behind": [box(-10.0, 0.0, class_id=0)],
    "straddles the near plane": [box(0.8, 0.0, yaw=1.2, w=1.5, class_id=2)],
    "exactly 4 corners in front": [box(0.6, 0.0, yaw=0.0, w=1.5, class_id=2)],
    "off-frame": [box(6.0, 8.0)],
    "culled": [box(5.0, 30.0)],
    "all at once, overlapping": [box(6.0, 8.0), box(-10.0, 0.0, class_id=0),
                                 box(0.8, 0.0, yaw=1.2, w=1.5, class_id=2),
                                 box(10.0, 0.5, class_id=0), box(10.5, -0.5, class_id=2),
                                 box(5.0, 30.0)],
}
KINDS = {
    "behind": ("behind", 0),
    "straddles the near plane": ("in-frame", 6),
    "exactly 4 corners in front": ("in-frame", 4),
    "off-frame": ("off-frame", 8),
    "culled": ("culled", 8),
}
RIGS = {
    "default": default_rig(),
    "one view": default_rig()[:1],
    "7x5, fx 3.5": default_rig(image_h=7, image_w=5, fx=3.5),
    "30x20, fx 11": default_rig(image_h=30, image_w=20, fx=11.0),
    "1x1": default_rig(image_h=1, image_w=1, fx=1.0),
}


@pytest.mark.parametrize("rig_name", RIGS)
@pytest.mark.parametrize("scene_name", EDGE_SCENES)
def test_cameras_equal_the_loop_oracle_on_edge_cases(scene_name, rig_name):
    rig = RIGS[rig_name]
    boxes = EDGE_SCENES[scene_name]
    if scene_name in KINDS and rig_name == "default":
        assert splat_kind(boxes[0], rig[0]) == KINDS[scene_name]
    for sigma in (0.05, 0.0):
        got = render_cameras(boxes, rig, seeded_rng(3, "cam"), SceneParams(sigma_cam=sigma))
        want = render_cameras_naive(boxes, rig, seeded_rng(3, "cam"), sigma)
        assert same_bytes(got, want)


def test_a_splat_on_a_steeply_pitched_camera_equals_the_oracle():
    """A camera pitched 60 degrees down sees a box's top and bottom at very
    different depths."""
    cam = make_camera([0.0, 0.0, 1.6], yaw=0.3, pitch_down=np.deg2rad(60.0), fx=9.0, fy=7.0,
                      image_h=12, image_w=10)
    boxes = [box(1.5, 0.2, height=3.0), box(2.5, -0.5, class_id=0)]
    got = render_cameras(boxes, [cam], seeded_rng(1, "cam"), SceneParams())
    assert same_bytes(got, render_cameras_naive(boxes, [cam], seeded_rng(1, "cam"), 0.05))


def test_every_drawn_box_has_at_least_4_corners_in_front():
    """The corner depths pair up around the center's, so a box whose center
    lies at depth 0.5 or more has 4 or more corners past the 0.1 plane;
    render_cameras relies on it, as the oracle's fewer-than-4 branch can
    never be taken."""
    rng = np.random.default_rng(0)
    rig = default_rig()
    for _ in range(2000):
        b = box(rng.uniform(-4, 4), rng.uniform(-4, 4), yaw=rng.uniform(-np.pi, np.pi),
                w=rng.uniform(0.3, 4), l=rng.uniform(0.3, 9), height=rng.uniform(0.1, 6))
        for cam in rig:
            kind, in_front = splat_kind(b, cam)
            assert kind == "behind" or in_front >= 4


def test_the_noise_is_the_views_rng_normal_draws_in_order():
    """With no boxes the images are the views' noise: rng.normal(0, sigma)
    drawn view by view, each [H,W,3] in C order."""
    rig = default_rig(image_h=6, image_w=5, fx=4.0)
    got = render_cameras([], rig, seeded_rng(2, "cam"), SceneParams(sigma_cam=0.3))
    rng = seeded_rng(2, "cam")
    want = np.stack([rng.normal(0.0, 0.3, (6, 5, 3)) for _ in rig])
    assert same_bytes(got, want)


def test_lidar_draws_the_keep_field_then_occupancy_then_height_noise():
    """With no boxes the grid is its noise: after the [H,W] keep field,
    rng.normal(0, sigma) for occupancy, then for height."""
    got = render_lidar([], SPEC, (5, 7), seeded_rng(2, "lidar"), SceneParams(sigma_lidar=0.2))
    rng = seeded_rng(2, "lidar")
    rng.random((5, 7))
    want = np.stack([rng.normal(0.0, 0.2, (5, 7)), rng.normal(0.0, 0.2, (5, 7))], axis=-1)
    assert same_bytes(got, want)


@pytest.mark.parametrize("rig", [
    [],
    [*default_rig()[:2], *default_rig(image_h=48, image_w=32)[2:]],
    [*default_rig(image_h=47)[:1], *default_rig()[1:]],
], ids=["empty", "mixed widths", "mixed heights"])
def test_cameras_refuse_an_empty_or_mixed_rig(rig):
    with pytest.raises(ContractError):
        render_cameras([box(10.0, 0.0)], rig, seeded_rng(0, "cam"), SceneParams())


BAD_SIGMAS = [-0.05, -np.inf, np.inf, np.nan]


@pytest.mark.parametrize("sigma", BAD_SIGMAS)
def test_scene_params_refuse_a_negative_or_non_finite_sigma_cam(sigma):
    with pytest.raises(ConfigError, match="sigma_cam"):
        SceneParams(sigma_cam=sigma)


@pytest.mark.parametrize("sigma", BAD_SIGMAS)
def test_scene_params_refuse_a_negative_or_non_finite_sigma_lidar(sigma):
    with pytest.raises(ConfigError, match="sigma_lidar"):
        SceneParams(sigma_lidar=sigma)


@pytest.mark.parametrize("drop_full_range", [0.0, -0.0, -40.0, np.inf, -np.inf, np.nan])
def test_scene_params_refuse_a_drop_range_that_is_not_finite_and_positive(drop_full_range):
    with pytest.raises(ConfigError, match="drop_full_range"):
        SceneParams(lidar_drop_full_range=drop_full_range)


# sha256 of render_scene_record(seed, scene_id, SceneParams(), ...), first
# taken from the per-view meshgrid renderer and rng.normal noise
RECORD_SHA256 = {
    ("default", 0, 0): "8a8a6fcdb24ad3b0a3dff7490097830d592e0a284771b48ecf04b2ef12fb388a",
    ("default", 1, 3): "a5bdba0dfff3bd7903a1901fa9f0e9f7139064a66e6e2bbf0f9d248cec877540",
    ("default", 7, 11): "441ecdd357ec9207adaced830494b828a6f177a569f82461bf82369261236319",
    ("default", 2**32 - 1, 5): "8e31d9cbd65c74b854fe2a5a46ad25b0052ac01a2a584c9a32e6d34c6a0eaca6",
    ("tiny", 0, 0): "ba9d9ddab1d82809de43e8c25d9f8833eda5f6d27440ff2b193a8cb3503e9447",
    ("tiny", 1, 3): "fb55e579050ff3ae5e5387886b8cec6c5cf5621cdd775975a6d4d8520d2604e6",
    ("tiny", 7, 11): "5163e646446684ea4e85f65d84e451a57761c878eb61dcfcb55a28fb19c3d672",
    ("tiny", 2**32 - 1, 5): "69001a4750374799c6b829f971833db0af73a430b94ffbfb95d149c1f5d0476c",
}
SIZES = {
    # the defaults of generate_dataset, and tests/test_dataset.py's TINY
    "default": (SPEC, default_rig(), (32, 32)),
    "tiny": (TINY_SPEC, default_rig(image_h=2, image_w=4, fx=1.0), (4, 4)),
}


@pytest.mark.parametrize("size, seed, scene_id", RECORD_SHA256)
def test_record_bytes_are_pinned(size, seed, scene_id):
    spec, rig, lidar_shape = SIZES[size]
    record = render_scene_record(seed, scene_id, SceneParams(), spec, rig, lidar_shape)
    assert hashlib.sha256(record).hexdigest() == RECORD_SHA256[size, seed, scene_id]
