"""Reference grid construction and projection tests."""

import dataclasses

import numpy as np
import pytest

from bevkit.errors import ConfigError
from bevkit.geometry import (
    BEVGridSpec,
    CameraModel,
    build_reference_grid,
    make_camera,
    project_to_camera,
    project_to_lidar,
)
from bevkit.synthscene import default_rig


INF, NAN = float("inf"), float("nan")


def translated(t):
    m = np.eye(4)
    m[:3, 3] = t
    return m


def unproject(cam, u, v, depth):
    """World point whose projection by cam is (u, v) at camera depth `depth`."""
    x = (u - cam.cx) / cam.fx * depth
    y = (v - cam.cy) / cam.fy * depth
    return np.linalg.inv(cam.world_to_cam) @ np.array([x, y, depth, 1.0])


def identity_camera(image_h=10, image_w=12, fx=5.0, fy=5.0, cx=0.0, cy=0.0):
    return CameraModel(fx=fx, fy=fy, cx=cx, cy=cy, world_to_cam=np.eye(4),
                       image_h=image_h, image_w=image_w)


class TestReferenceGrid:
    def test_single_cell_center(self):
        spec = BEVGridSpec(h=1, w=1, d=1, extent=(-1, 1, -1, 1), z_range=(-1, 1))
        grid = build_reference_grid(spec)
        assert np.allclose(grid[0, 0, 0], [0.0, 0.0, 0.0, 1.0])

    def test_hand_arithmetic_2x2(self):
        spec = BEVGridSpec(h=2, w=2, d=1, extent=(0, 2, 0, 2), z_range=(0, 1))
        grid = build_reference_grid(spec)
        assert sorted(set(grid[..., 0].reshape(-1))) == [0.5, 1.5]
        assert sorted(set(grid[..., 1].reshape(-1))) == [0.5, 1.5]

    def test_homogeneous_component(self):
        grid = build_reference_grid(BEVGridSpec(h=3, w=4, d=2))
        assert np.all(grid[..., 3] == 1.0)

    def test_monotone_axes(self):
        grid = build_reference_grid(BEVGridSpec(h=4, w=5, d=3))
        assert np.all(np.diff(grid[0, 0, :, 0]) > 0)  # x grows with w
        assert np.all(np.diff(grid[0, :, 0, 1]) > 0)  # y grows with h
        assert np.all(np.diff(grid[:, 0, 0, 2]) > 0)  # z grows with level

    def test_pillar_shares_xy(self):
        grid = build_reference_grid(BEVGridSpec(h=3, w=3, d=4))
        assert np.all(grid[:, 1, 2, 0] == grid[0, 1, 2, 0])
        assert np.all(grid[:, 1, 2, 1] == grid[0, 1, 2, 1])

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            BEVGridSpec(h=0, w=2, d=1)
        with pytest.raises(ConfigError):
            BEVGridSpec(extent=(1, -1, 0, 1))

    @pytest.mark.parametrize("field,value", [
        ("extent", (-16.0, INF, -16.0, 16.0)),
        ("extent", (-16.0, 16.0, -INF, 16.0)),
        ("z_range", (-1.0, INF)),
    ])
    def test_non_finite_spec(self, field, value):
        spec = BEVGridSpec(h=2, w=2, d=1)
        with pytest.raises(ConfigError):
            dataclasses.replace(spec, **{field: value})

    @pytest.mark.parametrize("kw", [
        dict(h=2.5),  # TypeError in the detector without the check
        dict(w="3"),  # TypeError in the extent check without the kind check
        dict(d=True),
        dict(extent=(-16.0, 16.0)),  # a bare ValueError (unpacking) without the check
        dict(extent=(-16.0, 16.0, -16.0, "16")),
        dict(z_range=(-1.0, 3.0, 5.0)),
        dict(z_range=3.0),
    ], ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
    def test_wrongly_kinded_spec_is_config_error(self, kw):
        from bevkit.model import Detector, ModelConfig

        with pytest.raises(ConfigError):
            BEVGridSpec(**kw)
        with pytest.raises(ConfigError):
            Detector(ModelConfig(), BEVGridSpec(**kw), np.random.default_rng(0))

    @pytest.mark.parametrize("h", [2**62, 10**30], ids=["2**62", "10**30"])
    def test_a_grid_numpy_cannot_hold_is_config_error(self, h):
        """A [d, h, w, 4] reference grid of more than sys.maxsize bytes is
        refused when the spec is built; build_reference_grid would raise
        numpy's bare ValueError."""
        with pytest.raises(ConfigError, match="fit np.empty"):
            BEVGridSpec(h=h, w=2, d=1)

    def test_numpy_sizes_and_integer_extents_are_accepted(self):
        spec = BEVGridSpec(h=np.int64(4), w=np.int32(3), d=2, extent=(-8, 8, -6, 6),
                           z_range=[np.int64(-1), 3])
        assert spec.z_range == (-1, 3)
        assert build_reference_grid(spec).shape == (2, 4, 3, 4)


class TestCameraProjection:
    def test_manual_projection_oracle(self):
        # camera at origin looking along +z (world_to_cam = identity);
        # point (0,0,1): u = fx*0/1 + cx = 0 -> outside [0, w-1]? cx=0 puts it
        # at pixel (0,0), which is in bounds.
        spec = BEVGridSpec(h=1, w=1, d=1, extent=(-0.01, 0.01, -0.01, 0.01), z_range=(0.99, 1.01))
        grid = build_reference_grid(spec)
        cam = identity_camera()
        rc, vis = project_to_camera(grid, cam)
        assert vis[0, 0, 0]
        assert np.allclose(rc[0, 0, 0], [0.0, 0.0], atol=1e-9)

    def test_hand_multiply_oracle(self):
        # independent 3x4 multiply for a nontrivial pose
        cam = make_camera([1.0, -2.0, 0.5], yaw=0.7, pitch_down=0.1, fx=20, fy=22,
                          image_h=40, image_w=60)
        p_world = np.array([6.0, 1.5, 0.8, 1.0])
        pc = np.asarray(cam.world_to_cam) @ p_world
        u_ref = cam.fx * pc[0] / pc[2] + cam.cx
        v_ref = cam.fy * pc[1] / pc[2] + cam.cy
        spec = BEVGridSpec(h=1, w=1, d=1,
                           extent=(5.99, 6.01, 1.49, 1.51), z_range=(0.79, 0.81))
        rc, vis = project_to_camera(build_reference_grid(spec), cam)
        assert vis[0, 0, 0]
        assert np.allclose(rc[0, 0, 0], [v_ref, u_ref], atol=1e-9)  # (row, col)

    def test_behind_camera_invisible(self):
        spec = BEVGridSpec(h=1, w=1, d=1, extent=(-0.01, 0.01, -0.01, 0.01), z_range=(-1.01, -0.99))
        rc, vis = project_to_camera(build_reference_grid(spec), identity_camera())
        assert not vis[0, 0, 0]
        assert np.all(rc[0, 0, 0] == 0.0)

    def test_rigid_invariance_under_joint_translation(self):
        offset = np.array([3.0, -1.0, 0.25])
        cam_a = make_camera([0.0, 0.0, 1.6], yaw=0.3, pitch_down=0.05, fx=24, fy=24,
                            image_h=48, image_w=64)
        cam_b = make_camera(offset + [0.0, 0.0, 1.6], yaw=0.3, pitch_down=0.05, fx=24, fy=24,
                            image_h=48, image_w=64)
        spec_a = BEVGridSpec(h=2, w=2, d=2, extent=(4, 6, -1, 1), z_range=(0, 1))
        spec_b = BEVGridSpec(h=2, w=2, d=2,
                             extent=(4 + offset[0], 6 + offset[0], -1 + offset[1], 1 + offset[1]),
                             z_range=(0 + offset[2], 1 + offset[2]))
        rc_a, vis_a = project_to_camera(build_reference_grid(spec_a), cam_a)
        rc_b, vis_b = project_to_camera(build_reference_grid(spec_b), cam_b)
        assert np.array_equal(vis_a, vis_b)
        assert np.allclose(rc_a, rc_b, atol=1e-9)

    def test_pixel_roundtrip(self):
        cam = make_camera([0.5, 1.0, 1.6], yaw=1.1, pitch_down=0.09, fx=24, fy=24,
                          image_h=48, image_w=64)
        for u, v, d in [(10.0, 20.0, 3.0), (63.0, 0.0, 7.5), (31.7, 24.2, 12.0)]:
            world = unproject(cam, u, v, d)
            pc = np.asarray(cam.world_to_cam) @ world
            u2 = cam.fx * pc[0] / pc[2] + cam.cx
            v2 = cam.fy * pc[1] / pc[2] + cam.cy
            assert abs(u2 - u) < 1e-9 and abs(v2 - v) < 1e-9

    def test_default_rig_geometry(self):
        """Four cameras 1.6 m above the ego origin, looking along yaw
        0/90/180/270 degrees, each pitched 5 degrees down."""
        rig = default_rig()
        assert len(rig) == 4
        for i, cam in enumerate(rig):
            rot, t = cam.world_to_cam[:3, :3], cam.world_to_cam[:3, 3]
            assert np.allclose(-rot.T @ t, [0.0, 0.0, 1.6], rtol=0, atol=1e-12)
            axis = rot[2]  # the optical axis, camera +z, in world coordinates
            yaw = np.deg2rad(90.0 * i)
            assert np.allclose(axis[:2] / np.hypot(*axis[:2]), [np.cos(yaw), np.sin(yaw)],
                               rtol=0, atol=1e-12)
            assert np.rad2deg(np.arcsin(-axis[2])) == pytest.approx(5.0, rel=0, abs=1e-9)

    def test_rotation_validation(self):
        bad = np.eye(4)
        bad[0, 0] = 2.0
        with pytest.raises(ConfigError, match="rotation"):
            CameraModel(fx=1, fy=1, cx=0, cy=0, world_to_cam=bad, image_h=4, image_w=4)

    @pytest.mark.parametrize("field,value", [
        ("fx", NAN),
        ("fy", INF),
        ("cx", INF),
        ("cy", NAN),
        ("world_to_cam", translated([0.0, INF, 0.0])),
        ("world_to_cam", translated([NAN, 0.0, 0.0])),
        ("image_h", 0),
        ("image_w", -1),
        ("fx", True),
        ("cy", "0"),
        pytest.param("fy", 10**400, id="fy-10**400"),
        ("image_h", 2.5),
        ("image_w", "12"),
        ("image_w", False),
        ("image_h", 2**62),
        pytest.param("image_w", 10**400, id="image_w-10**400"),
        ("world_to_cam", [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                          [0.0, 0.0, 0.0, 1.0]]),
        ("world_to_cam", np.eye(4, dtype=bool)),
        ("world_to_cam", np.eye(3)),
        ("world_to_cam", "eye"),
        ("world_to_cam", None),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_non_finite_or_empty_camera(self, field, value):
        """A non-finite value, a bool, a string or an integer too large for a
        float where a finite real is needed, an image size that is not an
        integer >= 1 or whose image numpy cannot hold, and a pose that is not
        a finite 4x4 of numbers (a ragged list included) are refused when
        the camera is built."""
        with pytest.raises(ConfigError):
            dataclasses.replace(identity_camera(), **{field: value})

    def test_pose_is_a_read_only_float64_copy(self):
        pose = np.eye(4, dtype=np.int64)
        cam = CameraModel(fx=5, fy=5.0, cx=0, cy=0.0, world_to_cam=pose, image_h=np.int64(3),
                          image_w=4)
        assert cam.world_to_cam.dtype == np.float64 and not cam.world_to_cam.flags.writeable
        pose[0, 3] = 7
        assert np.array_equal(cam.world_to_cam, np.eye(4))
        with pytest.raises(ValueError, match="read-only"):
            cam.world_to_cam[0, 3] = 7.0
        assert (cam.fx, cam.cx, cam.image_h) == (5, 0, 3)  # the other fields as given
        assert type(cam.fx) is int and type(cam.image_h) is np.int64

    def test_json_round_trip(self):
        cam = CameraModel(fx=5, fy=5.0, cx=0, cy=0.5, world_to_cam=translated([1.0, -2.0, 0.5]),
                          image_h=np.int64(3), image_w=4)
        plain = cam.to_json()
        assert plain == {"fx": 5.0, "fy": 5.0, "cx": 0.0, "cy": 0.5,
                         "world_to_cam": translated([1.0, -2.0, 0.5]).tolist(),
                         "image_h": 3, "image_w": 4}
        assert [type(plain[k]) for k in ("fx", "cx", "image_h")] == [float, float, int]
        assert CameraModel(**plain).to_json() == plain

    @pytest.mark.parametrize("size", [(1, 8), (8, 1)])
    def test_a_camera_scaled_to_no_pixel_is_config_error(self, size):
        """A 1-pixel side halves to 0 at the camera backbone's stride 2."""
        cam = default_rig(image_h=size[0], image_w=size[1], fx=1.0)[0]
        with pytest.raises(ConfigError, match="image_h and image_w"):
            cam.scaled(2)

    @pytest.mark.parametrize("kw", [dict(image_w="4"), dict(image_h=None), pytest.param(dict(image_w=10**400), id="image_w=10**400"),
                                    dict(image_h=2**62), dict(fx=float("nan")), dict(fy=True)],
                             ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
    def test_make_camera_refuses_a_bad_size_or_focal_length(self, kw):
        """The size is checked before make_camera's arithmetic on it, which
        would raise TypeError or OverflowError."""
        args = {**dict(fx=6.0, fy=6.0, image_h=12, image_w=16), **kw}
        with pytest.raises(ConfigError):
            make_camera([0.0, 0.0, 1.6], 0.0, 0.0, **args)

    @pytest.mark.parametrize("kw", [dict(position="ab"), dict(position=[0, 0]), dict(yaw="x"),
                                    dict(pitch_down=None)],
                             ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
    def test_make_camera_refuses_a_bad_pose(self, kw):
        """A position that is not 3 numbers, or a yaw or pitch that is not a
        real, would raise numpy's ValueError or TypeError from the pose
        arithmetic."""
        args = {**dict(position=[0.0, 0.0, 1.6], yaw=0.0, pitch_down=0.0), **kw}
        with pytest.raises(ConfigError, match="position"):
            make_camera(**args, fx=6.0, fy=6.0, image_h=12, image_w=16)

    @pytest.mark.parametrize("factor", [0, "2", float("nan"), 1e-320], ids=repr)
    def test_a_bad_scale_factor_is_config_error(self, factor):
        """scaled(0) would divide by zero, scaled("2") raise TypeError,
        scaled(nan) raise ValueError from int(nan) and scaled(1e-320)
        OverflowError from int(inf)."""
        with pytest.raises(ConfigError, match="factor"):
            identity_camera().scaled(factor)


class TestLidarProjection:
    def test_identity_at_matching_resolution(self):
        spec = BEVGridSpec(h=4, w=6, d=2)
        grid = build_reference_grid(spec)
        rc = project_to_lidar(grid, spec.extent, (4, 6))
        for h in range(4):
            for w in range(6):
                assert np.allclose(rc[0, h, w], [h, w], atol=1e-12)

    def test_doubled_resolution_corner_cells(self):
        # hand-computed: cell center h maps to row 2h + 0.5 when H_L = 2H
        spec = BEVGridSpec(h=4, w=4, d=1)
        rc = project_to_lidar(build_reference_grid(spec), spec.extent, (8, 8))
        assert np.allclose(rc[0, 0, 0], [0.5, 0.5])
        assert np.allclose(rc[0, 3, 3], [6.5, 6.5])
        assert np.allclose(rc[0, 0, 3], [0.5, 6.5])

    def test_all_levels_share_coords(self):
        spec = BEVGridSpec(h=3, w=3, d=4)
        rc = project_to_lidar(build_reference_grid(spec), spec.extent, (3, 3))
        for z in range(1, 4):
            assert np.array_equal(rc[z], rc[0])


def test_feature_scaled_camera_consistency():
    # feature-space projection of a 2x-downsampled map lands at half-pixel
    # aligned coordinates of the image-space projection
    cam = make_camera([0, 0, 1.6], yaw=0.0, pitch_down=0.087, fx=24, fy=24, image_h=48, image_w=64)
    feat_cam = cam.scaled(2.0)
    spec = BEVGridSpec(h=2, w=2, d=2, extent=(4, 8, -2, 2), z_range=(-0.5, 1.5))
    grid = build_reference_grid(spec)
    rc_img, vis_img = project_to_camera(grid, cam)
    rc_feat, vis_feat = project_to_camera(grid, feat_cam)
    sel = vis_img & vis_feat
    assert sel.any()
    assert np.allclose(rc_feat[sel], (rc_img[sel] + 0.5) / 2.0 - 0.5, atol=1e-9)
