"""Uniform BEV encoder tests: camera/LiDAR equivalence, query sharing, shapes."""

import numpy as np
import pytest

import bevkit.tensor as T
from bevkit.attention import cross_attend
from bevkit.encoders import (
    BEVQuerySet,
    camera_sources,
    encode_bev,
    encode_camera_bev,
    encode_lidar_bev,
    make_encoder_layers,
)
from bevkit.errors import ContractError, ShapeError
from bevkit.geometry import BEVGridSpec, make_camera, project_to_camera, project_to_lidar
from bevkit.optim import Adam
from bevkit.tensor import Tensor, backward

from helpers import check_grads


def small_spec(h=4, w=4, d=2):
    return BEVGridSpec(h=h, w=w, d=d, extent=(-4, 4, -4, 4), z_range=(-0.5, 1.5))


def make_setup(seed=0, channels=4, mode="shared", n_layers=2, h=4, w=4, d=2):
    rng = np.random.default_rng(seed)
    spec = small_spec(h, w, d)
    queries = BEVQuerySet(spec, channels, mode, rng)
    layers = make_encoder_layers("enc", n_layers, heads=2, points=2,
                                 channels=channels, value_dim=channels, rng=rng)
    return rng, spec, queries, layers


def front_camera(queries, yaw=0.0):
    """(uv, visible) of a small camera at the origin looking along `yaw`."""
    cam = make_camera([0, 0, 1.6], yaw, 0.087, fx=3, fy=3, image_h=6, image_w=8)
    return project_to_camera(queries.refs, cam)


def lidar_source(queries, feat):
    """The LiDAR branch's one source: D identical levels, multiplicity D."""
    rc = project_to_lidar(queries.refs, feat.shape[:2])
    return (feat, rc[0].reshape(-1, 2), None, rc.shape[0])


def lidar_as_camera(queries, shape):
    """project_to_lidar's coordinates as a camera view: (u, v), all visible,
    so the camera path makes D explicit sources from them."""
    rc = project_to_lidar(queries.refs, shape)
    return rc[..., ::-1], np.ones(rc.shape[:-1], dtype=bool)


class TestUniformity:
    def test_lidar_source_through_camera_modality_matches_lidar_bitexact(self):
        rng, spec, queries, layers = make_setup(seed=1)
        feat = Tensor(rng.standard_normal((spec.h, spec.w, 4)))
        via_camera = encode_bev(queries, "camera", [lidar_source(queries, feat)], layers)
        via_lidar = encode_lidar_bev(queries, feat, layers)
        assert np.array_equal(via_camera.data, via_lidar.data)

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("normalize_by_hits", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_explicit_levels_equal_multiplicity_source_bitexact(self, d, normalize_by_hits,
                                                                seed):
        # D identical levels as D sources of multiplicity 1 (camera path) sum
        # to the same bits as one source of multiplicity D (LiDAR path)
        rng, spec, queries, layers = make_setup(seed=20 + seed, d=d)
        for lp in layers:  # move sample points off the cell lattice
            for attn in (lp.self_attn, lp.cross_attn):
                for prm in attn.parameters():
                    prm.tensor.data[:] += 0.3 * rng.standard_normal(prm.tensor.shape)
        feat = Tensor(rng.standard_normal((7, 9, 4)))  # resolution differs from grid
        levels = encode_camera_bev(queries, [lidar_as_camera(queries, (7, 9))], [feat], layers,
                                   normalize_by_hits)
        one = encode_lidar_bev(queries, feat, layers, normalize_by_hits)
        assert np.array_equal(levels.data, one.data)

    def test_camera_sources_order_and_flip(self):
        rng, spec, queries, layers = make_setup(seed=2, d=2)
        views = [front_camera(queries, yaw) for yaw in (0.0, 0.5, 1.0)]
        feats = [Tensor(rng.standard_normal((6, 8, 4))) for _ in views]
        sources = camera_sources(views, feats)
        t = spec.h * spec.w
        assert len(sources) == len(views) * spec.d
        for i, (feat, rc, vis, mult) in enumerate(sources):
            v, z = divmod(i, spec.d)  # views outer, levels inner
            uv, visible = views[v]
            assert feat is feats[v] and mult == 1
            assert np.array_equal(rc, uv[z, ..., ::-1].reshape(t, 2))
            assert np.array_equal(vis, visible[z].reshape(t))
        with pytest.raises(ContractError):
            camera_sources(views, feats[:2])

    def test_output_shapes(self):
        rng, spec, queries, layers = make_setup(seed=2)
        cam_feat = Tensor(rng.standard_normal((6, 8, 4)))
        lidar_feat = Tensor(rng.standard_normal((7, 9, 4)))  # resolution differs from grid
        out_c = encode_camera_bev(queries, [front_camera(queries)], [cam_feat], layers)
        out_l = encode_lidar_bev(queries, lidar_feat, layers)
        assert out_c.shape == (spec.h, spec.w, 4)
        assert out_l.shape == (spec.h, spec.w, 4)

    def test_no_views_is_contract_error(self):
        _, _, queries, layers = make_setup(seed=3)
        with pytest.raises(ContractError):
            encode_camera_bev(queries, [], [], layers)

    def test_camera_maps_of_different_width_raise(self):
        rng, spec, queries, layers = make_setup(seed=3)
        proj = lidar_as_camera(queries, (spec.h, spec.w))
        feats = [Tensor(rng.standard_normal((spec.h, spec.w, c))) for c in (4, 5)]
        with pytest.raises(ShapeError):
            encode_camera_bev(queries, [proj, proj], feats, layers)

    def test_entry_points_are_encode_bev(self):
        rng, spec, queries, layers = make_setup(seed=3, mode="separate")
        cam = front_camera(queries)
        feat = Tensor(rng.standard_normal((6, 8, 4)))
        assert np.array_equal(encode_camera_bev(queries, [cam], [feat], layers).data,
                              encode_bev(queries, "camera", camera_sources([cam], [feat]),
                                         layers).data)
        lidar_feat = Tensor(rng.standard_normal((7, 9, 4)))
        assert np.array_equal(encode_lidar_bev(queries, lidar_feat, layers).data,
                              encode_bev(queries, "lidar", [lidar_source(queries, lidar_feat)],
                                         layers).data)


def cross_term(queries, sources, layers, normalize_by_hits=False):
    """The first layer's cross-attention term over the sources, from the
    LiDAR query tokens."""
    return cross_attend(queries.tokens("lidar"), sources, layers[0].cross_attn,
                        normalize_by_hits).data


class TestCrossAttentionStructure:
    def test_lidar_identity_projection_reads_own_cell(self):
        # degenerate attention: zero offsets, identity value/out, D=1 and a
        # grid-matched map -> the cross term is exactly the map
        rng, spec, queries, layers = make_setup(seed=4, n_layers=1, d=1)
        lp = layers[0]
        lp.cross_attn.value_w[0].tensor.data[:] = np.eye(4)[:, :2]
        lp.cross_attn.value_w[1].tensor.data[:] = np.eye(4)[:, 2:]
        lp.cross_attn.out_w.tensor.data[:] = np.eye(4)
        feat = rng.standard_normal((spec.h, spec.w, 4))
        cross = cross_term(queries, [lidar_source(queries, Tensor(feat))], layers)
        assert np.allclose(cross, feat.reshape(-1, 4), atol=1e-12)

    def test_two_views_double_one_view(self):
        # a cell visible in two identical views gets exactly twice the cross term
        rng, spec, queries, layers = make_setup(seed=5, n_layers=1)
        proj = lidar_as_camera(queries, (spec.h, spec.w))
        feat = Tensor(rng.standard_normal((spec.h, spec.w, 4)))
        one = cross_term(queries, camera_sources([proj], [feat]), layers)
        two = cross_term(queries, camera_sources([proj, proj], [feat, feat]), layers)
        assert np.array_equal(two, 2.0 * one)

    def test_fully_invisible_cell_contributes_zero(self):
        rng, spec, queries, layers = make_setup(seed=6, n_layers=1)
        # camera looking away from the whole grid -> nothing visible
        cam = make_camera([100.0, 0, 1.6], 0.0, 0.0, fx=3, fy=3, image_h=6, image_w=8)
        feat = Tensor(rng.standard_normal((6, 8, 4)))
        sources = camera_sources([project_to_camera(queries.refs, cam)], [feat])
        assert np.array_equal(cross_term(queries, sources, layers),
                              np.zeros((spec.h * spec.w, 4)))

    def test_normalize_by_hits_default_off(self):
        rng, spec, queries, layers = make_setup(seed=7, n_layers=1)
        proj = lidar_as_camera(queries, (spec.h, spec.w))
        feat = Tensor(rng.standard_normal((spec.h, spec.w, 4)))
        sources = camera_sources([proj, proj], [feat, feat])
        raw = cross_term(queries, sources, layers)
        nrm = cross_term(queries, sources, layers, normalize_by_hits=True)
        # D=2 levels x 2 views = 4 hits per cell
        assert np.allclose(nrm, raw / 4.0)
        assert np.array_equal(encode_camera_bev(queries, [proj], [feat], layers).data,
                              encode_camera_bev(queries, [proj], [feat], layers,
                                                normalize_by_hits=False).data)


def test_camera_cross_attention_samples_each_view_map_once(monkeypatch):
    """V views x D pillar levels are V*D sources but V distinct maps: the
    cross-attention deform_attend gets a stack of V projected maps, and
    still one pair per visible (view, level, cell)."""
    rng, spec, queries, layers = make_setup(seed=9, d=4)
    views = [front_camera(queries, np.deg2rad(90.0 * i)) for i in range(4)]
    feats = [Tensor(rng.standard_normal((6, 8, 4))) for _ in views]
    visible = sum(int(np.count_nonzero(vis)) for _, vis in views)
    assert visible > 0
    calls = []
    attend = T.deform_attend

    def spy(feats, map_idx, base_pts, offsets, attn, qry_idx):
        calls.append((feats.shape[0], len(qry_idx)))
        return attend(feats, map_idx, base_pts, offsets, attn, qry_idx)

    monkeypatch.setattr(T, "deform_attend", spy)
    encode_camera_bev(queries, views, feats, layers)
    # per layer: self-attention over the token map, then cross-attention
    t = spec.h * spec.w
    assert calls == [(1, t), (len(views), visible)] * len(layers)


class TestQuerySharing:
    def test_shared_mode_same_parameter_object(self):
        _, _, queries, _ = make_setup(mode="shared")
        assert queries.query_param("camera") is queries.query_param("lidar")
        assert len(queries.parameters()) == 1

    def test_separate_mode_disjoint(self):
        _, _, queries, _ = make_setup(mode="separate")
        assert queries.query_param("camera") is not queries.query_param("lidar")
        assert len(queries.parameters()) == 2

    def test_camera_step_changes_lidar_tokens_in_shared_mode(self):
        rng, spec, queries, layers = make_setup(seed=8, mode="shared", n_layers=1)
        cam = front_camera(queries)
        feat = Tensor(rng.standard_normal((6, 8, 4)))
        before = queries.tokens("lidar").data.copy()
        out = encode_camera_bev(queries, [cam], [feat], layers)
        backward(T.tsum(T.sigmoid(out)))
        Adam(queries.parameters(), lr=1e-2).step()
        after = queries.tokens("lidar").data
        assert not np.array_equal(before, after)

    def test_separate_mode_lidar_tokens_untouched_by_camera_loss(self):
        rng, spec, queries, layers = make_setup(seed=9, mode="separate", n_layers=1)
        cam = front_camera(queries)
        feat = Tensor(rng.standard_normal((6, 8, 4)))
        before = queries.tokens("lidar").data.copy()
        out = encode_camera_bev(queries, [cam], [feat], layers)
        backward(T.tsum(T.sigmoid(out)))
        Adam(queries.parameters(), lr=1e-2).step()
        assert np.array_equal(before, queries.tokens("lidar").data)


def test_fd_gradient_through_lidar_encoder():
    rng, spec, queries, layers = make_setup(seed=10, n_layers=1, h=3, w=3, d=1)
    lp = layers[0]
    for attn in (lp.self_attn, lp.cross_attn):
        attn.offset_w.tensor.data[:] = rng.uniform(0.05, 0.25, attn.offset_w.tensor.shape)
        attn.offset_b.tensor.data[:] = rng.uniform(0.05, 0.25, attn.offset_b.tensor.shape)
        attn.weight_w.tensor.data[:] = rng.uniform(-0.5, 0.5, attn.weight_w.tensor.shape)

    feat0 = rng.standard_normal((3, 3, 4))
    qparam = queries.query_param("lidar")
    leaves = [feat0, qparam.tensor.data.copy()] + [p.tensor.data.copy() for p in lp.parameters()]

    def build(ts):
        feat = ts[0]
        qparam.tensor = ts[1]
        for prm, t in zip(lp.parameters(), ts[2:]):
            prm.tensor = t
        out = encode_lidar_bev(queries, feat, layers)
        return T.tsum(T.sigmoid(out))

    check_grads(build, leaves)


def tape_ops(out):
    """Op label -> count over every node recorded on the way to out."""
    counts, seen, stack = {}, set(), [out]
    while stack:
        t = stack.pop()
        if id(t) in seen or t.node is None:
            continue
        seen.add(id(t))
        counts[t.node.op] = counts.get(t.node.op, 0) + 1
        stack.extend(t.node.parents)
    return counts


class TestTapeStructure:
    """The ops a default-config encoder layer records: the per-query sum over
    sources is one scatter_rows node where there are many sources (camera
    cross-attention), and nothing where the pairs are the queries
    (self-attention, LiDAR cross-attention), whose lone map is not stacked."""

    @pytest.fixture(scope="class")
    def layer_inputs(self):
        from bevkit.model import Detector, ModelConfig
        from bevkit.synthscene import default_rig

        rng = np.random.default_rng(0)
        det = Detector(ModelConfig(), BEVGridSpec(), rng)
        cams = [cam.scaled(det.cam_backbone.stride) for cam in default_rig()]
        projections = [project_to_camera(det.queries.refs, cam) for cam in cams]
        n = det.cfg.encoder_channels
        cam_feats = [Tensor(rng.standard_normal((cam.image_h, cam.image_w, n)),
                            requires_grad=True) for cam in cams]
        lidar_feat = Tensor(rng.standard_normal((32, 32, n)), requires_grad=True)
        return det, {
            "camera": (det.cam_layers[0], camera_sources(projections, cam_feats)),
            "lidar": (det.lidar_layers[0], [lidar_source(det.queries, lidar_feat)]),
        }

    @pytest.mark.parametrize("modality", ["camera", "lidar"])
    def test_encoder_layer_ops(self, layer_inputs, modality):
        from bevkit.attention import encoder_layer

        det, inputs = layer_inputs
        layer, sources = inputs[modality]
        spec = det.spec
        out = encoder_layer(det.queries.tokens(modality), (spec.h, spec.w),
                            det.queries.self_refs(), sources, layer)
        ops = tape_ops(out)
        assert ops["deform_attend"] == 2
        if modality == "camera":
            assert len(sources) > 1
            assert ops.get("scatter_rows") == 1
            assert ops.get("stack") == 1  # the views' maps, projected in one matmul
        else:
            assert "scatter_rows" not in ops and "stack" not in ops

    def test_self_attention_ops(self, layer_inputs):
        from bevkit.attention import deform_attn_multi

        det, _ = layer_inputs
        spec = det.spec
        tokens = det.queries.tokens("camera")
        token_map = T.reshape(tokens, (spec.h, spec.w, det.cfg.encoder_channels))
        out = deform_attn_multi(tokens, [(token_map, det.queries.self_refs(), None)],
                                det.cam_layers[0].self_attn)
        ops = tape_ops(out)
        assert ops["deform_attend"] == 1
        assert "scatter_rows" not in ops and "stack" not in ops
