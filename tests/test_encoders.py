"""Uniform BEV encoder tests: camera/LiDAR equivalence, query sharing, shapes."""

import numpy as np
import pytest

import bevkit.tensor as T
from bevkit.attention import deform_attn_multi
from bevkit.encoders import (
    BEVQuerySet,
    camera_pairs,
    encode_bev,
    encode_camera_bev,
    encode_lidar_bev,
    lidar_pairs,
    make_encoder_layers,
)
from bevkit.errors import ContractError, ShapeError
from bevkit.geometry import (BEVGridSpec, build_reference_grid, make_camera, project_to_camera,
                             project_to_lidar)
from bevkit.optim import Adam
from bevkit.synthscene import default_rig
from bevkit.tensor import Tensor, backward

from helpers import check_grads, encoder_layer
from naive_reference import camera_pairs_naive


def small_spec(h=4, w=4, d=2):
    return BEVGridSpec(h=h, w=w, d=d, extent=(-4, 4, -4, 4), z_range=(-0.5, 1.5))


def make_setup(seed=0, channels=4, mode="shared", n_layers=2, h=4, w=4, d=2):
    rng = np.random.default_rng(seed)
    spec = small_spec(h, w, d)
    queries = BEVQuerySet(spec, channels, mode, rng)
    layers = make_encoder_layers("enc", n_layers, heads=2, points=2, channels=channels,
                                 rng=rng)
    return rng, spec, queries, layers


def front_camera(queries, yaw=0.0):
    """(uv, visible) of a small camera at the origin looking along `yaw`."""
    cam = make_camera([0, 0, 1.6], yaw, 0.087, fx=3, fy=3, image_h=6, image_w=8)
    return project_to_camera(queries.refs, cam)


def lidar_as_camera(queries, shape):
    """project_to_lidar's coordinates as a camera view: (u, v), all visible,
    so the camera path makes D explicit pairs per query from them."""
    rc = project_to_lidar(queries.refs, shape)
    return rc[..., ::-1], np.ones(rc.shape[:-1], dtype=bool)


class TestUniformity:
    def test_lidar_source_through_camera_modality_matches_lidar_bitexact(self):
        rng, spec, queries, layers = make_setup(seed=1)
        feat = Tensor(rng.standard_normal((1, spec.h, spec.w, 4)))
        pairs = lidar_pairs(queries.refs, (4, 4), False)
        via_camera = encode_bev(queries, "camera", feat, pairs, layers)
        via_lidar = encode_lidar_bev(queries, feat, pairs, layers)
        assert np.array_equal(via_camera.data, via_lidar.data)

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("normalize_by_hits", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_explicit_levels_equal_multiplicity_source_bitexact(self, d, normalize_by_hits,
                                                                seed):
        # D identical levels as D pairs per query (camera path) sum to the same
        # bits as one pair scaled by D (LiDAR path); normalized, the camera sum
        # times 1/D (exact for D a power of two) equals the LiDAR pair's row
        rng, spec, queries, layers = make_setup(seed=20 + seed, d=d)
        for lp in layers:  # move sample points off the cell lattice
            for attn in (lp.self_attn, lp.cross_attn):
                for prm in attn.parameters():
                    prm.tensor.data[:] += 0.3 * rng.standard_normal(prm.tensor.shape)
        feat = Tensor(rng.standard_normal((1, 7, 9, 4)))  # resolution differs from grid
        pairs = camera_pairs([lidar_as_camera(queries, (7, 9))], spec.h * spec.w,
                             normalize_by_hits)
        levels = encode_camera_bev(queries, feat, pairs, layers)
        one = encode_lidar_bev(queries, feat,
                               lidar_pairs(queries.refs, (7, 9), normalize_by_hits), layers)
        assert np.array_equal(levels.data, one.data)

    def test_camera_pairs_order_and_flip(self):
        rng, spec, queries, layers = make_setup(seed=2, d=2)
        views = [front_camera(queries, yaw) for yaw in (0.0, 0.5, 1.0)]
        t = spec.h * spec.w
        pairs = camera_pairs(views, t, False)
        assert_pairs_equal_oracle(pairs, views, t)
        assert len(np.unique(pairs.map_idx)) == len(views)
        feats = rng.standard_normal((len(views), 6, 8, 4))
        with pytest.raises(ContractError):
            encode_camera_bev(queries, Tensor(feats[:2]), pairs, layers)

    def test_output_shapes(self):
        rng, spec, queries, layers = make_setup(seed=2)
        cam_feat = Tensor(rng.standard_normal((1, 6, 8, 4)))
        lidar_feat = Tensor(rng.standard_normal((1, 7, 9, 4)))  # resolution differs from grid
        pairs = camera_pairs([front_camera(queries)], spec.h * spec.w, False)
        out_c = encode_camera_bev(queries, cam_feat, pairs, layers)
        out_l = encode_lidar_bev(queries, lidar_feat, lidar_pairs(queries.refs, (7, 9), False),
                                 layers)
        assert out_c.shape == (spec.h, spec.w, 4)
        assert out_l.shape == (spec.h, spec.w, 4)

    def test_no_views_is_contract_error(self):
        _, spec, queries, layers = make_setup(seed=3)
        with pytest.raises(ContractError):
            camera_pairs([], spec.h * spec.w, False)
        pairs = camera_pairs([front_camera(queries)], spec.h * spec.w, False)
        with pytest.raises(ContractError):
            encode_camera_bev(queries, Tensor(np.zeros((0, 6, 8, 4))), pairs, layers)

    def test_camera_maps_of_different_width_raise(self):
        """Maps 5 wide for encoder layers whose value weights read 4."""
        rng, spec, queries, layers = make_setup(seed=3)
        proj = lidar_as_camera(queries, (spec.h, spec.w))
        feats = Tensor(rng.standard_normal((2, spec.h, spec.w, 5)))
        with pytest.raises(ShapeError):
            encode_camera_bev(queries, feats, camera_pairs([proj, proj], spec.h * spec.w, False),
                              layers)

    def test_entry_points_are_encode_bev(self):
        rng, spec, queries, layers = make_setup(seed=3, mode="separate")
        pairs = camera_pairs([front_camera(queries)], spec.h * spec.w, False)
        feat = Tensor(rng.standard_normal((1, 6, 8, 4)))
        assert np.array_equal(encode_camera_bev(queries, feat, pairs, layers).data,
                              encode_bev(queries, "camera", feat, pairs, layers).data)
        lidar_feat = Tensor(rng.standard_normal((1, 7, 9, 4)))
        lidar = lidar_pairs(queries.refs, (7, 9), False)
        assert np.array_equal(encode_lidar_bev(queries, lidar_feat, lidar, layers).data,
                              encode_bev(queries, "lidar", lidar_feat, lidar, layers).data)

    def test_lidar_pairs_are_one_per_query_scaled_by_d(self):
        _, spec, queries, _ = make_setup(seed=3, d=3)
        pairs = lidar_pairs(queries.refs, (7, 9), False)
        rc = project_to_lidar(queries.refs, (7, 9))
        t = spec.h * spec.w
        assert np.array_equal(pairs.qry_idx, np.arange(t)) and pairs.n_maps == 1
        assert pairs.base_pts.tobytes() == rc[0].reshape(t, 2).tobytes()
        assert np.array_equal(pairs.scale, np.full(t, 3.0))
        # normalized, the sum is divided by its D hits: D/D = 1
        assert lidar_pairs(queries.refs, (7, 9), True).scale is None
        _, _, queries, _ = make_setup(seed=3, d=1)
        assert lidar_pairs(queries.refs, (7, 9), False).scale is None


def assert_pairs_equal_oracle(pairs, projections, t):
    """camera_pairs equals the per-(view, level, query) loop field for field,
    and with normalize_by_hits each query's scale is 1 over its loop count of
    pairs (at least 1)."""
    map_idx, base, qry, hits = camera_pairs_naive(projections, t)
    scale = 1.0 / np.maximum(hits, 1.0)
    normalized = camera_pairs(projections, t, True)
    for got, want in [(pairs.map_idx, map_idx), (pairs.base_pts, base), (pairs.qry_idx, qry),
                      (normalized.qry_idx, qry), (normalized.scale, scale)]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert pairs.scale is None
    assert (pairs.n_maps, pairs.n_queries) == (len(projections), t)


@pytest.mark.parametrize("rig", ["default", "empty_view"])
def test_camera_pairs_of_the_default_rig_match_the_loop_oracle(rig):
    """On the detector's grid and rig (at the camera backbone's stride 2),
    and with one view that sees nothing, which then owns no pair."""
    spec = BEVGridSpec()
    cams = [cam.scaled(2) for cam in default_rig()]
    if rig == "empty_view":
        cams[1] = make_camera([100.0, 0, 1.6], 0.0, 0.0, fx=12, fy=12, image_h=24, image_w=32)
    projections = [project_to_camera(build_reference_grid(spec), cam) for cam in cams]
    pairs = camera_pairs(projections, spec.h * spec.w, False)
    assert_pairs_equal_oracle(pairs, projections, spec.h * spec.w)
    assert (1 in pairs.map_idx) == (rig == "default")
    assert pairs.qry_idx.size > 1000


def cross_term(queries, maps, pairs, layers):
    """The first layer's cross-attention term over the pairs, from the LiDAR
    query tokens."""
    return deform_attn_multi(queries.tokens("lidar"), maps, pairs, layers[0].cross_attn).data


class TestCrossAttentionStructure:
    def test_lidar_identity_projection_reads_own_cell(self):
        # degenerate attention: zero offsets, identity value/out, D=1 and a
        # grid-matched map -> the cross term is exactly the map
        rng, spec, queries, layers = make_setup(seed=4, n_layers=1, d=1)
        lp = layers[0]
        lp.cross_attn.value_w.tensor.data[:] = np.eye(4)
        lp.cross_attn.out_w.tensor.data[:] = np.eye(4)
        feat = rng.standard_normal((1, spec.h, spec.w, 4))
        cross = cross_term(queries, Tensor(feat),
                           lidar_pairs(queries.refs, feat.shape[1:3], False), layers)
        assert np.allclose(cross, feat.reshape(-1, 4), atol=1e-12)

    def test_two_views_double_one_view(self):
        # a cell visible in two identical views gets exactly twice the cross term
        rng, spec, queries, layers = make_setup(seed=5, n_layers=1)
        proj = lidar_as_camera(queries, (spec.h, spec.w))
        feat = rng.standard_normal((spec.h, spec.w, 4))
        t = spec.h * spec.w
        one = cross_term(queries, Tensor(feat[None]), camera_pairs([proj], t, False), layers)
        two = cross_term(queries, Tensor(np.stack([feat, feat])),
                         camera_pairs([proj, proj], t, False), layers)
        assert np.array_equal(two, 2.0 * one)

    def test_fully_invisible_cell_contributes_zero(self):
        rng, spec, queries, layers = make_setup(seed=6, n_layers=1)
        # camera looking away from the whole grid -> nothing visible
        cam = make_camera([100.0, 0, 1.6], 0.0, 0.0, fx=3, fy=3, image_h=6, image_w=8)
        feat = Tensor(rng.standard_normal((1, 6, 8, 4)))
        pairs = camera_pairs([project_to_camera(queries.refs, cam)], spec.h * spec.w, False)
        assert pairs.qry_idx.size == 0
        assert np.array_equal(cross_term(queries, feat, pairs, layers),
                              np.zeros((spec.h * spec.w, 4)))

    def test_normalize_by_hits_divides_by_the_hit_count(self):
        rng, spec, queries, layers = make_setup(seed=7, n_layers=1)
        proj = lidar_as_camera(queries, (spec.h, spec.w))
        feat = Tensor(rng.standard_normal((1, spec.h, spec.w, 4)))
        t = spec.h * spec.w
        # D=2 levels x 2 views = 4 hits per cell, which normalize_by_hits divides by
        assert np.array_equal(camera_pairs([proj, proj], t, True).scale, np.full(t, 0.25))
        plain = encode_camera_bev(queries, feat, camera_pairs([proj], t, False), layers).data
        assert not np.array_equal(plain, encode_camera_bev(
            queries, feat, camera_pairs([proj], t, True), layers).data)


def test_camera_cross_attention_samples_each_view_map_once(monkeypatch):
    """V views x D pillar levels: the cross-attention deform_attend gets the
    V projected maps as one [V,H,W,C] tensor, and one pair per visible
    (view, level, cell)."""
    rng, spec, queries, layers = make_setup(seed=9, d=4)
    views = [front_camera(queries, np.deg2rad(90.0 * i)) for i in range(4)]
    feats = Tensor(rng.standard_normal((len(views), 6, 8, 4)))
    visible = sum(int(np.count_nonzero(vis)) for _, vis in views)
    assert visible > 0
    calls = []
    attend = T.deform_attend

    def spy(feats, map_idx, base_pts, offsets, attn, qry_idx, scale=None, blocks=None):
        calls.append((feats.shape[0], len(qry_idx)))
        return attend(feats, map_idx, base_pts, offsets, attn, qry_idx, scale, blocks)

    monkeypatch.setattr(T, "deform_attend", spy)
    encode_camera_bev(queries, feats, camera_pairs(views, spec.h * spec.w, False), layers)
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
        feat = Tensor(rng.standard_normal((1, 6, 8, 4)))
        before = queries.tokens("lidar").data.copy()
        out = encode_camera_bev(queries, feat, camera_pairs([cam], spec.h * spec.w, False), layers)
        backward(T.tsum(T.sigmoid(out)))
        Adam(queries.parameters(), lr=1e-2).step()
        after = queries.tokens("lidar").data
        assert not np.array_equal(before, after)

    def test_separate_mode_lidar_tokens_untouched_by_camera_loss(self):
        rng, spec, queries, layers = make_setup(seed=9, mode="separate", n_layers=1)
        cam = front_camera(queries)
        feat = Tensor(rng.standard_normal((1, 6, 8, 4)))
        before = queries.tokens("lidar").data.copy()
        out = encode_camera_bev(queries, feat, camera_pairs([cam], spec.h * spec.w, False), layers)
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

    feat0 = rng.standard_normal((1, 3, 3, 4))
    qparam = queries.query_param("lidar")
    leaves = [feat0, qparam.tensor.data.copy()] + [p.tensor.data.copy() for p in lp.parameters()]

    def build(ts):
        feat = ts[0]
        qparam.tensor = ts[1]
        for prm, t in zip(lp.parameters(), ts[2:]):
            prm.tensor = t
        out = encode_lidar_bev(queries, feat, lidar_pairs(queries.refs, feat.shape[1:3], False),
                               layers)
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
    """The ops a default-config encoder layer records: deform_attend sums its
    pairs per query itself, so no scatter_rows or mul node follows it, and
    the residual adds, layer norms and the FFN's relu are fused into
    residual_layer_norm and ffn nodes. The maps come as one [B,H,W,C] tensor
    and each block's value weight as one parameter, so no stack or concat
    node is recorded either."""

    UNFUSED = ("add", "layer_norm", "relu", "mul", "scatter_rows", "stack", "concat")

    @pytest.fixture(scope="class")
    def layer_inputs(self):
        from bevkit.model import Detector, ModelConfig
        from bevkit.synthscene import default_rig

        rng = np.random.default_rng(0)
        det = Detector(ModelConfig(), BEVGridSpec(), rng)
        cams = [cam.scaled(det.cam_backbone.stride) for cam in default_rig()]
        projections = [project_to_camera(det.queries.refs, cam) for cam in cams]
        n = det.cfg.encoder_channels
        cam_feats = Tensor(rng.standard_normal((len(cams), cams[0].image_h, cams[0].image_w, n)),
                           requires_grad=True)
        lidar_feat = Tensor(rng.standard_normal((1, 32, 32, n)), requires_grad=True)
        return det, {
            "camera": (det.cam_layers[0], cam_feats,
                       camera_pairs(projections, det.spec.h * det.spec.w, False)),
            "lidar": (det.lidar_layers[0], lidar_feat,
                      lidar_pairs(det.queries.refs, (32, 32), False)),
        }

    @pytest.mark.parametrize("modality", ["camera", "lidar"])
    def test_encoder_layer_ops(self, layer_inputs, modality):
        det, inputs = layer_inputs
        layer, maps, pairs = inputs[modality]
        spec = det.spec
        out = encoder_layer(det.queries.tokens(modality), (spec.h, spec.w),
                            det.queries.self_pairs, maps, pairs, layer)
        ops = tape_ops(out)
        assert ops["deform_attend"] == 2
        assert ops["residual_layer_norm"] == 3 and ops["ffn"] == 1
        assert not set(self.UNFUSED) & set(ops)
        assert maps.shape[0] == (4 if modality == "camera" else 1)
        assert ops["matmul"] == 4  # each block's value and output projections

    def test_self_attention_ops(self, layer_inputs):
        det, _ = layer_inputs
        spec = det.spec
        tokens = det.queries.tokens("camera")
        token_map = T.reshape(tokens, (1, spec.h, spec.w, det.cfg.encoder_channels))
        out = deform_attn_multi(tokens, token_map, det.queries.self_pairs,
                                det.cam_layers[0].self_attn)
        ops = tape_ops(out)
        assert ops["deform_attend"] == 1
        assert not {"scatter_rows", "stack", "concat"} & set(ops)

