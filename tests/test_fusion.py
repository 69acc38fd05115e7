"""Fusion algebra and modality-dropout statistics."""

import numpy as np
import pytest

import bevkit.tensor as T
from bevkit.errors import ConfigError, ContractError, ShapeError
from bevkit.fusion import (
    FusionWeights,
    MDConfig,
    fuse,
    normalize_weights,
    sample_modality_mask,
)
from bevkit.rng import seeded_rng
from bevkit.tensor import Tensor, backward

from helpers import check_grads


def weights(n=6, cam=None, lidar=None):
    w = FusionWeights(n)
    if cam is not None:
        w.a_cam.tensor.data[:] = cam
    if lidar is not None:
        w.a_lidar.tensor.data[:] = lidar
    return w


class TestNormalizeWeights:
    def test_equal_raw_gives_half(self):
        w = weights(4, cam=[1.5, -2, 0, 7], lidar=[1.5, -2, 0, 7])
        a_cam, a_lidar = normalize_weights(w)
        assert np.array_equal(a_cam.data, np.full(4, 0.5))
        assert np.array_equal(a_lidar.data, np.full(4, 0.5))

    def test_lidar_only_full_weight(self):
        # LiDAR alone passes through unscaled; a saturated LiDAR raw weight
        # drives the normalized weights to the same (0, 1) split
        lidar = Tensor(np.random.default_rng(7).standard_normal((2, 2, 3)))
        assert np.array_equal(fuse("cnw", None, lidar, weights(3)).data, lidar.data)
        a_cam, a_lidar = normalize_weights(weights(3, cam=[0.0] * 3, lidar=[50.0] * 3))
        assert np.all(a_cam.data < 1e-20)
        assert np.all(np.abs(a_lidar.data - 1.0) < 1e-15)

    def test_scalar_softmax_oracle(self):
        # frozen from the 50-digit evaluation of exp(x)/(exp(1)+exp(2))
        w = weights(1, cam=[1.0], lidar=[2.0])
        a_cam, a_lidar = normalize_weights(w)
        assert abs(a_cam.data[0] - 0.2689414213699951) < 1e-5
        assert abs(a_lidar.data[0] - 0.7310585786300049) < 1e-5

    def test_sum_to_one(self):
        rng = np.random.default_rng(0)
        w = weights(16, cam=rng.standard_normal(16) * 3, lidar=rng.standard_normal(16) * 3)
        a_cam, a_lidar = normalize_weights(w)
        assert np.all(np.abs(a_cam.data + a_lidar.data - 1.0) < 1e-9)


class TestFuseCNW:
    def test_equal_weights_equals_average_bitexact(self):
        rng = np.random.default_rng(1)
        cam = Tensor(rng.standard_normal((3, 4, 6)))
        lidar = Tensor(rng.standard_normal((3, 4, 6)))
        out = fuse("cnw", cam, lidar, weights(6))
        avg = fuse("avg", cam, lidar, None)
        assert np.array_equal(out.data, avg.data)

    def test_single_modality_identity_bitexact(self):
        # a lone modality gets full weight whatever the raw weights are
        rng = np.random.default_rng(2)
        w = weights(6, cam=rng.standard_normal(6), lidar=rng.standard_normal(6))
        cam = Tensor(rng.standard_normal((3, 4, 6)))
        lidar = Tensor(rng.standard_normal((3, 4, 6)))
        assert fuse("cnw", cam, None, w) is cam
        assert fuse("cnw", None, lidar, w) is lidar

    def test_saturated_weight_is_exclusive(self):
        rng = np.random.default_rng(3)
        cam = Tensor(rng.standard_normal((2, 2, 3)))
        lidar = Tensor(rng.standard_normal((2, 2, 3)))
        w = weights(3, cam=[50.0, 0, 0], lidar=[0.0, 0, 0])
        out = fuse("cnw", cam, lidar, w)
        assert np.max(np.abs(out.data[..., 0] - cam.data[..., 0])) < 1e-6

    def test_same_input_is_fixed_point(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 3, 4)))
        w = weights(4, cam=rng.standard_normal(4), lidar=rng.standard_normal(4))
        out = fuse("cnw", x, x, w)
        assert np.allclose(out.data, x.data, atol=1e-12)

    def test_per_channel_convexity(self):
        rng = np.random.default_rng(5)
        cam = Tensor(rng.standard_normal((4, 4, 8)))
        lidar = Tensor(rng.standard_normal((4, 4, 8)))
        w = weights(8, cam=rng.standard_normal(8) * 2, lidar=rng.standard_normal(8) * 2)
        out = fuse("cnw", cam, lidar, w).data
        lo = np.minimum(cam.data, lidar.data)
        hi = np.maximum(cam.data, lidar.data)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_gradient_through_weights(self):
        rng = np.random.default_rng(6)
        cam0 = rng.standard_normal((2, 2, 3))
        lidar0 = rng.standard_normal((2, 2, 3))
        w = weights(3)
        leaves = [cam0, lidar0, rng.standard_normal(3), rng.standard_normal(3)]

        def build(ts):
            w.a_cam.tensor = ts[2]
            w.a_lidar.tensor = ts[3]
            return T.tsum(T.sigmoid(fuse("cnw", ts[0], ts[1], w)))

        check_grads(build, leaves)

    def test_both_absent_contract_error(self):
        with pytest.raises(ContractError):
            fuse("cnw", None, None, weights(3))


class TestFuseAvg:
    def test_elementwise_mean(self):
        cam = Tensor(np.full((2, 2, 2), 1.0))
        lidar = Tensor(np.full((2, 2, 2), 3.0))
        assert np.array_equal(fuse("avg", cam, lidar, None).data, np.full((2, 2, 2), 2.0))

    def test_single_identity(self):
        lidar = Tensor(np.arange(8.0).reshape(2, 2, 2))
        assert fuse("avg", None, lidar, None) is lidar

    def test_avg_of_same_is_same(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((3, 3, 2)))
        assert np.array_equal(fuse("avg", x, x, None).data, x.data)


class TestFuseConcat:
    def test_order_cam_then_lidar(self):
        cam = Tensor(np.ones((2, 2, 3)))
        lidar = Tensor(np.full((2, 2, 3), 2.0))
        out = fuse("concat", cam, lidar, None)
        assert out.shape == (2, 2, 6)
        assert np.all(out.data[..., :3] == 1.0) and np.all(out.data[..., 3:] == 2.0)

    def test_missing_cam_block_exactly_zero(self):
        lidar = Tensor(np.full((2, 2, 3), 2.0))
        out = fuse("concat", None, lidar, None)
        assert np.array_equal(out.data[..., :3], np.zeros((2, 2, 3)))
        assert np.array_equal(out.data[..., 3:], lidar.data)

    def test_channel_count_constant(self):
        x = Tensor(np.ones((2, 2, 4)))
        assert fuse("concat", x, x, None).shape[-1] == 8
        assert fuse("concat", x, None, None).shape[-1] == 8
        assert fuse("concat", None, x, None).shape[-1] == 8


@pytest.mark.parametrize("mode", ["cnw", "avg", "concat"])
def test_every_mode_checks_its_inputs(mode):
    """No map is a ContractError and unequal shapes a ShapeError, whatever
    the mode; an unknown mode is a ContractError."""
    w = weights(3)
    with pytest.raises(ContractError):
        fuse(mode, None, None, w)
    with pytest.raises(ShapeError):
        fuse(mode, Tensor(np.ones((2, 2, 3))), Tensor(np.ones((2, 3, 3))), w)
    x = Tensor(np.ones((2, 2, 3)))
    with pytest.raises(ContractError):
        fuse(mode + "x", x, x, w)


def test_cnw_of_both_maps_without_weights_is_contract_error():
    """cnw weighs two maps by w, so it names the missing weights rather than
    failing inside normalize_weights (AttributeError); a lone map needs none."""
    x = Tensor(np.ones((2, 2, 3)))
    with pytest.raises(ContractError, match="fusion weights"):
        fuse("cnw", x, x, None)
    assert fuse("cnw", x, None, None) is x and fuse("cnw", None, x, None) is x


class TestModalityDropout:
    def test_frequencies(self):
        rng = seeded_rng(123, "md")
        counts = {"both": 0, "lidar": 0, "camera": 0}
        n = 100_000
        for _ in range(n):
            counts[sample_modality_mask(MDConfig(0.5, 0.5), rng).label] += 1
        assert abs(counts["both"] / n - 0.50) < 0.01
        assert abs(counts["lidar"] / n - 0.25) < 0.01
        assert abs(counts["camera"] / n - 0.25) < 0.01

    def test_p_md_zero_always_both(self):
        rng = seeded_rng(1, "md")
        for _ in range(200):
            m = sample_modality_mask(MDConfig(0.0, 0.5), rng)
            assert m.use_cam and m.use_lidar

    def test_extreme_lidar_only(self):
        rng = seeded_rng(2, "md")
        for _ in range(200):
            m = sample_modality_mask(MDConfig(1.0, 1.0), rng)
            assert m.use_lidar and not m.use_cam

    def test_reproducible_with_fixed_seed(self):
        rng = seeded_rng(9, "md")
        a = [sample_modality_mask(MDConfig(0.5, 0.25), rng).label for _ in range(50)]
        rng = seeded_rng(9, "md")
        b = [sample_modality_mask(MDConfig(0.5, 0.25), rng).label for _ in range(50)]
        assert a == b

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            MDConfig(1.5, 0.5).validate()

    @pytest.mark.parametrize("kw", [dict(p_md="0.5"), dict(p_md=True), dict(p_l=None),
                                    dict(p_l=False)],
                             ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
    def test_wrongly_kinded_probability_is_config_error(self, kw):
        with pytest.raises(ConfigError):
            MDConfig(**kw).validate()
        with pytest.raises(ConfigError):
            sample_modality_mask(MDConfig(**kw), seeded_rng(0, "md"))

    def test_integer_and_numpy_probabilities_are_accepted(self):
        cfg = MDConfig(p_md=1, p_l=np.float64(0.25))
        assert cfg.validate() is cfg
