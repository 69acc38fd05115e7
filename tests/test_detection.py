"""Detection head tests: Hungarian vs brute force, loss oracle, decode."""

import math

import numpy as np
import pytest

import bevkit.tensor as T
from bevkit.detection import (
    BoxPrediction,
    DecoderParams,
    box_targets,
    decode,
    decode_raw,
    hungarian_match,
    set_loss,
)
from bevkit.errors import ContractError
from bevkit.geometry import BEVGridSpec
from bevkit.synthscene import SceneBox
from bevkit.tensor import Tensor, backward

from helpers import check_grads
from naive_reference import hungarian_brute_force

SPEC = BEVGridSpec(h=4, w=4, d=2, extent=(-8, 8, -8, 8), z_range=(-0.5, 1.5))


class TestHungarian:
    def test_two_by_two(self):
        cost = np.array([[1.0, 10.0], [10.0, 1.0]])
        assert hungarian_match(cost) == [0, 1]

    def test_single_pair(self):
        assert hungarian_match(np.array([[3.0]])) == [0]

    def test_all_equal_lexicographic(self):
        cost = np.full((4, 3), 2.5)
        assert hungarian_match(cost) == [0, 1, 2]

    def test_tie_prefers_smaller_prediction_index(self):
        # gts 0 and 1 both cost the same on preds 1 and 2
        cost = np.array([
            [5.0, 5.0],
            [1.0, 1.0],
            [1.0, 1.0],
        ])
        assert hungarian_match(cost) == [1, 2]

    def test_gt_exceeds_predictions(self):
        with pytest.raises(ContractError):
            hungarian_match(np.zeros((2, 3)))

    def test_nonfinite_cost(self):
        with pytest.raises(ContractError):
            hungarian_match(np.array([[np.inf], [0.0]]))

    # (seed, max n_gt, max n_obj): small square-ish problems, then up to 20
    # predictions, the default head's count, for at most 3 ground truths
    BRUTE_FORCE = [(seed, 6, 7) for seed in range(40)] + [(seed, 3, 20) for seed in range(40, 52)]

    @pytest.mark.parametrize("seed,max_gt,max_obj", BRUTE_FORCE,
                             ids=[str(seed) for seed, _, _ in BRUTE_FORCE])
    def test_matches_brute_force(self, seed, max_gt, max_obj):
        rng = np.random.default_rng(seed)
        n_gt = int(rng.integers(1, max_gt + 1))
        n_obj = int(rng.integers(n_gt, max_obj + 1))
        cost = rng.uniform(0, 10, (n_obj, n_gt))
        assign = hungarian_match(cost)
        ref_assign, ref_total = hungarian_brute_force(cost)
        total = sum(cost[assign[j], j] for j in range(n_gt))
        assert abs(total - ref_total) < 1e-9
        assert assign == ref_assign

    @pytest.mark.parametrize("seed", range(10))
    def test_quantized_ties_match_brute_force(self, seed):
        # coarse integer costs force plenty of exact ties
        rng = np.random.default_rng(seed + 500)
        n_gt = int(rng.integers(1, 6))
        n_obj = int(rng.integers(n_gt, 8))
        cost = rng.integers(0, 3, (n_obj, n_gt)).astype(float)
        assert hungarian_match(cost) == hungarian_brute_force(cost)[0]

    def test_totals_within_tolerance_tie_to_the_smaller_tuple(self):
        """(0, 1) costs 2 and (1, 0) costs 2 - eps. Within 1e-9 * (1 + 2)
        the two tie and (0, 1) wins; beyond it (1, 0) is the optimum."""
        for eps, want in ((1e-12, [0, 1]), (2e-9, [0, 1]), (4e-9, [1, 0]), (1e-6, [1, 0])):
            cost = np.array([[1.0, 1.0], [1.0 - eps, 1.0]])
            assert hungarian_match(cost) == want, eps


class TestDecode:
    def make_params(self, seed=0, n_obj=5, channels=4, n_classes=4, n_layers=2):
        rng = np.random.default_rng(seed)
        return DecoderParams(n_obj, channels, n_classes, n_layers, rng)

    def test_zeroed_heads_decode_to_center_unit_zero_yaw(self):
        params = self.make_params()
        params.box_w2.tensor.data[:] = 0.0
        params.box_b2.tensor.data[:] = 0.0
        rng = np.random.default_rng(1)
        fused = Tensor(rng.standard_normal((4, 4, 4)))
        preds = decode(fused, params, SPEC)
        for p in preds:
            assert abs(p.cx - 0.0) < 1e-12 and abs(p.cy - 0.0) < 1e-12  # extent center
            assert abs(p.w - 1.0) < 1e-12 and abs(p.l - 1.0) < 1e-12  # exp(0)
            assert p.yaw == 0.0  # atan2(0, 0) convention

    def test_output_count_fixed(self):
        params = self.make_params(n_obj=7)
        rng = np.random.default_rng(2)
        for _ in range(3):
            preds = decode(Tensor(rng.standard_normal((4, 4, 4))), params, SPEC)
            assert len(preds) == 7

    def test_box_invariants_random_weights(self):
        params = self.make_params(seed=3)
        rng = np.random.default_rng(4)
        preds = decode(Tensor(rng.standard_normal((4, 4, 4)) * 3), params, SPEC)
        for p in preds:
            assert p.w > 0 and p.l > 0
            assert -math.pi <= p.yaw <= math.pi
            assert 0.0 <= p.class_and_score()[1] <= 1.0

    def test_channel_mismatch(self):
        params = self.make_params()
        with pytest.raises(Exception):
            decode(Tensor(np.zeros((4, 4, 5))), params, SPEC)


class TestSetLoss:
    def test_perfect_prediction(self):
        gts = [SceneBox(1.0, -2.0, 2.0, 4.0, 0.3, 0),
               SceneBox(-3.0, 5.0, 1.0, 1.5, -1.0, 2)]
        n_obj, n_classes = 4, 4
        tgt = box_targets(gts, SPEC)
        box_raw = np.zeros((n_obj, 6))
        logits = np.full((n_obj, n_classes), -20.0)
        logits[:, -1] = 20.0  # confident background
        for j, g in enumerate(gts):
            # invert the decode: sigmoid -> logit, exp -> log, sincos raw
            box_raw[j, 0] = math.log(tgt[j, 0] / (1 - tgt[j, 0]))
            box_raw[j, 1] = math.log(tgt[j, 1] / (1 - tgt[j, 1]))
            box_raw[j, 2] = math.log(g.w)
            box_raw[j, 3] = math.log(g.l)
            box_raw[j, 4] = math.sin(g.yaw)
            box_raw[j, 5] = math.cos(g.yaw)
            logits[j] = -20.0
            logits[j, g.class_id] = 20.0
        loss = set_loss(Tensor(logits), Tensor(box_raw), gts, SPEC)
        assert loss.item() < 0.01

    def test_empty_gt_is_background_ce(self):
        logits = np.zeros((3, 4))
        loss = set_loss(Tensor(logits), Tensor(np.zeros((3, 6))), [], SPEC)
        # uniform logits: -log(1/4) on every query, weights cancel in the mean
        assert abs(loss.item() - math.log(4.0)) < 1e-12

    def test_hand_rolled_scalar_oracle(self):
        # independently scripted computation of the full loss on a fixed
        # 2-gt / 3-query instance with LAMBDA_CLS=1, LAMBDA_BOX=2, BACKGROUND_WEIGHT=0.1
        gts = [SceneBox(2.0, 2.0, 2.0, 4.0, 0.0, 1),
               SceneBox(-4.0, 0.0, 1.0, 1.0, 0.5, 0)]
        logits = np.array([
            [2.0, 0.5, -1.0, 0.0],
            [-0.5, 1.5, 0.0, 0.5],
            [0.0, 0.0, 0.0, 3.0],
        ])
        box_raw = np.array([
            [0.2, 0.1, 0.5, 1.2, 0.1, 0.9],
            [-0.6, 0.3, 0.0, 0.3, 0.4, 0.8],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ])
        loss = set_loss(Tensor(logits), Tensor(box_raw), gts, SPEC).item()

        # --- oracle: plain python/numpy, no package code ---
        def soft(v):
            e = np.exp(v - v.max())
            return e / e.sum()

        def sig(x):
            return 1.0 / (1.0 + math.exp(-x))

        boxes6 = np.zeros((3, 6))
        for i in range(3):
            boxes6[i] = [sig(box_raw[i, 0]), sig(box_raw[i, 1]),
                         math.exp(box_raw[i, 2]), math.exp(box_raw[i, 3]),
                         box_raw[i, 4], box_raw[i, 5]]
        tgt = np.array([
            [(2.0 + 8) / 16, (2.0 + 8) / 16, 2.0, 4.0, 0.0, 1.0],
            [(-4.0 + 8) / 16, (0.0 + 8) / 16, 1.0, 1.0, math.sin(0.5), math.cos(0.5)],
        ])
        cost = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                cls = -soft(logits[i])[int(gts[j].class_id)]
                l1 = np.abs(boxes6[i] - tgt[j]).sum()
                cost[i, j] = 1.0 * cls + 2.0 * l1
        # brute-force matching over the 3*2 assignments
        best, best_assign = np.inf, None
        for a0 in range(3):
            for a1 in range(3):
                if a0 == a1:
                    continue
                tot = cost[a0, 0] + cost[a1, 1]
                if tot < best:
                    best, best_assign = tot, (a0, a1)
        tcls = [3, 3, 3]
        tcls[best_assign[0]] = gts[0].class_id
        tcls[best_assign[1]] = gts[1].class_id
        wts = [0.1 if t == 3 else 1.0 for t in tcls]
        ce = sum(w * -math.log(soft(logits[i])[t]) for i, (t, w) in enumerate(zip(tcls, wts)))
        ce /= sum(wts)
        l1_total = (np.abs(boxes6[best_assign[0]] - tgt[0]).sum()
                    + np.abs(boxes6[best_assign[1]] - tgt[1]).sum())
        expected = ce + 2.0 * l1_total / 2.0
        assert abs(loss - expected) < 1e-12

    @pytest.mark.parametrize("class_id", [3, 4, -1])
    def test_class_id_outside_head_is_contract_error(self, class_id):
        # with 4 head classes the background is 3: class 3 would train as
        # background, class 4 would index past the head
        gts = [SceneBox(1.0, 1.0, 2.0, 3.0, 0.2, 0),
               SceneBox(-2.0, 4.0, 1.0, 2.0, -0.4, class_id)]
        logits = np.zeros((4, 4))
        with pytest.raises(ContractError):
            set_loss(Tensor(logits), Tensor(np.zeros((4, 6))), gts, SPEC)
        gts[1].class_id = 2
        loss = set_loss(Tensor(logits), Tensor(np.zeros((4, 6))), gts, SPEC)
        assert np.isfinite(loss.item())

    def test_nonnegative_and_gt_permutation_invariant(self):
        rng = np.random.default_rng(5)
        gts = [SceneBox(1.0, 1.0, 2.0, 3.0, 0.2, 0),
               SceneBox(-2.0, 4.0, 1.0, 2.0, -0.4, 1),
               SceneBox(5.0, -5.0, 1.5, 1.5, 1.2, 2)]
        logits = rng.standard_normal((6, 4))
        box_raw = rng.standard_normal((6, 6))
        a = set_loss(Tensor(logits), Tensor(box_raw), gts, SPEC).item()
        b = set_loss(Tensor(logits), Tensor(box_raw), gts[::-1], SPEC).item()
        assert a >= 0.0
        assert abs(a - b) < 1e-12

    def test_fd_gradient_through_decode_and_loss(self):
        rng = np.random.default_rng(6)
        params = DecoderParams(n_obj=3, channels=4, n_classes=4, n_layers=1, rng=rng)
        gts = [SceneBox(1.0, -1.0, 2.0, 3.0, 0.4, 1)]
        fused0 = rng.standard_normal((2, 2, 4))
        prms = params.parameters()
        leaves = [fused0] + [p.tensor.data.copy() for p in prms]

        def build(ts):
            for p, t in zip(prms, ts[1:]):
                p.tensor = t
            tokens = T.reshape(ts[0], (4, 4))
            logits, box_raw = decode_raw(tokens, params)
            return set_loss(logits, box_raw, gts, SPEC)

        check_grads(build, leaves)
