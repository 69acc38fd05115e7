"""Three-condition evaluation against the predict-per-condition loop, the
shared-encoding predict path, and hand-computed AP cases."""

import numpy as np
import pytest

import bevkit.model as model_mod
from bevkit.dataset import generate_dataset
from bevkit.detection import BoxPrediction
from bevkit.errors import ContractError
from bevkit.evaluation import (
    CONDITIONS,
    RADII,
    MetricsReport,
    average_precision,
    evaluate_conditions,
    mean_ap,
    summary_metric,
)
from bevkit.fusion import ModalityMask
from bevkit.geometry import BEVGridSpec
from bevkit.model import Detector, ModelConfig
from bevkit.synthscene import SceneBox, SceneParams

from naive_reference import average_precision_naive

CONFIGS = [(f, q) for f in ("cnw", "avg", "concat") for q in ("shared", "separate")]
MASKS = list(CONDITIONS.values())


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    spec = BEVGridSpec(h=8, w=8, d=2)
    return generate_dataset(tmp_path_factory.mktemp("eval"), 8, 0, SceneParams(), spec,
                            lidar_shape=(8, 8), image_h=12, image_w=16, fx=6.0)


def tiny_detector(spec, fusion, query_mode):
    cfg = ModelConfig(channels=8, heads=2, points=2, enc_layers=1, dec_layers=1,
                      fusion=fusion, query_mode=query_mode,
                      cam_hidden=(4, 4), lidar_hidden=(4, 4))
    det = Detector(cfg, spec, np.random.default_rng(1))
    # spread the untrained boxes over the map so every condition scores a
    # nonzero mAP and a mixed-up condition would show in the report
    det.decoder.obj_embed.tensor.data[:] *= 20.0
    det.decoder.box_w2.tensor.data[:] *= 8.0
    return det


def loop_oracle(det, ds):
    """The evaluation loop before encode-once: one predict per condition per
    scene, then mean_ap per condition."""
    classes = list(range(ds.params.n_classes))
    preds = {name: {} for name in CONDITIONS}
    gts = {}
    for i in range(len(ds)):
        sample = ds.load(i)
        gts[i] = sample.gts
        for name, mask in CONDITIONS.items():
            preds[name][i] = det.predict(sample, mask)
    maps, tables = {}, {}
    for name in CONDITIONS:
        m, table = mean_ap(preds[name], gts, classes)
        maps[name] = m
        tables[name] = {f"{c}/{r}": ap for (c, r), ap in table.items()}
    return MetricsReport(
        map_lc=maps["both"], map_l=maps["lidar"], map_c=maps["camera"], ap_table=tables,
    )


def box_bytes(preds):
    return np.array([[p.cx, p.cy, p.w, p.l, p.yaw, *p.class_logits] for p in preds]).tobytes()


@pytest.mark.parametrize("fusion,query_mode", CONFIGS)
def test_matches_loop_oracle_bitexact(dataset, fusion, query_mode):
    det = tiny_detector(dataset.spec, fusion, query_mode)
    got = evaluate_conditions(det, dataset).to_json()
    want = loop_oracle(det, dataset).to_json()
    assert got == want
    assert all(m > 0.0 for m in (got["map_lc"], got["map_l"], got["map_c"]))


@pytest.mark.parametrize("fusion,query_mode", CONFIGS)
def test_predict_many_equals_predict(dataset, fusion, query_mode):
    det = tiny_detector(dataset.spec, fusion, query_mode)
    for i in (0, 3):
        sample = dataset.load(i)
        many = det.predict_many(sample, MASKS)
        assert len(many) == len(MASKS)
        for mask, preds in zip(MASKS, many):
            assert box_bytes(preds) == box_bytes(det.predict(sample, mask))


def test_each_modality_encoded_once_per_scene(dataset, monkeypatch):
    det = tiny_detector(dataset.spec, "cnw", "shared")
    calls = {"camera": 0, "lidar": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(model_mod, "encode_camera_bev",
                        counting("camera", model_mod.encode_camera_bev))
    monkeypatch.setattr(model_mod, "encode_lidar_bev",
                        counting("lidar", model_mod.encode_lidar_bev))
    evaluate_conditions(det, dataset)
    assert calls == {"camera": len(dataset), "lidar": len(dataset)}


def test_predict_many_rejects_bad_masks(dataset):
    det = tiny_detector(dataset.spec, "avg", "shared")
    sample = dataset.load(0)
    with pytest.raises(ContractError):
        det.predict_many(sample, [])
    with pytest.raises(ContractError):
        det.predict_many(sample, [ModalityMask(True, True), ModalityMask(False, False)])


def test_more_dataset_classes_than_head_is_contract_error(dataset):
    # the dataset has 3 object classes; a 3-way head scores only 2 of them
    cfg = ModelConfig(channels=8, heads=2, points=2, enc_layers=1, dec_layers=1,
                      n_classes=3, cam_hidden=(4, 4), lidar_hidden=(4, 4))
    det = Detector(cfg, dataset.spec, np.random.default_rng(1))
    with pytest.raises(ContractError):
        evaluate_conditions(det, dataset)


def test_empty_dataset_is_contract_error(tmp_path):
    """With no scenes, every class has no ground truths and no predictions,
    whose AP is 1: the report would read mAP 1 under every condition."""
    spec = BEVGridSpec(h=8, w=8, d=2)
    empty = generate_dataset(tmp_path / "empty", 0, 0, SceneParams(), spec, lidar_shape=(8, 8),
                             image_h=12, image_w=16, fx=6.0)
    with pytest.raises(ContractError, match="no scenes"):
        evaluate_conditions(tiny_detector(spec, "cnw", "shared"), empty)


def test_summary_map_follows_the_three_maps():
    """The summary is derived, not stored, so no report can disagree with
    the maps it is the mean of."""
    report = MetricsReport(map_lc=0.3, map_l=0.2, map_c=0.1, ap_table={})
    assert report.summary_map == report.to_json()["summary_map"] == summary_metric(0.3, 0.2, 0.1)
    report.map_c = 0.7
    assert report.summary_map == summary_metric(0.3, 0.2, 0.7)
    with pytest.raises(TypeError):
        MetricsReport(map_lc=0.3, map_l=0.2, map_c=0.1, summary_map=0.5, ap_table={})


class TestAveragePrecision:
    def test_score_ties_break_by_scene_then_index(self):
        gts = {0: [(0.0, 0.0)], 1: [(10.0, 10.0)]}
        preds = [
            (1, 0.5, 10.0, 10.0),  # tied with both scene-0 entries, ranked after them
            (0, 0.5, 5.0, 5.0),  # false positive, ranked first by index
            (0, 0.5, 0.0, 0.0),  # true positive
            (0, 0.9, 0.0, 0.0),  # true positive, claims the scene-0 box first
        ]
        # ranking: TP(0.9), FP, FP (scene-0 box taken), TP -> recall steps
        # 0.5 at precision 1 and 1.0 at precision 2/4
        assert average_precision(preds, gts, 1.0) == pytest.approx(0.5 * 1.0 + 0.5 * 0.5,
                                                                   rel=1e-15)

    def test_tied_true_positive_before_false_positive(self):
        gts = {0: [(0.0, 0.0), (4.0, 0.0)]}
        preds = [(0, 0.7, 9.0, 9.0), (0, 0.7, 4.0, 0.0), (0, 0.7, 0.0, 0.0)]
        # index order: FP, TP, TP -> precision 1/2 then 2/3 at recall 0.5, 1.0;
        # the envelope lifts the first step to 2/3
        assert average_precision(preds, gts, 0.5) == pytest.approx(2.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("radius", [-0.5, float("nan")])
    def test_negative_or_nan_radius_is_contract_error(self, radius):
        with pytest.raises(ContractError, match="match radius"):
            average_precision([(0, 0.9, 0.0, 0.0)], {0: [(0.0, 0.0)]}, radius)

    def test_no_ground_truths(self):
        assert average_precision([], {0: [], 1: []}, 1.0) == 1.0
        assert average_precision([], {}, 1.0) == 1.0
        assert average_precision([(0, 0.9, 0.0, 0.0)], {0: []}, 1.0) == 0.0


ORACLE_RADII = (0.0, 0.5, 1.0, 2.0, 4.0)


def random_class_case(rng, n_scenes):
    """Ground truths for some scenes (a scene may have none or be absent) and
    predictions with tied scores, some exactly on a ground truth, some in a
    scene with no ground truths."""
    gts = {s: [tuple(rng.uniform(-5, 5, 2)) for _ in range(rng.integers(0, 4))]
           for s in range(n_scenes) if rng.random() < 0.8}
    preds = []
    for s in range(n_scenes + 1):
        for _ in range(rng.integers(0, 5)):
            x, y = rng.uniform(-5, 5, 2)
            if gts.get(s) and rng.random() < 0.6:
                x, y = gts[s][rng.integers(len(gts[s]))]
                if rng.random() < 0.5:
                    x, y = x + rng.normal(0, 0.8), y + rng.normal(0, 0.8)
            preds.append((s, float(rng.choice([0.2, 0.5, 0.9])), float(x), float(y)))
    return preds, gts


@pytest.mark.parametrize("seed", range(40))
def test_average_precision_matches_loop_oracle(seed):
    preds, gts = random_class_case(np.random.default_rng(seed), n_scenes=4)
    for r in ORACLE_RADII:
        assert average_precision(preds, gts, r) == average_precision_naive(preds, gts, r)


def class_and_score_of(logits):
    """(class, score) of a prediction: the most probable non-background
    class of the softmax of its logits, and that probability."""
    e = np.exp(logits - logits.max())
    probs = (e / e.sum())[:-1]
    return int(probs.argmax()), float(probs.max())


@pytest.mark.parametrize("seed", range(20))
def test_mean_ap_matches_loop_oracle(seed):
    # classes 0 and 1 have ground truths; class 2 has none, only predictions
    # in some seeds
    rng = np.random.default_rng(1000 + seed)
    preds_by_scene = {s: [] for s in range(4)}
    gts_by_scene = {s: [] for s in range(3)}
    for c in (0, 1, 2):
        preds, gts = random_class_case(rng, n_scenes=3)
        if c == 2:
            gts = {}
            preds = preds[: rng.integers(0, 2) * len(preds)]
        for s, centers in gts.items():
            gts_by_scene[s] += [SceneBox(x, y, 2.0, 4.0, 0.0, c) for x, y in centers]
        for s, score, x, y in preds:
            logits = np.zeros(4)
            logits[c] = np.log(3.0 * score / (1.0 - score))  # softmax puts `score` on c
            preds_by_scene[s].append(BoxPrediction(x, y, 2.0, 4.0, 0.0, logits))
    m, table = mean_ap(preds_by_scene, gts_by_scene, [0, 1, 2])
    scored = {s: [(*class_and_score_of(p.class_logits), p) for p in ps]
              for s, ps in preds_by_scene.items()}
    for c in (0, 1, 2):
        cls_preds = [(s, score, p.cx, p.cy) for s, ps in scored.items()
                     for j, score, p in ps if j == c]
        cls_gts = {s: [(g.cx, g.cy) for g in gs if g.class_id == c]
                   for s, gs in gts_by_scene.items()}
        for r in RADII:
            assert table[(c, r)] == average_precision_naive(cls_preds, cls_gts, r)
    assert m == pytest.approx(sum(table.values()) / len(table), rel=1e-15)


def test_mean_ap_takes_one_class_softmax_per_prediction(monkeypatch):
    """mean_ap scores every prediction once, however many classes and radii
    it tables."""
    rng = np.random.default_rng(77)
    preds_by_scene = {s: [BoxPrediction(*rng.uniform(-4, 4, 2), 2.0, 4.0, 0.0,
                                        rng.standard_normal(4)) for _ in range(5)]
                      for s in range(3)}
    gts_by_scene = {s: [SceneBox(*rng.uniform(-4, 4, 2), 2.0, 4.0, 0.0, c)
                        for c in (0, 1, 2)] for s in range(3)}
    calls = []
    softmax = BoxPrediction.class_probs
    monkeypatch.setattr(BoxPrediction, "class_probs", lambda p: calls.append(p) or softmax(p))
    mean_ap(preds_by_scene, gts_by_scene, [0, 1, 2])
    assert len(calls) == 15
