"""Center-distance detection metrics and the three-condition harness.

AP uses greedy score-descending matching: a prediction matches the nearest
still-unmatched ground truth of its class within the radius, and the PR curve
is integrated with all-points interpolation. mAP averages AP over classes x
``RADII`` {0.5, 1, 2, 4} m. The summary metric is the plain mean of mAP under
both-sensors, LiDAR-only, and camera-only input, all from one set of weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .detection import BoxPrediction
from .errors import ContractError
from .fusion import ModalityMask

RADII = (0.5, 1.0, 2.0, 4.0)

CONDITIONS = {
    "both": ModalityMask(True, True),
    "lidar": ModalityMask(False, True),
    "camera": ModalityMask(True, False),
}


def average_precision(preds: Sequence[Tuple[int, float, float, float]],
                      gts: Dict[int, List[Tuple[float, float]]],
                      match_radius: float) -> float:
    """AP for one class. preds: (scene_id, score, x, y); gts: scene -> centers.

    No ground truths and no predictions is defined as 1; no ground truths with
    any prediction is 0.
    """
    if not match_radius >= 0:  # NaN too
        raise ContractError(f"match radius must be >= 0, got {match_radius}")
    npos = sum(len(v) for v in gts.values())
    if npos == 0:
        return 1.0 if len(preds) == 0 else 0.0
    order = sorted(range(len(preds)), key=lambda i: (-preds[i][1], preds[i][0], i))
    matched = {scene: np.zeros(len(v), dtype=bool) for scene, v in gts.items()}
    centers = {scene: np.asarray(v, dtype=np.float64).reshape(-1, 2) for scene, v in gts.items()}
    tp = np.zeros(len(order))
    for rank, i in enumerate(order):
        scene, _, x, y = preds[i]
        if scene not in centers or centers[scene].shape[0] == 0:
            continue
        free = ~matched[scene]
        if not free.any():
            continue
        d = np.hypot(centers[scene][:, 0] - x, centers[scene][:, 1] - y)
        d[~free] = np.inf
        j = int(np.argmin(d))
        if d[j] <= match_radius:
            matched[scene][j] = True
            tp[rank] = 1.0
    tp_cum = np.cumsum(tp)
    fp_cum = np.cumsum(1.0 - tp)
    recall = tp_cum / npos
    precision = tp_cum / np.maximum(tp_cum + fp_cum, 1e-12)
    # monotone precision envelope, then sum rectangle areas at recall steps
    env = np.maximum.accumulate(precision[::-1])[::-1]
    prev_r = 0.0
    ap = 0.0
    for k in range(len(order)):
        if tp[k]:
            ap += (recall[k] - prev_r) * env[k]
            prev_r = recall[k]
    return float(ap)


def mean_ap(preds_by_scene: Dict[int, Sequence[BoxPrediction]], gts_by_scene,
            classes: Sequence[int]):
    """mAP plus the per-(class, radius) AP table over ``RADII``. Each
    prediction's class and score come from one softmax per call, not one per
    class."""
    scored = [(scene, *p.class_and_score(), p.cx, p.cy)
              for scene, ps in preds_by_scene.items() for p in ps]
    table = {}
    for c in classes:
        preds = [(scene, score, x, y) for scene, cid, score, x, y in scored if cid == c]
        gts = {scene: [(g.cx, g.cy) for g in gs if g.class_id == c]
               for scene, gs in gts_by_scene.items()}
        for r in RADII:
            table[(c, r)] = average_precision(preds, gts, r)
    return float(np.mean(list(table.values()))), table


def summary_metric(m_lc: float, m_l: float, m_c: float) -> float:
    """Mean performance over both-sensor, LiDAR-only and camera-only input."""
    return (m_lc + m_l + m_c) / 3.0


@dataclass
class MetricsReport:
    map_lc: float
    map_l: float
    map_c: float
    summary_map: float
    ap_table: Dict[str, Dict[str, float]]  # condition -> "class/radius" -> AP

    def check(self):
        expected = summary_metric(self.map_lc, self.map_l, self.map_c)
        if not abs(self.summary_map - expected) < 1e-12:
            raise ContractError(
                f"summary_map {self.summary_map} != mean of per-condition mAP {expected}"
            )
        return self

    def to_json(self) -> dict:
        return {
            "map_lc": self.map_lc, "map_l": self.map_l, "map_c": self.map_c,
            "summary_map": self.summary_map, "ap_table": self.ap_table,
        }


def evaluate_conditions(model, dataset) -> MetricsReport:
    """Score every condition (both / L / C) with one set of weights over
    every scene of the dataset; ContractError for an empty dataset.

    Each scene is encoded once per modality; the encoded maps are then fused
    and decoded three times, once per condition (see Detector.predict_many).
    """
    if tuple(model.spec.extent) != tuple(dataset.spec.extent):
        raise ContractError(
            f"model extent {model.spec.extent} != dataset extent {dataset.spec.extent}"
        )
    if dataset.params.n_classes > model.cfg.n_classes - 1:
        raise ContractError(f"dataset has {dataset.params.n_classes} object classes, the "
                            f"model's head {model.cfg.n_classes - 1}")
    if len(dataset) == 0:
        # with no ground truths and no predictions every AP, and so every mAP, is 1
        raise ContractError("evaluate_conditions: the dataset has no scenes")
    classes = list(range(dataset.params.n_classes))
    masks = list(CONDITIONS.values())
    preds = {name: {} for name in CONDITIONS}
    gts = {}
    for i in range(len(dataset)):
        sample = dataset.load(i)
        gts[i] = sample.gts
        for name, scene_preds in zip(CONDITIONS, model.predict_many(sample, masks)):
            preds[name][i] = scene_preds

    maps = {}
    tables = {}
    for name in CONDITIONS:
        m, table = mean_ap(preds[name], gts, classes)
        maps[name] = m
        tables[name] = {f"{c}/{r}": ap for (c, r), ap in table.items()}
    report = MetricsReport(
        map_lc=maps["both"], map_l=maps["lidar"], map_c=maps["camera"],
        summary_map=summary_metric(maps["both"], maps["lidar"], maps["camera"]),
        ap_table=tables,
    )
    return report.check()
