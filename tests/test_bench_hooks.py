"""The benchmark's span tracer (bench/spans.py) hooks bevkit by name: every
function, method and detector attribute it wraps must exist, and every
argument it reads off a call must keep its name. A broken hook does not fail
a benchmark run, it only turns the metrics that need it into nulls, so these
tests pin the hooks against the package instead."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from bevkit.dataset import generate_dataset
from bevkit.fusion import ModalityMask
from bevkit.geometry import BEVGridSpec
from bevkit.model import Detector, ModelConfig
from bevkit.optim import Adam
from bevkit.synthscene import SceneParams

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# the arguments the tracer binds by name, per span (see Tracer._wrapper_for)
BOUND_ARGUMENTS = {
    "tensor.deform_attend": ("feats", "offsets", "qry_idx"),
    "attention.deform_attn_multi": ("params",),
    "model.predict": ("mask",),
    "dataset.generate_dataset": ("n_scenes",),
}


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


def tiny_setup(root):
    spec = BEVGridSpec(h=8, w=8, d=2)
    cfg = ModelConfig(channels=8, heads=2, points=2, enc_layers=1, dec_layers=1,
                      cam_hidden=(4, 4), lidar_hidden=(4, 4))
    det = Detector(cfg, spec, np.random.default_rng(0))
    ds = generate_dataset(root, 1, 0, SceneParams(), spec, lidar_shape=(8, 8), image_h=12,
                          image_w=16, fx=6.0)
    return det, ds


@pytest.mark.parametrize("target", spans.MODULE_TARGETS, ids=lambda t: t[2])
def test_module_target_resolves_to_a_callable(target):
    modname, path, span, _ = target
    found = spans._resolve(importlib.import_module(modname), path)
    assert found is not None, f"{span}: {modname}.{path} does not exist"
    owner, attr = found
    names = set(inspect.signature(getattr(owner, attr)).parameters)
    assert set(BOUND_ARGUMENTS.get(span, ())) <= names, f"{span} binds {BOUND_ARGUMENTS[span]}"


def test_every_bound_span_is_a_module_target():
    assert set(BOUND_ARGUMENTS) <= {span for _, _, span, _ in spans.MODULE_TARGETS}


def test_object_targets_resolve_on_a_detector():
    det = Detector(ModelConfig(channels=8, heads=2, points=2, enc_layers=1, dec_layers=1,
                               cam_hidden=(4, 4), lidar_hidden=(4, 4)),
                   BEVGridSpec(h=8, w=8, d=2), np.random.default_rng(0))
    for path, span, _ in spans.OBJECT_TARGETS:
        assert spans._resolve(det, path) is not None, f"{span}: detector.{path} does not exist"


def test_traced_step_and_predict_measure_everything(tmp_path):
    """With every hook installed, a train step, a predict under each mask and
    a dataset generation run, and the tracer reads each span's attributes
    without marking a metric unmeasured."""
    det, ds = tiny_setup(tmp_path / "scenes")
    sample = ds.load(0)
    tracer = spans.Tracer()
    tracer.install_modules()
    try:
        tracer.install_object(det)
        import bevkit.dataset as dataset_mod
        import bevkit.tensor as T

        dataset_mod.generate_dataset(tmp_path / "traced", 1, 1, SceneParams(), det.spec,
                                     lidar_shape=(8, 8), image_h=12, image_w=16, fx=6.0)
        opt = Adam(det.parameters(), lr=1e-3)
        T.backward(det.loss(sample, ModalityMask(True, True)))
        opt.step()
        for mask in (ModalityMask(True, True), ModalityMask(True, False),
                     ModalityMask(False, True)):
            det.predict(sample, mask)
    finally:
        tracer.uninstall()
    assert tracer.unmeasured == set()

    def attrs(name):
        return [s[4] for s in tracer.spans if s[0] == name]

    attend = attrs("tensor.deform_attend")
    assert attend and all(a["pairs"] >= 0 and a["maps"] >= 1 and a["queries"] == 64
                          for a in attend)
    assert {a["maps"] for a in attend} == {1, 4}  # token and LiDAR maps, the 4 camera views
    assert {a["cross"] for a in attrs("attention.deform_attn_multi")} == {True, False}
    assert sorted(a["label"] for a in attrs("model.predict")) == ["both", "camera", "lidar"]
    assert attrs("dataset.generate_dataset") == [{"records": 1}]
    seen = {s[0] for s in tracer.spans}
    for name in ("tensor.backward", "tensor.deform_attend.bwd", "tensor.conv3x3",
                 "tensor.conv3x3.bwd", "encoders.camera", "encoders.lidar",
                 "synthscene.backbone.camera", "synthscene.backbone.lidar", "optim.adam_step",
                 "fusion.fuse", "detection.decode", "detection.set_loss", "detection.match"):
        assert name in seen, name
