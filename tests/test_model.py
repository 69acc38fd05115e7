"""ModelConfig validation, the detector's initial weights and its backbones."""

import hashlib

import numpy as np
import pytest

from bevkit.errors import ConfigError
from bevkit.geometry import BEVGridSpec
from bevkit.model import Detector, ModelConfig
from bevkit.synthscene import default_rig

# sha256 over (name, NUL, little-endian float64 bytes) of every array of
# Detector(ModelConfig(), BEVGridSpec(), default_rng(0)).param_arrays(), in
# order. Parameter names, shapes and the order of random draws all feed it, so
# a change to any of them breaks every existing checkpoint and shows here.
DEFAULT_INIT_SHA256 = "8b7ece11f59f7b96c572083f984bd7d7d0ea240d59127fe1de544a7c94bf455b"


def test_default_init_is_unchanged():
    arrays = Detector(ModelConfig(), BEVGridSpec(), np.random.default_rng(0)).param_arrays()
    h = hashlib.sha256()
    for name, a in arrays.items():
        h.update(name.encode() + b"\0" + a.astype("<f8").tobytes())
    assert len(arrays) == 198
    assert h.hexdigest() == DEFAULT_INIT_SHA256


@pytest.mark.parametrize("kw", [
    dict(fusion="concat", channels=4, heads=2),  # encoder width 2
    dict(fusion="concat", channels=2, heads=1),
    dict(fusion="cnw", channels=2, heads=2),
    dict(fusion="avg", channels=1, heads=1),
])
def test_encoder_width_below_three_is_config_error(kw):
    with pytest.raises(ConfigError):
        ModelConfig(**kw).validate()


@pytest.mark.parametrize("kw", [
    dict(enc_layers=0),  # the fused map would be the BEV queries, whatever the sensors see
    dict(enc_layers=-1),
    dict(dec_layers=0),  # the boxes would never read the fused map
    dict(heads=0),  # ZeroDivisionError without the check
    dict(heads=-2),  # ValueError (negative dimensions) without the check
    dict(points=0),  # ContractError from DeformAttnParams without the check
    dict(cam_hidden=(8, 0)),  # OverflowError in the backbone without the check
    dict(lidar_hidden=(0, 16)),
    dict(lambda_cls=-0.5),
    dict(lambda_box=-1.0),  # gives a negative loss
    dict(background_weight=-0.1),
    dict(lambda_cls=float("nan")),  # hungarian_match's ContractError without the check
    dict(lambda_box=float("inf")),
    dict(background_weight=float("nan")),  # a NaN loss without the check
    dict(cam_hidden=(8, 16, 32)),  # ValueError (too many values to unpack) without the check
    dict(lidar_hidden=(12,)),
    dict(cam_hidden=8),
    dict(channels=32.0),  # TypeError in the backbone without the check
    dict(heads=2.0),
    dict(points=True),  # a bool is not a size
    dict(n_obj="20"),
    dict(cam_hidden=(8.0, 16)),
    dict(normalize_by_hits=1),
    dict(normalize_by_hits="yes"),
    dict(lambda_cls=True),
    dict(lambda_box="2"),
    dict(fusion=None),
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_degenerate_fields_are_config_error(kw):
    with pytest.raises(ConfigError):
        ModelConfig(**kw).validate()
    with pytest.raises(ConfigError):
        Detector(ModelConfig(**kw), BEVGridSpec(h=4, w=4, d=1), np.random.default_rng(0))


def test_smallest_sizes_and_zero_weights_are_accepted():
    cfg = ModelConfig(channels=4, heads=1, points=1, enc_layers=1, dec_layers=1,
                      cam_hidden=(1, 1), lidar_hidden=(1, 1), lambda_cls=0.0, lambda_box=0.0,
                      background_weight=0.0)
    assert cfg.validate() is cfg


def test_numpy_sizes_and_list_widths_are_accepted():
    cfg = ModelConfig(channels=np.int64(8), heads=np.int32(2), cam_hidden=[4, 4],
                      lidar_hidden=(np.int64(4), 4), lambda_box=np.float64(1.5), lambda_cls=1)
    assert cfg.validate() is cfg


def test_encoder_width_three_is_accepted():
    assert ModelConfig(fusion="concat", channels=6, heads=3).validate().encoder_channels == 3


def test_backbone_stride_matches_camera_scaling():
    # camera projections use cameras scaled by the backbone's stride, so sampling
    # coordinates line up with the feature map the backbone returns
    spec = BEVGridSpec(h=8, w=8, d=2)
    cfg = ModelConfig(channels=8, heads=2, points=2, enc_layers=1, dec_layers=1,
                      cam_hidden=(4, 4), lidar_hidden=(4, 4))
    det = Detector(cfg, spec, np.random.default_rng(0))
    assert (det.cam_backbone.stride, det.lidar_backbone.stride) == (2, 1)
    rig = default_rig(image_h=12, image_w=16, fx=6.0)
    images = np.random.default_rng(1).standard_normal((len(rig), 12, 16, 3))
    feats = det.cam_backbone.forward(images)
    assert len(feats) == len(rig)
    for cam, feat in zip(rig, feats):
        scaled = cam.scaled(det.cam_backbone.stride)
        assert feat.shape == (scaled.image_h, scaled.image_w, 8)
    lidar, = det.lidar_backbone.forward(np.zeros((1, 10, 6, 2)))
    assert lidar.shape == (10, 6, 8)


def test_camera_pairs_are_built_once_per_rig(monkeypatch):
    """The detector builds the camera pairs of a rig on its first camera
    encode and reuses them for every later scene on that rig."""
    import bevkit.model as model
    from bevkit.fusion import ModalityMask
    from bevkit.synthscene import RenderedSample

    built = []
    real = model.camera_pairs

    def spy(projections, n_queries):
        built.append(len(projections))
        return real(projections, n_queries)

    monkeypatch.setattr(model, "camera_pairs", spy)
    spec = BEVGridSpec(h=8, w=8, d=2)
    cfg = ModelConfig(channels=8, heads=2, points=2, enc_layers=2, dec_layers=1,
                      cam_hidden=(4, 4), lidar_hidden=(4, 4))
    det = Detector(cfg, spec, np.random.default_rng(0))
    rig = default_rig(image_h=12, image_w=16, fx=6.0)
    rng = np.random.default_rng(1)

    def sample(cams):
        return RenderedSample(0, rng.standard_normal((len(cams), 12, 16, 3)),
                              rng.standard_normal((8, 8, 2)), [], cams)

    both, camera = ModalityMask(True, True), ModalityMask(True, False)
    first = sample(rig)
    boxes = det.predict(first, both)
    det.predict(sample(rig), camera)
    det.predict_many(sample(rig), [both, camera])
    det.loss(sample(rig), both)
    assert built == [len(rig)]
    assert repr(det.predict(first, both)) == repr(boxes)
    det.predict(sample(list(rig)), both)  # the same cameras in another list
    assert built == [len(rig)]
    rig[0] = rig[0].scaled(1)  # an equal camera, but another object: another rig
    det.predict(first, both)
    assert built == [len(rig)] * 2


def test_a_rig_changed_in_place_gets_new_camera_pairs():
    """Replacing a camera in the rig's list changes what the camera branch
    sees, as for a fresh detector; stale pairs would keep the old view."""
    from bevkit.fusion import ModalityMask
    from bevkit.geometry import make_camera
    from bevkit.synthscene import RenderedSample

    spec = BEVGridSpec(h=8, w=8, d=2)
    cfg = ModelConfig(channels=8, heads=2, points=2, enc_layers=1, dec_layers=1,
                      cam_hidden=(4, 4), lidar_hidden=(4, 4))
    rig = default_rig(image_h=12, image_w=16, fx=6.0)
    rng = np.random.default_rng(1)
    sample = RenderedSample(0, rng.standard_normal((4, 12, 16, 3)),
                            rng.standard_normal((8, 8, 2)), [], rig)
    camera = ModalityMask(True, False)
    det = Detector(cfg, spec, np.random.default_rng(0))
    before = repr(det.predict(sample, camera))
    rig[0] = make_camera([100.0, 0, 1.6], 0.0, 0.0, fx=6, fy=6, image_h=12, image_w=16)
    after = repr(det.predict(sample, camera))
    fresh = repr(Detector(cfg, spec, np.random.default_rng(0)).predict(sample, camera))
    assert after == fresh and after != before
