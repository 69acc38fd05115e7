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
DEFAULT_INIT_SHA256 = "509e77c195dfa108f1694cd4e3b207706b12497494cf4b98fe4a72dd8688cace"
# the same digest of the layout with one value weight per head,
# "{block}.value{m}.weight" [value_dim, N/M], in place of each block's one
# "{block}.value.weight" [value_dim, N]
PER_HEAD_VALUE_INIT_SHA256 = "8b7ece11f59f7b96c572083f984bd7d7d0ea240d59127fe1de544a7c94bf455b"


def init_digest(arrays):
    h = hashlib.sha256()
    for name, a in arrays.items():
        h.update(name.encode() + b"\0" + a.astype("<f8").tobytes())
    return h.hexdigest()


def per_head_value_arrays(arrays, heads):
    """arrays with each block's value weight split into its heads' blocks of
    columns, named and ordered as one parameter per head."""
    out = {}
    for name, a in arrays.items():
        if name.endswith(".value.weight"):
            for m, block in enumerate(np.hsplit(a, heads)):
                out[f"{name[:-len('.value.weight')]}.value{m}.weight"] = block
        else:
            out[name] = a
    return out


def test_default_init_is_unchanged():
    """The value weight of each attention block is its heads' weights side by
    side: the same draws as one weight per head, concatenated along axis 1."""
    cfg = ModelConfig()
    arrays = Detector(cfg, BEVGridSpec(), np.random.default_rng(0)).param_arrays()
    assert len(arrays) == 186
    assert init_digest(arrays) == DEFAULT_INIT_SHA256
    per_head = per_head_value_arrays(arrays, cfg.heads)
    assert len(per_head) == 186 + 12  # 2 blocks x 3 layers x 2 sensors, 2 heads each
    assert init_digest(per_head) == PER_HEAD_VALUE_INIT_SHA256


def test_load_arrays_checks_every_name_before_writing():
    """A checkpoint of the per-head value layout has every name but the value
    weights, and one with the last parameter's shape wrong has every name:
    load_arrays raises ConfigError for both and writes no parameter."""
    spec = BEVGridSpec(h=8, w=8, d=2)
    cfg = ModelConfig(channels=8, heads=2, points=2, enc_layers=1, dec_layers=1,
                      cam_hidden=(4, 4), lidar_hidden=(4, 4))
    det = Detector(cfg, spec, np.random.default_rng(0))
    before = {name: a.tobytes() for name, a in det.param_arrays().items()}
    other = Detector(cfg, spec, np.random.default_rng(1)).param_arrays()
    old_layout = per_head_value_arrays(other, cfg.heads)
    assert list(old_layout).index("backbone.camera.conv1.kernel") == 0  # written first
    with pytest.raises(ConfigError, match="value.weight"):
        det.load_arrays(old_layout)
    last = list(other)[-1]
    with pytest.raises(ConfigError, match=last):  # the last parameter, of a wrong shape
        det.load_arrays(dict(other, **{last: np.zeros((1, 1))}))
    assert {name: a.tobytes() for name, a in det.param_arrays().items()} == before
    det.load_arrays(other)
    assert all(np.array_equal(a, other[name]) for name, a in det.param_arrays().items())


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
    for cam in rig:
        scaled = cam.scaled(det.cam_backbone.stride)
        assert feats.shape == (len(rig), scaled.image_h, scaled.image_w, 8)
    lidar = det.lidar_backbone.forward(np.zeros((1, 10, 6, 2)))
    assert lidar.shape == (1, 10, 6, 8)


@pytest.mark.parametrize("modality", ["camera", "lidar"])
def test_backbone_batch_equals_per_map_forwards(modality):
    """The default detector's backbones on the default [4,48,64,3] camera
    images (and two [32,32,2] LiDAR grids) give each map's features byte for
    byte as a forward of that map alone: the convs take one product per tap
    over the whole batch, row for row the per-map products."""
    det = Detector(ModelConfig(), BEVGridSpec(), np.random.default_rng(0))
    rng = np.random.default_rng(2)
    if modality == "camera":
        backbone, maps = det.cam_backbone, rng.uniform(0, 1, (4, 48, 64, 3))
    else:
        backbone, maps = det.lidar_backbone, rng.uniform(0, 1, (2, 32, 32, 2))
    batch = backbone.forward(maps).data
    for i in range(len(maps)):
        assert batch[i].tobytes() == backbone.forward(maps[i : i + 1]).data[0].tobytes()


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
