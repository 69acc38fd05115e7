"""ModelConfig validation, the detector's initial weights and its backbones."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest

import bevkit.tensor as T
from bevkit.errors import ConfigError, ContractError
from bevkit.fusion import ModalityMask
from bevkit.geometry import BEVGridSpec
from bevkit.model import Detector, ModelConfig
from bevkit.optim import Adam
from bevkit.synthscene import RenderedSample, default_rig

# sha256 over (name, NUL, little-endian float64 bytes) of every array of
# Detector(ModelConfig(), BEVGridSpec(), default_rng(0)).param_arrays(), in
# order. Parameter names, shapes and the order of random draws all feed it, so
# a change to any of them breaks every existing checkpoint and shows here.
DEFAULT_INIT_SHA256 = "509e77c195dfa108f1694cd4e3b207706b12497494cf4b98fe4a72dd8688cace"
# the same digest of the layout with one value weight per head,
# "{block}.value{m}.weight" [N, N/M], in place of each block's one
# "{block}.value.weight" [N, N]
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


def test_param_arrays_are_a_snapshot():
    """A checkpoint of the weights stays the weights it was taken of: an
    Adam step after it, which writes the parameters in place, does not
    reach it."""
    cfg = ModelConfig(channels=8, heads=2, points=2, enc_layers=1, dec_layers=1,
                      cam_hidden=(4, 4), lidar_hidden=(4, 4))
    det = Detector(cfg, BEVGridSpec(h=8, w=8, d=2), np.random.default_rng(0))
    arrays = det.param_arrays()
    want = {name: a.tobytes() for name, a in arrays.items()}
    opt = Adam(det.parameters(), lr=0.1)
    for p in det.parameters():
        p.tensor.grad = np.ones(p.tensor.shape)
    opt.step()
    assert {name: a.tobytes() for name, a in arrays.items()} == want
    assert {name: a.tobytes() for name, a in det.param_arrays().items()} != want


@pytest.mark.parametrize("kw", [
    dict(fusion="concat", channels=4, heads=2),  # encoder width 2
    dict(fusion="concat", channels=2, heads=1),
    dict(fusion="cnw", channels=2, heads=2),
    dict(fusion="avg", channels=1, heads=1),
])
def test_encoder_width_below_three_is_config_error(kw):
    with pytest.raises(ConfigError):
        ModelConfig(**kw)


@pytest.mark.parametrize("kw", [
    dict(enc_layers=0),  # the fused map would be the BEV queries, whatever the sensors see
    dict(enc_layers=-1),
    dict(dec_layers=0),  # the boxes would never read the fused map
    dict(heads=0),  # ZeroDivisionError without the check
    dict(heads=-2),  # ValueError (negative dimensions) without the check
    dict(points=0),  # ContractError from DeformAttnParams without the check
    dict(cam_hidden=(8, 0)),  # OverflowError in the backbone without the check
    dict(lidar_hidden=(0, 16)),
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
    dict(fusion=None),
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_degenerate_fields_are_config_error(kw):
    with pytest.raises(ConfigError):
        ModelConfig(**kw)
    with pytest.raises(ConfigError):
        Detector(ModelConfig(**kw), BEVGridSpec(h=4, w=4, d=1), np.random.default_rng(0))


def test_smallest_sizes_are_accepted():
    cfg = ModelConfig(channels=4, heads=1, points=1, enc_layers=1, dec_layers=1,
                      cam_hidden=(1, 1), lidar_hidden=(1, 1))
    assert cfg.encoder_channels == 4


def test_a_checked_config_cannot_change_afterwards():
    """cam_hidden given as a list is stored as a tuple: no append can undo
    the check, and the config equals and hashes as the tuple-built one."""
    cfg = ModelConfig(cam_hidden=[4, 4])
    assert cfg.cam_hidden == (4, 4) and cfg == ModelConfig(cam_hidden=(4, 4))
    assert hash(cfg) == hash(ModelConfig(cam_hidden=(4, 4)))
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, cam_hidden=[4, 0])


def test_numpy_sizes_and_list_widths_are_accepted():
    cfg = ModelConfig(channels=np.int64(8), heads=np.int32(2), cam_hidden=[4, 4],
                      lidar_hidden=(np.int64(4), 4))
    assert cfg.cam_hidden == (4, 4) and cfg.encoder_channels == 8


def test_encoder_width_three_is_accepted():
    assert ModelConfig(fusion="concat", channels=6, heads=3).encoder_channels == 3


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
    encode and reuses them for every later scene on a rig of the same values,
    whichever camera objects and list hold them."""
    import bevkit.model as model
    from bevkit.fusion import ModalityMask
    from bevkit.synthscene import RenderedSample

    built = []
    real = model.camera_pairs

    def spy(projections, n_queries, normalize_by_hits):
        built.append(len(projections))
        return real(projections, n_queries, normalize_by_hits)

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
    rig[0] = dataclasses.replace(rig[0], world_to_cam=rig[0].world_to_cam.copy())
    det.predict(first, both)  # equal cameras, new objects: the same rig
    assert built == [len(rig)]
    rig[0] = dataclasses.replace(rig[0], fx=rig[0].fx * 1.5)  # other values: another rig
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


def test_a_camera_cannot_be_moved_in_place():
    """A camera's pose is a read-only copy, so no write in place can move a
    camera under the pairs derived from it; a moved camera is a new camera
    (test_a_rig_changed_in_place_gets_new_camera_pairs). The detector's
    outputs stay those of a fresh detector."""
    det = noisy_detector()
    rig = cache_rig()
    sample = cache_scene(np.random.default_rng(12), rig)
    before = outputs(det, sample)
    with pytest.raises(ValueError, match="read-only"):
        rig[0].world_to_cam[:3, 3] += [0.5, -0.25, 0.0]
    assert outputs(det, sample) == before == outputs(fresh_copy(det), sample)


@pytest.mark.parametrize("shape", [(3, 12, 16, 3), (5, 12, 16, 3), (4, 6, 8, 3),
                                   (4, 24, 16, 3), (4, 12, 32, 3), (4, 12, 16, 1)],
                         ids=lambda shape: (str(shape[0]) if shape[1:] == (12, 16, 3)
                                            else "x".join(map(str, shape))))
@pytest.mark.parametrize("grad", [True, False], ids=["tape", "no_grad"])
def test_camera_images_of_another_count_than_the_rig_are_contract_error(shape, grad):
    """Camera images other than [V, image_h, image_w, 3] for the rig's 4
    cameras of 12x16 raise ContractError before the backbone runs: the pairs
    address feature maps of the cameras' size."""
    det = noisy_detector()
    det.cam_backbone.forward = None  # a call raises TypeError, not ContractError
    rig = cache_rig()
    sample = RenderedSample(0, np.zeros(shape), np.zeros((8, 8, 2)), [], rig)
    with pytest.raises(ContractError, match=re.escape(f"camera images {shape} for cameras "
                                                      f"[(4, 12, 16, 3)]")):
        if grad:
            det.loss(sample, CAMERA)
        else:
            det.predict(sample, CAMERA)


# -- the first encoder layer's query half, kept in the detector's memo ------

BOTH, CAMERA, LIDAR = (ModalityMask(True, True), ModalityMask(True, False),
                       ModalityMask(False, True))
MASKS = (BOTH, CAMERA, LIDAR)
CACHE_SPEC = BEVGridSpec(h=8, w=8, d=2)
CACHE_KW = dict(channels=8, heads=2, points=2, enc_layers=2, dec_layers=1,
                cam_hidden=(4, 4), lidar_hidden=(4, 4))


def noisy_detector(seed=0, **kw):
    """A small detector whose every weight is moved off its initial value, so
    the zero-initialized offset and weight projections matter too."""
    det = Detector(ModelConfig(**CACHE_KW, **kw), CACHE_SPEC, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    det.load_arrays({name: a + 0.2 * rng.standard_normal(a.shape)
                     for name, a in det.param_arrays().items()})
    return det


def fresh_copy(det):
    """A detector that has never encoded anything, with det's config and weights."""
    other = Detector(det.cfg, det.spec, np.random.default_rng(99))
    other.load_arrays(det.param_arrays())
    return other


def cache_rig():
    return default_rig(image_h=12, image_w=16, fx=6.0)


def cache_scene(rng, cams, lidar_hw=(8, 8)):
    return RenderedSample(0, rng.standard_normal((len(cams), 12, 16, 3)),
                          rng.standard_normal((*lidar_hw, 2)), [], cams)


def outputs(det, sample):
    """The bytes of the fused map and of every predicted box under each mask,
    all under no_grad."""
    with T.no_grad():
        fused = [f.data.tobytes() for f in det.fused_maps(sample, MASKS)]
    boxes = [[np.array([b.cx, b.cy, b.w, b.l, b.yaw]).tobytes() + b.class_logits.tobytes()
              for b in det.predict(sample, mask)] for mask in MASKS]
    return fused, boxes


def entries(det):
    """modality -> the kept (x1, sampling) of the detector's memo."""
    return {name[1]: value for name, (_, value) in det._memo.items() if name[0] == "first_half"}


@pytest.fixture
def builds(monkeypatch):
    """One item per query half the detector builds."""
    import bevkit.model as model

    built = []
    real = model.query_half

    def spy(*args):
        built.append(args[0].shape)
        return real(*args)

    monkeypatch.setattr(model, "query_half", spy)
    return built


@pytest.mark.parametrize("kw", [dict(), dict(fusion="concat", query_mode="separate",
                                             normalize_by_hits=True)],
                         ids=["cnw-shared", "concat-separate-hits"])
def test_cached_query_half_gives_the_bytes_of_a_fresh_detector(kw):
    """Scenes encoded with the kept query half give, under every mask, the
    bytes of a detector that builds it for that scene, and the fused maps of
    a recorded forward, which never reads the kept half."""
    det = noisy_detector(**kw)
    rng = np.random.default_rng(3)
    scenes = [cache_scene(rng, cache_rig()) for _ in range(3)]
    outputs(det, scenes[0])
    for sample in scenes:
        got = outputs(det, sample)
        assert got == outputs(fresh_copy(det), sample)
        assert got[0] == [f.data.tobytes() for f in det.fused_maps(sample, MASKS)]


def test_repeated_encodes_reuse_one_entry_per_modality(builds):
    """The query half is built once per modality and then handed out for
    every later scene, mask and call; a rebuild replaces its modality's
    entry instead of adding one."""
    built = builds
    det = noisy_detector()
    rng = np.random.default_rng(4)
    det.predict(cache_scene(rng, cache_rig()), CAMERA)
    assert len(built) == 1 and set(entries(det)) == {"camera"}
    kept = entries(det)["camera"]
    for _ in range(3):  # new camera objects, equal ones: pairs of the same bytes
        sample = cache_scene(rng, cache_rig())
        det.predict_many(sample, MASKS)
        det.predict(sample, BOTH)
    assert len(built) == 2 and set(entries(det)) == {"camera", "lidar"}
    assert entries(det)["camera"] is kept
    det.queries.query_param("camera").data[0, 0, 0] += 1.0  # shared: both modalities rebuild
    det.predict(sample, BOTH)
    assert len(built) == 4 and len(entries(det)) == 2
    assert entries(det)["camera"] is not kept


def test_kept_arrays_are_read_only():
    """Every array of a kept query half is read-only, so an op that wrote into
    one in place would raise instead of changing later scenes."""
    det = noisy_detector()
    det.predict(cache_scene(np.random.default_rng(5), cache_rig()), BOTH)
    kept = entries(det)
    assert set(kept) == {"camera", "lidar"}
    for x1, sampling in kept.values():
        assert sampling.blocks
        arrays = [x1.data, sampling.offsets.data, sampling.attn.data]
        for mat in sampling.blocks:
            arrays += [mat.data, mat.indices, mat.indptr]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0


def test_loss_after_predicts_records_and_grads_as_a_fresh_detector():
    """A recorded forward neither reads nor fills the kept query halves: after predicts,
    Detector.loss records as many nodes and gives every parameter the grad
    bytes of a detector that never predicted."""
    from bevkit.tensor import backward

    rng = np.random.default_rng(6)
    scenes = [cache_scene(rng, cache_rig()) for _ in range(2)]
    used = noisy_detector()
    for sample in scenes:
        used.predict_many(sample, MASKS)
    fresh = fresh_copy(used)
    results = []
    for det in (used, fresh):
        loss = det.loss(scenes[1], BOTH)
        nodes = tape_nodes(loss)
        backward(loss)
        results.append((loss.data.tobytes(), nodes,
                        {p.name: None if p.tensor.grad is None else p.tensor.grad.tobytes()
                         for p in det.parameters()}))
    assert results[0] == results[1]
    assert len(entries(fresh)) == 0 and len(entries(used)) == 2


def tape_nodes(out):
    seen, stack = set(), [out]
    while stack:
        t = stack.pop()
        if id(t) in seen or t.node is None:
            continue
        seen.add(id(t))
        stack.extend(t.node.parents)
    return len(seen)


def layer0_sources():
    """(modality, parameter name) of every parameter a kept query half is
    keyed on: the modality's queries and every parameter of its first encoder
    layer, a superset of what the query half reads."""
    det = Detector(ModelConfig(**CACHE_KW, query_mode="separate"), CACHE_SPEC,
                   np.random.default_rng(0))
    out = []
    for modality, layer in (("camera", det.cam_layers[0]), ("lidar", det.lidar_layers[0])):
        params = [det.queries.query_param(modality), *layer.parameters()]
        out += [(modality, p.name) for p in params]
    return out


def adam_step(det, sample):
    from bevkit.optim import Adam
    from bevkit.tensor import backward

    backward(det.loss(sample, BOTH))
    Adam(det.parameters(), lr=1e-2).step()
    return sample


def load_other_weights(det, sample):
    det.load_arrays(noisy_detector(seed=7).param_arrays())
    return sample


def new_rig(det, sample):
    from bevkit.geometry import make_camera

    cams = list(sample.cams)
    cams[0] = make_camera([0.5, 0.5, 1.6], 0.7, 0.05, fx=6, fy=6, image_h=12, image_w=16)
    return RenderedSample(0, sample.camera_images, sample.lidar_grid, [], cams)


def new_lidar_shape(det, sample):
    grid = np.random.default_rng(8).standard_normal((10, 6, 2))
    return RenderedSample(0, sample.camera_images, grid, [], sample.cams)


@pytest.mark.parametrize("change", [adam_step, load_other_weights, new_rig, new_lidar_shape],
                         ids=lambda f: f.__name__)
def test_a_change_of_weights_rig_or_map_shape_rebuilds(change):
    """After an optimizer step, a checkpoint load, a new rig (new camera
    objects that see otherwise) or a LiDAR map of another shape, every mask
    gives the bytes of a fresh detector, which differ from the ones before."""
    det = noisy_detector()
    sample = cache_scene(np.random.default_rng(9), cache_rig())
    before = outputs(det, sample)
    sample = change(det, sample)
    after = outputs(det, sample)
    assert after == outputs(fresh_copy(det), sample)
    assert after[0] != before[0]


@pytest.mark.parametrize("source", layer0_sources(), ids=lambda s: s[1])
def test_an_in_place_write_to_a_source_rebuilds(source):
    """Writing into any parameter that the query half is derived from, in
    place (no optimizer, no load), makes the next encode rebuild it: every
    mask gives the bytes of a fresh detector, which differ from the ones
    before."""
    modality, name = source
    det = noisy_detector(query_mode="separate")
    sample = cache_scene(np.random.default_rng(10), cache_rig())
    before = outputs(det, sample)
    param, = [p for p in det.parameters() if p.name == name]
    param.data.reshape(-1)[:3] += 0.5
    after = outputs(det, sample)
    assert after == outputs(fresh_copy(det), sample)
    alone = MASKS.index(CAMERA if modality == "camera" else LIDAR)
    assert after[0][alone] != before[0][alone]


def test_shared_queries_written_between_modalities(builds):
    """With shared queries, a modality rebuilt after a write snapshots the
    bytes it was built from, not the other modality's older copy: after the
    write is undone, its kept half (built from the written queries) is not
    handed out, and once rebuilt it is kept again."""
    built = builds
    det = noisy_detector()
    sample = cache_scene(np.random.default_rng(11), cache_rig())
    det.predict(sample, BOTH)
    query = det.queries.query_param("lidar").data
    old = query.copy()
    query += 0.5
    det.predict(sample, LIDAR)  # the camera entry still holds the old queries
    query[...] = old
    assert outputs(det, sample) == outputs(fresh_copy(det), sample)
    n = len(built)
    det.predict(sample, BOTH)
    assert len(built) == n


def test_array_keys_compare_dtype_shape_and_bytes():
    """Two arrays give equal memo keys only with the same dtype, shape and
    bytes: a NaN equals itself, and -0.0 differs from 0.0."""
    from bevkit.model import _array_key

    a = np.arange(6.0).reshape(2, 3)
    assert _array_key(a) == _array_key(a.copy()) == _array_key(np.asfortranarray(a))
    assert _array_key(np.full(2, np.nan)) == _array_key(np.full(2, np.nan))
    for other in (a.reshape(3, 2), a.reshape(6), a.view(np.int64), a + 1.0):
        assert _array_key(other) != _array_key(a)
    assert _array_key(np.array([-0.0])) != _array_key(np.array([0.0]))


def test_first_half_keys_on_the_maps_shape(builds):
    """The same LiDAR pairs on maps of two shapes: the kept block matrices
    address one shape's cells, so a map of the other shape gets new ones, and
    each encode equals an encode without a kept half."""
    from bevkit.encoders import encode_lidar_bev, lidar_pairs
    from bevkit.tensor import Tensor

    det = noisy_detector()
    pairs = lidar_pairs(det.queries.refs, (4, 4), False)
    rng = np.random.default_rng(13)
    for hw in [(4, 4), (5, 6), (4, 4)]:
        feat = Tensor(rng.standard_normal((1, *hw, det.cfg.encoder_channels)))
        with T.no_grad():
            half = det._first_half("lidar", feat.shape, pairs, det.lidar_layers[0])
            got = encode_lidar_bev(det.queries, feat, pairs, det.lidar_layers, first_half=half)
            want = encode_lidar_bev(det.queries, feat, pairs, det.lidar_layers)
        assert got.data.tobytes() == want.data.tobytes()
        assert set(entries(det)) == {"lidar"}
    assert len(builds) == 3
