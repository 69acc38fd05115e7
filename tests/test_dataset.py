"""Scene sampling invariants, dataset determinism, the 32-bit range of seeds
and of the named random streams' integer tags, and the error contract of the
dataset and checkpoint readers on corrupt files."""

import json
import shutil
import struct
import zlib

import numpy as np
import pytest

from bevkit import dataset as dataset_module
from bevkit.checkpoint import load_checkpoint, save_checkpoint
from bevkit.dataset import (SceneDataset, _FIELDS, _read_array, _record_bytes, generate_dataset,
                            render_scene_record)
from bevkit.errors import ConfigError, ContractError, DataError
from bevkit.geometry import BEVGridSpec
from bevkit.rng import seeded_rng
from bevkit.synthscene import SceneParams, default_rig, sample_scene

SPEC = BEVGridSpec(h=8, w=8, d=2)
TINY = dict(lidar_shape=(4, 4), image_h=2, image_w=4, fx=1.0)


def dataset_files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestSampleScene:
    @pytest.mark.parametrize("params", [
        SceneParams(),
        SceneParams(n_boxes=(6, 6), min_center_dist=4.0, margin=1.0),
        # more boxes than fit: sampling gives up on the rest
        SceneParams(n_boxes=(40, 40), min_center_dist=8.0, margin=4.0),
    ])
    def test_min_distance_and_margin(self, params):
        x_min, x_max, y_min, y_max = SPEC.extent
        for seed in range(30):
            boxes = sample_scene(np.random.default_rng(seed), params, SPEC)
            c = np.array([[b.cx, b.cy] for b in boxes])
            assert 1 <= len(c) <= params.n_boxes[1]
            assert np.all((c[:, 0] >= x_min + params.margin) & (c[:, 0] <= x_max - params.margin))
            assert np.all((c[:, 1] >= y_min + params.margin) & (c[:, 1] <= y_max - params.margin))
            d = np.hypot(*(c[:, None, :] - c[None, :, :]).transpose(2, 0, 1))
            assert np.all(d[np.triu_indices(len(c), 1)] >= params.min_center_dist)

    def test_a_distance_wider_than_the_extent_gives_up_after_the_first_box(self):
        """The first candidate is always accepted, and no second one can be,
        so a scene that asks for 3 boxes gets exactly one."""
        params = SceneParams(n_boxes=(3, 3), min_center_dist=100.0)
        for seed in range(5):
            assert len(sample_scene(np.random.default_rng(seed), params, SPEC)) == 1

    @pytest.mark.parametrize("margin", [16.0, 20.0])
    def test_a_margin_that_leaves_no_room_is_config_error(self, margin):
        with pytest.raises(ConfigError, match="leaves no room"):
            sample_scene(np.random.default_rng(0), SceneParams(margin=margin), SPEC)


def test_records_rendered_out_of_order_are_the_files_bytes(tmp_path):
    """A record's bytes depend on (seed, scene id, parameters) only, so
    rendering the records in any order gives the files' bytes."""
    ds = generate_dataset(tmp_path / "ds", 3, 7, SceneParams(), SPEC, **TINY)
    files = dataset_files(ds.root)
    assert sorted(files) == ["manifest.json"] + [f"scenes/scene_{i:06d}.bin" for i in range(3)]
    assert ds.params == SceneParams()  # the manifest's lists read back as tuples
    rig = default_rig(image_h=TINY["image_h"], image_w=TINY["image_w"], fx=TINY["fx"])
    for i in (2, 0, 1):
        record = render_scene_record(7, i, SceneParams(), SPEC, rig, TINY["lidar_shape"])
        assert record == files[f"scenes/scene_{i:06d}.bin"]


BAD_SCENE_PARAMS = [
    dict(area_range=(-1.0, 1.0)),  # NaN box sizes without the check
    dict(area_range=(0.0, 1.0)),
    dict(aspect_ranges=((3.2, 4.8), (-1.0, 2.0))),
    dict(n_boxes=(3, 1)),  # ValueError from the rng without the check
    dict(n_boxes=(-1, 2)),
    dict(n_boxes=(1.0, 2)),
    dict(n_boxes=(1, 2, 3)),
    dict(aspect_ranges=()),  # ValueError from the rng without the check
    dict(aspect_ranges=((3.2,),)),
    dict(height_range=(1.8, 1.2)),
    dict(appearance_range=(0.2, float("inf"))),
    dict(margin=-1.0),
    dict(min_center_dist=float("nan")),
    dict(sigma_cam=-0.1),
    dict(sigma_lidar="0.05"),
    dict(lidar_drop_full_range=0.0),
    dict(lidar_drop_full_range=True),
]


@pytest.mark.parametrize("kw", BAD_SCENE_PARAMS,
                         ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_bad_scene_params_are_config_error_before_anything_is_written(kw, tmp_path):
    with pytest.raises(ConfigError):
        SceneParams(**kw).validate()
    with pytest.raises(ConfigError):
        generate_dataset(tmp_path / "ds", 2, 0, SceneParams(**kw), SPEC, **TINY)
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("n_scenes", [-1, 1.5, True, "2"])
def test_bad_n_scenes_is_config_error_before_anything_is_written(n_scenes, tmp_path):
    with pytest.raises(ConfigError):
        generate_dataset(tmp_path / "ds", n_scenes, 0, SceneParams(), SPEC, **TINY)
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("kw", [
    dict(seed="x"),
    dict(seed=1.0),
    dict(seed=True),
    dict(seed=None),
    dict(seed=-1),
    dict(seed=2**32),
    dict(seed=2**32 + 1),
    dict(seed=np.int64(-1)),
    dict(seed=np.uint64(2**63)),
    dict(lidar_shape=(2.5, 3)),
    dict(lidar_shape=(-1, 8)),
    dict(lidar_shape=(0, 8)),
    dict(lidar_shape=(8, 0)),
    dict(lidar_shape=(4,)),
    dict(lidar_shape=(4, 4, 4)),
    dict(lidar_shape=(True, 4)),
    dict(lidar_shape="44"),
    dict(lidar_shape=4),
    dict(image_h=0),
    dict(image_h=-2),
    dict(image_h=2.5),
    dict(image_h=True),
    dict(image_w="4"),
    dict(image_w=None),
    dict(fx=float("nan")),
    dict(fx=float("inf")),
    dict(fx=-1.0),
    dict(fx=0.0),
    dict(fx="1"),
    dict(fx=True),
], ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
def test_bad_seed_or_lidar_shape_is_config_error_before_anything_is_written(kw, tmp_path):
    """A seed that is not an integer in [0, 2**32), a LiDAR shape or image
    size that is not two positive integers, or an fx that is not finite and
    positive, is refused before the manifest or any record exists (a zero
    side would write a dataset of empty LiDAR maps; seed 2**32 + 1 would
    write seed 1's records)."""
    args = {**TINY, "seed": 0, **kw}
    seed = args.pop("seed")
    with pytest.raises(ConfigError):
        generate_dataset(tmp_path / "ds", 2, seed, SceneParams(), SPEC, **args)
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("seed, tags", [
    (-1, ()), (2**32, ()), (2**32 + 1, ()), (np.int64(-1), ()), (np.uint64(2**32), ()),
    (0, ("scene", -1)), (0, ("scene", 2**32)), (0, (np.uint64(2**40), "cam")),
])
def test_seeded_rng_refuses_a_seed_or_tag_outside_32_bits(seed, tags):
    """The seed and each integer tag are 32-bit words of the stream's key:
    one outside [0, 2**32) would fold onto one inside (seed 2**32 + 1 onto
    seed 1, -1 onto 2**32 - 1), so it raises ContractError instead."""
    with pytest.raises(ContractError, match=r"outside \[0, 2\*\*32\)"):
        seeded_rng(seed, *tags)


@pytest.mark.parametrize("seed, tags", [
    (1.5, ()), (1.0, ()), (True, ()), (np.float64(1.0), ()), (np.bool_(True), ()), ("1", ()),
    (None, ()), (0, (2.0,)), (0, ("scene", False)), (0, (np.float32(3.0),)), (0, (None,)),
    (0, (b"cam",)),
])
def test_seeded_rng_refuses_a_non_integer_seed_or_a_tag_neither_integer_nor_string(seed, tags):
    """int() would take a bool or a float, so seeded_rng(1.5) or a tag True
    would key the stream of 1, and str() would key a tag 2.0 as "2.0": such
    a seed or tag raises ContractError instead."""
    with pytest.raises(ContractError, match="not an integer"):
        seeded_rng(seed, *tags)


@pytest.mark.parametrize("seed, scene_id", [(1.5, 0), (1, 0.0), (True, 0), (0, np.float64(2))])
def test_render_scene_record_refuses_a_non_integer_seed_or_scene_id(seed, scene_id):
    """render_scene_record(1.5, 0, ...) would render seed 1's record."""
    rig = default_rig(image_h=TINY["image_h"], image_w=TINY["image_w"], fx=TINY["fx"])
    with pytest.raises(ContractError):
        render_scene_record(seed, scene_id, SceneParams(), SPEC, rig, TINY["lidar_shape"])


@pytest.mark.parametrize("seed, tags", [
    (0, ()), (1, ("scene", 0)), (2**32 - 1, ("cam", 2**32 - 1)),
    (np.uint32(7), (np.int64(5), "lidar", 3)),
])
def test_seeded_rng_streams_inside_32_bits_are_keyed_by_their_words(seed, tags):
    """Seeds and integer tags in range key the stream as the words
    themselves, a string tag as its crc32, in order."""
    words = [int(seed)] + [zlib.crc32(t.encode()) if isinstance(t, str) else int(t)
                           for t in tags]
    want = np.random.default_rng(np.random.SeedSequence(words))
    assert seeded_rng(seed, *tags).bit_generator.state == want.bit_generator.state


def test_numpy_integers_write_the_bytes_of_python_ints(tmp_path):
    want = generate_dataset(tmp_path / "int", 1, 3, SceneParams(), SPEC, **TINY)
    got = generate_dataset(tmp_path / "numpy", np.int64(1), np.int64(3), SceneParams(), SPEC,
                           **{**TINY, "lidar_shape": (np.int64(4), np.int32(4)),
                              "image_h": np.int64(2), "image_w": np.int32(4), "fx": np.float32(1)})
    assert dataset_files(got.root) == dataset_files(want.root)


def test_generating_over_an_earlier_dataset_is_config_error(tmp_path):
    """Generating 1 scene where 3 were generated would leave records 1 and 2
    beside a manifest of 1, so the root is refused and left as it was."""
    first = generate_dataset(tmp_path / "ds", 3, 0, SceneParams(), SPEC, **TINY)
    before = dataset_files(first.root)
    with pytest.raises(ConfigError, match="not an empty directory"):
        generate_dataset(tmp_path / "ds", 1, 0, SceneParams(), SPEC, **TINY)
    assert dataset_files(first.root) == before


@pytest.mark.parametrize("occupant", ["file", "hidden_file", "empty_subdirectory"])
def test_a_root_that_is_a_file_or_holds_anything_is_config_error(occupant, tmp_path):
    root = tmp_path / "ds"
    if occupant == "file":
        root.write_bytes(b"x")
    else:
        root.mkdir()
        if occupant == "hidden_file":
            (root / ".keep").write_bytes(b"x")
        else:
            (root / "scenes").mkdir()
    before = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
    with pytest.raises(ConfigError, match="not an empty directory"):
        generate_dataset(root, 1, 0, SceneParams(), SPEC, **TINY)
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == before
    if occupant == "file":
        assert root.read_bytes() == b"x"


def test_an_empty_directory_root_is_generated_into(tmp_path):
    (tmp_path / "empty").mkdir()
    got = generate_dataset(tmp_path / "empty", 2, 3, SceneParams(), SPEC, **TINY)
    want = generate_dataset(tmp_path / "fresh", 2, 3, SceneParams(), SPEC, **TINY)
    assert dataset_files(got.root) == dataset_files(want.root)


@pytest.mark.parametrize("params, spec", [
    (SceneParams(margin=20.0), SPEC),
    (SceneParams(margin=16.0), SPEC),
    (SceneParams(), BEVGridSpec(h=0, w=8, d=2)),
    (SceneParams(), BEVGridSpec(h=8, w=8, d=2, extent=(16.0, -16.0, -16.0, 16.0))),
], ids=["margin-20", "margin-16", "h-0", "reversed-extent"])
def test_a_margin_without_room_or_a_bad_grid_is_config_error_before_anything_is_written(
        params, spec, tmp_path):
    """A margin that leaves no room for box centers in the grid's extent
    would fail at the first scene, after the directory was made."""
    with pytest.raises(ConfigError):
        generate_dataset(tmp_path / "ds", 3, 0, params, spec, **TINY)
    assert not (tmp_path / "ds").exists()


def test_a_generation_that_stops_part_way_leaves_no_dataset(tmp_path, monkeypatch):
    """The manifest is written after the last record, so a run that stops
    at scene 1 leaves a directory that does not open as a dataset."""
    render = dataset_module.render_scene_record

    def fail_on_scene_1(seed, scene_id, *args):
        if scene_id == 1:
            raise RuntimeError("interrupted")
        return render(seed, scene_id, *args)

    monkeypatch.setattr(dataset_module, "render_scene_record", fail_on_scene_1)
    with pytest.raises(RuntimeError, match="interrupted"):
        generate_dataset(tmp_path / "ds", 3, 0, SceneParams(), SPEC, **TINY)
    with pytest.raises(DataError, match="no manifest.json"):
        SceneDataset(tmp_path / "ds")


def test_scene_params_validate_accepts_edge_values():
    params = SceneParams(n_boxes=(0, 0), aspect_ranges=[(1, 1)], margin=0, sigma_cam=0.0,
                         sigma_lidar=0, height_range=(0.0, 0.0), appearance_range=(-1, -1))
    assert params.validate() is params
    assert SceneParams().validate() == SceneParams()


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    return generate_dataset(tmp_path_factory.mktemp("tiny"), 1, 3, SceneParams(), SPEC, **TINY)


@pytest.fixture(scope="module")
def two_scenes(tmp_path_factory):
    return generate_dataset(tmp_path_factory.mktemp("two"), 2, 3, SceneParams(), SPEC, **TINY)


@pytest.mark.parametrize("index", [1.5, True, False, "1", None])
def test_load_of_a_non_integer_index_is_contract_error(two_scenes, index):
    # a bool is an int to Python, and would load scene 0 or 1
    with pytest.raises(ContractError, match="integer"):
        two_scenes.load(index)


def test_load_takes_numpy_integers(two_scenes):
    got, want = two_scenes.load(np.int64(1)), two_scenes.load(1)
    assert type(got.scene_id) is int and got.scene_id == 1
    assert got.camera_images.tobytes() == want.camera_images.tobytes()
    assert got.gts == want.gts
    with pytest.raises(DataError):
        two_scenes.load(np.int32(2))


def test_loaded_arrays_are_writable_aligned_and_owned_by_their_load(two_scenes):
    """load's arrays are views of one buffer per load: writable and aligned,
    and a write into one sample's arrays leaves a second load of the same
    record as the file has it."""
    sample = two_scenes.load(1)
    images, lidar = sample.camera_images.tobytes(), sample.lidar_grid.tobytes()
    for arr in (sample.camera_images, sample.lidar_grid):
        assert arr.flags.writeable and arr.flags.aligned and arr.dtype == np.float64
    sample.camera_images[...] = -1.0
    sample.lidar_grid += 1.0
    again = two_scenes.load(1)
    assert again.camera_images.tobytes() == images
    assert again.lidar_grid.tobytes() == lidar
    assert again.gts == sample.gts


def put(index, value):
    """Edit that returns a copy of an array with value at flat index."""
    def edit(a):
        a = a.copy()
        a.flat[index] = value
        return a
    return edit


def corrupt_copy(ds, tmp_path, payload):
    root = tmp_path / "corrupt"
    shutil.copytree(ds.root, root)
    (root / "scenes" / "scene_000000.bin").write_bytes(payload)
    return type(ds)(root)


class TestSceneRecordReader:
    def record(self, ds):
        return (ds.root / "scenes" / "scene_000000.bin").read_bytes()

    def test_every_truncation_is_data_error(self, tiny_dataset, tmp_path):
        raw = self.record(tiny_dataset)
        assert len(raw) < 2000
        ds = corrupt_copy(tiny_dataset, tmp_path, raw)
        assert len(ds.load(0).gts) >= 1
        path = ds.root / "scenes" / "scene_000000.bin"
        for n in range(len(raw)):
            path.write_bytes(raw[:n])
            with pytest.raises(DataError):
                ds.load(0)

    def test_trailing_byte_is_data_error(self, tiny_dataset, tmp_path):
        ds = corrupt_copy(tiny_dataset, tmp_path, self.record(tiny_dataset) + b"\0")
        with pytest.raises(DataError):
            ds.load(0)

    def test_huge_dimension_count_is_data_error(self, tiny_dataset, tmp_path):
        raw = self.record(tiny_dataset)
        ds = corrupt_copy(tiny_dataset, tmp_path, struct.pack("<Q", 2**63) + raw[8:])
        with pytest.raises(DataError):
            ds.load(0)

    def rewritten(self, ds, tmp_path, field, edit):
        """Copy of ds whose first record holds edit(array) in place of field."""
        raw = memoryview(self.record(ds))
        arrays, offset = {}, 0
        for name, dtype in _FIELDS:
            arr, offset = _read_array("record", raw, offset, dtype)
            arrays[name] = edit(arr) if name == field else arr
        return corrupt_copy(ds, tmp_path, _record_bytes(arrays))

    def test_box_count_mismatch_is_data_error(self, tiny_dataset, tmp_path):
        # one yaw fewer than there are boxes
        ds = self.rewritten(tiny_dataset, tmp_path, "gt_yaws", lambda a: a[:-1])
        with pytest.raises(DataError):
            ds.load(0)

    @pytest.mark.parametrize("field,edit", [
        ("gt_classes", put(0, 3)),  # SceneParams() has 3 classes
        ("gt_classes", put(0, 9)),
        ("gt_classes", put(0, -1)),
        ("gt_centers", put(0, np.nan)),
        ("gt_centers", put(1, np.inf)),
        ("gt_sizes", put(0, np.nan)),
        ("gt_sizes", put(1, -np.inf)),
        ("gt_yaws", put(0, np.nan)),
        ("gt_heights", put(0, np.inf)),
        ("gt_appearance", put(0, np.nan)),
        ("lidar_grid", lambda a: np.zeros((5, 5, 2))),
        ("lidar_grid", lambda a: a.ravel()),
        ("lidar_grid", lambda a: a[..., :1]),
        ("camera_images", lambda a: a[:3]),
        ("camera_images", lambda a: a.reshape(4, -1)),
        ("camera_images", lambda a: a[..., :2]),
        ("camera_images", lambda a: a.transpose(0, 2, 1, 3)),
    ], ids=["class3", "class9", "class-1", "cx-nan", "cy-inf", "w-nan", "l-inf", "yaw-nan",
            "height-inf", "appearance-nan", "lidar-5x5", "lidar-1d", "lidar-1-channel",
            "3-images", "images-2d", "images-2-channels", "images-h-w-swapped"])
    def test_malformed_contents_are_data_error(self, tiny_dataset, tmp_path, field, edit):
        """A record of the manifest's fields whose images or LiDAR grid are not
        shaped for the manifest's cameras and LiDAR shape, or whose boxes have
        a class id outside the scene parameters' classes or a non-finite
        field, is refused."""
        ds = self.rewritten(tiny_dataset, tmp_path, field, edit)
        with pytest.raises(DataError):
            ds.load(0)


class TestCheckpointReader:
    ARRAYS = {"a": np.arange(3.0), "b.w": np.ones((2, 1)), "empty": np.zeros(0)}

    def saved(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, self.ARRAYS)
        return path, path.read_bytes()

    def test_round_trip(self, tmp_path):
        path, _ = self.saved(tmp_path)
        loaded = load_checkpoint(path)
        assert sorted(loaded) == sorted(self.ARRAYS)
        for k, v in self.ARRAYS.items():
            assert np.array_equal(loaded[k], v) and loaded[k].shape == v.shape

    def test_every_truncation_is_data_error(self, tmp_path):
        path, raw = self.saved(tmp_path)
        for n in range(len(raw)):
            path.write_bytes(raw[:n])
            with pytest.raises(DataError):
                load_checkpoint(path)

    def test_missing_path_or_directory_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="no checkpoint file"):
            load_checkpoint(tmp_path / "missing.ckpt")
        with pytest.raises(DataError, match="no checkpoint file"):
            load_checkpoint(tmp_path)

    def test_trailing_byte_is_data_error(self, tmp_path):
        path, raw = self.saved(tmp_path)
        path.write_bytes(raw + b"\0")
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize("old,new", [
        (b"count 3", b"count 4"),
        (b"count 3", b"count 2"),
        (b"count 3", b"count x"),
        (b"count 3", b"cnt 3"),
        (b"count 3", b"count -3"),
        (b"a 3 0", b"a 3,x 0"),
        (b"a 3 0", b"a 3"),
        (b"a 3 0", b"a 3 8"),
        (b"b.w 2,1 24", b"a 2,1 24"),
        (b"CHECKPOINT 1", b"CHECKPOINT 2"),
        (b"CHECKPOINT 1", b"CHECKPOINT \xff"),
        (b"b.w 2,1 24", b"b.\xff 2,1 24"),
    ])
    def test_malformed_manifest_is_data_error(self, tmp_path, old, new):
        path, raw = self.saved(tmp_path)
        assert raw.count(old) == 1
        path.write_bytes(raw.replace(old, new))
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["a b", "tab\there", "new\nline", "", "caf\u00e9", "\u03b8.w"],
                             ids=["space", "tab", "newline", "empty", "latin1", "greek"])
    def test_bad_name_is_contract_error_before_writing(self, tmp_path, name):
        path, raw = self.saved(tmp_path)
        with pytest.raises(ContractError):
            save_checkpoint(path, {**self.ARRAYS, name: np.ones(2)})
        assert path.read_bytes() == raw


    @pytest.mark.parametrize("arr", [np.array([2**60 + 1]), np.array([True, False]),
                                     np.array([1.0 + 2.0j]), np.array(3.0),
                                     np.array([1.0], dtype=np.longdouble)],
                             ids=["int64", "bool", "complex", "0-d", "longdouble"])
    def test_array_that_would_not_round_trip_is_contract_error_before_writing(self, tmp_path,
                                                                               arr):
        """An int64 past 2**53, a bool, a complex number and a long double do
        not survive the float64 payload, and a 0-d array would load back as
        shape (1,): each raises ContractError and leaves the file as it was."""
        path, raw = self.saved(tmp_path)
        with pytest.raises(ContractError, match="round-trip"):
            save_checkpoint(path, {**self.ARRAYS, "x": arr})
        assert path.read_bytes() == raw

    def test_float32_and_big_endian_arrays_read_back_as_their_values(self, tmp_path):
        arrays = {"f4": np.array([0.1, -2.5], dtype=np.float32),
                  "be": np.array([[np.pi]], dtype=">f8")}
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, arrays)
        for k, v in load_checkpoint(path).items():
            assert v.dtype == np.float64 and v.shape == arrays[k].shape
            assert np.array_equal(v, arrays[k])


class TestManifestReader:
    def copy_with_manifest(self, ds, tmp_path, text):
        root = tmp_path / "manifest"
        shutil.copytree(ds.root, root)
        (root / "manifest.json").write_bytes(text if isinstance(text, bytes) else text.encode())
        return root

    def manifest(self, ds):
        return json.loads((ds.root / "manifest.json").read_text())

    def test_round_trip(self, tiny_dataset, tmp_path):
        root = self.copy_with_manifest(tiny_dataset, tmp_path,
                                       json.dumps(self.manifest(tiny_dataset)))
        ds = SceneDataset(root)
        assert (ds.n_scenes, ds.spec, ds.lidar_shape) == (1, SPEC, (4, 4))
        assert ds.params == tiny_dataset.params and len(ds.cams) == 4
        assert len(ds.load(0).gts) >= 1

    def test_truncated_is_data_error(self, tiny_dataset, tmp_path):
        raw = (tiny_dataset.root / "manifest.json").read_bytes()
        root = self.copy_with_manifest(tiny_dataset, tmp_path, raw)
        for n in [0, 1, 2, 10, len(raw) // 3, len(raw) // 2, len(raw) - 2, len(raw) - 1]:
            (root / "manifest.json").write_bytes(raw[:n])
            with pytest.raises(DataError):
                SceneDataset(root)

    @pytest.mark.parametrize("text", [b"\xff\xfe{", b"[1, 2]", b"null", b"{\"format\": 1}"])
    def test_not_a_manifest_is_data_error(self, tiny_dataset, tmp_path, text):
        with pytest.raises(DataError):
            SceneDataset(self.copy_with_manifest(tiny_dataset, tmp_path, text))

    @pytest.mark.parametrize("key", ["n_scenes", "grid", "lidar_shape", "cameras",
                                     "scene_params", "record_fields"])
    def test_missing_key_is_data_error(self, tiny_dataset, tmp_path, key):
        manifest = self.manifest(tiny_dataset)
        del manifest[key]
        with pytest.raises(DataError):
            SceneDataset(self.copy_with_manifest(tiny_dataset, tmp_path, json.dumps(manifest)))

    @pytest.mark.parametrize("path,value", [
        (("n_scenes",), "1"),
        (("n_scenes",), 1.0),
        (("n_scenes",), True),
        (("n_scenes",), -1),
        (("lidar_shape",), [4]),
        (("lidar_shape",), [4, "4"]),
        (("lidar_shape",), [0, 4]),
        (("lidar_shape",), [4, -1]),
        (("grid",), [8, 8, 2]),
        (("grid", "h"), 8.5),
        (("grid", "h"), 0),
        (("grid", "extent"), [-16.0, 16.0, -16.0]),
        (("grid", "z_range"), [3.0, -1.0]),
        (("cameras",), {}),
        (("cameras",), []),
        (("cameras", 1, "image_w"), 5),
        (("cameras", 0), "camera"),
        (("cameras", 0, "fx"), "24"),
        (("cameras", 0, "fx"), -1.0),
        (("cameras", 0, "world_to_cam"), [[1.0, 0.0], [0.0, 1.0]]),
        (("cameras", 0, "world_to_cam", 0, 0), 2.0),
        (("cameras", 0, "image_h"), 2.5),
        (("scene_params",), None),
        (("scene_params", "n_boxes"), [1, 6, 2]),
        (("scene_params", "margin"), "2.5"),
        (("scene_params", "aspect_ranges"), [[3.2, 4.8], [1.6]]),
        (("scene_params", "aspect_ranges"), []),
        (("scene_params", "unknown"), 1.0),
        (("record_fields", 0, "dtype"), "<f4"),
        (("scene_params", "area_range"), [-1.0, 1.0]),
        (("scene_params", "n_boxes"), [3, 1]),
        (("scene_params", "sigma_cam"), float("nan")),
        (("scene_params", "lidar_drop_full_range"), 0),
    ])
    def test_wrongly_typed_field_is_data_error(self, tiny_dataset, tmp_path, path, value):
        manifest = self.manifest(tiny_dataset)
        node = manifest
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(DataError):
            SceneDataset(self.copy_with_manifest(tiny_dataset, tmp_path, json.dumps(manifest)))

    @pytest.mark.parametrize("path,value", [
        (("cameras", 0, "fx"), float("nan")),
        (("cameras", 0, "fy"), float("inf")),
        (("cameras", 0, "cx"), float("inf")),
        (("cameras", 0, "cy"), float("nan")),
        (("cameras", 0, "world_to_cam", 1, 3), float("inf")),
        (("cameras", 0, "world_to_cam", 0, 3), float("nan")),
        (("cameras", 0, "image_h"), 0),
        (("cameras", 0, "image_w"), -4),
        (("grid", "extent", 1), float("inf")),
        (("grid", "z_range", 1), float("inf")),
    ])
    def test_non_finite_or_empty_camera_or_grid_is_data_error(self, tiny_dataset, tmp_path,
                                                              path, value):
        """json writes and reads NaN and Infinity; the camera and grid
        validators must turn them, and empty images, away."""
        self.test_wrongly_typed_field_is_data_error(tiny_dataset, tmp_path, path, value)
