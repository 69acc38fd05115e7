"""Scene sampling invariants, dataset determinism, and the error contract of
the dataset and checkpoint readers on corrupt files."""

import io
import shutil
import struct

import numpy as np
import pytest

from bevkit.checkpoint import load_checkpoint, save_checkpoint
from bevkit.dataset import _FIELDS, _read_array, _write_array, generate_dataset
from bevkit.errors import DataError
from bevkit.geometry import BEVGridSpec
from bevkit.synthscene import SceneParams, sample_scene

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
            scene = sample_scene(np.random.default_rng(seed), params, SPEC, seed)
            c = np.array([[b.cx, b.cy] for b in scene.boxes])
            assert 1 <= len(c) <= params.n_boxes[1]
            assert np.all((c[:, 0] >= x_min + params.margin) & (c[:, 0] <= x_max - params.margin))
            assert np.all((c[:, 1] >= y_min + params.margin) & (c[:, 1] <= y_max - params.margin))
            d = np.hypot(*(c[:, None, :] - c[None, :, :]).transpose(2, 0, 1))
            assert np.all(d[np.triu_indices(len(c), 1)] >= params.min_center_dist)


def test_generate_dataset_bytes_do_not_depend_on_jobs(tmp_path):
    one = generate_dataset(tmp_path / "one", 3, 7, SceneParams(), SPEC, jobs=1, **TINY)
    two = generate_dataset(tmp_path / "two", 3, 7, SceneParams(), SPEC, jobs=2, **TINY)
    files = dataset_files(one.root)
    assert sorted(files) == ["manifest.json"] + [f"scenes/scene_{i:06d}.bin" for i in range(3)]
    assert files == dataset_files(two.root)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    return generate_dataset(tmp_path_factory.mktemp("tiny"), 1, 3, SceneParams(), SPEC, **TINY)


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

    def test_box_count_mismatch_is_data_error(self, tiny_dataset, tmp_path):
        # rewrite the record with one yaw fewer than there are boxes
        raw = memoryview(self.record(tiny_dataset))
        buf, offset = io.BytesIO(), 0
        for name, dtype in _FIELDS:
            arr, offset = _read_array("record", raw, offset, dtype)
            _write_array(buf, arr[:-1] if name == "gt_yaws" else arr, dtype)
        ds = corrupt_copy(tiny_dataset, tmp_path, buf.getvalue())
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
