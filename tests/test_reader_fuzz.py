"""Byte-level fuzz of the file readers: whatever flips, cuts or appends bytes
do to a checkpoint, a scene record or manifest.json, the only error that may
escape load_checkpoint, SceneDataset(...) and SceneDataset.load is DataError."""

import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bevkit.checkpoint import load_checkpoint, save_checkpoint
from bevkit.dataset import SceneDataset, generate_dataset
from bevkit.errors import DataError
from bevkit.geometry import BEVGridSpec
from bevkit.synthscene import SceneParams

EDITS = st.lists(st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255)),
    st.tuples(st.just("cut"), st.integers(0, 2**16)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
), min_size=1, max_size=4)

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def corrupt(raw: bytes, edits) -> bytes:
    out = bytearray(raw)
    for kind, *args in edits:
        if kind == "flip" and out:
            out[args[0] % len(out)] ^= args[1]
        elif kind == "cut":
            del out[args[0] % (len(out) + 1):]
        elif kind == "append":
            out += args[0]
    return bytes(out)


def open_and_load(root):
    """SceneDataset(root) and a load of every record it claims, up to two."""
    try:
        ds = SceneDataset(root)
        for i in range(min(len(ds), 2)):
            ds.load(i)
    except DataError:
        pass


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    return generate_dataset(tmp_path_factory.mktemp("fuzz"), 2, 5, SceneParams(),
                            BEVGridSpec(h=8, w=8, d=2), lidar_shape=(4, 4), image_h=2,
                            image_w=4, fx=1.0)


@pytest.fixture(scope="module")
def work(dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_work") / "ds"
    shutil.copytree(dataset.root, root)
    return root


@FUZZ
@given(edits=EDITS)
def test_checkpoint(tmp_path, edits):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, {"a": np.arange(3.0), "b.w": np.ones((2, 1)), "empty": np.zeros(0)})
    path.write_bytes(corrupt(path.read_bytes(), edits))
    try:
        load_checkpoint(path)
    except DataError:
        pass


@FUZZ
@given(edits=EDITS)
def test_scene_record(dataset, work, edits):
    name = "scenes/scene_000001.bin"
    (work / name).write_bytes(corrupt((dataset.root / name).read_bytes(), edits))
    (work / "manifest.json").write_bytes((dataset.root / "manifest.json").read_bytes())
    open_and_load(work)


@FUZZ
@given(edits=EDITS)
def test_manifest(dataset, work, edits):
    name = "scenes/scene_000001.bin"
    (work / name).write_bytes((dataset.root / name).read_bytes())
    raw = (dataset.root / "manifest.json").read_bytes()
    (work / "manifest.json").write_bytes(corrupt(raw, edits))
    open_and_load(work)
