"""End-to-end gradient check: Detector.loss -> backward against central
differences of the loss, on a tiny config with both sensors.

The per-op FD tests check each vjp alone; this one checks that the whole
backward (backbones, both encoders, CNW fusion, decoder and set loss) is
wired together correctly.
"""

import numpy as np
import pytest

from bevkit import tensor as T
from bevkit.dataset import generate_dataset
from bevkit.fusion import ModalityMask
from bevkit.geometry import BEVGridSpec
from bevkit.model import Detector, ModelConfig
from bevkit.synthscene import SceneParams


@pytest.fixture(scope="module")
def sample(tmp_path_factory):
    spec = BEVGridSpec(h=6, w=6, d=2)
    ds = generate_dataset(tmp_path_factory.mktemp("fd"), 1, 4, SceneParams(), spec,
                          lidar_shape=(6, 6), image_h=8, image_w=12, fx=4.0)
    return spec, ds.load(0)


def test_detector_loss_matches_central_differences(sample):
    spec, scene = sample
    cfg = ModelConfig(channels=4, heads=2, points=2, enc_layers=1, dec_layers=1, n_obj=4,
                      cam_hidden=(3, 3), lidar_hidden=(3, 3))
    det = Detector(cfg, spec, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    for prm in det.parameters():
        # off the zero init: sampling points then sit off the cell lattice,
        # where bilinear sampling is differentiable
        prm.data[:] += 0.2 * rng.standard_normal(prm.data.shape)
    mask = ModalityMask(True, True)
    loss = det.loss(scene, mask)
    T.backward(loss)

    def f():
        with T.no_grad():
            return det.loss(scene, mask).item()

    h = 1e-5
    checked = 0
    for prm in det.parameters():
        flat = prm.data.reshape(-1)
        grad = prm.tensor.grad.reshape(-1)
        # the largest entry and one drawn at random
        for i in {int(np.argmax(np.abs(grad))), int(rng.integers(flat.size))}:
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            num = (fp - fm) / (2.0 * h)
            # relative 1e-4, with an absolute floor well above the rounding
            # error of a central difference of an O(1) loss at this h
            assert abs(grad[i] - num) <= 1e-4 * abs(num) + 1e-8, \
                f"{prm.name}[{i}]: analytic {grad[i]}, numeric {num}"
            checked += abs(num) > 1e-3
    assert checked > len(det.parameters())  # most checks compared sizeable numbers
