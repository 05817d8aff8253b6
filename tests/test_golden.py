"""Pinned output bytes of seeded generation and Adam training.

Each digest is a sha256 over the float64 little-endian bytes of every
array a call returns (plus the manifest without its timestamp).  A change
that moves any of these bytes changes seeded outputs and must be argued
as a behaviour change.
"""

import hashlib
import json

import numpy as np
import pytest

from latentpde import TrainConfig, fit_sgd, generate_dataset, generate_trajectory

from test_dataset_cli import TINY_HEAT, TINY_WAVE

GRF_COND = {"sigma": 0.4, "m": 0.1, "nu": 1.0, "seed": 7, "scale": 0.2}
WAVE_SKIP3 = dict(TINY_WAVE, trajectories=3, frames=10, skip=3, conductivity=GRF_COND)


def _digest(arrays, extra=b""):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    h.update(extra)
    return h.hexdigest()


def _dataset_digest(config):
    frames, manifest = generate_dataset(config)
    meta = json.loads(manifest.to_json())
    meta.pop("created")
    return _digest(frames, json.dumps(meta, sort_keys=True).encode())


DATASET_DIGESTS = {
    "heat": (TINY_HEAT, "4f1c85c2ac3d0bf9c65c26340f4d9e0cc6f06f0377cc1f5284307a3a3ed385d4"),
    "wave": (TINY_WAVE, "064ed24967439a4721a8c8f0d9841211fc64f2a67f824b8b9efacda1559f9a69"),
    "wave-skip3": (WAVE_SKIP3, "df670cb6b40d366933dabda07e1be428106554429beda9270fe57c8c81d9dd49"),
}


@pytest.mark.parametrize("name", sorted(DATASET_DIGESTS))
def test_generate_dataset_bytes(name):
    config, expected = DATASET_DIGESTS[name]
    assert _dataset_digest(config) == expected


@pytest.mark.parametrize("name", sorted(DATASET_DIGESTS))
def test_generate_trajectory_matches_dataset(name):
    config, _ = DATASET_DIGESTS[name]
    frames, _ = generate_dataset(config)
    last = config["trajectories"] - 1
    np.testing.assert_array_equal(generate_trajectory(config, last).frames, frames[last])


def _sgd_problem():
    rng = np.random.default_rng(21)
    histories = rng.standard_normal((90, 2, 5))
    true_w = rng.standard_normal((3, 10))
    targets = histories.reshape(90, -1) @ true_w.T + 0.1 * rng.standard_normal((90, 3))
    return histories, targets


SGD_CONFIG = TrainConfig(learning_rate=0.02, steps=120, batch_size=16, seed=4,
                         ridge=1e-3, lr_decay=0.999)
SGD_DIGESTS = {
    True: "9f9fffebe5dc13433968ce8fb284e7a074a4278fd466a552114e614098b01aab",
    False: "d9637bad80c2ec9cb37cfee94847acbe61da40714fbc8786924ae8f5fe36a387",
}


@pytest.mark.parametrize("bias", [True, False])
def test_fit_sgd_bytes(bias):
    histories, targets = _sgd_problem()
    fitted, curves = fit_sgd(histories, targets, SGD_CONFIG, eval_split=0.1, bias=bias)
    arrays = [fitted.weights] + ([fitted.bias] if bias else [])
    assert len(curves["eval"]) == len(curves["train"]) > 1
    assert _digest(arrays + [curves["train"], curves["eval"]]) == SGD_DIGESTS[bias]
