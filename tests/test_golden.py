"""Pinned output bytes of seeded generation, Adam training and CLI files.

Each library digest is a sha256 over the float64 little-endian bytes of
every array a call returns (plus the manifest without its timestamp); each
CLI digest is a sha256 of the file the verb writes.  A change that moves
any of these bytes changes seeded outputs and must be argued as a
behaviour change.
"""

import hashlib
import json

import numpy as np
import pytest

from latentpde import TrainConfig, cli, fit_sgd, generate_dataset, generate_trajectory, write_dataset

from test_dataset_cli import TINY_HEAT, TINY_KSE, TINY_WAVE

GRF_COND = {"sigma": 0.4, "m": 0.1, "nu": 1.0, "seed": 7, "scale": 0.2}
WAVE_SKIP3 = dict(TINY_WAVE, trajectories=3, frames=10, skip=3, conductivity=GRF_COND)
TINY_KSE2D = {
    "equation": "kse2d", "grid_size": 16, "domain_length": 16.0, "dt": 0.05,
    "trajectories": 2, "frames": 4, "skip": 2, "burn_in": 1,
    "init": {"sigma": 1.0, "m": 0.5, "nu": 2.0}, "init_seed": 3000, "patch": 4,
}


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
    "kse2d": (TINY_KSE2D, "748b0383cda1ed05e1497d9c1684812890b5129d7f2db3ce4aac6d20a55b8572"),
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


CLI_DIGESTS = {
    "hautus": (["observability", "--check", "hautus", "--grid", "8", "--patch", "2",
                "--grf-seed", "7"],
               "b53c7a4cd53276e39dec553ee48ab81c017600a46fde6272957981bae5e1719d"),
    "gramian": (["observability", "--check", "gramian", "--grid", "8", "--patch", "2",
                 "--horizon", "4"],
                "e2ef1c40ceebf00e0c3a9a9e0144a32c91538b6995dae6df8ab3f3232071f190"),
    "sweep": (["sweep", "--data", "{data}", "--patch", "4", "--k-list", "1,2,4",
               "--trials", "1"],
              "5596ee018ecfee29cc4e5049f39149efb0f18760a7908f03fc239fadf18d93e8"),
    "export": (["export", "--data", "{data}", "--traj-index", "1", "--frame", "5"],
               "52c804c2a6579e0b126bdfd561dd61482247a0d7d25693d099b09de907dd3f10"),
    "tokenize": (["tokenize", "--data", "{data}", "--patch", "4"],
                 "5308592114fa0f35a8aae1410f31712b2d6bf8836904434e2534a6d383963b1b"),
    "fit-g": (["fit", "--data", "{data}", "--role", "g", "--patch", "4", "--k", "2"],
              "d588855d1b56182ae5edf815c28bfbee9bc3a627ad3f7dca4f66826d3bc5dc37"),
    "fit-super": (["fit", "--data", "{data}", "--role", "super", "--patch", "4", "--k", "2"],
                  "a3e3d7d9a6c6e79d89b2ea5bd0cc3c40cf7672dd1edb3f3182345e1371276b4c"),
    "fit-sgd": (["fit", "--data", "{data}", "--role", "g", "--patch", "4", "--k", "2",
                 "--learner", "sgd", "--lr", "1e-2", "--steps", "40", "--batch", "8",
                 "--sgd-seed", "5"],
                "147755436f3de4b11c0143588617146929cd597d6db121d1db35d4e366001d3c"),
    "correlation": (["metrics", "correlation", "--data", "{data}", "--pixel", "1,2",
                     "--dt-max", "5"],
                    "0b9ed2b76f79675f496af0754eed85db59d6a62fd5009473983a16237c2541f0"),
    "subvideo": (["metrics", "subvideo", "--data", "{data}", "--clip-prefix", "{clip}"],
                 "db2e23a09ae2fc78964c13c0109ca5a10721ef8b47af813d45e6d5ff5f4ed636"),
}


def _output_digest(out):
    """sha256 of a written file and its loss curve, if it has one, or of a
    written dataset's blobs in order (its manifest carries a timestamp and
    an absolute path)."""
    curve = out.with_name(out.name + ".curve.csv")
    paths = (sorted(out.glob("traj_*.bin")) if out.is_dir()
             else [out] + ([curve] if curve.exists() else []))
    return hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_DIGESTS))
@pytest.mark.filterwarnings("ignore:rank-deficient design:RuntimeWarning")
def test_cli_output_bytes(name, tmp_path, capsys):
    argv, expected = CLI_DIGESTS[name]
    data, clip = tmp_path / "data", tmp_path / "clip"
    write_dataset(*generate_dataset(TINY_HEAT), str(data))
    if "{clip}" in argv:
        fit = ["fit", "--data", str(data), "--patch", "4", "--k", "2"]
        assert cli.main([*fit, "--role", "g", "--out", str(tmp_path / "g.lpm")]) == 0
        assert cli.main([*fit, "--role", "super", "--out", str(tmp_path / "s.lpm")]) == 0
        assert cli.main(["rollout", "--data", str(data), "--model", str(tmp_path / "g.lpm"),
                         "--super", str(tmp_path / "s.lpm"), "--traj-index", "2",
                         "--steps", "6", "--out-prefix", str(clip)]) == 0
    out = tmp_path / "out"
    assert cli.main([a.format(data=data, clip=clip) for a in argv] + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert _output_digest(out) == expected


# the generate verb writes its blobs as it steps, so its files are pinned
# apart from generate_dataset's arrays: blobs in order, then the manifest
# without its timestamp (the hash of DATASET_DIGESTS, so a config in both
# has one digest)
GENERATE_DIGESTS = {
    "heat": (TINY_HEAT, "4f1c85c2ac3d0bf9c65c26340f4d9e0cc6f06f0377cc1f5284307a3a3ed385d4"),
    "wave-skip3": (WAVE_SKIP3, "df670cb6b40d366933dabda07e1be428106554429beda9270fe57c8c81d9dd49"),
    "kse2d": (TINY_KSE2D, "748b0383cda1ed05e1497d9c1684812890b5129d7f2db3ce4aac6d20a55b8572"),
    "kse1d": (TINY_KSE, "276181ce16d5f7a0b4f14590a3f751b81a95d84a1bb2f815630872e6d82503ad"),
}


@pytest.mark.parametrize("name", sorted(GENERATE_DIGESTS))
def test_cli_generate_bytes(name, tmp_path, capsys):
    config, expected = GENERATE_DIGESTS[name]
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    assert cli.main(["generate", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    meta = json.loads((out / "manifest.json").read_text())
    meta.pop("created")
    blobs = b"".join(p.read_bytes() for p in sorted(out.glob("traj_*.bin")))
    assert sorted(p.name for p in out.iterdir()) == \
        ["manifest.json"] + [f"traj_{i:05d}.bin" for i in range(config["trajectories"])]
    assert hashlib.sha256(blobs + json.dumps(meta, sort_keys=True).encode()).hexdigest() \
        == expected


LIE_REPORT_DIGEST ="933700df5a461c2be7f0694c2a2bc4eeb6e2b9e2830d83bd40cfbf9a9523700d"
LIE_CSV_HEAD_DIGEST = "d54e72f06deade684a7ce76554cdf396007371f156196c9344323560c63cc700"


def test_cli_lie_bytes(tmp_path, capsys):
    """The lie report and the CSV's t, sign, log_abs_det and rolling
    columns; the singular-value columns are checked in
    test_cli_observability_lie."""
    config = tmp_path / "kse.json"
    config.write_text(json.dumps(TINY_KSE))
    data, out, csv_path = tmp_path / "kse", tmp_path / "lie.txt", tmp_path / "lie.csv"
    assert cli.main(["generate", "--config", str(config), "--out", str(data)]) == 0
    assert cli.main(["observability", "--check", "lie", "--data", str(data), "--out", str(out),
                     "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    head = b"\n".join(b",".join(line.split(b",")[:4])
                      for line in csv_path.read_bytes().splitlines())
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LIE_REPORT_DIGEST
    assert hashlib.sha256(head).hexdigest() == LIE_CSV_HEAD_DIGEST
