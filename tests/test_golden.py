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

from latentpde import TrainConfig, cli, fit_sgd, generate_dataset, write_dataset

from test_dataset_cli import TINY_HEAT, TINY_KSE, TINY_WAVE, run_module

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
    alone, _ = generate_dataset(dict(config, init_seed=config["init_seed"] + last,
                                     trajectories=1))
    np.testing.assert_array_equal(alone[0], frames[last])


def _sgd_problem():
    rng = np.random.default_rng(21)
    histories = rng.standard_normal((90, 2, 5))
    true_w = rng.standard_normal((3, 10))
    targets = histories.reshape(90, -1) @ true_w.T + 0.1 * rng.standard_normal((90, 3))
    return histories, targets


SGD_CONFIG = TrainConfig(learning_rate=0.02, steps=120, batch_size=16, seed=4,
                         ridge=1e-3, lr_decay=0.999)
# the weight and bias bytes; the loss curves, which come from split
# statistics rather than residuals, are pinned apart from them
SGD_DIGESTS = {
    True: "b9e1994bed9cb5a4ac17f89569897680fbe4b813cd6debec435e19026116e702",
    False: "9ca8d15217495295d4d37208ce076d1c9deb4534ad2d3b9d35a918557fcad5a2",
}
SGD_CURVE_DIGESTS = {
    True: "1eb07a98668b03863bd791b93a01e57f5a35b64cad8aed21c60d0eaef2df0801",
    False: "7d112ed444d5a35ce3e0b4190b336cec0ead068469e62e30ead422f305034840",
}


@pytest.mark.parametrize("bias", [True, False])
def test_fit_sgd_bytes(bias):
    histories, targets = _sgd_problem()
    fitted, curves = fit_sgd(histories, targets, SGD_CONFIG, eval_split=0.1, bias=bias)
    arrays = [fitted.weights] + ([fitted.bias] if bias else [])
    assert len(curves["eval"]) == len(curves["train"]) > 1
    assert _digest(arrays) == SGD_DIGESTS[bias]
    assert _digest([curves["train"], curves["eval"]]) == SGD_CURVE_DIGESTS[bias]


CLI_DIGESTS = {
    "hautus": (["observability", "--check", "hautus", "--grid", "8", "--patch", "2",
                "--grf-seed", "7"],
               "b53c7a4cd53276e39dec553ee48ab81c017600a46fde6272957981bae5e1719d"),
    "gramian": (["observability", "--check", "gramian", "--grid", "8", "--patch", "2",
                 "--horizon", "4"],
                "bc885c4e0530c716ea43cb71e7d2349659f2e84d98f7aa695a3b140cab3b0117"),
    "kalman-heat": (["observability", "--check", "kalman", "--grid", "8", "--patch", "2",
                     "--constant", "1.0"],
                    "bc366aa51bdc6330c75882120f14d75e4ee5d6dccfc002494eaa53be4c2cda85"),
    "kalman-wave": (["observability", "--check", "kalman", "--equation", "wave", "--grid", "8",
                     "--patch", "2", "--grf-seed", "7"],
                    "f4769fbdedb0480dd786b74708272c9b8adefaa19776f5bc2afebde7845b0b7e"),
    "hautus-wave": (["observability", "--check", "hautus", "--equation", "wave", "--grid", "8",
                     "--patch", "2", "--grf-seed", "7"],
                    "1e080dad370a528dc5b2df16d39ca95f09d946c76b2b815e14dc701d88487f3c"),
    # no wave gramian: at these sizes its condition number passes 1e16 and
    # the check refuses with exit code 5, writing no report
    "witness-heat": (["observability", "--check", "witness", "--grid", "8", "--patch", "2"],
                     "c1af606d121b9bacc704a4bf40e4e2c5086fc8ab1eefc423c8c41729e1ab9b83"),
    "witness-wave": (["observability", "--check", "witness", "--equation", "wave", "--grid", "8",
                      "--patch", "2"],
                     "d88c3cd88dcc780fbc4869f091f71a98113e03f43db653835b79b81c4f9c9ac0"),
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
                "d76e350581c154a60aece1a86f8f3f1aa1ad7c38eb37cec849c36173e0694547"),
    "correlation": (["metrics", "correlation", "--data", "{data}", "--pixel", "1,2",
                     "--dt-max", "5"],
                    "0b9ed2b76f79675f496af0754eed85db59d6a62fd5009473983a16237c2541f0"),
    "subvideo": (["metrics", "subvideo", "--data", "{data}", "--clip-prefix", "{clip}"],
                 "db2e23a09ae2fc78964c13c0109ca5a10721ef8b47af813d45e6d5ff5f4ed636"),
    # on wave data, whose fits and rollout read the amplitude block alone:
    # the rollout's fields, metadata, residues and tokens, in name order
    "rollout-wave": (["rollout", "--data", "{data}", "--model", "{g}", "--super", "{super}",
                      "--traj-index", "1", "--steps", "6"],
                     "eb6a164811922496e1f80b6b30ee8d9d6b866905738a6c1bfd5a9914dc5c0bd0",
                     TINY_WAVE),
}


# the loss curve an Adam fit writes next to its model
CURVE_DIGESTS = {
    "fit-sgd": "a39b6dfffd0aa0aff07cc3cb22b137e690820df34e6a8d9d8e0fc2aea080ca24",
}


def _output_digest(out):
    """sha256 of a written file, of a written dataset's blobs in order
    (its manifest carries a timestamp and an absolute path), or of the
    files a rollout wrote under the prefix ``out`` in name order."""
    paths = (sorted(out.glob("traj_*.bin")) if out.is_dir() else [out] if out.exists()
             else sorted(out.parent.glob(out.name + "_*")))
    return hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_DIGESTS))
@pytest.mark.filterwarnings("ignore:rank-deficient design:RuntimeWarning")
def test_cli_output_bytes(name, tmp_path, capsys):
    """Each row runs on the TINY_HEAT dataset unless it names another
    config.  ``{g}`` and ``{super}`` are the maps ``fit`` makes at patch 4
    and k 2, and ``{clip}`` a 6-step rollout of both."""
    argv, expected, *config = CLI_DIGESTS[name]
    data, clip = tmp_path / "data", tmp_path / "clip"
    write_dataset(*generate_dataset(*config or [TINY_HEAT]), str(data))
    models = {"g": str(tmp_path / "g.lpm"), "super": str(tmp_path / "s.lpm")}
    if "{clip}" in argv or "{g}" in argv:
        fit = ["fit", "--data", str(data), "--patch", "4", "--k", "2"]
        assert cli.main([*fit, "--role", "g", "--out", models["g"]]) == 0
        assert cli.main([*fit, "--role", "super", "--out", models["super"]]) == 0
    if "{clip}" in argv:
        assert cli.main(["rollout", "--data", str(data), "--model", models["g"],
                         "--super", models["super"], "--traj-index", "2",
                         "--steps", "6", "--out-prefix", str(clip)]) == 0
    out = tmp_path / "out"
    # a rollout writes its files under a prefix
    dest = "--out-prefix" if argv[0] == "rollout" else "--out"
    assert cli.main([a.format(data=data, clip=clip, **models) for a in argv]
                    + [dest, str(out)]) == 0
    capsys.readouterr()
    assert _output_digest(out) == expected
    curve = out.with_name(out.name + ".curve.csv")
    assert curve.exists() == (name in CURVE_DIGESTS)
    if curve.exists():
        assert hashlib.sha256(curve.read_bytes()).hexdigest() == CURVE_DIGESTS[name]


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
    assert sorted(p.name for p in out.iterdir()) == \
        ["manifest.json"] + [f"traj_{i:05d}.bin" for i in range(config["trajectories"])]
    assert _generated_digest(out) == expected


def _generated_digest(out):
    """sha256 of a written dataset's blobs in order, then its manifest
    without its timestamp."""
    meta = json.loads((out / "manifest.json").read_text())
    meta.pop("created")
    blobs = b"".join(p.read_bytes() for p in sorted(out.glob("traj_*.bin")))
    return hashlib.sha256(blobs + json.dumps(meta, sort_keys=True).encode()).hexdigest()


# the soft limit on open files the child sets for itself, below the
# trajectory count of its dataset
FILE_LIMIT = 64
OPEN_FILES_CHILD = """\
import resource, sys
from latentpde import cli
_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, ({limit}, hard))
sys.exit(cli.main(sys.argv[1:]))
"""


def test_cli_generate_writes_more_trajectories_than_open_files(tmp_path):
    """``generate`` holds one blob open at a time, so a process that may
    open 64 files writes a dataset of 100 trajectories with the bytes of
    ``generate_dataset``."""
    config = dict(TINY_HEAT, trajectories=100)
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    proc = run_module(["generate", "--config", str(path), "--out", str(out)],
                      code=OPEN_FILES_CHILD.format(limit=FILE_LIMIT), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(list(out.glob("traj_*.bin"))) == 100 > FILE_LIMIT
    assert _generated_digest(out) == _dataset_digest(config)


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
