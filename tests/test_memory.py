"""The verbs that read a field dataset hold one trajectory at a time,
``generate`` holds no more than the states it steps, and a fit holds one
copy of its samples.

``tracemalloc`` sees numpy's array allocations, so the traced peak of one
verb, taken against the bytes of the dataset it reads or writes, shows
whether the verb held the whole dataset (a ratio of 1 or more) or
streamed it.  The peak of a least-squares call, taken against the bytes
of the Fortran-order design and target that LAPACK factors, shows
whether the call built its samples once, in that design, or also held
other copies of them (a ratio of 2 or more); the peak of an Adam fit is
taken against the bytes of its histories and targets in the same way.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from latentpde import cli, fit_blocks, load_manifest

from test_dataset_cli import TINY_HEAT, TINY_WAVE

# 40 trajectories of 40 frames on 16 x 16: 3.3 MB of float64
STREAM_HEAT = dict(TINY_HEAT, grid_size=16, trajectories=40, frames=40)
# 12 wave trajectories of 60 two-block frames on 16 x 16: 2.9 MB
STREAM_WAVE = dict(TINY_WAVE, grid_size=16, trajectories=12, frames=60)
# 41 trajectories of 64 frames on 16 x 16, whose super fit at patch 4 and
# k 2 holds 37 x 63 samples: a QR tree of two leaves of 33 columns
TREE_HEAT = dict(STREAM_HEAT, trajectories=41, frames=64)
PEAK_SHARE = 0.6
DESIGN_SHARE = 1.5

pytestmark = pytest.mark.filterwarnings("ignore:rank-deficient design:RuntimeWarning")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("stream")
    config, data = root / "cfg.json", root / "data"
    config.write_text(json.dumps(STREAM_HEAT))
    fit = ["fit", "--data", str(data), "--patch", "4", "--k", "2"]
    for argv in (["generate", "--config", str(config), "--out", str(data)],
                 [*fit, "--role", "g", "--out", str(root / "g.lpm")],
                 [*fit, "--role", "super", "--out", str(root / "s.lpm")],
                 ["rollout", "--data", str(data), "--model", str(root / "g.lpm"), "--super",
                  str(root / "s.lpm"), "--steps", "5", "--out-prefix", str(root / "clip")]):
        assert cli.main(argv) == 0, argv
    return root


@pytest.fixture(scope="module")
def tree_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree")
    config = root / "cfg.json"
    config.write_text(json.dumps(TREE_HEAT))
    assert cli.main(["generate", "--config", str(config), "--out", str(root / "data")]) == 0
    return root


VERBS = {
    "tokenize": ["tokenize", "--data", "{data}", "--patch", "4"],
    "fit-g": ["fit", "--data", "{data}", "--role", "g", "--patch", "4", "--k", "2"],
    "sweep": ["sweep", "--data", "{data}", "--patch", "4", "--k-list", "1,2"],
    "correlation": ["metrics", "correlation", "--data", "{data}", "--dt-max", "5"],
    "subvideo": ["metrics", "subvideo", "--data", "{data}", "--clip-prefix", "{clip}"],
}


def _traced_peak(argv):
    tracemalloc.start()
    try:
        code = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, argv
    return peak


@pytest.mark.parametrize("name", sorted(VERBS))
def test_verb_peak_is_a_share_of_the_dataset(name, workspace, capsys):
    data = workspace / "data"
    manifest = load_manifest(str(data))
    dataset_bytes = 8 * manifest.trajectories * manifest.frames * math.prod(manifest.frame_shape)
    argv = [a.format(data=data, clip=workspace / "clip") for a in VERBS[name]]
    peak = _traced_peak([*argv, "--out", str(workspace / f"{name}.out")])
    capsys.readouterr()
    assert peak < PEAK_SHARE * dataset_bytes, f"peak {peak / dataset_bytes:.2f}x the dataset"


# the flags of each call, its role, the largest k it fits and the
# fixture of its dataset
DESIGNS = {
    "fit-super-k2": (["fit", "--role", "super", "--k", "2"], "super", 2, "workspace"),
    "fit-super-k8": (["fit", "--role", "super", "--k", "8"], "super", 8, "workspace"),
    "fit-g-k8": (["fit", "--role", "g", "--k", "8"], "g", 8, "workspace"),
    "sweep": (["sweep", "--k-list", "2,8"], "g", 8, "workspace"),
    "fit-super-k2-tree": (["fit", "--role", "super", "--k", "2"], "super", 2, "tree_workspace"),
}


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_least_squares_peak_is_a_share_of_its_design(name, request, capsys):
    flags, role, k, fixture = DESIGNS[name]
    workspace = request.getfixturevalue(fixture)
    data = workspace / "data"
    manifest = load_manifest(str(data))
    tokens = math.prod(n // 4 for n in manifest.frame_shape)
    # fit trains on its default 0.9 of the trajectories, sweep on all but
    # its default 10 trials
    n_train = round(0.9 * manifest.trajectories) if flags[0] == "fit" else \
        manifest.trajectories - 10
    rows = n_train * (manifest.frames - k + (role == "super"))
    cols = k * tokens + 1
    outputs = math.prod(manifest.frame_shape) if role == "super" else tokens
    design_bytes = 8 * rows * (cols + outputs)
    peak = _traced_peak([*flags, "--data", str(data), "--patch", "4",
                         "--out", str(workspace / f"{name}.out")])
    capsys.readouterr()
    assert peak < DESIGN_SHARE * design_bytes, \
        f"peak {peak / design_bytes:.2f}x the design and target"


def test_a_fit_holds_a_few_leaves_however_many_samples():
    """``fit_blocks`` on 4,096 samples of 65 columns and on four times as
    many: QR trees of 4 and of 16 leaves of 1,024 rows.  A leaf fills
    only once the one before the leaf in the pool is folded into R and
    freed, so the traced peak at 16 leaves is within 1.2× of the peak at
    4; a fit that held every leaf until the stream ended would read 4×.
    The blocks are views made before the trace starts."""
    rng = np.random.default_rng(46)
    samples = 4096
    histories = rng.standard_normal((4 * samples, 4, 16))
    targets = rng.standard_normal((4 * samples, 16))
    peaks = []
    for count in (samples, 4 * samples):
        blocks = [(histories[i:i + 64], targets[i:i + 64]) for i in range(0, count, 64)]
        tracemalloc.start()
        try:
            fit_blocks(iter(blocks), count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] < 1.2 * peaks[0], \
        f"peak {peaks[1] / peaks[0]:.2f}x at four times the samples"


@pytest.mark.parametrize("config", [STREAM_HEAT, STREAM_WAVE], ids=["heat", "wave"])
def test_generate_peak_is_a_share_of_what_it_writes(config, tmp_path, capsys):
    path, out = tmp_path / "cfg.json", tmp_path / "data"
    path.write_text(json.dumps(config))
    peak = _traced_peak(["generate", "--config", str(path), "--out", str(out)])
    capsys.readouterr()
    written = sum(p.stat().st_size for p in out.glob("traj_*.bin"))
    assert peak < PEAK_SHARE * written, f"peak {peak / written:.2f}x the blobs"


def test_adam_peak_is_a_share_of_its_samples(workspace, capsys):
    """``fit --learner sgd`` at k = 8, the history length of the benchmark's
    Adam fit, and with field targets at k = 2.  The loss curve comes from
    per-split statistics, so no epoch forms a residual; what the fit holds
    beyond its samples is two (k·m)² Gram matrices, the Adam moments and
    the batch.  ``--role g --k 2`` is left out: the normalized copy of
    each trajectory and its tokens weigh as much as its small samples."""
    data = workspace / "data"
    manifest = load_manifest(str(data))
    tokens = math.prod(n // 4 for n in manifest.frame_shape)
    for role, k in (("g", 8), ("super", 2)):
        super_role = role == "super"
        rows = round(0.9 * manifest.trajectories) * (manifest.frames - k + super_role)
        outputs = math.prod(manifest.frame_shape) if super_role else tokens
        sample_bytes = 8 * rows * (k * tokens + outputs)
        peak = _traced_peak(["fit", "--data", str(data), "--role", role, "--patch", "4",
                             "--k", str(k), "--learner", "sgd", "--steps", "5",
                             "--out", str(workspace / "adam.out")])
        capsys.readouterr()
        assert peak < DESIGN_SHARE * sample_bytes, \
            f"{role} k {k}: peak {peak / sample_bytes:.2f}x the histories and targets"
