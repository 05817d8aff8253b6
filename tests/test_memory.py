"""The verbs that read a field dataset hold one trajectory at a time.

``tracemalloc`` sees numpy's array allocations, so the traced peak of one
verb, taken against the bytes of the dataset it reads, shows whether the
verb held the whole dataset (a ratio of 1 or more) or streamed it.
``fit --role super`` keeps full-field targets for every training frame
by design and is not bounded here.
"""

import json
import math
import tracemalloc

import pytest

from latentpde import cli, load_manifest

from test_dataset_cli import TINY_HEAT

# 40 trajectories of 40 frames on 16 x 16: 3.3 MB of float64
STREAM_HEAT = dict(TINY_HEAT, grid_size=16, trajectories=40, frames=40)
PEAK_SHARE = 0.6

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


VERBS = {
    "tokenize": ["tokenize", "--data", "{data}", "--patch", "4"],
    "fit-g": ["fit", "--data", "{data}", "--role", "g", "--patch", "4", "--k", "2"],
    "sweep": ["sweep", "--data", "{data}", "--patch", "4", "--k-list", "1,2"],
    "correlation": ["metrics", "correlation", "--data", "{data}", "--dt-max", "5"],
    "subvideo": ["metrics", "subvideo", "--data", "{data}", "--clip-prefix", "{clip}"],
}


@pytest.mark.parametrize("name", sorted(VERBS))
def test_verb_peak_is_a_share_of_the_dataset(name, workspace, capsys):
    data = workspace / "data"
    manifest = load_manifest(str(data))
    dataset_bytes = 8 * manifest.trajectories * manifest.frames * math.prod(manifest.frame_shape)
    argv = [a.format(data=data, clip=workspace / "clip") for a in VERBS[name]]
    tracemalloc.start()
    try:
        code = cli.main([*argv, "--out", str(workspace / f"{name}.out")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < PEAK_SHARE * dataset_bytes, f"peak {peak / dataset_bytes:.2f}x the dataset"
