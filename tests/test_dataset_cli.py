import argparse
from collections import Counter
import contextlib
import csv
import dataclasses
import errno
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

import latentpde
from latentpde import (DataFormatError, DatasetManifest, DivergenceError, ParameterError,
                       apply_normalization, cli, compute_normalization, export_frame_image,
                       generate_dataset, load_all, load_manifest, load_trajectory, write_csv,
                       write_dataset)
from latentpde import dataset as dataset_module
from latentpde.lattice_ops import GRID_TABLE
from latentpde.random_fields import GRF_TABLE
from latentpde.solvers import TRAJECTORY_TABLE

TINY_HEAT = {
    "equation": "heat", "grid_size": 8, "dx": 1.0, "dt": 0.4,
    "trajectories": 3, "frames": 12, "skip": 1, "burn_in": 0,
    "init": {"sigma": 5.0, "m": 0.1, "nu": 1.0}, "init_seed": 500,
    "conductivity": {"sigma": 0.4, "m": 0.1, "nu": 1.0, "seed": 7, "scale": 0.2},
    "patch": 4,
}

TINY_WAVE = {
    "equation": "wave", "grid_size": 8, "dx": 1.0, "dt": 0.05,
    "trajectories": 2, "frames": 15, "skip": 1, "burn_in": 0,
    "init": {"sigma": 5.0, "m": 0.1, "nu": 1.0}, "init_seed": 900,
    "conductivity": {"constant": 0.2},
    "patch": 2,
}

TINY_KSE = {
    "equation": "kse1d", "sites": 40, "domain_length": 22.0, "dt": 0.05,
    "steps": 300, "trajectories": 1, "init": {"kind": "sine", "waves": 2},
    "init_seed": 0, "patch": 4,
}


def read_csv(path):
    """The header and string rows of a CSV the verbs write, past its '#' line."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    return rows[0], rows[1:]


def test_manifest_roundtrip():
    frames, manifest = generate_dataset(TINY_HEAT)
    again = DatasetManifest.from_json(manifest.to_json())
    assert again == manifest
    assert manifest.frame_shape == [8, 8]
    assert len(manifest.init_seeds) == 3
    assert manifest.init_seeds[1] == 501


def test_manifest_rejects_bad_input():
    with pytest.raises(DataFormatError):
        DatasetManifest.from_json("{not json")
    good = json.loads(generate_dataset(TINY_HEAT)[1].to_json())
    good["format_version"] = 99
    with pytest.raises(DataFormatError):
        DatasetManifest.from_json(json.dumps(good))
    good["format_version"] = 1
    good["surprise"] = True
    with pytest.raises(DataFormatError):
        DatasetManifest.from_json(json.dumps(good))


def test_write_load_roundtrip(tmp_path):
    frames, manifest = generate_dataset(TINY_HEAT)
    out = str(tmp_path / "ds")
    write_dataset(frames, manifest, out)
    back_manifest = load_manifest(out)
    assert back_manifest == manifest
    for i in range(3):
        np.testing.assert_array_equal(load_trajectory(out, back_manifest, i), frames[i])
    all_frames, _ = load_all(out)
    assert len(all_frames) == 3
    np.testing.assert_array_equal(all_frames[2], frames[2])


def test_wave_dataset_carries_velocity_block(tmp_path):
    frames, manifest = generate_dataset(TINY_WAVE)
    assert manifest.frame_shape == [2, 8, 8]
    assert frames[0].shape == (15, 2, 8, 8)
    # released from rest: zero initial velocity, nonzero thereafter
    assert np.all(frames[0][0, 1] == 0.0)
    assert np.abs(frames[0][1, 1]).max() > 0.0


def test_truncated_blob_rejected(tmp_path):
    frames, manifest = generate_dataset(TINY_HEAT)
    out = str(tmp_path / "ds")
    write_dataset(frames, manifest, out)
    blob = tmp_path / "ds" / "traj_00001.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(DataFormatError):
        load_trajectory(out, manifest, 1)


def test_generation_is_reproducible():
    first, _ = generate_dataset(TINY_HEAT)
    second, _ = generate_dataset(TINY_HEAT)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


def test_normalization_endpoints_and_inverse():
    frames = [np.linspace(-3.0, 5.0, 24).reshape(2, 3, 4)]
    stats = compute_normalization(frames)
    assert stats["lo"] == -3.0 and stats["hi"] == 5.0 and not stats["constant"]
    scaled = apply_normalization(frames[0], stats)
    assert scaled.min() == -1.0 and scaled.max() == 1.0
    # the affine map of [lo, hi] = [-3, 5] onto [-1, 1], undone by hand
    np.testing.assert_allclose((scaled + 1.0) * 4.0 - 3.0, frames[0], atol=1e-14)


def test_normalization_reads_any_iterable_once():
    frames, _ = generate_dataset(TINY_HEAT)
    assert compute_normalization(fr for fr in frames) == compute_normalization(frames)
    for empty in ([], iter(())):
        with pytest.raises(ParameterError):
            compute_normalization(empty)


def test_normalization_constant_input():
    frames = [np.full((2, 4, 4), 7.0)]
    stats = compute_normalization(frames)
    assert stats["constant"]
    scaled = apply_normalization(frames[0], stats)
    np.testing.assert_array_equal(scaled, 0.0)
    np.testing.assert_array_equal(scaled + 7.0, frames[0])


def test_export_gray_midpoint(tmp_path):
    path = tmp_path / "frame.pgm"
    export_frame_image(np.zeros((4, 4)), str(path))
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n4 4\n255\n")
    assert raw[len(b"P5\n4 4\n255\n"):] == bytes([128] * 16)


def test_export_diverging_endpoints(tmp_path):
    frame = np.array([[-1.0, 0.0, 1.0]])
    path = tmp_path / "frame.ppm"
    export_frame_image(frame, str(path), colormap="diverging")
    raw = path.read_bytes()
    header = b"P6\n3 1\n255\n"
    assert raw.startswith(header)
    pixels = raw[len(header):]
    assert pixels[0:3] == bytes([0, 0, 255])      # cold end is blue
    assert pixels[3:6] == bytes([255, 255, 255])  # midpoint is white
    assert pixels[6:9] == bytes([255, 0, 0])      # hot end is red


def test_export_validation(tmp_path):
    with pytest.raises(ParameterError):
        export_frame_image(np.zeros(4), str(tmp_path / "x.pgm"))


def test_csv_roundtrip(tmp_path):
    path = str(tmp_path / "table.csv")
    write_csv(path, ["k", "value"], [[1, 0.5], [2, 0.25]], comment="demo rows")
    header, rows = read_csv(path)
    assert header == ["k", "value"]
    assert rows == [["1", "0.5"], ["2", "0.25"]]
    assert "#" in open(path).read()


def run_cli(argv):
    code = cli.main(argv)
    assert code == 0, f"cli {argv} exited {code}"


def test_cli_generate_regenerate_bit_identical(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(TINY_HEAT))
    first = tmp_path / "first"
    second = tmp_path / "second"
    run_cli(["generate", "--config", str(config_path), "--out", str(first)])
    run_cli(["generate", "--from-manifest", str(first / "manifest.json"),
             "--out", str(second)])
    for i in range(TINY_HEAT["trajectories"]):
        a = (first / f"traj_{i:05d}.bin").read_bytes()
        b = (second / f"traj_{i:05d}.bin").read_bytes()
        assert a == b


@pytest.mark.filterwarnings("ignore:rank-deficient:RuntimeWarning")
def test_cli_end_to_end_pipeline(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config = dict(TINY_HEAT, trajectories=6, frames=30)
    config_path.write_text(json.dumps(config))
    data = tmp_path / "data"
    run_cli(["generate", "--config", str(config_path), "--out", str(data)])

    tokens = tmp_path / "tokens"
    run_cli(["tokenize", "--data", str(data), "--patch", "4", "--out", str(tokens)])
    token_manifest = load_manifest(str(tokens))
    assert token_manifest.kind == "tokens"
    assert token_manifest.frame_shape == [4]

    g_path = str(tmp_path / "g.lpm")
    run_cli(["fit", "--data", str(data), "--role", "g", "--patch", "4", "--k", "2",
             "--train-frac", "0.84", "--out", g_path])
    sup_path = str(tmp_path / "G.lpm")
    run_cli(["fit", "--data", str(data), "--role", "super", "--patch", "4", "--k", "2",
             "--train-frac", "0.84", "--out", sup_path])
    assert "on 5 trajectories" in capsys.readouterr().out
    g_map = latentpde.LinearMap.load(g_path)
    assert g_map.patch == 4
    assert g_map.normalization["hi"] > g_map.normalization["lo"]
    assert sorted(os.listdir(tmp_path)) == ["G.lpm", "cfg.json", "data", "g.lpm", "tokens"]

    prefix = str(tmp_path / "roll")
    run_cli(["rollout", "--data", str(data), "--model", g_path, "--super", sup_path,
             "--traj-index", "5", "--start", "0", "--steps", "8",
             "--out-prefix", prefix])
    meta = json.loads(open(prefix + "_meta.json").read())
    assert meta["fields_shape"] == [8, 8, 8]
    raw_tokens = np.fromfile(prefix + "_tokens.bin", dtype="<f8")
    assert raw_tokens.shape[0] == (2 + 8) * 4
    header, rows = read_csv(prefix + "_residues.csv")
    assert header[:2] == ["frame", "token_l1"]
    assert len(rows) == 8

    sweep_path = str(tmp_path / "sweep.csv")
    run_cli(["sweep", "--data", str(data), "--patch", "4", "--k-list", "1,2",
             "--trials", "2", "--out", sweep_path])
    header, rows = read_csv(sweep_path)
    assert [r[0] for r in rows] == ["1", "2"]

    corr_path = str(tmp_path / "corr.csv")
    run_cli(["metrics", "correlation", "--data", str(data), "--pixel", "1,1",
             "--dt-max", "5", "--out", corr_path])
    header, rows = read_csv(corr_path)
    assert header == ["lag", "rho_mean", "rho_std"]
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)

    sub_path = str(tmp_path / "sub.csv")
    run_cli(["metrics", "subvideo", "--data", str(data), "--clip-prefix", prefix,
             "--out", sub_path])
    header, rows = read_csv(sub_path)
    assert rows[-1][0] == "min"
    assert float(rows[-1][1]) >= 0.0

    image_path = str(tmp_path / "frame.pgm")
    run_cli(["export", "--data", str(data), "--traj-index", "0", "--frame", "3",
             "--out", image_path])
    assert open(image_path, "rb").read(2) == b"P5"
    capsys.readouterr()


@pytest.mark.filterwarnings("ignore:rank-deficient design:RuntimeWarning")
def test_cli_pipeline_on_a_line_dataset(tmp_path, capsys):
    """A kse1d dataset tokenizes, fits, rolls out and scores like a lattice."""
    (tmp_path / "kse.json").write_text(json.dumps(TINY_KSE))
    data, tokens = str(tmp_path / "kse"), str(tmp_path / "tokens")
    g_path, sup_path = str(tmp_path / "g.lpm"), str(tmp_path / "G.lpm")
    prefix = str(tmp_path / "roll")
    run_cli(["generate", "--config", str(tmp_path / "kse.json"), "--out", data])
    run_cli(["tokenize", "--data", data, "--patch", "4", "--out", tokens])
    assert load_manifest(tokens).frame_shape == [10]
    for role, out in (("g", g_path), ("super", sup_path)):
        run_cli(["fit", "--data", data, "--role", role, "--patch", "4", "--k", "4",
                 "--out", out])
    run_cli(["rollout", "--data", data, "--model", g_path, "--super", sup_path,
             "--steps", "20", "--out-prefix", prefix])
    assert json.loads(open(prefix + "_meta.json").read())["fields_shape"] == [20, 40]
    header, rows = read_csv(prefix + "_residues.csv")
    assert header[1:] == [f"{space}_{norm}" for space in ("token", "field")
                          for norm in ("l1", "l2", "linf")]
    assert len(rows) == 20 and np.isfinite(np.array(rows, dtype=float)).all()
    sub_path = str(tmp_path / "sub.csv")
    run_cli(["metrics", "subvideo", "--data", data, "--clip-prefix", prefix, "--out", sub_path])
    assert np.isfinite(float(read_csv(sub_path)[1][-1][1]))
    capsys.readouterr()


@pytest.mark.parametrize("config", [TINY_HEAT, TINY_KSE], ids=["heat", "kse1d"])
def test_fit_and_sweep_refuse_a_history_or_patch_the_frames_cannot_take(config, tmp_path,
                                                                        capsys):
    """A k or patch the dataset's frames cannot take exits 2 with one error
    line, and ``fit`` refuses it before it reads a blob: with a blob gone,
    the refusal still wins over the missing file."""
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    data = str(tmp_path / "data")
    run_cli(["generate", "--config", str(tmp_path / "cfg.json"), "--out", data])
    frames = load_manifest(data).frames
    fit = ["fit", "--data", data, "--patch", "4", "--out", str(tmp_path / "m.lpm")]
    cases = [[*fit, "--role", role, "--k", str(k)]
             for role, k in (("g", 0), ("super", 0), ("g", frames), ("super", frames + 1))]
    cases += [["fit", "--data", data, "--patch", "3", "--role", role, "--k", "2",
               "--out", str(tmp_path / "m.lpm")] for role in ("g", "super")]
    cases.append(["sweep", "--data", data, "--patch", "4", "--k-list", f"1,{frames}",
                  "--trials", "1", "--out", str(tmp_path / "s.csv")])
    capsys.readouterr()
    for argv in cases:
        assert cli.main(argv) == 2, argv
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    os.remove(os.path.join(data, "traj_00000.bin"))
    for argv in cases[:-1]:
        assert cli.main(argv) == 2, argv
    capsys.readouterr()
    assert not (tmp_path / "m.lpm").exists() and not (tmp_path / "s.csv").exists()


def test_cli_error_exit_codes(tmp_path, capsys):
    # a config comes from exactly one of two sources -> parameter error
    for sources in ([], ["--from-manifest", "manifest.json", "--config", "x.json"]):
        assert cli.main(["generate", *sources, "--out", str(tmp_path / "d")]) == 2, sources
    # an empty path names no readable file; it is not a missing source
    capsys.readouterr()
    for flag in ("--config", "--from-manifest"):
        assert cli.main(["generate", flag, "", "--out", str(tmp_path / "d")]) == 3, flag
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (flag, lines)
    # unreadable model file -> data format error
    bad = tmp_path / "bad.lpm"
    bad.write_bytes(b"nonsense")
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(TINY_HEAT))
    data = tmp_path / "data"
    run_cli(["generate", "--config", str(config_path), "--out", str(data)])
    assert cli.main(["rollout", "--data", str(data), "--model", str(bad),
                     "--out-prefix", str(tmp_path / "r")]) == 3
    # a flag the check needs is missing -> parameter error
    assert cli.main(["observability", "--check", "lie", "--out", str(tmp_path / "l")]) == 2
    assert cli.main(["metrics", "subvideo", "--data", str(data),
                     "--out", str(tmp_path / "s.csv")]) == 2
    assert cli.main(["observability", "--check", "gramian", "--grid", "8",
                     "--quadrature-steps", "0", "--out", str(tmp_path / "q")]) == 2
    # unreadable config file -> I/O error
    assert cli.main(["generate", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "g")]) == 3
    # a config without a key its equation reads -> parameter error
    for drop in ("trajectories", "init_seed"):
        config_path.write_text(json.dumps({k: v for k, v in TINY_HEAT.items() if k != drop}))
        assert cli.main(["generate", "--config", str(config_path),
                         "--out", str(tmp_path / "incomplete")]) == 2
    config_path.write_text(json.dumps(dict(TINY_WAVE, init={"sigma": 5.0})))
    assert cli.main(["generate", "--config", str(config_path),
                     "--out", str(tmp_path / "incomplete")]) == 2
    # a count given as a string -> parameter error, not a TypeError traceback
    config_path.write_text(json.dumps(dict(TINY_HEAT, trajectories="3")))
    assert cli.main(["generate", "--config", str(config_path),
                     "--out", str(tmp_path / "mistyped")]) == 2
    # kse1d ignores init_seed, so a second trajectory would repeat the first
    config_path.write_text(json.dumps({
        "equation": "kse1d", "sites": 16, "domain_length": 22.0, "dt": 0.05, "steps": 10,
        "trajectories": 2, "init_seed": 0, "init": {"kind": "sine", "waves": 2}}))
    assert cli.main(["generate", "--config", str(config_path),
                     "--out", str(tmp_path / "kse")]) == 2
    # a malformed list-valued flag -> parameter error, not a ValueError traceback
    for argv in (["metrics", "correlation", "--pixel", "1"],
                 ["metrics", "correlation", "--pixel", "100,100"],
                 ["sweep", "--patch", "2", "--k-list", "1,x"],
                 # removed: correlation always uses every trajectory
                 ["metrics", "correlation", "--trajectories", "a:b"]):
        assert cli.main([*argv, "--data", str(data), "--out", str(tmp_path / "list.csv")]) == 2
    # out-of-range values that once fell through to a traceback
    kse = tmp_path / "kse"
    (tmp_path / "kse.json").write_text(json.dumps(TINY_KSE))
    run_cli(["generate", "--config", str(tmp_path / "kse.json"), "--out", str(kse)])
    fit = ["fit", "--data", str(data), "--role", "g", "--patch", "4", "--k", "2"]
    for argv in (["export", "--data", str(data), "--traj-index", "3"],
                 ["export", "--data", str(data), "--frame", str(TINY_HEAT["frames"])],
                 ["sweep", "--data", str(data), "--patch", "4", "--k-list", "1", "--trials", "0"],
                 # each slice of the last lag holds one sample: once exit 5
                 ["metrics", "correlation", "--data", str(data),
                  "--dt-max", str(TINY_HEAT["frames"] - 1)],
                 [*fit, "--train-frac", "inf"],
                 [*fit, "--ridge", "inf"],
                 [*fit, "--ridge", "nan"],
                 [*fit, "--learner", "sgd", "--sgd-seed", "-1"],
                 [*fit, "--learner", "sgd", "--lr", "inf"],
                 ["observability", "--check", "hautus", "--grid", "4", "--constant", "inf"],
                 ["observability", "--check", "hautus", "--grid", "4", "--constant", "0"],
                 ["observability", "--check", "kalman", "--grid", "4", "--constant", "-1"],
                 ["observability", "--check", "hautus", "--grid", "4", "--grf-seed", "-1"],
                 ["observability", "--check", "hautus", "--grid", "4", "--tol", "nan"],
                 ["observability", "--check", "gramian", "--grid", "4", "--horizon", "nan"],
                 ["observability", "--check", "gramian", "--grid", "4", "--cond-limit", "nan"],
                 ["observability", "--check", "lie", "--data", str(kse), "--window", "0"],
                 ["observability", "--check", "lie", "--data", str(kse), "--rel-tol", "-1"]):
        assert cli.main([*argv, "--out", str(tmp_path / "range.out")]) == 2, argv
    # a Gramian refusal names the library function the check calls, not a helper of it
    capsys.readouterr()
    for flag, value in (("--horizon", "nan"), ("--quadrature-steps", "0"),
                        ("--cond-limit", "inf")):
        assert cli.main(["observability", "--check", "gramian", "--grid", "4", flag, value,
                         "--out", str(tmp_path / "range.out")]) == 2, flag
        argument = flag[2:].replace("-", "_")
        assert capsys.readouterr().err.startswith(
            f"error: gramian_reconstruction: {argument} must be "), flag
    # a config file that is not JSON text -> data format error
    for junk in (b"{not json", b"\x83\x00"):
        (tmp_path / "junk.json").write_bytes(junk)
        assert cli.main(["generate", "--config", str(tmp_path / "junk.json"),
                         "--out", str(tmp_path / "g")]) == 3
    # malformed program-written files -> data format error with one error line
    model, clip = str(tmp_path / "g.lpm"), str(tmp_path / "clip")
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "rank-deficient design", RuntimeWarning)
        for role, out in (("g", model), ("super", str(tmp_path / "s.lpm"))):
            run_cli(["fit", "--data", str(data), "--role", role, "--patch", "4", "--k", "2",
                     "--out", out])
        run_cli(["rollout", "--data", str(data), "--model", model, "--super",
                 str(tmp_path / "s.lpm"), "--steps", "3", "--out-prefix", clip])
        plain = str(tmp_path / "plain")
        run_cli(["rollout", "--data", str(data), "--model", model, "--steps", "3",
                 "--out-prefix", plain])
    capsys.readouterr()
    # a negative --start once wrapped round as a Python index (exit 0), or
    # ended in a shape mismatch that did not name it
    for start, steps in (("-5", "2"), ("-3", "5")):
        assert cli.main(["rollout", "--data", str(data), "--model", model, "--start", start,
                         "--steps", steps, "--out-prefix", str(tmp_path / "neg")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: --start {start} "), lines
    assert not (tmp_path / "neg_meta.json").exists()

    def data_format_error(argv):
        assert cli.main(argv) == 3, argv
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)

    # the log-det diagnostic on a lattice dataset: the data is wrong, not a flag
    assert cli.main(["observability", "--check", "lie", "--data", str(data),
                     "--out", str(tmp_path / "lie.txt")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "heat" in lines[0] and "(8, 8)" in lines[0], lines

    bad_model = tmp_path / "bad.lpm"
    rollout = ["rollout", "--data", str(data), "--model", str(bad_model), "--steps", "3",
               "--out-prefix", str(tmp_path / "r")]
    blob = open(model, "rb").read()
    cut = blob.index(b"\n\0")
    header = json.loads(blob[:cut])
    stats = {"lo": 0.0, "hi": 1.0, "constant": False}
    # bounds that compute_normalization never writes: once a divergence (exit 4) or exit 0
    no_data = ({"lo": 1, "hi": 1, "constant": False}, {"lo": 5, "hi": -5, "constant": False},
               {"lo": 0, "hi": 1, "constant": True})
    for bad_header in ([1, 2], dict(header, version=1),
                       dict(header, normalization={"lo": 0.0, "hi": 1.0}),
                       dict(header, normalization=[0, 1]), dict(header, patch="4"),
                       # once a divergence (exit 4) and a bad flag (exit 2)
                       dict(header, normalization=dict(stats, lo=float("nan"))),
                       dict(header, normalization=dict(stats, hi=float("inf"))),
                       dict(header, patch=3), dict(header, patch=0),
                       *(dict(header, normalization=n) for n in no_data),
                       # a map that a library call fitted and saved
                       dict(header, patch=None, normalization=None),
                       *({k: v for k, v in header.items() if k != drop}
                         for drop in ("out_dim", "has_bias", "patch", "normalization"))):
        bad_model.write_bytes(json.dumps(bad_header).encode() + blob[cut:])
        data_format_error(rollout)
    # a weight no fit saves: once a divergence (exit 4)
    bad_model.write_bytes(blob[:cut + 2] + np.array([NAN], "<f8").tobytes() + blob[cut + 10:])
    data_format_error(rollout)
    meta = json.loads(open(clip + "_meta.json").read())
    subvideo = ["metrics", "subvideo", "--data", str(data), "--clip-prefix",
                str(tmp_path / "badclip"), "--out", str(tmp_path / "s.csv")]
    fields = open(clip + "_fields.bin", "rb").read()
    for bad_meta, bad_fields in (([meta], fields),
                                 (dict(meta, fields_shape=[3, 8, 9]), fields),
                                 (dict(meta, fields_shape=["3", 8, 8]), fields),
                                 (meta, fields[:-8]),
                                 (dict(meta, normalization=[0, 1]), fields),
                                 (dict(meta, normalization=dict(stats, lo=float("nan"))),
                                  fields),
                                 # once compared in raw units, exit 0
                                 (dict(meta, normalization=None), fields),
                                 ({k: v for k, v in meta.items() if k != "normalization"},
                                  fields),
                                 *((dict(meta, normalization=n), fields) for n in no_data),
                                 # once a perfect score (exit 0) for an empty clip
                                 (dict(meta, fields_shape=[0, 8, 8]), b""),
                                 # longer than every trajectory: once a bad flag (exit 2)
                                 (dict(meta, fields_shape=[20, 8, 8]),
                                  np.zeros(20 * 64).tobytes()),
                                 # a value no rollout writes: once inf distances, exit 0
                                 (meta, np.array([NAN], "<f8").tobytes() + fields[8:])):
        (tmp_path / "badclip_meta.json").write_text(json.dumps(bad_meta))
        (tmp_path / "badclip_fields.bin").write_bytes(bad_fields)
        data_format_error(subvideo)
    # a clip without its fields file: once an [Errno 2] line
    (tmp_path / "badclip_meta.json").write_text(json.dumps(meta))
    (tmp_path / "badclip_fields.bin").unlink()
    assert cli.main(subvideo) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: {tmp_path / 'badclip_fields.bin'}: no such file"]
    # a clip rolled out without --super has no fields to compare
    data_format_error(["metrics", "subvideo", "--data", str(data), "--clip-prefix", plain,
                       "--out", str(tmp_path / "s.csv")])
    # a model or clip made for another frame shape: the file is wrong, not a flag
    kse_model, kse_super, kse_clip = (str(tmp_path / name)
                                      for name in ("kg.lpm", "ks.lpm", "kclip"))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "rank-deficient design", RuntimeWarning)
        for role, out in (("g", kse_model), ("super", kse_super)):
            run_cli(["fit", "--data", str(kse), "--role", role, "--patch", "4", "--k", "2",
                     "--out", out])
        run_cli(["rollout", "--data", str(kse), "--model", kse_model, "--super", kse_super,
                 "--steps", "3", "--out-prefix", kse_clip])
    capsys.readouterr()
    heat_files = (model, str(tmp_path / "s.lpm"), clip)
    kse_files = (kse_model, kse_super, kse_clip)
    for target, (own_g, _, _), (g_path, super_path, clip_path) in (
            (kse, kse_files, heat_files), (data, heat_files, kse_files)):
        rollout = ["rollout", "--data", str(target), "--steps", "3",
                   "--out-prefix", str(tmp_path / "r")]
        data_format_error([*rollout, "--model", g_path])
        data_format_error([*rollout, "--model", own_g, "--super", super_path])
        data_format_error(["metrics", "subvideo", "--data", str(target), "--clip-prefix",
                           clip_path, "--out", str(tmp_path / "s.csv")])
    # a line dataset has no image to export; refused from its manifest
    assert cli.main(["export", "--data", str(kse), "--out", str(tmp_path / "line.pgm")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "kse1d" in lines[0] and "(40,)" in lines[0], lines
    # a token dataset where a verb reads fields -> data format error naming the kind
    tokens = str(tmp_path / "tokens")
    run_cli(["tokenize", "--data", str(data), "--patch", "4", "--out", tokens])
    capsys.readouterr()
    for argv in (["fit", "--role", "g", "--patch", "2", "--k", "2"],
                 ["sweep", "--patch", "2", "--k-list", "1"],
                 ["tokenize", "--patch", "2"],
                 ["metrics", "correlation"],
                 ["export"],
                 ["rollout", "--model", model, "--steps", "3"]):
        out = ["--out-prefix" if argv[0] == "rollout" else "--out", str(tmp_path / "kind.out")]
        assert cli.main([*argv, "--data", tokens, *out]) == 3, argv
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "kind 'tokens'" in lines[0], (argv, lines)
    bad_data = tmp_path / "baddata"
    bad_data.mkdir()
    manifest = json.loads((data / "manifest.json").read_text())
    # 0-byte blobs, which a frame of zero extent passes the size check with
    for i in range(manifest["trajectories"]):
        (bad_data / f"traj_{i:05d}.bin").write_bytes(b"")
    for bad_manifest in ([1], dict(manifest, frames="30"), dict(manifest, frame_shape=8),
                         dict(manifest, config=[1]),
                         # once an IndexError traceback from tokenize
                         dict(manifest, trajectories=0), dict(manifest, frames=0),
                         # once a TypeError or ValueError traceback (exit 1)
                         *(dict(manifest, frame_shape=s) for s in ([0, 0], [8, 0], [2, 0, 0])),
                         # once refused by fit as a bad flag (exit 2)
                         *(dict(manifest, frame_shape=s) for s in ([], [3, 8, 8], [8, 8, 8, 8])),
                         dict(manifest, kind="tokens"),
                         # once a traceback (exit 1), exit 0 or a bad flag (exit 2)
                         *(dict(manifest, dt=dt) for dt in (NAN, float("inf"), 0, -0.1))):
        (bad_data / "manifest.json").write_text(json.dumps(bad_manifest))
        data_format_error(["tokenize", "--data", str(bad_data), "--patch", "4",
                           "--out", str(tmp_path / "t")])
        data_format_error(["fit", "--data", str(bad_data), "--role", "g", "--patch", "4",
                           "--k", "2", "--out", str(tmp_path / "m.lpm")])
        data_format_error(["generate", "--from-manifest", str(bad_data / "manifest.json"),
                           "--out", str(tmp_path / "regen")])
    # a blob value no generate writes: once exit 0 with NaN tokens or a
    # garbled image, a bad flag (exit 2) or a divergence (exit 4)
    nan_data = tmp_path / "nandata"
    shutil.copytree(data, nan_data)
    blob0 = nan_data / "traj_00000.bin"
    blob0.write_bytes(np.array([NAN], "<f8").tobytes() + blob0.read_bytes()[8:])
    fit = ["fit", "--data", str(nan_data), "--role", "g", "--patch", "4", "--k", "2"]
    for argv in (["tokenize", "--data", str(nan_data), "--patch", "4",
                  "--out", str(tmp_path / "nantok")],
                 [*fit, "--out", str(tmp_path / "nan.lpm")],
                 [*fit, "--learner", "sgd", "--steps", "3", "--out", str(tmp_path / "nan.lpm")],
                 ["export", "--data", str(nan_data), "--out", str(tmp_path / "nan.pgm")],
                 ["metrics", "correlation", "--data", str(nan_data), "--dt-max", "3",
                  "--out", str(tmp_path / "nan.csv")],
                 ["rollout", "--data", str(nan_data), "--model", model, "--steps", "3",
                  "--out-prefix", str(tmp_path / "nanroll")]):
        data_format_error(argv)
    os.remove(data / "traj_00001.bin")
    data_format_error(["export", "--data", str(data), "--traj-index", "1",
                       "--out", str(tmp_path / "gone.pgm")])


@pytest.mark.filterwarnings("ignore:rank-deficient design:RuntimeWarning")
def test_cli_rollout_refuses_a_super_map_of_another_normalization(tmp_path, capsys):
    """g and G fitted on different training splits normalize the fields
    differently, so G's fields would not be in g's units."""
    (tmp_path / "cfg.json").write_text(json.dumps(dict(TINY_HEAT, trajectories=8, frames=24)))
    data, g_path, sup_path = (str(tmp_path / name) for name in ("data", "g.lpm", "G.lpm"))
    run_cli(["generate", "--config", str(tmp_path / "cfg.json"), "--out", data])
    fit = ["fit", "--data", data, "--patch", "4", "--k", "2"]
    run_cli([*fit, "--role", "g", "--train-frac", "0.75", "--out", g_path])
    run_cli([*fit, "--role", "super", "--train-frac", "0.25", "--out", sup_path])
    assert (latentpde.LinearMap.load(g_path).normalization
            != latentpde.LinearMap.load(sup_path).normalization)
    capsys.readouterr()
    prefix = str(tmp_path / "roll")
    assert cli.main(["rollout", "--data", data, "--model", g_path, "--super", sup_path,
                     "--steps", "3", "--out-prefix", prefix]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not os.path.exists(prefix + "_meta.json")


def test_cli_sgd_curve_has_no_eval_loss_without_an_eval_split(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(json.dumps(TINY_HEAT))
    data = str(tmp_path / "data")
    run_cli(["generate", "--config", str(tmp_path / "cfg.json"), "--out", data])
    fit = ["fit", "--data", data, "--role", "g", "--patch", "4", "--k", "2",
           "--learner", "sgd", "--steps", "30"]
    for split, out in ((["--eval-split", "0"], "none.lpm"), ([], "default.lpm")):
        run_cli([*fit, *split, "--out", str(tmp_path / out)])
    capsys.readouterr()
    curves = {out: np.array([[float(v) for v in row[1:]]
                             for row in read_csv(str(tmp_path / out) + ".curve.csv")[1]])
              for out in ("none.lpm", "default.lpm")}
    assert np.isfinite(curves["none.lpm"][:, 0]).all()
    assert np.isnan(curves["none.lpm"][:, 1]).all()
    assert np.isfinite(curves["default.lpm"]).all()
    assert len(curves["default.lpm"]) > 1


def run_module(argv, code=None, **kwargs):
    """``python -m latentpde.cli`` in a subprocess that imports this package,
    or ``python -c code`` with the same arguments."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(latentpde.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    entry = ["-m", "latentpde.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *entry, *argv],
                          capture_output=True, text=True, env=env, **kwargs)


def test_module_entry_point_stderr_is_only_the_error_line(tmp_path):
    missing, out = str(tmp_path / "missing"), str(tmp_path / "out")
    cases = [
        (["export", "--data", missing, "--out", out], 3),
        # argument errors: a missing required flag and flags the verb lacks
        (["export", "--data", missing], 2),
        (["sweep", "--data", missing, "--patch", "4", "--k-list", "1", "--learner", "sgd",
          "--out", out], 2),
        (["observability", "--check", "hautus", "--eig-budget", "5", "--out", out], 2),
        (["metrics", "correlation", "--data", missing, "--trajectories", "a:b",
          "--out", out], 2),
        # malformed list-valued flags
        (["metrics", "correlation", "--data", missing, "--pixel", "1", "--out", out], 2),
        (["sweep", "--data", missing, "--patch", "4", "--k-list", "1,x", "--out", out], 2),
    ]
    for argv, code in cases:
        proc = run_module(argv, cwd=tmp_path)
        assert proc.returncode == code, argv
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: ")


# dt * 8 * conductivity = 16 >> 2; at this seed trajectory 2 is the first
# to leave the finite range, one Euler step before trajectories 0 and 1
UNSTABLE_HEAT = dict(TINY_HEAT, dt=2.0, frames=400, trajectories=4, init_seed=510,
                     conductivity={"constant": 1.0})


@pytest.mark.filterwarnings("ignore:forward Euler may be unstable:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_batched_divergence_names_step_and_trajectory(tmp_path):
    with pytest.raises(DivergenceError) as err:
        generate_dataset(UNSTABLE_HEAT)
    step, bad = err.value.step, err.value.trajectory
    assert 0 < bad < UNSTABLE_HEAT["trajectories"]
    assert f"by step {step} in trajectory {bad} " in str(err.value)
    # alone, the named trajectory diverges at that step and none before it
    # diverges any earlier
    for index in range(bad + 1):
        with pytest.raises(DivergenceError) as alone:
            generate_dataset(dict(UNSTABLE_HEAT, init_seed=UNSTABLE_HEAT["init_seed"] + index,
                                  trajectories=1))
        assert alone.value.step == step if index == bad else alone.value.step > step

    config_path = tmp_path / "unstable.json"
    config_path.write_text(json.dumps(UNSTABLE_HEAT))
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(latentpde.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    # generate writes frames before it sees the divergence: it removes
    # them, and keeps a dataset already in --out byte for byte
    old = tmp_path / "old"
    write_dataset(*generate_dataset(TINY_HEAT), str(old))
    for out, kept in ((tmp_path / "d", {}), (old, _files(old))):
        proc = subprocess.run([sys.executable, "-m", "latentpde.cli", "generate", "--config",
                               str(config_path), "--out", str(out)],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 4
        assert proc.stderr.splitlines() == [f"error: {err.value}"]
        assert _files(out) == kept


def _files(directory):
    """Name and bytes of every file in ``directory``; none if it is absent."""
    return ({p.name: p.read_bytes() for p in directory.iterdir()} if directory.exists()
            else {})


def test_generate_write_failure_leaves_out_as_it_was(tmp_path, monkeypatch, capsys):
    old = tmp_path / "old"
    write_dataset(*generate_dataset(TINY_HEAT), str(old))
    config_path = tmp_path / "heat.json"
    config_path.write_text(json.dumps(TINY_HEAT))
    opened = []
    os_open = os.open

    def open_two(path, *args, **kwargs):
        # the third temp blob cannot be opened, as with too many open files
        if ".tmp." in os.fspath(path):
            opened.append(path)
            if len(opened) > 2:
                raise OSError(errno.EMFILE, "Too many open files", path)
        return os_open(path, *args, **kwargs)

    monkeypatch.setattr(dataset_module.os, "open", open_two)
    for out, kept in ((tmp_path / "d", {}), (old, _files(old))):
        opened.clear()
        assert cli.main(["generate", "--config", str(config_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: [Errno 24] Too many open files")
        assert len(opened) == 3
        assert _files(out) == kept


KSE2D = {
    "equation": "kse2d", "grid_size": 8, "domain_length": 16.0, "dt": 0.05,
    "trajectories": 1, "frames": 2, "init": {"sigma": 1.0, "m": 0.5, "nu": 2.0},
    "init_seed": 3000,
}
NAN = float("nan")
# each once escaped from generate as a Python exception (exit 1), wrote a
# dataset (exit 0) or was reported as a divergence (exit 4)
MALFORMED_CONFIGS = {
    "init-number": dict(TINY_HEAT, init=5),
    "init-string": dict(TINY_HEAT, init="sigma m nu"),
    "init-sigma-string": dict(TINY_HEAT, init=dict(TINY_HEAT["init"], sigma="x")),
    "conductivity-number": dict(TINY_HEAT, conductivity=7),
    "conductivity-constant-string": dict(TINY_HEAT, conductivity={"constant": "a"}),
    "conductivity-seed-real": dict(TINY_HEAT, conductivity=dict(TINY_HEAT["conductivity"],
                                                                seed=2.5)),
    "kse1d-waves-string": dict(TINY_KSE, init=dict(TINY_KSE["init"], waves="3")),
    "kse1d-domain-length-0": dict(TINY_KSE, domain_length=0),
    "kse2d-domain-length-0": dict(KSE2D, domain_length=0),
    "heat-dt-0": dict(TINY_HEAT, dt=0),
    "heat-dt-negative": dict(TINY_HEAT, dt=-0.1),
    "heat-burn-in-5": dict(TINY_HEAT, burn_in=5),
    "heat-dt-nan": dict(TINY_HEAT, dt=NAN),
    "heat-dx-nan": dict(TINY_HEAT, dx=NAN),
    "heat-init-sigma-nan": dict(TINY_HEAT, init=dict(TINY_HEAT["init"], sigma=NAN)),
    "kse1d-sites-0": dict(TINY_KSE, sites=0),
    "kse1d-dt-nan": dict(TINY_KSE, dt=NAN),
    "kse1d-domain-length-nan": dict(TINY_KSE, domain_length=NAN),
    # an integer too large for a float: once an OverflowError (exit 1)
    "heat-dt-past-float-range": dict(TINY_HEAT, dt=10**400),
    "no-equation": {k: v for k, v in TINY_HEAT.items() if k != "equation"},
    "equation-burgers": dict(TINY_HEAT, equation="burgers"),
}


@pytest.mark.parametrize("source", ["--config", "--from-manifest"])
@pytest.mark.parametrize("name", sorted(MALFORMED_CONFIGS))
def test_generate_refuses_a_malformed_nested_config(name, source, tmp_path, capsys):
    config = MALFORMED_CONFIGS[name]
    path = tmp_path / "source.json"
    if source == "--config":
        path.write_text(json.dumps(config))
    else:
        manifest = json.loads(generate_dataset(TINY_HEAT)[1].to_json())
        path.write_text(json.dumps(dict(manifest, config=config)))
    out = tmp_path / "out"
    assert cli.main(["generate", source, str(path), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not out.exists()


def test_generate_exits_0_2_or_4_for_any_value_of_any_config_key(tmp_path, capsys):
    """Every key the config tables name, nested ones included, set to each
    of a few values that a hand-written config may hold by mistake."""
    runs = 0
    for config in (TINY_HEAT, TINY_WAVE, TINY_KSE, KSE2D):
        table = dataset_module._CONFIG_TABLES[config["equation"]]
        paths = [(key,) for key in table]
        paths += [(key, sub) for key, row in table.items() if isinstance(row.kind, dict)
                  for sub in row.kind]
        for path in paths:
            for value in (0, -1, NAN, float("inf"), True, None, "x"):
                changed = json.loads(json.dumps(config))
                entry = changed
                for key in path[:-1]:
                    entry = entry[key]
                entry[path[-1]] = value
                source, out = tmp_path / "config.json", tmp_path / f"out{runs}"
                source.write_text(json.dumps(changed))
                runs += 1
                code = cli.main(["generate", "--config", str(source), "--out", str(out)])
                case = (config["equation"], path, value)
                assert code in (0, 2, 4), case
                err = capsys.readouterr().err.splitlines()
                if code:
                    assert len(err) == 1 and err[0].startswith("error: "), (case, err)
                    assert not out.exists(), case
    assert runs > 300


# a valid set of fields for each parameter object
VALID_FIELDS = {
    latentpde.GrfParams: dict(grid_size=8, sigma=1.0, m=0.1, nu=1.0, seed=0),
    latentpde.GridSpec: dict(n=4),
    latentpde.TrainConfig: {},
    latentpde.Trajectory: dict(frames=np.ones((2, 4, 4)), dt=0.1),
}


@pytest.mark.parametrize("cls", sorted(VALID_FIELDS, key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_parameter_objects_refuse_a_bad_value_of_any_field_with_a_parameter_error(cls):
    """Each field set to each value of the config fuzz above: the object is
    built or refused with a ParameterError that names it, and a NaN or an
    infinity is always refused."""
    for name in (field.name for field in dataclasses.fields(cls)):
        for value in (0, -1, NAN, float("inf"), True, None, "x"):
            case = (cls.__name__, name, value)
            try:
                cls(**dict(VALID_FIELDS[cls], **{name: value}))
            except ParameterError as err:
                assert str(err).startswith(f"{cls.__name__}: {name} must be "), (case, err)
            else:
                assert value is not NAN and value != float("inf"), case


def test_config_and_manifest_rows_are_the_parameter_objects_rows():
    """A config or manifest key that names a field of a parameter object
    checks it with that object's own row, so the two cannot drift apart."""
    heat, kse2d = (dataset_module._CONFIG_TABLES[equation] for equation in ("heat", "kse2d"))
    assert GRF_TABLE["grid_size"] is GRID_TABLE["n"]
    for table in (heat, kse2d):
        assert table["grid_size"] is GRID_TABLE["n"]
        assert table["init_seed"] is GRF_TABLE["seed"]
        assert table["skip"] is TRAJECTORY_TABLE["skip"]
        for key in ("sigma", "m", "nu"):
            assert table["init"].kind[key] is GRF_TABLE[key]
    assert heat["dx"] is GRID_TABLE["dx"]
    assert kse2d["burn_in"] is TRAJECTORY_TABLE["burn_in"]
    assert dataset_module._MANIFEST_TABLE["dt"] is TRAJECTORY_TABLE["dt"]
    # a conductivity's GRF rows differ from the object's only in that a constant lets
    # them be left out
    for key in ("sigma", "m", "nu", "seed"):
        assert heat["conductivity"].kind[key] == GRF_TABLE[key]._replace(omit="constant")


def _table_paths(table, prefix=()):
    """Each key path a table names, those of its nested tables included."""
    for key, row in table.items():
        kind = row.kind[0] if isinstance(row.kind, tuple) else row.kind
        yield prefix + (key,)
        if isinstance(kind, dict):
            yield from _table_paths(kind, prefix + (key,))


@pytest.mark.filterwarnings("ignore:rank-deficient design:RuntimeWarning")
def test_verbs_exit_0_or_3_for_any_value_of_any_file_key(tmp_path, capsys):
    """Every key the manifest, model header and clip tables name, set to each
    of a few values a damaged file may hold, given to a verb that reads it."""
    for name, config in (("heat", TINY_HEAT), ("kse", TINY_KSE)):
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
        run_cli(["generate", "--config", str(tmp_path / f"{name}.json"),
                 "--out", str(tmp_path / name)])
    heat, model, clip = (str(tmp_path / name) for name in ("heat", "g.lpm", "clip"))
    for role, out in (("g", model), ("super", str(tmp_path / "s.lpm"))):
        run_cli(["fit", "--data", heat, "--role", role, "--patch", "4", "--k", "2", "--out", out])
    run_cli(["rollout", "--data", heat, "--model", model, "--super", str(tmp_path / "s.lpm"),
             "--steps", "3", "--out-prefix", clip])
    bad_kse, bad_model, bad_clip = (tmp_path / name for name in ("bad_kse", "bad.lpm", "bad"))
    bad_kse.mkdir()
    (bad_kse / "traj_00000.bin").write_bytes((tmp_path / "kse" / "traj_00000.bin").read_bytes())
    (tmp_path / "bad_fields.bin").write_bytes(open(clip + "_fields.bin", "rb").read())
    blob = open(model, "rb").read()
    cut = blob.index(b"\n\0")
    files = {
        # file table, its entries, how to write them, and a verb that reads them
        "manifest": (dataset_module._MANIFEST_TABLE,
                     json.loads((tmp_path / "kse" / "manifest.json").read_text()),
                     lambda text: (bad_kse / "manifest.json").write_text(text),
                     ["observability", "--check", "lie", "--data", str(bad_kse), "--patch", "4",
                      "--derivative-order", "2", "--window", "10"]),
        "header": (latentpde.learners._HEADER_TABLE, json.loads(blob[:cut]),
                   lambda text: bad_model.write_bytes(text.encode() + blob[cut:]),
                   ["rollout", "--data", heat, "--model", str(bad_model), "--steps", "3"]),
        "clip": (cli._CLIP_TABLE, json.loads(open(clip + "_meta.json").read()),
                 lambda text: (tmp_path / "bad_meta.json").write_text(text),
                 ["metrics", "subvideo", "--data", heat, "--clip-prefix", str(bad_clip)]),
    }
    capsys.readouterr()
    runs = 0
    for file, (table, entries, write, verb) in files.items():
        for path in _table_paths(table):
            for value in (0, -1, NAN, float("inf"), True, None, "x"):
                changed = json.loads(json.dumps(entries))
                entry = changed
                for key in path[:-1]:
                    entry = entry[key]
                entry[path[-1]] = value
                write(json.dumps(changed))
                out = "--out-prefix" if verb[0] == "rollout" else "--out"
                code = cli.main([*verb, out, str(tmp_path / f"out{runs}")])
                runs += 1
                case = (file, path, value)
                assert code in (0, 3), case
                err = capsys.readouterr().err.splitlines()
                if code:
                    assert len(err) == 1 and err[0].startswith("error: "), (case, err)
    assert runs > 150


def test_readme_session_configs_pass_the_config_check():
    """Each config the README's CLI session writes with a here-document is
    one the config check takes, so a stricter table cannot silently break
    the documented session."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        configs = re.findall(r"cat > \S+\.json <<'EOF'\n(.*?)\nEOF\n", fh.read(), re.S)
    assert len(configs) >= 2
    for text in configs:
        dataset_module._check_config(json.loads(text))


def test_tokenize_refuses_to_write_over_its_own_dataset(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(TINY_HEAT))
    data = tmp_path / "data"
    run_cli(["generate", "--config", str(config_path), "--out", str(data)])
    before = {name: (data / name).read_bytes() for name in os.listdir(data)}
    capsys.readouterr()
    for out in (data, tmp_path / "data" / ".." / "data"):
        assert cli.main(["tokenize", "--data", str(data), "--patch", "4",
                         "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert {name: (data / name).read_bytes() for name in os.listdir(data)} == before


def _generate_cli(config, out):
    path = os.path.join(os.path.dirname(out), "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    assert cli.main(["generate", "--config", path, "--out", out]) == 0


@pytest.mark.parametrize("write", [
    lambda out: _generate_cli(TINY_HEAT, out),
    lambda out: _generate_cli(TINY_KSE, out),
    lambda out: write_dataset(*generate_dataset(TINY_WAVE), out),
], ids=["generate-heat", "generate-kse1d", "write_dataset"])
def test_every_blob_is_synced_before_any_rename_and_the_manifest_lands_last(
        write, tmp_path, monkeypatch, capsys):
    """A rename keeps its file's inode, so each synced inode is matched
    with the name it ends up under."""
    events = []
    fsync, replace = os.fsync, os.replace

    def recorded_fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def recorded_replace(src, dst):
        events.append(("replace", os.path.basename(dst)))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recorded_fsync)
    monkeypatch.setattr(os, "replace", recorded_replace)
    out = tmp_path / "out"
    write(str(out))
    capsys.readouterr()
    renamed = [name for kind, name in events if kind == "replace"]
    blobs = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert renamed == blobs + ["manifest.json"]
    assert events[-1] == ("replace", "manifest.json")
    first_rename = events.index(("replace", blobs[0]))
    synced = {ino for kind, ino in events[:first_rename] if kind == "fsync"}
    assert {(out / name).stat().st_ino for name in blobs} <= synced
    assert events[-2] == ("fsync", (out / "manifest.json").stat().st_ino)


def test_generation_builds_conductivity_and_operator_once(monkeypatch):
    calls = Counter()

    def counted(name):
        original = getattr(dataset_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(dataset_module, name, wrapper)

    for name in ("build_conductivity", "build_modified_laplacian", "build_wave_generator"):
        counted(name)
    grf = {"sigma": 0.4, "m": 0.1, "nu": 1.0, "seed": 7, "scale": 0.2}
    generate_dataset(TINY_HEAT)
    assert calls == {"build_conductivity": 1, "build_modified_laplacian": 1}
    calls.clear()
    generate_dataset(dict(TINY_WAVE, trajectories=3, skip=3, conductivity=grf))
    assert calls == {"build_conductivity": 1, "build_wave_generator": 1}


def parse_report(text):
    return dict(line.split(" = ", 1) for line in text.splitlines())


def test_cli_observability_gramian(tmp_path, capsys):
    out = tmp_path / "gramian.txt"
    run_cli(["observability", "--check", "gramian", "--grid", "8", "--patch", "2",
             "--horizon", "4", "--out", str(out)])
    report = parse_report(out.read_text())
    assert set(report) == {"method", "grid", "patch", "horizon", "quadrature_steps",
                           "gramian_condition", "relative_reconstruction_error",
                           "rounding_bound"}
    assert float(report["relative_reconstruction_error"]) < 1e-6
    # patch 4 at horizon 1 leaves the Gramian numerically singular
    assert cli.main(["observability", "--check", "gramian", "--grid", "8",
                     "--out", str(tmp_path / "refused.txt")]) == 5
    # the wave generator: patch 1 reconstructs, patch 2 leaves the Gramian singular
    wave = ["observability", "--check", "gramian", "--equation", "wave", "--grid", "8",
            "--horizon", "4", "--out", str(out)]
    run_cli([*wave, "--patch", "1"])
    assert float(parse_report(out.read_text())["relative_reconstruction_error"]) < 1e-12
    assert cli.main([*wave, "--patch", "2"]) == 5
    capsys.readouterr()


def test_cli_observability_lie(tmp_path, capsys):
    config_path = tmp_path / "kse.json"
    config_path.write_text(json.dumps(TINY_KSE))
    data = tmp_path / "kse"
    run_cli(["generate", "--config", str(config_path), "--out", str(data)])
    out = tmp_path / "lie.txt"
    csv_path = tmp_path / "lie.csv"
    run_cli(["observability", "--check", "lie", "--data", str(data), "--out", str(out),
             "--csv", str(csv_path)])
    report = parse_report(out.read_text())
    assert set(report) == {"method", "matrix_dim", "derivative_order", "window", "examined",
                           "finite_fraction", "full_rank_fraction", "median_log_abs_det"}
    assert report["finite_fraction"] == "1.000000"
    header, rows = read_csv(str(csv_path))
    assert header == ["t", "sign", "log_abs_det", "rolling", "min_sv", "max_sv"]
    first = int(0.5 * len(rows))  # default burn-in
    assert len(rows) - first == int(report["examined"])
    sv = np.array([row[4:] for row in rows], dtype=float)
    assert np.all(np.isnan(sv[:first])) and np.all(np.isfinite(sv[first:]))
    # with no burn-in every row carries the library's singular values
    run_cli(["observability", "--check", "lie", "--data", str(data), "--burn-frac", "0",
             "--out", str(out), "--csv", str(csv_path)])
    frames, manifest = load_all(str(data))
    series = latentpde.empirical_lie_logdet(latentpde.Trajectory(frames[0], dt=manifest.dt),
                                            patch=4, with_singular_values=True)
    sv = np.array([row[4:] for row in read_csv(str(csv_path))[1]], dtype=float)
    np.testing.assert_array_equal(sv, np.column_stack([series.min_sv, series.max_sv]))
    # a burn-in that leaves no window to summarize is a parameter error
    assert cli.main(["observability", "--check", "lie", "--data", str(data), "--burn-frac", "1",
                     "--out", str(tmp_path / "none.txt")]) == 2
    capsys.readouterr()


def test_cli_observability_lie_on_a_constant_line(tmp_path, capsys):
    config_path = tmp_path / "kse.json"
    config_path.write_text(json.dumps(dict(TINY_KSE, init={"kind": "sine", "waves": 0})))
    data = tmp_path / "kse"
    run_cli(["generate", "--config", str(config_path), "--out", str(data)])
    capsys.readouterr()
    out = tmp_path / "lie.txt"
    proc = run_module(["observability", "--check", "lie", "--data", str(data), "--patch", "4",
                       "--out", str(out)])
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    report = parse_report(out.read_text())
    assert report["finite_fraction"] == "0.000000"
    assert report["median_log_abs_det"] == "nan"


def test_cli_observability_lie_does_not_depend_on_the_core_count(tmp_path, monkeypatch):
    """Windows of dimension 150: OpenBLAS shares the LU of a matrix this
    large among threads, and its bits then depend on their number (with
    the OpenBLAS of the numpy 2.4 wheels, at dimension 128 and below they
    do not).  The report and the series are the same bytes on one BLAS
    thread and on two."""
    config_path = tmp_path / "kse.json"
    config_path.write_text(json.dumps(dict(TINY_KSE, sites=150, patch=5)))
    data = tmp_path / "kse"
    run_cli(["generate", "--config", str(config_path), "--out", str(data)])
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        out, csv_path = tmp_path / f"lie{threads}.txt", tmp_path / f"lie{threads}.csv"
        proc = run_module(["observability", "--check", "lie", "--data", str(data),
                           "--patch", "5", "--out", str(out), "--csv", str(csv_path)])
        assert proc.returncode == 0, proc.stderr
        outputs.append((out.read_bytes(), csv_path.read_bytes()))
    assert parse_report(outputs[0][0].decode())["matrix_dim"] == "150"
    assert outputs[0] == outputs[1]


def test_cli_heat_gramian_does_not_depend_on_the_core_count(tmp_path, monkeypatch):
    """At grid 16 (state dimension 256) scipy's expm of the generator gave
    other bits on one BLAS thread and on two; the symmetric heat
    generator's propagator now comes from numpy's eigh inside the verb's
    one-thread scope."""
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        out = tmp_path / f"gramian{threads}.txt"
        proc = run_module(["observability", "--check", "gramian", "--grid", "16", "--patch", "2",
                           "--horizon", "4", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert float(parse_report(outputs[0].decode())["relative_reconstruction_error"]) < 1e-6
    assert outputs[0] == outputs[1]


def test_cli_wave_gramian_refusal_does_not_depend_on_the_core_count(tmp_path, monkeypatch):
    """At grid 10 scipy's expm of the wave generator gave a condition
    number of 5.708e+16 on one BLAS thread and 5.925e+16 on two; inside
    the verb's scope it runs on one thread, and the refusal is one line."""
    outcomes = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        proc = run_module(["observability", "--check", "gramian", "--equation", "wave",
                           "--grid", "10", "--patch", "2", "--horizon", "4",
                           "--out", str(tmp_path / "gramian.txt")])
        outcomes.append((proc.returncode, proc.stderr))
    assert outcomes[0][0] == 5 and "condition number" in outcomes[0][1], outcomes[0]
    assert outcomes[0] == outcomes[1]
    assert not (tmp_path / "gramian.txt").exists()


@pytest.mark.parametrize("grid, trajectories, frames, patch, k", [
    (24, 12, 24, 3, 4),
    (8, 41, 64, 2, 2),
    (8, 80, 64, 2, 2),
], ids=["chunks", "tree", "tree4"])
def test_cli_fits_do_not_depend_on_the_core_count(tmp_path, monkeypatch, grid, trajectories,
                                                  frames, patch, k):
    """Grid 24 with patch 3 and k 4: designs of 257 columns, whose QR
    scipy's OpenBLAS shares among threads when it has two, and whose bits
    then depended on their number; the super target of 576 outputs is
    three chunks of Qᵀ, which two workers split unevenly.  Grid 8 with
    patch 2 and k 2: every fit holds more than 2 × 1,024 samples, so it is
    a QR tree of two leaves whose edge falls inside a trajectory; with 80
    trajectories every fit holds more than 4 × 1,024 samples, a tree of
    four leaves that the chain folds one by one as they stream.  The
    models, the sweep and what is rolled out from the models are the same
    bytes on one BLAS thread and on two."""
    config_path = tmp_path / "heat.json"
    config_path.write_text(json.dumps(dict(TINY_HEAT, grid_size=grid, trajectories=trajectories,
                                           frames=frames, patch=patch)))
    data = str(tmp_path / "data")
    run_cli(["generate", "--config", str(config_path), "--out", data])
    size = ["--patch", str(patch), "--k", str(k)]
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        g_path, super_path = str(out / "g.bin"), str(out / "G.bin")
        for argv in (["fit", "--role", "g", *size, "--out", g_path],
                     ["fit", "--role", "super", *size, "--out", super_path],
                     ["sweep", "--patch", str(patch), "--k-list", f"1,{k}", "--trials", "2",
                      "--out", str(out / "sweep.csv")],
                     ["rollout", "--model", g_path, "--super", super_path,
                      "--traj-index", str(trajectories - 1), "--steps", "6",
                      "--out-prefix", str(out / "roll")]):
            proc = run_module([*argv, "--data", data])
            assert proc.returncode == 0, proc.stderr
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert set(outputs[0]) >= {"g.bin", "G.bin", "sweep.csv", "roll_tokens.bin",
                               "roll_fields.bin", "roll_residues.csv"}
    assert outputs[0] == outputs[1]


def test_metrics_correlation_checks_dt_max_against_the_frame_count(tmp_path, capsys,
                                                                  monkeypatch):
    data = tmp_path / "data"
    write_dataset(*generate_dataset(TINY_HEAT), str(data))
    reads = []
    load = dataset_module.load_trajectory
    monkeypatch.setattr(dataset_module, "load_trajectory",
                        lambda *args: reads.append(args) or load(*args))
    frames = TINY_HEAT["frames"]
    for dt_max in (frames - 1, -1):
        assert cli.main(["metrics", "correlation", "--data", str(data), "--dt-max", str(dt_max),
                         "--out", str(tmp_path / "corr.csv")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: --dt-max {dt_max} outside 0..{frames - 2} for data of "
                         f"{frames} frames per trajectory"]
    assert reads == [] and not (tmp_path / "corr.csv").exists()
    run_cli(["metrics", "correlation", "--data", str(data), "--dt-max", str(frames - 2),
             "--out", str(tmp_path / "corr.csv")])
    assert len(reads) == TINY_HEAT["trajectories"]


def test_cli_observability_witness_and_kalman(tmp_path, capsys):
    out = str(tmp_path / "witness.txt")
    run_cli(["observability", "--check", "witness", "--grid", "16", "--patch", "4",
             "--out", out])
    text = open(out).read()
    assert "token_sup_norm" in text
    value = float([ln for ln in text.splitlines()
                   if ln.startswith("token_sup_norm")][0].split("=")[1])
    assert value < 1e-12
    out2 = str(tmp_path / "kalman.txt")
    run_cli(["observability", "--check", "kalman", "--grid", "8", "--patch", "4",
             "--constant", "1.0", "--out", out2])
    text2 = open(out2).read()
    assert "rank" in text2 and "observable" in text2
    capsys.readouterr()


def test_every_observability_report_names_its_fields(tmp_path, capsys):
    """Each ``--check`` report is one ``key = value`` line per field of its
    report class, after ``method``; only ``failing_eigenvalue`` repeats."""
    (tmp_path / "kse.json").write_text(json.dumps(TINY_KSE))
    run_cli(["generate", "--config", str(tmp_path / "kse.json"), "--out", str(tmp_path / "kse")])
    small = ["--grid", "8", "--patch", "4", "--constant", "1.0"]
    cases = {
        "kalman": (small, latentpde.KalmanReport),
        "hautus": (small, latentpde.HautusReport),
        "witness": (small, latentpde.WitnessReport),
        "gramian": (["--grid", "8", "--patch", "2", "--horizon", "4"], latentpde.GramianReport),
        "lie": (["--data", str(tmp_path / "kse")], latentpde.LieLogDetReport),
    }
    for check, (flags, report_class) in cases.items():
        out = tmp_path / f"{check}.txt"
        run_cli(["observability", "--check", check, *flags, "--out", str(out)])
        keys = Counter(line.split(" = ", 1)[0] for line in out.read_text().splitlines())
        repeated = keys.pop("failing_eigenvalue", 0)
        assert (check == "hautus") == (repeated > 0), check
        assert max(keys.values()) == 1, (check, keys)
        assert list(keys) == ["method"] + [f.name for f in dataclasses.fields(report_class)
                                           if f.repr], check
    capsys.readouterr()


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Inputs for the CLI fuzz test: tiny heat and kse1d datasets, a
    forecaster, a super-resolution map, a rollout clip, a file of junk, and
    a forecaster, a clip and a dataset whose JSON files are malformed."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {name: str(root / name) for name in
             ("heat", "kse", "heat_json", "kse_json", "junk", "g_model", "super_model", "clip",
              "bad_header", "bad_clip", "bad_manifest")}
    with open(paths["heat_json"], "w") as fh:
        json.dump(TINY_HEAT, fh)
    with open(paths["kse_json"], "w") as fh:
        json.dump(TINY_KSE, fh)
    with open(paths["junk"], "w") as fh:
        fh.write("{not json")
    for argv in (["generate", "--config", paths["heat_json"], "--out", paths["heat"]],
                 ["generate", "--config", paths["kse_json"], "--out", paths["kse"]],
                 ["fit", "--data", paths["heat"], "--role", "g", "--patch", "4", "--k", "2",
                  "--out", paths["g_model"]],
                 ["fit", "--data", paths["heat"], "--role", "super", "--patch", "4", "--k", "2",
                  "--out", paths["super_model"]],
                 ["rollout", "--data", paths["heat"], "--model", paths["g_model"], "--super",
                  paths["super_model"], "--steps", "3", "--out-prefix", paths["clip"]]):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "rank-deficient design", RuntimeWarning)
            assert cli.main(argv) == 0
    with open(paths["g_model"], "rb") as src, open(paths["bad_header"], "wb") as dst:
        blob = src.read()
        cut = blob.index(b"\n\0")
        header = json.loads(blob[:cut])
        del header["normalization"]
        dst.write(json.dumps(header).encode() + blob[cut:])
    os.mkdir(paths["bad_manifest"])
    for path, content in ((paths["bad_clip"] + "_meta.json", [1]),
                          (os.path.join(paths["bad_manifest"], "manifest.json"), [1])):
        with open(path, "w") as fh:
            json.dump(content, fh)
    paths["outputs"] = str(root / "outputs")
    os.mkdir(paths["outputs"])
    return paths


# every flag of a verb: its value in a cheap valid call (None: left out; a
# tuple: one of them) and the pool a drawn value comes from
_INPUTS, _OUTPUTS, _NUMBERS = "inputs", "outputs", "numbers"
FUZZ_VERBS = {
    "generate": {"--config": ("{heat_json}", _INPUTS), "--from-manifest": (None, _INPUTS),
                 "--out": ("{out}", _OUTPUTS)},
    "tokenize": {"--data": ("{heat}", _INPUTS), "--patch": ("4", _NUMBERS),
                 "--out": ("{out}", _OUTPUTS)},
    "fit": {"--data": ("{heat}", _INPUTS), "--role": (("g", "super"), ("x",)),
            "--patch": ("4", _NUMBERS), "--k": ("2", _NUMBERS),
            "--learner": (("lstsq", "sgd"), ("x",)), "--steps": ("3", _NUMBERS),
            "--batch": (None, _NUMBERS), "--ridge": (None, _NUMBERS),
            "--train-frac": (None, _NUMBERS), "--lr": (None, _NUMBERS),
            "--lr-decay": (None, _NUMBERS), "--eval-split": (None, _NUMBERS),
            "--sgd-seed": (None, _NUMBERS), "--out": ("{out}", _OUTPUTS)},
    "sweep": {"--data": ("{heat}", _INPUTS), "--patch": ("4", _NUMBERS),
              "--k-list": ("1,2", _NUMBERS), "--trials": ("1", _NUMBERS),
              "--ridge": (None, _NUMBERS), "--out": ("{out}", _OUTPUTS)},
    "rollout": {"--data": ("{heat}", _INPUTS), "--model": ("{g_model}", _INPUTS),
                "--super": (None, _INPUTS), "--traj-index": (None, _NUMBERS),
                "--start": (None, _NUMBERS), "--steps": ("3", _NUMBERS),
                "--out-prefix": ("{out}", _OUTPUTS)},
    "metrics": {"--data": ("{heat}", _INPUTS), "--pixel": (None, _NUMBERS),
                "--dt-max": ("4", _NUMBERS), "--clip-prefix": ("{clip}", _INPUTS),
                "--out": ("{out}", _OUTPUTS)},
    "observability": {"--check": (("kalman", "hautus", "witness", "gramian", "lie"), ("x",)),
                      "--equation": (("heat", "wave"), ("kse",)),
                      "--grid": ("4", _NUMBERS), "--patch": ("2", _NUMBERS),
                      "--quadrature-steps": ("8", _NUMBERS), "--data": ("{kse}", _INPUTS),
                      "--constant": (None, _NUMBERS), "--grf-seed": (None, _NUMBERS),
                      "--rel-tol": (None, _NUMBERS), "--tol": (None, _NUMBERS),
                      "--horizon": (None, _NUMBERS), "--cond-limit": (None, _NUMBERS),
                      "--derivative-order": ("2", _NUMBERS), "--window": (None, _NUMBERS),
                      "--burn-frac": (None, _NUMBERS), "--csv": (None, _OUTPUTS),
                      "--out": ("{out}", _OUTPUTS)},
    "export": {"--data": ("{heat}", _INPUTS), "--traj-index": (None, _NUMBERS),
               "--frame": (None, _NUMBERS), "--colormap": (("gray", "diverging"), ("x",)),
               "--out": ("{out}", _OUTPUTS)},
}
FUZZ_POOLS = {
    # small magnitudes only: a drawn size must not make a run slow
    _NUMBERS: ("-1", "0", "1", "2", "3", "4", "0.5", "1e-300", "nan", "inf", "-inf", "x", "",
               "1,2", "0,0", "9,9", "a:b"),
    _INPUTS: ("{heat}", "{kse}", "{heat_json}", "{kse_json}", "{junk}", "{g_model}",
              "{super_model}", "{clip}", "{heat}/manifest.json", "{missing}", "",
              "{bad_header}", "{bad_clip}", "{bad_manifest}", "{bad_manifest}/manifest.json"),
    _OUTPUTS: ("{out}", "{outputs}", "{missing}/out"),
}


def test_fuzz_table_names_every_flag():
    """Each verb's row of FUZZ_VERBS holds exactly the flags the parser
    defines for that verb, so the fuzz draws every flag and no stale one."""
    verbs = next(action.choices for action in cli.build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    assert sorted(verbs) == sorted(FUZZ_VERBS)
    for verb, parser in verbs.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert flags - {"-h", "--help"} == set(FUZZ_VERBS[verb]), verb


@st.composite
def fuzz_argv(draw):
    """A cheap valid call of a random verb with up to three of its flags
    dropped or set from their pools, and now and then a stray word."""
    verb = draw(st.sampled_from(sorted(FUZZ_VERBS)))
    flags = {flag: (draw(st.sampled_from(value)) if isinstance(value, tuple) else value, pool)
             for flag, (value, pool) in FUZZ_VERBS[verb].items()}
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
        pool = flags[flag][1]
        choices = FUZZ_POOLS[pool] if isinstance(pool, str) else pool
        flags[flag] = (draw(st.sampled_from((None, *choices))), pool)
    argv = [verb]
    if verb == "metrics":
        argv.append(draw(st.sampled_from(["correlation", "subvideo", "x"])))
    for flag, (value, _) in flags.items():
        if value is not None:
            argv += [flag, value]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--nope", "extra", "--out"])))
    return argv


@given(argv=fuzz_argv())
@settings(max_examples=300)
def test_cli_fuzz_exit_codes_and_stderr(fuzz_files, argv):
    """Random verbs, flags and values: the run succeeds or exits with a
    documented code, and a failed run writes only its ``error:`` line."""
    names = dict(fuzz_files, out=os.path.join(fuzz_files["outputs"], "out"),
                 missing=os.path.join(fuzz_files["outputs"], "missing"))
    argv = [a.format(**names) if "{" in a else a for a in argv]
    err = io.StringIO()
    # a successful run may replay its warnings; record them away from pytest
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4, 5), argv
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
