from collections import Counter
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import latentpde
from latentpde import (DataFormatError, DatasetManifest, DivergenceError, apply_normalization,
                       cli, compute_normalization, export_frame_image, generate_dataset,
                       generate_trajectory, invert_normalization, load_all, load_manifest,
                       load_trajectory, read_csv, write_csv, write_dataset)
from latentpde import dataset as dataset_module

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
    np.testing.assert_allclose(invert_normalization(scaled, stats), frames[0], atol=1e-14)


def test_normalization_constant_input():
    frames = [np.full((2, 4, 4), 7.0)]
    stats = compute_normalization(frames)
    assert stats["constant"]
    scaled = apply_normalization(frames[0], stats)
    np.testing.assert_array_equal(scaled, 0.0)
    np.testing.assert_array_equal(invert_normalization(scaled, stats), frames[0])


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
    with pytest.raises(Exception):
        export_frame_image(np.zeros((4, 4)), str(tmp_path / "x.pgm"), vmin=1.0, vmax=1.0)


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
    sidecar = json.loads(open(g_path + ".norm.json").read())
    assert sidecar["train_trajectories"] == 5
    assert sidecar["normalization"]["hi"] > sidecar["normalization"]["lo"]

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


def test_cli_error_exit_codes(tmp_path, capsys):
    # conflicting sources -> parameter error
    assert cli.main(["generate", "--preset", "heat32", "--config", "x.json",
                     "--out", str(tmp_path / "d")]) == 2
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
    capsys.readouterr()


def test_module_entry_point_stderr_is_only_the_error_line(tmp_path):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(latentpde.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
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
        proc = subprocess.run([sys.executable, "-m", "latentpde.cli", *argv],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
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
            generate_trajectory(UNSTABLE_HEAT, index)
        assert alone.value.step == step if index == bad else alone.value.step > step

    config_path = tmp_path / "unstable.json"
    config_path.write_text(json.dumps(UNSTABLE_HEAT))
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(latentpde.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "latentpde.cli", "generate", "--config",
                           str(config_path), "--out", str(tmp_path / "d")],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 4
    assert proc.stderr.splitlines() == [f"error: {err.value}"]


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
                           "gramian_condition", "relative_reconstruction_error"}
    assert float(report["relative_reconstruction_error"]) < 1e-6
    # patch 4 at horizon 1 leaves the Gramian numerically singular
    assert cli.main(["observability", "--check", "gramian", "--grid", "8",
                     "--out", str(tmp_path / "refused.txt")]) == 5
    capsys.readouterr()


def test_cli_observability_lie(tmp_path, capsys):
    config_path = tmp_path / "kse.json"
    config_path.write_text(json.dumps({
        "equation": "kse1d", "sites": 40, "domain_length": 22.0, "dt": 0.05,
        "steps": 300, "trajectories": 1, "init": {"kind": "sine", "waves": 2},
        "init_seed": 0, "patch": 4}))
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
    assert len(rows) - int(0.5 * len(rows)) == int(report["examined"])  # default burn-in
    # a burn-in that leaves no window to summarize is a parameter error
    assert cli.main(["observability", "--check", "lie", "--data", str(data), "--burn-frac", "1",
                     "--out", str(tmp_path / "none.txt")]) == 2
    capsys.readouterr()


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
