"""The benchmark's workloads: fixed sequences of CLI verbs with their checks.

Each workload is built from a workload seed and a size ("full" for the
benchmark, "toy" for the self-test).  Building one writes the generated
config files into a scratch directory and returns the operations to run,
each an argv for ``latentpde.cli.main`` with the exit code it must return
and checks on its outputs that hold for every workload seed.  The program
only ever sees these configs and flags.

Why each workload exists is recorded in ``perfbench/README.md``.
"""

from dataclasses import dataclass, field
import csv
import hashlib
import json
import math
import os
import random

@dataclass
class Op:
    """One CLI call: argv, expected exit code, and output checks.

    A check takes the captured stdout and returns None when it holds or a
    message saying what is wrong.
    """

    name: str
    argv: list
    expected_rc: int = 0
    checks: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# output readers and checks


def _read_report(path):
    """``key = value`` lines of an observability report."""
    out = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.partition(" = ")
            if sep:
                out[key.strip()] = value.strip()
    return out


def _read_csv_rows(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def _csv_finite(path, min_rows, skip_cols=0, label=""):
    def check(_stdout):
        _, rows = _read_csv_rows(path)
        if len(rows) < min_rows:
            return f"{os.path.basename(path)}: {len(rows)} rows < {min_rows}"
        for row in rows:
            for cell in row[skip_cols:]:
                if not math.isfinite(float(cell)):
                    return f"{os.path.basename(path)}: non-finite {label or 'value'} {cell}"
        return None
    return check


def _manifest_counts(data_dir, trajectories, frames):
    def check(_stdout):
        with open(os.path.join(data_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        got = (manifest["trajectories"], manifest["frames"])
        if got != (trajectories, frames):
            return f"manifest has {got}, expected {(trajectories, frames)}"
        return None
    return check


def _report_value(path, key, predicate, expectation):
    def check(_stdout):
        report = _read_report(path)
        if key not in report:
            return f"{os.path.basename(path)}: no {key}"
        if not predicate(report):
            return f"{os.path.basename(path)}: {key} = {report[key]}, expected {expectation}"
        return None
    return check


def _correlation_starts_at_one(path):
    def check(_stdout):
        _, rows = _read_csv_rows(path)
        rho0 = float(rows[0][1])
        if abs(rho0 - 1.0) > 1e-9:
            return f"{os.path.basename(path)}: lag-0 correlation {rho0} != 1"
        return None
    return check


def _subvideo_distances(path, trajectories):
    def check(_stdout):
        _, rows = _read_csv_rows(path)
        if len(rows) != trajectories + 1:
            return f"{os.path.basename(path)}: {len(rows)} rows, expected {trajectories + 1}"
        for _, value in rows:
            d = float(value)
            if not (math.isfinite(d) and d >= 0.0):
                return f"{os.path.basename(path)}: distance {value}"
        return None
    return check


def _pgm_size(path, side):
    def check(_stdout):
        with open(path, "rb") as fh:
            blob = fh.read()
        header = b"P5\n%d %d\n255\n" % (side, side)
        if not blob.startswith(header) or len(blob) != len(header) + side * side:
            return f"{os.path.basename(path)}: not a {side}x{side} PGM"
        return None
    return check


def _stdout_has(text):
    def check(stdout):
        return None if text in stdout else f"stdout lacks {text!r}"
    return check


def _rank_deficient(report):
    return int(report["rank"]) < int(report["state_dim"]) and report["observable"] == "False"


# ---------------------------------------------------------------------------
# workloads

HEAT_SIZES = {
    "full": dict(grid=32, trajectories=120, frames=64, patch=4, k=16,
                 k_list="1,2,4,8,16", trials=20, traj_index=110, steps=40,
                 dt_max=30, frame=10),
    "toy": dict(grid=8, trajectories=12, frames=24, patch=2, k=4,
                k_list="1,2,4", trials=4, traj_index=11, steps=8, dt_max=8, frame=3),
}

WAVE_SIZES = {
    "full": dict(grid=32, trajectories=24, frames=300, patch=4, k=8, adam_steps=3000,
                 batch=64, traj_index=23, steps=200, dt_max=50),
    "toy": dict(grid=8, trajectories=6, frames=60, patch=2, k=2, adam_steps=200,
                batch=16, traj_index=5, steps=20, dt_max=10),
}

KSE_SIZES = {
    "full": dict(sites=200, steps=800, patch=5),
    "toy": dict(sites=40, steps=300, patch=5),
}

CERTIFY_SIZES = {
    "full": dict(grid=16, patch=4, gramian_grid=16, gramian_patch=2),
    "toy": dict(grid=8, patch=2, gramian_grid=8, gramian_patch=2),
}


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def _heat_session(rng, size, ws):
    s = HEAT_SIZES[size]
    cfg = os.path.join(ws, "heat.json")
    _write_json(cfg, {
        "equation": "heat", "grid_size": s["grid"], "dt": 0.19, "frames": s["frames"],
        "trajectories": s["trajectories"], "init_seed": rng.randrange(1, 10**6),
        "init": {"sigma": 5.0, "m": 0.1, "nu": 1.0},
        "conductivity": {"sigma": 0.4, "m": 0.1, "nu": 1.0,
                         "seed": rng.randrange(1, 10**4), "scale": 0.2},
    })
    data, tokens = os.path.join(ws, "data", "heat"), os.path.join(ws, "data", "heat_tokens")
    g_model, s_model = os.path.join(ws, "models", "g.bin"), os.path.join(ws, "models", "G.bin")
    roll = os.path.join(ws, "out", "roll")
    sweep_csv, corr_csv = os.path.join(ws, "sweep.csv"), os.path.join(ws, "corr.csv")
    sub_csv, pgm = os.path.join(ws, "subvideo.csv"), os.path.join(ws, "frame.pgm")
    patch, k = str(s["patch"]), str(s["k"])
    n_k = len(s["k_list"].split(","))
    return [
        Op("generate", ["generate", "--config", cfg, "--out", data],
           checks=[_manifest_counts(data, s["trajectories"], s["frames"])]),
        Op("tokenize", ["tokenize", "--data", data, "--patch", patch, "--out", tokens],
           checks=[_manifest_counts(tokens, s["trajectories"], s["frames"])]),
        Op("fit-g", ["fit", "--data", data, "--role", "g", "--patch", patch, "--k", k,
                     "--out", g_model], checks=[_stdout_has("fitted g map")]),
        Op("fit-super", ["fit", "--data", data, "--role", "super", "--patch", patch,
                         "--k", k, "--out", s_model], checks=[_stdout_has("fitted super map")]),
        Op("sweep", ["sweep", "--data", data, "--patch", patch, "--k-list", s["k_list"],
                     "--trials", str(s["trials"]), "--out", sweep_csv],
           checks=[_csv_finite(sweep_csv, n_k, label="sweep error")]),
        Op("rollout-super", ["rollout", "--data", data, "--model", g_model, "--super", s_model,
                             "--traj-index", str(s["traj_index"]), "--steps", str(s["steps"]),
                             "--out-prefix", roll],
           checks=[_csv_finite(roll + "_residues.csv", s["steps"], label="residue")]),
        Op("metrics-correlation", ["metrics", "correlation", "--data", data, "--pixel", "1,1",
                                   "--dt-max", str(s["dt_max"]), "--out", corr_csv],
           checks=[_csv_finite(corr_csv, s["dt_max"] + 1), _correlation_starts_at_one(corr_csv)]),
        Op("metrics-subvideo", ["metrics", "subvideo", "--data", data, "--clip-prefix", roll,
                                "--out", sub_csv],
           checks=[_subvideo_distances(sub_csv, s["trajectories"])]),
        Op("export", ["export", "--data", data, "--traj-index", "0", "--frame", str(s["frame"]),
                      "--out", pgm], checks=[_pgm_size(pgm, s["grid"])]),
    ]


def _wave_adam(rng, size, ws):
    s = WAVE_SIZES[size]
    cfg = os.path.join(ws, "wave.json")
    _write_json(cfg, {
        "equation": "wave", "grid_size": s["grid"], "dt": 0.01, "skip": 5,
        "frames": s["frames"], "trajectories": s["trajectories"],
        "init_seed": rng.randrange(1, 10**6),
        "init": {"sigma": 5.0, "m": 0.1, "nu": 1.0},
        "conductivity": {"sigma": 0.4, "m": 0.1, "nu": 1.0,
                         "seed": rng.randrange(1, 10**4), "scale": 0.2},
    })
    data = os.path.join(ws, "data", "wave")
    model = os.path.join(ws, "models", "g_adam.bin")
    roll = os.path.join(ws, "out", "roll")
    corr_csv = os.path.join(ws, "corr.csv")
    return [
        Op("generate", ["generate", "--config", cfg, "--out", data],
           checks=[_manifest_counts(data, s["trajectories"], s["frames"])]),
        Op("fit-g-adam", ["fit", "--data", data, "--role", "g", "--patch", str(s["patch"]),
                          "--k", str(s["k"]), "--learner", "sgd", "--lr", "1e-3",
                          "--steps", str(s["adam_steps"]), "--batch", str(s["batch"]),
                          "--sgd-seed", str(rng.randrange(10**6)), "--out", model],
           checks=[_csv_finite(model + ".curve.csv", 2, skip_cols=1, label="Adam loss")]),
        Op("rollout", ["rollout", "--data", data, "--model", model,
                       "--traj-index", str(s["traj_index"]), "--steps", str(s["steps"]),
                       "--out-prefix", roll],
           checks=[_csv_finite(roll + "_residues.csv", s["steps"], label="residue")]),
        Op("metrics-correlation", ["metrics", "correlation", "--data", data, "--pixel", "1,1",
                                   "--dt-max", str(s["dt_max"]), "--out", corr_csv],
           checks=[_csv_finite(corr_csv, s["dt_max"] + 1), _correlation_starts_at_one(corr_csv)]),
    ]


def _kse_lie(rng, size, ws):
    s = KSE_SIZES[size]
    cfg = os.path.join(ws, "kse1.json")
    # kse1d ignores init_seed: the number of sine waves is the only input
    # the workload seed can vary
    _write_json(cfg, {
        "equation": "kse1d", "sites": s["sites"], "domain_length": 80.0, "dt": 0.01,
        "steps": s["steps"], "trajectories": 1, "init_seed": 0,
        "init": {"kind": "sine", "waves": rng.randrange(2, 8)},
    })
    data = os.path.join(ws, "data", "kse1")
    report = os.path.join(ws, "lie.txt")
    return [
        Op("generate", ["generate", "--config", cfg, "--out", data],
           checks=[_manifest_counts(data, 1, s["steps"] + 1)]),
        Op("observability-lie", ["observability", "--check", "lie", "--data", data,
                                 "--patch", str(s["patch"]), "--out", report],
           checks=[_report_value(report, "finite_fraction",
                                 lambda r: float(r["finite_fraction"]) == 1.0, "1")]),
    ]


def _certify(rng, size, ws):
    s = CERTIFY_SIZES[size]
    grid, patch = ["--grid", str(s["grid"])], ["--patch", str(s["patch"])]
    ops = []

    def report(name):
        return os.path.join(ws, name + ".txt")

    for eq in ("heat", "wave"):
        out = report(f"kalman-{eq}")
        constant = f"{rng.uniform(0.5, 2.0):.3f}"
        ops.append(Op(f"kalman-{eq}", ["observability", "--check", "kalman", "--equation", eq,
                                       *grid, *patch, "--constant", constant, "--out", out],
                      checks=[_report_value(out, "rank", _rank_deficient,
                                            "rank < state_dim, not observable")]))
    for eq, seed in (("heat", 77), ("heat", 78), ("heat", 79), ("wave", 7)):
        out = report(f"hautus-{eq}-{seed}")
        ops.append(Op(f"hautus-{eq}-{seed}",
                      ["observability", "--check", "hautus", "--equation", eq, *grid, *patch,
                       "--grf-seed", str(seed), "--out", out],
                      checks=[_report_value(out, "observable",
                                            lambda r: r["observable"] == "True", "True")]))
    for eq in ("heat", "wave"):
        out = report(f"witness-{eq}")
        ops.append(Op(f"witness-{eq}", ["observability", "--check", "witness", "--equation", eq,
                                        *grid, *patch, "--out", out],
                      checks=[_report_value(out, "token_sup_norm",
                                            lambda r: float(r["token_sup_norm"]) < 1e-12,
                                            "< 1e-12")]))
    out = report("gramian")
    ops.append(Op("gramian", ["observability", "--check", "gramian",
                              "--grid", str(s["gramian_grid"]),
                              "--patch", str(s["gramian_patch"]), "--horizon", "4",
                              "--grf-seed", str(rng.randrange(1, 10**4)), "--out", out],
                  checks=[_report_value(out, "relative_reconstruction_error",
                                        lambda r: float(r["relative_reconstruction_error"]) < 1e-6,
                                        "< 1e-6")]))
    # at its defaults (patch 4, horizon 1) the Gramian is numerically singular
    # and the CLI must refuse with the diagnostic exit code
    ops.append(Op("gramian-defaults-refused", ["observability", "--check", "gramian", *grid,
                                               "--out", report("gramian-defaults")],
                  expected_rc=5))
    return ops


_BUILDERS = {"heat-session": _heat_session, "wave-adam": _wave_adam,
             "kse-lie": _kse_lie, "certify": _certify}
NAMES = tuple(_BUILDERS)


def build(name, seed, size, ws):
    """Write the workload's inputs under ``ws`` and return its operations."""
    for sub in ("data", "models", "out"):
        os.makedirs(os.path.join(ws, sub), exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng, size, ws)


def digest(ws):
    """sha256 of every file under ``ws``, keyed by relative path.

    Manifests carry their creation time, which is the only field allowed to
    differ between seeded reruns, so it is dropped before hashing.
    """
    out = {}
    for dirpath, _, files in os.walk(ws):
        for fname in files:
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                blob = fh.read()
            if fname == "manifest.json":
                manifest = json.loads(blob)
                manifest.pop("created", None)
                blob = json.dumps(manifest, sort_keys=True).encode()
            out[os.path.relpath(path, ws)] = hashlib.sha256(blob).hexdigest()
    return out
