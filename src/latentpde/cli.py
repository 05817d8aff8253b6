"""Command line interface.

Verbs:

  generate       simulate a dataset from a config file or a manifest
  tokenize       patch-average a field dataset into a token dataset
  fit            train a forecaster (g) or super-resolution map on a dataset
  sweep          one-step error versus history length, written as CSV
  rollout        autoregressive generation, optionally through the
                 super-resolution map, with per-frame residues vs truth
  metrics        pixel autocorrelation ensembles and nearest-subvideo
                 distances, written as CSV
  observability  rank / eigenvector / witness / Gramian / local-rank reports
  export         render one frame as a PGM or PPM image

Exit codes: 0 success, 2 bad parameters, 3 data-format problems,
4 numerical divergence, 5 diagnostic failures.  A failed run writes one
``error:`` line to stderr and nothing else.
"""

import argparse
import json
import sys
import warnings

import numpy as np

from . import dataset as ds
from . import observability as obs
from .errors import DataFormatError, Key, LatentPdeError, ParameterError, check_entries
from .lattice_ops import GridSpec, build_tokenizer_matrix
from .learners import (LinearMap, TrainConfig, _one_blas_thread, fit_blocks, fit_sgd_blocks,
                       history_sweep)
from .rollout_metrics import (autoregressive_rollout, correlation_ensemble_stats,
                              full_pipeline_rollout, nearest_subvideo_distance, residue_norms)
from .solvers import Trajectory
from .tokenizer import amplitude, build_histories, build_reconstruction_pairs, tokenize_trajectory


def _load_config(args) -> dict:
    # argparse lets exactly one source through; an empty path is an unreadable file
    if args.config is not None:
        with open(args.config) as fh:
            return json.load(fh)
    with open(args.from_manifest) as fh:
        return dict(ds.DatasetManifest.from_json(fh.read()).config)


def cmd_generate(args) -> int:
    config = _load_config(args)
    manifest = ds.write_generated_dataset(config, args.out)
    print(f"wrote {manifest.trajectories} trajectories of {manifest.frames} frames "
          f"({manifest.equation}) to {args.out}")
    return 0


def cmd_tokenize(args) -> int:
    manifest = ds.tokenize_dataset(args.data, args.patch, args.out)
    print(f"wrote {manifest.trajectories} token trajectories "
          f"({manifest.frame_shape[0]} tokens/frame) to {args.out}")
    return 0


def _train_split(n_traj: int, train_frac: float) -> int:
    n_train = int(round(train_frac * n_traj)) if 0 < train_frac <= 1 else 0
    if not 1 <= n_train <= n_traj:
        raise ParameterError(f"train fraction {train_frac} leaves no usable split of {n_traj}")
    return n_train


def _token_dim(shape: tuple, patch: int) -> int:
    """Tokens per frame of ``shape`` at ``patch``; a patch that does not
    divide the frame is a ParameterError."""
    return tokenize_trajectory(np.zeros((1, *shape)), patch).shape[1]


def cmd_fit(args) -> int:
    manifest = ds.load_field_manifest(args.data)
    n_train = _train_split(manifest.trajectories, args.train_frac)
    train = range(n_train)
    # a patch that does not divide the frame, or a k the trajectories
    # cannot take, is refused before the first blob is read
    _token_dim(manifest.amplitude_shape, args.patch)
    super_role = args.role == "super"
    # samples per trajectory: windows of k frames followed by a frame (g)
    # or ending at the frame they reconstruct (super)
    windows = manifest.frames - args.k + super_role
    if args.k < 1 or windows < 1:
        raise ParameterError(f"--k {args.k} outside 1..{manifest.frames - 1 + super_role} for "
                             f"trajectories of {manifest.frames} frames (role {args.role})")
    stats = ds.compute_normalization(ds.trajectories(args.data, manifest, train))

    # the samples read only the amplitude of a stacked wave state
    def blocks():
        for fr in ds.trajectories(args.data, manifest, train):
            fr = ds.apply_normalization(amplitude(fr), stats)
            if super_role:
                yield build_reconstruction_pairs(fr, args.k, args.patch)
            else:
                yield build_histories(fr, args.k, args.patch)

    if args.learner == "lstsq":
        fitted = fit_blocks(blocks(), n_train * windows, ridge=args.ridge)
    else:
        config = TrainConfig(learning_rate=args.lr, steps=args.steps, batch_size=args.batch,
                             ridge=args.ridge, seed=args.sgd_seed, lr_decay=args.lr_decay)
        fitted, curves = fit_sgd_blocks(blocks(), n_train * windows, config,
                                        eval_split=args.eval_split)
        # no eval split, no eval loss
        evals = curves["eval"] if len(curves["eval"]) else np.full(len(curves["train"]), np.nan)
        ds.write_csv(args.out + ".curve.csv", ["epoch", "train_mse", "eval_mse"],
                     [[i, tr, ev] for i, (tr, ev) in enumerate(zip(curves["train"], evals))],
                     comment=f"sgd loss curve role={args.role} k={args.k}")
    fitted.patch, fitted.normalization = args.patch, stats
    fitted.save(args.out)
    print(f"fitted {args.role} map (k={args.k}, {args.learner}) on {n_train} trajectories "
          f"-> {args.out}")
    return 0


def cmd_sweep(args) -> int:
    manifest = ds.load_field_manifest(args.data)
    n_traj = manifest.trajectories
    if not 0 < args.trials < n_traj:
        raise ParameterError(f"--trials {args.trials} must be >= 1 and leave training "
                             f"trajectories of {n_traj}")
    train, evals = range(n_traj - args.trials), range(n_traj - args.trials, n_traj)
    stats = ds.compute_normalization(ds.trajectories(args.data, manifest, train))

    def tokens(indices):
        return [tokenize_trajectory(ds.apply_normalization(amplitude(fr), stats), args.patch)
                for fr in ds.trajectories(args.data, manifest, indices)]

    rows = history_sweep(tokens(train), tokens(evals), args.k_list, ridge=args.ridge)
    ds.write_csv(args.out, ["k", "l1_mean", "l1_std", "linf_mean", "linf_std", "trials"],
                 [[r["k"], r["l1_mean"], r["l1_std"], r["linf_mean"], r["linf_std"], r["trials"]]
                  for r in rows],
                 comment="one-step forecast error vs history length, learner=lstsq")
    for r in rows:
        print(f"k={r['k']:3d}  l1={r['l1_mean']:.6e}  linf={r['linf_mean']:.6e}")
    return 0


def _load_model(path: str, manifest: ds.DatasetManifest, fields: bool) -> LinearMap:
    """A map saved by ``fit``, checked against the frames of a dataset: a
    forecaster (``fields`` false) maps token frames to a token frame, a
    super-resolution map maps them to an amplitude frame."""
    fitted = LinearMap.load(path)
    if fitted.patch is None or fitted.normalization is None:
        raise DataFormatError(f"{path}: no patch and normalization in the header; "
                              "re-fit the model with the fit verb")
    ds.check_normalization(fitted.normalization, path)
    shape = manifest.amplitude_shape
    if shape[-1] % fitted.patch:
        raise DataFormatError(f"{path}: patch {fitted.patch} does not divide the data "
                              f"grid {shape[-1]}")
    token_dim = _token_dim(shape, fitted.patch)
    output_shape = shape if fields else (token_dim,)
    if (fitted.token_dim, fitted.output_shape) != (token_dim, output_shape):
        raise DataFormatError(
            f"{path}: a map from {fitted.token_dim} tokens per frame to shape "
            f"{fitted.output_shape}; the {manifest.equation} frames of shape {shape} at "
            f"patch {fitted.patch} need {token_dim} tokens to shape {output_shape}")
    return fitted


def cmd_rollout(args) -> int:
    manifest = ds.load_field_manifest(args.data)
    fr = ds.load_trajectory(args.data, manifest, args.traj_index)
    g_map = _load_model(args.model, manifest, fields=False)
    stats, patch = g_map.normalization, g_map.patch
    traj = ds.apply_normalization(amplitude(fr), stats)
    tokens = tokenize_trajectory(traj, patch)
    k = g_map.history_len
    if args.start < 0 or args.start + k + args.steps > tokens.shape[0]:
        raise ParameterError(
            f"--start {args.start} outside 0..{tokens.shape[0] - k - args.steps}: trajectory "
            f"has {tokens.shape[0]} frames; need start+{k}+{args.steps}")
    seed = tokens[args.start:args.start + k]
    if args.super:
        super_map = _load_model(args.super, manifest, fields=True)
        if (super_map.patch, super_map.normalization) != (patch, stats):
            raise ParameterError(f"{args.super} was fitted with another patch or "
                                 f"normalization than {args.model}")
        result = full_pipeline_rollout(g_map, super_map, seed, args.steps)
    else:
        result = autoregressive_rollout(g_map, seed, args.steps)
    prefix = args.out_prefix
    ds.atomic_write(prefix + "_tokens.bin", result.tokens.astype("<f8").tobytes())
    meta = {"seed_len": k, "steps": args.steps, "token_dim": g_map.token_dim,
            "traj_index": args.traj_index, "start": args.start, "space": "normalized",
            "normalization": stats, "fields_shape": None}
    generated = slice(args.start + k, args.start + k + args.steps)
    pairs = {"token": (result.tokens[k:], tokens[generated])}
    if result.fields is not None:
        ds.atomic_write(prefix + "_fields.bin", result.fields.astype("<f8").tobytes())
        meta["fields_shape"] = list(result.fields.shape)
        pairs["field"] = (result.fields, traj[generated])
    columns = {f"{space}_{norm}": residue_norms(pred, truth, norm)
               for space, (pred, truth) in pairs.items() for norm in ("l1", "l2", "linf")}
    header = ["frame", *columns]
    rows = [[i, *(col[i] for col in columns.values())] for i in range(args.steps)]
    ds.atomic_write(prefix + "_meta.json", json.dumps(meta, indent=2).encode())
    ds.write_csv(prefix + "_residues.csv", header, rows,
                 comment="per generated frame; normalized units")
    print(f"rollout of {args.steps} frames from trajectory {args.traj_index} "
          f"-> {prefix}_tokens.bin")
    return 0


_CLIP_TABLE = {"fields_shape": Key((list, None), ">=", 1),  # null: rolled out without --super
               "normalization": Key(ds.NORMALIZATION_TABLE)}


def cmd_metrics(args) -> int:
    manifest = ds.load_field_manifest(args.data)
    frames = ds.trajectories(args.data, manifest)
    if args.kind == "correlation":
        # a lag leaves at least two samples in each slice
        if not 0 <= args.dt_max <= manifest.frames - 2:
            raise ParameterError(f"--dt-max {args.dt_max} outside 0..{manifest.frames - 2} for "
                                 f"data of {manifest.frames} frames per trajectory")
        i, j = args.pixel
        videos = (amplitude(fr) for fr in frames)
        series = correlation_ensemble_stats(videos, (i, j), args.dt_max)
        ds.write_csv(args.out, ["lag", "rho_mean", "rho_std"],
                     [[int(l), series.mean[d], series.std[d]]
                      for d, l in enumerate(series.lags)],
                     comment=f"pixel ({i},{j}) over {series.count} videos, "
                             f"lag unit = {manifest.dt} time")
        print(f"correlation over {series.count} videos -> {args.out}")
        return 0
    # the one other kind argparse lets through: subvideo
    if args.clip_prefix is None:
        raise ParameterError("metrics subvideo needs --clip-prefix")
    meta_path = args.clip_prefix + "_meta.json"
    with open(meta_path) as fh:
        meta = json.load(fh)
    check_entries(meta, _CLIP_TABLE, meta_path, DataFormatError)
    shape, stats = meta["fields_shape"], meta["normalization"]
    if shape is None:
        raise DataFormatError("clip has no reconstructed fields; rerun rollout with --super")
    ds.check_normalization(stats, meta_path)
    if tuple(shape[1:]) != manifest.amplitude_shape:
        raise DataFormatError(f"{meta_path}: a clip of frame shape {tuple(shape[1:])}; the "
                              f"{manifest.equation} data have frames of shape "
                              f"{manifest.amplitude_shape}")
    if shape[0] > manifest.frames:
        raise DataFormatError(f"{meta_path}: a clip of {shape[0]} frames; the data have "
                              f"{manifest.frames} frames per trajectory")
    clip = ds.read_float64(args.clip_prefix + "_fields.bin", shape)
    rows = []
    best = np.inf
    for idx, fr in enumerate(frames):
        # the clip lives in the model's normalized units
        video = ds.apply_normalization(amplitude(fr), stats)
        d = nearest_subvideo_distance(clip, video)
        rows.append([idx, d])
        best = min(best, d)
    rows.append(["min", best])
    ds.write_csv(args.out, ["trajectory", "distance"], rows,
                 comment="euclidean distance to nearest same-length window")
    print(f"nearest subvideo distance {best:.6e} -> {args.out}")
    return 0


# the system the kalman, hautus and gramian checks certify, as a heat or wave config fragment:
# a GRF conductivity seeded by --grf-seed unless --constant, and the init of the gramian's x(0)
_CERTIFICATE_SYSTEM = {"conductivity": {"sigma": 0.5, "m": 0.1, "nu": 1.0, "scale": 0.2},
                       "init": {"sigma": 1.0, "m": 0.5, "nu": 1.0}}


def _certificate_config(args) -> dict:
    """The config fragment of the system that the check's flags name."""
    cond = ({"constant": args.constant} if args.constant is not None
            else dict(_CERTIFICATE_SYSTEM["conductivity"], seed=args.grf_seed))
    return dict(_CERTIFICATE_SYSTEM, equation=args.equation, grid_size=args.grid,
                conductivity=cond)


def cmd_observability(args) -> int:
    wave = args.equation == "wave"
    if args.check == "witness":
        report = obs.witness_orbit(GridSpec(n=args.grid), args.patch, wave=wave)
    elif args.check == "lie":
        if args.data is None:
            raise ParameterError("--check lie needs --data")
        manifest = ds.load_field_manifest(args.data)
        if len(manifest.frame_shape) != 1:
            raise DataFormatError(f"{args.data}: --check lie reads line frames, not the "
                                  f"{manifest.equation} frames of shape "
                                  f"{tuple(manifest.frame_shape)}")
        # a line (kse1d) dataset holds one trajectory
        report = obs.lie_logdet_report(
            Trajectory(ds.load_trajectory(args.data, manifest, 0), dt=manifest.dt), args.patch,
            derivative_order=args.derivative_order, window=args.window,
            burn_frac=args.burn_frac, rel_tol=args.rel_tol)
        if args.csv:
            series = report.series
            ds.write_csv(args.csv, ["t", "sign", "log_abs_det", "rolling", "min_sv", "max_sv"],
                         [[int(t), series.sign[i], series.log_abs_det[i], series.rolling[i],
                           series.min_sv[i], series.max_sv[i]]
                          for i, t in enumerate(series.times)],
                         comment=f"local rank diagnostic, dt={series.dt}")
    else:
        # the gramian's x(0) is the initial state of trajectory --grf-seed + 1
        seeds = [args.grf_seed + 1] if args.check == "gramian" else ()
        op, x0s = ds.lattice_system(_certificate_config(args), seeds)
        grid = GridSpec(n=args.grid)
        h = build_tokenizer_matrix(grid, args.patch, wave=wave)
        if seeds:
            report = obs.gramian_reconstruction(grid, h, op, x0s[0].ravel(), args.horizon,
                                                args.quadrature_steps, cond_limit=args.cond_limit)
        else:
            report = (obs.kalman_rank_test(op, h, rel_tol=args.rel_tol)
                      if args.check == "kalman" else obs.hautus_test(op, h, tol=args.tol))
    text = report.to_text()
    ds.atomic_write(args.out, text.encode())
    sys.stdout.write(text)
    return 0


def cmd_export(args) -> int:
    manifest = ds.load_field_manifest(args.data)
    if len(manifest.amplitude_shape) != 2:
        raise DataFormatError(f"{args.data}: export renders 2-d fields, not the "
                              f"{manifest.equation} frames of shape "
                              f"{tuple(manifest.frame_shape)}")
    fr = ds.load_trajectory(args.data, manifest, args.traj_index)
    if not 0 <= args.frame < fr.shape[0]:
        raise ParameterError(f"frame {args.frame} outside 0..{fr.shape[0] - 1}")
    field = ds.apply_normalization(amplitude(fr)[args.frame], ds.compute_normalization([fr]))
    ds.export_frame_image(field, args.out, colormap=args.colormap)
    print(f"wrote {args.out}")
    return 0


def _int_list(text: str) -> list:
    """``"1,2,4"`` -> [1, 2, 4]."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _pixel(text: str) -> tuple:
    """``"I,J"`` -> (I, J)."""
    values = _int_list(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected I,J, got {text!r}")
    return tuple(values)


class _Parser(argparse.ArgumentParser):
    """A bad command line is a ParameterError, reported like any other."""

    def error(self, message):
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="latentpde", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("generate", help="simulate a dataset")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", default=None)
    source.add_argument("--from-manifest", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("tokenize", help="patch-average a field dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--patch", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("fit", help="train a forecaster or super-resolution map")
    p.add_argument("--data", required=True)
    p.add_argument("--role", choices=("g", "super"), required=True)
    p.add_argument("--patch", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--learner", choices=("lstsq", "sgd"), default="lstsq")
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--train-frac", type=float, default=0.9)
    p.add_argument("--lr", type=float, default=1e-5)
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--sgd-seed", type=int, default=0)
    p.add_argument("--lr-decay", type=float, default=1.0)
    p.add_argument("--eval-split", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sweep", help="error vs history length")
    p.add_argument("--data", required=True)
    p.add_argument("--patch", type=int, required=True)
    p.add_argument("--k-list", type=_int_list, required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("rollout", help="autoregressive generation")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--super", default=None)
    p.add_argument("--traj-index", type=int, default=0)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("metrics", help="correlation / subvideo statistics")
    p.add_argument("kind", choices=("correlation", "subvideo"))
    p.add_argument("--data", required=True)
    p.add_argument("--pixel", type=_pixel, default="0,0")
    p.add_argument("--dt-max", type=int, default=50)
    p.add_argument("--clip-prefix", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("observability", help="certificates and diagnostics")
    p.add_argument("--check", choices=("kalman", "hautus", "witness", "gramian", "lie"),
                   required=True)
    p.add_argument("--equation", choices=("heat", "wave"), default="heat")
    p.add_argument("--grid", type=int, default=16)
    p.add_argument("--patch", type=int, default=4)
    p.add_argument("--constant", type=float, default=None)
    p.add_argument("--grf-seed", type=int, default=77)
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--quadrature-steps", type=int, default=200)
    p.add_argument("--cond-limit", type=float, default=1e12)
    p.add_argument("--data", default=None)
    p.add_argument("--derivative-order", type=int, default=5)
    p.add_argument("--window", type=int, default=50)
    p.add_argument("--burn-frac", type=float, default=0.5)
    p.add_argument("--csv", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_observability)

    p = sub.add_parser("export", help="render one frame to PGM/PPM")
    p.add_argument("--data", required=True)
    p.add_argument("--traj-index", type=int, default=0)
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--colormap", choices=("gray", "diverging"), default="gray")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = build_parser().parse_args(argv)
            # the verbs' products and factorizations run on one thread of
            # each OpenBLAS; the log-det diagnostic spends the cores on its
            # windows, a least-squares fit on the leaves of its QR tree
            with _one_blas_thread():
                code = args.func(args)
        except (LatentPdeError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            # an unreadable, missing or malformed file is a data/IO problem
            # like any other; the error line alone reports a failed run, so
            # warnings raised on the way there are dropped
            print(f"error: {exc}", file=sys.stderr)
            return getattr(exc, "exit_code", DataFormatError.exit_code)
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return code


if __name__ == "__main__":
    sys.exit(main())
