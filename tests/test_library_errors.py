"""The errors the library functions raise on bad arguments and bad data.

Every scalar argument below is checked by one table row, so each bad
value gives a ParameterError that names the function and the argument:
``<function>: <argument> must be ...``.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import latentpde.observability as obs
from latentpde import (DatasetManifest, DivergenceError, GridSpec, LinearMap, ParameterError,
                       TrainConfig, amplitude, annihilation_witness, autoregressive_rollout,
                       build_difference, build_histories, build_reconstruction_pairs,
                       build_tokenizer_matrix, correlation_ensemble_stats, empirical_lie_logdet,
                       etdrk_coefficients, euler_frames, export_frame_image, fit_blocks,
                       fit_least_squares, fit_sgd, fit_sgd_blocks, fit_superres, forecast_pairs,
                       full_pipeline_rollout, gramian_reconstruction, hautus_test, history_sweep,
                       kalman_rank_test, lie_logdet_report, linear_reconstruct_initial_state,
                       nearest_subvideo_distance, observability_gramian, rank_test,
                       residue_norms, simulate_kse1d, simulate_kse2d, sliding_histories,
                       temporal_correlation, tokenize_trajectory, write_dataset)

NAN, INF = float("nan"), float("inf")
BAD_VALUES = (0, -1, 2.5, NAN, INF, True, None, "x")
ALWAYS_REFUSED = (NAN, INF, None, "x")

_RNG = np.random.default_rng(24)
_LINE = _RNG.standard_normal((100, 40))
_FRAMES = _RNG.standard_normal((6, 4, 4))
_TOKENS = _RNG.standard_normal((6, 2))
_BLOCK = (_RNG.standard_normal((5, 2, 3)), _RNG.standard_normal((5, 4)))
_FORECASTER = LinearMap(np.zeros((2, 2)), None, 1, 2, (2,))
_TALL_BLOCK = (_RNG.standard_normal((20, 2, 3)), _RNG.standard_normal((20, 4)))


# function name -> (call taking the argument values as keywords, its valid arguments)
CALLS = {
    "euler_frames": (lambda **kw: euler_frames(np.zeros((4, 4)), np.zeros((1, 4)), **kw),
                     {"dt": 0.1, "steps": 3, "skip": 1}),
    "etdrk_coefficients": (lambda **kw: etdrk_coefficients(np.zeros(4), **kw),
                           {"dt": 0.1, "contour_points": 32}),
    "simulate_kse1d": (lambda **kw: simulate_kse1d(np.zeros(16), **kw),
                       {"domain_length": 22.0, "dt": 0.05, "steps": 3}),
    "simulate_kse2d": (lambda **kw: simulate_kse2d(np.zeros((8, 8)), **kw),
                       {"domain_length": 22.0, "dt": 0.05, "steps": 3, "skip": 1,
                        "burn_in": 0}),
    "rank_test": (lambda **kw: rank_test(np.eye(3), **kw), {"rel_tol": 1e-10}),
    "kalman_rank_test": (lambda **kw: kalman_rank_test(-np.eye(3), np.ones((1, 3)), **kw),
                         {"rel_tol": 1e-10}),
    "hautus_test": (lambda **kw: hautus_test(-np.eye(3), np.ones((1, 3)), **kw),
                    {"tol": 1e-8}),
    "annihilation_witness": (lambda **kw: annihilation_witness(GridSpec(n=8), **kw),
                             {"patch": 2, "wave": False}),
    "observability_gramian": (lambda **kw: observability_gramian(-np.eye(3), np.ones((1, 3)),
                                                                 **kw),
                              {"horizon": 1.0, "quadrature_steps": 4}),
    "linear_reconstruct_initial_state": (
        lambda **kw: linear_reconstruct_initial_state(-np.eye(2), np.eye(2), np.ones((3, 2)),
                                                      **kw),
        {"horizon": 1.0, "cond_limit": 1e12}),
    "gramian_reconstruction": (
        lambda **kw: gramian_reconstruction(GridSpec(n=2), np.eye(4), -np.eye(4), np.ones(4),
                                            **kw),
        {"horizon": 1.0, "quadrature_steps": 4, "cond_limit": 1e12}),
    "empirical_lie_logdet": (lambda **kw: empirical_lie_logdet(_LINE, **kw),
                             {"patch": 4, "derivative_order": 2, "window": 10,
                              "with_singular_values": False, "burn_frac": 0.0}),
    "lie_logdet_report": (lambda **kw: lie_logdet_report(_LINE, **kw),
                          {"patch": 4, "derivative_order": 2, "window": 10,
                           "burn_frac": 0.5, "rel_tol": 1e-10}),
    "fit_blocks": (lambda **kw: fit_blocks([_TALL_BLOCK], 20, **kw),
                   {"ridge": 0.0, "bias": True}),
    "fit_sgd_blocks": (lambda **kw: fit_sgd_blocks([_BLOCK], 5, TrainConfig(steps=1), **kw),
                       {"eval_split": 0.1, "bias": True}),
    "history_sweep": (lambda k: history_sweep([_TOKENS] * 2, [_TOKENS] * 2, [k]), {"k": 1}),
    "TrainConfig": (lambda **kw: TrainConfig(**kw), {"lr_decay": 1.0}),
    "autoregressive_rollout": (lambda **kw: autoregressive_rollout(_FORECASTER, np.ones((1, 2)),
                                                                   **kw),
                               {"steps": 3}),
    "residue_norms": (lambda **kw: residue_norms(np.ones((3, 2)), np.zeros((3, 2)), **kw),
                      {"norm": "l2"}),
    "tokenize_trajectory": (lambda **kw: tokenize_trajectory(_FRAMES, **kw), {"patch": 2}),
    "sliding_histories": (lambda **kw: sliding_histories(_TOKENS, **kw), {"k": 2}),
    "forecast_pairs": (lambda **kw: forecast_pairs(_TOKENS, **kw), {"k": 2}),
    "build_histories": (lambda **kw: build_histories(_FRAMES, **kw), {"k": 2, "patch": 2}),
    "build_reconstruction_pairs": (lambda **kw: build_reconstruction_pairs(_FRAMES, **kw),
                                   {"k": 2, "patch": 2}),
    "build_tokenizer_matrix": (lambda **kw: build_tokenizer_matrix(GridSpec(n=4), **kw),
                               {"patch": 2, "wave": False}),
    "build_difference": (lambda **kw: build_difference(GridSpec(n=4), **kw),
                         {"axis": "x", "direction": "forward"}),
}
CASES = [(name, arg) for name, (_, valid) in CALLS.items() for arg in valid]


@pytest.mark.parametrize("name, arg", CASES, ids=[f"{n}-{a}" for n, a in CASES])
def test_every_bad_scalar_argument_is_refused_by_its_row(name, arg):
    """0, -1, 2.5, NaN, infinity, True, None and "x" in each argument: the
    call returns or raises a ParameterError naming the function and the
    argument; NaN, infinity, None and "x" are always refused."""
    call, valid = CALLS[name]
    call(**valid)
    for value in BAD_VALUES:
        try:
            call(**dict(valid, **{arg: value}))
        except ParameterError as exc:
            assert str(exc).startswith(f"{name}: {arg} must be "), (value, str(exc))
        else:
            # "x" is one of the two axes of build_difference
            assert (not any(value is bad for bad in ALWAYS_REFUSED)
                    or (name, arg, value) == ("build_difference", "axis", "x")), value


def test_intervals_say_which_ends_they_hold():
    with pytest.raises(ParameterError, match=r"^rank_test: rel_tol must be in \(0, 1\), got 1$"):
        rank_test(np.eye(2), rel_tol=1)
    with pytest.raises(ParameterError,
                       match=r"^fit_sgd_blocks: eval_split must be in \[0, 1\), got 1$"):
        fit_sgd_blocks([_BLOCK], 5, TrainConfig(steps=1), eval_split=1)
    with pytest.raises(ParameterError, match=r"^TrainConfig: lr_decay must be in \(0, 1\]"):
        TrainConfig(lr_decay=1.5)
    TrainConfig(lr_decay=1)


def test_dt_max_is_an_integer_before_any_video_is_read():
    """The type of ``dt_max`` is its row; its range within the frames is
    checked on each video, so -1 and a lag past the frames are refused there."""
    video = np.random.default_rng(7).standard_normal((12, 4))
    for value in (2.5, NAN, INF, True, None, "x"):
        with pytest.raises(ParameterError, match="^temporal_correlation: dt_max must be an "):
            temporal_correlation(video, 0, value)
        with pytest.raises(ParameterError,
                           match="^correlation_ensemble_stats: dt_max must be an "):
            correlation_ensemble_stats(iter(()), 0, value)


def _manifest():
    return DatasetManifest(equation="heat", kind="fields", grid_size=4, trajectories=2,
                           frames=3, dt=0.1, skip=1, burn_in=0, frame_shape=[4, 4],
                           init_seeds=[0, 1], config={})


def _diverging_line():
    x = np.arange(32) * 22.0 / 32
    with np.errstate(over="ignore", invalid="ignore"):
        return simulate_kse1d(1e100 * np.sin(2 * np.pi * x / 22.0), 22.0, 0.05, 3)


def _diverging_square():
    x = np.arange(16) * 22.0 / 16
    u0 = 1e100 * np.sin(2 * np.pi * x / 22.0)[:, None] * np.ones((1, 16))
    with np.errstate(over="ignore", invalid="ignore"):
        return simulate_kse2d(u0, 22.0, 0.05, 3)


# data-dependent checks that no row covers: (call on a tmp_path, error, message)
RAISE_SITES = {
    "write_dataset-count": (
        lambda d: write_dataset([np.zeros((3, 4, 4))], _manifest(), str(d / "ds")),
        ParameterError, "1 trajectories but manifest says 2"),
    "write_dataset-shape": (
        lambda d: write_dataset([np.zeros((3, 4, 4)), np.zeros((3, 4, 2))], _manifest(),
                                str(d / "ds")),
        ParameterError, r"trajectory 1 shape \(3, 4, 2\)"),
    "export_frame_image-colormap": (
        lambda d: export_frame_image(np.zeros((4, 4)), str(d / "f.ppm"), colormap="jet"),
        ParameterError, "^export_frame_image: colormap must be in"),
    "fit_superres-1d-fields": (lambda d: fit_superres(np.zeros((5, 2, 3)), np.zeros(5)),
                               ParameterError, "spatial shape"),
    "_output_map-non-square": (lambda d: obs._output_map(np.zeros((3, 4)), np.zeros((1, 4))),
                               ParameterError, "must be square"),
    "rank_test-1d": (lambda d: rank_test(np.ones(3)), ParameterError, "2-d matrix"),
    "_step_propagator-dense-limit": (lambda d: obs._step_propagator(sp.eye(257), 1.0, 2),
                                     ParameterError, "limited to state dim 256, got 257"),
    "full_pipeline_rollout-token-dim": (
        lambda d: full_pipeline_rollout(_FORECASTER, LinearMap(np.zeros((4, 3)), None, 1, 3,
                                                               (2, 2)), np.ones((1, 2)), 3),
        ParameterError, "token dimension"),
    "residue_norms-1d": (lambda d: residue_norms(np.zeros(3), np.zeros(3)), ParameterError,
                         r"^residue_norms: need at least \(T, ...\)"),
    "residue_norms-shapes": (lambda d: residue_norms(np.zeros((3, 2)), np.zeros((3, 4))),
                             ParameterError, r"^residue_norms: shape mismatch \(3, 2\) vs"),
    "amplitude-components": (lambda d: amplitude(np.zeros((3, 3, 4, 4))), ParameterError,
                             "^amplitude: stacked states must have 2 components"),
    "tokenize_trajectory-3d-line": (
        lambda d: tokenize_trajectory(np.zeros((3, 4, 6)), 2), ParameterError,
        r"^tokenize_trajectory: expected \(T, N\) or \(T, n, n\) frames"),
    "tokenize_trajectory-patch-divides": (
        lambda d: tokenize_trajectory(np.zeros((3, 6, 6)), 4), ParameterError,
        "^tokenize_trajectory: patch 4 must divide grid size 6$"),
    "nearest_subvideo_distance-frames": (
        lambda d: nearest_subvideo_distance(np.zeros((2, 4)), np.zeros((5, 3))), ParameterError,
        r"^nearest_subvideo_distance: frame shapes differ: \(4,\) vs \(3,\)$"),
    "nearest_subvideo_distance-short": (
        lambda d: nearest_subvideo_distance(np.zeros((6, 4)), np.zeros((5, 4))), ParameterError,
        "^nearest_subvideo_distance: reference has 5 frames, clip needs at least 6$"),
    "simulate_kse1d-divergence": (lambda d: _diverging_line(), DivergenceError, "step 1$"),
    "simulate_kse2d-divergence": (lambda d: _diverging_square(), DivergenceError, "step 1$"),
    "fit_least_squares-2d-histories": (lambda d: fit_least_squares(np.zeros((5, 6)),
                                                                   np.zeros((5, 4))),
                                       ParameterError, r"must be \(S, k, m\)"),
    "fit_sgd-no-training-samples": (
        lambda d: fit_sgd(np.zeros((10, 2, 3)), np.zeros((10, 4)), TrainConfig(steps=1),
                          eval_split=0.95),
        ParameterError, "leaves no training samples"),
    "annihilation_witness-patch-divides": (
        lambda d: annihilation_witness(GridSpec(n=16), 3), ParameterError,
        "patch 3 must divide grid size 16"),
    "empirical_lie_logdet-lattice-frames": (
        lambda d: empirical_lie_logdet(np.zeros((10, 4, 4)), 2), ParameterError,
        r"line frames, got shape \(10, 4, 4\)"),
    "temporal_correlation-4d": (lambda d: temporal_correlation(np.zeros((5, 2, 2, 2)), 0, 1),
                                ParameterError,
                                r"^temporal_correlation: video must be \(T, m\) or \(T, n, n\)"),
    "correlation_ensemble_stats-pixel": (
        lambda d: correlation_ensemble_stats([np.ones((5, 4))] * 2, 4, 1), ParameterError,
        r"^correlation_ensemble_stats: pixel 4 outside the frame of shape \(4,\)$"),
    "simulate_kse1d-2d": (lambda d: simulate_kse1d(np.zeros((4, 4)), 22.0, 0.05, 3),
                          ParameterError, r"line field, got shape \(4, 4\)"),
    "sliding_histories-1d": (lambda d: sliding_histories(np.zeros(6), 2), ParameterError,
                             r"^sliding_histories: expected a \(T, m\) token array"),
    "sliding_histories-k-past-T": (lambda d: sliding_histories(_TOKENS, 7), ParameterError,
                                   r"^sliding_histories: k must be in \[1, 6\], got 7$"),
    "forecast_pairs-short": (lambda d: forecast_pairs(_TOKENS, 6), ParameterError,
                             r"^forecast_pairs: k must be in \[1, 5\], got 6$"),
    "build_histories-short": (lambda d: build_histories(_FRAMES, 6, 2), ParameterError,
                              r"^build_histories: k must be in \[1, 5\], got 6$"),
    "build_reconstruction_pairs-short": (
        lambda d: build_reconstruction_pairs(_FRAMES, 7, 2), ParameterError,
        r"^build_reconstruction_pairs: k must be in \[1, 6\], got 7$"),
    "temporal_correlation-dt-max": (
        lambda d: temporal_correlation(np.zeros((12, 4)), 0, -1), ParameterError,
        r"^temporal_correlation: dt_max must be in \[0, 10\], got -1$"),
}


@pytest.mark.parametrize("site", sorted(RAISE_SITES))
def test_each_data_check_raises_its_error(site, tmp_path):
    call, error, message = RAISE_SITES[site]
    with pytest.raises(error, match=message) as info:
        call(tmp_path)
    if error is DivergenceError:
        assert info.value.step == 1
