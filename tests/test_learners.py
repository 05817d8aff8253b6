from concurrent.futures import ThreadPoolExecutor
import ctypes
import threading

import numpy as np
from numpy._core import _multiarray_umath
import pytest
import scipy.linalg

from latentpde import (DataFormatError, DivergenceError, GridSpec, LinearMap, ParameterError,
                       TrainConfig, build_tokenizer_matrix, fit_blocks, fit_least_squares,
                       fit_sgd, fit_sgd_blocks, fit_superres, forecast_pairs, generate_dataset,
                       history_sweep, kalman_rank_test, lattice_system, mse_loss_and_grad,
                       tokenize_trajectory)
from latentpde import cli
from latentpde import learners as learners_module
from latentpde import observability as observability_module

from test_acceptance import GRF_COND, HEAT_BASE, latent_pairs, recon_pairs, split_normalize
from test_dataset_cli import TINY_HEAT


def make_linear_problem(samples, k, m, out_dim, seed, noise=0.0):
    rng = np.random.default_rng(seed)
    histories = rng.standard_normal((samples, k, m))
    true_w = rng.standard_normal((out_dim, k * m))
    true_b = rng.standard_normal(out_dim)
    targets = histories.reshape(samples, -1) @ true_w.T + true_b
    if noise:
        targets = targets + noise * rng.standard_normal(targets.shape)
    return histories, targets, true_w, true_b


def test_least_squares_recovers_exact_map():
    histories, targets, true_w, true_b = make_linear_problem(200, 3, 5, 4, seed=0)
    fitted = fit_least_squares(histories, targets)
    np.testing.assert_allclose(fitted.weights, true_w, atol=1e-9)
    np.testing.assert_allclose(fitted.bias, true_b, atol=1e-9)
    assert fitted.history_len == 3 and fitted.token_dim == 5
    assert fitted.output_shape == (4,)


def test_least_squares_is_optimal():
    histories, targets, _, _ = make_linear_problem(150, 2, 4, 3, seed=1, noise=0.3)
    fitted = fit_least_squares(histories, targets)
    x = histories.reshape(150, -1)
    best = np.mean((x @ fitted.weights.T + fitted.bias - targets) ** 2)
    rng = np.random.default_rng(2)
    for _ in range(100):
        dw = 1e-3 * rng.standard_normal(fitted.weights.shape)
        db = 1e-3 * rng.standard_normal(fitted.bias.shape)
        perturbed = np.mean((x @ (fitted.weights + dw).T + fitted.bias + db
                             - targets) ** 2)
        assert perturbed >= best - 1e-12


def test_no_bias_option():
    histories, targets, true_w, _ = make_linear_problem(100, 2, 3, 2, seed=3)
    fitted = fit_least_squares(histories, targets, bias=False)
    assert fitted.bias is None
    # without an intercept the recovered weights must absorb nothing
    centered_targets = histories.reshape(100, -1) @ true_w.T
    refit = fit_least_squares(histories, centered_targets, bias=False)
    np.testing.assert_allclose(refit.weights, true_w, atol=1e-9)


def test_ridge_shrinks_weights_not_bias():
    histories, targets, _, _ = make_linear_problem(300, 2, 4, 3, seed=4, noise=0.1)
    plain = fit_least_squares(histories, targets)
    ridged = fit_least_squares(histories, targets, ridge=10.0)
    assert np.linalg.norm(ridged.weights) < np.linalg.norm(plain.weights)
    # a large constant shift must still be tracked exactly by the intercept
    shifted = fit_least_squares(histories, targets + 100.0, ridge=10.0)
    np.testing.assert_allclose(shifted.weights, ridged.weights, atol=1e-8)
    np.testing.assert_allclose(shifted.bias, ridged.bias + 100.0, atol=1e-8)


def test_ridge_matches_normal_equations():
    ridge = 0.7
    for s in (80, 4):  # 4 samples: fewer rows than the 7 columns
        histories, targets, _, _ = make_linear_problem(s, 2, 3, 2, seed=5, noise=0.2)
        fitted = fit_least_squares(histories, targets, ridge=ridge)
        x = np.hstack([histories.reshape(s, -1), np.ones((s, 1))])
        reg = ridge * s * np.eye(x.shape[1])
        reg[-1, -1] = 0.0  # intercept not penalised
        theta = np.linalg.solve(x.T @ x + reg, x.T @ targets)
        np.testing.assert_allclose(fitted.weights, theta[:-1].T, atol=1e-8)
        np.testing.assert_allclose(fitted.bias, theta[-1], atol=1e-8)


def test_rank_deficient_duplicate_feature():
    rng = np.random.default_rng(6)
    base = rng.standard_normal((50, 1, 3))
    histories = np.concatenate([base, base[:, :, :1]], axis=2)  # column 3 = column 0
    targets = base[:, 0, :1] * 2.0
    with pytest.warns(RuntimeWarning, match="rank"):
        fitted = fit_least_squares(histories, targets)
    assert fitted.design_rank == 4
    # minimum-norm solution splits the weight across the duplicates
    assert fitted.weights[0, 0] == pytest.approx(fitted.weights[0, 3], abs=1e-8)
    pred = fitted.apply(histories)
    np.testing.assert_allclose(pred, targets, atol=1e-8)


def test_wide_design_gives_the_minimum_norm_solution():
    rng = np.random.default_rng(15)
    histories = rng.standard_normal((6, 2, 5))
    targets = rng.standard_normal((6, 3))
    with pytest.warns(RuntimeWarning, match="rank 6 < 11"):
        fitted = fit_least_squares(histories, targets)
    theta = np.linalg.pinv(np.hstack([histories.reshape(6, -1), np.ones((6, 1))])) @ targets
    np.testing.assert_allclose(fitted.weights, theta[:-1].T, atol=1e-10)
    np.testing.assert_allclose(fitted.bias, theta[-1], atol=1e-10)
    np.testing.assert_allclose(fitted.apply(histories), targets, atol=1e-10)


@pytest.mark.parametrize("order", ["C", "F"])
def test_least_squares_leaves_its_inputs_unchanged(order):
    histories, targets, _, _ = make_linear_problem(40, 2, 3, 2, seed=16, noise=0.1)
    histories, targets = np.asarray(histories, order=order), np.asarray(targets, order=order)
    kept = histories.copy(), targets.copy()
    for ridge in (0.0, 0.5):
        fit_least_squares(histories, targets, ridge=ridge)
    np.testing.assert_array_equal(histories, kept[0])
    np.testing.assert_array_equal(targets, kept[1])


def test_least_squares_rejects_non_finite_input():
    histories, targets, _, _ = make_linear_problem(20, 2, 3, 2, seed=17)
    for bad, where in ((np.nan, histories), (np.inf, targets)):
        spoilt = where.copy()
        spoilt.flat[5] = bad
        args = (spoilt, targets) if where is histories else (histories, spoilt)
        with pytest.raises(ParameterError, match="finite"):
            fit_least_squares(*args)


def test_sgd_refuses_a_non_finite_sample_as_least_squares_does():
    """A NaN or an infinity in a block is refused as the block is read, by
    either learner, before any step could diverge on it."""
    histories, targets, _, _ = make_linear_problem(20, 2, 3, 2, seed=17)
    for bad, where in ((np.nan, histories), (np.inf, targets)):
        spoilt = where.copy()
        spoilt.flat[5] = bad
        block = (spoilt, targets) if where is histories else (histories, spoilt)
        for name, fit in (("fit_blocks", fit_blocks),
                          ("fit_sgd_blocks",
                           lambda *args: fit_sgd_blocks(*args, TrainConfig(steps=1)))):
            with pytest.raises(ParameterError,
                               match=f"^{name}: histories and targets must be finite$"):
                fit([block], 20)


def test_fit_blocks_checks_its_ridge_with_the_train_config_row():
    histories, targets, _, _ = make_linear_problem(20, 2, 3, 2, seed=17)
    for ridge in (-1.0, np.nan, np.inf, True):
        with pytest.raises(ParameterError, match="^fit_blocks: ridge must be "):
            fit_least_squares(histories, targets, ridge=ridge)
        with pytest.raises(ParameterError, match="^TrainConfig: ridge must be "):
            TrainConfig(ridge=ridge)


@pytest.mark.parametrize("ridge", [0.0, 0.5])
def test_fit_blocks_equals_one_block_fit_bit_for_bit(ridge):
    """Window views of several token trajectories, fitted block by block,
    give the bytes of one fit on their concatenated copies."""
    rng = np.random.default_rng(18)
    trajectories = [rng.standard_normal((t, 3)) for t in (9, 12, 7)]
    pairs = [forecast_pairs(tokens, 2) for tokens in trajectories]
    whole = fit_least_squares(*(np.concatenate(part) for part in zip(*pairs)), ridge=ridge)
    streamed = fit_blocks(iter(pairs), 22, ridge=ridge)
    for a, b in ((whole.weights, streamed.weights), (whole.bias, streamed.bias)):
        assert a.tobytes() == b.tobytes()
    assert (streamed.design_rank, streamed.output_shape) == (whole.design_rank, (3,))


def test_fit_blocks_refuses_blocks_that_break_their_count_or_shape():
    rng = np.random.default_rng(19)
    block = (rng.standard_normal((5, 2, 3)), rng.standard_normal((5, 4)))
    for samples in (4, 6):
        with pytest.raises(ParameterError, match="^fit_blocks: .*samples"):
            fit_blocks([block], samples)
    # a block past a full lone leaf is still read, and refused
    with pytest.raises(ParameterError, match="^fit_blocks: a block of .* after 5 samples"):
        fit_blocks([block, block], 5)
    # later blocks must match the first one's history shape and output size
    for hist, tgt in (((5, 3, 3), (5, 4)), ((5, 2, 2), (5, 4)), ((5, 2, 3), (5, 5)),
                      ((5, 2, 3), (4, 4))):
        with pytest.raises(ParameterError, match="^fit_blocks: a block of "):
            fit_blocks([block, (np.zeros(hist), np.zeros(tgt))], 10)
    with pytest.raises(ParameterError, match="^fit_blocks: histories hold no samples$"):
        fit_blocks([], 0)
    # a target of no outputs is refused before any array is sized to it
    with pytest.raises(ParameterError, match="^fit_blocks: targets of shape \\(0,\\) hold no "):
        fit_least_squares(block[0], np.zeros((5, 0)))
    # 2,100 samples are a tree of two leaves: blocks one sample short leave
    # the last leaf unfilled and reach the count check at the end of the
    # stream, and blocks one sample over are refused at the block that
    # passes the count
    tall = [(rng.standard_normal((700, 2, 3)), rng.standard_normal((700, 4)))] * 3
    with pytest.raises(ParameterError, match="^fit_blocks: the blocks hold 2100 samples, not "
                                             "2101$"):
        fit_blocks(iter(tall), 2101)
    with pytest.raises(ParameterError, match="^fit_blocks: a block of .* after 1400 samples"):
        fit_blocks(iter(tall), 2099)


@pytest.mark.parametrize("eval_split", [0.0, 0.3])
def test_fit_sgd_blocks_equals_one_block_fit_bit_for_bit(eval_split):
    """Adam on window views of several token trajectories, read block by
    block into their permuted rows, gives the bytes of Adam on their
    concatenated copies."""
    rng = np.random.default_rng(18)
    trajectories = [rng.standard_normal((t, 3)) for t in (9, 12, 7)]
    pairs = [forecast_pairs(tokens, 2) for tokens in trajectories]
    config = TrainConfig(learning_rate=0.05, steps=30, batch_size=4, seed=2, ridge=1e-3)
    whole, whole_curves = fit_sgd(*(np.concatenate(part) for part in zip(*pairs)), config,
                                  eval_split=eval_split)
    streamed, curves = fit_sgd_blocks(iter(pairs), 22, config, eval_split=eval_split)
    for a, b in ((whole.weights, streamed.weights), (whole.bias, streamed.bias),
                 *((whole_curves[key], curves[key]) for key in ("train", "eval"))):
        assert a.tobytes() == b.tobytes()
    assert len(curves["eval"]) == (len(curves["train"]) if eval_split else 0)


@pytest.mark.parametrize("eval_split", [0.0, 0.1])
def test_adam_on_window_views_above_the_statistics_chunk(eval_split):
    """Window views of six token trajectories give the weight, bias and
    curve bytes of the same histories copied into one (S, k, m) array, and
    of a mix of views and copies: the fit stores a view's frames once and
    a copy's k frames per history, and gathers the same rows from either.
    The 762 samples leave a training split of three or more chunks of
    split statistics, whose last curve point lies within the cancellation
    bound of a direct residual evaluation.  A NaN in a token array is
    refused through its views."""
    rng = np.random.default_rng(48)
    k, samples = 3, 6 * 127
    true_w = rng.standard_normal((4, k * 4))
    trajectories = [rng.standard_normal((130, 4)) for _ in range(6)]
    pairs = [(hist, hist.reshape(len(hist), -1) @ true_w.T + 0.1 * tokens[k:])
             for tokens in trajectories for hist in [forecast_pairs(tokens, k)[0]]]
    mixed = [(hist.copy() if i % 2 else hist, tgt) for i, (hist, tgt) in enumerate(pairs)]
    histories, targets = (np.concatenate(part) for part in zip(*pairs))
    config = TrainConfig(learning_rate=0.02, steps=300, batch_size=32, seed=9)
    copied, copied_curves = fit_sgd(histories, targets, config, eval_split=eval_split)
    for blocks in (pairs, mixed):
        fitted, curves = fit_sgd_blocks(iter(blocks), samples, config, eval_split=eval_split)
        for a, b in ((copied.weights, fitted.weights), (copied.bias, fitted.bias),
                     *((copied_curves[key], curves[key]) for key in ("train", "eval"))):
            assert a.tobytes() == b.tobytes()
    n_eval = int(round(eval_split * samples))
    assert samples - n_eval > 2 * learners_module._STATS_ROWS
    train = np.random.default_rng(9).permutation(samples)[n_eval:]
    x, y = histories.reshape(samples, -1)[train], targets[train]
    direct = mse_loss_and_grad(fitted.weights, fitted.bias, x, y)[0]
    assert abs(curves["train"][-1] - direct) <= _cancellation_bound(x, y, fitted.weights,
                                                                     fitted.bias)
    trajectories[2][40, 1] = np.nan
    with pytest.raises(ParameterError, match="^fit_sgd_blocks: histories and targets must be "
                                             "finite$"):
        fit_sgd_blocks([(forecast_pairs(tokens, k)[0], np.zeros((127, 4)))
                        for tokens in trajectories], samples, config)


def test_fit_sgd_blocks_refuses_blocks_that_break_their_count_or_shape():
    rng = np.random.default_rng(19)
    block = (rng.standard_normal((5, 2, 3)), rng.standard_normal((5, 4)))
    config = TrainConfig(steps=1)
    for samples in (4, 6):
        with pytest.raises(ParameterError, match="^fit_sgd_blocks: .*samples"):
            fit_sgd_blocks([block], samples, config)
    with pytest.raises(ParameterError, match="^fit_sgd_blocks: a block of "):
        fit_sgd_blocks([block, (np.zeros((5, 2, 2)), np.zeros((5, 4)))], 10, config)
    with pytest.raises(ParameterError, match="^fit_sgd_blocks: histories hold no samples$"):
        fit_sgd_blocks([], 0, config)
    # a target of no outputs is refused as least squares refuses it
    with pytest.raises(ParameterError,
                       match="^fit_sgd_blocks: targets of shape \\(0,\\) hold no "):
        fit_sgd(block[0], np.zeros((5, 0)), config)


@pytest.fixture(scope="module")
def heat_train():
    """The 100 normalized training trajectories of ACCEPTANCE 4 and 5."""
    arrays, _ = generate_dataset(dict(HEAT_BASE, conductivity=GRF_COND))
    return split_normalize(arrays, 100)[0]


def _promise_design(name, heat_train):
    if name == "heat-g":
        return latent_pairs(heat_train, 16, 4)
    if name == "heat-super":
        return recon_pairs(heat_train, 16, 4)
    # the designs of the sweep golden run: TINY_HEAT, one eval trajectory,
    # patch 4; at k = 4 there are fewer rows (16) than columns (17)
    arrays, _ = generate_dataset(TINY_HEAT)
    train, _ = split_normalize(arrays, 2)
    pairs = [forecast_pairs(tokenize_trajectory(a, 4), int(name[-1])) for a in train]
    return tuple(np.concatenate(part) for part in zip(*pairs))


@pytest.mark.parametrize("name", ["tiny-k1", "tiny-k2", "tiny-k4", "heat-g", "heat-super"])
@pytest.mark.filterwarnings("ignore:rank-deficient design:RuntimeWarning")
def test_least_squares_keeps_its_promise(name, heat_train):
    """What ``fit`` promises, against an independent backward-stable
    solver (SVD-based gelsd on the full design).

    The promise is these tolerances, not weight bytes: on a rank-deficient
    design the saved weights and ``design_rank`` depend on where a LAPACK
    path cuts at rounding level.  Training predictions agree within 1e-4
    relative, and the residual norm is no larger than the reference's by
    more than 1e-6 ||y||.  That bound is one-sided because two correct
    solvers may differ in the other direction: on the heat-super design
    the fit's residual is 2 % (1.1e-6 ||y||) below gelsd's.
    """
    histories, targets = _promise_design(name, heat_train)
    fitted = fit_least_squares(histories, targets)
    design = np.hstack([histories.reshape(len(histories), -1), np.ones((len(histories), 1))])
    y = targets.reshape(len(targets), -1)
    reference = design @ scipy.linalg.lstsq(design, y, lapack_driver="gelsd")[0]
    pred = fitted.apply(histories).reshape(y.shape)
    assert np.linalg.norm(pred - reference) <= 1e-4 * np.linalg.norm(reference)
    assert np.linalg.norm(pred - y) <= np.linalg.norm(reference - y) + 1e-6 * np.linalg.norm(y)


def test_sample_order_invariance():
    histories, targets, _, _ = make_linear_problem(120, 2, 4, 3, seed=7, noise=0.05)
    fitted = fit_least_squares(histories, targets)
    perm = np.random.default_rng(8).permutation(120)
    refit = fit_least_squares(histories[perm], targets[perm])
    np.testing.assert_allclose(refit.weights, fitted.weights, atol=1e-9)
    np.testing.assert_allclose(refit.bias, fitted.bias, atol=1e-9)


def test_apply_shapes():
    histories, targets, _, _ = make_linear_problem(10, 2, 3, 4, seed=9)
    fitted = fit_least_squares(histories, targets)
    single = fitted.apply(histories[0])
    assert single.shape == (4,)
    np.testing.assert_allclose(single, fitted.apply(histories)[0])
    with pytest.raises(ParameterError):
        fitted.apply(np.ones((3, 3)))


def test_flat_inputs_are_refused():
    """A history is (..., k, m) and an output map (m, n); neither is read
    from a flat vector."""
    histories, targets, _, _ = make_linear_problem(10, 2, 3, 4, seed=9)
    fitted = fit_least_squares(histories, targets)
    with pytest.raises(ParameterError):
        fitted.apply(histories[0].ravel())
    with pytest.raises(ParameterError):
        kalman_rank_test(np.eye(3), np.ones(3))


@pytest.mark.parametrize("fit", [fit_least_squares,
                                 lambda h, t: fit_sgd(h, t, TrainConfig(steps=1))])
def test_fits_refuse_zero_samples(fit):
    histories, targets, _, _ = make_linear_problem(10, 2, 3, 4, seed=9)
    with pytest.raises(ParameterError, match="no samples"):
        fit(histories[:0], targets[:0])


def test_superres_recovers_field_map():
    rng = np.random.default_rng(10)
    histories = rng.standard_normal((120, 2, 4))
    true_w = rng.standard_normal((36, 8))
    fields = (histories.reshape(120, -1) @ true_w.T).reshape(120, 6, 6)
    fitted = fit_superres(histories, fields)
    assert fitted.output_shape == (6, 6)
    np.testing.assert_allclose(fitted.weights, true_w, atol=1e-8)
    pred = fitted.apply(histories[3])
    np.testing.assert_allclose(pred, fields[3], atol=1e-8)


def test_save_load_roundtrip(tmp_path):
    histories, targets, _, _ = make_linear_problem(40, 2, 3, 2, seed=11)
    fitted = fit_least_squares(histories, targets)
    path = tmp_path / "map.lpm"
    fitted.save(path)
    loaded = LinearMap.load(path)
    np.testing.assert_array_equal(loaded.weights, fitted.weights)
    np.testing.assert_array_equal(loaded.bias, fitted.bias)
    assert loaded.history_len == fitted.history_len
    assert loaded.output_shape == fitted.output_shape
    assert loaded.patch is None and loaded.normalization is None
    fitted.patch, fitted.normalization = 4, {"lo": -1.5, "hi": 2.0, "constant": False}
    fitted.save(path)
    loaded = LinearMap.load(path)
    assert (loaded.patch, loaded.normalization) == (fitted.patch, fitted.normalization)


def test_load_rejects_corrupt_files(tmp_path):
    histories, targets, _, _ = make_linear_problem(40, 2, 3, 2, seed=12)
    fitted = fit_least_squares(histories, targets)
    path = tmp_path / "map.lpm"
    fitted.save(path)
    raw = path.read_bytes()
    (tmp_path / "trunc.lpm").write_bytes(raw[:-16])
    with pytest.raises(DataFormatError):
        LinearMap.load(tmp_path / "trunc.lpm")
    (tmp_path / "garbage.lpm").write_bytes(b"not a model" + raw)
    with pytest.raises(DataFormatError):
        LinearMap.load(tmp_path / "garbage.lpm")
    # a map of no outputs, which no fit makes: its header and payload agree
    LinearMap(np.zeros((0, 6)), np.zeros(0), 2, 3, (0,)).save(tmp_path / "empty.lpm")
    with pytest.raises(DataFormatError, match="out_dim"):
        LinearMap.load(tmp_path / "empty.lpm")


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((30, 8))
    y = rng.standard_normal((30, 3))
    w = rng.standard_normal((3, 8))
    b = rng.standard_normal(3)
    loss, gw, gb = mse_loss_and_grad(w, b, x, y, ridge=0.3)
    eps = 1e-6
    for idx in [(0, 0), (1, 4), (2, 7)]:
        wp = w.copy()
        wp[idx] += eps
        wm = w.copy()
        wm[idx] -= eps
        lp, _, _ = mse_loss_and_grad(wp, b, x, y, ridge=0.3)
        lm, _, _ = mse_loss_and_grad(wm, b, x, y, ridge=0.3)
        fd = (lp - lm) / (2 * eps)
        assert gw[idx] == pytest.approx(fd, rel=1e-6)
    bp = b.copy()
    bp[1] += eps
    bm = b.copy()
    bm[1] -= eps
    lp, _, _ = mse_loss_and_grad(w, bp, x, y, ridge=0.3)
    lm, _, _ = mse_loss_and_grad(w, bm, x, y, ridge=0.3)
    assert gb[1] == pytest.approx((lp - lm) / (2 * eps), rel=1e-6)


def test_sgd_deterministic_and_converging():
    histories, targets, _, _ = make_linear_problem(200, 1, 4, 2, seed=14)
    config = TrainConfig(learning_rate=0.05, steps=4000, batch_size=32, seed=3)
    fitted, curves = fit_sgd(histories, targets, config)
    again, _ = fit_sgd(histories, targets, config)
    np.testing.assert_array_equal(fitted.weights, again.weights)
    assert curves["train"][-1] < curves["train"][0] / 100
    assert len(curves["eval"]) == len(curves["train"])
    exact = fit_least_squares(histories, targets)
    assert np.abs(fitted.weights - exact.weights).max() < 0.05


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_sgd_zero_steps_and_divergence():
    histories, targets, _, _ = make_linear_problem(50, 1, 3, 2, seed=15)
    fitted, curves = fit_sgd(histories, targets, TrainConfig(steps=0))
    assert np.all(fitted.weights == 0.0) and np.all(fitted.bias == 0.0)
    assert len(curves["train"]) == 1
    # Adam step sizes are bounded by the learning rate, so overflow needs
    # a rate near the float ceiling
    huge = TrainConfig(learning_rate=1e300, steps=500, batch_size=16)
    with pytest.raises(DivergenceError) as err:
        fit_sgd(histories, targets, huge)
    assert err.value.step is not None


def _cancellation_bound(x, y, weights, bias):
    """c·eps·(tr(W G Wᵀ) + ‖Y‖² + n ‖b‖²)/n with c = 2(k·m + √n), the
    bound the statistics-based loss keeps against a residual evaluation."""
    n, d = x.shape
    size = float(((x @ weights.T) ** 2).sum() + (y**2).sum())
    if bias is not None:
        size += n * float(bias @ bias)
    return 2 * (d + np.sqrt(n)) * np.finfo(float).eps * size / n


@pytest.mark.parametrize("eval_split", [0.0, 0.2])
@pytest.mark.parametrize("ridge", [0.0, 1e-3])
@pytest.mark.parametrize("bias", [True, False])
def test_adam_curve_matches_a_residual_evaluation(bias, ridge, eval_split):
    """The last point of each curve is the loss of the returned map on its
    split; it agrees with a direct residual evaluation within the
    cancellation bound, from the zero map to a fitted one."""
    histories, targets, _, _ = make_linear_problem(120, 2, 3, 4, seed=31, noise=0.1)
    x, y = histories.reshape(120, -1), targets
    perm = np.random.default_rng(5).permutation(120)
    n_eval = int(round(eval_split * 120))
    rows = {"eval": perm[:n_eval], "train": perm[n_eval:]}
    for steps in (0, 7, 300):
        config = TrainConfig(learning_rate=0.05, steps=steps, batch_size=16, seed=5,
                             ridge=ridge)
        fitted, curves = fit_sgd(histories, targets, config, eval_split=eval_split, bias=bias)
        assert len(curves["eval"]) == (len(curves["train"]) if eval_split else 0)
        for key in ("train", "eval") if eval_split else ("train",):
            xs, ys = x[rows[key]], y[rows[key]]
            direct = mse_loss_and_grad(fitted.weights, fitted.bias, xs, ys, ridge)[0]
            assert abs(curves[key][-1] - direct) <= _cancellation_bound(
                xs, ys, fitted.weights, fitted.bias), (steps, key)
        assert min(curves["train"].min(), curves["eval"].min(initial=0.0)) >= 0.0


@pytest.mark.parametrize("ridge", [0.0, 1e-3])
@pytest.mark.parametrize("bias", [True, False])
def test_split_loss_of_an_exactly_realisable_target(bias, ridge):
    """At the weights that generated the targets the data term cancels to
    rounding level: it stays within the bound of zero, never below."""
    for seed in range(20):
        histories, _, true_w, true_b = make_linear_problem(500, 4, 3, 5, seed=seed)
        x = 10.0 + histories.reshape(500, -1)
        b = true_b if bias else None
        y = x @ true_w.T + (true_b if bias else 0.0)
        penalty = ridge * float((true_w**2).sum())
        loss = learners_module._SplitStats(x, np.arange(500), y).loss(true_w, b, ridge)
        direct = mse_loss_and_grad(true_w, b, x, y, ridge)[0]
        bound = _cancellation_bound(x, y, true_w, b)
        assert loss >= penalty
        assert loss - penalty <= bound
        assert abs(loss - direct) <= bound


# the extension modules that link numpy's and scipy's copies of OpenBLAS,
# each copy with its own process-wide thread count
NUMPY_BLAS, SCIPY_BLAS = _multiarray_umath, scipy.linalg._fblas
# each copy's thread count getter, under the name its wheel exports
_GETTERS = {NUMPY_BLAS: "scipy_openblas_get_num_threads64_",
            SCIPY_BLAS: "scipy_openblas_get_num_threads"}


def _thread_getter(module):
    """The thread count getter of the OpenBLAS copy ``module`` links, or
    None when it links another BLAS."""
    try:
        getter = getattr(ctypes.CDLL(module.__file__), _GETTERS[module])
    except AttributeError:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter


def _blas_threads(module=NUMPY_BLAS):
    """The thread count of the OpenBLAS copy ``module`` links, numpy's by
    default, or None when it links another BLAS.  The count is
    process-wide: a setter called on any thread changes it for all of
    them."""
    getter = _thread_getter(module)
    return None if getter is None else getter()


@pytest.mark.parametrize("module", [NUMPY_BLAS, SCIPY_BLAS], ids=["numpy", "scipy"])
def test_a_copy_that_reads_its_thread_count_can_be_pinned(module):
    """Where a copy's getter resolves, the copy is scipy-openblas, and its
    setter must resolve too: the pin tests skip when a setter is missing,
    so a wheel that renamed the symbol would otherwise stop pinning
    without a failing test.  The setter sets that copy's count alone and
    returns the count it replaced."""
    getter = _thread_getter(module)
    if getter is None:
        pytest.skip("this copy is not scipy-openblas")
    setter = learners_module._blas_thread_setter(module)
    assert setter is not None
    other = _thread_getter(SCIPY_BLAS if module is NUMPY_BLAS else NUMPY_BLAS)
    untouched = None if other is None else other()
    outer = setter(3)
    try:
        assert getter() == 3
        assert setter(2) == 3 and getter() == 2
        assert other is None or other() == untouched
    finally:
        setter(outer)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_adam_steps_on_one_blas_thread_and_restores_the_count(monkeypatch):
    setter = learners_module._blas_thread_setter(NUMPY_BLAS)
    if setter is None or _blas_threads() is None:
        pytest.skip("numpy does not run scipy-openblas")
    seen = []
    step = learners_module.mse_loss_and_grad

    def counted(*args, **kwargs):
        seen.append(_blas_threads())
        return step(*args, **kwargs)

    monkeypatch.setattr(learners_module, "mse_loss_and_grad", counted)
    histories, targets, _, _ = make_linear_problem(50, 1, 3, 2, seed=15)
    huge = TrainConfig(learning_rate=1e300, steps=500, batch_size=16)
    # a count other than 1, whatever an earlier call left behind
    outer = setter(2)
    try:
        before = _blas_threads()
        fit_sgd(histories, targets, TrainConfig(steps=20))
        assert set(seen) == {1}
        assert _blas_threads() == before
        with pytest.raises(DivergenceError):
            fit_sgd(histories, targets, huge)
        assert _blas_threads() == before
    finally:
        setter(outer)


def test_adam_without_the_thread_setter_gives_the_same_bytes(monkeypatch):
    """At the benchmark's product shape (batches of 64 by 512 features by
    64 outputs), large enough for OpenBLAS to share among threads."""
    histories, targets, _, _ = make_linear_problem(600, 8, 64, 64, seed=32, noise=0.1)
    config = TrainConfig(learning_rate=1e-3, steps=40, batch_size=64, seed=6, ridge=1e-3)
    scoped, scoped_curves = fit_sgd(histories, targets, config)
    monkeypatch.setattr(learners_module, "_blas_thread_setter", lambda module: None)
    plain, plain_curves = fit_sgd(histories, targets, config)
    for a, b in ((scoped.weights, plain.weights), (scoped.bias, plain.bias),
                 *((scoped_curves[key], plain_curves[key]) for key in ("train", "eval"))):
        assert a.tobytes() == b.tobytes()


def test_a_library_adam_fit_keeps_its_bits_on_any_thread_count():
    """Window blocks of 6,424 samples in all, 512 columns (k 8, m 64) and
    64 outputs, batches of 64: the split statistics' Gram products and
    ‖Y‖² dot products are long enough for OpenBLAS to share among
    threads.  A library call gives the same weight, bias and curve bytes
    whatever count the caller left numpy's OpenBLAS at, and leaves that
    count."""
    setter = learners_module._blas_thread_setter(NUMPY_BLAS)
    if setter is None or _blas_threads() is None:
        pytest.skip("numpy does not run scipy-openblas")
    rng = np.random.default_rng(45)
    trajectories = [rng.standard_normal((811, 64)) for _ in range(8)]
    config = TrainConfig(learning_rate=1e-3, steps=60, batch_size=64, seed=7)
    outputs = []
    outer = setter(1)
    try:
        for threads in (1, 2):
            setter(threads)
            pairs = [forecast_pairs(tokens, 8) for tokens in trajectories]
            fitted, curves = fit_sgd_blocks(pairs, 6424, config)
            assert _blas_threads() == threads
            outputs.append([fitted.weights.tobytes(), fitted.bias.tobytes(),
                            curves["train"].tobytes(), curves["eval"].tobytes()])
    finally:
        setter(outer)
    assert outputs[0] == outputs[1]


def test_window_svds_keep_their_bits_on_any_number_of_workers(monkeypatch):
    """The pool takes one worker fewer than the BLAS threads the caller
    had, and none on one thread; the calling thread is the last worker.
    Of the 26 windows the last 13 are examined, two chunks of unequal
    size; each split gives the bytes of one serial SVD."""
    setter = learners_module._blas_thread_setter(NUMPY_BLAS)
    if setter is None:
        pytest.skip("numpy does not run scipy-openblas")
    frames = np.random.default_rng(41).standard_normal((65, 40))
    windows = np.lib.stride_tricks.sliding_window_view(frames, 40, axis=0)
    with learners_module._one_blas_thread():
        svals = np.linalg.svd(windows[13:], compute_uv=False)
    sizes = []

    class Recorded(ThreadPoolExecutor):
        def __init__(self, workers):
            sizes.append(workers)
            super().__init__(workers)

    def extremes():
        series = observability_module.empirical_lie_logdet(
            frames, patch=1, derivative_order=1, with_singular_values=True, burn_frac=0.5)
        assert np.isnan(series.min_sv[:13]).all() and np.isnan(series.max_sv[:13]).all()
        assert series.min_sv[13:].tobytes() == svals[:, -1].tobytes()
        assert series.max_sv[13:].tobytes() == svals[:, 0].tobytes()

    monkeypatch.setattr(observability_module, "ThreadPoolExecutor", Recorded)
    outer = setter(1)
    try:
        for workers in (1, 2, 3):
            setter(workers)
            extremes()
    finally:
        setter(outer)
    # without the setter the calling thread works alone
    monkeypatch.setattr(learners_module, "_blas_thread_setter", lambda module: None)
    extremes()
    assert sizes == [1, 2]


def test_a_library_log_det_keeps_its_bits_on_any_thread_count():
    """Windows of dimension 150, whose LU OpenBLAS shares among threads: a
    library call gives the same determinants and singular values whatever
    count the caller left numpy's OpenBLAS at, and leaves that count."""
    setter = learners_module._blas_thread_setter(NUMPY_BLAS)
    if setter is None or _blas_threads() is None:
        pytest.skip("numpy does not run scipy-openblas")
    frames = np.random.default_rng(43).standard_normal((170, 150))
    outputs = []
    outer = setter(1)
    try:
        for threads in (1, 2):
            setter(threads)
            series = observability_module.empirical_lie_logdet(
                frames, patch=1, derivative_order=1, window=5, with_singular_values=True)
            assert _blas_threads() == threads
            outputs.append([series.sign.tobytes(), series.log_abs_det.tobytes(),
                            series.min_sv.tobytes(), series.max_sv.tobytes()])
    finally:
        setter(outer)
    assert outputs[0] == outputs[1]


def test_each_verb_runs_on_one_blas_thread_and_restores_the_count(tmp_path, monkeypatch,
                                                                  capsys):
    """Both OpenBLAS copies, numpy's and scipy's, read one thread inside a
    verb and their own earlier counts after it, on exit 0, 2 and 3."""
    setters = [learners_module._blas_thread_setter(NUMPY_BLAS),
               learners_module._blas_thread_setter(SCIPY_BLAS)]
    if None in setters or _blas_threads() is None or _blas_threads(SCIPY_BLAS) is None:
        pytest.skip("numpy or scipy does not run scipy-openblas")
    seen = []
    witness = observability_module.witness_orbit

    def counted(*args, **kwargs):
        seen.append((_blas_threads(), _blas_threads(SCIPY_BLAS)))
        return witness(*args, **kwargs)

    monkeypatch.setattr(observability_module, "witness_orbit", counted)
    out = str(tmp_path / "out")
    # counts other than 1, and other than each other, whatever an earlier
    # call left behind
    outer = [setter(count) for setter, count in zip(setters, (3, 2))]
    try:
        for argv, code in ((["observability", "--check", "witness", "--grid", "16",
                             "--patch", "4"], 0),
                           (["observability", "--check", "lie"], 2),
                           (["export", "--data", str(tmp_path / "missing")], 3)):
            assert cli.main([*argv, "--out", out]) == code, argv
            assert (_blas_threads(), _blas_threads(SCIPY_BLAS)) == (3, 2), argv
    finally:
        for setter, count in zip(setters, outer):
            setter(count)
    assert seen == [(1, 1)]
    capsys.readouterr()


def test_a_two_leaf_fit_is_the_bytes_of_one_block_and_starts_no_thread(monkeypatch):
    """2,600 samples of 65 columns are a QR tree of two leaves of 1,300,
    and blocks of 700, 900 and 1,000 samples put the second block across
    the edge between them; the ridge rows go in the second leaf.  Both
    leaves are folded into R on the calling thread, and the fit is the
    same bytes as one block, with the predictions of the ridge least
    squares objective."""
    histories, targets, _, _ = make_linear_problem(2600, 4, 16, 600, seed=44, noise=0.1)
    edges = [0, 700, 1600, 2600]
    blocks = [(histories[a:b], targets[a:b]) for a, b in zip(edges[:-1], edges[1:])]
    shapes = []
    leaves = learners_module._leaves

    def recorded_leaves(*args):
        for design, target in leaves(*args):
            shapes.append(design.shape)
            yield design, target

    def refused(thread):
        raise AssertionError(f"a least-squares fit started the thread {thread.name}")

    monkeypatch.setattr(learners_module, "_leaves", recorded_leaves)
    monkeypatch.setattr(threading.Thread, "start", refused)
    design = np.hstack([histories.reshape(2600, -1), np.ones((2600, 1))])
    for ridge in (0.0, 0.5):
        shapes.clear()
        whole = fit_least_squares(histories, targets, ridge=ridge)
        streamed = fit_blocks(iter(blocks), 2600, ridge=ridge)
        assert shapes == [(1300, 65), (1300 + 64 * (ridge > 0), 65)] * 2
        assert streamed.weights.tobytes() == whole.weights.tobytes()
        assert streamed.bias.tobytes() == whole.bias.tobytes()
        # the ridge rows of the minimised objective, on the weights alone
        penalty = np.hstack([np.sqrt(ridge * 2600) * np.eye(64), np.zeros((64, 1))])
        solution = scipy.linalg.lstsq(np.vstack([design, penalty]),
                                      np.vstack([targets, np.zeros((64, 600))]),
                                      lapack_driver="gelsd")[0]
        reference = design @ solution
        pred = streamed.apply(histories)
        assert np.linalg.norm(pred - reference) <= 1e-4 * np.linalg.norm(reference)


@pytest.mark.parametrize("ridge, bias", [(0.5, True), (0.0, False)])
def test_no_leaf_reads_the_one_before_it(monkeypatch, ridge, bias):
    """3,100 samples of 32 features are a QR tree of three leaves, 1,033,
    1,033 and 1,034 rows, from blocks of 100 that straddle their edges.
    Every leaf is filled into the same pair of buffers, so dtpqrt and
    dtpmqrt receive the same design and target memory for every leaf,
    even while the test holds each leaf it has seen, which would keep a
    freed leaf's memory from going to the next.
    Buffers that start full of NaN give the bytes of a fit on fresh
    ones: each leaf writes or zeroes every entry it hands on, the ridge
    rows and the bias column of the last leaf included."""
    histories, targets, _, _ = make_linear_problem(3100, 2, 16, 24, seed=48, noise=0.1)
    blocks = [(histories[i:i + 100], targets[i:i + 100]) for i in range(0, 3100, 100)]
    plain = fit_blocks(iter(blocks), 3100, ridge=ridge, bias=bias)
    lapack = learners_module.lapack
    tpqrt, tpmqrt, empty = lapack.dtpqrt, lapack.dtpmqrt, np.empty
    designs, targets_seen = [], []

    def recorded_tpqrt(l, nb, a, b, **kwargs):
        designs.append(b)
        return tpqrt(l, nb, a, b, **kwargs)

    def recorded_tpmqrt(l, v, t, a, b, **kwargs):
        targets_seen.append(b)
        return tpmqrt(l, v, t, a, b, **kwargs)

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    monkeypatch.setattr(lapack, "dtpqrt", recorded_tpqrt)
    monkeypatch.setattr(lapack, "dtpmqrt", recorded_tpmqrt)
    monkeypatch.setattr(np, "empty", poisoned)
    fitted = fit_blocks(iter(blocks), 3100, ridge=ridge, bias=bias)
    assert len(designs) == len(targets_seen) == 3
    assert len({design.ctypes.data for design in designs}) == 1
    assert len({target.ctypes.data for target in targets_seen}) == 1
    assert fitted.weights.tobytes() == plain.weights.tobytes()
    assert (fitted.bias is None) == (not bias)
    if bias:
        assert fitted.bias.tobytes() == plain.bias.tobytes()


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ParameterError):
        TrainConfig(batch_size=0)
    with pytest.raises(ParameterError):
        TrainConfig(lr_decay=0.0)


@pytest.mark.filterwarnings("ignore:rank-deficient:RuntimeWarning")
def test_history_sweep_prefers_sufficient_history():
    # second-order scalar recurrence: one frame of history cannot predict,
    # two frames predict exactly
    rng = np.random.default_rng(16)
    trajectories = []
    for _ in range(12):
        tok = np.empty((60, 2))
        tok[0] = rng.standard_normal(2)
        tok[1] = rng.standard_normal(2)
        for t in range(2, 60):
            tok[t] = 1.5 * tok[t - 1] - 0.9 * tok[t - 2]
        trajectories.append(tok / np.abs(tok).max())
    rows = history_sweep(trajectories[:8], trajectories[8:], k_values=[1, 2, 4])
    by_k = {row["k"]: row for row in rows}
    assert set(by_k) == {1, 2, 4}
    assert by_k[2]["l1_mean"] < by_k[1]["l1_mean"] / 50
    assert by_k[4]["l1_mean"] < by_k[1]["l1_mean"] / 50
    assert all(row["trials"] == 4 for row in rows)
    assert by_k[1]["l1_std"] > 0.0
    with pytest.raises(ParameterError):
        history_sweep(trajectories[:8], trajectories[8:], k_values=[0])


SWEEP_BASE = dict(grid_size=8, dx=1.0, frames=64, trajectories=60, init_seed=100,
                  init=dict(sigma=5.0, m=0.1, nu=1.0))


@pytest.mark.parametrize("config, cliff", [
    (dict(SWEEP_BASE, equation="heat", dt=0.19, conductivity=GRF_COND), True),
    (dict(SWEEP_BASE, equation="heat", dt=0.19, conductivity=dict(constant=1.0)), True),
    (dict(SWEEP_BASE, equation="wave", dt=0.01, skip=5, conductivity=dict(constant=1.0)), True),
    # the last Krylov blocks of this pair are barely excited by the data,
    # so the error is at rounding level before k = nu
    (dict(SWEEP_BASE, equation="wave", dt=0.01, skip=5, conductivity=GRF_COND), False),
], ids=["heat-grf", "heat-const", "wave-const", "wave-grf"])
@pytest.mark.filterwarnings("ignore:rank-deficient:RuntimeWarning")
def test_sweep_error_falls_to_rounding_at_the_observability_index(config, cliff):
    """On noise-free lattice data the next token is linear in the last nu
    tokens, nu the observability index of the data's own generator, so
    the least-squares sweep is exact to rounding at k = nu."""
    arrays, _ = generate_dataset(config)
    op, _ = lattice_system(config)
    h = build_tokenizer_matrix(GridSpec(n=8), 2, wave=config["equation"] == "wave")
    nu = kalman_rank_test(op, h).observability_index
    tokens = [tokenize_trajectory(fr, 2) for fr in arrays]
    scale = np.mean([np.abs(t).mean() for t in tokens[50:]])
    rows = history_sweep(tokens[:50], tokens[50:], [nu - 1, nu])
    before, at = (row["l1_mean"] / scale for row in rows)
    assert at <= 1e-10, (nu, at)
    if cliff:
        assert before >= 1e-8, (nu, before)
