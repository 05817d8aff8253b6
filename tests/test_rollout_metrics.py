import numpy as np
import pytest

from latentpde import (DegenerateStatisticError, DivergenceError, LinearMap,
                       ParameterError, autoregressive_rollout, correlation_ensemble_stats,
                       full_pipeline_rollout, nearest_subvideo_distance, residue_norms,
                       temporal_correlation)


def shift_map(m, k):
    """Forecaster that returns the latest frame unchanged."""
    w = np.zeros((m, k * m))
    w[:, (k - 1) * m:] = np.eye(m)
    return LinearMap(w, np.zeros(m), k, m, (m,))


def test_rollout_matches_hand_recurrence():
    # x_{t+1} = 0.5 x_t + 0.25 x_{t-1} + 1, applied per token
    m, k = 3, 2
    w = np.hstack([0.25 * np.eye(m), 0.5 * np.eye(m)])
    g = LinearMap(w, np.ones(m), k, m, (m,))
    seed = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    result = autoregressive_rollout(g, seed, steps=4)
    assert result.tokens.shape == (6, m)
    np.testing.assert_array_equal(result.tokens[:2], seed)
    expected = list(seed)
    for _ in range(4):
        expected.append(0.5 * expected[-1] + 0.25 * expected[-2] + 1.0)
    np.testing.assert_allclose(result.tokens, np.array(expected), atol=1e-12)
    assert result.seed_len == 2


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_rollout_validation_and_divergence():
    g = shift_map(3, 2)
    with pytest.raises(ParameterError):
        autoregressive_rollout(g, np.ones((3, 3)), steps=1)
    explode = LinearMap(4.0 * np.eye(2), np.zeros(2), 1, 2, (2,))
    with pytest.raises(DivergenceError):
        autoregressive_rollout(explode, np.full((1, 2), 1e300), steps=40)
    wide = LinearMap(np.zeros((4, 2)), np.zeros(4), 1, 2, (2, 2))
    with pytest.raises(ParameterError):
        autoregressive_rollout(wide, np.ones((1, 2)), steps=1)


def test_pipeline_rollout_shapes_and_content():
    m, k, n = 4, 3, 6
    g = shift_map(m, k)
    rng = np.random.default_rng(0)
    gw = rng.standard_normal((n * n, 2 * m))
    G = LinearMap(gw, np.zeros(n * n), 2, m, (n, n))
    seed = rng.standard_normal((k, m))
    result = full_pipeline_rollout(g, G, seed, steps=5)
    assert result.tokens.shape == (k + 5, m)
    assert result.fields.shape == (5, n, n)
    # reconstruction window ends at the frame being rendered
    first_window = result.tokens[k - 1:k + 1]
    np.testing.assert_allclose(result.fields[0], G.apply(first_window), atol=1e-12)
    last_window = result.tokens[k + 3:k + 5]
    np.testing.assert_allclose(result.fields[4], G.apply(last_window), atol=1e-12)


def test_pipeline_rejects_long_reconstruction_history():
    m, k = 4, 2
    g = shift_map(m, k)
    G = LinearMap(np.zeros((9, 4 * m)), np.zeros(9), 4, m, (3, 3))
    with pytest.raises(ParameterError):
        full_pipeline_rollout(g, G, np.ones((k, m)), steps=3)


def test_residue_norm_identities():
    rng = np.random.default_rng(1)
    truth = rng.standard_normal((7, 5))
    c = -0.37
    shifted = truth + c
    np.testing.assert_allclose(residue_norms(shifted, truth, "l1"), abs(c), atol=1e-14)
    np.testing.assert_allclose(residue_norms(shifted, truth, "l2"), c * c, atol=1e-14)
    np.testing.assert_allclose(residue_norms(shifted, truth, "linf"), abs(c), atol=1e-14)
    zeros = residue_norms(truth, truth, "l2")
    assert zeros.shape == (7,)
    np.testing.assert_array_equal(zeros, 0.0)
    with pytest.raises(ParameterError):
        residue_norms(truth, truth, "l3")
    with pytest.raises(ParameterError):
        residue_norms(truth, truth[:5], "l1")


def test_residue_norms_on_fields():
    rng = np.random.default_rng(2)
    truth = rng.standard_normal((4, 6, 6))
    pred = truth.copy()
    pred[2, 3, 3] += 2.0
    linf = residue_norms(pred, truth, "linf")
    np.testing.assert_allclose(linf, [0, 0, 2.0, 0], atol=1e-14)
    l2 = residue_norms(pred, truth, "l2")
    assert l2[2] == pytest.approx(4.0 / 36.0)


def test_correlation_zero_lag_is_one():
    rng = np.random.default_rng(3)
    video = rng.standard_normal((50, 8))
    series = temporal_correlation(video, pixel=3, dt_max=10)
    assert series.lags[0] == 0
    assert series.mean[0] == pytest.approx(1.0, abs=1e-12)
    assert series.mean.shape == (11,)
    assert np.all(np.abs(series.mean) <= 1.0 + 1e-12)


def test_correlation_of_sinusoid_peaks_at_period():
    period = 20
    t = np.arange(400)
    video = np.sin(2 * np.pi * t / period)[:, None] * np.ones((1, 4))
    series = temporal_correlation(video, pixel=0, dt_max=period + 5)
    assert series.mean[period] == pytest.approx(1.0, abs=1e-8)
    assert series.mean[period // 2] == pytest.approx(-1.0, abs=1e-8)


def test_correlation_accepts_2d_frames():
    rng = np.random.default_rng(4)
    video = rng.standard_normal((60, 5, 5))
    series = temporal_correlation(video, pixel=(2, 3), dt_max=5)
    flat = temporal_correlation(video.reshape(60, 25), pixel=2 * 5 + 3, dt_max=5)
    np.testing.assert_allclose(series.mean, flat.mean, atol=1e-14)


def test_correlation_white_noise_decorrelates():
    rng = np.random.default_rng(5)
    video = rng.standard_normal((20000, 3))
    series = temporal_correlation(video, pixel=1, dt_max=4)
    assert np.abs(series.mean[1:]).max() < 0.05


def test_correlation_pixel_outside_the_frame():
    video = np.random.default_rng(0).standard_normal((20, 5, 5))
    for pixel in ((5, 0), (0, -1), (1,), (1, 2, 3)):
        with pytest.raises(ParameterError):
            temporal_correlation(video, pixel=pixel, dt_max=3)
    with pytest.raises(ParameterError):
        temporal_correlation(video.reshape(20, 25), pixel=25, dt_max=3)


def test_correlation_lag_leaves_two_samples():
    """At lag T - 1 each slice holds one sample, whose variance is zero, so
    the largest lag is T - 2; a larger one is a bad parameter."""
    video = np.random.default_rng(7).standard_normal((12, 4))
    assert temporal_correlation(video, pixel=0, dt_max=10).mean.shape == (11,)
    for dt_max in (11, 12, -1):
        rule = rf"^temporal_correlation: dt_max must be in \[0, 10\], got {dt_max}$"
        with pytest.raises(ParameterError, match=rule):
            temporal_correlation(video, pixel=0, dt_max=dt_max)
    for dt_max in (11, -1):
        rule = rf"^correlation_ensemble_stats: dt_max must be in \[0, 10\], got {dt_max}$"
        with pytest.raises(ParameterError, match=rule):
            correlation_ensemble_stats([video, video], pixel=0, dt_max=dt_max)


def test_correlation_degenerate_pixel():
    video = np.ones((30, 4))
    with pytest.raises(DegenerateStatisticError):
        temporal_correlation(video, pixel=0, dt_max=3)


@pytest.mark.filterwarnings("ignore:skipping degenerate:RuntimeWarning")
def test_ensemble_stats_skip_degenerate_members():
    rng = np.random.default_rng(6)
    good = [rng.standard_normal((40, 6)) for _ in range(4)]
    flat = np.ones((40, 6))
    with pytest.warns(RuntimeWarning, match="degenerate"):
        stats = correlation_ensemble_stats(good + [flat], pixel=2, dt_max=6)
    assert stats.count == 4
    assert stats.mean[0] == pytest.approx(1.0, abs=1e-12)
    assert stats.std[0] == pytest.approx(0.0, abs=1e-12)
    singles = np.array([temporal_correlation(v, 2, 6).mean for v in good])
    np.testing.assert_allclose(stats.mean, singles.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(stats.std, singles.std(axis=0, ddof=1), atol=1e-12)
    with pytest.raises(DegenerateStatisticError):
        correlation_ensemble_stats([flat, flat], pixel=0, dt_max=3)


def one_series_correlations(series, dt_max):
    """Pearson correlations of one series at lags 0..dt_max, one lag and
    one series at a time, or the first lag with a zero-variance slice."""
    rho = np.empty(dt_max + 1)
    for d in range(dt_max + 1):
        a, b = series[:len(series) - d], series[d:]
        sa, sb = a.std(), b.std()
        if sa == 0 or sb == 0:
            return d
        rho[d] = ((a - a.mean()) * (b - b.mean())).mean() / (sa * sb)
    return rho


def test_ensemble_correlations_have_the_bits_of_one_series_at_a_time():
    """Videos of three lengths, one flat from its start and one flat only
    over its last frames: the ensemble's rows and the single-video curves
    have the bits of one series at a time, degenerate videos are skipped
    with a warning each in video order, and the first zero-variance lag is
    the one named."""
    rng = np.random.default_rng(9)
    videos = [rng.standard_normal((length, 3, 3)).cumsum(axis=0)
              for length in (40, 17, 40, 33, 17, 40, 33)]
    videos[2][:, 1, 2] = 0.5
    videos[4][9:, 1, 2] = -2.0
    dt_max = 12
    curves = [one_series_correlations(v[:, 1, 2], dt_max) for v in videos]
    assert (curves[2], curves[4]) == (0, 9)
    usable = np.array([c for c in curves if not isinstance(c, int)])
    with pytest.warns(RuntimeWarning) as caught:
        stats = correlation_ensemble_stats(iter(videos), (1, 2), dt_max)
    assert [str(w.message) for w in caught] == [
        f"skipping degenerate video {idx} (zero variance)" for idx in (2, 4)]
    assert stats.count == 5
    assert stats.mean.tobytes() == usable.mean(axis=0).tobytes()
    assert stats.std.tobytes() == usable.std(axis=0, ddof=1).tobytes()
    for video, curve in zip(videos, curves):
        if isinstance(curve, int):
            with pytest.raises(DegenerateStatisticError, match=f"at lag {curve};"):
                temporal_correlation(video, (1, 2), dt_max)
        else:
            assert temporal_correlation(video, (1, 2), dt_max).mean.tobytes() == curve.tobytes()


def brute_subvideo(clip, reference):
    length = clip.shape[0]
    best = np.inf
    for start in range(reference.shape[0] - length + 1):
        window = reference[start:start + length]
        best = min(best, float(np.sqrt(((clip - window) ** 2).sum())))
    return best


def test_nearest_subvideo_matches_bruteforce():
    rng = np.random.default_rng(7)
    for trial in range(20):
        clip = rng.standard_normal((rng.integers(2, 6), 3))
        reference = rng.standard_normal((rng.integers(8, 15), 3))
        got = nearest_subvideo_distance(clip, reference)
        assert got == pytest.approx(brute_subvideo(clip, reference), rel=1e-12)


def test_nearest_subvideo_exact_hit_and_validation():
    rng = np.random.default_rng(8)
    reference = rng.standard_normal((30, 4))
    clip = reference[11:16].copy()
    assert nearest_subvideo_distance(clip, reference) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ParameterError):
        nearest_subvideo_distance(reference, clip)  # clip longer than reference
    with pytest.raises(ParameterError):
        nearest_subvideo_distance(clip, reference[:, :3])
