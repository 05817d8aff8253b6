"""Autoregressive rollout and the evaluation statistics used on it.

A rollout seeds the forecaster with k real token frames and then feeds
its own predictions back in.  The full pipeline additionally runs the
super-resolution map on the trailing token history at every generated
step, producing a full-resolution video aligned with the generated
frames (the seed frames are not reconstructed).
"""

from dataclasses import dataclass
import warnings

import numpy as np

from .errors import DegenerateStatisticError, DivergenceError, Key, ParameterError, check_entries
from .learners import LinearMap


@dataclass
class RolloutResult:
    """tokens: (seed_len + steps, m); the first seed_len rows are the seed
    verbatim.  fields: reconstructed frames for the generated steps only,
    (steps, ...) or None."""

    tokens: np.ndarray
    fields: np.ndarray | None
    seed_len: int


def _check_seed(g_map: LinearMap, seed_history: np.ndarray) -> np.ndarray:
    seed = np.asarray(seed_history, dtype=float)
    if seed.ndim != 2 or seed.shape != (g_map.history_len, g_map.token_dim):
        raise ParameterError(
            f"seed history shape {seed.shape} != {(g_map.history_len, g_map.token_dim)}")
    if g_map.output_shape != (g_map.token_dim,):
        raise ParameterError("forecaster must map token histories to token frames")
    return seed


def autoregressive_rollout(g_map: LinearMap, seed_history: np.ndarray,
                           steps: int) -> RolloutResult:
    """Roll the forecaster forward; raises DivergenceError on NaN/Inf."""
    check_entries(locals(), {"steps": Key(int, ">=", 1)}, "autoregressive_rollout",
                  ParameterError)
    seed = _check_seed(g_map, seed_history)
    k = g_map.history_len
    tokens = np.empty((k + steps, g_map.token_dim))
    tokens[:k] = seed
    for i in range(steps):
        nxt = g_map.apply(tokens[i:i + k])
        if not np.all(np.isfinite(nxt)):
            raise DivergenceError(f"rollout diverged at generated step {i}", step=i)
        tokens[k + i] = nxt
    return RolloutResult(tokens=tokens, fields=None, seed_len=k)


def full_pipeline_rollout(g_map: LinearMap, super_map: LinearMap,
                          seed_history: np.ndarray, steps: int) -> RolloutResult:
    """Rollout plus super-resolution of every generated frame.

    The reconstruction history ends at the frame being reconstructed, so
    the super-resolution history length may be at most the seed length
    plus one.
    """
    seed = _check_seed(g_map, seed_history)
    kp = super_map.history_len
    if super_map.token_dim != g_map.token_dim:
        raise ParameterError("forecaster and super-resolver disagree on token dimension")
    if kp > g_map.history_len + 1:
        raise ParameterError(
            f"super-resolution history {kp} exceeds available {g_map.history_len + 1} frames")
    result = autoregressive_rollout(g_map, seed, steps)
    k = g_map.history_len
    fields = np.empty((steps,) + tuple(super_map.output_shape))
    for i in range(steps):
        end = k + i + 1
        fields[i] = super_map.apply(result.tokens[end - kp:end])
    return RolloutResult(tokens=result.tokens, fields=fields, seed_len=k)


def residue_norms(predicted: np.ndarray, truth: np.ndarray, norm: str = "l2") -> np.ndarray:
    """Per-frame error: 'l1' mean abs, 'l2' mean square, 'linf' max abs."""
    check_entries(locals(), {"norm": Key(str, "in", ("l1", "l2", "linf"))}, "residue_norms",
                  ParameterError)
    predicted = np.asarray(predicted, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if predicted.shape != truth.shape:
        raise ParameterError(f"residue_norms: shape mismatch {predicted.shape} vs {truth.shape}")
    if predicted.ndim < 2:
        raise ParameterError("residue_norms: need at least (T, ...) arrays")
    err = (predicted - truth).reshape(predicted.shape[0], -1)
    if norm == "l2":
        return (err**2).mean(axis=1)
    return np.abs(err).mean(axis=1) if norm == "l1" else np.abs(err).max(axis=1)


@dataclass
class CorrelationSeries:
    """Pearson autocorrelation of one pixel against its time-shifted self.

    ``mean[d]`` is the correlation at lag ``lags[d]``; ``std`` is the
    across-video sample standard deviation when an ensemble was used
    (None for a single video); ``count`` is the number of videos pooled.
    """

    lags: np.ndarray
    mean: np.ndarray
    std: np.ndarray | None
    count: int


def _pixel_series(video: np.ndarray, pixel, caller) -> np.ndarray:
    """The series of one pixel of a video, refusing another video or a
    pixel outside its frame under the name of ``caller``."""
    video = np.asarray(video, dtype=float)
    if video.ndim not in (2, 3):
        raise ParameterError(f"{caller}: video must be (T, m) or (T, n, n), got shape "
                             f"{video.shape}")
    index = tuple(int(k) for k in np.atleast_1d(pixel))
    inside = all(0 <= k < n for k, n in zip(index, video.shape[1:]))
    if len(index) != video.ndim - 1 or not inside:
        raise ParameterError(f"{caller}: pixel {pixel} outside the frame of shape "
                             f"{video.shape[1:]}")
    return video[(slice(None), *index)]


# its range within the frames of a video is checked on the video
_DT_MAX = {"dt_max": Key(int)}


def _lag_correlations(video, pixel, dt_max, caller):
    """Pearson correlations of the series of one pixel of a video at lags
    0..dt_max, refusing a video, pixel or ``dt_max`` that the series
    cannot take under the name of ``caller``."""
    series = _pixel_series(video, pixel, caller)
    check_entries({"dt_max": dt_max}, {"dt_max": Key(int, "[]", (0, len(series) - 2))},
                  caller, ParameterError)
    rho = np.empty(dt_max + 1)
    for d in range(dt_max + 1):
        a = series[:len(series) - d]
        b = series[d:]
        sa, sb = a.std(), b.std()
        if sa == 0 or sb == 0:
            raise DegenerateStatisticError(
                f"pixel series has zero variance at lag {d}; correlation undefined")
        rho[d] = float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))
    return rho


def temporal_correlation(video: np.ndarray, pixel, dt_max: int) -> CorrelationSeries:
    """Pearson correlation of a pixel series with itself at lags 0..dt_max.

    Raises DegenerateStatisticError when either slice of a lagged pair has
    zero variance (the correlation is undefined there).  A lag leaves at
    least two samples in each slice, so dt_max runs up to T - 2.
    """
    check_entries(locals(), _DT_MAX, "temporal_correlation", ParameterError)
    rho = _lag_correlations(video, pixel, dt_max, "temporal_correlation")
    return CorrelationSeries(lags=np.arange(dt_max + 1), mean=rho, std=None, count=1)


def correlation_ensemble_stats(videos, pixel, dt_max: int) -> CorrelationSeries:
    """Mean and sample std of per-video pixel autocorrelations.

    Degenerate videos (zero variance) are skipped with a warning; at
    least two usable videos are required.  ``dt_max`` is checked against
    the frames of each video as it is read.
    """
    check_entries(locals(), _DT_MAX, "correlation_ensemble_stats", ParameterError)
    curves = []
    for idx, video in enumerate(videos):
        try:
            curves.append(_lag_correlations(video, pixel, dt_max, "correlation_ensemble_stats"))
        except DegenerateStatisticError:
            warnings.warn(f"skipping degenerate video {idx} (zero variance)", RuntimeWarning)
    if len(curves) < 2:
        raise DegenerateStatisticError(
            f"need at least 2 non-degenerate videos, got {len(curves)}")
    stack = np.vstack(curves)
    return CorrelationSeries(
        lags=np.arange(dt_max + 1),
        mean=stack.mean(axis=0),
        std=stack.std(axis=0, ddof=1),
        count=len(curves),
    )


def nearest_subvideo_distance(clip: np.ndarray, reference: np.ndarray) -> float:
    """Euclidean distance from a clip to the closest same-length window of
    a longer reference video (both flattened over frames and pixels)."""
    clip = np.asarray(clip, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if clip.ndim < 2 or reference.ndim < 2 or clip.shape[1:] != reference.shape[1:]:
        raise ParameterError(f"nearest_subvideo_distance: frame shapes differ: {clip.shape[1:]} "
                             f"vs {reference.shape[1:]}")
    c, t = clip.shape[0], reference.shape[0]
    if t < c:
        raise ParameterError(f"nearest_subvideo_distance: reference has {t} frames, clip needs "
                             f"at least {c}")
    flat_clip = clip.reshape(-1)
    best = np.inf
    for s in range(t - c + 1):
        d = np.linalg.norm(reference[s:s + c].reshape(-1) - flat_clip)
        best = min(best, float(d))
    return best
