"""Patch-average tokenization and supervised sample assembly.

A token frame is the vector of patch means of one field: of runs of
``patch`` sites on an (N,) line, or of ``patch`` x ``patch`` blocks on an
(n, n) lattice, flattened in the same block order as the rows of the
sparse tokenizer matrix, so :func:`tokenize_trajectory` and multiplying each
frame by :func:`latentpde.lattice_ops.build_tokenizer_matrix` agree to rounding.
For stacked wave states only the amplitude block is read.
"""

import numpy as np

from .errors import Key, ParameterError, check_entries

TOKEN_ARGS = {"patch": Key(int, ">=", 1, True), "k": Key(int, ">=", 1, True)}


def amplitude(frames: np.ndarray) -> np.ndarray:
    """Amplitude block u of stacked (T, 2, n, n) wave states (u, v); other
    frame stacks are returned as they are."""
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 4:
        return frames
    if frames.shape[1] != 2:
        raise ParameterError(f"stacked states must have 2 components, got {frames.shape}")
    return frames[:, 0]


def tokenize_trajectory(frames: np.ndarray, patch: int) -> np.ndarray:
    """Tokenize every frame, the one array form of patch averaging:
    (T, N) lines -> (T, N/patch), (T, n, n) or (T, 2, n, n) -> (T, (n/patch)^2)."""
    check_entries(locals(), TOKEN_ARGS, "tokenize_trajectory", ParameterError)
    frames = amplitude(frames)
    rank = frames.ndim - 1
    if rank not in (1, 2) or frames.shape[1:] != frames.shape[-1:] * rank:
        raise ParameterError(f"expected (T, N) or (T, n, n) frames, got shape {frames.shape}")
    t, n = frames.shape[0], frames.shape[-1]
    if n % patch:
        raise ParameterError(f"patch {patch} must divide grid size {n}")
    blocks = frames.reshape((t,) + (n // patch, patch) * rank)
    return blocks.mean(axis=(2, 4)[:rank]).reshape(t, -1)


def _windows(tokens: np.ndarray, k: int, where: str) -> np.ndarray:
    """All windows of k consecutive token frames as a read-only view of
    ``tokens``: (T, m) -> (T-k+1, k, m), with no copy.  Other tokens, or a
    k past T, are refused in the name of the function ``where``."""
    tokens = np.asarray(tokens, dtype=float)
    if tokens.ndim != 2:
        raise ParameterError(f"{where}: expected a (T, m) token array, got shape {tokens.shape}")
    check_entries({"k": k}, {"k": Key(int, "[]", (1, tokens.shape[0]))}, where, ParameterError)
    return np.lib.stride_tricks.sliding_window_view(tokens, (k, tokens.shape[1]))[:, 0]


def sliding_histories(tokens: np.ndarray, k: int) -> np.ndarray:
    """All windows of k consecutive token frames, as a writable copy:
    (T, m) -> (T-k+1, k, m)."""
    check_entries(locals(), TOKEN_ARGS, "sliding_histories", ParameterError)
    return _windows(tokens, k, "sliding_histories").copy()


def forecast_pairs(tokens: np.ndarray, k: int):
    """Forecasting samples from one (T, m) token trajectory.

    History r covers token frames ``r .. r+k-1`` and its target is frame
    ``r+k``: shapes (T-k, k, m) and (T-k, m), both read-only views of
    ``tokens``.  T <= k raises.
    """
    check_entries(locals(), TOKEN_ARGS, "forecast_pairs", ParameterError)
    tokens = np.asarray(tokens, dtype=float)
    return _windows(tokens[:-1], k, "forecast_pairs"), tokens[k:]


def build_histories(frames: np.ndarray, k: int, patch: int):
    """Forecasting samples from one trajectory: :func:`forecast_pairs` of
    its token frames, ``(histories, targets)`` of shapes (T-k, k, m) and
    (T-k, m), where history r covers frames ``r .. r+k-1`` and its target
    is the token frame ``r+k``.  T <= k raises."""
    check_entries(locals(), TOKEN_ARGS, "build_histories", ParameterError)
    tokens = tokenize_trajectory(frames, patch)
    return _windows(tokens[:-1], k, "build_histories"), tokens[k:]


def build_reconstruction_pairs(frames: np.ndarray, k: int, patch: int):
    """Super-resolution samples: history ending at frame s paired with the
    raw field at that same frame s.

    Returns ``(histories, field_targets)`` of shapes (S, k, m) and
    (S, n, n) (the amplitude block for wave states), with S = T - k + 1
    and s running over k-1 .. T-1.  Both are views: the histories are
    windows of one token array, the targets frames of ``frames``.
    """
    check_entries(locals(), TOKEN_ARGS, "build_reconstruction_pairs", ParameterError)
    tokens = tokenize_trajectory(frames, patch)
    return _windows(tokens, k, "build_reconstruction_pairs"), amplitude(frames)[k - 1:]
