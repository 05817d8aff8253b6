"""Linear forecasting and super-resolution maps plus their trainers.

Both map families share one hypothesis class: a single affine map applied
to a flattened history of k token frames (oldest frame first).  The
forecaster outputs the next token frame; the super-resolution map outputs
a full-resolution field.  Training is either exact least squares through
an orthogonal factorization or Adam-style stochastic gradient descent on
the same mean-squared objective.
"""

import contextlib
import ctypes
from dataclasses import dataclass
import itertools
import json
import math
import warnings

import numpy as np
from numpy._core import _multiarray_umath
import scipy.linalg
from scipy.linalg import lapack

from .dataset import NORMALIZATION_TABLE, atomic_write
from .errors import DataFormatError, DivergenceError, Key, ParameterError, check_entries
from .tokenizer import forecast_pairs

_HEADER_TABLE = {"version": Key(int, "==", 2), "format": Key(str, "==", "linear-map"),
                 "history_len": Key(int, ">=", 1), "token_dim": Key(int, ">=", 1),
                 "out_dim": Key(int, ">=", 1), "has_bias": Key(bool),
                 "output_shape": Key(list, ">=", 0), "design_rank": Key((int, None), ">=", 0),
                 "patch": Key((int, None), ">=", 1),
                 "normalization": Key((NORMALIZATION_TABLE, None))}


@dataclass
class LinearMap:
    """Affine map from a k-frame token history to a flat output vector.

    weights:      (out_dim, k * token_dim)
    bias:         (out_dim,) or None
    history_len:  k
    token_dim:    tokens per frame
    output_shape: shape the flat output is reshaped to (e.g. (m,) or (n, n))
    design_rank:  column rank of the training design, when known
    patch:        patch size of the tokens the map was fitted on
    normalization: :func:`dataset.compute_normalization` of the fields those
                  tokens came from; ``fit`` sets both, library fits leave None
    """

    weights: np.ndarray
    bias: np.ndarray | None
    history_len: int
    token_dim: int
    output_shape: tuple
    design_rank: int | None = None
    patch: int | None = None
    normalization: dict | None = None

    @property
    def in_dim(self) -> int:
        return self.history_len * self.token_dim

    def apply(self, history: np.ndarray) -> np.ndarray:
        """Evaluate on one history (k, m) or a batch (..., k, m)."""
        hist = np.asarray(history, dtype=float)
        if hist.shape[-2:] != (self.history_len, self.token_dim):
            raise ParameterError(f"history of shape {hist.shape} does not end in the map "
                                 f"frames ({self.history_len}, {self.token_dim})")
        flat = hist.reshape(*hist.shape[:-2], self.in_dim)
        out = flat @ self.weights.T
        if self.bias is not None:
            out = out + self.bias
        return out.reshape(*flat.shape[:-1], *self.output_shape)

    def save(self, path) -> None:
        """JSON header line, NUL byte, then little-endian float64 blocks."""
        header = {
            "format": "linear-map",
            "version": 2,
            "history_len": self.history_len,
            "token_dim": self.token_dim,
            "output_shape": list(self.output_shape),
            "out_dim": int(self.weights.shape[0]),
            "has_bias": self.bias is not None,
            "design_rank": self.design_rank,
            "patch": self.patch,
            "normalization": self.normalization,
        }
        blocks = [self.weights] + ([] if self.bias is None else [self.bias])
        atomic_write(path, b"".join([json.dumps(header).encode(), b"\n\0",
                                     *(np.ascontiguousarray(b, dtype="<f8") for b in blocks)]))

    @classmethod
    def load(cls, path) -> "LinearMap":
        with open(path, "rb") as fh:
            blob = fh.read()
        cut = blob.find(b"\n\0")
        if cut < 0:
            raise DataFormatError(f"{path}: missing linear-map header")
        try:
            header = json.loads(blob[:cut].decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"{path}: bad linear-map header: {exc}") from exc
        check_entries(header, _HEADER_TABLE, path, DataFormatError)
        out_dim = header["out_dim"]
        if out_dim != np.prod(header["output_shape"]):
            raise DataFormatError(f"{path}: out_dim {out_dim} != the size of output_shape")
        in_dim = header["history_len"] * header["token_dim"]
        body = blob[cut + 2:]
        need = out_dim * in_dim + (out_dim if header["has_bias"] else 0)
        if len(body) != need * 8:
            raise DataFormatError(f"{path}: expected {need * 8} payload bytes, found {len(body)}")
        values = np.frombuffer(body, dtype="<f8")
        # no fit saves a non-finite weight
        if not np.isfinite(values).all():
            raise DataFormatError(f"{path}: a weight or bias that is not finite")
        weights = values[:out_dim * in_dim].reshape(out_dim, in_dim)
        bias = values[out_dim * in_dim:] if header["has_bias"] else None
        return cls(
            weights=weights.copy(),
            bias=None if bias is None else bias.copy(),
            history_len=header["history_len"],
            token_dim=header["token_dim"],
            output_shape=tuple(header["output_shape"]),
            design_rank=header["design_rank"],
            patch=header["patch"],
            normalization=header["normalization"],
        )


TRAIN_TABLE = {"learning_rate": Key(float, ">", 0), "steps": Key(int, ">=", 0),
               "batch_size": Key(int, ">=", 1), "ridge": Key(float, ">=", 0),
               "seed": Key(int, ">=", 0), "lr_decay": Key(float, "(]", (0, 1))}


@dataclass
class TrainConfig:
    """Adam-style SGD settings.

    ``learning_rate`` decays multiplicatively by ``lr_decay`` each step
    (1.0 keeps it constant).  ``ridge`` adds an L2 penalty on the weights
    (never the bias) matching the least-squares objective.
    """

    learning_rate: float = 1e-5
    steps: int = 1000
    batch_size: int = 32
    ridge: float = 0.0
    seed: int = 0
    lr_decay: float = 1.0

    def __post_init__(self):
        check_entries(vars(self), TRAIN_TABLE, "TrainConfig", ParameterError)


def _blas_thread_setter(module):
    """The ``openblas_set_num_threads_local`` of the OpenBLAS that the
    extension ``module`` links, or None when it links another BLAS or an
    OpenBLAS without it.  The lookup goes through the module's own handle,
    which resolves to that copy: numpy's (``numpy._core._multiarray_umath``)
    and scipy's (``scipy.linalg._fblas``) are two copies with a pool and a
    process-wide count each.  The setter returns the previous count."""
    try:
        setter = ctypes.CDLL(module.__file__).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


# numpy's OpenBLAS thread count before the outermost open scope pinned it
_unpinned_threads = None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block, or the decorated call, with numpy's and scipy's
    OpenBLAS on one thread each, each set by its
    :func:`_blas_thread_setter`, restore the previous counts on the way
    out, and yield the count numpy's had when the outermost open scope
    found it: the cores a caller may spend on independent work.
    :func:`fit_blocks`, :func:`fit_sgd_blocks` and
    :func:`~latentpde.observability.empirical_lie_logdet` pin themselves
    for the whole call, and every CLI verb is pinned.

    The counts are process-wide, not per thread: while the block runs,
    every thread's products and factorizations, numpy's and scipy's, run
    on one BLAS thread.  The small products and factorizations the verbs
    run are too small to share, and the second thread of a pool spins
    between calls.  A general product keeps its bits on any count, since
    OpenBLAS splits it over rows and columns, never over the summed
    dimension, and so do singular values; a dot product, a Gram product
    ``x.T @ x``, an LU, a Householder QR and ``expm`` may round
    differently.  Pinned, they give the same bits on any core count.
    When a setter is missing the block pins the other pool alone, the
    yield is 1, and nothing is said.
    """
    global _unpinned_threads
    found = [_blas_thread_setter(module) for module in (_multiarray_umath, scipy.linalg._fblas)]
    setters = [setter for setter in found if setter is not None]
    previous = [setter(1) for setter in setters]
    outermost = _unpinned_threads is None
    if outermost:
        _unpinned_threads = previous[0] if None not in found else 1
    try:
        yield _unpinned_threads
    finally:
        for setter, count in zip(setters, previous):
            setter(count)
        if outermost:
            _unpinned_threads = None


def _intake(blocks, samples: int, where: str):
    """The prologue of :func:`fit_blocks` and :func:`fit_sgd_blocks`: the
    blocks as one iterator, with the k, m and output shape that the first
    block sets, refusing no samples, histories not (S, k, m) and a target
    of no outputs in the name of ``where``.  :func:`_block_rows` then
    checks every block as it is read."""
    blocks = iter(blocks)
    first = next(blocks, None)
    if first is None or samples < 1:
        raise ParameterError(f"{where}: histories hold no samples")
    hist, tgt = first
    if hist.ndim != 3:
        raise ParameterError(f"{where}: histories must be (S, k, m), got shape {hist.shape}")
    out_shape = tgt.shape[1:] if tgt.ndim > 1 else (1,)
    if math.prod(out_shape) == 0:
        raise ParameterError(f"{where}: targets of shape {out_shape} hold no outputs")
    return itertools.chain([first], blocks), *hist.shape[1:], out_shape


def fit_least_squares(histories: np.ndarray, targets: np.ndarray,
                      ridge: float = 0.0, bias: bool = True) -> LinearMap:
    """Exact minimiser of  mean ||X w - y||^2 + ridge ||w||^2: the one-block
    case of :func:`fit_blocks`."""
    hist, tgt = np.asarray(histories, dtype=float), np.asarray(targets, dtype=float)
    return fit_blocks([(hist, tgt)], len(hist), ridge=ridge, bias=bias)


# the fewest samples a leaf holds, and it holds at least the columns, so
# the cols × cols R of a tree of two or more leaves is at most half its
# design.  A fit holds one leaf's buffers, sized for its largest leaf,
# plus R and Qᵀy, so the leaf height sets its memory
_LEAF_ROWS = 1024
# the block size of the reflectors dtpqrt folds a leaf into R with; on
# one thread of a 2-core VM, blocks of 32, 48, 64 and 96 folded a
# 1,058 × 1,025 leaf with 1,024 outputs in 0.150, 0.145, 0.140 and
# 0.139 s, and with 64 outputs in 0.060, 0.056, 0.060 and 0.063 s
_COMBINE_BLOCK = 32


@_one_blas_thread()
def fit_blocks(blocks, samples: int, ridge: float = 0.0, bias: bool = True) -> LinearMap:
    """Exact minimiser of  mean ||X w - y||^2 + ridge ||w||^2  over samples
    that arrive in blocks.

    Each block is a pair of arrays ``(histories, targets)`` of shapes
    (S_i, k, m) and (S_i, ...), typically the samples of one trajectory.
    The first block sets k, m and the output shape, and the S_i sum to
    ``samples``.  The samples split into ``max(1, samples // max(_LEAF_ROWS,
    cols))`` leaves: contiguous sample ranges of balanced size, a count
    that the data's shape fixes, never the core count.  Each block is read
    once, in order, into the Fortran-order design (features, bias column)
    and target of the leaves it spans, the only copy of the samples the
    fit makes, so a block may be a window view that is dropped once read;
    the last leaf also holds the ridge rows.  With two or more leaves, R
    and Q^T y start at zero and each leaf, once full, is folded into them
    in place by one triangular-pentagonal QR (dtpqrt, then dtpmqrt on its
    target, both with l = 0: QR updating by rows, Golub & Van Loan §6.5).
    Every leaf is filled into the same pair of buffers, sized for the
    largest leaf, so a fit holds one leaf plus R and Q^T y, however many
    samples it has.  LAPACK gelsy, a complete orthogonal decomposition
    (Chan 1982's QR preprocessing for tall designs), then solves R w =
    Q^T y in place, or a lone leaf's design and target as they are.  R has
    the singular values of the design, so for a rank-deficient design
    with ridge = 0 the result is the minimum-norm solution; deficiency is
    recorded in ``design_rank`` and warned about.  ``design_rank`` is
    gelsy's count at its machine-epsilon cut, a rounding-level count on an
    ill-conditioned design.  The whole call runs on the calling thread and
    one BLAS thread (see :func:`_one_blas_thread`), so the weight bytes are
    the same on any core count, but what the fit promises is its training
    predictions and residual norm to a backward-stable tolerance, not its
    weight bytes.  The ridge penalty never touches the bias column.
    """
    check_entries(locals(), {"ridge": TRAIN_TABLE["ridge"], "bias": Key(bool)}, "fit_blocks",
                  ParameterError)
    blocks, k, m, output_shape = _intake(blocks, samples, "fit_blocks")
    out_dim = math.prod(output_shape)
    n_feat = k * m
    cols = n_feat + (1 if bias else 0)
    leaves = max(1, samples // max(_LEAF_ROWS, cols))
    edges = [samples * i // leaves for i in range(leaves + 1)]
    filled = _leaves(blocks, edges, k, m, out_dim, ridge, bias)
    if leaves == 1:
        # unpacking reads the stream to its end, and so its count check
        (r, rhs), = filled
    else:
        r, rhs = np.zeros((cols, cols), order="F"), np.zeros((cols, out_dim), order="F")
        nb = min(_COMBINE_BLOCK, cols)
        for design, target in filled:
            r, v, t, info_r = lapack.dtpqrt(0, nb, r, design, overwrite_a=1, overwrite_b=1)
            # dtpmqrt hands back the target it overwrote: bound to the
            # loop's own name, it goes with the design below
            rhs, target, info_m = lapack.dtpmqrt(0, v, t, rhs, target, trans="T",
                                                 overwrite_a=1, overwrite_b=1)
            if info_r or info_m:
                raise RuntimeError(f"LAPACK fold of a leaf into R failed "
                                   f"(info {info_r}, {info_m})")
        # the spent stream has let go of the leaf buffers; these views of
        # the last leaf would hold them through gelsy and the weight copy
        del design, target, v
    # scipy's lstsq would copy the design and rhs; this call works on both in place
    eps = np.finfo(float).eps
    lwork, _ = lapack.dgelsy_lwork(r.shape[0], cols, out_dim, eps)
    _, sol, _, rank, info = lapack.dgelsy(r, rhs, np.zeros(cols, np.int32), eps, int(lwork),
                                          overwrite_a=1, overwrite_b=1)
    if info:
        raise RuntimeError(f"LAPACK gelsy failed (info {info})")
    if ridge == 0 and rank < cols:
        warnings.warn(f"rank-deficient design: rank {rank} < {cols} columns; "
                      "returning the minimum-norm solution", RuntimeWarning)
    weights = sol[:n_feat].T.copy()
    bias_vec = sol[n_feat].copy() if bias else None
    return LinearMap(weights, bias_vec, k, m, output_shape, design_rank=int(rank))


def _leaves(blocks, edges, k, m, out_dim, ridge, bias):
    """Yield the Fortran-order design and target of each leaf, samples
    ``edges[i]`` to ``edges[i + 1]``, filled in place as the blocks stream
    past, a block that straddles two leaves into both: the only copy of
    the samples a fit makes.  Each leaf has the bias column, and the last
    also has the ridge rows.  Every leaf is a view of one pair of buffers,
    a design and a target allocated once and sized for the largest leaf,
    so a caller must be done with a leaf before it asks for the next,
    which overwrites it.  Of what the samples do not fill, only the rows
    that must be zero are zeroed again: the ridge rows, before their
    diagonal is set, and the target's rows below the samples."""
    n_feat, samples = k * m, edges[-1]
    cols = n_feat + (1 if bias else 0)
    heights = [high - low for low, high in zip(edges[:-1], edges[1:])]
    heights[-1] += n_feat if ridge > 0 else 0
    design_buffer = np.empty(max(heights) * cols)
    # gelsy writes a solution of cols rows over a wide lone leaf's target
    target_buffer = np.empty(max(*heights, cols) * out_dim)
    leaf, design = 0, None
    for start, hist, tgt in _block_rows(blocks, samples, k, m, out_dim, "fit_blocks"):
        _refuse_nonfinite("fit_blocks", hist, tgt)
        hist = hist.reshape(hist.shape[0], n_feat)
        at, end = start, start + hist.shape[0]
        while at < end:
            low, high = edges[leaf], edges[leaf + 1]
            if design is None:
                rows = heights[leaf]
                design = design_buffer[:rows * cols].reshape((rows, cols), order="F")
                height = max(rows, cols)
                target = target_buffer[:height * out_dim].reshape((height, out_dim), order="F")
            stop = min(end, high)
            design[at - low:stop - low, :n_feat] = hist[at - start:stop - start]
            target[at - low:stop - low] = tgt[at - start:stop - start]
            at = stop
            if stop < high:
                continue
            if bias:
                design[:high - low, n_feat] = 1.0
            if rows > high - low:
                # ridge rows scale with the sample count so the penalty
                # matches the mean-squared objective of the SGD trainer
                design[high - low:] = 0.0
                np.fill_diagonal(design[high - low:, :n_feat], np.sqrt(ridge * samples))
            target[high - low:] = 0.0
            yield design, target
            leaf, design, target = leaf + 1, None, None


def _block_rows(blocks, samples, k, m, out_dim, where: str):
    """Yield each block's first sample index, its (S_i, k, m) histories and
    its targets as (S_i, out_dim) rows, refusing in the name of ``where``
    a block of other shapes, and blocks that do not hold ``samples``
    samples in all.  Each caller checks that what it stores of a block is
    finite (:func:`_refuse_nonfinite`)."""
    start = 0
    for hist, tgt in blocks:
        count = hist.shape[0]
        if (hist.shape[1:] != (k, m) or tgt.shape[0] != count or tgt.size != count * out_dim
                or start + count > samples):
            raise ParameterError(f"{where}: a block of {hist.shape} histories and {tgt.shape} "
                                 f"targets after {start} samples; expected (S, {k}, {m}) and S "
                                 f"targets of {out_dim} values, {samples} samples in all")
        yield start, hist, tgt.reshape(count, out_dim)
        start += count
    if start != samples:
        raise ParameterError(f"{where}: the blocks hold {start} samples, not {samples}")


def _refuse_nonfinite(where: str, *arrays):
    """Refuse, in the name of ``where``, sample arrays that hold a NaN or
    an infinity."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ParameterError(f"{where}: histories and targets must be finite")


def fit_superres(histories: np.ndarray, fields: np.ndarray,
                 ridge: float = 0.0, bias: bool = True) -> LinearMap:
    """Least-squares map from token histories to full-resolution fields."""
    fields = np.asarray(fields, dtype=float)
    if fields.ndim < 2:
        raise ParameterError(f"fit_superres: field targets must keep their spatial shape, "
                             f"got {fields.shape}")
    return fit_least_squares(histories, fields, ridge=ridge, bias=bias)


def mse_loss_and_grad(weights, bias, x, y, ridge: float = 0.0):
    """Mean-over-samples squared L2 residual, its gradients, all exact.

    loss = mean_i ||x_i W' + b - y_i||^2 + ridge ||W||_F^2
    """
    resid = x @ weights.T - y
    if bias is not None:
        resid += bias
    loss = float((resid**2).sum() / x.shape[0])
    gw = 2.0 * resid.T @ x / x.shape[0]
    if ridge:
        loss += ridge * float((weights**2).sum())
        gw += 2.0 * ridge * weights
    gb = 2.0 * resid.sum(axis=0) / x.shape[0] if bias is not None else None
    return loss, gw, gb


# the split rows _SplitStats gathers and sums at a time: a split of at
# most this many rows has the statistics of one product over all of it
_STATS_ROWS = 256


class _SplitStats:
    """The loss of :func:`mse_loss_and_grad` on one data split, from
    statistics formed once: G = XᵀX, C = XᵀY, ‖Y‖², the column sums s_x
    and s_y of X and Y, and the row count n.  Then

        n · mse = tr(W G Wᵀ) − 2 tr(W C) + ‖Y‖² + 2 bᵀ(W s_x − s_y) + n ‖b‖²,

    which costs (k·m)²·outputs multiply-adds and forms no residual.  The
    rows of X are ``windows[starts]``, gathered ``_STATS_ROWS`` at a time
    in split order with the matching rows of ``targets``, and each
    statistic sums its chunks' shares in that order, so only one chunk of
    X is ever formed.  The terms cancel as the fit improves, and each
    carries the rounding of its sums, so the result differs from a direct
    residual evaluation by about c·eps·(tr(W G Wᵀ) + ‖Y‖² + n ‖b‖²)/n,
    c = 2(k·m + √n): a sum over n rows whose rounding errors add in
    quadrature (the worst case replaces √n by n), whether it is summed in
    one product or in chunks.  A total that rounds below zero is reported
    as 0.
    """

    def __init__(self, windows, starts, targets):
        sums = None
        for low in range(0, len(starts), _STATS_ROWS):
            x = windows[starts[low:low + _STATS_ROWS]]
            y = targets[low:low + _STATS_ROWS]
            # a C-contiguous chunk, so the flat view copies nothing
            flat = y.reshape(-1)
            # ‖Y‖² as a 0-d array, so that += adds to it in place
            parts = [x.T @ x, x.T @ y, np.array(flat @ flat), x.sum(axis=0), y.sum(axis=0)]
            if sums is None:
                sums = parts
            else:
                for total, part in zip(sums, parts):
                    total += part
        self.gram, self.cross, yy, self.sx, self.sy = sums
        self.yy = float(yy)
        self.rows = len(starts)

    def loss(self, weights, bias, ridge: float) -> float:
        total = (float(((weights @ self.gram) * weights).sum())
                 - 2.0 * float((weights * self.cross.T).sum()) + self.yy)
        if bias is not None:
            total += (2.0 * float(bias @ (weights @ self.sx - self.sy))
                      + self.rows * float(bias @ bias))
        loss = max(total, 0.0) / self.rows
        if ridge:
            loss += ridge * float((weights**2).sum())
        return loss


# Adam's moment decay rates and denominator guard
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def _adam_update(param, grad, m, v, scratch, step_size, step: int):
    """One in-place Adam update of ``param`` and its moments ``m``, ``v``.

    ``scratch`` is shaped like ``param``, and ``grad`` is overwritten as
    the second scratch array once the moments have read it.  The
    operations and their order are those of the out-of-place form
    ``param - step_size * mhat / (sqrt(vhat) + eps)``, so the bits agree.
    """
    m *= _BETA1
    m += np.multiply(1 - _BETA1, grad, out=scratch)
    v *= _BETA2
    v += np.multiply(1 - _BETA2, np.square(grad, out=grad), out=grad)
    np.divide(m, 1 - _BETA1**step, out=grad)
    np.divide(v, 1 - _BETA2**step, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += _EPS
    grad *= step_size
    grad /= scratch
    param -= grad


def fit_sgd(histories: np.ndarray, targets: np.ndarray, config: TrainConfig,
            eval_split: float = 0.1, bias: bool = True):
    """Adam on the mean-squared objective, from a zero initial map: the
    one-block case of :func:`fit_sgd_blocks`."""
    hist, tgt = np.asarray(histories, dtype=float), np.asarray(targets, dtype=float)
    return fit_sgd_blocks([(hist, tgt)], len(hist), config, eval_split=eval_split, bias=bias)


@_one_blas_thread()
def fit_sgd_blocks(blocks, samples: int, config: TrainConfig, eval_split: float = 0.1,
                   bias: bool = True):
    """Adam on the mean-squared objective, from a zero initial map, over
    samples that arrive in blocks as for :func:`fit_blocks`.

    Returns ``(map, curves)`` where curves is a dict with per-epoch
    ``train`` and ``eval`` mean-squared residues (an epoch is one pass
    over the training split).  The evaluation split is carved off by a
    seeded permutation of the ``samples`` indices, drawn before any block
    is read; ``eval_split=0`` trains on everything and the eval curve
    stays empty.  The fit holds each token frame once: its histories are
    windows of one (F, m) frame array, each sample a start row in it.  A
    block whose histories are consecutive windows of one frame array (the
    views :func:`~latentpde.tokenizer.forecast_pairs`,
    :func:`~latentpde.tokenizer.build_histories` and
    :func:`~latentpde.tokenizer.build_reconstruction_pairs` return, told
    apart by their strides) adds its S + k - 1 frames, any other block k
    frames per history.  Each block's targets are written straight to
    their permuted rows of their split.  Each batch, and each chunk of a
    split's statistics, is gathered from the frame array as
    C-contiguous (rows, k·m) histories, with the values a copy of the
    histories would have.  Each split's statistics are formed once,
    before the first step, and each epoch's residues come from them (see
    :class:`_SplitStats` for the rounding bound), not from the samples, so
    the evaluation targets are freed before the first step.  The whole
    call, the statistics as well as the steps, runs on one BLAS thread
    (see :func:`_one_blas_thread`), so a library call gives the same bits
    on any core count.  A non-finite sample raises ParameterError, and a
    NaN/Inf loss DivergenceError with its step.
    """
    check_entries(locals(), {"eval_split": Key(float, "[)", (0, 1)), "bias": Key(bool)},
                  "fit_sgd_blocks", ParameterError)
    blocks, k, m, out_shape = _intake(blocks, samples, "fit_sgd_blocks")
    out_dim = math.prod(out_shape)
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(samples)
    n_eval = int(round(eval_split * samples))
    if n_eval == samples:
        raise ParameterError("fit_sgd_blocks: eval_split leaves no training samples")
    # sample perm[p] is row p of the evaluation split for p < n_eval, and
    # row p - n_eval of the training split after that
    row_of = np.empty(samples, dtype=np.intp)
    row_of[perm] = np.arange(samples)
    ye, yt = np.empty((n_eval, out_dim)), np.empty((samples - n_eval, out_dim))
    # the first frame of each sample's history, in sample order
    first = np.empty(samples, dtype=np.intp)
    parts, stored = [], 0
    for start, hist, tgt in _block_rows(blocks, samples, k, m, out_dim, "fit_sgd_blocks"):
        count = hist.shape[0]
        if count and hist.strides[0] == hist.strides[1]:
            # history r + 1 starts one frame after history r: the block
            # reads count + k - 1 frames, each in k histories
            part = np.array(np.lib.stride_tricks.as_strided(
                hist, (count + k - 1, m), hist.strides[1:], writeable=False), order="C")
            first[start:start + count] = stored + np.arange(count)
        else:
            part = np.array(hist, order="C").reshape(count * k, m)
            first[start:start + count] = stored + k * np.arange(count)
        _refuse_nonfinite("fit_sgd_blocks", part, tgt)
        parts.append(part)
        stored += len(part)
        rows_i = row_of[start:start + count]
        to_eval = rows_i < n_eval
        ye[rows_i[to_eval]] = tgt[to_eval]
        yt[rows_i[~to_eval] - n_eval] = tgt[~to_eval]
    frames = parts[0] if len(parts) == 1 else np.concatenate(parts)
    del parts
    # row s is the flat history of k frames from frame s on, as a view
    windows = np.lib.stride_tricks.as_strided(frames, (stored - k + 1, k * m),
                                              (frames.strides[0], frames.itemsize),
                                              writeable=False)
    starts = first[perm[n_eval:]]
    splits = {"train": _SplitStats(windows, starts, yt)}
    if n_eval:
        splits["eval"] = _SplitStats(windows, first[perm[:n_eval]], ye)
    # the evaluation split enters the fit only through its statistics
    del ye, first
    weights = np.zeros((out_dim, k * m))
    bias_vec = np.zeros(out_dim) if bias else None
    params = [weights] + ([bias_vec] if bias else [])
    # per parameter: the Adam moments m and v, then one scratch array
    buffers = [[np.zeros_like(p) for _ in range(3)] for p in params]
    batch = min(config.batch_size, len(yt))
    steps_per_epoch = max(1, -(-len(yt) // batch))
    order = rng.permutation(len(yt))
    cursor = 0
    curves = {"train": [], "eval": []}

    def record():
        for key, stats in splits.items():
            curves[key].append(stats.loss(weights, bias_vec, config.ridge))

    lr = config.learning_rate
    for step in range(1, config.steps + 1):
        if cursor + batch > len(yt):
            order = rng.permutation(len(yt))
            cursor = 0
        sel = order[cursor:cursor + batch]
        cursor += batch
        loss, gw, gb = mse_loss_and_grad(weights, bias_vec, windows[starts[sel]], yt[sel],
                                         config.ridge)
        if not np.isfinite(loss):
            raise DivergenceError(f"training loss diverged at step {step}", step=step)
        for param, grad, buf in zip(params, (gw, gb), buffers):
            _adam_update(param, grad, *buf, lr, step)
        lr *= config.lr_decay
        if step % steps_per_epoch == 0 or step == config.steps:
            record()
    if config.steps == 0:
        record()
    linear_map = LinearMap(weights, bias_vec, k, m, out_shape)
    return linear_map, {key: np.asarray(val) for key, val in curves.items()}


def history_sweep(train_tokens, eval_tokens, k_values, ridge: float = 0.0):
    """One-step forecast error as a function of history length.

    ``train_tokens`` and ``eval_tokens`` are sequences of (T, m) token
    trajectories; every evaluation trajectory is a fresh initial
    condition.  For each k the forecaster is fitted by least squares on
    all training windows, then scored on each evaluation trajectory by
    its one-step mean absolute error (l1) and max absolute error (linf).
    Returns a list of row dicts with per-k means and standard deviations
    over the evaluation trajectories.
    """
    rows = []
    for k in k_values:
        check_entries({"k": k}, {"k": _HEADER_TABLE["history_len"]}, "history_sweep",
                      ParameterError)
        # window views of the token arrays: the design is the only copy
        pairs = [forecast_pairs(tokens, k) for tokens in train_tokens]
        fitted = fit_blocks(pairs, sum(len(h) for h, _ in pairs), ridge=ridge)
        l1 = []
        linf = []
        for tokens in eval_tokens:
            hist, target = forecast_pairs(tokens, k)
            err = np.abs(fitted.apply(hist) - target)
            l1.append(err.mean())
            linf.append(err.max())
        rows.append({
            "k": int(k),
            "l1_mean": float(np.mean(l1)),
            "l1_std": float(np.std(l1, ddof=1)) if len(l1) > 1 else 0.0,
            "linf_mean": float(np.mean(linf)),
            "linf_std": float(np.std(linf, ddof=1)) if len(linf) > 1 else 0.0,
            "trials": len(l1),
        })
    return rows
