"""Linear forecasting and super-resolution maps plus their trainers.

Both map families share one hypothesis class: a single affine map applied
to a flattened history of k token frames (oldest frame first).  The
forecaster outputs the next token frame; the super-resolution map outputs
a full-resolution field.  Training is either exact least squares through
an orthogonal factorization or Adam-style stochastic gradient descent on
the same mean-squared objective.
"""

import contextlib
from dataclasses import dataclass
import itertools
import json
import math
import warnings

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .dataset import NORMALIZATION_TABLE, atomic_write
from .errors import DataFormatError, DivergenceError, Key, ParameterError, check_entries

_HEADER_TABLE = {"version": Key(int, "==", 2), "format": Key(str, "==", "linear-map"),
                 "history_len": Key(int, ">=", 1), "token_dim": Key(int, ">=", 1),
                 "out_dim": Key(int, ">=", 0), "has_bias": Key(bool),
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


def _intake(blocks, samples: int):
    """The prologue of :func:`fit_blocks` and :func:`fit_sgd_blocks`: the
    blocks as one iterator, with the k, m and output shape that the first
    block sets.  :func:`_block_rows` then checks every block as it is read."""
    blocks = iter(blocks)
    first = next(blocks, None)
    if first is None or samples < 1:
        raise ParameterError("histories hold no samples")
    hist, tgt = first
    if hist.ndim != 3:
        raise ParameterError(f"histories must be (S, k, m), got shape {hist.shape}")
    out_shape = tgt.shape[1:] if tgt.ndim > 1 else (1,)
    return itertools.chain([first], blocks), *hist.shape[1:], out_shape


def fit_least_squares(histories: np.ndarray, targets: np.ndarray,
                      ridge: float = 0.0, bias: bool = True) -> LinearMap:
    """Exact minimiser of  mean ||X w - y||^2 + ridge ||w||^2: the one-block
    case of :func:`fit_blocks`."""
    hist, tgt = np.asarray(histories, dtype=float), np.asarray(targets, dtype=float)
    return fit_blocks([(hist, tgt)], len(hist), ridge=ridge, bias=bias)


def fit_blocks(blocks, samples: int, ridge: float = 0.0, bias: bool = True) -> LinearMap:
    """Exact minimiser of  mean ||X w - y||^2 + ridge ||w||^2  over samples
    that arrive in blocks.

    Each block is a pair of arrays ``(histories, targets)`` of shapes
    (S_i, k, m) and (S_i, ...), typically the samples of one trajectory.
    The first block sets k, m and the output shape, and the S_i sum to
    ``samples``.  Each block is read once, in order, into the
    Fortran-order design (features, bias column, ridge rows) and target,
    the only copy of the samples the fit makes, so a block may be a window
    view that is dropped once read.  The design is then factored in place
    as Q R by a blocked Householder QR, Q^T is applied to the target in
    place, and R w = (Q^T y)[:p], p = min(rows, cols), is solved by LAPACK
    gelsy, a complete orthogonal decomposition of R alone (Chan 1982's QR
    preprocessing for tall designs).  R has the singular values of the
    design, so for a rank-deficient design with ridge = 0 the result is
    the minimum-norm solution; deficiency is recorded in
    ``design_rank`` and warned about.  ``design_rank`` is gelsy's count at
    its machine-epsilon cut on R, a rounding-level count on an
    ill-conditioned design.  What the fit promises is its training
    predictions and residual norm to a backward-stable tolerance, not its
    weight bytes.  The ridge penalty never touches the bias column.
    """
    check_entries(locals(), {"ridge": TRAIN_TABLE["ridge"]}, "fit_blocks", ParameterError)
    blocks, k, m, output_shape = _intake(blocks, samples)
    n_feat = k * m
    design, target = _assemble(blocks, samples, k, m, math.prod(output_shape), ridge, bias)
    rows, cols = design.shape
    p = min(rows, cols)
    # the workspace queries keep LAPACK on its blocked code paths
    lwork, _ = lapack.dgeqrf_lwork(rows, cols)
    qr, tau, _, info_qr = lapack.dgeqrf(design, lwork=int(lwork), overwrite_a=1)
    # the query reads no entry of the target; without overwrite_c it would copy it
    _, work, _ = lapack.dormqr("L", "T", qr[:, :p], tau, target, lwork=-1, overwrite_c=1)
    qty, _, info_q = lapack.dormqr("L", "T", qr[:, :p], tau, target, lwork=int(work[0]),
                                   overwrite_c=1)
    if info_qr or info_q:
        raise RuntimeError(f"LAPACK QR of the design failed (info {info_qr}, {info_q})")
    # each large array goes once its first p rows are copied out, so the
    # target and R are never held at once
    rhs = qty[:p].copy(order="F")
    del target, qty
    r = np.triu(qr[:p])
    del design, qr
    sol, _, rank, _ = scipy.linalg.lstsq(r, rhs, lapack_driver="gelsy",
                                         overwrite_a=True, overwrite_b=True)
    if ridge == 0 and rank < cols:
        warnings.warn(f"rank-deficient design: rank {rank} < {cols} columns; "
                      "returning the minimum-norm solution", RuntimeWarning)
    weights = sol[:n_feat].T.copy()
    bias_vec = sol[n_feat].copy() if bias else None
    return LinearMap(weights, bias_vec, k, m, output_shape, design_rank=int(rank))


def _assemble(blocks, samples, k, m, out_dim, ridge, bias):
    """The Fortran-order design and target that LAPACK factors and
    overwrites in place, filled block by block: the only copy of the
    samples a fit makes."""
    n_feat = k * m
    cols = n_feat + (1 if bias else 0)
    rows = samples + (n_feat if ridge > 0 else 0)
    design = np.zeros((rows, cols), order="F")
    target = np.zeros((rows, out_dim), order="F")
    for start, hist, tgt in _block_rows(blocks, samples, k, m, out_dim):
        rows_i = slice(start, start + hist.shape[0])
        design[rows_i, :n_feat] = hist
        target[rows_i] = tgt
    if bias:
        design[:samples, n_feat] = 1.0
    if ridge > 0:
        # ridge rows scale with the sample count so the penalty matches
        # the mean-squared objective of the SGD trainer
        np.fill_diagonal(design[samples:, :n_feat], np.sqrt(ridge * samples))
    return design, target


def _block_rows(blocks, samples, k, m, out_dim):
    """Yield each block's first sample index and its histories and targets
    as (S_i, k*m) and (S_i, out_dim) rows, refusing a block of other shapes
    or not finite, and blocks that do not hold ``samples`` samples in all."""
    start = 0
    for hist, tgt in blocks:
        count = hist.shape[0]
        if (hist.shape[1:] != (k, m) or tgt.shape[0] != count or tgt.size != count * out_dim
                or start + count > samples):
            raise ParameterError(f"a block of {hist.shape} histories and {tgt.shape} targets "
                                 f"after {start} samples; expected (S, {k}, {m}) and S targets "
                                 f"of {out_dim} values, {samples} samples in all")
        if not (np.isfinite(hist).all() and np.isfinite(tgt).all()):
            raise ParameterError("histories and targets must be finite")
        yield start, hist.reshape(count, k * m), tgt.reshape(count, out_dim)
        start += count
    if start != samples:
        raise ParameterError(f"the blocks hold {start} samples, not {samples}")


def fit_superres(histories: np.ndarray, fields: np.ndarray,
                 ridge: float = 0.0, bias: bool = True) -> LinearMap:
    """Least-squares map from token histories to full-resolution fields."""
    fields = np.asarray(fields, dtype=float)
    if fields.ndim < 2:
        raise ParameterError(f"field targets must keep their spatial shape, got {fields.shape}")
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


class _SplitStats:
    """The loss of :func:`mse_loss_and_grad` on one data split, from
    statistics formed once: G = XᵀX, C = XᵀY, ‖Y‖², the column sums s_x
    and s_y of X and Y, and the row count n.  Then

        n · mse = tr(W G Wᵀ) − 2 tr(W C) + ‖Y‖² + 2 bᵀ(W s_x − s_y) + n ‖b‖²,

    which costs (k·m)²·outputs multiply-adds and forms no residual.  The
    terms cancel as the fit improves, and each carries the rounding of
    its sums, so the result differs from a direct residual evaluation by
    about c·eps·(tr(W G Wᵀ) + ‖Y‖² + n ‖b‖²)/n, c = 2(k·m + √n): a
    sum over n rows whose rounding errors add in quadrature (the worst
    case replaces √n by n).  A total that rounds below zero is reported
    as 0.
    """

    def __init__(self, x, y):
        self.gram = x.T @ x
        self.cross = x.T @ y
        # a C-contiguous split, so the flat view copies nothing
        flat = y.reshape(-1)
        self.yy = float(flat @ flat)
        self.sx, self.sy = x.sum(axis=0), y.sum(axis=0)
        self.rows = x.shape[0]

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


def _blas_thread_setter():
    """numpy's OpenBLAS ``openblas_set_num_threads_local``, or None when
    numpy runs another BLAS or an OpenBLAS without it.  The lookup goes
    through numpy's own extension module, whose handle resolves to the
    OpenBLAS numpy links; scipy loads a second copy with its own pool."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath
        setter = ctypes.CDLL(_multiarray_umath.__file__).openblas_set_num_threads_local
    except (ImportError, OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


# numpy's OpenBLAS thread count before the outermost open scope pinned it
_unpinned_threads = None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, restore the
    previous count on the way out, and yield the count the outermost
    open scope found: the cores a caller may spend on independent work.

    The count is process-wide, not per thread: while the block runs,
    every thread's numpy products and factorizations run on one BLAS
    thread.  The small products and factorizations the verbs run are too
    small to share, and the second thread of the pool spins between
    calls.  A general product keeps its bits on any count, since
    OpenBLAS splits it over rows and columns, never over the summed
    dimension, and so do singular values; a dot product, a Gram product
    ``x.T @ x`` and an LU may round differently.  Without the setter the
    block runs as it is, the yield is 1, and nothing is said.
    """
    global _unpinned_threads
    setter = _blas_thread_setter()
    if setter is None:
        yield 1
        return
    previous = setter(1)
    outermost = _unpinned_threads is None
    if outermost:
        _unpinned_threads = previous
    try:
        yield _unpinned_threads
    finally:
        setter(previous)
        if outermost:
            _unpinned_threads = None


# Adam's moment decay rates and denominator guard
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def _adam_update(param, grad, m, v, s1, s2, step_size, step: int):
    """One in-place Adam update of ``param`` and its moments ``m``, ``v``.

    ``s1`` and ``s2`` are scratch arrays shaped like ``param``.  The
    operations and their order are those of the out-of-place form
    ``param - step_size * mhat / (sqrt(vhat) + eps)``, so the bits agree.
    """
    m *= _BETA1
    m += np.multiply(1 - _BETA1, grad, out=s1)
    v *= _BETA2
    v += np.multiply(1 - _BETA2, np.square(grad, out=s1), out=s1)
    np.divide(m, 1 - _BETA1**step, out=s1)
    np.divide(v, 1 - _BETA2**step, out=s2)
    np.sqrt(s2, out=s2)
    s2 += _EPS
    s1 *= step_size
    s1 /= s2
    param -= s1


def fit_sgd(histories: np.ndarray, targets: np.ndarray, config: TrainConfig,
            eval_split: float = 0.1, bias: bool = True):
    """Adam on the mean-squared objective, from a zero initial map: the
    one-block case of :func:`fit_sgd_blocks`."""
    hist, tgt = np.asarray(histories, dtype=float), np.asarray(targets, dtype=float)
    return fit_sgd_blocks([(hist, tgt)], len(hist), config, eval_split=eval_split, bias=bias)


def fit_sgd_blocks(blocks, samples: int, config: TrainConfig, eval_split: float = 0.1,
                   bias: bool = True):
    """Adam on the mean-squared objective, from a zero initial map, over
    samples that arrive in blocks as for :func:`fit_blocks`.

    Returns ``(map, curves)`` where curves is a dict with per-epoch
    ``train`` and ``eval`` mean-squared residues (an epoch is one pass
    over the training split).  The evaluation split is carved off by a
    seeded permutation of the ``samples`` indices, drawn before any block
    is read; ``eval_split=0`` trains on everything and the eval curve
    stays empty.  Each block's rows are written straight to their permuted
    places in the histories and targets of their split, the only copy of
    the samples the fit makes.  Each split's statistics are formed once,
    before the first step, and each epoch's residues come from them (see
    :class:`_SplitStats` for the rounding bound), not from the samples, so
    the evaluation split is freed before the first step.  The steps run
    on one BLAS thread (see :func:`_one_blas_thread`).  A non-finite sample
    raises ParameterError, and a NaN/Inf loss DivergenceError with its step.
    """
    check_entries(locals(), {"eval_split": Key(float, "[)", (0, 1))}, "fit_sgd_blocks",
                  ParameterError)
    blocks, k, m, out_shape = _intake(blocks, samples)
    out_dim = math.prod(out_shape)
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(samples)
    n_eval = int(round(eval_split * samples))
    if n_eval == samples:
        raise ParameterError("eval_split leaves no training samples")
    # sample perm[p] is row p of the evaluation split for p < n_eval, and
    # row p - n_eval of the training split after that
    row_of = np.empty(samples, dtype=np.intp)
    row_of[perm] = np.arange(samples)
    xe, ye = np.empty((n_eval, k * m)), np.empty((n_eval, out_dim))
    xt, yt = np.empty((samples - n_eval, k * m)), np.empty((samples - n_eval, out_dim))
    for start, hist, tgt in _block_rows(blocks, samples, k, m, out_dim):
        rows_i = row_of[start:start + hist.shape[0]]
        to_eval, to_train = rows_i < n_eval, rows_i >= n_eval
        xe[rows_i[to_eval]] = hist[to_eval]
        ye[rows_i[to_eval]] = tgt[to_eval]
        xt[rows_i[to_train] - n_eval] = hist[to_train]
        yt[rows_i[to_train] - n_eval] = tgt[to_train]
    splits = {"train": _SplitStats(xt, yt)}
    if n_eval:
        splits["eval"] = _SplitStats(xe, ye)
    # the evaluation split enters the fit only through its statistics
    del xe, ye
    weights = np.zeros((out_dim, k * m))
    bias_vec = np.zeros(out_dim) if bias else None
    params = [weights] + ([bias_vec] if bias else [])
    # per parameter: the Adam moments m and v, then two scratch arrays
    buffers = [[np.zeros_like(p) for _ in range(4)] for p in params]
    batch = min(config.batch_size, xt.shape[0])
    steps_per_epoch = max(1, -(-xt.shape[0] // batch))
    order = rng.permutation(xt.shape[0])
    cursor = 0
    curves = {"train": [], "eval": []}

    def record():
        for key, stats in splits.items():
            curves[key].append(stats.loss(weights, bias_vec, config.ridge))

    lr = config.learning_rate
    with _one_blas_thread():
        for step in range(1, config.steps + 1):
            if cursor + batch > xt.shape[0]:
                order = rng.permutation(xt.shape[0])
                cursor = 0
            sel = order[cursor:cursor + batch]
            cursor += batch
            loss, gw, gb = mse_loss_and_grad(weights, bias_vec, xt[sel], yt[sel], config.ridge)
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
    from .tokenizer import forecast_pairs

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
