"""Linear forecasting and super-resolution maps plus their trainers.

Both map families share one hypothesis class: a single affine map applied
to a flattened history of k token frames (oldest frame first).  The
forecaster outputs the next token frame; the super-resolution map outputs
a full-resolution field.  Training is either exact least squares through
an orthogonal factorization or Adam-style stochastic gradient descent on
the same mean-squared objective.
"""

from dataclasses import dataclass
import json
import struct
import warnings

import numpy as np
import scipy.linalg

from .errors import DataFormatError, DivergenceError, ParameterError


@dataclass
class LinearMap:
    """Affine map from a k-frame token history to a flat output vector.

    weights:      (out_dim, k * token_dim)
    bias:         (out_dim,) or None
    history_len:  k
    token_dim:    tokens per frame
    output_shape: shape the flat output is reshaped to (e.g. (m,) or (n, n))
    design_rank:  column rank of the training design, when known
    """

    weights: np.ndarray
    bias: np.ndarray | None
    history_len: int
    token_dim: int
    output_shape: tuple
    design_rank: int | None = None

    @property
    def in_dim(self) -> int:
        return self.history_len * self.token_dim

    def apply(self, history: np.ndarray) -> np.ndarray:
        """Evaluate on one history (k, m) or a batch (..., k, m)."""
        hist = np.asarray(history, dtype=float)
        if hist.ndim >= 2:
            if hist.shape[-2:] != (self.history_len, self.token_dim):
                raise ParameterError(
                    f"history frames {hist.shape[-2:]} do not match map frames "
                    f"({self.history_len}, {self.token_dim})")
            flat = hist.reshape(*hist.shape[:-2], self.in_dim)
        else:
            flat = hist
        if flat.shape[-1] != self.in_dim:
            raise ParameterError(f"history has {flat.shape[-1]} entries, map expects {self.in_dim}")
        out = flat @ self.weights.T
        if self.bias is not None:
            out = out + self.bias
        return out.reshape(*flat.shape[:-1], *self.output_shape)

    def save(self, path) -> None:
        """JSON header line, NUL byte, then little-endian float64 blocks."""
        header = {
            "format": "linear-map",
            "version": 1,
            "history_len": self.history_len,
            "token_dim": self.token_dim,
            "output_shape": list(self.output_shape),
            "out_dim": int(self.weights.shape[0]),
            "has_bias": self.bias is not None,
            "design_rank": self.design_rank,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n\0")
            fh.write(self.weights.astype("<f8").tobytes())
            if self.bias is not None:
                fh.write(self.bias.astype("<f8").tobytes())

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
        if header.get("format") != "linear-map" or header.get("version") != 1:
            raise DataFormatError(f"{path}: not a version-1 linear-map file")
        out_dim = header["out_dim"]
        in_dim = header["history_len"] * header["token_dim"]
        body = blob[cut + 2:]
        need = out_dim * in_dim + (out_dim if header["has_bias"] else 0)
        if len(body) != need * 8:
            raise DataFormatError(f"{path}: expected {need * 8} payload bytes, found {len(body)}")
        weights = np.frombuffer(body, dtype="<f8", count=out_dim * in_dim).reshape(out_dim, in_dim)
        bias = None
        if header["has_bias"]:
            bias = np.frombuffer(body, dtype="<f8", count=out_dim, offset=out_dim * in_dim * 8)
        return cls(
            weights=weights.copy(),
            bias=None if bias is None else bias.copy(),
            history_len=header["history_len"],
            token_dim=header["token_dim"],
            output_shape=tuple(header["output_shape"]),
            design_rank=header["design_rank"],
        )


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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    ridge: float = 0.0
    seed: int = 0
    lr_decay: float = 1.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ParameterError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.steps < 0:
            raise ParameterError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.lr_decay <= 1:
            raise ParameterError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.ridge < 0:
            raise ParameterError(f"ridge must be >= 0, got {self.ridge}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise ParameterError(f"{name} must be in [0, 1), got {value}")
        if self.eps <= 0:
            raise ParameterError(f"eps must be > 0, got {self.eps}")


def _design(histories: np.ndarray, targets: np.ndarray):
    """Flatten histories/targets into a 2-d design and target matrix."""
    hist = np.asarray(histories, dtype=float)
    tgt = np.asarray(targets, dtype=float)
    if hist.ndim != 3:
        raise ParameterError(f"histories must be (S, k, m), got shape {hist.shape}")
    if tgt.shape[0] != hist.shape[0]:
        raise ParameterError(f"{hist.shape[0]} histories vs {tgt.shape[0]} targets")
    s, k, m = hist.shape
    out_shape = tgt.shape[1:] if tgt.ndim > 1 else (1,)
    return hist.reshape(s, k * m), tgt.reshape(s, -1), k, m, out_shape


def fit_least_squares(histories: np.ndarray, targets: np.ndarray,
                      ridge: float = 0.0, bias: bool = True) -> LinearMap:
    """Exact minimiser of  mean ||X w - y||^2 + ridge ||w||^2.

    Solved by an orthogonal (complete QR) factorization, so the result is
    deterministic and, for a rank-deficient design with ridge = 0, the
    minimum-norm solution; deficiency is recorded in ``design_rank`` and
    warned about.  The ridge penalty never touches the bias column.
    """
    x, y, k, m, out_shape = _design(histories, targets)
    if ridge < 0:
        raise ParameterError(f"ridge must be >= 0, got {ridge}")
    n_feat = x.shape[1]
    cols = n_feat + (1 if bias else 0)
    design = np.hstack([x, np.ones((x.shape[0], 1))]) if bias else x
    target = y
    if ridge > 0:
        # ridge rows scale with the sample count so the penalty matches
        # the mean-squared objective of the SGD trainer
        penalty = np.zeros((n_feat, cols))
        penalty[:, :n_feat] = np.sqrt(ridge * x.shape[0]) * np.eye(n_feat)
        design = np.vstack([design, penalty])
        target = np.vstack([y, np.zeros((n_feat, y.shape[1]))])
    sol, _, rank, _ = scipy.linalg.lstsq(design, target, lapack_driver="gelsy")
    if ridge == 0 and rank < cols:
        warnings.warn(f"rank-deficient design: rank {rank} < {cols} columns; "
                      "returning the minimum-norm solution", RuntimeWarning)
    weights = sol[:n_feat].T.copy()
    bias_vec = sol[n_feat].copy() if bias else None
    return LinearMap(weights, bias_vec, k, m, out_shape, design_rank=int(rank))


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
        resid = resid + bias
    loss = float((resid**2).sum() / x.shape[0]) + ridge * float((weights**2).sum())
    gw = 2.0 * resid.T @ x / x.shape[0] + 2.0 * ridge * weights
    gb = 2.0 * resid.sum(axis=0) / x.shape[0] if bias is not None else None
    return loss, gw, gb


def fit_sgd(histories: np.ndarray, targets: np.ndarray, config: TrainConfig,
            eval_split: float = 0.1, bias: bool = True):
    """Adam on the mean-squared objective, from a zero initial map.

    Returns ``(map, curves)`` where curves is a dict with per-epoch
    ``train`` and ``eval`` mean-squared residues (an epoch is one pass
    over the training split).  The evaluation split is carved off by a
    seeded permutation; ``eval_split=0`` trains on everything and the
    eval curve stays empty.  NaN/Inf loss raises DivergenceError with the
    offending step.
    """
    x, y, k, m, out_shape = _design(histories, targets)
    if not 0 <= eval_split < 1:
        raise ParameterError(f"eval_split must be in [0, 1), got {eval_split}")
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(x.shape[0])
    n_eval = int(round(eval_split * x.shape[0]))
    eval_idx, train_idx = perm[:n_eval], perm[n_eval:]
    if train_idx.size == 0:
        raise ParameterError("eval_split leaves no training samples")
    xt, yt = x[train_idx], y[train_idx]
    xe, ye = x[eval_idx], y[eval_idx]
    out_dim = y.shape[1]
    weights = np.zeros((out_dim, x.shape[1]))
    bias_vec = np.zeros(out_dim) if bias else None
    mw = np.zeros_like(weights)
    vw = np.zeros_like(weights)
    mb = np.zeros(out_dim) if bias else None
    vb = np.zeros(out_dim) if bias else None
    batch = min(config.batch_size, xt.shape[0])
    steps_per_epoch = max(1, -(-xt.shape[0] // batch))
    order = rng.permutation(xt.shape[0])
    cursor = 0
    curves = {"train": [], "eval": []}

    def record():
        curves["train"].append(mse_loss_and_grad(weights, bias_vec, xt, yt, config.ridge)[0])
        if xe.shape[0]:
            curves["eval"].append(mse_loss_and_grad(weights, bias_vec, xe, ye, config.ridge)[0])

    lr = config.learning_rate
    for step in range(1, config.steps + 1):
        if cursor + batch > xt.shape[0]:
            order = rng.permutation(xt.shape[0])
            cursor = 0
        sel = order[cursor:cursor + batch]
        cursor += batch
        loss, gw, gb = mse_loss_and_grad(weights, bias_vec, xt[sel], yt[sel], config.ridge)
        if not np.isfinite(loss):
            raise DivergenceError(f"training loss diverged at step {step}", step=step)
        mw = config.beta1 * mw + (1 - config.beta1) * gw
        vw = config.beta2 * vw + (1 - config.beta2) * gw**2
        mhat = mw / (1 - config.beta1**step)
        vhat = vw / (1 - config.beta2**step)
        weights = weights - lr * mhat / (np.sqrt(vhat) + config.eps)
        if bias_vec is not None:
            mb = config.beta1 * mb + (1 - config.beta1) * gb
            vb = config.beta2 * vb + (1 - config.beta2) * gb**2
            bias_vec = bias_vec - lr * (mb / (1 - config.beta1**step)) / (
                np.sqrt(vb / (1 - config.beta2**step)) + config.eps)
        lr *= config.lr_decay
        if step % steps_per_epoch == 0 or step == config.steps:
            record()
    if config.steps == 0:
        record()
    linear_map = LinearMap(weights, bias_vec, k, m, out_shape)
    return linear_map, {key: np.asarray(val) for key, val in curves.items()}


def history_sweep(train_tokens, eval_tokens, k_values, learner: str = "lstsq",
                  ridge: float = 0.0, config: TrainConfig | None = None):
    """One-step forecast error as a function of history length.

    ``train_tokens`` and ``eval_tokens`` are sequences of (T, m) token
    trajectories; every evaluation trajectory is a fresh initial
    condition.  For each k the forecaster is fitted on all training
    windows, then scored on each evaluation trajectory by its one-step
    mean absolute error (l1) and max absolute error (linf).  Returns a
    list of row dicts with per-k means and standard deviations over the
    evaluation trajectories.
    """
    from .tokenizer import forecast_pairs

    if learner not in ("lstsq", "sgd"):
        raise ParameterError(f"learner must be 'lstsq' or 'sgd', got {learner!r}")
    rows = []
    for k in k_values:
        if k < 1:
            raise ParameterError(f"history length must be >= 1, got {k}")
        hists, targs = zip(*(forecast_pairs(tokens, k) for tokens in train_tokens))
        histories = np.concatenate(hists)
        targets = np.concatenate(targs)
        if learner == "lstsq":
            fitted = fit_least_squares(histories, targets, ridge=ridge)
        else:
            fitted, _ = fit_sgd(histories, targets, config or TrainConfig(), eval_split=0.0)
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
