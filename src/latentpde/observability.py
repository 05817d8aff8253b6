"""Observability certificates for linear lattice systems and an empirical
rank diagnostic for nonlinear ones.

For a linear system x' = A x observed through y = h x, the certificates
agree (theorem-level equivalence, exercised by the tests):

  * Kalman: the stacked matrix (h; hA; ...; hA^{p-1}) has full column rank.
  * Hautus: no eigenvector of A lies in the kernel of h.
  * Gramian: the finite-horizon observability Gramian is invertible, in
    which case the initial state can be reconstructed from the output
    signal by quadrature.

Patch averaging is *not* observable for constant-coefficient generators:
a lattice harmonic that completes a full period inside every patch is
annihilated by the tokenizer yet is an eigenvector of the generator, so
its entire orbit is invisible.  :func:`annihilation_witness` constructs
that state explicitly.

The Kalman and Hautus checks answer a wave pair A = [[0, I], [L, 0]],
h = [P, 0] from the symmetric heat pair (L, P): ranks and the
observability index double, each eigenvalue mu of L gives +-sqrt(mu)
with |P v| scaled by 1/sqrt(1 + |mu|), and the heat cluster at 0 is a
Jordan chain tested on its eigenvectors [v; 0].  Each Gramian entry
point makes one call of :func:`_simpson_sums`, which sums a symmetric
generator in its ``eigh`` eigenbasis and steps any other by ``expm``.

Each check returns a report whose ``to_text`` the command line prints.
"""

from concurrent.futures import ThreadPoolExecutor
import contextlib
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

from .errors import Key, NonObservableError, ParameterError, check_entries
from .dataset import lattice_system
from .lattice_ops import GridSpec, build_tokenizer_matrix
from .learners import _one_blas_thread
from .solvers import _gershgorin_radius
from .tokenizer import TOKEN_ARGS, tokenize_trajectory

_REL_TOL = {"rel_tol": Key(float, "()", (0, 1))}
_LIE_ARGS = {"patch": TOKEN_ARGS["patch"], "derivative_order": Key(int, ">=", 1),
             "window": Key(int, ">=", 1), "burn_frac": Key(float, "[)", (0, 1))}


class _KeyValueReport:
    """``to_text`` for report dataclasses: ``method = METHOD``, then one
    ``name = value`` line per field, formatted by the field's ``fmt``
    metadata; a list prints comma-joined.  Fields set to None or declared
    ``repr=False`` are left out.
    """

    def to_text(self) -> str:
        lines = [f"method = {self.METHOD}"]
        for f in fields(self):
            value = getattr(self, f.name)
            if not f.repr or value is None:
                continue
            if isinstance(value, list):
                value = ",".join(map(str, value))
            lines.append(f"{f.name} = {value:{f.metadata.get('fmt', '')}}")
        return "\n".join(lines) + "\n"


def _fmt(spec: str):
    return field(metadata={"fmt": spec})


@dataclass
class RankReport(_KeyValueReport):
    """Numerical column rank of a matrix and all its singular values."""

    METHOD = "kalman-rank"
    state_dim: int
    observable: bool
    tolerance: float = _fmt(".3e")
    rank: int
    singular_values: np.ndarray = field(repr=False)


@dataclass
class KalmanReport(_KeyValueReport):
    """Outcome of :func:`kalman_rank_test`, whose docstring defines the
    fields; the generator was scaled by ``generator_rescaled_by``."""

    METHOD = "kalman-rank"
    state_dim: int
    observable: bool
    tolerance: float = _fmt(".3e")
    rank: int
    observability_index: int
    block_ranks: list
    hidden_in_span: int
    smallest_kept: float = _fmt(".6e")
    largest_rejected: float = _fmt(".6e")
    generator_rescaled_by: float = _fmt(".6e")


@dataclass
class HautusReport(_KeyValueReport):
    """Eigenvector test; ``failing`` rows (eigenvalue, cluster size, min |h v|)
    are the clusters below ``tolerance``, one ``failing_eigenvalue`` line each."""

    METHOD = "hautus"
    state_dim: int
    observable: bool
    tolerance: float = _fmt(".3e")
    tested_eigenvalues: int
    failing: list = field(repr=False)

    def to_text(self) -> str:
        return super().to_text() + "".join(
            f"failing_eigenvalue = {lam.real:+.6e}{lam.imag:+.6e}j "
            f"multiplicity={mult} min_output_norm={norm:.3e}\n"
            for lam, mult, norm in self.failing)


def _as_dense(mat) -> np.ndarray:
    return mat.toarray() if sp.issparse(mat) else np.asarray(mat, dtype=float)


def _output_map(A, h) -> np.ndarray:
    """Dense 2-d output map, checked against the square generator A."""
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ParameterError(f"generator must be square, got {A.shape}")
    hd = _as_dense(h)
    if hd.ndim != 2 or hd.shape[1] != n:
        raise ParameterError(f"output map must be 2-d with {n} columns, got shape {hd.shape}")
    return hd


def kalman_observability_matrix(A, h) -> np.ndarray:
    """Stack (h; hA; ...; hA^{n-1}) for the n-dim generator A."""
    n = A.shape[0]
    hd = _output_map(A, h)
    at = A.T if sp.issparse(A) else np.asarray(A, dtype=float).T
    block_t = hd.T.copy()  # (n, m); iterate on the transpose so sparse @ dense works
    blocks = [block_t.T]
    for _ in range(n - 1):
        block_t = at @ block_t
        blocks.append(block_t.T)
    return np.vstack(blocks)


def rank_test(matrix: np.ndarray, rel_tol: float = 1e-10) -> RankReport:
    """Numerical column rank via singular values > rel_tol * largest."""
    check_entries(locals(), _REL_TOL, "rank_test", ParameterError)
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ParameterError(f"rank test needs a nonempty 2-d matrix, got shape {matrix.shape}")
    svals = np.linalg.svd(matrix, compute_uv=False)
    rank = int((svals > rel_tol * svals[0]).sum()) if svals[0] > 0 else 0
    return RankReport(matrix.shape[1], rank == matrix.shape[1], rel_tol, rank, svals)


def kalman_rank_test(A, h, rel_tol: float = 1e-10) -> KalmanReport:
    """Kalman rank by an orthogonal staircase (block Arnoldi on A'),
    checked against the eigenvectors of the span it finds.

    The generator is first divided by its Gershgorin bound (at least 1),
    which leaves the Krylov span unchanged.  The first block is an
    orthonormal basis of the row space of h; each next block is A' times
    the last one, orthogonalized against the basis so far by classical
    Gram-Schmidt run twice, then reduced by an SVD to the directions above
    ``rel_tol``.  Singular values are measured relative to sigma_max(h) in
    the first block and to the rescaled generator's row-sum bound after
    it.  The loop stops at the first block that keeps nothing or when the
    basis spans the state space.  Unlike the stacked powers of
    :func:`kalman_observability_matrix`, whose monomial basis loses
    directions to rounding, every step is orthogonal (Paige 1981, IEEE
    TAC 26(1); Van Dooren 1981, the staircase form, same issue).

    A rejected direction puts the pair within ``rel_tol`` of an
    unobservable one, but a kept direction proves nothing: a staircase
    residual bounds the distance to unobservability from above only.  A
    pair whose eigenvector v has |h v| ~ 1e-16 can keep that direction
    with a residual of 1e-5 or more.  So the basis Q is checked like the
    Hautus test: on the generator restricted to the span, Q'AQ, every
    cluster of eigenvectors is tested against hQ, and the directions on
    which hQ is at most ``rel_tol * sigma_max(h)`` are ``hidden_in_span``.

    ``rank`` is the basis size minus ``hidden_in_span``, ``block_ranks``
    the directions each block kept and ``observability_index`` the number
    of nonempty blocks: the shortest output history whose Kalman matrix
    spans the basis.  The rank gap is two relative singular values,
    ``smallest_kept`` (NaN when nothing was kept) and ``largest_rejected``
    (0 if none was rejected).

    A wave pair A = [[0, I], [L, 0]], h = [P, 0] with L symmetric is
    answered from the staircase of (L, P): h A^{2j} = [P L^j, 0] and
    h A^{2j+1} = [0, P L^j], so each block of (L, P) is kept twice in a
    row.  The rank, ``hidden_in_span`` and ``observability_index`` double
    and each block rank repeats.  ``largest_rejected`` and
    ``generator_rescaled_by`` are those of (L, P); A has L's Gershgorin
    bound or 1, whichever is larger.  ``smallest_kept`` is the smaller of
    that of (L, P) and ``generator_rescaled_by``, the relative singular
    value of each repeated block [0; Q_j].
    """
    check_entries(locals(), _REL_TOL, "kalman_rank_test", ParameterError)
    n = A.shape[0]
    hd = _output_map(A, h)
    pair = _wave_pair(A, hd)
    if pair is not None:
        heat = kalman_rank_test(*pair, rel_tol=rel_tol)
        return KalmanReport(n, heat.observable, rel_tol, 2 * heat.rank,
                            2 * heat.observability_index,
                            [r for r in heat.block_ranks for _ in range(2)],
                            2 * heat.hidden_in_span,
                            # a NaN smallest_kept (nothing kept) stays NaN
                            min(heat.smallest_kept, heat.generator_rescaled_by),
                            heat.largest_rejected, heat.generator_rescaled_by)
    bound = _gershgorin_radius(A)
    radius = max(1.0, bound)
    at = (sp.csr_matrix(A.T) if sp.issparse(A) else np.asarray(A, dtype=float).T) / radius
    basis = np.empty((n, n), order="F")
    rank, block_ranks, kept_min, rejected_max = 0, [], np.inf, 0.0
    _, svals, vt = np.linalg.svd(hd, full_matrices=False)
    h_norm = svals[0] if svals.size else 0.0
    block, scale = vt.T, h_norm
    while scale > 0:
        rel = svals / scale
        keep = min(int((rel > rel_tol).sum()), n - rank)
        if keep < rel.size:
            rejected_max = max(rejected_max, float(rel[keep]))
        if keep == 0:
            break
        kept_min = min(kept_min, float(rel[keep - 1]))
        block = block[:, :keep]
        basis[:, rank:rank + keep] = block
        rank += keep
        block_ranks.append(keep)
        if rank == n:
            break
        w = at @ block
        for _ in range(2):
            w -= basis[:, :rank] @ (basis[:, :rank].T @ w)
        block, svals, _ = np.linalg.svd(w, full_matrices=False)
        scale = bound / radius
    hidden = 0
    if rank:
        q = basis[:, :rank]
        compressed = (q.T @ (at @ q)).T
        hidden = sum(int((norms <= rel_tol * h_norm).sum())
                     for _, _, norms in _eigenspace_outputs(compressed, hd @ q))
    return KalmanReport(n, rank - hidden == n, rel_tol, rank - hidden, len(block_ranks),
                        block_ranks, hidden, kept_min if rank else np.nan, rejected_max,
                        1.0 / radius)


def _is_symmetric(A) -> bool:
    """A, dense or sparse, equals its transpose to 1e-12 of its largest entry."""
    return abs(A - A.T).max() <= 1e-12 * max(1.0, abs(A).max())


def _eigenspace_outputs(A, hd: np.ndarray) -> list:
    """Rows (mean eigenvalue, cluster size, |h| on the eigenspace) per
    cluster of eigenvalues of the dense matrix A, ordered by real part,
    then imaginary part.

    Each cluster is the eigenvalues within 1e-8 * max|eig| of the first,
    in that order, that no cluster holds yet.  It is gathered from the
    whole spectrum, not from a run of neighbours in the order: the real
    parts of a complex cluster carry rounding, which interleaves its
    members with those of other clusters.  For a nonsymmetric A the
    cluster also takes the eigenvalues within 1e-4 * max|eig| whose unit
    eigenvectors are parallel to the first's, |v0' v| >= 1 - 1e-10: eig
    spreads the eigenvalue of a Jordan chain by about sqrt(eps * |A|),
    but its computed eigenvectors stay parallel to rounding.  The last
    entry is the singular values of ``hd`` on an orthonormal basis of the
    cluster's eigenspace, padded with zeros where the eigenspace is wider
    than the output.  For a symmetric A that basis is the cluster's
    eigenvectors.  Otherwise the computed eigenvectors of a Jordan chain
    span the whole chain, so the basis is cut to the directions v of their
    span with |(A - mean) v| <= 1e-4 * max|eig|: on an eigenvector that
    residual is at most the cluster width, on the next vector of a chain
    it is the chain's coupling.
    """
    symmetric = _is_symmetric(A)
    if symmetric:
        vals, vecs = np.linalg.eigh(A)
        vals = vals.astype(complex)
    else:
        vals, vecs = np.linalg.eig(A)
    scale = max(1.0, float(np.abs(vals).max()))
    cluster_tol = 1e-8 * scale
    order = np.lexsort((vals.imag, vals.real))
    vals, vecs = vals[order], vecs[:, order]
    units = vecs.conj().T  # eig and eigh give unit eigenvectors
    rows = []
    free = np.ones(len(vals), dtype=bool)
    for start in range(len(vals)):
        if not free[start]:
            continue
        gap = np.abs(vals - vals[start])
        joined = gap <= cluster_tol
        if not symmetric:
            joined |= (gap <= 1e-4 * scale) & (np.abs(units @ vecs[:, start]) >= 1 - 1e-10)
        members = np.flatnonzero(free & joined)
        free[members] = False
        mean = complex(vals[members].mean())
        q, _ = np.linalg.qr(vecs[:, members])
        if not symmetric and members.size > 1:
            shifted = q.conj().T @ (A @ q) - mean * np.eye(members.size)
            _, sv, wh = np.linalg.svd(shifted)
            dim = max(1, int((sv <= 1e-4 * scale).sum()))
            q = q @ wh[-dim:].conj().T
        norms = np.linalg.svd(hd @ q, compute_uv=False)
        rows.append((mean, members.size, np.pad(norms, (0, q.shape[1] - norms.size))))
    return rows


def _wave_pair(A, hd: np.ndarray):
    """``(L, P)``, L sparse, when A = [[0, I], [L, 0]] with L symmetric
    and hd = [P, 0] hold exactly, as :func:`build_wave_generator` and the
    amplitude tokenizer build them; else None."""
    n = A.shape[0] // 2
    if A.shape[0] != 2 * n or hd[:, n:].any():
        return None
    blocks = sp.csr_array(A)
    lap = blocks[n:, :n]
    identity = sp.identity(n, format="csr")
    if (blocks[:n, :n].count_nonzero() or blocks[n:, n:].count_nonzero()
            or (blocks[:n, n:] != identity).count_nonzero() or (lap != lap.T).count_nonzero()):
        return None
    return lap, hd[:, :n]


def _wave_eigenspace_outputs(lap, p: np.ndarray) -> list:
    """The rows of :func:`_eigenspace_outputs` for A = [[0, I], [L, 0]]
    and h = [P, 0], from the symmetric pair (L, P).

    Each heat eigenvector L v = mu v gives the wave eigenvectors [v; lam v]
    with lam = +-sqrt(mu), of norm sqrt(1 + |mu|), on which h reads P v;
    so each heat cluster gives two wave clusters of its size, with the
    heat norms divided by sqrt(1 + |mu|).  The heat cluster within
    1e-8 * max|mu| of 0 is a Jordan chain [v; 0] -> [0; v] instead: one
    cluster at 0 of twice the size, tested on its eigenvectors [v; 0]
    with the heat norms as they are.
    """
    heat = _eigenspace_outputs(lap.toarray(), p)
    cluster_tol = 1e-8 * max(1.0, max(abs(mu) for mu, _, _ in heat))
    rows = []
    for mu, mult, norms in heat:
        if abs(mu) <= cluster_tol:
            rows.append((0j, 2 * mult, norms))
        else:
            # 0.0 - root, not -root, so that an imaginary pair prints with +0 real parts
            root = np.sqrt(mu)
            rows += [(lam, mult, norms / np.sqrt(1.0 + abs(mu))) for lam in (root, 0.0 - root)]
    return sorted(rows, key=lambda row: (row[0].real, row[0].imag))


def hautus_test(A, h, tol: float = 1e-8) -> HautusReport:
    """Check min |h v| over unit eigenvectors v for every eigenvalue of A.

    The whole spectrum is computed densely.  Eigenvalues within
    1e-8 * max|eig| of each other are treated as one cluster and the
    minimum is taken over the whole (orthonormalised) eigenspace, so
    degenerate spectra are handled correctly; a Jordan chain counts only
    its eigenvectors (see :func:`_eigenspace_outputs`).  A wave pair
    A = [[0, I], [L, 0]], h = [P, 0] with L symmetric is answered from
    the spectrum of L alone (see :func:`_wave_eigenspace_outputs`).
    """
    check_entries(locals(), {"tol": Key(float, ">", 0)}, "hautus_test", ParameterError)
    n = A.shape[0]
    hd = _output_map(A, h)
    pair = _wave_pair(A, hd)
    rows = (_eigenspace_outputs(_as_dense(A), hd) if pair is None
            else _wave_eigenspace_outputs(*pair))
    failing = [(lam, mult, float(norms.min())) for lam, mult, norms in rows
               if norms.min() < tol]
    return HautusReport(n, not failing, tol, n, failing)


def annihilation_witness(grid: GridSpec, patch: int, wave: bool = False):
    """State invisible to patch averaging under constant-coefficient flow.

    Returns ``(state, eigenvalue)``.  The scalar witness is the lattice
    harmonic w(i, j) = cos(2*pi*i/patch): one full period fits in every
    patch, so each patch mean is a full-period cosine sum and vanishes,
    while w is an eigenvector of the unit-coefficient generator with
    eigenvalue 2*(cos(2*pi/patch) - 1)/dx**2.  Its whole orbit is
    therefore token null.  With ``wave=True`` the returned state is the
    stacked pair (w, sqrt(-eigenvalue) * w); the span of (w, 0) and
    (0, w) is invariant under the wave generator and invisible to the
    amplitude tokenizer, so again the whole orbit is annihilated.
    """
    check_entries(locals(), {"patch": Key(int, ">=", 2), "wave": Key(bool)},
                  "annihilation_witness", ParameterError)
    n = grid.n
    if n % patch:
        raise ParameterError(f"annihilation_witness: patch {patch} must divide grid size {n}")
    i = np.arange(n)
    w = np.cos(2.0 * np.pi * i / patch)[:, None] * np.ones((1, n))
    lam = 2.0 * (np.cos(2.0 * np.pi / patch) - 1.0) / grid.dx**2
    if not wave:
        return w, lam
    return np.stack([w, np.sqrt(-lam) * w]), lam


@dataclass
class WitnessReport(_KeyValueReport):
    """Token sup norms of :func:`annihilation_witness` v, and the largest
    over v and four normalized powers A^j v (deeper ones follow from
    h A^j v = lambda^j h v); heat also gets sup |A v - lambda v|."""

    METHOD = "annihilation-witness"
    equation: str
    grid: int
    patch: int
    eigenvalue: float = _fmt(".12e")
    token_sup_norm: float = _fmt(".6e")
    orbit_token_sup_norm: float = _fmt(".6e")
    eigen_residual_sup_norm: float | None = _fmt(".6e")


def witness_orbit(grid: GridSpec, patch: int, wave: bool = False) -> WitnessReport:
    """Tokenize the annihilation witness and its orbit under the unit-coefficient
    heat (or wave) generator of :func:`latentpde.dataset.lattice_system`."""
    state, lam = annihilation_witness(grid, patch, wave=wave)
    equation = "wave" if wave else "heat"
    op, _ = lattice_system({"equation": equation, "grid_size": grid.n, "dx": grid.dx,
                            "conductivity": {"constant": 1.0}})
    h = build_tokenizer_matrix(grid, patch, wave=wave)
    v = state.ravel()
    token_norm = float(np.abs(h @ v).max())
    orbit = v.copy()
    orbit_norm = token_norm
    for _ in range(4):
        orbit = op @ orbit
        orbit = orbit / np.linalg.norm(orbit)
        orbit_norm = max(orbit_norm, float(np.abs(h @ orbit).max()))
    resid = None if wave else float(np.abs((op @ v) - lam * v).max())
    return WitnessReport(equation, grid.n, patch, lam, token_norm, orbit_norm, resid)


_GRAMIAN_DENSE_LIMIT = 256
# the arguments of the three Gramian entry points, each of which takes some of them
_GRAMIAN_ARGS = {"horizon": Key(float, ">", 0), "quadrature_steps": Key(int, ">=", 1, True),
                 "cond_limit": Key(float, ">", 0, True)}


def _simpson_sums(A, h, horizon: float, quadrature_steps: int,
                  outputs: np.ndarray | None = None, x0: np.ndarray | None = None):
    """``(steps, gram, moment)``: composite Simpson sums on the nodes
    s_i = i * delta, delta = horizon/steps, with ``quadrature_steps`` >= 1
    rounded up to even (the one place it is).

    ``gram`` is the symmetrized Gramian  integral e^{A's} h' h e^{As} ds.
    With output samples y(s_i), given as ``outputs`` or synthesized as
    y(s) = h e^{As} x0 from ``x0``, ``moment`` is
    integral e^{A's} h' y(s) ds, else None.  Dense, guarded to state
    dims <= 256; the one place that picks the propagator.

    A symmetric A, tested as it arrives, is summed in the eigenbasis of
    numpy's ``eigh``, A = V Lambda V', where e^{As} = V e^{Lambda s} V' is
    diagonal.  With P = hV, C = P'P, E[i, a] = e^{lambda_a s_i} and W the
    diagonal of Simpson weights, the sums are V (C o E'WE) V' and
    V sum_i w_i (E_i o P'y_i), o the entrywise product, and x0 gives
    y(s_i) = P (E_i o V'x0): n^2 (steps + 1) multiply-adds for E'WE,
    mn (steps + 1) for the moment and 2n^3 + 2mn^2 for C and the two
    rotations, with no n x n product per node.  Any other A is stepped by
    e^{A delta} from scipy's ``expm``: both integrands read e^{As} only
    through the m x n output orbit h e^{A s_i}, which advances by one
    multiplication with the step per node, m*n^2 multiply-adds, and as
    many for the node's Gramian term, 2mn^2 (steps + 1) in all; x0 is
    stepped by the same matrix.  Inside a verb ``eigh`` and ``expm`` run
    on one thread of their OpenBLAS, so their bits do not depend on the
    core count.
    """
    n = A.shape[0]
    hd = _output_map(A, h)
    if outputs is not None and outputs.shape[1] != hd.shape[0]:
        raise ParameterError(f"output rows have {outputs.shape[1]} entries, map has {hd.shape[0]}")
    if n > _GRAMIAN_DENSE_LIMIT:
        raise ParameterError(f"dense Gramian limited to state dim {_GRAMIAN_DENSE_LIMIT}, got {n}")
    steps = quadrature_steps + (quadrature_steps % 2)
    delta = horizon / steps
    weights = np.full(steps + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    moment = None
    # the dense copy of A is a temporary, freed before the sums begin
    if _is_symmetric(A):
        vals, vecs = np.linalg.eigh(_as_dense(A))
        factors = np.outer(np.arange(steps + 1) * delta, vals)
        np.exp(factors, out=factors)
        p = hd @ vecs
        if x0 is not None:
            outputs = (factors * (vecs.T @ x0)) @ p.T
        # the (steps + 1) x n arrays go before the n x n products begin,
        # so the pass holds no more than the orbit pass does
        if outputs is not None:
            moment = vecs @ (weights @ ((outputs @ p) * factors))
        # w_i scales row i of E: exact, as the weights are powers of two
        buffer = (weights[:, None] * factors).T @ factors
        del factors
        # C o E'WE, then V (.) V', in place through the one spare n x n buffer
        gram = p.T @ p
        gram *= buffer
        np.matmul(vecs, gram, out=buffer)
        np.matmul(buffer, vecs.T, out=gram)
    else:
        step = expm(_as_dense(A) * delta)
        gram, buffer = np.zeros((n, n)), np.empty((n, n))
        moment = None if outputs is None and x0 is None else np.zeros(n)
        orbit, state = hd, x0
        for i in range(steps + 1):
            # w_i scales the m x n orbit, not the n x n term: exact, as the
            # weights are powers of two
            weighted = weights[i] * orbit
            np.matmul(weighted.T, orbit, out=buffer)
            gram += buffer
            if moment is not None:
                # y(s_i) = h e^{A s_i} x0 is stepped along with the orbit
                moment += weighted.T @ (outputs[i] if x0 is None else h @ state)
            if i < steps:
                orbit = orbit @ step
                if x0 is not None:
                    state = step @ state
    gram *= delta / 3.0
    if moment is not None:
        moment *= delta / 3.0
    np.add(gram, gram.T, out=buffer)
    buffer /= 2.0
    return steps, buffer, moment


def _solve_moments(gram: np.ndarray, moment: np.ndarray, cond_limit: float):
    """``(x, cond(gram))`` with gram x = moment; refuses an ill-conditioned gram."""
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > cond_limit:
        raise NonObservableError(
            f"observability Gramian condition number {cond:.3e} exceeds {cond_limit:.1e}"
        )
    return np.linalg.solve(gram, moment), float(cond)


def observability_gramian(A, h, horizon: float, quadrature_steps: int = 256) -> np.ndarray:
    """Finite-horizon Gramian  integral_0^T  e^{A's} h' h e^{As} ds.

    Composite Simpson quadrature on a uniform grid (steps >= 1 rounded up
    to even).  A symmetric A is summed in its eigenbasis, where e^{As} is
    diagonal: about n^2 (steps + 1) + 2n^3 multiply-adds in all.  Any other
    A advances the m x n output orbit h e^{As} by one multiplication with
    expm(A * T/steps), 2mn^2 multiply-adds per node (see
    :func:`_simpson_sums`).  Dense evaluation, guarded to state dims <= 256.
    """
    check_entries(locals(), _GRAMIAN_ARGS, "observability_gramian", ParameterError)
    return _simpson_sums(A, h, horizon, quadrature_steps)[1]


def linear_reconstruct_initial_state(A, h, outputs: np.ndarray, horizon: float,
                                     cond_limit: float = 1e12) -> np.ndarray:
    """Recover x(0) from output samples y(s) = h e^{As} x(0).

    ``outputs`` holds the output vectors at uniform quadrature nodes
    0 = s_0 < ... < s_steps = horizon (odd count, so Simpson applies).
    Solves  Q x = integral e^{A's} h' y(s) ds  with the Gramian Q built on
    the same nodes, in A's eigenbasis when A is symmetric, else along the
    output orbit (see :func:`_simpson_sums`).  Raises NonObservableError
    when cond(Q) exceeds ``cond_limit``: the moment problem is numerically
    singular.
    """
    check_entries(locals(), _GRAMIAN_ARGS, "linear_reconstruct_initial_state", ParameterError)
    outputs = np.atleast_2d(np.asarray(outputs, dtype=float))
    n_nodes = outputs.shape[0]
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ParameterError(f"need an odd number >= 3 of output samples, got {n_nodes}")
    _, gram, moment = _simpson_sums(A, h, horizon, n_nodes - 1, outputs)
    return _solve_moments(gram, moment, cond_limit)[0]


@dataclass
class GramianReport(_KeyValueReport):
    """Recovery of a known x(0) from its own patch-token outputs.

    The Gramian and the moment come from the same nodes, so the error is
    rounding only; ``rounding_bound`` = cond * eps is its error bar.
    """

    METHOD = "gramian-reconstruction"
    grid: int
    patch: int
    horizon: float
    quadrature_steps: int
    gramian_condition: float = _fmt(".6e")
    relative_reconstruction_error: float = _fmt(".6e")
    rounding_bound: float = _fmt(".6e")


def gramian_reconstruction(grid: GridSpec, h, A, x0: np.ndarray, horizon: float,
                           quadrature_steps: int = 256,
                           cond_limit: float = 1e12) -> GramianReport:
    """Recover x0 from its outputs through the token map ``h`` of ``grid``, whose
    (n/patch)^2 rows give the report's patch, as :func:`linear_reconstruct_initial_state`
    does; one call of :func:`_simpson_sums` synthesizes the outputs and sums
    the quadrature on one propagator."""
    check_entries(locals(), _GRAMIAN_ARGS, "gramian_reconstruction", ParameterError)
    x0 = np.asarray(x0, dtype=float)
    steps, gram, moment = _simpson_sums(A, h, horizon, quadrature_steps, x0=x0)
    recon, cond = _solve_moments(gram, moment, cond_limit)
    rel = float(np.linalg.norm(recon - x0) / np.linalg.norm(x0))
    return GramianReport(grid.n, grid.n // round(h.shape[0] ** 0.5), horizon, steps, cond, rel,
                         cond * float(np.finfo(float).eps))


@dataclass
class LieLogDetSeries:
    """Empirical local-rank diagnostic along one trajectory.

    For each start time t a square matrix M(t) collects the token state
    and its first ``derivative_order - 1`` forward-difference time
    derivatives (rows) over ``dim`` consecutive samples (columns).
    ``sign`` and ``log_abs_det`` come from a sign-preserving slogdet;
    degenerate matrices yield sign 0 and -inf magnitude rather than an
    exception.  ``rolling`` is the centred ``window``-sample mean of
    ``log_abs_det`` (NaN where the window does not fit).  When singular
    values were requested, ``min_sv``/``max_sv`` hold the extreme
    singular values of each M(t) from index ``int(burn_frac * nt)`` on,
    the windows a report examines, and NaN before it.
    """

    times: np.ndarray
    sign: np.ndarray
    log_abs_det: np.ndarray
    rolling: np.ndarray
    window: int
    dim: int
    dt: float
    derivative_order: int
    min_sv: np.ndarray | None = None
    max_sv: np.ndarray | None = None


def empirical_lie_logdet(traj, patch: int, derivative_order: int = 5,
                         window: int = 50, with_singular_values: bool = False,
                         burn_frac: float = 0.0) -> LieLogDetSeries:
    """Sign-preserving log-determinant of the empirical observability
    matrix along a tokenized line trajectory.

    ``traj`` is a Trajectory of (T, N) line fields (or the raw array);
    its tokens are :func:`latentpde.tokenizer.tokenize_trajectory` of the
    line, the means over non-overlapping windows of ``patch`` sites.
    Derivatives use forward-difference tables divided by dt**order, so
    scaling the trajectory by c shifts every log |det| by dim * log(c).
    Singular values, when requested, skip the first ``burn_frac`` share
    of the windows; a pool of one thread per core computes them (the
    count :func:`latentpde.learners._one_blas_thread` yields) while the
    calling thread computes the determinants.  Both the determinants and
    the singular values run on one BLAS thread, so a library call gives
    the same bits on any core count.
    """
    check_entries(locals(), {**_LIE_ARGS, "with_singular_values": Key(bool)},
                  "empirical_lie_logdet", ParameterError)
    frames = np.asarray(getattr(traj, "frames", traj), dtype=float)
    dt = float(getattr(traj, "dt", 1.0))
    if frames.ndim != 2:
        raise ParameterError(f"expected (T, N) line frames, got shape {frames.shape}")
    p = derivative_order
    tokens = tokenize_trajectory(frames, patch)
    t_total, m = tokens.shape
    dim = m * p
    n_z = t_total - p + 1
    if n_z < dim:
        raise ParameterError(f"trajectory too short: {n_z} derivative rows < matrix dim {dim}")
    z = np.empty((n_z, dim))
    for order in range(p):
        deriv = np.diff(tokens, n=order, axis=0) / dt**order if order else tokens
        z[:, order * m:(order + 1) * m] = deriv[:n_z]
    # (nt, dim, dim) strided view; the LAPACK gufuncs copy one matrix at a time
    windows = np.lib.stride_tricks.sliding_window_view(z, dim, axis=0)
    nt = windows.shape[0]
    min_sv = max_sv = None
    # on one BLAS thread an LU keeps its bits on any core count
    with _one_blas_thread() as cores, contextlib.ExitStack() as stack:
        parts = []
        if with_singular_values:
            first = int(burn_frac * nt)
            min_sv, max_sv = np.full(nt, np.nan), np.full(nt, np.nan)

            def extremes(chunk):
                svals = np.linalg.svd(windows[chunk], compute_uv=False)
                min_sv[chunk], max_sv[chunk] = svals[:, -1], svals[:, 0]

            # svd releases the GIL: contiguous chunks of windows go to one
            # worker per core, and each writes its own slices; the values
            # keep their bits for any split
            workers = min(cores, nt - first)
            edges = [first + (nt - first) * i // workers for i in range(workers + 1)]
            pool = stack.enter_context(ThreadPoolExecutor(workers))
            parts = [pool.submit(extremes, chunk) for chunk in map(slice, edges[:-1], edges[1:])]
        # slogdet holds the GIL, so it runs here, while the chunks run
        sign, logabs = np.linalg.slogdet(windows)
        for part in parts:
            part.result()
    rolling = np.full(nt, np.nan)
    if nt >= window:
        kernel = np.ones(window) / window
        valid = np.convolve(logabs, kernel, mode="valid")
        start = (window - 1) // 2
        rolling[start:start + len(valid)] = valid
    return LieLogDetSeries(
        times=np.arange(nt),
        sign=sign,
        log_abs_det=logabs,
        rolling=rolling,
        window=window,
        dim=dim,
        dt=dt,
        derivative_order=p,
        min_sv=min_sv,
        max_sv=max_sv,
    )


@dataclass
class LieLogDetReport(_KeyValueReport):
    """Post-burn-in summary of a :class:`LieLogDetSeries` with singular
    values: the share of windows with finite log |det|, the share that
    are numerically full rank (min_sv > rel_tol * max_sv), and the median
    finite log |det|."""

    METHOD = "empirical-lie-logdet"
    matrix_dim: int
    derivative_order: int
    window: int
    examined: int
    finite_fraction: float = _fmt(".6f")
    full_rank_fraction: float = _fmt(".6f")
    median_log_abs_det: float = _fmt(".6e")
    series: LieLogDetSeries = field(repr=False)


def lie_logdet_report(traj, patch: int, derivative_order: int = 5, window: int = 50,
                      burn_frac: float = 0.5, rel_tol: float = 1e-10) -> LieLogDetReport:
    """:func:`empirical_lie_logdet` with singular values, summarized over
    the windows after the first ``burn_frac`` share.  With no finite
    log |det| among them the median is NaN."""
    check_entries(locals(), {**_LIE_ARGS, **_REL_TOL}, "lie_logdet_report", ParameterError)
    series = empirical_lie_logdet(traj, patch, derivative_order=derivative_order,
                                  window=window, with_singular_values=True,
                                  burn_frac=burn_frac)
    post = slice(int(burn_frac * len(series.times)), None)
    logabs = series.log_abs_det[post]
    finite = logabs[np.isfinite(logabs)]
    full_rank = series.min_sv[post] > rel_tol * series.max_sv[post]
    return LieLogDetReport(series.dim, series.derivative_order, series.window,
                           logabs.size, finite.size / logabs.size, float(full_rank.mean()),
                           float(np.median(finite)) if finite.size else np.nan, series)
