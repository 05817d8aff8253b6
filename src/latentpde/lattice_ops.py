"""Sparse periodic lattice operators.

States on an ``n x n`` periodic pixel grid are flattened row-major:
pixel ``(i, j)`` maps to index ``k = n*i + j``.  Axis ``x`` moves the
first index ``i``, axis ``y`` the second index ``j``; both wrapModulo n.

The divergence-form generator follows the standard staggered composition

    A = D_x^- diag(a) D_x^+ + D_y^- diag(a) D_y^+

with forward differences ``D^+ u_k = (u_{k+1} - u_k)/dx`` and backward
differences ``D^- u_k = (u_k - u_{k-1})/dx``.  For constant ``a = 1`` this
reduces to the five-point Laplacian stencil.  A bad field of a
:class:`GridSpec` or a bad scalar argument raises ParameterError as
``GridSpec: dx must be > 0, got 0.0``, naming the class or the function
called, as in ``build_difference: axis must be in ('x', 'y'), got 'z'``.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import Key, ParameterError, check_entries

GRID_TABLE = {"n": Key(int, ">=", 2), "dx": Key(float, ">", 0, True)}
_DIFFERENCE_ARGS = {"axis": Key(str, "in", ("x", "y")),
                    "direction": Key(str, "in", ("forward", "backward"))}
_TOKENIZER_ARGS = {"patch": Key(int, ">=", 1), "wave": Key(bool)}


@dataclass(frozen=True)
class GridSpec:
    """Periodic square grid: n pixels per side, spacing dx."""

    n: int
    dx: float = 1.0

    def __post_init__(self):
        check_entries(vars(self), GRID_TABLE, "GridSpec", ParameterError)


def _flat_index(i, j, n):
    return (n * (i % n) + (j % n)).ravel()


def build_difference(grid: GridSpec, axis: str, direction: str) -> sp.csr_array:
    """One-sided periodic difference operator of shape (n^2, n^2)."""
    check_entries(locals(), _DIFFERENCE_ARGS, "build_difference", ParameterError)
    n = grid.n
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    here = _flat_index(i, j, n)
    shift = 1 if direction == "forward" else -1
    there = _flat_index(i + shift, j, n) if axis == "x" else _flat_index(i, j + shift, n)
    sign = 1.0 if direction == "forward" else -1.0
    rows = np.concatenate([here, here])
    cols = np.concatenate([here, there])
    vals = np.concatenate([np.full(n * n, -sign / grid.dx), np.full(n * n, sign / grid.dx)])
    op = sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=(n * n, n * n)))
    op.sum_duplicates()
    op.sort_indices()
    return op


def build_modified_laplacian(a: np.ndarray, grid: GridSpec) -> sp.csr_array:
    """Divergence-form generator with per-pixel coefficient field a > 0.

    Row sums are zero (constants are in the kernel) and the operator is
    symmetric on the torus since the backward difference is minus the
    transpose of the forward one.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (grid.n, grid.n):
        raise ParameterError(f"build_modified_laplacian: coefficient field shape {a.shape} "
                             f"!= {(grid.n, grid.n)}")
    if not np.all((a > 0) & (a < np.inf)):
        raise ParameterError("build_modified_laplacian: coefficient field must be finite and "
                             "strictly positive")
    diag = sp.dia_array((a.ravel()[None, :], [0]), shape=(grid.n**2, grid.n**2))
    out = None
    for axis in ("x", "y"):
        fwd = build_difference(grid, axis, "forward")
        bwd = build_difference(grid, axis, "backward")
        term = bwd @ diag @ fwd
        out = term if out is None else out + term
    out = sp.csr_array(out)
    out.sum_duplicates()
    out.sort_indices()
    return out


def build_wave_generator(a: np.ndarray, grid: GridSpec) -> sp.csr_array:
    """First-order wave generator [[0, I], [A, 0]] on stacked (u, v) states."""
    lap = build_modified_laplacian(a, grid)
    eye = sp.identity(grid.n**2, format="csr")
    op = sp.csr_array(sp.bmat([[None, eye], [lap, None]], format="csr"))
    op.sort_indices()
    return op


def build_tokenizer_matrix(grid: GridSpec, patch: int, wave: bool = False) -> sp.csr_array:
    """Patch-averaging token map of shape (m, n^2), m = (n/patch)^2.

    Each row averages one patch x patch block of pixels.  With
    ``wave=True`` the columns span a stacked (u, v) state of length
    2*n^2 and only the amplitude block u is read; the velocity block is
    ignored entirely.
    """
    check_entries(locals(), _TOKENIZER_ARGS, "build_tokenizer_matrix", ParameterError)
    n = grid.n
    if n % patch:
        raise ParameterError(f"build_tokenizer_matrix: patch {patch} must divide grid size {n}")
    blocks = n // patch
    # pixel index n*i + j laid out as (block row, row in block, block col, col in block)
    pixels = np.arange(n * n).reshape(blocks, patch, blocks, patch)
    rows = np.repeat(np.arange(blocks * blocks), patch * patch)
    cols = pixels.transpose(0, 2, 1, 3).ravel()
    vals = np.full(cols.size, 1.0 / (patch * patch))
    ncols = 2 * n * n if wave else n * n
    op = sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=(blocks * blocks, ncols)))
    op.sum_duplicates()
    op.sort_indices()
    return op
