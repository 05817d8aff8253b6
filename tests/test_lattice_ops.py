import numpy as np
import pytest

from latentpde import (GridSpec, ParameterError, build_difference,
                       build_modified_laplacian, build_tokenizer_matrix,
                       build_wave_generator, tokenize_trajectory)


def dense_difference(n, dx, axis, direction):
    """Independent dense reference built entry by entry from the stencil
    definitions, never through sparse composition."""
    out = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            row = n * i + j
            if direction == "forward":
                ii, jj = ((i + 1) % n, j) if axis == "x" else (i, (j + 1) % n)
                out[row, n * ii + jj] += 1.0 / dx
                out[row, row] -= 1.0 / dx
            else:
                ii, jj = ((i - 1) % n, j) if axis == "x" else (i, (j - 1) % n)
                out[row, row] += 1.0 / dx
                out[row, n * ii + jj] -= 1.0 / dx
    return out


def dense_modified_laplacian(a, dx):
    n = a.shape[0]
    diag = np.diag(a.ravel())
    out = np.zeros((n * n, n * n))
    for axis in ("x", "y"):
        fwd = dense_difference(n, dx, axis, "forward")
        bwd = dense_difference(n, dx, axis, "backward")
        out += bwd @ diag @ fwd
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 8])
@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_difference_matches_dense_reference(n, axis, direction):
    grid = GridSpec(n=n, dx=0.5)
    op = build_difference(grid, axis, direction).toarray()
    ref = dense_difference(n, 0.5, axis, direction)
    np.testing.assert_allclose(op, ref, atol=1e-14)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_laplacian_matches_dense_reference(n):
    rng = np.random.default_rng(n)
    a = np.exp(rng.standard_normal((n, n)))
    grid = GridSpec(n=n, dx=1.5)
    op = build_modified_laplacian(a, grid).toarray()
    ref = dense_modified_laplacian(a, 1.5)
    np.testing.assert_allclose(op, ref, atol=1e-12)


def test_second_difference_row_pattern():
    # backward-after-forward along x collapses to the classic (1, -2, 1)
    grid = GridSpec(n=4, dx=0.5)
    comp = (build_difference(grid, "x", "backward") @ build_difference(grid, "x", "forward"))
    row = np.asarray(comp.toarray())[4 * 1 + 2]  # pixel (1, 2)
    expected = np.zeros(16)
    expected[4 * 0 + 2] = 1.0 / 0.25
    expected[4 * 1 + 2] = -2.0 / 0.25
    expected[4 * 2 + 2] = 1.0 / 0.25
    np.testing.assert_allclose(row, expected, atol=1e-14)


def test_two_by_two_torus_row():
    # on a 2x2 torus both neighbours coincide, doubling the couplings
    op = build_modified_laplacian(np.ones((2, 2)), GridSpec(n=2)).toarray()
    np.testing.assert_allclose(op[0], [-4.0, 2.0, 2.0, 0.0], atol=1e-14)


def test_five_point_stencil_for_unit_coefficient():
    n = 8
    op = build_modified_laplacian(np.ones((n, n)), GridSpec(n=n, dx=2.0)).toarray()
    row = op[n * 3 + 5]
    assert row[n * 3 + 5] == pytest.approx(-4.0 / 4.0)
    for ii, jj in [(2, 5), (4, 5), (3, 4), (3, 6)]:
        assert row[n * ii + jj] == pytest.approx(1.0 / 4.0)


def test_row_sums_zero_and_symmetry():
    rng = np.random.default_rng(0)
    a = np.exp(0.5 * rng.standard_normal((8, 8)))
    op = build_modified_laplacian(a, GridSpec(n=8))
    np.testing.assert_allclose(op @ np.ones(64), 0.0, atol=1e-12)
    asym = np.abs((op - op.T).toarray()).max()
    assert asym < 1e-13


def test_wave_generator_blocks():
    rng = np.random.default_rng(1)
    a = np.exp(0.3 * rng.standard_normal((4, 4)))
    grid = GridSpec(n=4)
    wave = build_wave_generator(a, grid).toarray()
    lap = build_modified_laplacian(a, grid).toarray()
    np.testing.assert_allclose(wave[:16, 16:], np.eye(16), atol=1e-14)
    np.testing.assert_allclose(wave[16:, :16], lap, atol=1e-14)
    np.testing.assert_allclose(wave[:16, :16], 0.0, atol=1e-14)
    np.testing.assert_allclose(wave[16:, 16:], 0.0, atol=1e-14)


def test_tokenizer_matrix_agrees_with_patch_means():
    rng = np.random.default_rng(2)
    grid = GridSpec(n=8)
    h = build_tokenizer_matrix(grid, 4)
    field = rng.standard_normal((8, 8))
    np.testing.assert_allclose(h @ field.ravel(), tokenize_trajectory(field[None], 4)[0],
                               atol=1e-14)
    np.testing.assert_allclose(h @ np.ones(64), 1.0, atol=1e-14)  # rows are means


@pytest.mark.parametrize("n, patch, wave", [(8, 2, False), (12, 3, False), (8, 4, True),
                                             (6, 1, True), (4, 4, False)])
def test_tokenizer_matrix_equals_definition(n, patch, wave):
    # entry (r, n*i + j) is 1/patch^2 iff pixel (i, j) lies in patch r
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    patch_of = ((i // patch) * (n // patch) + j // patch).ravel()
    expected = np.where(np.arange((n // patch) ** 2)[:, None] == patch_of[None, :],
                        1.0 / patch**2, 0.0)
    if wave:
        expected = np.hstack([expected, np.zeros_like(expected)])
    np.testing.assert_array_equal(build_tokenizer_matrix(GridSpec(n=n), patch, wave).toarray(),
                                  expected)


def test_tokenizer_wave_ignores_velocity_block():
    rng = np.random.default_rng(3)
    grid = GridSpec(n=8)
    h = build_tokenizer_matrix(grid, 2, wave=True)
    assert h.shape == (16, 128)
    u = rng.standard_normal((8, 8))
    v = rng.standard_normal((8, 8))
    state = np.concatenate([u.ravel(), v.ravel()])
    np.testing.assert_allclose(h @ state, tokenize_trajectory(u[None], 2)[0], atol=1e-14)
    assert h[:, 64:].count_nonzero() == 0


def test_parameter_validation():
    grid = GridSpec(n=4)
    with pytest.raises(ParameterError):
        build_difference(grid, "z", "forward")
    with pytest.raises(ParameterError):
        build_difference(grid, "x", "sideways")
    with pytest.raises(ParameterError):
        build_modified_laplacian(np.zeros((4, 4)), grid)  # not strictly positive
    with pytest.raises(ParameterError):
        build_modified_laplacian(np.ones((3, 3)), grid)  # wrong shape
    with pytest.raises(ParameterError):
        build_tokenizer_matrix(grid, 3)  # does not divide
    with pytest.raises(ParameterError):
        GridSpec(n=1)
    with pytest.raises(ParameterError):
        GridSpec(n=4, dx=0.0)
