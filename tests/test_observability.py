import argparse
import dataclasses

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as real_expm

import latentpde.observability as obs
from latentpde import (DegenerateStatisticError, GridSpec, NonObservableError, ParameterError,
                       Trajectory, annihilation_witness, build_modified_laplacian,
                       build_tokenizer_matrix, build_wave_generator, empirical_lie_logdet,
                       generate_dataset, gramian_reconstruction, hautus_test,
                       kalman_observability_matrix, kalman_rank_test, lattice_system,
                       linear_reconstruct_initial_state, observability_gramian, rank_test,
                       simulate_kse1d, simulate_linear, tokenize_trajectory)
from latentpde import cli
from latentpde.learners import _one_blas_thread
from latentpde.cli import main as cli_main


def naive_kalman(A, h, p):
    blocks = [h @ np.linalg.matrix_power(A, j) for j in range(p)]
    return np.vstack(blocks)


def test_kalman_matrix_matches_power_loop():
    rng = np.random.default_rng(0)
    for n, m in [(4, 1), (5, 2), (7, 3)]:
        A = rng.standard_normal((n, n))
        h = rng.standard_normal((m, n))
        got = kalman_observability_matrix(A, h)
        np.testing.assert_allclose(got, naive_kalman(A, h, n), rtol=1e-10, atol=1e-10)
        assert got.shape == (m * n, n)


def test_kalman_rank_known_examples():
    # single integrator chain observed at one end: observable
    A = np.diag(np.ones(3), k=1) + np.zeros((4, 4))
    h = np.array([[1.0, 0.0, 0.0, 0.0]])
    report = rank_test(kalman_observability_matrix(A, h))
    assert report.rank == 4 and report.observable
    # identical decoupled states observed through their sum: not observable
    A2 = np.eye(2)
    h2 = np.array([[1.0, 1.0]])
    report2 = rank_test(kalman_observability_matrix(A2, h2))
    assert report2.rank == 1 and not report2.observable
    assert report2.state_dim == 2
    assert "False" in report2.to_text()


def test_rank_test_relative_tolerance():
    mat = np.diag([1.0, 1e-14])
    assert rank_test(mat).rank == 1
    assert rank_test(mat, rel_tol=1e-16).rank == 2


def certified_config(equation, grid, grf_seed, constant):
    """The config fragment of the system that ``observability --check
    kalman|hautus|gramian`` certifies at these flags."""
    return cli._certificate_config(argparse.Namespace(equation=equation, grid=grid,
                                                      grf_seed=grf_seed, constant=constant))


def lattice(grid, patch, grf_seed, constant, wave=False):
    """The heat (or wave) generator the observability verb certifies on a
    grid x grid lattice, with ``--constant`` or the GRF of ``--grf-seed``,
    from the builder that generation steps, and its patch tokenizer."""
    config = certified_config("wave" if wave else "heat", grid, grf_seed, constant)
    return lattice_system(config)[0], build_tokenizer_matrix(GridSpec(n=grid), patch, wave=wave)


def hidden_dimension(A, h):
    """Sum over the eigenspaces E of a symmetric A of dim(E and ker h):
    the dimension of the unobservable subspace."""
    vals, vecs = np.linalg.eigh(A)
    cluster_tol = 1e-8 * max(1.0, np.abs(vals).max())
    h_tol = 1e-8 * np.linalg.norm(h, 2)
    total = start = 0
    while start < len(vals):
        stop = start + 1
        while stop < len(vals) and vals[stop] - vals[start] <= cluster_tol:
            stop += 1
        svals = np.linalg.svd(h @ vecs[:, start:stop], compute_uv=False)
        total += (stop - start) - int((svals > h_tol).sum())
        start = stop
    return total


@st.composite
def heat_lattices(draw):
    grid = draw(st.sampled_from([4, 6, 8]))
    patch = draw(st.sampled_from([p for p in range(2, grid + 1) if grid % p == 0]))
    constant = draw(st.one_of(st.none(), st.floats(0.05, 5.0)))
    return grid, patch, draw(st.integers(0, 10**4)), constant


@settings(max_examples=60)
@given(heat_lattices())
def test_staircase_rank_is_the_eigenspace_kernel_count(case):
    A, h = lattice(*case)
    report = kalman_rank_test(A, h)
    assert report.rank == A.shape[0] - hidden_dimension(A.toarray(), h.toarray())
    assert report.observable == hautus_test(A, h).observable
    assert sum(report.block_ranks) == report.rank
    assert report.largest_rejected <= report.tolerance < report.smallest_kept


@pytest.mark.parametrize("wave", [False, True])
@pytest.mark.parametrize("constant", [None, 1.0])
def test_staircase_rank_is_scale_invariant(wave, constant):
    A, h = lattice(8, 4, 3, constant, wave=wave)
    base = kalman_rank_test(A, h)
    assert base.observable == (constant is None)
    for c, c_out in [(1e-3, 1.0), (0.25, 1e3), (40.0, 1e-4), (1e4, 7.0)]:
        scaled = kalman_rank_test(c * A, c_out * h)
        assert (scaled.rank, scaled.block_ranks) == (base.rank, base.block_ranks)


def acceptance_2_systems(seed=44, count=200):
    """The random systems of ACCEPTANCE 2: odd trials hide an eigenvector
    in the kernel of h."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(1, 4))
        if trial % 2:
            v_mat = rng.standard_normal((n, n)) + n * np.eye(n)
            lam = np.sort(rng.standard_normal(n) * 2)
            a_mat = v_mat @ np.diag(lam) @ np.linalg.inv(v_mat)
            h0 = rng.standard_normal((m, n))
            h = h0 - np.outer(h0 @ v_mat[:, 0], np.linalg.inv(v_mat)[0])
        else:
            a_mat = rng.standard_normal((n, n))
            h = rng.standard_normal((m, n))
        yield a_mat, h


def test_kalman_rank_is_right_on_the_acceptance_2_systems():
    # Seed 44 is ACCEPTANCE 2's; seed 7 adds systems where the stacked
    # powers lose a direction.  Odd trials hide exactly one eigenvector and
    # even ones none, so the rank is n minus the trial's parity.
    kept_hidden = 0
    for seed in (44, 7):
        for trial, (a_mat, h) in enumerate(acceptance_2_systems(seed)):
            report = kalman_rank_test(a_mat, h)
            stacked = rank_test(kalman_observability_matrix(a_mat, h))
            assert report.rank == a_mat.shape[0] - trial % 2
            assert report.observable == hautus_test(a_mat, h).observable == stacked.observable
            assert stacked.rank <= report.rank
            kept_hidden += report.hidden_in_span
    # on some of them the staircase alone keeps the hidden direction
    assert kept_hidden >= 1


def test_a_jordan_chain_counts_only_its_eigenvector():
    # x1' = x2, x2' = 0: observed through x1 the pair is observable; through
    # x2 the eigenvector e1 is hidden.  eig returns e1 twice here.
    chain = np.array([[0.0, 1.0], [0.0, 0.0]])
    for h, observable in (([[1.0, 0.0]], True), ([[0.0, 1.0]], False)):
        assert hautus_test(chain, np.array(h)).observable == observable
        assert kalman_rank_test(chain, np.array(h)).observable == observable


@pytest.mark.parametrize("grf_seed", [0, 6, 9])
def test_wave_with_a_varying_conductivity_is_observable(grf_seed):
    # The wave generator has a Jordan chain at 0 (u constant, then v
    # constant).  Both certificates answer from the Laplacian, which tests
    # the chain on its eigenvector (u constant, v = 0) alone.
    A, h = lattice(8, 4, grf_seed, None, wave=True)
    assert hautus_test(A, h).observable
    report = kalman_rank_test(A, h)
    assert report.observable and report.rank == 128


def permuted(A, h, seed):
    """The pair, dense, under a random state permutation: the same ranks
    and spectrum, without the [[0, I], [L, 0]] block structure."""
    perm = np.random.default_rng(seed).permutation(A.shape[0])
    return obs._as_dense(A)[np.ix_(perm, perm)], obs._as_dense(h)[:, perm]


def same_failing(lifted, dense, tol):
    """Each failing cluster of one report is within ``tol`` of exactly one
    of the other's, of the same size, and there are as many."""
    def matched(rows, others):
        return all(sum(abs(lam - mu) <= tol and mult == size for mu, size, _ in others) == 1
                   for lam, mult, _ in rows)
    return (len(lifted) == len(dense) and matched(lifted, dense)
            and matched(dense, lifted))


WAVE_CASES = ([(8, patch, seed, None) for patch in (2, 4) for seed in (0, 3, 7, 9, 41, 77)]
              + [(16, patch, seed, None) for patch in (2, 4) for seed in (7, 77)]
              + [(grid, patch, None, 1.0) for grid in (8, 16) for patch in (2, 4)])


@pytest.mark.parametrize("case", WAVE_CASES)
def test_wave_certificates_from_the_laplacian_match_the_dense_path(case):
    """The wave pair is answered from (L, P); the same pair under a state
    permutation has no block structure, so it takes the dense path."""
    grid, patch, grf_seed, constant = case
    A, h = lattice(grid, patch, grf_seed, constant, wave=True)
    dense_a, dense_h = permuted(A, h, grid * patch)
    assert obs._wave_pair(A, obs._as_dense(h)) is not None
    assert obs._wave_pair(dense_a, dense_h) is None
    lifted, dense = kalman_rank_test(A, h), kalman_rank_test(dense_a, dense_h)
    assert lifted.observable == dense.observable == (constant is None)
    for key in ("state_dim", "rank", "observability_index", "block_ranks", "hidden_in_span"):
        assert getattr(lifted, key) == getattr(dense, key), key
    lifted, dense = hautus_test(A, h), hautus_test(dense_a, dense_h)
    assert lifted.observable == dense.observable == (constant is None)
    assert lifted.tested_eigenvalues == dense.tested_eigenvalues == A.shape[0]
    laplacian, _ = lattice(grid, patch, grf_seed, constant)
    tol = 1e-8 * np.abs(np.linalg.eigvalsh(laplacian.toarray())).max()
    assert same_failing(lifted.failing, dense.failing, tol)
    assert bool(lifted.failing) == (constant is not None)


def symmetric_wave_pair(hidden):
    """A = [[0, I], [L, 0]] and h = [P, 0] for an L with eigenvalues 2, 0,
    -1, -3, -4.5 and -7, and P blind to the eigenvectors of ``hidden``."""
    rng = np.random.default_rng(3)
    spectrum = [2.0, 0.0, -1.0, -3.0, -4.5, -7.0]
    vecs, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    lap = vecs @ np.diag(spectrum) @ vecs.T
    lap = (lap + lap.T) / 2
    p = rng.standard_normal((2, 6))
    for mu in hidden:
        v = vecs[:, spectrum.index(mu)]
        p -= np.outer(p @ v, v)
    wave = np.block([[np.zeros((6, 6)), np.eye(6)], [lap, np.zeros((6, 6))]])
    return wave, np.hstack([p, np.zeros((2, 6))]), lap, p


def test_wave_certificates_of_a_symmetric_pair_with_a_hidden_mode():
    """P blind to the eigenvector of mu = 2: the wave pair hides
    lam = +-sqrt(2), with real eigenvalues, and sees its Jordan chain at 0
    through the kernel vector."""
    wave, h, lap, p = symmetric_wave_pair([2.0])
    lifted = hautus_test(wave, h)
    assert [mult for _, mult, _ in lifted.failing] == [1, 1]
    assert [lam for lam, _, _ in lifted.failing] == pytest.approx([-np.sqrt(2.0), np.sqrt(2.0)],
                                                                  abs=1e-12)
    assert same_failing(lifted.failing, hautus_test(*permuted(wave, h, 0)).failing, 1e-7)
    # away from 0, each cluster reads the heat norms over sqrt(1 + |mu|)
    dense_rows = obs._eigenspace_outputs(*permuted(wave, h, 0))
    for lam, mult, norms in obs._wave_eigenspace_outputs(sp.csr_array(lap), p):
        if lam != 0:
            [twin] = [row for row in dense_rows if abs(row[0] - lam) <= 1e-7]
            assert twin[1] == mult
            np.testing.assert_allclose(twin[2], norms, rtol=0, atol=1e-12)
    report, heat = kalman_rank_test(wave, h), kalman_rank_test(lap, p)
    assert (report.rank, report.observability_index) == (10, 2 * heat.observability_index)
    assert report.block_ranks == [r for r in heat.block_ranks for _ in range(2)]
    dense = kalman_rank_test(*permuted(wave, h, 0))
    assert (dense.rank, dense.block_ranks) == (report.rank, report.block_ranks)
    assert dense.smallest_kept == pytest.approx(report.smallest_kept, rel=1e-12)


def test_a_hidden_jordan_chain_is_one_failing_cluster():
    """P blind to the kernel vector v: the chain [v; 0] -> [0; v] fails as
    one cluster of size 2 at 0.  eig perturbs a chain by about
    sqrt(eps) into two eigenvalues near 1e-8, on either axis, whose
    eigenvectors stay parallel, so the dense path joins them again."""
    wave, h, _, _ = symmetric_wave_pair([0.0])
    [(lam, mult, norm)] = hautus_test(wave, h).failing
    assert (lam, mult) == (0, 2) and norm < 1e-14
    for seed in range(5):
        [(mu, size, _)] = hautus_test(*permuted(wave, h, seed)).failing
        assert size == 2 and abs(mu) < 1e-14
    # here a repeated block [0; Q_j] keeps the smallest relative singular value
    report, heat = kalman_rank_test(wave, h), kalman_rank_test(*symmetric_wave_pair([0.0])[2:])
    assert report.smallest_kept == report.generator_rescaled_by < heat.smallest_kept
    assert kalman_rank_test(*permuted(wave, h, 0)).smallest_kept == pytest.approx(
        report.smallest_kept, rel=1e-12)


def test_cli_kalman_on_a_varying_conductivity_is_full_rank(tmp_path, capsys):
    out = tmp_path / "kalman.txt"
    assert cli_main(["observability", "--check", "kalman", "--grid", "16", "--patch", "4",
                     "--grf-seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    report = dict(line.split(" = ") for line in out.read_text().splitlines())
    assert report["rank"] == "256" and report["state_dim"] == "256"
    assert report["observable"] == "True"
    block_ranks = [int(v) for v in report["block_ranks"].split(",")]
    assert sum(block_ranks) == 256
    assert int(report["observability_index"]) == len(block_ranks)
    assert float(report["largest_rejected"]) <= 1e-10 < float(report["smallest_kept"])


def test_hautus_agrees_on_observable_symmetric_system():
    rng = np.random.default_rng(1)
    n = 12
    a = 0.2 * np.exp(0.4 * rng.standard_normal((n, n)))
    A = build_modified_laplacian(a, GridSpec(n=n)).toarray()
    h = build_tokenizer_matrix(GridSpec(n=n), 4).toarray()
    report = hautus_test(A, h)
    assert report.observable
    assert report.failing == []
    assert report.tested_eigenvalues == report.state_dim


def test_hautus_finds_the_smallest_unobserved_mode():
    # the only eigenvector outside every output row belongs to the
    # smallest-magnitude eigenvalue, which a partial spectrum would skip
    report = hautus_test(np.diag(np.arange(1.0, 21.0)), np.eye(20)[1:])
    assert not report.observable
    assert [(lam.real, mult) for lam, mult, _ in report.failing] == [(1.0, 1)]
    assert report.tested_eigenvalues == 20


def engineered_unobservable(n, m, seed):
    """Random system with one eigenvector placed exactly in ker h."""
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((n, n)) + n * np.eye(n)
    lam = np.sort(rng.standard_normal(n) * 2)
    A = V @ np.diag(lam) @ np.linalg.inv(V)
    h0 = rng.standard_normal((m, n))
    Vinv = np.linalg.inv(V)
    v = V[:, 0]
    h = h0 - np.outer(h0 @ v, Vinv[0])
    assert np.abs(h @ v).max() < 1e-8
    return A, h


def test_hautus_flags_hidden_eigenvector():
    A, h = engineered_unobservable(6, 2, seed=7)
    report = hautus_test(A, h)
    assert not report.observable
    assert len(report.failing) >= 1
    lam, cluster_dim, norm = report.failing[0]
    assert cluster_dim >= 1
    assert norm < 1e-8


def test_hautus_degenerate_eigenspace():
    # identity generator: every vector is an eigenvector, so any h with
    # fewer rows than states must miss a direction
    A = np.eye(5)
    h = np.ones((1, 5))
    report = hautus_test(A, h)
    assert not report.observable
    assert report.failing and report.failing[0][1] == 5  # whole space is one cluster
    assert report.failing[0][2] == 0.0
    k_report = rank_test(kalman_observability_matrix(A, h))
    assert k_report.rank == 1


def test_witness_annihilated_and_eigen():
    for patch in (2, 4, 8):
        grid = GridSpec(n=16)
        w, lam = annihilation_witness(grid, patch)
        h = build_tokenizer_matrix(grid, patch)
        assert np.abs(h @ w.ravel()).max() < 1e-12
        A = build_modified_laplacian(np.ones((16, 16)), grid)
        np.testing.assert_allclose(A @ w.ravel(), lam * w.ravel(), atol=1e-10)
        assert lam == pytest.approx(2.0 * (np.cos(2 * np.pi / patch) - 1.0))
        assert np.linalg.norm(w) > 0.1


def test_witness_respects_dx():
    w_unit, lam_unit = annihilation_witness(GridSpec(n=8), 4)
    w_half, lam_half = annihilation_witness(GridSpec(n=8, dx=0.5), 4)
    np.testing.assert_array_equal(w_unit, w_half)
    assert lam_half == pytest.approx(4.0 * lam_unit)


def test_witness_wave_variant():
    grid = GridSpec(n=16)
    w, lam = annihilation_witness(grid, 4, wave=True)
    assert w.shape == (2, 16, 16)
    h = build_tokenizer_matrix(grid, 4, wave=True)
    A = build_wave_generator(np.ones((16, 16)), grid)
    # the amplitude block is an eigenvector of the second-order operator,
    # so the witness is an eigenvector of A squared and its whole orbit
    # stays inside a plane the tokenizer cannot see
    v = w.reshape(-1)
    np.testing.assert_allclose(A @ (A @ v), lam * v, atol=1e-10)
    orbit = v
    for _ in range(4):
        assert np.abs(h @ orbit).max() < 1e-9
        orbit = A @ orbit
        orbit = orbit / np.linalg.norm(orbit)


def test_gramian_identity_output_closed_form():
    # A = 0, h = I integrates to T * I exactly
    n = 3
    Q = observability_gramian(np.zeros((n, n)), np.eye(n), horizon=2.0,
                              quadrature_steps=64)
    np.testing.assert_allclose(Q, 2.0 * np.eye(n), atol=1e-12)


def test_gramian_diagonal_closed_form():
    # decoupled decay rates give Q_ii = (exp(2 a_i T) - 1) / (2 a_i)
    rates = np.array([-1.0, -0.25, 0.5])
    A = np.diag(rates)
    T = 1.5
    Q = observability_gramian(A, np.eye(3), horizon=T, quadrature_steps=512)
    expected = np.diag((np.exp(2 * rates * T) - 1.0) / (2.0 * rates))
    np.testing.assert_allclose(Q, expected, rtol=1e-8)


def test_gramian_quadrature_convergence():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((4, 4))
    A = 0.3 * (A - A.T)
    h = rng.standard_normal((2, 4))
    coarse = observability_gramian(A, h, 1.0, quadrature_steps=16)
    fine = observability_gramian(A, h, 1.0, quadrature_steps=64)
    finest = observability_gramian(A, h, 1.0, quadrature_steps=256)
    err_coarse = np.abs(coarse - finest).max()
    err_fine = np.abs(fine - finest).max()
    assert err_fine < err_coarse / 50  # fourth order quadrature
    assert np.abs(finest - finest.T).max() == 0.0


def counting(calls, name, real):
    """``real``, counting its calls in ``calls[name]``."""
    calls[name] = 0

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)
    return wrapper


def counting_factorizations(monkeypatch) -> dict:
    """Counts of the ``expm`` and ``eigh`` calls the Simpson sums make."""
    calls = {}
    monkeypatch.setattr(obs, "expm", counting(calls, "expm", obs.expm))
    monkeypatch.setattr(np.linalg, "eigh", counting(calls, "eigh", np.linalg.eigh))
    return calls


def repeated_eigenvalue_generator(rng, n):
    """A symmetric n x n generator whose eigenvalue -1.5 is threefold."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.r_[np.full(3, -1.5), np.linspace(-4.0, 0.5, n - 3)]) @ q.T
    return (a + a.T) / 2.0


@pytest.mark.parametrize("case", ["non-normal", "heat", "repeated-eigenvalue"])
def test_simpson_sums_match_their_definition(monkeypatch, case):
    """The Gramian and the moment against Simpson weights times expm(A s_i)
    at every node, for an output map of two rows and a non-normal A (the
    orbit pass), the symmetric heat generator of an 8 x 8 GRF lattice and
    a symmetric A with a threefold nonzero eigenvalue (the eigenbasis sum).
    Each entry point runs one ``expm`` for the non-normal A and one
    ``eigh`` for a symmetric one."""
    rng = np.random.default_rng(5)
    n, m, horizon, steps = 7, 2, 1.5, 40
    if case == "heat":
        A = lattice(8, 2, 77, None)[0]
    elif case == "repeated-eigenvalue":
        A = repeated_eigenvalue_generator(rng, n)
    else:
        A = 0.4 * rng.standard_normal((n, n)) + np.diag(np.full(n - 1, 2.0), k=1)
    n = A.shape[0]
    h = rng.standard_normal((m, n))
    outputs = rng.standard_normal((steps + 1, m))
    weights = np.full(steps + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= horizon / steps / 3.0
    gram_ref, moment_ref = np.zeros((n, n)), np.zeros(n)
    dense = A.toarray() if sp.issparse(A) else A
    for i, w in enumerate(weights):
        hm = h @ real_expm(dense * (i * horizon / steps))
        gram_ref += w * (hm.T @ hm)
        moment_ref += w * (hm.T @ outputs[i])

    solved = {}

    def recording_solve(gram, moment, cond_limit):
        # the heat Gramian of a two-row map is far too ill-conditioned to solve
        solved["moment"] = moment
        return np.zeros_like(moment), 1.0

    monkeypatch.setattr(obs, "_solve_moments", recording_solve)
    calls = counting_factorizations(monkeypatch)
    linear_reconstruct_initial_state(A, h, outputs, horizon)
    gram = observability_gramian(A, h, horizon, steps)
    assert calls == ({"expm": 2, "eigh": 0} if case == "non-normal" else {"expm": 0, "eigh": 2})
    for got, ref in ((gram, gram_ref), (solved["moment"], moment_ref)):
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_gramian_reconstruction_error_is_within_its_rounding_bound():
    op, h = lattice(8, 2, 77, None)
    x0 = np.random.default_rng(78).standard_normal(64)
    report = gramian_reconstruction(GridSpec(n=8), h, op, x0, 4.0, 200)
    assert (report.grid, report.patch) == (8, 2)
    assert report.rounding_bound == report.gramian_condition * np.finfo(float).eps
    assert report.relative_reconstruction_error <= report.rounding_bound


def test_reconstruction_rotation_system():
    # exactly integrable rotation, observed through one coordinate
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    h = np.array([[1.0, 0.0]])
    x0 = np.array([0.7, -0.3])
    T = 2.0
    steps = 2001
    times = np.linspace(0.0, T, steps)
    outputs = np.array([[x0[0] * np.cos(t) + x0[1] * np.sin(t)] for t in times])
    rec = linear_reconstruct_initial_state(A, h, outputs, T)
    np.testing.assert_allclose(rec, x0, atol=1e-6)


def test_reconstruction_refuses_singular_gramian():
    A = np.zeros((2, 2))
    h = np.array([[1.0, 0.0]])  # second coordinate never visible
    outputs = np.ones((101, 1))
    with pytest.raises(NonObservableError):
        linear_reconstruct_initial_state(A, h, outputs, 1.0)


def test_reconstruction_input_validation():
    A = np.eye(2)
    h = np.eye(2)
    with pytest.raises(ParameterError):
        linear_reconstruct_initial_state(A, h, np.ones((4, 2)), 1.0)  # even count
    with pytest.raises(ParameterError):
        linear_reconstruct_initial_state(A, h, np.ones((5, 3)), 1.0)  # wrong width


@pytest.mark.parametrize("wave", [False, True], ids=["heat", "wave"])
def test_gramian_reconstruction_is_one_pass_and_matches_public_functions(monkeypatch, wave):
    """One call of the Simpson sums, with one ``eigh`` for the symmetric
    heat generator or one ``expm`` for the non-normal wave one, gives the
    report that synthesized outputs and the two public functions give."""
    grid, horizon, steps = GridSpec(n=8), 4.0, 200
    op, h = lattice(8, 1 if wave else 2, 77, None, wave=wave)
    x0 = np.random.default_rng(0).standard_normal(op.shape[0])
    # reference: synthesize the outputs by hand, then the two public functions
    if wave:
        # y(s_i) = h e^{A delta} ... e^{A delta} x0, stepped as the orbit branch steps
        step = real_expm(op.toarray() * (horizon / steps))
        outputs, state = np.empty((steps + 1, h.shape[0])), x0.copy()
        for i in range(steps + 1):
            outputs[i] = h @ state
            state = step @ state
    else:
        # the symmetric generator's propagator is its eigh pair, not expm
        vals, vecs = np.linalg.eigh(op.toarray())
        estep = (vecs * np.exp(vals * (horizon / steps))) @ vecs.T
        expm_step = real_expm(op.toarray() * (horizon / steps))
        assert np.abs(estep - expm_step).max() <= 1e-14 * np.abs(expm_step).max()
        # y(s_i) = h V e^{Lambda s_i} V' x0
        nodes = np.arange(steps + 1) * (horizon / steps)
        outputs = (np.exp(np.outer(nodes, vals)) * (vecs.T @ x0)) @ (h.toarray() @ vecs).T
    recon = linear_reconstruct_initial_state(op, h, outputs, horizon)
    cond = np.linalg.cond(observability_gramian(op, h, horizon, steps))

    calls = counting_factorizations(monkeypatch)
    monkeypatch.setattr(obs, "_simpson_sums", counting(calls, "sums", obs._simpson_sums))
    report = gramian_reconstruction(grid, h, op, x0, horizon, steps)
    assert calls == {"sums": 1, "expm": int(wave), "eigh": int(not wave)}
    assert report.gramian_condition == cond
    assert report.relative_reconstruction_error == (np.linalg.norm(recon - x0)
                                                    / np.linalg.norm(x0))


def test_gramian_entry_points_round_quadrature_steps_alike(tmp_path, capsys):
    """One rule, in the Simpson sums: a step count of at least 1 rounds
    up to even, for the library Gramian and the CLI check alike."""
    grid, patch, horizon = GridSpec(n=4), 2, 1.0
    op = build_modified_laplacian(np.ones((4, 4)), grid)
    h = build_tokenizer_matrix(grid, patch)
    x0 = np.random.default_rng(1).standard_normal(16)
    for steps in (1, 2, 3):
        rounded = steps + steps % 2
        assert (observability_gramian(op, h, horizon, steps).tobytes()
                == observability_gramian(op, h, horizon, rounded).tobytes())
        report = gramian_reconstruction(grid, h, op, x0, horizon, steps, cond_limit=1e300)
        assert report.quadrature_steps == rounded
    out = tmp_path / "gramian.txt"
    assert cli_main(["observability", "--check", "gramian", "--grid", "8", "--patch", "2",
                     "--horizon", "4", "--quadrature-steps", "1", "--cond-limit", "1e300",
                     "--out", str(out)]) == 0
    assert "quadrature_steps = 2\n" in out.read_text()
    for name, refused in (
            ("observability_gramian", lambda: observability_gramian(op, h, horizon, 0)),
            ("gramian_reconstruction",
             lambda: gramian_reconstruction(grid, h, op, x0, horizon, 0))):
        with pytest.raises(ParameterError,
                           match=f"^{name}: quadrature_steps must be >= 1, got 0$"):
            refused()
    capsys.readouterr()


@pytest.mark.parametrize("equation", ["heat", "wave"])
@pytest.mark.parametrize("flags", [["--constant", "0.7"], ["--grf-seed", "11"]],
                         ids=["constant", "grf"])
def test_each_check_certifies_the_system_of_a_generation_config(equation, flags, tmp_path,
                                                               capsys):
    """The kalman and hautus reports are those of the builder's system for
    the check's config fragment, and the gramian recovers frame 0 of
    trajectory 0 of that config's dataset, with init_seed --grf-seed + 1.
    The library runs on one BLAS thread, as a verb does."""
    argv = ["observability", "--equation", equation, "--grid", "8", "--patch", "2",
            "--horizon", "4", "--cond-limit", "1e300", *flags]
    args = cli.build_parser().parse_args([*argv, "--check", "kalman", "--out", "unused"])
    config = cli._certificate_config(args)
    op, _ = lattice_system(config)
    h = build_tokenizer_matrix(GridSpec(n=8), 2, wave=equation == "wave")
    frames, _ = generate_dataset(dict(config, init_seed=args.grf_seed + 1, trajectories=1,
                                      frames=2, dt=0.01))
    with _one_blas_thread():
        expected = {"kalman": kalman_rank_test(op, h), "hautus": hautus_test(op, h),
                    "gramian": gramian_reconstruction(GridSpec(n=8), h, op, frames[0][0].ravel(),
                                                      4.0, 200, cond_limit=1e300)}
    for check, report in expected.items():
        out = tmp_path / check
        assert cli_main([*argv, "--check", check, "--out", str(out)]) == 0
        assert out.read_text() == report.to_text(), check
    capsys.readouterr()


def make_generic_trajectory(sites=40, frames=300, seed=0):
    # a traveling wave alone spans too few directions for the stacked
    # derivative matrix to be invertible, so add broadband noise
    rng = np.random.default_rng(seed)
    x = np.arange(sites) / sites
    t = np.arange(frames)[:, None] * 0.01
    tone = np.sin(2 * np.pi * (x[None, :] - 0.7 * t))
    return tone + rng.standard_normal((frames, sites))


def test_lie_logdet_finite_on_generic_signal():
    u = make_generic_trajectory()
    series = empirical_lie_logdet(u, patch=4, derivative_order=2, window=10)
    assert series.dim == 20
    assert series.times.shape == series.log_abs_det.shape
    finite = np.isfinite(series.log_abs_det)
    assert finite.any()
    assert np.all(np.isin(series.sign[finite], (-1.0, 1.0)))
    n_windows = u.shape[0] - (2 - 1) - series.dim + 1
    assert series.times.shape[0] == n_windows


def test_lie_logdet_scaling_identity():
    u = make_generic_trajectory()
    base = empirical_lie_logdet(u, patch=4, derivative_order=2, window=10)
    scaled = empirical_lie_logdet(3.0 * u, patch=4, derivative_order=2, window=10)
    mask = np.isfinite(base.log_abs_det) & np.isfinite(scaled.log_abs_det)
    assert mask.any()
    shift = scaled.log_abs_det[mask] - base.log_abs_det[mask]
    np.testing.assert_allclose(shift, base.dim * np.log(3.0), atol=1e-6)
    np.testing.assert_array_equal(scaled.sign[mask], base.sign[mask])


def test_lie_logdet_constant_is_flagged_degenerate():
    u = np.ones((100, 40))
    series = empirical_lie_logdet(u, patch=4, derivative_order=2, window=10)
    assert np.all(series.sign == 0.0)
    assert np.all(np.isneginf(series.log_abs_det))


def test_lie_logdet_rolling_mean():
    u = make_generic_trajectory()
    series = empirical_lie_logdet(u, patch=4, derivative_order=2, window=5)
    idx = 20
    manual = series.log_abs_det[idx - 2:idx + 3].mean()
    assert series.rolling[idx] == pytest.approx(manual)
    assert np.isnan(series.rolling[0]) and np.isnan(series.rolling[-1])


@pytest.mark.filterwarnings("ignore:forward Euler may be unstable:RuntimeWarning")
def test_lie_logdet_is_the_window_times_the_kalman_matrix():
    """Oracle on Euler-stepped linear line data (ROADMAP item 5(a)).

    With x' = A x stepped by forward Euler, the forward differences of the
    tokens P x_t over dt**j are P A^j x_t, so z(t) = O_p x_t with the Kalman
    matrix O_p = [P; PA; ...; PA^(p-1)], M(t) = X(t) O_p' for the dim
    consecutive states X(t), and
    log|det M(t)| = log|det X(t)| + log|det O_p|.  LU rounding bounds the
    gap by dim * eps * cond(M) <= dim * eps * cond(X) * cond(O_p).  The
    step G = I + dt A is 0.95 times a rotated cyclic shift, so every window
    is well conditioned, and log|det M| falls by log|det G| per window.
    """
    sites, patch, p, dt = 12, 2, 2, 0.5
    rng = np.random.default_rng(0)
    rotation, _ = np.linalg.qr(rng.standard_normal((sites, sites)))
    step = 0.95 * rotation @ np.roll(np.eye(sites), 1, axis=0) @ rotation.T
    A = (step - np.eye(sites)) / dt
    traj = simulate_linear(A, rng.standard_normal(sites), dt, 40)
    series = empirical_lie_logdet(traj, patch, derivative_order=p, window=1)
    P = np.kron(np.eye(sites // patch), np.full((1, patch), 1.0 / patch))
    kalman = np.vstack([P, P @ A])
    log_o, cond_o = np.linalg.slogdet(kalman)[1], np.linalg.cond(kalman)
    assert series.dim == sites and len(series.log_abs_det) == 28
    eps = np.finfo(float).eps
    for t, log_m in enumerate(series.log_abs_det):
        window = traj.frames[t:t + sites]
        cond_x = np.linalg.cond(window)
        assert cond_x < 1e8
        gap = log_m - np.linalg.slogdet(window)[1] - log_o
        assert abs(gap) <= sites * eps * cond_x * cond_o, (t, gap)
    np.testing.assert_allclose(np.diff(series.log_abs_det), np.linalg.slogdet(step)[1],
                               rtol=0, atol=1e-10)


def test_lie_logdet_validation():
    with pytest.raises(ParameterError):
        empirical_lie_logdet(np.ones((10, 40)), patch=4, derivative_order=2, window=10)


def test_lie_logdet_reads_the_tokenizer_tokens():
    """Tokenizing first and averaging over patches of one site gives the
    same series, bit for bit, as handing the diagnostic the raw line."""
    u = make_generic_trajectory()
    args = dict(derivative_order=2, window=10, with_singular_values=True)
    direct = empirical_lie_logdet(u, patch=4, **args)
    via_tokens = empirical_lie_logdet(tokenize_trajectory(u, 4), patch=1, **args)
    for f in dataclasses.fields(direct):
        got, want = getattr(via_tokens, f.name), getattr(direct, f.name)
        if isinstance(want, np.ndarray):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), f.name
        else:
            assert got == want, f.name


def test_lie_singular_values_skip_the_burn_in():
    u = make_generic_trajectory()
    full = empirical_lie_logdet(u, patch=4, derivative_order=2, window=10,
                                with_singular_values=True)
    burnt = empirical_lie_logdet(u, patch=4, derivative_order=2, window=10,
                                 with_singular_values=True, burn_frac=0.3)
    first = int(0.3 * len(full.times))
    assert first > 0
    for name in ("sign", "log_abs_det", "rolling"):
        np.testing.assert_array_equal(getattr(burnt, name), getattr(full, name))
    for name in ("min_sv", "max_sv"):
        got, want = getattr(burnt, name), getattr(full, name)
        assert np.all(np.isnan(got[:first]))
        np.testing.assert_array_equal(got[first:], want[first:])
    for bad in (-0.1, 1.0, float("nan")):
        with pytest.raises(ParameterError):
            empirical_lie_logdet(u, patch=4, derivative_order=2, window=10, burn_frac=bad)


@pytest.mark.filterwarnings("error")
def test_lie_report_on_a_constant_line_is_nan_without_warnings():
    report = obs.lie_logdet_report(np.zeros((100, 40)), patch=4, derivative_order=2,
                                   window=10)
    assert report.examined > 0
    assert report.finite_fraction == 0.0 and report.full_rank_fraction == 0.0
    assert np.isnan(report.median_log_abs_det)


def test_lie_report_refuses_a_rel_tol_outside_0_1():
    """As rank_test and kalman_rank_test do: a negative tolerance once
    called every window full rank."""
    u = np.random.default_rng(3).standard_normal((100, 40))
    for bad in (-1.0, 0.0, 1.0, float("nan")):
        with pytest.raises(ParameterError, match="rel_tol"):
            obs.lie_logdet_report(u, patch=4, derivative_order=2, window=10, rel_tol=bad)


def _window_matrix(frames, dt, patch, order, t):
    """M(t) built from its definition: row block k holds the k-th forward
    difference of the tokens over dt**k, at dim consecutive samples."""
    tokens = frames.reshape(frames.shape[0], -1, patch).mean(axis=2)
    dim = tokens.shape[1] * order
    blocks = [np.diff(tokens, n=k, axis=0)[t:t + dim] / dt**k for k in range(order)]
    return np.concatenate(blocks, axis=1).T


def test_lie_singular_values_against_an_mpmath_oracle():
    """50-digit singular values of small windows.  float64 gets sigma_max
    to rounding and every sigma_i to within dim*eps*sigma_max (Weyl: a
    backward-stable SVD is exact for a matrix that close).  On the kse
    line the true sigma_min sits below that floor, so the float64
    sigma_min there is rounding noise; log |det| is not checked."""
    x = np.arange(40) * 22.0 / 40
    kse = simulate_kse1d(np.sin(4 * np.pi * x / 22.0), 22.0, 0.05, 300)
    cases = [(kse.frames, kse.dt, 4, 4, t, True) for t in (0, 250)]
    cases.append((make_generic_trajectory(), 1.0, 4, 2, 100, False))
    eps = np.finfo(float).eps
    for frames, dt, patch, order, t, below_floor in cases:
        series = empirical_lie_logdet(Trajectory(frames, dt=dt), patch=patch,
                                      derivative_order=order, window=10,
                                      with_singular_values=True)
        M = _window_matrix(frames, dt, patch, order, t)
        dim = M.shape[0]
        assert dim <= 40
        with mpmath.workdps(50):
            oracle = mpmath.svd_r(mpmath.matrix(M.tolist()), compute_uv=False)
            oracle = np.sort([float(v) for v in oracle])[::-1]
        floor = dim * eps * oracle[0]
        assert abs(series.max_sv[t] - oracle[0]) <= 1e-12 * oracle[0]
        assert abs(series.min_sv[t] - oracle[-1]) <= 2 * floor
        assert np.all(np.abs(np.linalg.svd(M, compute_uv=False) - oracle) <= 2 * floor)
        assert (oracle[-1] < floor) == below_floor
