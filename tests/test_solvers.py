import numpy as np
import pytest

from latentpde import (DivergenceError, GridSpec, ParameterError, Trajectory,
                       build_modified_laplacian, build_wave_generator, etdrk_coefficients,
                       euler_frames, simulate_kse1d, simulate_kse2d, simulate_linear)
from latentpde.random_fields import GrfParams, sample_matern_field


def test_heat_mode_decay_closed_form():
    # a lattice harmonic is an eigenvector; forward Euler multiplies it by
    # (1 + dt * lambda) each step, with lambda = 2(cos w - 1)/dx^2
    n, q, dt, steps = 16, 2, 0.05, 40
    grid = GridSpec(n=n, dx=1.0)
    op = build_modified_laplacian(np.ones((n, n)), grid)
    i = np.arange(n)
    mode = np.cos(2 * np.pi * q * i / n)[:, None] * np.ones((1, n))
    lam = 2.0 * (np.cos(2 * np.pi * q / n) - 1.0)
    traj = simulate_linear(op, mode, dt, steps)
    for r in range(traj.n_frames):
        np.testing.assert_allclose(traj.frames[r], (1 + dt * lam) ** r * mode, atol=1e-12)


def test_heat_max_principle():
    rng = np.random.default_rng(5)
    n = 16
    a = 0.2 * np.exp(0.5 * rng.standard_normal((n, n)))
    op = build_modified_laplacian(a, GridSpec(n=n))
    u0 = sample_matern_field(GrfParams(grid_size=n, sigma=5.0, m=0.1, nu=1.0, seed=9))
    traj = simulate_linear(op, u0, 0.4, 200)
    maxima = traj.frames.max(axis=(1, 2))
    minima = traj.frames.min(axis=(1, 2))
    assert np.all(np.diff(maxima) <= 1e-12)
    assert np.all(np.diff(minima) >= -1e-12)


def test_wave_mean_evolves_linearly():
    rng = np.random.default_rng(6)
    n = 8
    a = 0.2 * np.exp(0.3 * rng.standard_normal((n, n)))
    op = build_wave_generator(a, GridSpec(n=n))
    u0 = rng.standard_normal((n, n))
    v0 = rng.standard_normal((n, n))
    traj = simulate_linear(op, np.stack([u0, v0]), 0.05, 200)
    means = traj.frames[:, 0].mean(axis=(1, 2))
    assert np.abs(np.diff(means, n=2)).max() < 1e-8


def test_simulate_linear_frame_conventions():
    grid = GridSpec(n=4)
    op = build_modified_laplacian(np.ones((4, 4)), grid)
    x0 = np.random.default_rng(7).standard_normal((4, 4))
    traj = simulate_linear(op, x0, 0.01, steps=10, skip=3)
    assert traj.n_frames == 4  # ceil(10/3)
    np.testing.assert_array_equal(traj.frames[0], x0)
    assert traj.dt == pytest.approx(0.03)
    # stored frame r equals r*skip explicit steps
    state = x0.ravel()
    for _ in range(3):
        state = state + 0.01 * (op @ state)
    np.testing.assert_allclose(traj.frames[1], state.reshape(4, 4), atol=1e-14)
    zero = simulate_linear(op, np.zeros((4, 4)), 0.01, steps=5)
    assert np.all(zero.frames == 0.0)


def test_batch_stepping_matches_one_state_matvecs():
    # every column of the batched sparse product carries the bits of the
    # plain one-state matvec loop
    grid = GridSpec(n=6)
    rng = np.random.default_rng(9)
    cond = 0.2 + 0.1 * rng.random((6, 6))
    for op, shape in ((build_modified_laplacian(cond, grid), (6, 6)),
                      (build_wave_generator(cond, grid), (2, 6, 6))):
        x0s = rng.standard_normal((5,) + shape)
        frames = np.stack(list(euler_frames(op, x0s, 0.05, steps=10, skip=3)), axis=1)
        assert frames.shape == (5, 4) + shape
        for i in range(5):
            state = x0s[i].ravel()
            expected = [state]
            for _ in range(3):
                for _ in range(3):
                    state = state + 0.05 * (op @ state)
                expected.append(state)
            np.testing.assert_array_equal(frames[i].reshape(4, -1), expected)
    with pytest.raises(ParameterError):
        euler_frames(op, x0s[0, 0, 0], 0.05, steps=10)
    with pytest.raises(ParameterError):
        euler_frames(op, x0s[:, 0], 0.05, steps=10)


def test_stability_warning_and_divergence():
    grid = GridSpec(n=8)
    op = build_modified_laplacian(np.ones((8, 8)), grid)
    x0 = np.random.default_rng(8).standard_normal((8, 8))
    with pytest.warns(RuntimeWarning, match="unstable"):
        simulate_linear(op, x0, dt=0.5, steps=2)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(DivergenceError) as err:
            simulate_linear(op, x0, dt=0.5, steps=3000)
    assert err.value.step is not None


def test_trajectory_validation():
    with pytest.raises(ParameterError):
        Trajectory(np.empty((0, 4, 4)), dt=0.1)
    with pytest.raises(ParameterError):
        Trajectory(np.ones((3, 4, 4)), dt=0.0)


NAN, INF = float("nan"), float("inf")
SOLVER_CASES = {
    "euler-dt-negative": lambda: euler_frames(np.zeros((4, 4)), np.zeros((1, 4)), -0.1, 3),
    "euler-dt-nan": lambda: euler_frames(np.zeros((4, 4)), np.zeros((1, 4)), NAN, 3),
    "euler-dt-inf": lambda: euler_frames(np.zeros((4, 4)), np.zeros((1, 4)), INF, 3),
    "etdrk-dt-nan": lambda: etdrk_coefficients(np.zeros(4), NAN),
    "kse1d-length-nan": lambda: simulate_kse1d(np.zeros(16), NAN, 0.05, steps=3),
    "kse1d-dt-nan": lambda: simulate_kse1d(np.zeros(16), 22.0, NAN, steps=3),
    "kse2d-length-inf": lambda: simulate_kse2d(np.zeros((8, 8)), INF, 0.05, steps=3),
}


@pytest.mark.parametrize("case", sorted(SOLVER_CASES))
def test_solvers_refuse_a_nan_infinite_or_non_positive_scalar(case):
    with pytest.raises(ParameterError,
                       match=r"^\w+: (dt|domain_length) must be (a finite real number|> 0), got "):
        SOLVER_CASES[case]()


def test_etdrk_coefficients_zero_symbol_limits():
    dt = 0.3
    coef = etdrk_coefficients(np.array([0.0]), dt)
    assert coef.phi1[0] == pytest.approx(1.0, abs=1e-13)
    assert coef.phi2[0] == pytest.approx(0.5, abs=1e-13)
    assert coef.q[0] == pytest.approx(dt / 2.0, abs=1e-13)
    for stage in (coef.f1, coef.f2, coef.f3):
        assert stage[0] == pytest.approx(dt / 6.0, abs=1e-13)
    assert coef.exp_full[0] == 1.0 and coef.exp_half[0] == 1.0


def test_etdrk_coefficients_match_high_precision_series():
    import mpmath as mp

    mp.mp.dps = 50
    dt = 0.1
    symbols = np.array([-400.0, -40.0, -3.0, -0.2, -1e-3, 0.7])
    coef = etdrk_coefficients(symbols, dt)
    for idx, lam in enumerate(symbols):
        z = mp.mpf(dt) * mp.mpf(lam)
        phi1 = (mp.e**z - 1) / z
        phi2 = (mp.e**z - z - 1) / z**2
        q = dt * (mp.e**(z / 2) - 1) / z
        f1 = dt * (-4 - z + mp.e**z * (4 - 3 * z + z**2)) / z**3
        f2 = dt * (2 + z + mp.e**z * (-2 + z)) / z**3
        f3 = dt * (-4 - 3 * z - z**2 + mp.e**z * (4 - z)) / z**3
        assert coef.phi1[idx] == pytest.approx(float(phi1), rel=1e-12)
        assert coef.phi2[idx] == pytest.approx(float(phi2), rel=1e-12)
        assert coef.q[idx] == pytest.approx(float(q), rel=1e-12)
        assert coef.f1[idx] == pytest.approx(float(f1), rel=1e-12)
        assert coef.f2[idx] == pytest.approx(float(f2), rel=1e-12)
        assert coef.f3[idx] == pytest.approx(float(f3), rel=1e-12)


def test_etdrk_coefficients_contour_converged_and_bounded():
    dt = 0.01
    symbols = -np.logspace(-3, 6, 25)
    a = etdrk_coefficients(symbols, dt, contour_points=32)
    b = etdrk_coefficients(symbols, dt, contour_points=64)
    for name in ("phi1", "phi2", "q", "f1", "f2", "f3"):
        np.testing.assert_allclose(getattr(a, name), getattr(b, name), atol=1e-12)
        assert np.all(np.isfinite(getattr(a, name)))


def test_kse2d_zero_fixed_point_and_mean():
    zero = simulate_kse2d(np.zeros((16, 16)), 22.0, 0.05, steps=20, skip=2)
    assert np.all(zero.frames == 0.0)
    rng = np.random.default_rng(10)
    traj = simulate_kse2d(rng.standard_normal((16, 16)), 22.0, 0.05, steps=40, skip=4,
                          burn_in=2)
    assert traj.n_frames == 8
    assert np.abs(traj.frames.mean(axis=(1, 2))).max() < 1e-10
    assert np.all(np.isfinite(traj.frames))


def test_kse2d_parameter_validation():
    with pytest.raises(ParameterError):
        simulate_kse2d(np.zeros((16, 8)), 22.0, 0.05, steps=10)
    with pytest.raises(ParameterError):
        simulate_kse2d(np.zeros((16, 16)), 22.0, 0.05, steps=10, skip=5, burn_in=2)


def test_kse1d_zero_and_mean_conservation():
    zero = simulate_kse1d(np.zeros(64), 32.0, 0.05, steps=10)
    assert np.all(zero.frames == 0.0)
    x = np.arange(64) * 32.0 / 64
    traj = simulate_kse1d(np.sin(2 * np.pi * x / 32.0), 32.0, 0.05, steps=200)
    assert traj.n_frames == 201
    means = traj.frames.mean(axis=1)
    np.testing.assert_allclose(means, means[0], atol=1e-12)


def test_kse1d_grows_structure():
    # a perturbation near the fastest-growing wavelength (k close to 1/sqrt(2))
    # must be amplified strongly by the linearly unstable band
    x = np.arange(128) * 64.0 / 128
    u0 = 1e-3 * np.cos(2 * np.pi * 7 * x / 64.0)
    traj = simulate_kse1d(u0, 64.0, 0.1, steps=400)
    assert traj.frames[-1].std() > 10 * traj.frames[0].std()
