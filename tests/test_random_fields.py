import dataclasses

import numpy as np
import pytest

from latentpde import GrfParams, ParameterError, build_conductivity, sample_matern_field

BASE = GrfParams(grid_size=16, sigma=10.0, m=0.1, nu=1.0, seed=7)


def periodic_matern_covariance(offset, m, nu, truncation, grid_size):
    """Covariance of the unit-normalised spectral sum at a lattice offset, by
    direct cosine-series evaluation of

        C(d) = sum_{k != 0, |k_i| <= truncation}
                   S(k) * cos(2*pi*(k . d)/grid_size)

    with ``S`` the spectrum of :mod:`latentpde.random_fields`.  The series is
    unnormalised: :func:`sample_matern_field` has covariance
    ``sigma**2 * C(d) / C(0)``.  A reference for the FFT sampler that never
    goes through an FFT.
    """
    d1, d2 = offset
    m_phys = m * grid_size / 2.0
    total = 0.0
    for k1 in range(-truncation, truncation + 1):
        for k2 in range(-truncation, truncation + 1):
            if k1 == 0 and k2 == 0:
                continue
            s = 0.25 * (np.pi**2 * (k1**2 + k2**2) + m_phys**2) ** (-nu)
            total += s * np.cos(2.0 * np.pi * (k1 * d1 + k2 * d2) / grid_size)
    return total


def test_deterministic_for_fixed_seed():
    a = sample_matern_field(BASE)
    b = sample_matern_field(BASE)
    np.testing.assert_array_equal(a, b)
    c = sample_matern_field(dataclasses.replace(BASE, seed=8))
    assert not np.array_equal(a, c)


def test_linear_in_sigma():
    a = sample_matern_field(BASE)
    b = sample_matern_field(dataclasses.replace(BASE, sigma=20.0))
    np.testing.assert_allclose(b, 2.0 * a, rtol=1e-13)
    z = sample_matern_field(dataclasses.replace(BASE, sigma=0.0))
    assert np.all(z == 0.0)


def test_zero_mean_every_sample():
    # the constant mode is excluded from the spectrum, so the pixel mean
    # vanishes to rounding; well inside 3*std/grid_size
    for seed in range(5):
        field = sample_matern_field(dataclasses.replace(BASE, seed=seed))
        assert abs(field.mean()) < 1e-12 * BASE.sigma
        assert abs(field.mean()) < 3.0 * field.std() / BASE.grid_size


def test_sample_std_matches_sigma():
    fields = np.stack([
        sample_matern_field(dataclasses.replace(BASE, seed=s)) for s in range(3000)
    ])
    pixel_var = fields.var(axis=0)
    assert abs(np.sqrt(pixel_var.mean()) - BASE.sigma) < 0.05 * BASE.sigma


def test_covariance_matches_cosine_series():
    # independent oracle: direct cosine-series evaluation, never an FFT.
    # nu=2 makes the spectrum decay fast enough that the oracle's symmetric
    # truncation and the sampler's FFT grid agree far inside the 5% budget
    params = dataclasses.replace(BASE, sigma=1.0, nu=2.0)
    fields = np.stack([
        sample_matern_field(dataclasses.replace(params, seed=s)) for s in range(10000)
    ])
    for lag in [(1, 0), (0, 1), (2, 2)]:
        emp = (fields * np.roll(fields, shift=lag, axis=(1, 2))).mean()
        c_lag = periodic_matern_covariance(lag, params.m, params.nu, 8, params.grid_size)
        c_zero = periodic_matern_covariance((0, 0), params.m, params.nu, 8, params.grid_size)
        expected = params.sigma**2 * c_lag / c_zero
        assert abs(emp - expected) < 0.05 * abs(expected), (lag, emp, expected)


def test_stationarity_between_anchor_pixels():
    params = dataclasses.replace(BASE, sigma=1.0)
    fields = np.stack([
        sample_matern_field(dataclasses.replace(params, seed=s)) for s in range(4000)
    ])
    shifted = np.roll(fields, shift=(0, 3), axis=(1, 2))
    per_pixel_cov = (fields * shifted).mean(axis=0)
    # the same periodic lag must give the same covariance at every anchor
    assert per_pixel_cov.std() < 0.1 * abs(per_pixel_cov.mean())


def test_marginals_are_gaussian():
    params = dataclasses.replace(BASE, grid_size=8, sigma=1.0)
    fields = np.stack([
        sample_matern_field(dataclasses.replace(params, seed=s)) for s in range(8000)
    ])
    centered = fields - fields.mean(axis=0)
    kurt = (centered**4).mean(axis=0) / (centered**2).mean(axis=0) ** 2
    assert abs(kurt.mean() - 3.0) < 0.1
    assert np.abs(kurt - 3.0).max() < 0.5


def test_conductivity_strictly_positive():
    cond = build_conductivity(BASE)
    assert np.all(cond > 0)
    np.testing.assert_allclose(cond, np.exp(sample_matern_field(BASE)))


def test_parameter_validation():
    with pytest.raises(ParameterError):
        GrfParams(grid_size=1, sigma=1.0, m=0.1, nu=1.0, seed=0)
    with pytest.raises(ParameterError):
        GrfParams(grid_size=8, sigma=-1.0, m=0.1, nu=1.0, seed=0)
    with pytest.raises(ParameterError):
        GrfParams(grid_size=8, sigma=1.0, m=0.0, nu=1.0, seed=0)
    with pytest.raises(ParameterError):
        GrfParams(grid_size=8, sigma=1.0, m=0.1, nu=-2.0, seed=0)
