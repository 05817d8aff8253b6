"""Periodic Gaussian random fields on the pixel lattice.

Fields live on an ``n x n`` grid of pixels identified with the torus
``[-1, 1]^2``: pixel ``(i, j)`` sits at ``x = 2*i/n - 1``, ``y = 2*j/n - 1``.
Samples are drawn spectrally: white noise is filtered by the square root of
a Matern-type spectrum

    S(k) = (1/4) * (pi^2 |k|^2 + (m*n/2)^2)**(-nu),   k integer wavevector,

and the zero mode is removed so every sample has exact zero mean over the
grid.  ``m`` is the inverse correlation length measured in lattice steps;
the factor ``n/2`` converts it to the torus coordinates above.  The final
field is rescaled so the per-pixel standard deviation equals ``sigma``
exactly (in expectation over pixels the construction is stationary, so the
rescaling is a single global constant).  A bad field of a :class:`GrfParams`
or a bad scalar argument raises ParameterError in the form
``GrfParams: sigma must be >= 0, got -1.0``, naming the class or the
function called.
"""

from dataclasses import dataclass

import numpy as np

from .errors import Key, ParameterError, check_entries
from .lattice_ops import GRID_TABLE

GRF_TABLE = {"grid_size": GRID_TABLE["n"], "sigma": Key(float, ">=", 0),
             "m": Key(float, ">", 0), "nu": Key(float, ">", 0), "seed": Key(int, ">=", 0)}
_COVARIANCE_ARGS = {**{key: GRF_TABLE[key] for key in ("m", "nu", "grid_size")},
                    "truncation": Key(int, ">=", 1)}


@dataclass(frozen=True)
class GrfParams:
    """Parameters of one random-field draw.

    grid_size: pixels per side (n >= 2)
    sigma:     target per-pixel standard deviation, >= 0
    m:         inverse correlation length in lattice steps, > 0
    nu:        spectral decay exponent, > 0
    seed:      seeds numpy's default PCG64 generator; the draw order is a
               single (n, n) standard-normal block, so equal seeds give
               bit-equal fields
    """

    grid_size: int
    sigma: float
    m: float
    nu: float
    seed: int

    def __post_init__(self):
        check_entries(vars(self), GRF_TABLE, "GrfParams", ParameterError)


def _spectrum(grid_size: int, m: float, nu: float) -> np.ndarray:
    """Matern spectrum on the FFT wavevector grid, zero mode removed."""
    k = np.fft.fftfreq(grid_size, d=1.0 / grid_size)
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    m_phys = m * grid_size / 2.0
    spec = 0.25 * (np.pi**2 * (k1**2 + k2**2) + m_phys**2) ** (-nu)
    spec[0, 0] = 0.0
    return spec


def sample_matern_field(params: GrfParams) -> np.ndarray:
    """Draw one mean-zero periodic Gaussian field of shape (n, n).

    Deterministic for a fixed seed, and linear in sigma: doubling sigma
    with the same seed doubles the field.
    """
    n = params.grid_size
    rng = np.random.default_rng(params.seed)
    white = rng.standard_normal((n, n))
    if params.sigma == 0.0:
        return np.zeros((n, n))
    spec = _spectrum(n, params.m, params.nu)
    field = np.fft.ifft2(np.fft.fft2(white) * np.sqrt(spec)).real
    # Parseval: per-pixel variance of the filtered noise is mean(spec).
    field *= params.sigma / np.sqrt(spec.mean())
    return field


def build_conductivity(params: GrfParams) -> np.ndarray:
    """Log-normal conductivity field exp(Z), strictly positive."""
    return np.exp(sample_matern_field(params))


def periodic_matern_covariance(
    offset, m: float, nu: float, truncation: int, grid_size: int
) -> float:
    """Covariance of the unit-normalised spectral sum at a lattice offset.

    Direct cosine-series evaluation of

        C(d) = sum_{k != 0, |k_i| <= truncation}
                   S(k) * cos(2*pi*(k . d)/grid_size)

    with ``S`` as in :func:`_spectrum`.  The value is the *unnormalised*
    series; callers wanting the covariance of :func:`sample_matern_field`
    should use ``sigma**2 * C(d) / C(0)``.  Serves as an independent check
    on the FFT sampler (the sum never goes through an FFT).
    """
    check_entries(locals(), _COVARIANCE_ARGS, "periodic_matern_covariance", ParameterError)
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
