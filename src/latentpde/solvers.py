"""Time integrators: forward Euler for lattice generators, exponential
integrators (ETDRK2/ETDRK4) for the stiff spectral problems.

Stage coefficients for the exponential integrators are evaluated with the
contour-averaging trick of Kassam & Trefethen (mean of the integrand over
points on a unit circle around each z = dt*lambda), which avoids the
catastrophic cancellation of the direct phi-function formulas near z = 0.
A bad field of a :class:`Trajectory` or a bad scalar argument raises
ParameterError in the form ``Trajectory: dt must be > 0, got 0.0``, naming
the class or the function called, as in ``euler_frames: steps must be an
integer, got 2.5``.
"""

from dataclasses import dataclass, field
import warnings

import numpy as np
import scipy.sparse as sp

from .errors import DivergenceError, Key, ParameterError, check_entries

TRAJECTORY_TABLE = {"dt": Key(float, ">", 0), "skip": Key(int, ">=", 1, True),
                    "burn_in": Key(int, ">=", 0, True)}
_ARGS = {**TRAJECTORY_TABLE, "steps": Key(int, ">=", 1, True),
         "domain_length": Key(float, ">", 0, True), "contour_points": Key(int, ">=", 4, True)}


@dataclass
class Trajectory:
    """A stored trajectory and how its frames were sampled in time.

    frames:  (T, n, n) scalar fields, (T, 2, n, n) stacked wave states,
             or (T, N) line fields; frame 0 is the earliest stored state
    dt:      time between *stored* frames (integrator step times skip)
    skip:    store one frame per this many integrator steps
    burn_in: stored frames dropped from the beginning before returning
    """

    frames: np.ndarray
    dt: float
    skip: int = 1
    burn_in: int = 0

    def __post_init__(self):
        check_entries(vars(self), TRAJECTORY_TABLE, "Trajectory", ParameterError)
        frames = np.asarray(self.frames)
        if frames.dtype.kind not in "biuf" or frames.ndim < 2 or frames.shape[0] < 1:
            raise ParameterError("Trajectory: frames must be a stack of at least one real "
                                 f"frame, got {frames.dtype} of shape {frames.shape}")
        self.frames = frames.astype(float, copy=False)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def _gershgorin_radius(op) -> float:
    """Upper bound on the spectral radius: max absolute row sum."""
    if sp.issparse(op):
        return float((abs(op) @ np.ones(op.shape[1])).max())
    return float(np.abs(np.asarray(op)).sum(axis=1).max())


def simulate_linear(op, x0: np.ndarray, dt: float, steps: int, skip: int = 1) -> Trajectory:
    """Forward-Euler trajectory of one initial state: the ceil(steps/skip)
    stored frames of :func:`euler_frames` for the B = 1 stack ``x0[None]``."""
    x0 = np.asarray(x0, dtype=float)
    frames = np.stack([frame[0] for frame in euler_frames(op, x0[None], dt, steps, skip=skip)])
    return Trajectory(frames, dt=dt * skip, skip=skip)


def euler_frames(op, x0s: np.ndarray, dt: float, steps: int, skip: int = 1):
    """The ceil(steps/skip) stored frames of forward-Euler trajectories of a
    stack ``x0s`` of B initial states stepped together, each a (B, ...)
    array yielded as soon as it is stepped.

    Every Euler step is one sparse product on the (N, B) C-contiguous state,
    which gives each trajectory the same bits as stepping it alone.  Stored
    frame r is the state after r*skip Euler steps; the first stored frame is
    the initial states themselves.  A yielded frame is a read-only view
    that later steps leave alone.  The arguments are checked, and a
    RuntimeWarning is emitted (but stepping goes on) when dt times the
    Gershgorin spectral-radius bound reaches the explicit-Euler stability
    limit of 2, before this returns.  The iteration raises DivergenceError
    naming the first bad step, and for B > 1 the first trajectory that is
    not finite there, if a stored frame stops being finite.
    """
    check_entries(locals(), _ARGS, "euler_frames", ParameterError)
    x0s = np.asarray(x0s, dtype=float)
    if x0s.ndim < 2 or x0s.shape[0] < 1:
        raise ParameterError(f"expected a stack of initial states, got shape {x0s.shape}")
    if op.shape[0] != op.shape[1] or op.shape[1] != x0s[0].size:
        raise ParameterError(f"operator shape {op.shape} does not match state size {x0s[0].size}")
    radius = _gershgorin_radius(op)
    if dt * radius >= 2.0:
        warnings.warn(
            f"forward Euler may be unstable: dt*spectral-radius bound = {dt * radius:.3g} >= 2",
            RuntimeWarning,
        )
    return _euler_loop(op, x0s, dt, -(-steps // skip), skip, radius)


def _euler_loop(op, x0s, dt, n_stored, skip, radius):
    batch, shape = x0s.shape[0], x0s.shape[1:]
    state = np.ascontiguousarray(x0s.reshape(batch, -1).T)
    for r in range(n_stored):
        if r:
            for _ in range(skip):
                state = state + dt * (op @ state)
            finite = np.isfinite(state).all(axis=0)
            if not finite.all():
                bad = int(np.argmin(finite))
                where = f" in trajectory {bad}" if batch > 1 else ""
                raise DivergenceError(
                    f"state diverged by step {r * skip}{where} "
                    f"(dt*spectral-radius bound = {dt * radius:.3g})", step=r * skip,
                    trajectory=bad)
        frame = state.T.reshape((batch,) + shape)
        frame.flags.writeable = False
        yield frame


@dataclass
class EtdrkCoefficients:
    """Per-mode scalar arrays for ETDRK2/ETDRK4 with step dt.

    ``phi1`` and ``phi2`` are the unscaled phi-functions evaluated at
    z = dt*lambda (phi1(0) = 1, phi2(0) = 1/2).  ``q``, ``f1``, ``f2``,
    ``f3`` are the dt-scaled ETDRK4 stage arrays of Kassam & Trefethen.
    """

    dt: float
    exp_full: np.ndarray
    exp_half: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    q: np.ndarray = field(repr=False, default=None)
    f1: np.ndarray = field(repr=False, default=None)
    f2: np.ndarray = field(repr=False, default=None)
    f3: np.ndarray = field(repr=False, default=None)


def etdrk_coefficients(linear_symbol: np.ndarray, dt: float,
                       contour_points: int = 32) -> EtdrkCoefficients:
    """Contour-averaged exponential-integrator coefficients.

    Works for real symbols of any shape.  Doubling ``contour_points``
    perturbs the result below 1e-12 for the symbols used here, so the
    default of 32 is already converged.
    """
    check_entries(locals(), _ARGS, "etdrk_coefficients", ParameterError)
    lam = np.asarray(linear_symbol, dtype=float)
    roots = np.exp(1j * np.pi * (np.arange(contour_points) + 0.5) / contour_points)
    z = dt * lam[..., None] + roots  # circle of radius 1 around each dt*lambda
    mean = lambda w: w.mean(axis=-1).real
    return EtdrkCoefficients(
        dt=dt,
        exp_full=np.exp(dt * lam),
        exp_half=np.exp(dt * lam / 2.0),
        phi1=mean((np.exp(z) - 1.0) / z),
        phi2=mean((np.exp(z) - z - 1.0) / z**2),
        q=dt * mean((np.exp(z / 2.0) - 1.0) / z),
        f1=dt * mean((-4.0 - z + np.exp(z) * (4.0 - 3.0 * z + z**2)) / z**3),
        f2=dt * mean((2.0 + z + np.exp(z) * (-2.0 + z)) / z**3),
        f3=dt * mean((-4.0 - 3.0 * z - z**2 + np.exp(z) * (4.0 - z)) / z**3),
    )


def _dealias_mask(n: int, ndim: int) -> np.ndarray:
    """Two-thirds rule: keep modes whose every index magnitude is <= n/3."""
    keep = np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= n // 3
    if ndim == 1:
        return keep
    return keep[:, None] & keep[None, :]


def simulate_kse2d(u0: np.ndarray, domain_length: float, dt: float, steps: int,
                   skip: int = 1, burn_in: int = 0) -> Trajectory:
    """ETDRK4 integration of the 2D Kuramoto-Sivashinsky equation.

        u_t = -lap(u) - lap^2(u) - |grad u|^2 / 2

    on a periodic square of side ``domain_length``.  The nonlinear term is
    dealiased with the 2/3 rule and the mean mode is zeroed after every
    step (the gradient-squared term otherwise drives a mean drift).  One
    frame is stored per ``skip`` steps, counted from step ``skip`` (the
    initial state itself is not stored), and the first ``burn_in`` stored
    frames are dropped.  A zero initial state stays exactly zero.
    """
    check_entries(locals(), _ARGS, "simulate_kse2d", ParameterError)
    u0 = np.asarray(u0, dtype=float)
    if u0.ndim != 2 or u0.shape[0] != u0.shape[1]:
        raise ParameterError(f"expected a square field, got shape {u0.shape}")
    n_stored = steps // skip
    if n_stored - burn_in < 1:
        raise ParameterError(f"burn_in {burn_in} leaves no frames out of {n_stored} stored")
    n = u0.shape[0]
    k1d = 2.0 * np.pi * np.fft.fftfreq(n, d=domain_length / n)
    kx, ky = np.meshgrid(k1d, k1d, indexing="ij")
    symbol = (kx**2 + ky**2) - (kx**2 + ky**2) ** 2
    coef = etdrk_coefficients(symbol, dt)
    mask = _dealias_mask(n, 2)

    def nonlinear(v_hat):
        ux = np.fft.ifft2(1j * kx * v_hat).real
        uy = np.fft.ifft2(1j * ky * v_hat).real
        out = np.fft.fft2(-0.5 * (ux**2 + uy**2))
        out[~mask] = 0.0
        return out

    v = np.fft.fft2(u0)
    v[0, 0] = 0.0
    frames = np.empty((n_stored - burn_in, n, n))
    stored = 0
    for step in range(1, steps + 1):
        nv = nonlinear(v)
        a = coef.exp_half * v + coef.q * nv
        na = nonlinear(a)
        b = coef.exp_half * v + coef.q * na
        nb = nonlinear(b)
        c = coef.exp_half * a + coef.q * (2.0 * nb - nv)
        nc = nonlinear(c)
        v = coef.exp_full * v + coef.f1 * nv + 2.0 * coef.f2 * (na + nb) + coef.f3 * nc
        v[0, 0] = 0.0
        if step % skip == 0:
            kept = step // skip - 1
            if kept >= burn_in:
                u = np.fft.ifft2(v).real
                if not np.all(np.isfinite(u)):
                    raise DivergenceError(f"state diverged by step {step}", step=step)
                frames[stored] = u
                stored += 1
    return Trajectory(frames, dt=dt * skip, skip=skip, burn_in=burn_in)


def simulate_kse1d(u0: np.ndarray, domain_length: float, dt: float, steps: int) -> Trajectory:
    """ETDRK2 integration of the 1D Kuramoto-Sivashinsky equation.

        u_t = -u_xx - u_xxxx - u u_x

    Every step is stored, the initial state included, giving steps + 1
    frames of shape (N,).  The nonlinear term -0.5 d/dx (u^2) is dealiased
    with the 2/3 rule; the mean mode is conserved by construction.
    """
    check_entries(locals(), _ARGS, "simulate_kse1d", ParameterError)
    u0 = np.asarray(u0, dtype=float)
    if u0.ndim != 1:
        raise ParameterError(f"expected a line field, got shape {u0.shape}")
    n = u0.shape[0]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=domain_length / n)
    symbol = k**2 - k**4
    coef = etdrk_coefficients(symbol, dt)
    mask = _dealias_mask(n, 1)

    def nonlinear(v_hat):
        u = np.fft.ifft(v_hat).real
        out = -0.5j * k * np.fft.fft(u * u)
        out[~mask] = 0.0
        return out

    v = np.fft.fft(u0)
    frames = np.empty((steps + 1, n))
    frames[0] = u0
    for step in range(1, steps + 1):
        nv = nonlinear(v)
        a = coef.exp_full * v + dt * coef.phi1 * nv
        na = nonlinear(a)
        v = a + dt * coef.phi2 * (na - nv)
        u = np.fft.ifft(v).real
        if not np.all(np.isfinite(u)):
            raise DivergenceError(f"state diverged by step {step}", step=step)
        frames[step] = u
    return Trajectory(frames, dt=dt)
