"""Benchmark data generators: perturbed Bickley jet and the rotating
five-well gradient SDE, plus small synthetic helpers.

Each simulator is one vectorized numpy loop that reads its configuration
object: RK4 advection in `bickley_flow_map`, Euler-Maruyama stepping in
`em_ensemble`. Both are elementwise over the particles, so their endpoints do
not depend on the BLAS thread count. The unchecked field bodies `_velocity`
and `_grad` sit beside their checked public twins.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .cca import TrajectoryPairs
from .errors import InputError, NumericalError

# Standard benchmark parameters for the idealized stratospheric jet. Lengths
# in Mm, time in days; the background speed is 62.66 m/s converted to Mm/day.
_U0_DEFAULT = 62.66 * 86400.0 / 1e6
_R0 = 6.371


@dataclass(frozen=True)
class BickleyConfig:
    """Perturbed jet on [0, 20] x [-3, 3], periodic in x1 with period 20."""

    U0: float = _U0_DEFAULT
    L: float = 1.77
    eps: tuple = (0.075, 0.4, 0.3)
    speeds: tuple = (0.1446 * _U0_DEFAULT, 0.205 * _U0_DEFAULT, 0.461 * _U0_DEFAULT)
    wavenumbers: tuple = (2.0 / _R0, 4.0 / _R0, 6.0 / _R0)
    period: float = 20.0
    step: float = 0.1
    tau: float = 40.0
    domain: tuple = ((0.0, 20.0), (-3.0, 3.0))

    def __post_init__(self):
        if not (self.step > 0 and math.isfinite(self.tau)):
            raise InputError("integrator step must be > 0 and lag tau finite", "dynamics")
        if not (self.U0 > 0 and self.L > 0 and self.period > 0):
            raise InputError("U0, L, and period must be > 0", "dynamics")


@dataclass(frozen=True)
class FiveWellConfig:
    """Overdamped diffusion in the rotating five-well potential."""

    beta: float = 3.0
    s: int = 5
    h: float = 1e-3
    t_span: tuple = (0.0, 10.0)
    domain: tuple = ((-2.5, 2.5), (-2.5, 2.5))
    seed: int = 0

    def __post_init__(self):
        if not self.beta > 0:
            raise InputError("inverse temperature beta must be > 0", "dynamics")
        if int(self.s) != self.s or self.s < 1:
            raise InputError("well count s must be an integer >= 1", "dynamics")
        if not self.h > 0:
            raise InputError("step size h must be > 0", "dynamics")


def _velocity(P, t, cfg):
    """Velocity field of the perturbed jet at points P (m, 2) and time t."""
    x, y = P[:, 0], P[:, 1]
    sech2 = 1.0 / np.cosh(y / cfg.L) ** 2
    tanh_y = np.tanh(y / cfg.L)
    pert = np.zeros_like(x)
    dpert_dx = np.zeros_like(x)
    for eps, c, kn in zip(cfg.eps, cfg.speeds, cfg.wavenumbers):
        arg = kn * (x - c * t)
        pert += eps * np.cos(arg)
        dpert_dx -= eps * kn * np.sin(arg)
    u = cfg.U0 * sech2 + 2.0 * cfg.U0 * tanh_y * sech2 * pert
    v = cfg.U0 * cfg.L * sech2 * dpert_dx
    return np.stack([u, v], axis=1)


def bickley_velocity(points, t, cfg=None):
    """Velocity (u, v) of the jet at points (m, 2) or a single point, time t."""
    cfg = cfg or BickleyConfig()
    P = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(P)) or not math.isfinite(t):
        raise InputError("non-finite state or time", "dynamics", "bickley_velocity")
    V = _velocity(P, float(t), cfg)
    return V[0] if np.asarray(points).ndim == 1 else V


def bickley_flow_map(x0, t0, tau, cfg=None):
    """Endpoint of RK4 advection over lag tau; x1 is wrapped to [0, period)."""
    cfg = cfg or BickleyConfig()
    X = np.atleast_2d(np.asarray(x0, dtype=float)).copy()
    nsteps = int(round(abs(tau) / cfg.step))
    h = float(tau) / nsteps if nsteps > 0 else 0.0
    t = float(t0)
    for _ in range(nsteps):
        k1 = _velocity(X, t, cfg)
        k2 = _velocity(X + 0.5 * h * k1, t + 0.5 * h, cfg)
        k3 = _velocity(X + 0.5 * h * k2, t + 0.5 * h, cfg)
        k4 = _velocity(X + h * k3, t + h, cfg)
        X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    if not np.all(np.isfinite(X)):
        raise NumericalError("advection produced non-finite states", "dynamics", "bickley_flow_map")
    X[:, 0] = np.mod(X[:, 0], cfg.period)
    return X[0] if np.asarray(x0).ndim == 1 else X


def five_well_potential(points, t, s=5):
    """Rotating multi-well potential value at points (m, 2)."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    x1, x2 = P[:, 0], P[:, 1]
    r = np.sqrt(x1 * x1 + x2 * x2)
    theta = np.arctan2(x2, x1)
    V = np.cos(s * theta - 0.5 * np.pi * t) + 10.0 * (
        r - 1.5 - 0.5 * np.sin(2.0 * np.pi * t)
    ) ** 2
    return V[0] if np.asarray(points).ndim == 1 else V


def _grad(P, t, s):
    """Analytic gradient of the rotating five-well potential at points P (m, 2)."""
    x1, x2 = P[:, 0], P[:, 1]
    r2 = x1 * x1 + x2 * x2
    r = np.sqrt(r2)
    theta = np.arctan2(x2, x1)
    ang = s * theta - 0.5 * np.pi * t
    radial = 20.0 * (r - 1.5 - 0.5 * np.sin(2.0 * np.pi * t)) / r
    sin_ang = np.sin(ang)
    g1 = sin_ang * s * x2 / r2 + radial * x1
    g2 = -sin_ang * s * x1 / r2 + radial * x2
    return np.stack([g1, g2], axis=1)


def five_well_grad(points, t, s=5):
    """Analytic gradient of the rotating multi-well potential."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.sqrt(np.sum(P * P, axis=1))
    if np.any(r < 1e-8):
        raise InputError(
            "gradient undefined at the origin", "dynamics", "five_well_grad"
        )
    G = _grad(P, float(t), float(s))
    return G[0] if np.asarray(points).ndim == 1 else G


_EM_BLOCK = 500       # noise generated in blocks to bound memory
_DIVERGE_LIMIT = 1e3


def em_ensemble(cfg, X0, seed=None, noise_free=False):
    """Euler-Maruyama endpoints for an ensemble of start points (n, 2).

    Noise is drawn block-wise from a single seeded generator, so results are
    deterministic for a given seed and identical for any worker-thread count.
    A block's clock starts at the block's start time, which advances by
    block * h; the endpoints' last bits depend on this clock.
    """
    X = np.atleast_2d(np.asarray(X0, dtype=float)).copy()
    t0, t1 = cfg.t_span
    nsteps = int(round((t1 - t0) / cfg.h))
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    amp = 0.0 if noise_free else math.sqrt(2.0 * cfg.h / cfg.beta)
    s = float(cfg.s)
    t = t0
    for done in range(0, nsteps, _EM_BLOCK):
        block = min(_EM_BLOCK, nsteps - done)
        if amp > 0.0:
            noise = rng.standard_normal((block, X.shape[0], 2))
        step_t = t
        worst = 0.0
        for step in range(block):
            X -= cfg.h * _grad(X, step_t, s)
            if amp > 0.0:
                X += amp * noise[step]
            step_t += cfg.h
            worst = max(worst, float(np.max(np.abs(X))))
        if worst > _DIVERGE_LIMIT:
            raise NumericalError(
                f"trajectory diverged (|X| reached {worst:.2e})",
                "dynamics",
                "euler_maruyama",
            )
        t += block * cfg.h
    return X


def euler_maruyama(cfg, x0, seed=None, noise_free=False):
    """Endpoint of a single Euler-Maruyama trajectory from x0."""
    return em_ensemble(cfg, np.asarray(x0, dtype=float)[None, :], seed, noise_free)[0]


def sample_uniform(domain, n, seed):
    """n seeded uniform samples from a product of intervals."""
    if n < 1:
        raise InputError("need n >= 1 samples", "dynamics", "sample_uniform")
    rng = np.random.default_rng(seed)
    lo = np.array([d[0] for d in domain], dtype=float)
    hi = np.array([d[1] for d in domain], dtype=float)
    return lo + (hi - lo) * rng.random((n, len(domain)))


def bickley_pairs(n, seed, cfg=None):
    """Uniform start points advected over the configured lag; CCA-ready pairs."""
    cfg = cfg or BickleyConfig()
    X = sample_uniform(cfg.domain, n, seed)
    Y = bickley_flow_map(X, 0.0, cfg.tau, cfg)
    return TrajectoryPairs(X=X, Y=Y)


def five_well_pairs(n, cfg=None):
    """Uniform start points evolved through the SDE; CCA-ready pairs.

    cfg.seed draws the start points and cfg.seed + 1 the noise."""
    cfg = cfg or FiveWellConfig()
    X = sample_uniform(cfg.domain, n, cfg.seed)
    # keep starts away from the gradient singularity at the origin
    r = np.sqrt(np.sum(X * X, axis=1))
    bad = r < 1e-6
    X[bad] += 0.1
    Y = em_ensemble(cfg, X, seed=cfg.seed + 1)
    return TrajectoryPairs(X=X, Y=Y)


def superellipse_pairs(n, seed, exponent=4.0, noise=0.05):
    """Two noisy views of a generalized superellipse driven by a common angle.

    X traces |x|^p + |y|^p = 1; Y traces a rotated copy. Useful as a
    nonlinearly-related synthetic benchmark for CCA.
    """
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 2.0 * np.pi, n)

    def curve(angles):
        c, s = np.cos(angles), np.sin(angles)
        return np.stack(
            [
                np.sign(c) * np.abs(c) ** (2.0 / exponent),
                np.sign(s) * np.abs(s) ** (2.0 / exponent),
            ],
            axis=1,
        )

    X = curve(t) + noise * rng.standard_normal((n, 2))
    Y = curve(t + 0.25 * np.pi) + noise * rng.standard_normal((n, 2))
    return TrajectoryPairs(X=X, Y=Y)
