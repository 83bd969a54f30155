"""Benchmark data generators: perturbed Bickley jet and the rotating
five-well gradient SDE, plus small synthetic helpers.

Each simulator is one vectorized numpy loop that reads its configuration
object: RK4 advection in `bickley_flow_map`, Euler-Maruyama stepping in
`em_ensemble`. Both are elementwise over the particles, so their endpoints do
not depend on the BLAS thread count. `em_ensemble` draws its next noise block
on one worker thread while it steps the current one; the same generator
fills the same blocks in the same order, so its endpoints do not depend on
scheduling either. The unchecked field bodies `_velocity` and `_grad` sit
beside their checked public twins; `_grad` writes into caller buffers.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cca import TrajectoryPairs
from .errors import InputError, NumericalError
from .linalg import require_memory

# Standard parameters of the idealized stratospheric jet, periodic in x1.
# Lengths in Mm, time in days; U0 is 62.66 m/s converted to Mm/day.
U0 = 62.66 * 86400.0 / 1e6
_R0 = 6.371
L = 1.77
EPS = (0.075, 0.4, 0.3)
SPEEDS = (0.1446 * U0, 0.205 * U0, 0.461 * U0)
WAVENUMBERS = (2.0 / _R0, 4.0 / _R0, 6.0 / _R0)
PERIOD = 20.0
JET_DOMAIN = ((0.0, 20.0), (-3.0, 3.0))

# The rotating potential has WELLS wells; its samples start in WELL_DOMAIN.
WELLS = 5
WELL_DOMAIN = ((-2.5, 2.5), (-2.5, 2.5))

# The most integrator steps a config may ask for: 2500 times the jet's 400
# default steps and 100 times the five-well's 10 000, so every run is bounded.
MAX_STEPS = 1_000_000


def _steps(span, step, integrator):
    """round(|span| / step) integrator steps, at least one for a nonzero span
    however short; InputError, before any step is taken, for a step that is
    not a finite number > 0, a non-finite span or more than MAX_STEPS steps."""
    if not (step > 0 and math.isfinite(step) and math.isfinite(span)):
        raise InputError(f"{integrator} steps need a finite step size > 0 and a finite span, "
                         f"got h={step} and span {span}", "dynamics")
    nsteps = max(round(abs(span) / step), 1) if span else 0
    if nsteps > MAX_STEPS:
        raise InputError(f"a span of {span} at step size h={step} takes more than "
                         f"{MAX_STEPS} {integrator} steps", "dynamics")
    return nsteps


@dataclass(frozen=True)
class BickleyConfig:
    """RK4 step size and lag tau of the jet's flow map."""

    step: float = 0.1
    tau: float = 40.0

    def __post_init__(self):
        _steps(self.tau, self.step, "RK4")


@dataclass(frozen=True)
class FiveWellConfig:
    """Overdamped diffusion in the rotating five-well potential; beta = inf is noise-free."""

    beta: float = 3.0
    h: float = 1e-3
    t_span: tuple = (0.0, 10.0)
    seed: int = 0

    def __post_init__(self):
        if not self.beta > 0:
            raise InputError("inverse temperature beta must be > 0", "dynamics")
        t0, t1 = self.t_span
        if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
            raise InputError(f"t_span must be finite with t1 > t0, got {self.t_span}", "dynamics")
        # from h = 2 (t1 - t0) on, zero steps would return the start points
        if not 0 < self.h <= t1 - t0:
            raise InputError(f"step size h must be in (0, t1 - t0], got {self.h}", "dynamics")
        _steps(t1 - t0, self.h, "Euler-Maruyama")


def _velocity(P, t):
    """Velocity field of the perturbed jet at points P (m, 2) and time t."""
    x, y = P[:, 0], P[:, 1]
    sech2 = 1.0 / np.cosh(y / L) ** 2
    tanh_y = np.tanh(y / L)
    pert = np.zeros_like(x)
    dpert_dx = np.zeros_like(x)
    for eps, c, kn in zip(EPS, SPEEDS, WAVENUMBERS):
        arg = kn * (x - c * t)
        pert += eps * np.cos(arg)
        dpert_dx -= eps * kn * np.sin(arg)
    u = U0 * sech2 + 2.0 * U0 * tanh_y * sech2 * pert
    v = U0 * L * sech2 * dpert_dx
    return np.stack([u, v], axis=1)


def bickley_velocity(points, t):
    """Velocity (u, v) of the jet at points (m, 2) or a single point, time t."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(P)) or not math.isfinite(t):
        raise InputError("non-finite state or time", "dynamics", "bickley_velocity")
    V = _velocity(P, float(t))
    return V[0] if np.asarray(points).ndim == 1 else V


def bickley_flow_map(x0, t0, tau, cfg=None):
    """Endpoint of RK4 advection over lag tau; x1 is wrapped to [0, period)."""
    cfg = cfg or BickleyConfig()
    X = np.atleast_2d(np.asarray(x0, dtype=float)).copy()
    nsteps = _steps(tau, cfg.step, "RK4")
    h = float(tau) / max(nsteps, 1)
    t = float(t0)
    for _ in range(nsteps):
        k1 = _velocity(X, t)
        k2 = _velocity(X + 0.5 * h * k1, t + 0.5 * h)
        k3 = _velocity(X + 0.5 * h * k2, t + 0.5 * h)
        k4 = _velocity(X + h * k3, t + h)
        X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    if not np.all(np.isfinite(X)):
        raise NumericalError("advection produced non-finite states", "dynamics", "bickley_flow_map")
    X[:, 0] = np.mod(X[:, 0], PERIOD)
    return X[0] if np.asarray(x0).ndim == 1 else X


def _grad(x1, x2, t, out, work):
    """Analytic gradient of the rotating five-well potential at the points with
    coordinates x1, x2 (m,), written into out (2, m); work is (3, m) scratch.
    Each operation is the one the stacked (m, 2) formula takes, so the bits
    are the same."""
    r2, rad, a = work
    g1, g2 = out
    np.multiply(x1, x1, out=r2)
    np.multiply(x2, x2, out=a)
    r2 += a
    np.sqrt(r2, out=a)
    np.subtract(a, 1.5, out=rad)
    rad -= 0.5 * np.sin(2.0 * np.pi * t)
    rad *= 20.0
    rad /= a                              # 20 (r - 1.5 - sin(2 pi t) / 2) / r
    np.arctan2(x2, x1, out=a)
    a *= WELLS
    a -= 0.5 * np.pi * t
    np.sin(a, out=a)
    a *= WELLS                            # s sin(s theta - pi t / 2), s = WELLS
    np.multiply(a, x2, out=g1)
    g1 /= r2
    a *= x1
    a /= r2
    np.multiply(rad, x2, out=g2)
    g2 -= a
    np.multiply(rad, x1, out=r2)
    g1 += r2


def five_well_grad(points, t):
    """Analytic gradient of the rotating multi-well potential."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.sqrt(np.sum(P * P, axis=1))
    if np.any(r < 1e-8):
        raise InputError(
            "gradient undefined at the origin", "dynamics", "five_well_grad"
        )
    G = np.empty((2, P.shape[0]))
    _grad(P[:, 0], P[:, 1], float(t), G, np.empty((3, P.shape[0])))
    G = G.T.copy()
    return G[0] if np.asarray(points).ndim == 1 else G


_EM_BLOCK = 500       # steps per noise block
_DIVERGE_LIMIT = 1e3


def em_ensemble(cfg, X0, seed=None):
    """Euler-Maruyama endpoints for an ensemble of start points (n, 2).

    Noise is drawn block-wise from a single seeded generator, so results are
    deterministic for a given seed. A block's clock starts at the block's
    start time, which advances by block * h; the endpoints' last bits depend
    on this clock. Two noise buffers of one block each are made once: a
    worker thread fills and scales block b + 1 in one while the caller steps
    block b from the other. The one generator draws the same blocks in the
    same order, and each step applies the same elementwise operations, so
    the endpoints are bitwise those of drawing each block in turn. The state
    is stepped as a contiguous (2, n) copy; X0 is never written. Any state
    that leaves |X| <= 1e3 or turns non-finite raises NumericalError.
    """
    X = np.atleast_2d(np.asarray(X0, dtype=float))
    n = X.shape[0]
    t0, t1 = cfg.t_span
    h = cfg.h
    nsteps = _steps(t1 - t0, h, "Euler-Maruyama")
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    amp = math.sqrt(2.0 * h / cfg.beta)
    blocks = [min(_EM_BLOCK, nsteps - done) for done in range(0, nsteps, _EM_BLOCK)]
    rows = min(_EM_BLOCK, nsteps)
    if amp > 0.0:
        require_memory(4 * rows * n, "Euler-Maruyama noise")
        buffers = np.empty((2, rows, n, 2))

    def draw(b):
        noise = buffers[b % 2, :blocks[b]]
        rng.standard_normal(out=noise)
        noise *= amp
        return noise

    Z = X.T.copy()
    x1, x2 = Z
    G, work = np.empty((2, n)), np.empty((3, n))
    peaks = np.empty(rows)
    t = t0
    # standard_normal releases the GIL, so the next block's draw overlaps
    # this block's steps
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(draw, 0) if amp > 0.0 and blocks else None
        for b, block in enumerate(blocks):
            if pending is not None:
                noise = pending.result()
                pending = pool.submit(draw, b + 1) if b + 1 < len(blocks) else None
            step_t = t
            for step in range(block):
                _grad(x1, x2, step_t, G, work)
                G *= h
                Z -= G
                if amp > 0.0:
                    Z += noise[step].T
                step_t += h
                peaks[step] = np.abs(Z, out=G).max()
            worst = peaks[:block].max()           # nan if any state was nan
            if not worst <= _DIVERGE_LIMIT:
                raise NumericalError(
                    f"trajectory diverged (|X| reached {worst:.2e})",
                    "dynamics",
                    "em_ensemble",
                )
            t += block * h
    return Z.T.copy()


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
    X = sample_uniform(JET_DOMAIN, n, seed)
    Y = bickley_flow_map(X, 0.0, cfg.tau, cfg)
    return TrajectoryPairs(X=X, Y=Y)


def five_well_pairs(n, cfg=None):
    """Uniform start points evolved through the SDE; CCA-ready pairs.

    cfg.seed draws the start points and cfg.seed + 1 the noise."""
    cfg = cfg or FiveWellConfig()
    X = sample_uniform(WELL_DOMAIN, n, cfg.seed)
    # keep starts away from the gradient singularity at the origin
    r = np.sqrt(np.sum(X * X, axis=1))
    bad = r < 1e-6
    X[bad] += 0.1
    Y = em_ensemble(cfg, X, seed=cfg.seed + 1)
    return TrajectoryPairs(X=X, Y=Y)
