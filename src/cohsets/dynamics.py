"""Benchmark data generators: perturbed Bickley jet and the rotating
five-well gradient SDE, plus small synthetic helpers.

Each simulator is one vectorized numpy loop that reads its configuration
object: RK4 advection in `bickley_flow_map`, Euler-Maruyama stepping in
`em_ensemble`. Both step a contiguous (2, n) copy of the state in place and
are elementwise over the particles, so their endpoints do not depend on the
BLAS thread count. `em_ensemble` draws its next noise block on one worker
thread while it steps the current one; the same generator fills the same
blocks in the same order, so its endpoints do not depend on scheduling
either. The unchecked field bodies `_velocity` and `_grad` sit beside their
checked public twins and write into caller buffers.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cca import TrajectoryPairs
from .errors import InputError, NumericalError
from .linalg import require_count, require_memory, require_points, require_real

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
    span = require_real(span, f"the span of the {integrator} steps", "dynamics")
    step = require_real(step, f"the step size of the {integrator} steps", "dynamics")
    if not step > 0:
        raise InputError(f"{integrator} steps need a step size > 0, got h={step}", "dynamics")
    # capped, so that round() never sees the inf of a huge span over a tiny step
    nsteps = max(round(min(abs(span) / step, MAX_STEPS + 1)), 1) if span else 0
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
        require_count(self.seed, None, "seed", "dynamics", low=0)
        if not (isinstance(self.beta, float) and self.beta == math.inf  # noise-free
                or require_real(self.beta, "inverse temperature beta", "dynamics") > 0):
            raise InputError("inverse temperature beta must be > 0", "dynamics")
        try:
            t0, t1 = (require_real(t, "each t_span bound", "dynamics") for t in self.t_span)
        except (TypeError, ValueError) as exc:  # not a pair
            raise InputError(f"t_span must be a pair (t0, t1), got {self.t_span!r}",
                             "dynamics") from exc
        if not t1 > t0:
            raise InputError(f"t_span must have t1 > t0, got {self.t_span}", "dynamics")
        # from h = 2 (t1 - t0) on, zero steps would return the start points
        if not 0 < require_real(self.h, "step size h", "dynamics") <= t1 - t0:
            raise InputError(f"step size h must be in (0, t1 - t0], got {self.h}", "dynamics")
        _steps(t1 - t0, self.h, "Euler-Maruyama")


def _velocity(x1, x2, t, out, work):
    """Velocity (u, v) of the jet at the points with coordinates x1, x2 (m,)
    and time t, written into out (2, m); work is (5, m) scratch.

    Three transcendentals per point: tanh of x2 / L, and cos and sin of
    theta = k1 x1. The wavenumbers are k1, 2 k1 and 3 k1 (WAVENUMBERS), so the
    multiple-angle formulas give cos m theta and sin m theta as polynomials in
    c = cos theta and s = sin theta: cos 2 theta = 2c^2 - 1,
    cos 3 theta = 4c^3 - 3c, sin 2 theta = 2sc and sin 3 theta = s (4c^2 - 1).
    Each wave's phase phi_m = k_m c_m t is one scalar per call, and
    cos(m theta - phi_m) = cos m theta cos phi_m + sin m theta sin phi_m, so
    both rows are P(c) + s Q(c) with scalar coefficients. sech^2 = 1 - tanh^2.
    """
    # row 0 is 2 U0 sum_m eps_m cos(m theta - phi_m), row 1 its x1-derivative
    # times U0 L; each is sum_m a_m cos m theta + b_m sin m theta
    rows = ([], [])
    for eps, kn, speed in zip(EPS, WAVENUMBERS, SPEEDS):
        phi = kn * (speed * t)
        cos_phi, sin_phi = math.cos(phi), math.sin(phi)
        rows[0].append((2.0 * U0 * eps * cos_phi, 2.0 * U0 * eps * sin_phi))
        rows[1].append((U0 * L * eps * kn * sin_phi, -U0 * L * eps * kn * cos_phi))
    c, s, th, sech2, sq = work
    np.multiply(x1, WAVENUMBERS[0], out=s)
    np.cos(s, out=c)
    np.sin(s, out=s)
    for row, ((a1, b1), (a2, b2), (a3, b3)) in zip(out, rows):
        # P(c) = ((4 a3 c + 2 a2) c + a1 - 3 a3) c - a2
        np.multiply(c, 4.0 * a3, out=row)
        row += 2.0 * a2
        row *= c
        row += a1 - 3.0 * a3
        row *= c
        row -= a2
        # Q(c) = (4 b3 c + 2 b2) c + b1 - b3
        np.multiply(c, 4.0 * b3, out=sq)
        sq += 2.0 * b2
        sq *= c
        sq += b1 - b3
        sq *= s
        row += sq
    np.divide(x2, L, out=th)
    np.tanh(th, out=th)
    np.multiply(th, th, out=sech2)
    np.subtract(1.0, sech2, out=sech2)
    out[0] *= th                          # u = sech^2 (U0 + 2 U0 tanh pert)
    out[0] += U0
    out *= sech2                          # v = sech^2 U0 L dpert/dx1


def _jet_clock(t, span=0.0):
    """t as a float, or InputError unless it is a finite real number and every
    wave phase k_m c_m s is finite for |s| up to twice max(|t|, |t + span|):
    math.cos has no value at an overflowed phase; the 2 covers clock rounding."""
    t = require_real(t, "jet time t", "dynamics")
    top = 2.0 * max(abs(t), abs(t + span))
    if not all(math.isfinite(kn * (speed * top)) for kn, speed in zip(WAVENUMBERS, SPEEDS)):
        raise InputError(f"jet time {t} over a span of {span} overflows the wave phases",
                         "dynamics")
    return t


def bickley_velocity(points, t):
    """Velocity (u, v) of the jet at points (m, 2) or a single point, time t."""
    P = require_points(points, "jet states", "dynamics", dim=2)
    t = _jet_clock(t)
    V = np.empty((2, P.shape[0]))
    _velocity(P[:, 0], P[:, 1], t, V, np.empty((5, P.shape[0])))
    return V[:, 0] if np.ndim(points) == 1 else V.T.copy()


def bickley_flow_map(x0, t0, tau, cfg=None):
    """Endpoint of RK4 advection over lag tau; x1 is wrapped to [0, period).

    The state is stepped as a contiguous (2, n) copy, and each stage writes
    into buffers made once; x0 is never written.
    """
    cfg = cfg or BickleyConfig()
    nsteps = _steps(tau, cfg.step, "RK4")
    h = float(tau) / max(nsteps, 1)
    P = require_points(x0, "jet states", "dynamics", dim=2)
    t = _jet_clock(t0, float(tau))
    # the (2, n) state, stage, k and slope, the scratch and the endpoints
    require_memory(15 * P.shape[0], "RK4 advection")
    Z = P.T.copy()
    stage, k, slope = np.empty((3,) + Z.shape)
    work = np.empty((5, Z.shape[1]))
    for _ in range(nsteps):
        _velocity(Z[0], Z[1], t, slope, work)                       # k1
        np.multiply(slope, 0.5 * h, out=stage)
        stage += Z
        _velocity(stage[0], stage[1], t + 0.5 * h, k, work)         # k2
        np.multiply(k, 0.5 * h, out=stage)
        stage += Z
        k *= 2.0
        slope += k
        _velocity(stage[0], stage[1], t + 0.5 * h, k, work)         # k3
        np.multiply(k, h, out=stage)
        stage += Z
        k *= 2.0
        slope += k
        _velocity(stage[0], stage[1], t + h, k, work)               # k4
        slope += k
        slope *= h / 6.0
        Z += slope
        t += h
    if not np.all(np.isfinite(Z)):
        raise NumericalError("advection produced non-finite states", "dynamics", "bickley_flow_map")
    np.mod(Z[0], PERIOD, out=Z[0])
    return Z[:, 0].copy() if np.ndim(x0) == 1 else Z.T.copy()


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
    P = require_points(points, "five-well states", "dynamics", dim=2)
    t = require_real(t, "time t", "dynamics")
    require_real(2.0 * np.pi * t, "the potential's phase 2 pi t", "dynamics")
    if np.any(np.einsum("ij,ij->i", P, P) < 1e-16):
        raise InputError("gradient undefined at the origin", "dynamics", "five_well_grad")
    G = np.empty((2, P.shape[0]))
    _grad(P[:, 0], P[:, 1], t, G, np.empty((3, P.shape[0])))
    G = G.T.copy()
    return G[0] if np.ndim(points) == 1 else G


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
    X = require_points(X0, "five-well states", "dynamics", dim=2)
    n = X.shape[0]
    t0, t1 = cfg.t_span
    h = cfg.h
    nsteps = _steps(t1 - t0, h, "Euler-Maruyama")
    rng = np.random.default_rng(
        cfg.seed if seed is None else require_count(seed, None, "seed", "dynamics", low=0))
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
    """n seeded uniform samples from a product of intervals (lo, hi), one
    per coordinate."""
    n = require_count(n, None, "n samples", "dynamics", "sample_uniform")
    rng = np.random.default_rng(require_count(seed, None, "seed", "dynamics", low=0))
    lo, hi = require_points(domain, "sample domain", "dynamics", dim=2).T
    # the draws, their scaled copy and the samples
    require_memory(3 * n * lo.shape[0], "uniform samples")
    return lo + (hi - lo) * rng.random((n, lo.shape[0]))


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
