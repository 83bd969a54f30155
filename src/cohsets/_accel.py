"""Hot numeric kernels: Gram blocks, RK4 advection and Euler-Maruyama stepping.

Each kernel is one vectorized numpy body; ``kernels`` and ``dynamics`` call
them by these names. Advection and SDE stepping are elementwise over the
particles, so their endpoints do not depend on the BLAS thread count.
"""

import math

import numpy as np

# perfbench/child.py reads this to record the backend of every execution
NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# Gram assembly
# ---------------------------------------------------------------------------

def gaussian_gram(A, B, sigma):
    """Gram matrix of exp(-|a-b|^2 / 2 sigma^2) via the expanded-square trick.

    Works in place on the squared distances, so at most two m x n arrays (the
    result and the cross products) are alive at once.
    """
    sq = np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :]
    sq -= 2.0 * (A @ B.T)
    np.clip(sq, 0.0, None, out=sq)
    if A is B:
        np.fill_diagonal(sq, 0.0)
    np.negative(sq, out=sq)
    sq /= 2.0 * sigma * sigma
    return np.exp(sq, out=sq)


def haversine_gram(A, B, sigma, radius):
    """Gaussian Gram over great-circle distances; inputs are (lon, lat) degrees."""
    lon1 = np.radians(A[:, 0])[:, None]
    lat1 = np.radians(A[:, 1])[:, None]
    lon2 = np.radians(B[:, 0])[None, :]
    lat2 = np.radians(B[:, 1])[None, :]
    s = (
        np.sin((lat2 - lat1) / 2.0) ** 2
        + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2
    )
    d = 2.0 * radius * np.arcsin(np.sqrt(np.clip(s, 0.0, 1.0)))
    return np.exp(-(d * d) / (2.0 * sigma * sigma))


# ---------------------------------------------------------------------------
# Bickley jet
# ---------------------------------------------------------------------------

def bickley_velocity(P, t, U0, L, eps, c, kn):
    """Velocity field of the perturbed jet at points P (m,2) and time t."""
    x = P[:, 0]
    y = P[:, 1]
    sech2 = 1.0 / np.cosh(y / L) ** 2
    tanh_y = np.tanh(y / L)
    pert = np.zeros_like(x)
    dpert_dx = np.zeros_like(x)
    for j in range(3):
        arg = kn[j] * (x - c[j] * t)
        pert += eps[j] * np.cos(arg)
        dpert_dx -= eps[j] * kn[j] * np.sin(arg)
    u = U0 * sech2 + 2.0 * U0 * tanh_y * sech2 * pert
    v = U0 * L * sech2 * dpert_dx
    return np.stack([u, v], axis=1)


def bickley_integrate(X0, t0, tau, step, U0, L, eps, c, kn):
    """Fixed-step RK4 advection of all particles; returns endpoints (unwrapped)."""
    X = X0.copy()
    nsteps = int(round(abs(tau) / step))
    h = tau / nsteps if nsteps > 0 else 0.0
    t = t0
    for _ in range(nsteps):
        k1 = bickley_velocity(X, t, U0, L, eps, c, kn)
        k2 = bickley_velocity(X + 0.5 * h * k1, t + 0.5 * h, U0, L, eps, c, kn)
        k3 = bickley_velocity(X + 0.5 * h * k2, t + 0.5 * h, U0, L, eps, c, kn)
        k4 = bickley_velocity(X + h * k3, t + h, U0, L, eps, c, kn)
        X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return X


# ---------------------------------------------------------------------------
# Five-well SDE
# ---------------------------------------------------------------------------

def five_well_grad(P, t, s):
    """Analytic gradient of the rotating five-well potential at points P (m,2)."""
    x1 = P[:, 0]
    x2 = P[:, 1]
    r2 = x1 * x1 + x2 * x2
    r = np.sqrt(r2)
    theta = np.arctan2(x2, x1)
    ang = s * theta - 0.5 * np.pi * t
    radial = 20.0 * (r - 1.5 - 0.5 * np.sin(2.0 * np.pi * t)) / r
    sin_ang = np.sin(ang)
    g1 = sin_ang * s * x2 / r2 + radial * x1
    g2 = -sin_ang * s * x1 / r2 + radial * x2
    return np.stack([g1, g2], axis=1)


def em_advance(X, noise, t0, h, beta, s):
    """Euler-Maruyama over noise.shape[0] steps, in place. Returns max |X| seen."""
    amp = math.sqrt(2.0 * h / beta) if np.isfinite(beta) else 0.0
    t = t0
    worst = 0.0
    for step in range(noise.shape[0]):
        X -= h * five_well_grad(X, t, s)
        if amp > 0.0:
            X += amp * noise[step]
        t += h
        worst = max(worst, float(np.max(np.abs(X))))
    return worst
