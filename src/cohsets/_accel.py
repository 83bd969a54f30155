"""Hot numeric kernels with optional numba acceleration.

Every kernel here exists in two flavors: a pure-numpy implementation
(``*_numpy``) and, when numba is importable and not disabled, an ``@njit``
version compiled at import time.  The public names (``gaussian_gram``,
``haversine_gram``, ``bickley_integrate``, ``em_advance``) point at whichever
flavor is active.  Set ``COHSETS_NO_NUMBA=1`` to force the numpy path.

All jit kernels parallelize over independent rows/particles only, so results
are bitwise identical for any thread count.
"""

import math
import os

import numpy as np

NUMBA_ENABLED = False
if os.environ.get("COHSETS_NO_NUMBA", "").strip().lower() not in {"1", "true", "yes"}:
    try:
        from numba import njit, prange

        NUMBA_ENABLED = True
    except ImportError:  # numba is the optional `fast` extra
        pass


# ---------------------------------------------------------------------------
# Gram assembly
# ---------------------------------------------------------------------------

def gaussian_gram_numpy(A, B, sigma):
    """Gram matrix of exp(-|a-b|^2 / 2 sigma^2) via the expanded-square trick."""
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    np.clip(sq, 0.0, None, out=sq)
    if A is B:
        np.fill_diagonal(sq, 0.0)
    return np.exp(-sq / (2.0 * sigma * sigma))


def haversine_gram_numpy(A, B, sigma, radius):
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

def bickley_velocity_numpy(P, t, U0, L, eps, c, kn):
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


def bickley_integrate_numpy(X0, t0, tau, step, U0, L, eps, c, kn):
    """Fixed-step RK4 advection of all particles; returns endpoints (unwrapped)."""
    X = X0.copy()
    nsteps = int(round(abs(tau) / step))
    h = tau / nsteps if nsteps > 0 else 0.0
    t = t0
    for _ in range(nsteps):
        k1 = bickley_velocity_numpy(X, t, U0, L, eps, c, kn)
        k2 = bickley_velocity_numpy(X + 0.5 * h * k1, t + 0.5 * h, U0, L, eps, c, kn)
        k3 = bickley_velocity_numpy(X + 0.5 * h * k2, t + 0.5 * h, U0, L, eps, c, kn)
        k4 = bickley_velocity_numpy(X + h * k3, t + h, U0, L, eps, c, kn)
        X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return X


# ---------------------------------------------------------------------------
# Five-well SDE
# ---------------------------------------------------------------------------

def five_well_grad_numpy(P, t, s):
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


def em_advance_numpy(X, noise, t0, h, beta, s):
    """Euler-Maruyama over noise.shape[0] steps, in place. Returns max |X| seen."""
    amp = math.sqrt(2.0 * h / beta) if np.isfinite(beta) else 0.0
    t = t0
    worst = 0.0
    for step in range(noise.shape[0]):
        X -= h * five_well_grad_numpy(X, t, s)
        if amp > 0.0:
            X += amp * noise[step]
        t += h
        worst = max(worst, float(np.max(np.abs(X))))
    return worst


if NUMBA_ENABLED:

    @njit(cache=True, parallel=True)
    def _gaussian_gram_jit(A, B, sigma):
        n, m = A.shape[0], B.shape[0]
        d = A.shape[1]
        inv = 1.0 / (2.0 * sigma * sigma)
        G = np.empty((n, m))
        for i in prange(n):
            for j in range(m):
                sq = 0.0
                for q in range(d):
                    diff = A[i, q] - B[j, q]
                    sq += diff * diff
                G[i, j] = math.exp(-sq * inv)
        return G

    @njit(cache=True, parallel=True)
    def _haversine_gram_jit(A, B, sigma, radius):
        n, m = A.shape[0], B.shape[0]
        inv = 1.0 / (2.0 * sigma * sigma)
        G = np.empty((n, m))
        for i in prange(n):
            lon1 = math.radians(A[i, 0])
            lat1 = math.radians(A[i, 1])
            for j in range(m):
                lon2 = math.radians(B[j, 0])
                lat2 = math.radians(B[j, 1])
                s = (
                    math.sin((lat2 - lat1) / 2.0) ** 2
                    + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2.0) ** 2
                )
                if s < 0.0:
                    s = 0.0
                elif s > 1.0:
                    s = 1.0
                dist = 2.0 * radius * math.asin(math.sqrt(s))
                G[i, j] = math.exp(-dist * dist * inv)
        return G

    @njit(cache=True, inline="always")
    def _bickley_uv(x, y, t, U0, L, e1, e2, e3, c1, c2, c3, k1, k2, k3):
        sech2 = 1.0 / math.cosh(y / L) ** 2
        tanh_y = math.tanh(y / L)
        pert = (
            e1 * math.cos(k1 * (x - c1 * t))
            + e2 * math.cos(k2 * (x - c2 * t))
            + e3 * math.cos(k3 * (x - c3 * t))
        )
        dpert = -(
            e1 * k1 * math.sin(k1 * (x - c1 * t))
            + e2 * k2 * math.sin(k2 * (x - c2 * t))
            + e3 * k3 * math.sin(k3 * (x - c3 * t))
        )
        u = U0 * sech2 + 2.0 * U0 * tanh_y * sech2 * pert
        v = U0 * L * sech2 * dpert
        return u, v

    @njit(cache=True, parallel=True)
    def _bickley_integrate_jit(X0, t0, tau, step, U0, L, e1, e2, e3, c1, c2, c3, k1, k2, k3):
        n = X0.shape[0]
        nsteps = int(round(abs(tau) / step))
        h = tau / nsteps if nsteps > 0 else 0.0
        out = np.empty_like(X0)
        for i in prange(n):
            x = X0[i, 0]
            y = X0[i, 1]
            t = t0
            for _ in range(nsteps):
                u1, v1 = _bickley_uv(x, y, t, U0, L, e1, e2, e3, c1, c2, c3, k1, k2, k3)
                u2, v2 = _bickley_uv(
                    x + 0.5 * h * u1, y + 0.5 * h * v1, t + 0.5 * h,
                    U0, L, e1, e2, e3, c1, c2, c3, k1, k2, k3,
                )
                u3, v3 = _bickley_uv(
                    x + 0.5 * h * u2, y + 0.5 * h * v2, t + 0.5 * h,
                    U0, L, e1, e2, e3, c1, c2, c3, k1, k2, k3,
                )
                u4, v4 = _bickley_uv(
                    x + h * u3, y + h * v3, t + h,
                    U0, L, e1, e2, e3, c1, c2, c3, k1, k2, k3,
                )
                x += (h / 6.0) * (u1 + 2.0 * u2 + 2.0 * u3 + u4)
                y += (h / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
                t += h
            out[i, 0] = x
            out[i, 1] = y
        return out

    @njit(cache=True, parallel=True)
    def _em_advance_jit(X, noise, t0, h, beta, s, amp):
        nsteps = noise.shape[0]
        n = X.shape[0]
        worst = np.zeros(n)
        for i in prange(n):
            x1 = X[i, 0]
            x2 = X[i, 1]
            t = t0
            w = 0.0
            for step in range(nsteps):
                r2 = x1 * x1 + x2 * x2
                r = math.sqrt(r2)
                theta = math.atan2(x2, x1)
                ang = s * theta - 0.5 * math.pi * t
                radial = 20.0 * (r - 1.5 - 0.5 * math.sin(2.0 * math.pi * t)) / r
                sin_ang = math.sin(ang)
                g1 = sin_ang * s * x2 / r2 + radial * x1
                g2 = -sin_ang * s * x1 / r2 + radial * x2
                x1 += -h * g1 + amp * noise[step, i, 0]
                x2 += -h * g2 + amp * noise[step, i, 1]
                t += h
                a1 = abs(x1)
                a2 = abs(x2)
                if a1 > w:
                    w = a1
                if a2 > w:
                    w = a2
            X[i, 0] = x1
            X[i, 1] = x2
            worst[i] = w
        return np.max(worst)

    def gaussian_gram(A, B, sigma):
        return _gaussian_gram_jit(np.ascontiguousarray(A), np.ascontiguousarray(B), sigma)

    def haversine_gram(A, B, sigma, radius):
        return _haversine_gram_jit(np.ascontiguousarray(A), np.ascontiguousarray(B), sigma, radius)

    def bickley_integrate(X0, t0, tau, step, U0, L, eps, c, kn):
        return _bickley_integrate_jit(
            np.ascontiguousarray(X0), float(t0), float(tau), float(step),
            U0, L, eps[0], eps[1], eps[2], c[0], c[1], c[2], kn[0], kn[1], kn[2],
        )

    def em_advance(X, noise, t0, h, beta, s):
        amp = math.sqrt(2.0 * h / beta) if np.isfinite(beta) else 0.0
        return _em_advance_jit(X, noise, float(t0), float(h), float(beta), float(s), amp)

else:
    gaussian_gram = gaussian_gram_numpy
    haversine_gram = haversine_gram_numpy
    bickley_integrate = bickley_integrate_numpy
    em_advance = em_advance_numpy
