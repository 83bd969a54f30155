"""The hot kernels in ``_accel`` against scalar-loop references.

Each reference below is written element by element in plain Python and
shares no code with the vectorized numpy kernels it checks.
"""

import math
import tracemalloc

import numpy as np

from cohsets import _accel


def _gaussian_loop(A, B, sigma):
    return np.array([[math.exp(-sum((a - b) ** 2) / (2.0 * sigma * sigma)) for b in B]
                     for a in A])


def _haversine_loop(A, B, sigma, radius):
    G = np.empty((len(A), len(B)))
    for i, (lon1, lat1) in enumerate(np.radians(A)):
        for j, (lon2, lat2) in enumerate(np.radians(B)):
            s = (math.sin((lat2 - lat1) / 2.0) ** 2
                 + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2.0) ** 2)
            dist = 2.0 * radius * math.asin(math.sqrt(min(max(s, 0.0), 1.0)))
            G[i, j] = math.exp(-dist * dist / (2.0 * sigma * sigma))
    return G


def _bickley_loop(X0, t0, tau, step, U0, L, eps, c, kn):
    def uv(x, y, t):
        sech2 = 1.0 / math.cosh(y / L) ** 2
        pert = sum(e * math.cos(k * (x - cj * t)) for e, cj, k in zip(eps, c, kn))
        dpert = -sum(e * k * math.sin(k * (x - cj * t)) for e, cj, k in zip(eps, c, kn))
        return (U0 * sech2 + 2.0 * U0 * math.tanh(y / L) * sech2 * pert,
                U0 * L * sech2 * dpert)

    nsteps = int(round(abs(tau) / step))
    h = tau / nsteps
    out = np.empty_like(X0)
    for i, (x, y) in enumerate(X0):
        t = t0
        for _ in range(nsteps):
            u1, v1 = uv(x, y, t)
            u2, v2 = uv(x + 0.5 * h * u1, y + 0.5 * h * v1, t + 0.5 * h)
            u3, v3 = uv(x + 0.5 * h * u2, y + 0.5 * h * v2, t + 0.5 * h)
            u4, v4 = uv(x + h * u3, y + h * v3, t + h)
            x += (h / 6.0) * (u1 + 2.0 * u2 + 2.0 * u3 + u4)
            y += (h / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
            t += h
        out[i] = x, y
    return out


def _em_loop(X, noise, t0, h, beta, s):
    amp = math.sqrt(2.0 * h / beta)
    worst = 0.0
    for i, (x1, x2) in enumerate(X):
        t = t0
        for step in range(noise.shape[0]):
            r2 = x1 * x1 + x2 * x2
            r = math.sqrt(r2)
            ang = s * math.atan2(x2, x1) - 0.5 * math.pi * t
            radial = 20.0 * (r - 1.5 - 0.5 * math.sin(2.0 * math.pi * t)) / r
            g1 = math.sin(ang) * s * x2 / r2 + radial * x1
            g2 = -math.sin(ang) * s * x1 / r2 + radial * x2
            x1 += -h * g1 + amp * noise[step, i, 0]
            x2 += -h * g2 + amp * noise[step, i, 1]
            t += h
            worst = max(worst, abs(x1), abs(x2))
        X[i] = x1, x2
    return worst


def test_gaussian_gram_matches_scalar_reference():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((40, 3))
    B = rng.standard_normal((25, 3))
    G = _accel.gaussian_gram(A, B, 0.7)
    np.testing.assert_allclose(G, _gaussian_loop(A, B, 0.7), rtol=0, atol=1e-12)


def test_haversine_gram_matches_scalar_reference():
    rng = np.random.default_rng(1)
    A = np.stack([rng.uniform(-180, 180, 30), rng.uniform(-85, 85, 30)], axis=1)
    G = _accel.haversine_gram(A, A, 30.0, 6371.0)
    np.testing.assert_allclose(G, _haversine_loop(A, A, 30.0, 6371.0), rtol=0, atol=1e-12)


def test_bickley_integration_matches_scalar_reference():
    rng = np.random.default_rng(2)
    X = np.stack([rng.uniform(0, 20, 20), rng.uniform(-3, 3, 20)], axis=1)
    args = (
        0.0, 5.0, 0.1, 5.413824, 1.77,
        np.array([0.075, 0.4, 0.3]),
        np.array([0.7828389504, 1.10983392, 2.495772864]),
        np.array([0.31392246115209543, 0.6278449223041909, 0.9417673834562862]),
    )
    out = _accel.bickley_integrate(X, *args)
    assert np.abs(out - X).max() > 0.1  # the particles moved
    np.testing.assert_allclose(out, _bickley_loop(X, *args), rtol=0, atol=1e-12)


def test_em_advance_matches_scalar_reference():
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, (30, 2))
    X[np.hypot(X[:, 0], X[:, 1]) < 0.1] += 0.5
    noise = rng.standard_normal((40, 30, 2))  # one slab per step
    a, b = X.copy(), X.copy()
    ra = _accel.em_advance(a, noise, 0.0, 1e-3, 3.0, 5.0)
    rb = _em_loop(b, noise, 0.0, 1e-3, 3.0, 5.0)
    assert np.abs(a - X).max() > 0.01  # the particles moved
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)
    assert abs(ra - rb) < 1e-12


def test_gaussian_gram_peak_memory():
    """The result and one m x n temporary at most, also for a self-Gram."""
    rng = np.random.default_rng(4)
    A = rng.standard_normal((600, 3))
    B = rng.standard_normal((500, 3))
    for left, right in ((A, B), (A, A)):
        m, n = left.shape[0], right.shape[0]
        tracemalloc.start()
        try:
            _accel.gaussian_gram(left, right, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * m * n


def test_numba_backend_constant():
    """perfbench/child.py reads NUMBA_ENABLED to record each execution's
    backend; the kernels have one numpy body, so it must stay False."""
    assert _accel.NUMBA_ENABLED is False
