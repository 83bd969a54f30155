"""Dense reference formulations of regularized linear CCA, of CMD, of the
kernel Koopman estimate and of the phi-side eigenvalue route of an empirical
operator, reference
pivoted-Cholesky and Euler-Maruyama loops, and the five-well potential and
superellipse pairs that only the tests use.

Each CCA oracle takes paired samples X, Y (n x d, one sample per row), the
regularization eps and k, and returns the top-k canonical correlations.
Gram-side formulations regularize by n eps, covariance-side ones (with 1/n
normalized covariances) by eps; by the push-through identity all three
equal the spectrum of kernel CCA with linear kernels on centered data.
Plain numpy/scipy, independent of the package under test (superellipse_pairs
returns the package's TrajectoryPairs, and cmd_one_thread takes the
package's CMD eigensolve as an argument).
"""

import math

import numpy as np
import scipy.linalg

from cohsets import TrajectoryPairs


def _covariances(X, Y):
    Xc, Yc = X - X.mean(axis=0), Y - Y.mean(axis=0)
    n = X.shape[0]
    return Xc.T @ Xc / n, Yc.T @ Yc / n, Xc.T @ Yc / n


def _center(G):
    """N0 G N0 with N0 = I - 11^T / n."""
    return G - G.mean(axis=1, keepdims=True) - G.mean(axis=0) + G.mean()


def generalized_rho(X, Y, eps, k):
    """[0 Gy; Gx 0] z = rho [Gx + n eps I, 0; 0, Gy + n eps I] z (2n x 2n),
    with centered linear Grams Gx, Gy."""
    n = X.shape[0]
    Gx, Gy = (_center(A @ A.T) for A in (X, Y))
    Z, R = np.zeros((n, n)), n * eps * np.eye(n)
    vals = scipy.linalg.eigvals(np.block([[Z, Gy], [Gx, Z]]),
                                np.block([[Gx + R, Z], [Z, Gy + R]]))
    return np.clip(np.sort(vals.real)[::-1][:k], 0.0, None)


def covariance_rho(X, Y, eps, k):
    """rho^2 are the eigenvalues of (Cxx + eps)^-1 Cxy (Cyy + eps)^-1 Cyx."""
    Cxx, Cyy, Cxy = _covariances(X, Y)
    M = np.linalg.solve(Cxx + eps * np.eye(len(Cxx)), Cxy)
    M = M @ np.linalg.solve(Cyy + eps * np.eye(len(Cyy)), Cxy.T)
    rho2 = np.sort(np.linalg.eigvals(M).real)[::-1][:k]
    return np.sqrt(np.clip(rho2, 0.0, None))


def whitened_svd_rho(X, Y, eps, k):
    """rho are the singular values of (Cxx + eps)^-1/2 Cxy (Cyy + eps)^-1/2."""
    Cxx, Cyy, Cxy = _covariances(X, Y)

    def inv_sqrt(C):
        vals, vecs = np.linalg.eigh(C + eps * np.eye(len(C)))
        return (vecs / np.sqrt(vals)) @ vecs.T

    return np.linalg.svd(inv_sqrt(Cxx) @ Cxy @ inv_sqrt(Cyy), compute_uv=False)[:k]


ORACLES = (generalized_rho, covariance_rho, whitened_svd_rho)


def cmd_reference(Z, skip, eps, k):
    """CMD of the sequence Z[:, skip:] from dense Grams Gx = X^T X, Gy = Y^T Y:
    the top-k eigenpairs of (Gx + n eps I)^-1 (Gy + n eps I)^-1 Gy Gx v = rho^2 v
    by a general eigensolve, v unit with its largest-magnitude entry positive,
    w = (Gy + n eps I)^-1 Gx v / rho, xi = X v and eta = Y w."""
    X, Y = Z[:, skip:-1], Z[:, skip + 1:]
    n = X.shape[1]
    Gx, Gy, R = X.T @ X, Y.T @ Y, n * eps * np.eye(n)
    vals, vecs = np.linalg.eig(np.linalg.solve(Gx + R, np.linalg.solve(Gy + R, Gy @ Gx)))
    top = np.argsort(-vals.real)[:k]
    rho, V = np.sqrt(vals.real[top]), vecs.real[:, top]
    V /= np.linalg.norm(V, axis=0) * np.sign(V[np.abs(V).argmax(axis=0), np.arange(k)])
    W = np.linalg.solve(Gy + R, Gx @ V) / rho
    return rho, V, W, X @ V, Y @ W


def cmd_one_thread(Z, skip, eps, k, rows, solve):
    """CMD of the sequence Z[:, skip:] in two passes over row blocks of `rows`
    rows, in order, on one thread: G = sum of Zb^T Zb, then
    solve(G_xx, G_yy, n eps, k) -> (rho, v, w, defined), then each block's
    rows of xi = X v and eta = Y w. Returns (rho, v, w, xi, eta)."""
    Z = Z[:, skip:]
    d, m = Z.shape
    n = m - 1
    G = np.zeros((m, m))
    for lo in range(0, d, rows):
        G += Z[lo:lo + rows].T @ Z[lo:lo + rows]
    rho, V, W, _ = solve(G[:n, :n], G[-n:, -n:], n * eps, k)
    xi = np.vstack([Z[lo:lo + rows, :n] @ V for lo in range(0, d, rows)])
    eta = np.vstack([Z[lo:lo + rows, -n:] @ W for lo in range(0, d, rows)])
    return rho, V, W, xi, eta


def operator_eigenvalues(B, G_xy, k):
    """Top-k eigenvalues of G_XY B (decreasing real part, positive imaginary
    part first), which share their nonzero spectrum with B G_XY."""
    vals = np.linalg.eigvals(G_xy @ B)
    return vals[np.lexsort((-vals.imag, -vals.real))][:k]


def koopman_reference(G_xx, G_yx, eps, k):
    """Top-k eigenvalues (decreasing real part, positive imaginary part first)
    of the dense kernel Koopman estimate (G_XX + n eps I)^-1 G_YX, where
    G_YX[i, j] = k(y_i, x_j), from the explicit n x n inverse."""
    n = G_xx.shape[0]
    B = scipy.linalg.cho_solve(scipy.linalg.cho_factor(G_xx + n * eps * np.eye(n)), np.eye(n))
    vals = np.linalg.eigvals(B @ G_yx)
    return vals[np.lexsort((-vals.imag, -vals.real))][:k]


def pivoted_cholesky_reference(gram, diag, A, min_rank, tol):
    """The greedy pivoted-Cholesky loop step for step as the package first
    shipped it: pivots in a Python list, every kernel column from a fresh
    gram(A, A[p:p+1]) call, the factor grown in one buffer by doubling.

    gram(A, B) gives the kernel block, diag the kernel diagonal at A's rows
    and tol the stopping fraction of the largest diagonal entry. Returns
    (L, piv, residual).
    """
    n = A.shape[0]
    res = diag.copy()
    scale = float(res.max())
    exhausted = n * np.finfo(float).eps * scale
    Lt = np.empty((0, n))
    piv = []
    while len(piv) < n:
        j = len(piv)
        p = int(np.argmax(res))
        if j >= min_rank:
            if res[p] <= tol * scale:
                break
        elif res[p] <= exhausted:
            raise ValueError(f"numerical rank {j}")
        if j == Lt.shape[0]:
            rows = min(n, max(2 * j, min_rank, 64))
            grown = np.empty((rows, n))
            grown[:j] = Lt
            Lt = grown
        col = gram(A, A[p:p + 1])[:, 0] - np.einsum("i,ij->j", Lt[:j, p], Lt[:j])
        pivot = np.sqrt(res[p])
        col /= pivot
        col[piv] = 0.0
        col[p] = pivot
        Lt[j] = col
        res -= col * col
        np.clip(res, 0.0, None, out=res)
        res[p] = 0.0
        piv.append(p)
    r = len(piv)
    return Lt[:r].copy().T, np.array(piv, dtype=np.intp), res


def _five_well_grad(P, t, s):
    """Gradient of the rotating five-well potential at P (m, 2), stacked."""
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


def em_ensemble_reference(cfg, X0, seed=None, block_steps=500):
    """The Euler-Maruyama loop as the package first shipped it: each noise
    block of block_steps drawn in turn on the calling thread, the state
    stepped as (n, 2) with a fresh stacked gradient per step. Returns the
    endpoints, or raises ValueError where the package diverges."""
    X = np.atleast_2d(np.asarray(X0, dtype=float)).copy()
    t0, t1 = cfg.t_span
    nsteps = int(round((t1 - t0) / cfg.h))
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    amp = math.sqrt(2.0 * cfg.h / cfg.beta)
    s = 5.0
    t = t0
    for done in range(0, nsteps, block_steps):
        block = min(block_steps, nsteps - done)
        if amp > 0.0:
            noise = rng.standard_normal((block, X.shape[0], 2))
        step_t = t
        worst = 0.0
        for step in range(block):
            X -= cfg.h * _five_well_grad(X, step_t, s)
            if amp > 0.0:
                X += amp * noise[step]
            step_t += cfg.h
            worst = max(worst, float(np.max(np.abs(X))))
        if worst > 1e3:
            raise ValueError(f"diverged (|X| reached {worst:.2e})")
        t += block * cfg.h
    return X


def kernel_pca_reference(G, k, tol=1e-12):
    """Dense kernel PCA as the package first shipped it: the top-k eigenpairs
    (lambda, u) of the centered Gram N0 G N0 / n from a full eigh, for the raw
    n x n Gram G. Returns (vals, coeffs, values): the unit-norm RKHS
    coefficients u / sqrt(n lambda), zero where lambda <= tol, and their
    training values N0 G N0 coeffs."""
    n = G.shape[0]
    Gc = _center(G)
    vals, vecs = scipy.linalg.eigh(Gc / n)
    vals, vecs = vals[::-1][:k], vecs[:, ::-1][:, :k]
    keep = vals > tol
    coeffs = np.where(keep, vecs / np.sqrt(n * np.where(keep, vals, 1.0)), 0.0)
    return vals, coeffs, Gc @ coeffs


def five_well_potential(points, t):
    """Rotating five-well potential value at points (m, 2)."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    x1, x2 = P[:, 0], P[:, 1]
    r = np.sqrt(x1 * x1 + x2 * x2)
    theta = np.arctan2(x2, x1)
    V = np.cos(5.0 * theta - 0.5 * np.pi * t) + 10.0 * (
        r - 1.5 - 0.5 * np.sin(2.0 * np.pi * t)
    ) ** 2
    return V[0] if np.asarray(points).ndim == 1 else V


def superellipse_pairs(n, seed, noise=0.05):
    """Two noisy views of a superellipse driven by a common angle.

    X traces |x|^4 + |y|^4 = 1; Y traces a rotated copy. Useful as a
    nonlinearly-related synthetic benchmark for CCA.
    """
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 2.0 * np.pi, n)

    def curve(angles):
        c, s = np.cos(angles), np.sin(angles)
        return np.stack([np.sign(c) * np.abs(c) ** 0.5, np.sign(s) * np.abs(s) ** 0.5], axis=1)

    X = curve(t) + noise * rng.standard_normal((n, 2))
    Y = curve(t + 0.25 * np.pi) + noise * rng.standard_normal((n, 2))
    return TrajectoryPairs(X=X, Y=Y)
