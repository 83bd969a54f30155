"""Dense reference formulations of regularized linear CCA, and the phi-side
eigenvalue route of an empirical operator.

Each CCA oracle takes paired samples X, Y (n x d, one sample per row), the
regularization eps and k, and returns the top-k canonical correlations.
Gram-side formulations regularize by n eps, covariance-side ones (with 1/n
normalized covariances) by eps; by the push-through identity all three
equal the spectrum of kernel CCA with linear kernels on centered data.
Plain numpy/scipy, independent of the package under test.
"""

import numpy as np
import scipy.linalg


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


def operator_eigenvalues(B, G_xy, k):
    """Top-k eigenvalues of G_XY B (decreasing real part, positive imaginary
    part first), which share their nonzero spectrum with B G_XY."""
    vals = np.linalg.eigvals(G_xy @ B)
    return vals[np.lexsort((-vals.imag, -vals.real))][:k]
