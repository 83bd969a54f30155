"""Dense reference formulations of regularized linear CCA, the phi-side
eigenvalue route of an empirical operator, and a reference pivoted-Cholesky
loop.

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
