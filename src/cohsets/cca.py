"""Kernel CCA in four equivalent formulations.

The Gram-matrix route (`kernel_cca`, shared with CMD) is the production
solver. The 2n x 2n generalized eigenproblem, the explicit-feature route and
the whitened-SVD route are reference formulations; all four agree on the
canonical correlations, and the cross-checks live in the test suite.
"""

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError
from .kernels import Kernel, center_gram, gram_matrix
from .linalg import RegParam, eig_nonsymmetric, eigh_psd, fix_signs, inv_sqrt_psd

_RHO_TOL = 1e-10


@dataclass
class TrajectoryPairs:
    """Paired samples (x_i, y_i), the universal input to CCA."""

    X: np.ndarray
    Y: np.ndarray
    lag: float | None = None
    start_time: float | None = None

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        if self.X.shape[0] != self.Y.shape[0]:
            raise InputError(
                f"X and Y must pair up: {self.X.shape[0]} vs {self.Y.shape[0]} samples",
                "cca",
            )
        if self.X.shape[0] < 2:
            raise InputError("need at least 2 sample pairs", "cca")

    @property
    def n(self):
        return self.X.shape[0]


@dataclass
class CCAResult:
    """Canonical correlations and evaluable eigenfunction pairs (f, g)."""

    rho: np.ndarray
    v_vectors: np.ndarray
    w_vectors: np.ndarray
    f_on_X: np.ndarray
    g_on_Y: np.ndarray
    formulation: str
    eps: float
    # evaluation data: kernel formulations anchor on training points,
    # explicit formulations on (centered) feature coordinates
    kernel_x: Kernel | None = field(default=None, repr=False)
    kernel_y: Kernel | None = field(default=None, repr=False)
    anchors_x: np.ndarray | None = field(default=None, repr=False)
    anchors_y: np.ndarray | None = field(default=None, repr=False)
    f_coeffs: np.ndarray | None = field(default=None, repr=False)
    g_coeffs: np.ndarray | None = field(default=None, repr=False)
    mean_x: np.ndarray | None = field(default=None, repr=False)
    mean_y: np.ndarray | None = field(default=None, repr=False)
    centered: bool = True
    # column means / grand mean of the raw training Grams, needed to evaluate
    # centered eigenfunctions at off-sample points
    gram_stats_x: tuple | None = field(default=None, repr=False)
    gram_stats_y: tuple | None = field(default=None, repr=False)

    @property
    def k(self):
        return self.rho.shape[0]

    def save(self, outdir):
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        np.savetxt(outdir / "rho.csv", self.rho[None, :], delimiter=",")
        np.savetxt(outdir / "v.csv", self.v_vectors, delimiter=",")
        np.savetxt(outdir / "w.csv", self.w_vectors, delimiter=",")
        np.savetxt(outdir / "f_on_X.csv", self.f_on_X, delimiter=",")
        np.savetxt(outdir / "g_on_Y.csv", self.g_on_Y, delimiter=",")
        meta = {
            "formulation": self.formulation,
            "eps": self.eps,
            "n": int(self.f_on_X.shape[0]),
            "k": int(self.k),
            "kernel_x": self.kernel_x.spec_string() if self.kernel_x else None,
            "kernel_y": self.kernel_y.spec_string() if self.kernel_y else None,
        }
        (outdir / "metadata.json").write_text(json.dumps(meta, indent=2) + "\n")


def _check_spectral_range(rho2, centered, eps):
    """With centered PSD Grams and eps > 0 every rho^2 must land in [0, 1)."""
    if centered and eps > 0:
        if rho2.size and (rho2.min() < -_RHO_TOL or rho2.max() >= 1.0 + _RHO_TOL):
            raise NumericalError(
                f"canonical correlations escaped [0,1): min={rho2.min():.3e} "
                f"max={rho2.max():.3e}; Gram matrices are not PSD or centering is broken",
                "cca",
            )
    return np.clip(rho2, 0.0, None)


def _reg_inv(U, lam, eff, B):
    """(G + eff*I)^-1 B for G = U diag(lam) U^T, at O(n^2 k) for k columns of B."""
    return U @ ((U.T @ B) / (lam + eff)[:, None])


def _gram_cca_core(Gx, Gy, eff, k, variant, centered, eps):
    """Solve the Gram-side eigenproblem; returns (rho, V, F, W).

    variant 'ii' (the canonical route): Gx (Gx+eff)^-1 (Gy+eff)^-1 Gy v = rho^2 v.
    variant 'i': (Gx+eff)^-1 (Gy+eff)^-1 Gy Gx v = rho^2 v.

    Both matrices are similar to a symmetric PSD product. With G = U diag(lam) U^T
    per view and s = sqrt(lam / (lam + eff)), let M = diag(sx) Ux^T Uy diag(sy):
    variant ii is similar to M M^T and variant i to M^T M, so one eigendecomposition
    per view and one top-k symmetric eigensolve give everything. F are the
    coefficients of f = Gx F and W = (Gy+eff)^-1 Gx F / rho those of g = Gy W.
    """
    n = Gx.shape[0]
    if not 0 < k <= n:
        raise InputError(f"requested {k} components from {n} samples", "cca")
    if variant not in ("i", "ii"):
        raise InputError(f"unknown formulation variant {variant!r}", "cca")
    lx, Ux = eigh_psd(Gx)
    ly, Uy = eigh_psd(Gy)
    sx = np.sqrt(lx / (lx + eff))
    sy = np.sqrt(ly / (ly + eff))
    M = Ux.T @ Uy
    M *= sx[:, None]
    M *= sy[None, :]
    S = M @ M.T if variant == "ii" else M.T @ M
    del M
    vals, vecs = scipy.linalg.eigh(S, overwrite_a=True, subset_by_index=[n - k, n - 1])
    vals, vecs = vals[::-1], vecs[:, ::-1]
    if variant == "ii":
        V = Ux @ (sx[:, None] * vecs)
    else:
        V = _reg_inv(Ux, lx, eff, Uy @ (sy[:, None] * vecs))
    rho = np.sqrt(_check_spectral_range(vals, centered, eps))
    norms = np.linalg.norm(V, axis=0)
    norms[norms == 0] = 1.0
    V = fix_signs(V / norms)
    F = _reg_inv(Ux, lx, eff, V) if variant == "ii" else V
    W = _reg_inv(Uy, ly, eff, Gx @ F) / np.where(rho > _RHO_TOL, rho, np.inf)
    return rho, V, F, W


def _fix_g_signs(rho, w, g_on_Y, f_on_X):
    """Flip g columns so that corr(f_on_X, g_on_Y) >= 0 per component."""
    fc = f_on_X - f_on_X.mean(axis=0)
    gc = g_on_Y - g_on_Y.mean(axis=0)
    for j in range(rho.shape[0]):
        if float(fc[:, j] @ gc[:, j]) < 0:
            w[:, j] = -w[:, j]
            g_on_Y[:, j] = -g_on_Y[:, j]
    return w, g_on_Y


def _prepare_grams(pairs, kern_x, kern_y, centered):
    Gx = gram_matrix(kern_x, pairs.X)
    Gy = gram_matrix(kern_y, pairs.Y)
    stats_x = (Gx.entries.mean(axis=0), float(Gx.entries.mean())) if centered else None
    stats_y = (Gy.entries.mean(axis=0), float(Gy.entries.mean())) if centered else None
    if centered:
        Gx = center_gram(Gx)
        Gy = center_gram(Gy)
    return Gx.entries, Gy.entries, stats_x, stats_y


def _conditioning_warning(G, eff):
    lmax = float(np.max(np.abs(np.diag(G)))) if G.size else 0.0
    if eff > 0 and lmax / eff > 1e15:
        warnings.warn(
            "Gram matrix severely ill-conditioned relative to regularization; "
            "duplicate or near-duplicate samples likely",
            RuntimeWarning,
        )


def kernel_cca(pairs, kern_x, kern_y, reg, k, centered=True, variant="ii"):
    """Gram-side kernel CCA (the canonical route).

    Centers both Gram matrices (default), solves the regularized eigenproblem
    for the top-k canonical correlations, and packages evaluable eigenfunction
    pairs anchored on the training points.
    """
    if reg.eps <= 0:
        raise InputError("kernel CCA requires eps > 0", "cca", "kernel_cca")
    Gx, Gy, stats_x, stats_y = _prepare_grams(pairs, kern_x, kern_y, centered)
    eff = reg.effective(pairs.n)
    _conditioning_warning(Gx, eff)
    _conditioning_warning(Gy, eff)
    rho, V, f_coeffs, w = _gram_cca_core(Gx, Gy, eff, k, variant, centered, reg.eps)
    f_on_X = Gx @ f_coeffs
    g_on_Y = Gy @ w
    w, g_on_Y = _fix_g_signs(rho, w, g_on_Y, f_on_X)
    return CCAResult(
        rho=rho,
        v_vectors=V,
        w_vectors=w,
        f_on_X=f_on_X,
        g_on_Y=g_on_Y,
        formulation=f"gram-{variant}",
        eps=reg.eps,
        kernel_x=kern_x,
        kernel_y=kern_y,
        anchors_x=pairs.X,
        anchors_y=pairs.Y,
        f_coeffs=f_coeffs,
        g_coeffs=w,
        centered=centered,
        gram_stats_x=stats_x,
        gram_stats_y=stats_y,
    )


def kernel_cca_generalized(pairs, kern_x, kern_y, reg, k, centered=True):
    """Kernel CCA via the 2n x 2n generalized eigenproblem (no inversions)."""
    if reg.eps <= 0:
        raise InputError("kernel CCA requires eps > 0", "cca", "kernel_cca_generalized")
    Gx, Gy, stats_x, stats_y = _prepare_grams(pairs, kern_x, kern_y, centered)
    n = pairs.n
    eff = reg.effective(n)
    A = np.block([[np.zeros((n, n)), Gy], [Gx, np.zeros((n, n))]])
    B = np.block(
        [
            [Gx + eff * np.eye(n), np.zeros((n, n))],
            [np.zeros((n, n)), Gy + eff * np.eye(n)],
        ]
    )
    vals, vecs = scipy.linalg.eig(A, B)
    order = np.argsort(-vals.real)
    rho = vals.real[order][:k]
    _check_spectral_range(rho**2, centered, reg.eps)
    rho = np.clip(rho, 0.0, None)
    vw = vecs.real[:, order][:, :k]
    V, W = vw[:n].copy(), vw[n:].copy()
    for j in range(V.shape[1]):
        norm = np.linalg.norm(V[:, j])
        if norm == 0:
            continue
        sign = 1.0 if V[np.argmax(np.abs(V[:, j])), j] >= 0 else -1.0
        V[:, j] *= sign / norm
        W[:, j] *= sign / norm
    f_on_X = Gx @ V
    g_on_Y = Gy @ W
    W, g_on_Y = _fix_g_signs(rho, W, g_on_Y, f_on_X)
    return CCAResult(
        rho=rho,
        v_vectors=V,
        w_vectors=W,
        f_on_X=f_on_X,
        g_on_Y=g_on_Y,
        formulation="generalized",
        eps=reg.eps,
        kernel_x=kern_x,
        kernel_y=kern_y,
        anchors_x=pairs.X,
        anchors_y=pairs.Y,
        f_coeffs=V,
        g_coeffs=W,
        centered=centered,
        gram_stats_x=stats_x,
        gram_stats_y=stats_y,
    )


def _centered_covariances(features_x, features_y):
    Phi = np.atleast_2d(np.asarray(features_x, dtype=float))
    Psi = np.atleast_2d(np.asarray(features_y, dtype=float))
    if Phi.shape[1] != Psi.shape[1]:
        raise InputError("feature matrices must share the sample axis", "cca")
    n = Phi.shape[1]
    mx = Phi.mean(axis=1, keepdims=True)
    my = Psi.mean(axis=1, keepdims=True)
    Phic = Phi - mx
    Psic = Psi - my
    Cxx = (Phic @ Phic.T) / n
    Cyy = (Psic @ Psic.T) / n
    Cxy = (Phic @ Psic.T) / n
    return Phic, Psic, Cxx, Cyy, Cxy, mx.ravel(), my.ravel(), n


def explicit_cca(features_x, features_y, reg, k):
    """CCA with explicit feature maps (r_x x n and r_y x n matrices).

    Solves the covariance-side eigenproblem directly; eps is applied to the
    (1/n)-normalized covariances, which matches the Gram-side n*eps convention
    under the push-through identity.
    """
    Phic, Psic, Cxx, Cyy, Cxy, mx, my, n = _centered_covariances(features_x, features_y)
    rx, ry = Cxx.shape[0], Cyy.shape[0]
    if k > min(rx, ry):
        raise InputError(f"requested {k} components from rank <= {min(rx, ry)}", "cca")
    eps = reg.eps
    if eps == 0:
        for C, name in ((Cxx, "X"), (Cyy, "Y")):
            if np.linalg.matrix_rank(C) < C.shape[0]:
                raise NumericalError(
                    f"covariance of the {name} features is rank deficient with eps=0; "
                    "remove redundant basis functions or set eps > 0",
                    "cca",
                    "explicit_cca",
                )
    Rx = np.linalg.solve(Cxx + eps * np.eye(rx), np.eye(rx))
    Ry = np.linalg.solve(Cyy + eps * np.eye(ry), np.eye(ry))
    M = Rx @ Cxy @ Ry @ Cxy.T
    res = eig_nonsymmetric(M)
    rho2 = np.clip(res.eigenvalues[:k], 0.0, None)
    rho = np.sqrt(rho2)
    V = res.eigenvectors[:, :k]
    safe_rho = np.where(rho > _RHO_TOL, rho, np.inf)
    W = (Ry @ (Cxy.T @ V)) / safe_rho
    f_on_X = Phic.T @ V
    g_on_Y = Psic.T @ W
    W, g_on_Y = _fix_g_signs(rho, W, g_on_Y, f_on_X)
    return CCAResult(
        rho=rho,
        v_vectors=V,
        w_vectors=W,
        f_on_X=f_on_X,
        g_on_Y=g_on_Y,
        formulation="explicit",
        eps=eps,
        f_coeffs=V,
        g_coeffs=W,
        mean_x=mx,
        mean_y=my,
    )


def whitened_svd_cca(features_x, features_y, reg, k):
    """Explicit-feature CCA via SVD of the whitened cross-covariance."""
    Phic, Psic, Cxx, Cyy, Cxy, mx, my, n = _centered_covariances(features_x, features_y)
    if k > min(Cxx.shape[0], Cyy.shape[0]):
        raise InputError("requested rank exceeds the feature dimensions", "cca")
    reg_flat = RegParam(reg.eps, scale_by_n=False)
    Sx = inv_sqrt_psd(Cxx, reg_flat)
    Sy = inv_sqrt_psd(Cyy, reg_flat)
    Wm = Sy @ Cxy.T @ Sx
    U, s, Vt = np.linalg.svd(Wm, full_matrices=False)
    rho = s[:k]
    V = fix_signs(Sx @ Vt[:k].T)
    W = Sy @ U[:, :k]
    f_on_X = Phic.T @ V
    g_on_Y = Psic.T @ W
    W, g_on_Y = _fix_g_signs(rho, W, g_on_Y, f_on_X)
    return CCAResult(
        rho=rho,
        v_vectors=V,
        w_vectors=W,
        f_on_X=f_on_X,
        g_on_Y=g_on_Y,
        formulation="whitened-svd",
        eps=reg.eps,
        f_coeffs=V,
        g_coeffs=W,
        mean_x=mx,
        mean_y=my,
    )


def evaluate_eigenfunctions(result, which, points):
    """Evaluate all k eigenfunctions of one view at many points: (m, k) array."""
    if which not in ("f", "g"):
        raise InputError("which must be 'f' or 'g'", "cca", "evaluate_eigenfunctions")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    coeffs = result.f_coeffs if which == "f" else result.g_coeffs
    if result.anchors_x is not None:
        anchors = result.anchors_x if which == "f" else result.anchors_y
        kern = result.kernel_x if which == "f" else result.kernel_y
        G = gram_matrix(kern, points, anchors).entries
        if result.centered:
            colmean, grand = result.gram_stats_x if which == "f" else result.gram_stats_y
            G = G - G.mean(axis=1, keepdims=True) - colmean[None, :] + grand
        return G @ coeffs
    mean = result.mean_x if which == "f" else result.mean_y
    return (points - mean) @ coeffs


def evaluate_eigenfunction(result, which, index, point):
    """Evaluate eigenfunction `index` of view 'f' or 'g' at a new point.

    Kernel formulations take a state-space point and evaluate a kernel sum
    against the training anchors; explicit formulations take a raw feature
    vector of the corresponding view.
    """
    if not 0 <= index < result.k:
        raise InputError(
            f"component index {index} out of range [0, {result.k})",
            "cca",
            "evaluate_eigenfunction",
        )
    point = np.asarray(point, dtype=float).ravel()
    if which not in ("f", "g"):
        raise InputError("which must be 'f' or 'g'", "cca", "evaluate_eigenfunction")
    if result.anchors_x is not None:
        anchors = result.anchors_x if which == "f" else result.anchors_y
        expected = anchors.shape[1]
    else:
        expected = (result.f_coeffs if which == "f" else result.g_coeffs).shape[0]
    if point.shape[0] != expected:
        raise InputError("point dimension does not match this view", "cca")
    return float(evaluate_eigenfunctions(result, which, point[None, :])[0, index])
