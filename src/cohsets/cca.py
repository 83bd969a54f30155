"""Kernel CCA in four equivalent formulations.

The Gram-matrix route (`kernel_cca`, shared with CMD) is the production
solver. The 2n x 2n generalized eigenproblem, the explicit-feature route and
the whitened-SVD route are reference formulations; all four agree on the
canonical correlations, and the cross-checks live in the test suite. Every
formulation hands its (rho, V, F, W) to one result builder, which forms the
eigenfunction pairs and fixes their signs, and `evaluate_eigenfunctions` is
the one evaluator of the packaged results.
"""

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError
from .kernels import Kernel, center_cross_gram, center_gram, gram_matrix, gram_stats
from .linalg import RegParam, _normalize, eig_nonsymmetric, eigh_psd, fix_signs
from .linalg import generalized_eig, inv_sqrt_psd, svd_trunc

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
    # g is evaluated with w_vectors as its coefficients
    f_coeffs: np.ndarray | None = field(default=None, repr=False)
    mean_x: np.ndarray | None = field(default=None, repr=False)
    mean_y: np.ndarray | None = field(default=None, repr=False)
    # column means / grand mean of the raw training Grams, needed to evaluate
    # centered eigenfunctions at off-sample points; None when uncentered
    gram_stats_x: tuple | None = field(default=None, repr=False)
    gram_stats_y: tuple | None = field(default=None, repr=False)

    @property
    def k(self):
        return self.rho.shape[0]

    def save(self, outdir, run=None):
        """Write the arrays as CSV and metadata.json. The metadata holds this
        result's record, merged into `run` (a record of the whole run) if given."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        np.savetxt(outdir / "rho.csv", self.rho[None, :], delimiter=",")
        np.savetxt(outdir / "v.csv", self.v_vectors, delimiter=",")
        np.savetxt(outdir / "w.csv", self.w_vectors, delimiter=",")
        np.savetxt(outdir / "f_on_X.csv", self.f_on_X, delimiter=",")
        np.savetxt(outdir / "g_on_Y.csv", self.g_on_Y, delimiter=",")
        meta = dict(
            run or {},
            formulation=self.formulation,
            eps=self.eps,
            n=int(self.f_on_X.shape[0]),
            k=int(self.k),
            kernel_x=self.kernel_x.spec_string() if self.kernel_x else None,
            kernel_y=self.kernel_y.spec_string() if self.kernel_y else None,
        )
        (outdir / "metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


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
    V = fix_signs(_normalize(V))
    F = _reg_inv(Ux, lx, eff, V) if variant == "ii" else V
    W = _reg_inv(Uy, ly, eff, Gx @ F) / np.where(rho > _RHO_TOL, rho, np.inf)
    return rho, V, F, W


def _result(formulation, eps, rho, V, F, W, basis_x, basis_y, **evaluation):
    """Package a solution of any formulation as a CCAResult.

    f = basis_x F and g = basis_y W on the training samples, where the bases
    are the training Grams (kernel routes) or the centered features (explicit
    routes); each g column is flipped so that corr(f, g) >= 0.
    """
    f_on_X = basis_x @ F
    g_on_Y = basis_y @ W
    fc = f_on_X - f_on_X.mean(axis=0)
    gc = g_on_Y - g_on_Y.mean(axis=0)
    for j in range(rho.shape[0]):
        if float(fc[:, j] @ gc[:, j]) < 0:
            W[:, j] = -W[:, j]
            g_on_Y[:, j] = -g_on_Y[:, j]
    return CCAResult(rho=rho, v_vectors=V, w_vectors=W, f_on_X=f_on_X, g_on_Y=g_on_Y,
                     formulation=formulation, eps=eps, f_coeffs=F, **evaluation)


def _prepare_grams(pairs, kern_x, kern_y, reg, centered, caller):
    """Training Grams of both views (centered if asked), eff = n*eps, and the
    data that evaluates the resulting eigenfunctions at new points."""
    if reg.eps <= 0:
        raise InputError("kernel CCA requires eps > 0", "cca", caller)
    Gx = gram_matrix(kern_x, pairs.X).entries
    Gy = gram_matrix(kern_y, pairs.Y).entries
    evaluation = dict(kernel_x=kern_x, kernel_y=kern_y, anchors_x=pairs.X, anchors_y=pairs.Y)
    if centered:
        evaluation.update(gram_stats_x=gram_stats(Gx), gram_stats_y=gram_stats(Gy))
        Gx = center_gram(Gx).entries
        Gy = center_gram(Gy).entries
    return Gx, Gy, reg.effective(pairs.n), evaluation


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
    Gx, Gy, eff, evaluation = _prepare_grams(pairs, kern_x, kern_y, reg, centered, "kernel_cca")
    _conditioning_warning(Gx, eff)
    _conditioning_warning(Gy, eff)
    rho, V, F, W = _gram_cca_core(Gx, Gy, eff, k, variant, centered, reg.eps)
    return _result(f"gram-{variant}", reg.eps, rho, V, F, W, Gx, Gy, **evaluation)


def kernel_cca_generalized(pairs, kern_x, kern_y, reg, k, centered=True):
    """Kernel CCA via the 2n x 2n generalized eigenproblem (no inversions)."""
    Gx, Gy, eff, evaluation = _prepare_grams(
        pairs, kern_x, kern_y, reg, centered, "kernel_cca_generalized"
    )
    n = pairs.n
    A = np.block([[np.zeros((n, n)), Gy], [Gx, np.zeros((n, n))]])
    B = np.block(
        [
            [Gx + eff * np.eye(n), np.zeros((n, n))],
            [np.zeros((n, n)), Gy + eff * np.eye(n)],
        ]
    )
    res = generalized_eig(A, B)
    rho = res.eigenvalues[:k]
    _check_spectral_range(rho**2, centered, reg.eps)
    rho = np.clip(rho, 0.0, None)
    V, W = res.eigenvectors[:n, :k], res.eigenvectors[n:, :k]
    norms = np.linalg.norm(V, axis=0)
    norms[norms == 0] = 1.0
    V = fix_signs(V / norms)
    return _result("generalized", reg.eps, rho, V, V, W / norms, Gx, Gy, **evaluation)


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
    return Phic, Psic, Cxx, Cyy, Cxy, mx.ravel(), my.ravel()


def explicit_cca(features_x, features_y, reg, k):
    """CCA with explicit feature maps (r_x x n and r_y x n matrices).

    Solves the covariance-side eigenproblem directly; eps is applied to the
    (1/n)-normalized covariances, which matches the Gram-side n*eps convention
    under the push-through identity.
    """
    Phic, Psic, Cxx, Cyy, Cxy, mx, my = _centered_covariances(features_x, features_y)
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
    rho = np.sqrt(np.clip(res.eigenvalues[:k], 0.0, None))
    V = res.eigenvectors[:, :k]
    W = (Ry @ (Cxy.T @ V)) / np.where(rho > _RHO_TOL, rho, np.inf)
    return _result("explicit", eps, rho, V, V, W, Phic.T, Psic.T, mean_x=mx, mean_y=my)


def whitened_svd_cca(features_x, features_y, reg, k):
    """Explicit-feature CCA via SVD of the whitened cross-covariance."""
    Phic, Psic, Cxx, Cyy, Cxy, mx, my = _centered_covariances(features_x, features_y)
    reg_flat = RegParam(reg.eps, scale_by_n=False)
    Sx = inv_sqrt_psd(Cxx, reg_flat)
    Sy = inv_sqrt_psd(Cyy, reg_flat)
    U, rho, Vr = svd_trunc(Sy @ Cxy.T @ Sx, k)
    V = fix_signs(Sx @ Vr)
    W = Sy @ U
    return _result("whitened-svd", reg.eps, rho, V, V, W, Phic.T, Psic.T, mean_x=mx, mean_y=my)


def evaluate_eigenfunctions(result, which, points):
    """Evaluate all k eigenfunctions of view 'f' or 'g' at many points: (m, k).

    Kernel formulations take state-space points and evaluate kernel sums
    against the training anchors; explicit formulations take raw feature
    vectors of the corresponding view.
    """
    if which not in ("f", "g"):
        raise InputError("which must be 'f' or 'g'", "cca", "evaluate_eigenfunctions")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if which == "f":
        coeffs, anchors, kern = result.f_coeffs, result.anchors_x, result.kernel_x
        stats, mean = result.gram_stats_x, result.mean_x
    else:
        coeffs, anchors, kern = result.w_vectors, result.anchors_y, result.kernel_y
        stats, mean = result.gram_stats_y, result.mean_y
    dim = coeffs.shape[0] if anchors is None else anchors.shape[1]
    if points.shape[1] != dim:
        raise InputError(
            f"point dimension {points.shape[1]} does not match this view ({dim})",
            "cca",
            "evaluate_eigenfunctions",
        )
    if anchors is None:
        return (points - mean) @ coeffs
    G = gram_matrix(kern, points, anchors).entries
    if stats is not None:
        G = center_cross_gram(G, stats)
    return G @ coeffs


def evaluate_eigenfunction(result, which, index, point):
    """Evaluate eigenfunction `index` of view 'f' or 'g' at one point; see
    `evaluate_eigenfunctions` for what a point is."""
    if not 0 <= index < result.k:
        raise InputError(
            f"component index {index} out of range [0, {result.k})",
            "cca",
            "evaluate_eigenfunction",
        )
    return float(evaluate_eigenfunctions(result, which, np.ravel(point))[0, index])
