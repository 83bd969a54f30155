"""Kernel CCA in four equivalent formulations.

The Gram-matrix route (`kernel_cca`, whose spectral core CMD shares) is the
production solver. It sees each Gram matrix only through a pivoted-Cholesky
factor G ~= L L^T (n x r), so it never forms an n x n Gram, an n x n
eigendecomposition or an m x n evaluation block. The 2n x 2n generalized
eigenproblem on dense Grams, the explicit-feature route and the whitened-SVD
route are reference formulations; all four agree on the canonical
correlations, and the cross-checks live in the test suite. Every formulation
hands its (rho, V, F, W) and one view object per side to one result builder,
which forms the eigenfunction pairs, fixes their signs and keeps what
evaluates them at new points; `evaluate_eigenfunctions` is the one evaluator
of the packaged results.
"""

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError
from .kernels import Kernel, center_gram, gram_matrix, pivoted_cholesky
from .linalg import RegParam, _normalize, eig_nonsymmetric, fix_signs
from .linalg import generalized_eig, inv_sqrt_psd, svd_trunc

_RHO_TOL = 1e-10
# points per kernel block in evaluate_eigenfunctions, which bounds its memory
# by a few blocks of _EVAL_BLOCK x (number of anchors) doubles
_EVAL_BLOCK = 2048


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
    # f = basis F with F = f_coeffs on the training samples: the (centered)
    # training Gram for the kernel formulations, the centered features for the
    # explicit ones; g likewise with w_vectors
    f_coeffs: np.ndarray | None = field(default=None, repr=False)
    # evaluation data per view: a point p maps to k(p, anchors) @ coeffs - offset,
    # or to p @ coeffs - offset when anchors is None (explicit feature vectors)
    kernel_x: Kernel | None = field(default=None, repr=False)
    kernel_y: Kernel | None = field(default=None, repr=False)
    anchors_x: np.ndarray | None = field(default=None, repr=False)
    anchors_y: np.ndarray | None = field(default=None, repr=False)
    coeffs_x: np.ndarray | None = field(default=None, repr=False)
    coeffs_y: np.ndarray | None = field(default=None, repr=False)
    offset_x: np.ndarray | None = field(default=None, repr=False)
    offset_y: np.ndarray | None = field(default=None, repr=False)
    # per view ("x", "y"): rank and residual trace of the Gram factor; None
    # for the formulations that use no factor
    factor: dict | None = None

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
            factor=self.factor,
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
    """(G + eff*I)^-1 B for G = U diag(lam) U^T with orthonormal U (n x r).

    When r < n, B's part outside range(U) sees G as zero, hence the
    complement term (B - U U^T B) / eff.
    """
    UtB = U.T @ B
    return U @ (UtB / (lam + eff)[:, None]) + (B - U @ UtB) / eff


def _gram_cca_core(x, y, eff, k, variant, centered, eps):
    """Solve the Gram-side eigenproblem; returns (rho, V, F, W).

    x and y are (lam, U) per view: G = U diag(lam) U^T with orthonormal U
    (n x r), from a Gram factor (kernel CCA) or a dense eigendecomposition
    (CMD).

    variant 'ii' (the canonical route): Gx (Gx+eff)^-1 (Gy+eff)^-1 Gy v = rho^2 v.
    variant 'i': (Gx+eff)^-1 (Gy+eff)^-1 Gy Gx v = rho^2 v.

    Both matrices are similar to a symmetric PSD product. With
    s = sqrt(lam / (lam + eff)) per view, let M = diag(sx) Ux^T Uy diag(sy)
    (rx x ry): variant ii is similar to M M^T and variant i to M^T M, so one
    top-k symmetric eigensolve gives everything. F are the coefficients of
    f = Gx F and W = (Gy+eff)^-1 Gx F / rho those of g = Gy W.
    """
    (lx, Ux), (ly, Uy) = x, y
    n = Ux.shape[0]
    if not 0 < k <= n:
        raise InputError(f"requested {k} components from {n} samples", "cca")
    if variant not in ("i", "ii"):
        raise InputError(f"unknown formulation variant {variant!r}", "cca")
    sx = np.sqrt(lx / (lx + eff))
    sy = np.sqrt(ly / (ly + eff))
    M = Ux.T @ Uy
    M *= sx[:, None]
    M *= sy[None, :]
    S = M @ M.T if variant == "ii" else M.T @ M
    del M
    r = S.shape[0]
    vals, vecs = scipy.linalg.eigh(S, overwrite_a=True, subset_by_index=[r - k, r - 1])
    vals, vecs = vals[::-1], vecs[:, ::-1]
    if variant == "ii":
        V = Ux @ (sx[:, None] * vecs)
    else:
        V = _reg_inv(Ux, lx, eff, Uy @ (sy[:, None] * vecs))
    rho = np.sqrt(_check_spectral_range(vals, centered, eps))
    V = fix_signs(_normalize(V))
    F = _reg_inv(Ux, lx, eff, V) if variant == "ii" else V
    GxF = Ux @ (lx[:, None] * (Ux.T @ F))
    W = _reg_inv(Uy, ly, eff, GxF) / np.where(rho > _RHO_TOL, rho, np.inf)
    return rho, V, F, W


class _FactorView:
    """One view's Gram matrix, seen only through its pivoted-Cholesky factor.

    Centering is exact in factor space: N0 G N0 = Lc Lc^T with Lc = L minus
    its column means lbar. The thin SVD Lc = U diag(s) Vt gives the core its
    (lam, U) = (s^2, U). Dual coefficients C have training values
    Lc Lc^T C = U diag(lam) U^T C; with T = Lc^T C their value at a new point
    p is l(p)^T T - lbar^T T, where l(p) = L[piv]^-1 k(points[piv], p), so
    evaluation needs kernel values at the r pivots only.
    """

    def __init__(self, kern, points, min_rank, centered):
        factor = pivoted_cholesky(kern, points, min_rank)
        L = factor.L
        self.kernel = kern
        self.anchors = points[factor.piv]
        self.pivot_block = L[factor.piv]
        self.lbar = L.mean(axis=0) if centered else np.zeros(factor.rank)
        L -= self.lbar
        self.diag_max = float(np.max(np.einsum("ij,ij->i", L, L)))
        self.U, self.s, self.Vt = scipy.linalg.svd(L, full_matrices=False, overwrite_a=True,
                                                   check_finite=False)
        self.lam = self.s * self.s
        self.record = {"rank": factor.rank, "residual_trace": float(factor.residual.sum())}

    def values(self, C):
        return self.U @ (self.lam[:, None] * (self.U.T @ C))

    def evaluation(self, C):
        """(anchors, coeffs, offset): f(p) = k(p, anchors) @ coeffs - offset."""
        T = self.Vt.T @ (self.s[:, None] * (self.U.T @ C))
        coeffs = scipy.linalg.solve_triangular(self.pivot_block, T, trans="T", lower=True)
        return self.anchors, coeffs, self.lbar @ T


class _GramView:
    """One view's dense training Gram (the generalized-eigenproblem oracle)."""

    def __init__(self, kern, points, centered):
        G = gram_matrix(kern, points)
        self.kernel = kern
        self.anchors = points
        # the centered kernel row of a point p is (k(p, X) - colmean) N0
        self.colmean = G.entries.mean(axis=0) if centered else None
        self.G = (center_gram(G) if centered else G).entries

    def values(self, C):
        return self.G @ C

    def evaluation(self, C):
        if self.colmean is None:
            return self.anchors, C, np.zeros(C.shape[1])
        C = C - C.mean(axis=0)
        return self.anchors, C, self.colmean @ C


class _FeatureView:
    """One view's explicit features (r x n), centered (the explicit oracles)."""

    kernel = None

    def __init__(self, features):
        self.mean = features.mean(axis=1)
        self.centered = features - self.mean[:, None]

    def values(self, C):
        return self.centered.T @ C

    def evaluation(self, C):
        return None, C, self.mean @ C


def _result(formulation, eps, rho, V, F, W, view_x, view_y, factor=None):
    """Package a solution of any formulation as a CCAResult.

    f and g are the functions with coefficients F and W in each view (dual
    coefficients for the kernel routes, feature weights for the explicit
    ones); each g column is flipped so that corr(f, g) >= 0 on the samples.
    """
    f_on_X = view_x.values(F)
    g_on_Y = view_y.values(W)
    fc = f_on_X - f_on_X.mean(axis=0)
    gc = g_on_Y - g_on_Y.mean(axis=0)
    for j in range(rho.shape[0]):
        if float(fc[:, j] @ gc[:, j]) < 0:
            W[:, j] = -W[:, j]
            g_on_Y[:, j] = -g_on_Y[:, j]
    anchors_x, coeffs_x, offset_x = view_x.evaluation(F)
    anchors_y, coeffs_y, offset_y = view_y.evaluation(W)
    return CCAResult(rho=rho, v_vectors=V, w_vectors=W, f_on_X=f_on_X, g_on_Y=g_on_Y,
                     formulation=formulation, eps=eps, f_coeffs=F,
                     kernel_x=view_x.kernel, kernel_y=view_y.kernel,
                     anchors_x=anchors_x, anchors_y=anchors_y, coeffs_x=coeffs_x,
                     coeffs_y=coeffs_y, offset_x=offset_x, offset_y=offset_y, factor=factor)


def _conditioning_warning(diag_max, eff):
    """diag_max is the largest diagonal entry of a (centered) training Gram."""
    if eff > 0 and diag_max / eff > 1e15:
        warnings.warn(
            "Gram matrix severely ill-conditioned relative to regularization; "
            "duplicate or near-duplicate samples likely",
            RuntimeWarning,
        )


def _require_eps(reg, caller):
    if reg.eps <= 0:
        raise InputError("kernel CCA requires eps > 0", "cca", caller)


def kernel_cca(pairs, kern_x, kern_y, reg, k, centered=True, variant="ii"):
    """Gram-side kernel CCA (the canonical route).

    Factors both Gram matrices by pivoted Cholesky (at least k pivots each),
    centers the factors (default), solves the regularized eigenproblem for the
    top-k canonical correlations, and packages eigenfunction pairs that
    evaluate through the factors' pivots. Time O(n r^2) and memory O(n r) for
    factor rank r; the ranks and residual traces are in `result.factor`.
    """
    _require_eps(reg, "kernel_cca")
    eff = reg.effective(pairs.n)
    view_x = _FactorView(kern_x, pairs.X, k, centered)
    view_y = _FactorView(kern_y, pairs.Y, k, centered)
    _conditioning_warning(view_x.diag_max, eff)
    _conditioning_warning(view_y.diag_max, eff)
    rho, V, F, W = _gram_cca_core((view_x.lam, view_x.U), (view_y.lam, view_y.U), eff, k,
                                  variant, centered, reg.eps)
    return _result(f"gram-{variant}", reg.eps, rho, V, F, W, view_x, view_y,
                   factor={"x": view_x.record, "y": view_y.record})


def kernel_cca_generalized(pairs, kern_x, kern_y, reg, k, centered=True):
    """Kernel CCA via the 2n x 2n generalized eigenproblem on dense Grams (no
    inversions, no factor): a reference formulation."""
    _require_eps(reg, "kernel_cca_generalized")
    view_x = _GramView(kern_x, pairs.X, centered)
    view_y = _GramView(kern_y, pairs.Y, centered)
    Gx, Gy = view_x.G, view_y.G
    n = pairs.n
    eff = reg.effective(n)
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
    return _result("generalized", reg.eps, rho, V, V, W / norms, view_x, view_y)


def _centered_covariances(features_x, features_y):
    Phi = np.atleast_2d(np.asarray(features_x, dtype=float))
    Psi = np.atleast_2d(np.asarray(features_y, dtype=float))
    if Phi.shape[1] != Psi.shape[1]:
        raise InputError("feature matrices must share the sample axis", "cca")
    n = Phi.shape[1]
    view_x, view_y = _FeatureView(Phi), _FeatureView(Psi)
    Phic, Psic = view_x.centered, view_y.centered
    Cxx = (Phic @ Phic.T) / n
    Cyy = (Psic @ Psic.T) / n
    Cxy = (Phic @ Psic.T) / n
    return view_x, view_y, Cxx, Cyy, Cxy


def explicit_cca(features_x, features_y, reg, k):
    """CCA with explicit feature maps (r_x x n and r_y x n matrices).

    Solves the covariance-side eigenproblem directly; eps is applied to the
    (1/n)-normalized covariances, which matches the Gram-side n*eps convention
    under the push-through identity.
    """
    view_x, view_y, Cxx, Cyy, Cxy = _centered_covariances(features_x, features_y)
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
    return _result("explicit", eps, rho, V, V, W, view_x, view_y)


def whitened_svd_cca(features_x, features_y, reg, k):
    """Explicit-feature CCA via SVD of the whitened cross-covariance."""
    view_x, view_y, Cxx, Cyy, Cxy = _centered_covariances(features_x, features_y)
    reg_flat = RegParam(reg.eps, scale_by_n=False)
    Sx = inv_sqrt_psd(Cxx, reg_flat)
    Sy = inv_sqrt_psd(Cyy, reg_flat)
    U, rho, Vr = svd_trunc(Sy @ Cxy.T @ Sx, k)
    V = fix_signs(Sx @ Vr)
    W = Sy @ U
    return _result("whitened-svd", reg.eps, rho, V, V, W, view_x, view_y)


def evaluate_eigenfunctions(result, which, points):
    """Evaluate all k eigenfunctions of view 'f' or 'g' at many points: (m, k).

    Kernel formulations take state-space points and sum kernel values against
    the result's anchors: the r factor pivots of `kernel_cca` (m r kernel
    entries) or the training points of the dense oracle. Explicit formulations
    take raw feature vectors of the corresponding view.
    """
    if which not in ("f", "g"):
        raise InputError("which must be 'f' or 'g'", "cca", "evaluate_eigenfunctions")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if which == "f":
        kern, anchors = result.kernel_x, result.anchors_x
        coeffs, offset = result.coeffs_x, result.offset_x
    else:
        kern, anchors = result.kernel_y, result.anchors_y
        coeffs, offset = result.coeffs_y, result.offset_y
    dim = coeffs.shape[0] if anchors is None else anchors.shape[1]
    if points.shape[1] != dim:
        raise InputError(
            f"point dimension {points.shape[1]} does not match this view ({dim})",
            "cca",
            "evaluate_eigenfunctions",
        )
    if anchors is None:
        return points @ coeffs - offset
    values = np.empty((points.shape[0], coeffs.shape[1]))
    for lo in range(0, points.shape[0], _EVAL_BLOCK):
        block = gram_matrix(kern, points[lo:lo + _EVAL_BLOCK], anchors).entries
        values[lo:lo + _EVAL_BLOCK] = block @ coeffs
    return values - offset


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
