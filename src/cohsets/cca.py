"""Regularized kernel CCA on trajectory pairs, and `KernelExpansion`, which
evaluates every kernel function of the package at new points.

`kernel_cca` (whose spectral core CMD shares) sees each Gram only through a
pivoted-Cholesky factor G ~= L L^T (n x r) and whitens it by the Cholesky
factor of the r x r matrix L^T L + n eps I: no n x n Gram or
eigendecomposition, no SVD, no n x r whitened basis and no m x n evaluation
block. One result builder forms the eigenfunction pairs, fixes their signs
and keeps f and g as `KernelExpansion`s over the factors' pivots. Dense
reference formulations that cross-check the canonical correlations live in
the tests.
"""

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError
from .kernels import Kernel, gram_matrix, pivoted_cholesky
# unused here: perfbench/spans.py wraps cca.center_gram
from .kernels import center_gram  # noqa: F401
from .linalg import _unit_scale, require_count, require_matrix, require_points, serial_blas

_RHO_TOL = 1e-10
# points per kernel block in KernelExpansion, which bounds its memory by a few
# blocks of _EVAL_BLOCK x (number of anchors) doubles
_EVAL_BLOCK = 2048


@dataclass(frozen=True)
class KernelExpansion:
    """The function p -> k(p, anchors) @ coeffs - offset of an RKHS.

    coeffs is (r,) for one function or (r, k) for k of them, real or complex;
    offset is a scalar or one value per function. Calling it on m points
    gives (m,) or (m, k) values from kernel blocks of _EVAL_BLOCK points.
    """

    kernel: Kernel
    anchors: np.ndarray
    coeffs: np.ndarray
    offset: float | np.ndarray = 0.0

    def __post_init__(self):
        anchors = require_points(self.anchors, "expansion anchors", "cca")
        try:
            coeffs, offset = np.asarray(self.coeffs), np.asarray(self.offset)
        except ValueError as exc:  # numpy refuses a ragged nested list
            raise InputError(f"expansion coeffs and offset must be numeric: {exc}", "cca") from exc
        if (not {coeffs.dtype.kind, offset.dtype.kind} <= set("iufc") or coeffs.ndim not in (1, 2)
                or len(coeffs) != len(anchors) or offset.shape not in ((), coeffs.shape[1:])):
            raise InputError(f"{len(anchors)} anchors take numeric (r,) or (r, k) coeffs and a "
                             f"scalar or (k,) offset, got {coeffs.shape} and {offset.shape}", "cca")
        for name, value in (("anchors", anchors), ("coeffs", coeffs), ("offset", offset)):
            object.__setattr__(self, name, value)

    def __call__(self, points):
        points = require_points(points, "points", "cca", dim=self.anchors.shape[1])
        dtype = np.result_type(self.coeffs, self.offset, float)
        values = np.empty(points.shape[:1] + self.coeffs.shape[1:], dtype=dtype)
        for lo in range(0, points.shape[0], _EVAL_BLOCK):
            block = gram_matrix(self.kernel, points[lo:lo + _EVAL_BLOCK], self.anchors).entries
            values[lo:lo + _EVAL_BLOCK] = block @ self.coeffs
        values -= self.offset
        return values


@dataclass
class TrajectoryPairs:
    """Paired samples (x_i, y_i), the universal input to CCA."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        self.X = require_matrix(self.X, "X", "cca")
        self.Y = require_matrix(self.Y, "Y", "cca")
        if self.X.shape[0] != self.Y.shape[0]:
            raise InputError(f"X and Y must pair up: {self.X.shape[0]} vs {self.Y.shape[0]} "
                             "samples", "cca")
        require_count(self.X.shape[0], None, "the pair count", "cca", low=2)

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
    # the k eigenfunctions of each view, evaluable at new points of that view
    f: KernelExpansion = field(repr=False)
    g: KernelExpansion = field(repr=False)
    # per view ("x", "y"): rank and residual trace of the Gram factor
    factor: dict

    @property
    def k(self):
        return self.rho.shape[0]


def _check_spectral_range(rho2):
    """Every rho^2 lands in [0, 1), centered or not: every caller has eff = n eps > 0,
    so Q = L R^-1 has Q^T Q = I - eff R^-T R^-1 < I for any factor L."""
    if rho2.size and (rho2.min() < -_RHO_TOL or rho2.max() >= 1.0 + _RHO_TOL):
        raise NumericalError(
            f"canonical correlations escaped [0,1): min={rho2.min():.3e} "
            f"max={rho2.max():.3e}; the Gram factors are broken",
            "cca",
        )
    return np.clip(rho2, 0.0, None)


def _whiten(L, eff):
    """Upper Cholesky factor R of L^T L + eff I (r x r): L R^-1 whitens G = L L^T."""
    try:
        return scipy.linalg.cholesky(L.T @ L + eff * np.eye(L.shape[1]), check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError("L^T L + n eps I is not positive definite: eps is too small "
                             "for the scale of the Gram matrix", "cca") from exc


def _resolvent(L, R, eff, B):
    """(L L^T + eff I)^-1 B by Woodbury: (B - L (L^T L + eff I)^-1 L^T B) / eff."""
    return (B - L @ scipy.linalg.cho_solve((R, False), L.T @ B)) / eff


def _gram_cca_core(Lx, Ly, eff, k, variant):
    """Solve the Gram-side eigenproblem; returns (rho, V, F, W).

    Lx and Ly are n x r factors G = L L^T of the two Grams: pivoted Cholesky
    (kernel CCA) or U diag(sqrt(lam)) of a dense eigendecomposition (CMD).

    variant 'ii' (kernel CCA): Gx (Gx+eff)^-1 (Gy+eff)^-1 Gy v = rho^2 v.
    variant 'i' (CMD): (Gx+eff)^-1 (Gy+eff)^-1 Gy Gx v = rho^2 v.

    With R = chol(L^T L + eff I) per view, the push-through identity gives
    G (G+eff)^-1 = Q Q^T for Q = L R^-1. Both matrices are then similar to a
    symmetric PSD product of M = Qx^T Qy = Rx^-T Lx^T Ly Ry^-1 (rx x ry):
    variant ii to M M^T and variant i to M^T M, so one top-k symmetric
    eigensolve gives everything. Q itself is never formed. F are the
    coefficients of f = Gx F and W = (Gy+eff)^-1 Gx F / rho those of g = Gy W.
    """
    Rx, Ry = _whiten(Lx, eff), _whiten(Ly, eff)
    M = scipy.linalg.solve_triangular(Rx, Lx.T @ Ly, trans="T", check_finite=False)
    M = scipy.linalg.solve_triangular(Ry, M.T, trans="T", check_finite=False).T
    S = M @ M.T if variant == "ii" else M.T @ M
    r = S.shape[0]
    vals, vecs = scipy.linalg.eigh(S, overwrite_a=True, subset_by_index=[r - k, r - 1])
    vals, vecs = vals[::-1], vecs[:, ::-1]
    rho = np.sqrt(_check_spectral_range(vals))
    if variant == "ii":
        # V = Lx A lies in range(Lx), so (Gx+eff)^-1 V = Lx (Lx^T Lx + eff)^-1 A
        A = scipy.linalg.solve_triangular(Rx, vecs)
        V = Lx @ A
    else:
        V = _resolvent(Lx, Rx, eff, Ly @ scipy.linalg.solve_triangular(Ry, vecs))
    scale = _unit_scale(V)
    V /= scale
    F = Lx @ scipy.linalg.cho_solve((Rx, False), A / scale) if variant == "ii" else V
    W = _resolvent(Ly, Ry, eff, Lx @ (Lx.T @ F)) / np.where(rho > _RHO_TOL, rho, np.inf)
    return rho, V, F, W


class _FactorView:
    """One view's Gram matrix, seen only through its pivoted-Cholesky factor.

    Centering is exact in factor space: N0 G N0 = L L^T with L the factor
    minus its column means lbar; the core whitens L by the Cholesky factor of
    the r x r matrix L^T L + eff I. Dual coefficients C have training values
    L L^T C; with T = L^T C their value at a new point p is
    l(p)^T T - lbar^T T, where l(p) = L0[piv]^-1 k(points[piv], p) for the
    uncentered factor L0, so evaluation needs kernel values at the r pivots only.
    """

    def __init__(self, kern, points, min_rank, centered):
        L, piv, residual = pivoted_cholesky(kern, points, min_rank)
        self.L = L
        self.kernel = kern
        self.anchors = points[piv]
        self.pivot_block = L[piv]
        self.lbar = L.mean(axis=0) if centered else np.zeros(piv.shape[0])
        L -= self.lbar
        self.diag_max = float(np.max(np.einsum("ij,ij->i", L, L)))
        self.record = {"rank": piv.shape[0], "residual_trace": float(residual.sum())}

    def values(self, C):
        return self.L @ (self.L.T @ C)

    def evaluation(self, C):
        """The functions with dual coefficients C, as a KernelExpansion over the pivots."""
        T = self.L.T @ C
        coeffs = scipy.linalg.solve_triangular(self.pivot_block, T, trans="T", lower=True)
        return KernelExpansion(self.kernel, self.anchors, coeffs, self.lbar @ T)


def _result(rho, V, F, W, view_x, view_y):
    """Package a solution (rho, V, F, W) as a CCAResult.

    f and g are the functions with dual coefficients F and W in each view;
    each g column is flipped so that corr(f, g) >= 0 on the samples.
    """
    f_on_X = view_x.values(F)
    g_on_Y = view_y.values(W)
    fc = f_on_X - f_on_X.mean(axis=0)
    gc = g_on_Y - g_on_Y.mean(axis=0)
    for j in range(rho.shape[0]):
        if float(fc[:, j] @ gc[:, j]) < 0:
            W[:, j] = -W[:, j]
            g_on_Y[:, j] = -g_on_Y[:, j]
    return CCAResult(rho=rho, v_vectors=V, w_vectors=W, f_on_X=f_on_X, g_on_Y=g_on_Y,
                     f=view_x.evaluation(F), g=view_y.evaluation(W),
                     factor={"x": view_x.record, "y": view_y.record})


def _conditioning_warning(diag_max, eff):
    """diag_max is the largest diagonal entry of a (centered) training Gram."""
    if diag_max / eff > 1e15:
        warnings.warn(
            "Gram matrix severely ill-conditioned relative to regularization; "
            "duplicate or near-duplicate samples likely",
            RuntimeWarning,
        )


@serial_blas()
def kernel_cca(pairs, kern_x, kern_y, reg, k, centered=True):
    """Gram-side kernel CCA.

    Factors both Gram matrices by pivoted Cholesky (at least k pivots each),
    the two views on two threads, centers the factors (default), solves the
    regularized eigenproblem for the top-k canonical correlations, and
    packages eigenfunction pairs that evaluate through the factors' pivots.
    Each factor is built wholly on one thread, from single-thread GEMMs over
    panels of candidate pivots, so its bits depend neither on scheduling nor
    on the BLAS thread count. Time O(n r^2) and memory O(n r) for factor rank
    r; the ranks and residual traces are in `result.factor`.
    """
    if reg.eps <= 0:
        raise InputError("kernel CCA requires eps > 0", "cca", "kernel_cca")
    require_count(k, pairs.n, "k components", "cca", "kernel_cca")
    eff = reg.effective(pairs.n)
    # the two factors share no data; numpy releases the GIL in their GEMMs,
    # so the two overlap. x's result is taken first, so its errors come first.
    with ThreadPoolExecutor(max_workers=2) as pool:
        future_x = pool.submit(_FactorView, kern_x, pairs.X, k, centered)
        future_y = pool.submit(_FactorView, kern_y, pairs.Y, k, centered)
        view_x, view_y = future_x.result(), future_y.result()
    _conditioning_warning(view_x.diag_max, eff)
    _conditioning_warning(view_y.diag_max, eff)
    rho, V, F, W = _gram_cca_core(view_x.L, view_y.L, eff, k, "ii")
    return _result(rho, V, F, W, view_x, view_y)


def evaluate_eigenfunctions(result, which, points):
    """Evaluate all k eigenfunctions of view 'f' or 'g' at m points of that
    view: (m, k), from m r kernel values against the r factor pivots."""
    if which not in ("f", "g"):
        raise InputError("which must be 'f' or 'g'", "cca", "evaluate_eigenfunctions")
    return (result.f if which == "f" else result.g)(points)
