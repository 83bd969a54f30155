"""Finite-rank empirical operators between RKHSs and their eigendecompositions,
and kernel PCA.

An operator is stored as a coefficient matrix B together with the anchor
points that implicitly define the input features (phi over X_data) and output
features (psi over Y_data). Eigenfunctions of the operator are the
eigenpairs of B times the anchors' cross Gram; non-reversible dynamics give
complex eigenpairs, which are returned as such. The Koopman estimate and
kernel PCA see their Grams only through the pivoted-Cholesky factor that
kernel CCA uses (of [X; Y], and centered, respectively) and solve an r x r
eigenproblem for factor rank r. Every eigenfunction evaluates at new points
as a `cca.KernelExpansion`.
"""

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .cca import KernelExpansion, _FactorView, _whiten
from .errors import InputError, NumericalError
from .kernels import Kernel, gram_matrix, pivoted_cholesky
from .linalg import (_unit_scale, eig_nonsymmetric, reg_solve, eigh_psd, require_count,
                     require_matrix, require_memory, require_points, serial_blas)

_EIG_TOL = 1e-12
# perron_frobenius_estimate refuses a G_XY with a 1-norm condition estimate above this
_COND_LIMIT = 1e12


@dataclass
class EmpiricalOperator:
    """Operator sum_ij B[i,j] psi(y_i) (x) phi(x_j) on the RKHS of one kernel."""

    B: np.ndarray
    X_data: np.ndarray
    Y_data: np.ndarray
    kernel: Kernel

    def __post_init__(self):
        self.B = require_matrix(self.B, "coefficient matrix B", "operators")
        self.X_data = require_points(self.X_data, "point set X_data", "operators")
        self.Y_data = require_points(self.Y_data, "point set Y_data", "operators")
        n = self.B.shape[0]
        if self.B.shape != (n, n):
            raise InputError("coefficient matrix B must be square", "operators")
        if self.X_data.shape[0] != n or self.Y_data.shape[0] != n:
            raise InputError("anchor data must match the size of B", "operators")

    def cross_gram(self):
        """G[i, j] = k(x_i, y_j), the mixed Gram matrix of the two anchor sets."""
        return gram_matrix(self.kernel, self.X_data, self.Y_data).entries


@dataclass
class Eigenfunction:
    """A function with dual coefficients over its training points and its
    eigenvalue, complex (and so are its coefficients) for a complex eigenpair.
    It evaluates at new points through its expansion."""

    eigenvalue: float | complex
    coefficients: np.ndarray
    expansion: KernelExpansion = field(repr=False)
    train_values: np.ndarray = field(repr=False)

    def __call__(self, points):
        return self.expansion(points)


def eigenfunctions_to_csv(funcs, path):
    """Write eigenfunctions as rows: index, eigenvalue, coefficient_1..n, each
    value as Python's repr of a float, or of a complex (a+bj) for a complex pair."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        n = funcs[0].coefficients.shape[0] if funcs else 0
        writer.writerow(["index", "eigenvalue"] + [f"coefficient_{i+1}" for i in range(n)])
        for idx, f in enumerate(funcs):
            writer.writerow([idx] + [repr(v) for v in np.r_[f.eigenvalue, f.coefficients].tolist()])


def _top_nonzero(M, k):
    """The top-k eigenpairs of M with nonzero eigenvalues, as real arrays when
    every picked eigenvalue is real and as complex arrays otherwise."""
    vals, vecs = eig_nonsymmetric(M)
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    idx = np.flatnonzero(np.abs(vals) > max(scale, 1.0) * _EIG_TOL)[:k]
    if idx.size < k:
        warnings.warn(
            f"only {idx.size} nonzero eigenvalues available (requested {k})",
            RuntimeWarning,
        )
    vals, vecs = vals[idx], vecs[:, idx]
    # LAPACK reports a real eigenvalue with imaginary part exactly 0
    if np.all(vals.imag == 0):
        return vals.real, vecs.real
    return vals, vecs


def op_eig_variant_i(op, k):
    """Eigenfunctions psi-side: the top-k nonzero eigenpairs (lambda, v) of
    B @ G_XY by real part, complex eigenfunctions for a complex eigenvalue."""
    require_count(k, op.B.shape[0], "k eigenfunctions", "operators", "op_eig_variant_i")
    vals, vecs = _top_nonzero(op.B @ op.cross_gram(), k)
    Gyy = gram_matrix(op.kernel, op.Y_data).entries
    return [Eigenfunction(lam.item(), c, KernelExpansion(op.kernel, op.Y_data, c), t)
            for lam, c, t in zip(vals, vecs.T, (Gyy @ vecs).T)]


def koopman_estimate(pairs, kern, reg):
    """Kernel Koopman estimate Phi (G_XX + n eps I)^-1 Psi^T (kernel EDMD) on the
    pivoted-Cholesky factor L of the Gram of Z = [X; Y]: B = L_P^-T K L_P^-1 over
    the r pivots P = Z[piv], L_P = L[piv], for K = (L_X^T L_X + n eps I)^-1 L_X^T L_Y
    with L's halves L_X, L_Y. k(P, P) = L_P L_P^T, so B k(P, P) is similar to K."""
    if reg.eps <= 0:
        raise InputError("the Koopman estimate requires eps > 0", "operators", "koopman_estimate")
    Y = require_points(pairs.Y, "point set Y", "operators", dim=pairs.X.shape[1])
    Z = np.vstack([pairs.X, Y])
    L, piv, _ = pivoted_cholesky(kern, Z)
    Lx, Ly, Lp = L[:pairs.n], L[pairs.n:], L[piv]
    K = scipy.linalg.cho_solve((_whiten(Lx, reg.effective(pairs.n)), False), Lx.T @ Ly)
    B = scipy.linalg.solve_triangular(Lp, K, trans="T", lower=True)
    B = scipy.linalg.solve_triangular(Lp, B.T, trans="T", lower=True).T
    return EmpiricalOperator(B=B, X_data=Z[piv], Y_data=Z[piv], kernel=kern)


def perron_frobenius_estimate(pairs, kern, reg):
    """Kernel Perron-Frobenius estimate Psi (G_XY^-1 (G_XX + n eps I)^-1 G_XY) Phi^T,
    with G_XY inverted by LAPACK's LU (scipy's lu_factor warns on a singular G_XY)."""
    # two Grams, G_XY's LU, the regularized solve and B
    require_memory(5 * pairs.n**2, "Perron-Frobenius estimate")
    Gxx = gram_matrix(kern, pairs.X).entries
    Gxy = gram_matrix(kern, pairs.X, pairs.Y).entries
    lu, ipiv, info = lapack.dgetrf(Gxy)
    rcond = lapack.dgecon(lu, np.linalg.norm(Gxy, 1), norm="1")[0] if info == 0 else 0.0
    if rcond < 1 / _COND_LIMIT:
        raise NumericalError(
            f"G_XY 1-norm condition estimate {1 / rcond if rcond > 0 else np.inf:.2e} exceeds "
            f"{_COND_LIMIT:.0e}: G_XY cannot be inverted (more samples than kernel features, "
            "or near-duplicate samples)",
            "operators",
            "perron_frobenius_estimate",
        )
    B = lapack.dgetrs(lu, ipiv, reg_solve(Gxx, reg, Gxy), overwrite_b=True)[0]
    return EmpiricalOperator(B=B, X_data=pairs.X, Y_data=pairs.Y, kernel=kern)


@serial_blas()
def kernel_pca(data, kern, k):
    """Top-k principal components of (1/n) x centered Gram matrix.

    Works on the Gram's centered pivoted-Cholesky factor L (n x r): with
    L^T L / n = V Lam V^T, the training values are L V and the coefficients
    L V / (n lambda), so the RKHS functions have unit norm; a component beyond
    the numerical rank gets zero coefficients. Each component's
    largest-magnitude training value is positive. BLAS runs on one thread
    (linalg.serial_blas), so no bit depends on the BLAS thread count.
    """
    data = require_points(data, "point set data", "operators")
    n = require_count(data.shape[0], None, "the sample count", "operators", "kernel_pca", low=2)
    require_count(k, n, "k components", "operators", "kernel_pca")
    # no minimum rank: an all-zero Gram (a linear kernel on zeros) has rank 0
    view = _FactorView(kern, data, 0, centered=True)
    L = view.L
    r = L.shape[1]
    # zero rows and columns past the rank give the components beyond it
    S = np.zeros((max(r, k), max(r, k)))
    S[:r, :r] = L.T @ L / n
    vals, vecs = eigh_psd(S)
    vals, vecs = vals[::-1][:k], vecs[:r, ::-1][:, :k]
    values = L @ vecs
    values *= np.sign(_unit_scale(values))
    keep = vals > _EIG_TOL
    values[:, ~keep] = 0.0
    coeffs = values / np.where(keep, n * vals, 1.0)
    # an all-zero Gram leaves no pivot to anchor on; its components are zero
    expansion = view.evaluation if r else lambda c: KernelExpansion(kern, data, c)
    return [Eigenfunction(lam.item(), c, expansion(c), t)
            for lam, c, t in zip(vals, coeffs.T, values.T)]
