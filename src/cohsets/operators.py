"""Finite-rank empirical operators between RKHSs and their eigendecompositions,
and kernel PCA.

An operator is stored as a coefficient matrix B together with the anchor
points that implicitly define the input features (phi over X_data) and output
features (psi over Y_data). Eigenfunctions of the operator are obtained from
one auxiliary n x n matrix eigenproblem; non-reversible dynamics give complex
eigenpairs, which are returned as such. Kernel PCA sees its Gram only through
the centered pivoted-Cholesky factor that kernel CCA uses, and solves an
r x r eigenproblem for factor rank r. Every eigenfunction evaluates at new
points as a `cca.KernelExpansion`.
"""

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cca import KernelExpansion, _FactorView
from .errors import InputError, NumericalError
from .kernels import Kernel, _as_points, gram_matrix
from .linalg import (_unit_scale, eig_nonsymmetric, reg_solve, eigh_psd, require_count,
                     require_matrix, require_memory, serial_blas)

_EIG_TOL = 1e-12
# perron_frobenius_estimate refuses to invert a G_XY worse conditioned than this
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
        self.X_data = _as_points(self.X_data, "X_data")
        self.Y_data = _as_points(self.Y_data, "Y_data")
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
    """Kernel Koopman operator estimate Phi (G_XX + n eps I)^-1 Psi^T.

    The output features are anchored on X and the input features on Y, i.e.
    the phi/psi roles are swapped relative to the Perron-Frobenius estimate.
    """
    # the Gram, the identity, the regularized copy, its factor and B
    require_memory(5 * pairs.n**2, "Koopman estimate")
    Gxx = gram_matrix(kern, pairs.X).entries
    n = Gxx.shape[0]
    B = reg_solve(Gxx, reg, np.eye(n))
    return EmpiricalOperator(B=B, X_data=pairs.Y, Y_data=pairs.X, kernel=kern)


def perron_frobenius_estimate(pairs, kern, reg):
    """Kernel Perron-Frobenius estimate Psi (G_XY^-1 (G_XX + n eps I)^-1 G_XY) Phi^T."""
    # two Grams, the condition number's SVD, the regularized solve and B
    require_memory(6 * pairs.n**2, "Perron-Frobenius estimate")
    Gxx = gram_matrix(kern, pairs.X).entries
    Gxy = gram_matrix(kern, pairs.X, pairs.Y).entries
    cond = np.linalg.cond(Gxy)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise NumericalError(
            f"G_XY condition number {cond:.2e} exceeds {_COND_LIMIT:.0e}: G_XY cannot be "
            "inverted (more samples than kernel features, or near-duplicate samples)",
            "operators",
            "perron_frobenius_estimate",
        )
    inner = reg_solve(Gxx, reg, Gxy)
    B = np.linalg.solve(Gxy, inner)
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
    data = _as_points(data, "data")
    n = data.shape[0]
    if n < 2:
        raise InputError("kernel PCA needs at least 2 samples", "operators", "kernel_pca")
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
