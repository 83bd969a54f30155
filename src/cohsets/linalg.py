"""Regularized solves, eigenproblems, SVD, and inverse square roots.

Thin, contract-checked wrappers around scipy/numpy dense routines. All
inverses are Tikhonov-regularized; eigenpair signs are fixed so results are
reproducible across backends.
"""

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError


def available_memory():
    """Bytes this process may still allocate: MemAvailable from /proc/meminfo,
    or the cgroup's memory.max minus memory.current if that is lower. None
    when neither can be read."""
    limits = []
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                limits.append(int(line.split()[1]) * 1024)
    except (OSError, ValueError, IndexError):
        pass
    try:
        cgroup = Path("/sys/fs/cgroup")
        limit = (cgroup / "memory.max").read_text().strip()
        if limit != "max":
            limits.append(int(limit) - int((cgroup / "memory.current").read_text()))
    except (OSError, ValueError):
        pass
    return min(limits) if limits else None


def require_memory(rows, cols, copies, what):
    """Raise InputError, before allocating, when `copies` float64 arrays of
    rows x cols would not fit in the memory this process may still use."""
    need = 8 * rows * cols * copies
    available = available_memory()
    if available is not None and need > available:
        raise InputError(
            f"{what} needs about {need / 1e9:.2f} GB ({copies} arrays of {rows} x {cols}) "
            f"but only {available / 1e9:.2f} GB is available; use fewer samples",
            "linalg",
            "require_memory",
        )


@dataclass(frozen=True)
class RegParam:
    """Tikhonov regularization: eps, optionally scaled by the sample count."""

    eps: float
    scale_by_n: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise InputError(
                f"regularization eps must be finite and >= 0, got {self.eps}", "linalg"
            )

    def effective(self, n):
        return self.eps * n if self.scale_by_n else self.eps


@dataclass
class SpectralResult:
    """Eigenvalues sorted nonincreasing (real parts) with aligned unit eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def fix_signs(V):
    """Flip column signs so the largest-magnitude component is positive."""
    V = np.array(V)
    for j in range(V.shape[1]):
        i = np.argmax(np.abs(V[:, j]))
        if V[i, j] < 0:
            V[:, j] = -V[:, j]
    return V


def _unit_scale(V):
    """Column divisors d that make the columns of V / d unit vectors whose
    largest-magnitude entry is positive."""
    norms = np.linalg.norm(V, axis=0)
    norms[norms == 0] = 1.0
    top = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    return np.where(top < 0, -norms, norms)


def _sorted_result(vals, vecs):
    order = np.argsort(-vals)
    vecs = vecs[:, order]
    return SpectralResult(vals[order], vecs / _unit_scale(vecs))


def reg_solve(A, reg, B):
    """Solve (A + eff*I) X = B for symmetric PSD A via Cholesky.

    eff is reg.eps * n when reg.scale_by_n, else reg.eps.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    eff = reg.effective(A.shape[0])
    M = A + eff * np.eye(A.shape[0])
    try:
        c, low = scipy.linalg.cho_factor(M)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(
            f"Cholesky factorization of regularized matrix failed (eps={reg.eps}): {exc}",
            "linalg",
            "reg_solve",
        ) from exc
    return scipy.linalg.cho_solve((c, low), B)


def eig_nonsymmetric(M, imag_rel_tol=1e-8):
    """Dense eigendecomposition of a general square matrix.

    Eigenpairs with a relative imaginary part above imag_rel_tol raise a warning:
    the matrices fed here are products of symmetric PSD factors, whose spectra
    are real, so large imaginary parts indicate broken preconditions.
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise InputError("non-finite entries", "linalg", "eig_nonsymmetric")
    try:
        vals, vecs = scipy.linalg.eig(M)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}", "linalg", "eig_nonsymmetric") from exc
    if np.any(np.abs(vals.imag) > imag_rel_tol * np.maximum(np.abs(vals), 1e-300)):
        warnings.warn(
            "eigenvalues with significant imaginary parts encountered; "
            "input is not a PSD-product matrix",
            RuntimeWarning,
        )
    return _sorted_result(vals.real, vecs.real)


def generalized_eig(A, B):
    """Solve A x = rho B x for symmetric positive definite B."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    try:
        scipy.linalg.cholesky(B)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(
            "right-hand matrix is not positive definite", "linalg", "generalized_eig"
        ) from exc
    vals, vecs = scipy.linalg.eig(A, B)
    return _sorted_result(vals.real, vecs.real)


def eigh_psd(A, neg_tol=1e-8):
    """Symmetric eigendecomposition with a PSD sanity check (ascending order)."""
    A = np.asarray(A, dtype=float)
    vals, vecs = scipy.linalg.eigh(A)
    scale = max(float(vals[-1]), 0.0) if vals.size else 0.0
    if vals.size and vals[0] < -neg_tol * max(scale, 1.0):
        raise NumericalError(
            f"matrix is not PSD: min eigenvalue {vals[0]:.3e}", "linalg", "eigh_psd"
        )
    return np.clip(vals, 0.0, None), vecs


def inv_sqrt_psd(A, reg):
    """(A + eff*I)^(-1/2) for symmetric PSD A, via eigendecomposition."""
    A = np.asarray(A, dtype=float)
    vals, vecs = eigh_psd(A)
    eff = reg.effective(A.shape[0])
    shifted = vals + eff
    if np.any(shifted <= 0):
        raise NumericalError(
            "singular matrix with eps=0; a positive regularization is required",
            "linalg",
            "inv_sqrt_psd",
        )
    return (vecs / np.sqrt(shifted)) @ vecs.T


def sqrt_psd(A):
    """Symmetric PSD square root via eigendecomposition."""
    vals, vecs = eigh_psd(A)
    return (vecs * np.sqrt(vals)) @ vecs.T


def svd_trunc(M, k):
    """Top-k singular triplets (U, sigma, V) with sigma nonincreasing."""
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise InputError("non-finite entries", "linalg", "svd_trunc")
    if k > min(M.shape):
        raise InputError(f"rank {k} exceeds min(p, q) = {min(M.shape)}", "linalg", "svd_trunc")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return U[:, :k], s[:k], Vt[:k].T
