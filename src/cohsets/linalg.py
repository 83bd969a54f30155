"""Regularized solves, eigenproblems and the memory guard.

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

# eig_nonsymmetric warns about an eigenvalue whose imaginary part exceeds this
# fraction of its modulus
_IMAG_REL_TOL = 1e-8
# eigh_psd rejects a matrix whose lowest eigenvalue is below -_NEG_TOL times
# max(largest eigenvalue, 1)
_NEG_TOL = 1e-8


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
    """Tikhonov regularization eps, applied as eps * n for n samples."""

    eps: float

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise InputError(
                f"regularization eps must be finite and >= 0, got {self.eps}", "linalg"
            )

    def effective(self, n):
        return self.eps * n


@dataclass
class SpectralResult:
    """Eigenvalues sorted nonincreasing (real parts) with aligned unit eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _unit_scale(V):
    """Column divisors d that make the columns of V / d unit vectors whose
    largest-magnitude entry is positive."""
    norms = np.linalg.norm(V, axis=0)
    norms[norms == 0] = 1.0
    top = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    return np.where(top < 0, -norms, norms)


def reg_solve(A, reg, B):
    """Solve (A + n eps I) X = B for symmetric PSD A (n x n) via Cholesky."""
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


def eig_nonsymmetric(M):
    """Dense eigendecomposition of a general square matrix.

    Eigenpairs with a relative imaginary part above _IMAG_REL_TOL raise a warning:
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
    if np.any(np.abs(vals.imag) > _IMAG_REL_TOL * np.maximum(np.abs(vals), 1e-300)):
        warnings.warn(
            "eigenvalues with significant imaginary parts encountered; "
            "input is not a PSD-product matrix",
            RuntimeWarning,
        )
    order = np.argsort(-vals.real)
    vecs = vecs.real[:, order]
    return SpectralResult(vals.real[order], vecs / _unit_scale(vecs))


def eigh_psd(A):
    """Symmetric eigendecomposition with a PSD sanity check (ascending order)."""
    A = np.asarray(A, dtype=float)
    vals, vecs = scipy.linalg.eigh(A)
    scale = max(float(vals[-1]), 0.0) if vals.size else 0.0
    if vals.size and vals[0] < -_NEG_TOL * max(scale, 1.0):
        raise NumericalError(
            f"matrix is not PSD: min eigenvalue {vals[0]:.3e}", "linalg", "eigh_psd"
        )
    return np.clip(vals, 0.0, None), vecs
