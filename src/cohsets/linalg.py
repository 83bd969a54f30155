"""Regularized solves, eigenproblems, and the memory and count guards.

Thin, contract-checked wrappers around scipy/numpy dense routines. All
inverses are Tikhonov-regularized; eigenvector phases are fixed so results
are reproducible across backends.
"""

import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError

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


def require_memory(floats, what):
    """Raise InputError, before allocating, when `floats` float64 values
    would not fit in the memory this process may still use."""
    need, available = 8 * floats, available_memory()
    if available is not None and need > available:
        raise InputError(
            f"{what} needs about {need / 1e9:.2f} GB but only {available / 1e9:.2f} GB "
            "is available; use fewer samples",
            "linalg",
            "require_memory",
        )


def require_count(k, n, what, module, operation):
    """Raise InputError unless the count k (of components, modes or clusters)
    is an int, not a bool, with 1 <= k <= n for n samples."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or not 1 <= k <= n:
        raise InputError(f"{what} must be an integer in [1, {n}] for {n} samples, got {k!r}",
                         module, operation)


@dataclass(frozen=True)
class RegParam:
    """Tikhonov regularization eps, applied as eps * n for n samples."""

    eps: float

    def __post_init__(self):
        if not (isinstance(self.eps, numbers.Real) and math.isfinite(self.eps)
                and self.eps >= 0):
            raise InputError(
                f"regularization eps must be a finite real number >= 0, got {self.eps!r}", "linalg"
            )

    def effective(self, n):
        return self.eps * n


def _unit_scale(V):
    """Column divisors d that make the columns of V / d unit vectors whose
    largest-magnitude entry is real and positive (np.sign(z) is z / |z| for
    complex z); a zero column gets divisor 1."""
    norms = np.linalg.norm(V, axis=0)
    top = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    return np.where(norms == 0, 1.0, np.sign(top) * norms)


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
    """Dense eigendecomposition (vals, vecs) of a general real square matrix.

    The eigenvalues are complex, as LAPACK computes them: a real eigenvalue has
    imaginary part exactly 0, and the eigenvectors are complex unless every
    eigenvalue is real. Pairs are ordered by decreasing real part, the positive
    imaginary part first within a conjugate pair; each eigenvector has unit
    norm and a real, positive largest-magnitude entry.
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise InputError("non-finite entries", "linalg", "eig_nonsymmetric")
    try:
        vals, vecs = scipy.linalg.eig(M)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}", "linalg", "eig_nonsymmetric") from exc
    order = np.lexsort((-vals.imag, -vals.real))
    vecs = vecs[:, order]
    return vals[order], vecs / _unit_scale(vecs)


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
