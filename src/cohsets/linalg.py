"""Regularized solves, eigenproblems, and the memory and count guards.

Thin, contract-checked wrappers around scipy/numpy dense routines. All
inverses are Tikhonov-regularized; eigenvector phases are fixed so results
are reproducible across backends. `serial_blas` keeps every OpenBLAS in the
process on one thread: the package supplies its own threads instead.
"""

import contextlib
import ctypes
import functools
import math
import numbers
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError

# the first (get, set) pair an OpenBLAS build exports: upstream's names, then
# those of the scipy-openblas builds that scipy (LP64) and numpy (ILP64) ship
_OPENBLAS_THREAD_CALLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)

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


@functools.cache
def _openblas_thread_calls():
    """(get, set) thread-count functions of every OpenBLAS mapped into this
    process, found in /proc/self/maps on first use (not at import)."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return ()
    paths = sorted({fields[5] for fields in (line.split(maxsplit=5) for line in maps)
                    if len(fields) == 6 and "openblas" in Path(fields[5]).name.lower()})
    calls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                calls.append((get, set_))
                break
    return tuple(calls)


_serial_lock = threading.Lock()
_serial_depth = 0
_serial_saved = ()


@contextlib.contextmanager
def serial_blas():
    """Run the body with every OpenBLAS in the process on one thread, and
    restore each one's thread count when the outermost open scope exits.

    numpy and scipy each load their own OpenBLAS, whose idle workers
    spin-wait after every call; interleaving the two let both spinners and
    the caller compete for the cores. BLAS on one thread also gives the same
    bits for any OPENBLAS_NUM_THREADS. Nested and concurrent scopes share one
    count of open scopes. Without OpenBLAS this does nothing.
    """
    global _serial_depth, _serial_saved
    with _serial_lock:
        if _serial_depth == 0:
            calls = _openblas_thread_calls()
            _serial_saved = tuple(get() for get, _ in calls)
            for _, set_ in calls:
                set_(1)
        _serial_depth += 1
    try:
        yield
    finally:
        with _serial_lock:
            _serial_depth -= 1
            if _serial_depth == 0:
                for (_, set_), count in zip(_openblas_thread_calls(), _serial_saved):
                    set_(count)


def require_matrix(A, what, module):
    """A as a float array, or InputError unless it is a 2-D array of
    integers or floats; a ragged nested list is not one."""
    try:
        A = np.asarray(A)
    except ValueError as exc:  # numpy refuses a ragged nested list
        raise InputError(f"{what} must be a 2-D numeric array: {exc}", module) from exc
    if A.ndim != 2 or A.dtype.kind not in "iuf":
        raise InputError(f"{what} must be a 2-D numeric array, got {A.ndim}-D of dtype "
                         f"{A.dtype}", module)
    return A.astype(float, copy=False)


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
