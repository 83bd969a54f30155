"""Positive-definite kernels, Gram matrices and their pivoted-Cholesky factors,
and empirical centering; `cca.KernelExpansion` evaluates RKHS functions."""

import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import require_matrix, require_memory, serial_blas

# Each variant's parameters in a kernel string: (key, Kernel field, default)
_PARAMS = {
    "gaussian": (("sigma", "sigma", 1.0),),
    "linear": (),
    "poly": (("c", "offset", 1.0), ("p", "degree", 2)),
    "haversine": (("sigma", "sigma", 30.0), ("radius", "radius", 6371.0)),
}

# A pivoted-Cholesky factor stops once its largest residual diagonal entry is
# at most this fraction of the largest kernel diagonal entry. On the jet at
# n=2000 (eps=1e-7) it keeps rho within 2.4e-10 of the dense route and the
# dense eigen-equation residual at 1.9e-9; at 1e-10 those are 2.6e-8 and 1.9e-7.
FACTOR_TOL = 1e-12

# Candidate pivots per panel of pivoted_cholesky, each panel one GEMM against
# the factor so far. Jet factors (sigma=1, seed 0; medians on a 2-vCPU host)
# for a panel of 8, 16, 32, 64: x at n=2000 0.27, 0.26, 0.26, 0.31 s; y at
# n=2000 0.34, 0.30, 0.29, 0.36 s; y at n=10 000 2.07, 2.12, 2.58, 3.15 s.
# The y view is the slower of the two that kernel_cca builds at once.
PANEL = 16

# Held across each factor buffer's growth (memory check, allocation, copy) and
# the final copy out of it, so factors built on concurrent threads never check
# memory against one another's stale growth and never hold two buffer
# transients at once.
_GROWTH_LOCK = threading.Lock()


@dataclass(frozen=True)
class Kernel:
    """A kernel specification.

    variant: one of 'gaussian', 'linear', 'poly', 'haversine'.
    sigma: bandwidth for gaussian/haversine (haversine: kilometers).
    offset/degree: polynomial kernel (c + <x,y>)^p parameters.
    radius: sphere radius in kilometers for the haversine variant.
    """

    variant: str
    sigma: float = 1.0
    offset: float = 1.0
    degree: int = 2
    radius: float = 6371.0

    def __post_init__(self):
        if self.variant not in _PARAMS:
            raise InputError(f"unknown kernel {self.variant!r}", "kernels")
        for name in ("sigma", "offset", "degree", "radius"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise InputError(f"kernel field {name} must be a finite real number, "
                                 f"got {value!r}", "kernels")
        if self.variant in ("gaussian", "haversine") and not self.sigma > 0:
            raise InputError("bandwidth sigma must be > 0", "kernels")
        if self.variant == "poly":
            if self.offset < 0:
                raise InputError("polynomial offset c must be >= 0", "kernels")
            if int(self.degree) != self.degree or self.degree < 1:
                raise InputError("polynomial degree p must be an integer >= 1", "kernels")
            # a parsed 'p=3' arrives as 3.0; the spec string writes 'p=3'
            object.__setattr__(self, "degree", int(self.degree))
        if self.variant == "haversine" and not self.radius > 0:
            raise InputError("sphere radius must be > 0", "kernels")

    def spec_string(self):
        params = ",".join(f"{key}={getattr(self, field)}" for key, field, _ in _PARAMS[self.variant])
        return f"{self.variant}:{params}" if params else self.variant


def parse_kernel(spec):
    """Parse a CLI/config kernel string, e.g. 'gaussian:sigma=1.0' or 'linear'."""
    name, _, rest = spec.strip().partition(":")
    name = name.strip().lower()
    params = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise InputError(f"malformed kernel parameter {item!r}", "kernels")
            try:
                number = float(value)
            except ValueError:
                number = math.nan  # reported below, with inf and nan
            if not math.isfinite(number):
                raise InputError(
                    f"kernel parameter {item!r} must be a finite number", "kernels"
                )
            params[key.strip()] = number
    fields = {field: params.pop(key, default) for key, field, default in _PARAMS.get(name, ())}
    kern = Kernel(name, **fields)  # refuses an unknown name
    if params:
        raise InputError(f"unknown kernel parameters {sorted(params)} for {name!r}", "kernels")
    return kern


@dataclass
class GramMatrix:
    """An n x n (or rectangular) matrix of pairwise kernel evaluations."""

    entries: np.ndarray

    @property
    def n(self):
        return self.entries.shape[0]


def _as_points(A, name):
    """A as a float array of points, one per row, or InputError unless it is
    a numeric array of at most two dimensions; a 1-D array is one point."""
    try:
        A = np.atleast_2d(A)
    except ValueError as exc:  # numpy refuses a ragged nested list
        raise InputError(f"point set {name} must be a numeric array: {exc}", "kernels") from exc
    A = require_matrix(A, f"point set {name}", "kernels")
    if A.size == 0:
        raise InputError(f"empty point set {name}", "kernels", "gram_matrix")
    if not np.all(np.isfinite(A)):
        raise InputError(f"non-finite coordinates in {name}", "kernels")
    return A


def _check_lonlat(A):
    lon, lat = A[:, 0], A[:, 1]
    if np.any(np.abs(lon) > 180.0) or np.any(np.abs(lat) > 90.0):
        raise InputError(
            "haversine points must be (lon, lat) degrees in [-180,180]x[-90,90]",
            "kernels",
        )


def _gaussian_gram(k, A, B, a_norms=None):
    """Gram matrix of exp(-|a-b|^2 / 2 sigma^2) via the expanded-square trick.

    a_norms, if given, are the squared row norms of A. Works in place on the
    squared distances, so at most two m x n arrays (the result and the cross
    products) are alive at once.
    """
    if a_norms is None:
        a_norms = np.sum(A * A, axis=1)
    sq = a_norms[:, None] + np.sum(B * B, axis=1)[None, :]
    sq -= 2.0 * (A @ B.T)
    np.clip(sq, 0.0, None, out=sq)
    if A is B:
        np.fill_diagonal(sq, 0.0)
    np.negative(sq, out=sq)
    sq /= 2.0 * k.sigma * k.sigma
    return np.exp(sq, out=sq)


def _haversine_gram(k, A, B):
    """Gaussian Gram over great-circle distances; inputs are (lon, lat) degrees."""
    _check_lonlat(A)
    _check_lonlat(B)
    lon1 = np.radians(A[:, 0])[:, None]
    lat1 = np.radians(A[:, 1])[:, None]
    lon2 = np.radians(B[:, 0])[None, :]
    lat2 = np.radians(B[:, 1])[None, :]
    s = (
        np.sin((lat2 - lat1) / 2.0) ** 2
        + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2
    )
    d = 2.0 * k.radius * np.arcsin(np.sqrt(np.clip(s, 0.0, 1.0)))
    return np.exp(-(d * d) / (2.0 * k.sigma * k.sigma))


def _gram_block(k, A, B, a_norms=None):
    if k.variant == "gaussian":
        return _gaussian_gram(k, A, B, a_norms)
    if k.variant == "linear":
        return A @ B.T
    if k.variant == "poly":
        return (k.offset + A @ B.T) ** k.degree
    return _haversine_gram(k, A, B)


def gram_matrix(k, A, B=None):
    """Gram matrix G[i, j] = k(A[i], B[j]); B defaults to A."""
    A = _as_points(A, "A")
    B = A if B is None else _as_points(B, "B")
    if A.shape[1] != B.shape[1]:
        raise InputError(
            f"point dimension mismatch: {A.shape[1]} vs {B.shape[1]}",
            "kernels",
            "gram_matrix",
        )
    # the result and its temporaries: the Gaussian's cross products, or the
    # haversine's three broadcast trigonometric arrays
    copies = 4 if k.variant == "haversine" else 2
    require_memory(copies * A.shape[0] * B.shape[0], "Gram matrix")
    return GramMatrix(_gram_block(k, A, B))


def kernel_diagonal(k, A):
    """k(a, a) for every row a of A."""
    if k.variant in ("gaussian", "haversine"):
        return np.ones(A.shape[0])
    sq = np.einsum("ij,ij->i", A, A)
    return sq if k.variant == "linear" else (k.offset + sq) ** k.degree


@serial_blas()
def pivoted_cholesky(k, A, min_rank=1):
    """Pivoted-Cholesky factor (L, piv, residual) of the Gram matrix G of the
    points A, from r kernel columns: O(n r^2) time and O(n r) memory, never
    the n x n Gram. G ~= L L^T with L n x r, and L[piv] is lower triangular
    with a positive diagonal, so L = G[:, piv] L[piv]^-T; residual is the
    diagonal of G - L L^T.

    Each step pivots on the largest residual diagonal entry. The factor stops
    once that entry is at most FACTOR_TOL times the largest kernel diagonal
    entry, but not before min_rank pivots; if the residual is exhausted first
    (duplicate points, or a low-rank kernel), the Gram's numerical rank is
    below min_rank and InputError says so.

    The columns come in panels (Lucas 2004, LAPACK Working Note 161): a panel
    takes the PANEL largest residuals as candidates, the argmax among them,
    and updates their kernel rows against the factor so far with one GEMM.
    A pivot that is a candidate then needs only an einsum over the rows its
    panel added; any other pivot opens a new panel. The pivot rule is the
    greedy one either way. BLAS runs on one thread (linalg.serial_blas) and a
    factor shares nothing with other factors but the lock around its buffer
    copies, so its bits depend neither on the BLAS thread count nor on which
    thread builds it; `cca.kernel_cca` builds its two on two threads.
    """
    A = _as_points(A, "A")
    n = A.shape[0]
    res = kernel_diagonal(k, A)
    scale = float(res.max())
    # below this the residual is rounding error, not rank
    exhausted = n * np.finfo(float).eps * scale
    # the Gaussian column reuses the squared row norms
    norms = np.sum(A * A, axis=1) if k.variant == "gaussian" else None
    Lt = np.empty((0, n))  # row j holds column j of L; grown by doubling
    piv = np.empty(n, dtype=np.intp)
    first = max(n - PANEL, 0)  # the candidates are np.argpartition(res, first)[first:]
    row = np.full(n, -1)  # each point's row in the panel, or -1
    j = j0 = 0  # pivots taken so far; the first of them taken in this panel
    while j < n:
        p = int(np.argmax(res))
        if j >= min_rank:
            if res[p] <= FACTOR_TOL * scale:
                break
        elif res[p] <= exhausted:
            raise InputError(
                f"the Gram matrix has numerical rank {j}, below the {min_rank} "
                "components requested (duplicate points or a low-rank kernel)",
                "kernels",
                "pivoted_cholesky",
            )
        if j == Lt.shape[0]:
            rows = min(n, max(2 * j, min_rank, 64))
            with _GROWTH_LOCK:
                # the peak: the old buffer's j rows and the new buffer's rows
                require_memory((rows + j) * n, "pivoted-Cholesky factor")
                grown = np.empty((rows, n))
                grown[:j] = Lt
                Lt = grown
        if row[p] < 0:
            # a new panel, with the argmax among its candidates: argpartition
            # may leave it out of a tie (every Gaussian residual starts at 1)
            cand = np.argpartition(res, first)[first:]
            if p not in cand:
                cand[0] = p
            row[:] = -1
            row[cand] = np.arange(cand.shape[0])
            panel = _gram_block(k, A, A[cand], norms).T - Lt[:j, cand].T @ Lt[:j]
            j0 = j
        col = panel[row[p]] - np.einsum("i,ij->j", Lt[j0:j, p], Lt[j0:j])
        pivot = np.sqrt(res[p])
        col /= pivot
        col[piv[:j]] = 0.0
        col[p] = pivot
        Lt[j] = col
        res -= col * col
        np.clip(res, 0.0, None, out=res)
        res[p] = 0.0
        piv[j] = p
        j += 1
    with _GROWTH_LOCK:
        # a copy, so the buffer's unused rows do not live as long as the factor
        L = Lt[:j].copy().T
    return L, piv[:j].copy(), res


def center_gram(G):
    """Empirically center a Gram matrix: G~ = N0 G N0 with N0 = I - (1/n) 11^T.
    Centering is idempotent: a centered matrix comes back equal to rounding."""
    M = G.entries if isinstance(G, GramMatrix) else np.asarray(G, dtype=float)
    if M.shape[0] != M.shape[1]:
        raise InputError("centering requires a square Gram matrix", "kernels", "center_gram")
    return GramMatrix(M - M.mean(axis=1, keepdims=True) - M.mean(axis=0) + M.mean())
