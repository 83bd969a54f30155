"""Positive-definite kernels, Gram matrices, and empirical centering."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, PipelineUsageError
from .linalg import require_memory

_VARIANTS = ("gaussian", "linear", "poly", "haversine")

# A pivoted-Cholesky factor stops once its largest residual diagonal entry is
# at most this fraction of the largest kernel diagonal entry. On the jet at
# n=2000 (eps=1e-7) it keeps rho within 2.4e-10 of the dense route and the
# dense eigen-equation residual at 1.9e-9; at 1e-10 those are 2.6e-8 and 1.9e-7.
FACTOR_TOL = 1e-12


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
        if self.variant not in _VARIANTS:
            raise InputError(f"unknown kernel variant {self.variant!r}", "kernels")
        if self.variant in ("gaussian", "haversine") and not self.sigma > 0:
            raise InputError("bandwidth sigma must be > 0", "kernels")
        if self.variant == "poly":
            if self.offset < 0:
                raise InputError("polynomial offset c must be >= 0", "kernels")
            if int(self.degree) != self.degree or self.degree < 1:
                raise InputError("polynomial degree p must be an integer >= 1", "kernels")
        if self.variant == "haversine" and not self.radius > 0:
            raise InputError("sphere radius must be > 0", "kernels")

    @classmethod
    def gaussian(cls, sigma):
        return cls("gaussian", sigma=sigma)

    @classmethod
    def linear(cls):
        return cls("linear")

    @classmethod
    def polynomial(cls, offset, degree):
        return cls("poly", offset=offset, degree=degree)

    @classmethod
    def haversine_gaussian(cls, sigma, radius=6371.0):
        return cls("haversine", sigma=sigma, radius=radius)

    def spec_string(self):
        if self.variant == "gaussian":
            return f"gaussian:sigma={self.sigma}"
        if self.variant == "linear":
            return "linear"
        if self.variant == "poly":
            return f"poly:c={self.offset},p={self.degree}"
        return f"haversine:sigma={self.sigma},radius={self.radius}"


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
    try:
        if name == "gaussian":
            return Kernel.gaussian(params.pop("sigma", 1.0))
        if name == "linear":
            return Kernel.linear()
        if name == "poly":
            offset, degree = params.pop("c", 1.0), params.pop("p", 2.0)
            if not degree.is_integer():
                raise InputError(
                    f"polynomial degree p must be an integer, got {degree}", "kernels"
                )
            return Kernel.polynomial(offset, int(degree))
        if name == "haversine":
            return Kernel.haversine_gaussian(
                params.pop("sigma", 30.0), params.pop("radius", 6371.0)
            )
    finally:
        if params:
            raise InputError(
                f"unknown kernel parameters {sorted(params)} for {name!r}", "kernels"
            )
    raise InputError(f"unknown kernel {name!r}", "kernels")


@dataclass
class GramMatrix:
    """An n x n (or rectangular) matrix of pairwise kernel evaluations."""

    entries: np.ndarray
    centered: bool = False

    @property
    def n(self):
        return self.entries.shape[0]


def _as_points(A, name):
    A = np.atleast_2d(np.asarray(A, dtype=float))
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


def eval_kernel(k, x, y):
    """Evaluate k(x, y) for a single pair of points."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise InputError(
            f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}", "kernels", "eval_kernel"
        )
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InputError("non-finite coordinates", "kernels", "eval_kernel")
    return float(_gram_block(k, x[None, :], y[None, :])[0, 0])


def _gaussian_gram(k, A, B):
    """Gram matrix of exp(-|a-b|^2 / 2 sigma^2) via the expanded-square trick.

    Works in place on the squared distances, so at most two m x n arrays (the
    result and the cross products) are alive at once.
    """
    sq = np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :]
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


def _gram_block(k, A, B):
    if k.variant == "gaussian":
        return _gaussian_gram(k, A, B)
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
    require_memory(A.shape[0], B.shape[0], copies, "Gram matrix")
    return GramMatrix(_gram_block(k, A, B))


def kernel_diagonal(k, A):
    """k(a, a) for every row a of A."""
    if k.variant in ("gaussian", "haversine"):
        return np.ones(A.shape[0])
    sq = np.einsum("ij,ij->i", A, A)
    return sq if k.variant == "linear" else (k.offset + sq) ** k.degree


@dataclass
class GramFactor:
    """A greedy pivoted-Cholesky factor G ~= L L^T of the Gram matrix of n points.

    L is n x r; L[piv] is lower triangular with a positive diagonal, so
    L = G[:, piv] L[piv]^-T and a new point p has Nystroem coordinates
    L[piv]^-1 k(points[piv], p). residual is the diagonal of G - L L^T.
    """

    L: np.ndarray
    piv: np.ndarray
    residual: np.ndarray

    @property
    def rank(self):
        return self.piv.shape[0]


def pivoted_cholesky(k, A, min_rank=1):
    """Pivoted-Cholesky factor of the Gram matrix of the points A, from r
    kernel columns: O(n r^2) time and O(n r) memory, never the n x n Gram.

    Each step pivots on the largest residual diagonal entry. The factor stops
    once that entry is at most FACTOR_TOL times the largest kernel diagonal
    entry, but not before min_rank pivots; if the residual is exhausted first
    (duplicate points, or a low-rank kernel), the Gram's numerical rank is
    below min_rank and InputError says so.
    """
    A = _as_points(A, "A")
    n = A.shape[0]
    res = kernel_diagonal(k, A)
    scale = float(res.max())
    # below this the residual is rounding error, not rank
    exhausted = n * np.finfo(float).eps * scale
    Lt = np.empty((0, n))  # row j holds column j of L; grown by doubling
    piv = []
    while len(piv) < n:
        j = len(piv)
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
            # the peak: the old buffer's j rows and the new buffer's rows
            require_memory(rows + j, n, 1, "pivoted-Cholesky factor")
            grown = np.empty((rows, n))
            grown[:j] = Lt
            Lt = grown
        # einsum, not BLAS: the factor is then bitwise the same for any thread count
        col = _gram_block(k, A, A[p:p + 1])[:, 0] - np.einsum("i,ij->j", Lt[:j, p], Lt[:j])
        pivot = np.sqrt(res[p])
        col /= pivot
        col[piv] = 0.0
        col[p] = pivot
        Lt[j] = col
        res -= col * col
        np.clip(res, 0.0, None, out=res)
        res[p] = 0.0
        piv.append(p)
    r = len(piv)
    # a copy, so the buffer's unused rows do not live as long as the factor
    return GramFactor(Lt[:r].copy().T, np.array(piv, dtype=np.intp), res)


def center_gram(G):
    """Empirically center a Gram matrix: G~ = N0 G N0 with N0 = I - (1/n) 11^T.

    Rejects already-centered input; double centering is idempotent but almost
    always indicates a pipeline bug.
    """
    if isinstance(G, GramMatrix):
        if G.centered:
            raise PipelineUsageError("Gram matrix is already centered", "kernels", "center_gram")
        M = G.entries
    else:
        M = np.asarray(G, dtype=float)
    if M.shape[0] != M.shape[1]:
        raise InputError("centering requires a square Gram matrix", "kernels", "center_gram")
    return GramMatrix(center_cross_gram(M, gram_stats(M)), centered=True)


def gram_stats(G):
    """(column means, grand mean) of a raw training Gram matrix: what
    `center_cross_gram` needs to center Grams against its points."""
    return G.mean(axis=0), float(G.mean())


def center_cross_gram(G, stats):
    """Center G[i, j] = k(p_i, a_j) for new points p against training anchors a
    the way `center_gram` centered the training Gram; stats = gram_stats(train)."""
    colmean, grand = stats
    return G - G.mean(axis=1, keepdims=True) - colmean[None, :] + grand
