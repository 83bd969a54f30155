"""Positive-definite kernels, Gram matrices and their pivoted-Cholesky factors,
and empirical centering; `cca.KernelExpansion` evaluates RKHS functions."""

import contextlib
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import require_memory, require_points, require_real, serial_blas

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
        if not isinstance(self.variant, str) or self.variant not in _PARAMS:
            raise InputError(f"unknown kernel {self.variant!r}", "kernels")
        for name in ("sigma", "offset", "degree", "radius"):
            require_real(getattr(self, name), f"kernel field {name}", "kernels")
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
    if not isinstance(spec, str):
        raise InputError(f"a kernel spec must be a string, got {spec!r}", "kernels")
    name, _, rest = spec.strip().partition(":")
    name = name.strip().lower()
    params = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise InputError(f"malformed kernel parameter {item!r}", "kernels")
            with contextlib.suppress(ValueError):  # require_real refuses a string left over
                value = float(value)
            params[key.strip()] = require_real(value, f"kernel parameter {item!r}", "kernels")
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


def _features(k, A):
    """The points the kernel block sees, prepared once per point set: unit
    vectors (cos lat cos lon, cos lat sin lon, sin lat) for the haversine's
    (lon, lat) degrees, A itself otherwise. Refuses polynomial points whose
    largest kernel value (c + max |a|^2)^p overflows, in log space."""
    if k.variant == "haversine":
        if A.shape[1] != 2 or np.any(np.abs(A) > (180.0, 90.0)):
            raise InputError("haversine points must be (lon, lat) degrees in "
                             "[-180,180]x[-90,90]", "kernels")
        lon, lat = np.radians(A).T
        return np.column_stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])
    if k.variant == "poly":  # Python floats: a product past the largest float is inf, silently
        top = k.offset + float(np.max(np.einsum("ij,ij->i", A, A)))
        if top > 1.0 and k.degree * math.log(top) > math.log(np.finfo(float).max):
            raise InputError(f"polynomial kernel values overflow: (c + max |a|^2)^p = "
                             f"{top:.3g}^{k.degree:.3g} is above the largest float", "kernels")
    return A


def _gram_block(k, A, B, a_norms=None):
    """Kernel block G[i, j] = k(a_i, b_j) of points prepared by `_features`, and
    a_norms their squared row norms if given. The Gaussian and the haversine
    share the squared distance, expanded and worked in place: at most two m x n
    arrays, the result and the cross products, are alive at once."""
    if k.variant == "linear":
        return A @ B.T
    if k.variant == "poly":
        return (k.offset + A @ B.T) ** k.degree
    if a_norms is None:
        a_norms = np.sum(A * A, axis=1)
    sq = a_norms[:, None] + np.sum(B * B, axis=1)[None, :]
    sq -= 2.0 * (A @ B.T)
    np.clip(sq, 0.0, None, out=sq)
    if A is B:
        np.fill_diagonal(sq, 0.0)
    if k.variant == "haversine":  # the chord c = |u - v| spans the arc 2 arcsin(c / 2)
        np.sqrt(sq, out=sq)
        sq /= 2.0
        np.arcsin(np.minimum(sq, 1.0, out=sq), out=sq)
        sq *= 2.0 * k.radius
        sq *= sq
    np.negative(sq, out=sq)
    sq /= 2.0 * k.sigma * k.sigma
    return np.exp(sq, out=sq)


def gram_matrix(k, A, B=None):
    """Gram matrix G[i, j] = k(A[i], B[j]); B defaults to A."""
    A = require_points(A, "point set A", "kernels")
    B = A if B is None else require_points(B, "point set B", "kernels", dim=A.shape[1])
    require_memory(2 * A.shape[0] * B.shape[0], "Gram matrix")  # and the cross products
    F = _features(k, A)
    return GramMatrix(_gram_block(k, F, F if B is A else _features(k, B)))


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
    A = _features(k, require_points(A, "point set A", "kernels"))
    n = A.shape[0]
    res = kernel_diagonal(k, A)
    scale = float(res.max())
    # below this the residual is rounding error, not rank
    exhausted = n * np.finfo(float).eps * scale
    norms = np.sum(A * A, axis=1)  # the Gaussian and haversine columns reuse them
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
