"""Coherent mode decomposition for high-dimensional snapshot data (d >> n).

Works entirely through the n x n linear-kernel Gram matrices X^T X and
Y^T Y, so cost is governed by the number of snapshots, never the state
dimension (beyond the Gram products and the two d x n mode reconstructions).
Both Grams are blocks of one Z^T Z, summed over row blocks of Z, which may
stay in its snapshot file; each of cmd's two passes over Z runs on two
threads, one for the even and one for the odd row blocks. Gram matrices are
not centered by default; centered=True centers them in factor space, by
subtracting the column means of their n x n factors G = L L^T.
"""

import numbers
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .cca import _gram_cca_core, _RHO_TOL
from .io import SnapshotFile
from .linalg import eigh_psd, require_count, require_matrix, require_memory, serial_blas

BLOCK_ROWS = 2048  # rows of Z per step of cmd's two passes, on each of its threads
_THREADS = 2  # thread p of a pass takes row blocks p, p + _THREADS, ...


def _on_threads(task):
    """[task(p, _THREADS) for p < _THREADS], each call on its own thread."""
    with ThreadPoolExecutor(max_workers=_THREADS) as pool:
        futures = [pool.submit(task, p, _THREADS) for p in range(_THREADS)]
        return [future.result() for future in futures]


class SnapshotMatrices:
    """Snapshot pairs (x_i, y_i), i < n, of dimension d: the columns X = Z[:, :n]
    and Y = Z[:, -n:] of one d x m matrix Z that cmd reads in row blocks.
    SnapshotMatrices(X, Y) stacks two (d, n) arrays block by block (m = 2n);
    from_sequence pairs consecutive columns (m = n + 1)."""

    def __init__(self, X, Y):
        X, Y = require_matrix(X, "snapshots", "modes"), require_matrix(Y, "snapshots", "modes")
        if X.shape != Y.shape or X.shape[1] < 2:
            raise InputError("snapshot matrices must have equal shape (d, n) with n >= 2, "
                             f"got {X.shape} and {Y.shape}", "modes")
        self._parts, self._skip, self.n, self.m = (X, Y), 0, X.shape[1], 2 * X.shape[1]

    @classmethod
    def from_sequence(cls, Z, skip=0):
        """Sequential pairing X = [z_skip .. z_{m-1}], Y = [z_{skip+1} .. z_m] of
        a d x (m+1) array or io.SnapshotFile Z, which stays where it is."""
        Z = Z if isinstance(Z, SnapshotFile) else require_matrix(Z, "snapshots", "modes")
        if isinstance(skip, bool) or not isinstance(skip, numbers.Integral):
            raise InputError(f"skip must be an integer, got {skip!r}", "modes")
        if skip < 0 or Z.shape[1] - skip < 3:
            raise InputError("not enough snapshots after transient skip", "modes")
        snap = cls.__new__(cls)
        snap._parts, snap._skip, snap.n = (Z,), skip, Z.shape[1] - skip - 1
        snap.m = snap.n + 1
        return snap

    @property
    def d(self):
        return self._parts[0].shape[0]

    def blocks(self, part=0, parts=1):
        """Yield the row blocks part, part + parts, ... of Z, each of BLOCK_ROWS
        rows; a file is read through its own handle into one reused buffer, so
        a block is valid only until the next one is drawn."""
        starts = range(part * BLOCK_ROWS, self.d, parts * BLOCK_ROWS)
        sources = [p.blocks(BLOCK_ROWS, part, parts) if isinstance(p, SnapshotFile)
                   else [p[lo:lo + BLOCK_ROWS] for lo in starts] for p in self._parts]
        for block in zip(*sources):
            yield (block[0] if len(block) == 1 else np.hstack(block))[:, self._skip:]


@dataclass
class CMDResult:
    """Coherent mode pairs (xi, eta) in data space with their correlations."""

    rho: np.ndarray
    xi_modes: np.ndarray
    eta_modes: np.ndarray
    v: np.ndarray
    w: np.ndarray
    eta_defined: np.ndarray


def solve_cmd_grams(Gxx, Gyy, eff, k, centered=False):
    """Eigensolve stage of CMD on precomputed Gram matrices (n-sized cost only);
    centered=True centers them as factors, U sqrt(lam) minus its column means."""
    require_count(k, np.shape(Gxx)[0], "k modes", "modes", "solve_cmd_grams")
    Lx, Ly = (U * np.sqrt(lam) for lam, U in (eigh_psd(Gxx), eigh_psd(Gyy)))
    if centered:
        Lx, Ly = Lx - Lx.mean(axis=0), Ly - Ly.mean(axis=0)
    rho, V, _, w = _gram_cca_core(Lx, Ly, eff, k, "i")
    return rho, V, w, rho > _RHO_TOL


@serial_blas()
def cmd(snap, reg, k, centered=False):
    """Coherent mode decomposition of paired snapshots.

    Solves (G_XX + n eps I)^-1 (G_YY + n eps I)^-1 G_YY G_XX v = rho^2 v with
    linear-kernel Grams, then lifts to data space: xi = X v, eta = Y w. Each
    pass over Z runs on two threads. Each thread sums its own Gram over its
    blocks, and the Gram is the first thread's plus the second's, so its bits
    do not depend on scheduling; each writes its own rows of xi and eta.
    """
    if reg.eps <= 0:
        raise InputError("CMD requires eps > 0", "modes", "cmd")
    d, n, m = snap.d, snap.n, snap.m
    require_count(k, n, "k modes", "modes", "cmd")
    # per thread a Gram and one block of Z; the core's n x n products; the two mode arrays
    require_memory(m * (8 * m + _THREADS * min(BLOCK_ROWS, d)) + 2 * d * k,
                   "CMD on the snapshot matrix")

    def gram(part, parts):
        G = np.zeros((m, m))
        for Zb in snap.blocks(part, parts):
            G += Zb.T @ Zb
        return G

    G, *rest = _on_threads(gram)
    for Gp in rest:
        G += Gp
    # a nan or inf entry makes its column's sum of squares non-finite
    if not np.isfinite(np.diagonal(G)).all():
        raise InputError("non-finite snapshot entries", "modes", "cmd")
    rho, V, w, defined = solve_cmd_grams(G[:n, :n], G[-n:, -n:], reg.effective(n), k, centered)
    if not np.all(defined):
        warnings.warn(f"{int(np.sum(~defined))} requested modes have numerically zero "
                      "correlation; their eta modes are undefined", RuntimeWarning)
    xi, eta = np.empty((d, k)), np.empty((d, k))

    def lift(part, parts):
        starts = range(part * BLOCK_ROWS, d, parts * BLOCK_ROWS)
        for start, Zb in zip(starts, snap.blocks(part, parts)):
            np.matmul(Zb[:, :n], V, out=xi[start:start + len(Zb)])
            np.matmul(Zb[:, -n:], w, out=eta[start:start + len(Zb)])

    _on_threads(lift)
    eta[:, ~defined] = np.nan
    return CMDResult(rho=rho, xi_modes=xi, eta_modes=eta, v=V, w=w, eta_defined=defined)
