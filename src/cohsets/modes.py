"""Coherent mode decomposition for high-dimensional snapshot data (d >> n).

Works entirely through the n x n linear-kernel Gram matrices X^T X and
Y^T Y, so cost is governed by the number of snapshots, never the state
dimension (beyond the Gram products and the two d x n mode reconstructions).
Both Grams are blocks of one Z^T Z, summed over row blocks of Z, which may
stay in its snapshot file. Gram matrices are not centered by default;
centered=True centers them in factor space, by subtracting the column means
of their n x n factors G = L L^T.
"""

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .cca import _gram_cca_core, _RHO_TOL
from .io import SnapshotFile
from .linalg import eigh_psd, require_count, require_memory

BLOCK_ROWS = 4096  # rows of Z per step of cmd's two passes


def _snapshot_array(A):
    A = np.asarray(A)
    if A.ndim != 2 or A.dtype.kind not in "iuf":
        raise InputError(
            f"snapshots must be a 2-D numeric array, got {A.ndim}-D of dtype {A.dtype}", "modes")
    return A.astype(float, copy=False)


class SnapshotMatrices:
    """Snapshot pairs (x_i, y_i), i < n, of dimension d: the columns X = Z[:, :n]
    and Y = Z[:, -n:] of one d x m matrix Z that cmd reads in row blocks.
    SnapshotMatrices(X, Y) stacks two (d, n) arrays block by block (m = 2n);
    from_sequence pairs consecutive columns (m = n + 1)."""

    def __init__(self, X, Y):
        X, Y = _snapshot_array(X), _snapshot_array(Y)
        if X.shape != Y.shape or X.shape[1] < 2:
            raise InputError("snapshot matrices must have equal shape (d, n) with n >= 2, "
                             f"got {X.shape} and {Y.shape}", "modes")
        self._parts, self._skip, self.n, self.m = (X, Y), 0, X.shape[1], 2 * X.shape[1]

    @classmethod
    def from_sequence(cls, Z, skip=0):
        """Sequential pairing X = [z_skip .. z_{m-1}], Y = [z_{skip+1} .. z_m] of
        a d x (m+1) array or io.SnapshotFile Z, which stays where it is."""
        Z = Z if isinstance(Z, SnapshotFile) else _snapshot_array(Z)
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

    @property
    def X(self):
        return self._parts[0][:, self._skip:self._skip + self.n]

    @property
    def Y(self):
        return self._parts[-1][:, -self.n:]

    def blocks(self):
        """Yield Z in blocks of BLOCK_ROWS rows; a file is read into one reused
        buffer, so a block is valid only until the next one is drawn."""
        parts = [p.blocks(BLOCK_ROWS) if isinstance(p, SnapshotFile)
                 else np.split(p, range(BLOCK_ROWS, self.d, BLOCK_ROWS)) for p in self._parts]
        for block in zip(*parts):
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
    Lx, Ly = (U * np.sqrt(lam) for lam, U in (eigh_psd(Gxx), eigh_psd(Gyy)))
    if centered:
        Lx, Ly = Lx - Lx.mean(axis=0), Ly - Ly.mean(axis=0)
    rho, V, _, w = _gram_cca_core(Lx, Ly, eff, k, "i")
    return rho, V, w, rho > _RHO_TOL


def cmd(snap, reg, k, centered=False):
    """Coherent mode decomposition of paired snapshots.

    Solves (G_XX + n eps I)^-1 (G_YY + n eps I)^-1 G_YY G_XX v = rho^2 v with
    linear-kernel Grams, then lifts to data space: xi = X v, eta = Y w.
    """
    if reg.eps <= 0:
        raise InputError("CMD requires eps > 0", "modes", "cmd")
    d, n, m = snap.d, snap.n, snap.m
    require_count(k, n, "k modes", "modes", "cmd")
    # G and the core's n x n products, one block of Z and the two mode arrays
    require_memory(m * (7 * m + min(BLOCK_ROWS, d)) + 2 * d * k, "CMD on the snapshot matrix")
    G = np.zeros((m, m))
    for Zb in snap.blocks():
        G += Zb.T @ Zb
    # a nan or inf entry makes its column's sum of squares non-finite
    if not np.isfinite(np.diagonal(G)).all():
        raise InputError("non-finite snapshot entries", "modes", "cmd")
    rho, V, w, defined = solve_cmd_grams(G[:n, :n], G[-n:, -n:], reg.effective(n), k, centered)
    if not np.all(defined):
        warnings.warn(f"{int(np.sum(~defined))} requested modes have numerically zero "
                      "correlation; their eta modes are undefined", RuntimeWarning)
    xi, eta = np.empty((d, k)), np.empty((d, k))
    for start, Zb in zip(range(0, d, BLOCK_ROWS), snap.blocks()):
        np.matmul(Zb[:, :n], V, out=xi[start:start + len(Zb)])
        np.matmul(Zb[:, -n:], w, out=eta[start:start + len(Zb)])
    eta[:, ~defined] = np.nan
    return CMDResult(rho=rho, xi_modes=xi, eta_modes=eta, v=V, w=w, eta_defined=defined)
