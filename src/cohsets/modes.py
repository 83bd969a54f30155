"""Coherent mode decomposition for high-dimensional snapshot data (d >> n).

Works entirely through the n x n linear-kernel Gram matrices X^T X and
Y^T Y, so cost is governed by the number of snapshots, never the state
dimension (beyond the Gram products and the two d x n mode reconstructions).
Sequential pairs take both Grams as blocks of one Z^T Z. Gram matrices are
not centered by default; centered=True centers them in factor space, by
subtracting the column means of their n x n factors G = L L^T.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .cca import _gram_cca_core, _RHO_TOL
from .linalg import eigh_psd, require_count, require_memory


@dataclass
class SnapshotMatrices:
    """Paired snapshot matrices X, Y of shape (d, n). from_sequence also keeps
    the d x (n+1) sequence whose first n columns are X and last n are Y."""

    X: np.ndarray
    Y: np.ndarray
    _Z: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        if self.X.shape != self.Y.shape:
            raise InputError(
                f"snapshot matrices must have equal shape: {self.X.shape} vs {self.Y.shape}",
                "modes",
            )
        if self.X.shape[1] < 2:
            raise InputError("need at least 2 snapshot pairs", "modes")

    @classmethod
    def from_sequence(cls, Z, skip=0):
        """Sequential pairing X = [z_skip .. z_{m-1}], Y = [z_{skip+1} .. z_m]."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        if skip < 0 or Z.shape[1] - skip < 3:
            raise InputError("not enough snapshots after transient skip", "modes")
        snap = cls(Z[:, skip:-1], Z[:, skip + 1:])
        snap._Z = Z[:, skip:]
        return snap

    @property
    def d(self):
        return self.X.shape[0]

    @property
    def n(self):
        return self.X.shape[1]


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
    require_count(k, snap.n, "k modes", "modes", "cmd")
    # two Grams, their eigenvectors and the core's n x n products
    require_memory(snap.n, snap.n, 6, "CMD snapshot Grams")
    if snap._Z is None:
        Gxx, Gyy = snap.X.T @ snap.X, snap.Y.T @ snap.Y
    else:
        G = snap._Z.T @ snap._Z
        Gxx, Gyy = G[:-1, :-1], G[1:, 1:]
    # a nan or inf entry makes its column's sum of squares non-finite
    if not (np.isfinite(np.diagonal(Gxx)).all() and np.isfinite(np.diagonal(Gyy)).all()):
        raise InputError("non-finite snapshot entries", "modes", "cmd")
    eff = reg.effective(snap.n)
    rho, V, w, defined = solve_cmd_grams(Gxx, Gyy, eff, k, centered)
    if not np.all(defined):
        warnings.warn(
            f"{int(np.sum(~defined))} requested modes have numerically zero "
            "correlation; their eta modes are undefined",
            RuntimeWarning,
        )
    xi = snap.X @ V
    eta = snap.Y @ w
    eta[:, ~defined] = np.nan
    return CMDResult(rho=rho, xi_modes=xi, eta_modes=eta, v=V, w=w, eta_defined=defined)
