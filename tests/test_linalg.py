"""Regularized solves, eigenproblems, and spectral identities."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohsets import InputError, NumericalError, RegParam
from cohsets.linalg import eig_nonsymmetric, eigh_psd, reg_solve


def _random_psd(n, seed, rank=None):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, rank or n))
    return M @ M.T


def test_reg_param_effective():
    assert [f.name for f in dataclasses.fields(RegParam)] == ["eps"]
    assert RegParam(1e-3).effective(100) == pytest.approx(0.1)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(InputError):
            RegParam(bad)


def test_reg_solve_matches_dense_solve():
    n = 20
    A = _random_psd(n, 0)
    B = np.random.default_rng(1).standard_normal((n, 3))
    reg = RegParam(1e-2)
    X = reg_solve(A, reg, B)
    np.testing.assert_allclose(A @ X + reg.effective(n) * X, B, atol=1e-10)


def test_reg_solve_rejects_indefinite():
    A = np.diag([1.0, -5.0])
    with pytest.raises(NumericalError):
        reg_solve(A, RegParam(1e-8), np.eye(2))


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=10**6),
       st.sampled_from([1e-6, 1e-3, 1e-1]))
def test_resolvent_product_spectrum_in_unit_interval(n, seed, eps):
    """Eigenvalues of G (G + n*eps*I)^-1 lie in [0, 1) for PSD G, eps > 0."""
    G = _random_psd(n, seed, rank=max(1, n // 2))
    # same spectrum via the symmetric similar form S (G + n*eps*I)^-1 S, S = G^1/2
    lam, U = eigh_psd(G)
    S = (U * np.sqrt(lam)) @ U.T
    vals = np.linalg.eigvalsh(S @ np.linalg.inv(G + n * eps * np.eye(n)) @ S)
    assert np.all(vals >= -1e-10 * max(1.0, vals.max()))
    assert np.all(vals < 1.0)


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=4, max_value=30),
       st.integers(min_value=0, max_value=10**6))
def test_push_through_identity(d, n, seed):
    """Nonzero eigenvalues of the feature-space product equal the Gram-space ones."""
    rng = np.random.default_rng(seed)
    Phi = rng.standard_normal((d, n))
    Psi = rng.standard_normal((d, n))
    eps = 1e-3
    ne = n * eps
    Gxx, Gyy = Phi.T @ Phi, Psi.T @ Psi
    feat = (
        np.linalg.inv(Phi @ Phi.T + ne * np.eye(d))
        @ (Phi @ Psi.T)
        @ np.linalg.inv(Psi @ Psi.T + ne * np.eye(d))
        @ (Psi @ Phi.T)
    )
    # applying Psi^T (Psi Psi^T + ne I)^-1 = (Psi^T Psi + ne I)^-1 Psi^T twice
    # turns the feature-space product into the Gram-only matrix below
    gram = (
        np.linalg.inv(Gxx + ne * np.eye(n))
        @ Gxx
        @ np.linalg.inv(Gyy + ne * np.eye(n))
        @ Gyy
    )
    k = min(d, n)  # only min(d, n) nonzero eigenvalues exist on either side
    a = np.sort(np.real(np.linalg.eigvals(feat)))[::-1][:k]
    b = np.sort(np.real(np.linalg.eigvals(gram)))[::-1][:k]
    np.testing.assert_allclose(a, b, atol=1e-8)


def test_eigh_psd_ascending_and_clipped():
    A = _random_psd(10, 5, rank=4)
    vals, vecs = eigh_psd(A)
    assert np.all(np.diff(vals) >= 0)
    assert np.all(vals >= 0)
    np.testing.assert_allclose(A @ vecs, vecs * vals, atol=1e-8)


def test_eigh_psd_rejects_indefinite():
    with pytest.raises(NumericalError):
        eigh_psd(np.diag([1.0, -1.0]))


def test_eig_nonsymmetric_sorted_and_flags_complex():
    A = np.diag([3.0, 1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = eig_nonsymmetric(A)
    np.testing.assert_allclose(res.eigenvalues, [3.0, 2.0, 1.0])
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # purely imaginary spectrum
    with pytest.warns(RuntimeWarning, match="imaginary parts"):
        eig_nonsymmetric(rot)


def test_eig_nonsymmetric_rejects_nonfinite():
    with pytest.raises(InputError):
        eig_nonsymmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))
