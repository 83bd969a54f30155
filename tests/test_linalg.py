"""Regularized solves, eigenproblems, and spectral identities."""

import dataclasses
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohsets import (
    EmpiricalOperator,
    InputError,
    Kernel,
    NumericalError,
    RegParam,
    SnapshotMatrices,
    TrajectoryPairs,
    cmd,
    kernel_cca,
    kernel_pca,
    kmeans,
    op_eig_variant_i,
)
from cohsets import linalg
from cohsets.linalg import eig_nonsymmetric, eigh_psd, reg_solve, serial_blas


def _random_psd(n, seed, rank=None):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, rank or n))
    return M @ M.T


def test_reg_param_effective():
    assert [f.name for f in dataclasses.fields(RegParam)] == ["eps"]
    assert RegParam(1e-3).effective(100) == pytest.approx(0.1)
    # a string raised TypeError
    for bad in (-1.0, float("nan"), float("inf"), "a", None):
        with pytest.raises(InputError):
            RegParam(bad)


_GAUSS = Kernel("gaussian")
_COUNT_CALLS = {
    "kernel_cca": lambda pairs, reg, k: kernel_cca(pairs, _GAUSS, _GAUSS, reg, k),
    "cmd": lambda pairs, reg, k: cmd(SnapshotMatrices(pairs.X.T, pairs.Y.T), reg, k),
    "kernel_pca": lambda pairs, reg, k: kernel_pca(pairs.X, _GAUSS, k),
    "op_eig_variant_i": lambda pairs, reg, k: op_eig_variant_i(
        EmpiricalOperator(np.eye(12) / 12, pairs.X, pairs.Y, _GAUSS), k),
    "kmeans": lambda pairs, reg, k: kmeans(pairs.X, k),
}


# kernel_cca and cmd returned 3 components for k = 2.5 and kernel_cca 1 for
# k = True, op_eig_variant_i returned [] for k = 0, and kernel_pca,
# op_eig_variant_i and kmeans ended in a TypeError for k = 2.5
@pytest.mark.parametrize("function, k", [
    (function, k) for function in _COUNT_CALLS for k in (2.5, True)
] + [("op_eig_variant_i", 0)])
def test_count_must_be_an_int_within_the_samples(function, k):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((12, 2))
    pairs = TrajectoryPairs(X, X + 0.1 * rng.standard_normal((12, 2)))
    with pytest.raises(InputError, match="must be an integer in \\[1, 12\\]"):
        _COUNT_CALLS[function](pairs, RegParam(1e-3), k)


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


def test_eig_nonsymmetric_sorted_and_returns_complex():
    A = np.diag([3.0, 1.0, 2.0])
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # purely imaginary spectrum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, vecs = eig_nonsymmetric(A)
        np.testing.assert_array_equal(vals, [3.0, 2.0, 1.0])
        np.testing.assert_array_equal(vecs, np.eye(3)[:, [0, 2, 1]])
        vals, vecs = eig_nonsymmetric(rot)
    # the positive imaginary part first; unit eigenvectors whose
    # largest-magnitude entry is real and positive
    np.testing.assert_allclose(vals, [1j, -1j], atol=1e-15)
    np.testing.assert_allclose(rot @ vecs, vecs * vals, atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(vecs, axis=0), 1.0)
    top = vecs[np.argmax(np.abs(vecs), axis=0), [0, 1]]
    np.testing.assert_allclose(top.imag, 0.0, atol=1e-15)
    assert np.all(top.real > 0)


def test_eig_nonsymmetric_rejects_nonfinite():
    with pytest.raises(InputError):
        eig_nonsymmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def _mapped_openblas():
    """Paths of the OpenBLAS builds mapped into this process: numpy and scipy
    wheels each ship their own."""
    maps = Path("/proc/self/maps").read_text().splitlines()
    return {line.split(maxsplit=5)[5] for line in maps
            if len(line.split(maxsplit=5)) == 6 and "openblas" in line.rsplit("/", 1)[-1]}


def test_serial_blas_sets_every_openblas_to_one_thread_and_restores():
    """Inside serial_blas every mapped OpenBLAS reports one thread, also in
    a nested scope and while a second thread holds a scope of its own; the
    outermost exit restores the count each had before."""
    calls = linalg._openblas_thread_calls()
    assert len(calls) == len(_mapped_openblas())
    if not calls:
        pytest.skip("no OpenBLAS is mapped into this process")
    before = [get() for get, _ in calls]
    try:
        for _, set_ in calls:
            set_(2)
        with serial_blas():
            assert [get() for get, _ in calls] == [1] * len(calls)
            entered, release = threading.Event(), threading.Event()

            def hold():
                with serial_blas():
                    entered.set()
                    release.wait(10)

            worker = threading.Thread(target=hold)
            worker.start()
            assert entered.wait(10)
            with serial_blas():
                assert [get() for get, _ in calls] == [1] * len(calls)
            release.set()
            worker.join(10)
            assert not worker.is_alive()
            assert [get() for get, _ in calls] == [1] * len(calls)
        assert [get() for get, _ in calls] == [2] * len(calls)
    finally:
        for (_, set_), count in zip(calls, before):
            set_(count)


def test_serial_blas_without_openblas_is_a_no_op(monkeypatch):
    monkeypatch.setattr(linalg, "_openblas_thread_calls", lambda: ())
    with serial_blas():
        with serial_blas():
            assert linalg._serial_depth == 2
    assert linalg._serial_depth == 0
