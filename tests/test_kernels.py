"""Kernel evaluation, Gram assembly, and centering."""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohsets
from cohsets import (
    GramMatrix,
    InputError,
    Kernel,
    center_gram,
    gram_matrix,
    parse_kernel,
)
from cohsets.kernels import FACTOR_TOL, PANEL, kernel_diagonal, pivoted_cholesky
from oracles import pivoted_cholesky_reference


def test_gaussian_two_point_gram():
    k = Kernel("gaussian", sigma=1.0)
    G = gram_matrix(k, np.array([[0.0], [1.0]]))
    expected = np.array([[1.0, np.exp(-0.5)], [np.exp(-0.5), 1.0]])
    np.testing.assert_allclose(G.entries, expected, rtol=0, atol=1e-15)


def test_gram_cross_entries_match_scalar_formulas():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 3))
    B = rng.standard_normal((4, 3))
    formulas = [
        (Kernel("gaussian", sigma=0.7), lambda a, b: np.exp(-np.sum((a - b) ** 2) / (2 * 0.7**2))),
        (Kernel("linear"), lambda a, b: float(a @ b)),
        (Kernel("poly", offset=1.0, degree=3), lambda a, b: (1.0 + float(a @ b)) ** 3),
    ]
    for k, formula in formulas:
        G = gram_matrix(k, A, B).entries
        for i in range(5):
            for j in range(4):
                assert G[i, j] == pytest.approx(formula(A[i], B[j]), rel=1e-14, abs=1e-14)


def test_gram_symmetric_within_tolerance():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((40, 4))
    for k in (Kernel("gaussian", sigma=1.3), Kernel("poly", offset=0.5, degree=2)):
        G = gram_matrix(k, A).entries
        assert np.max(np.abs(G - G.T)) < 1e-12


def test_gaussian_entries_in_unit_interval():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((30, 2)) * 3
    G = gram_matrix(Kernel("gaussian", sigma=0.8), A).entries
    assert np.all(G > 0)
    assert np.all(G <= 1.0)


def test_empty_input_rejected():
    with pytest.raises(InputError):
        gram_matrix(Kernel("gaussian", sigma=1.0), np.empty((0, 2)))


@pytest.mark.parametrize("A", [
    pytest.param([[1.0, 2.0], [3.0]], id="ragged"),
    pytest.param(np.ones((2, 2, 2)), id="3-D"),
    pytest.param([["a", "b"], ["c", "d"]], id="strings"),
])
def test_gram_matrix_refuses_points_that_are_not_a_numeric_matrix(A):
    """A ragged list or strings raised numpy's ValueError; a 3-D array was
    taken as a Gram of its first axis."""
    with pytest.raises(InputError, match="point set A"):
        gram_matrix(Kernel("gaussian", sigma=1.0), A)


def test_gram_matrix_takes_a_1d_array_as_one_point():
    G = gram_matrix(Kernel("linear"), np.array([1.0, 2.0]), [[3.0, 4.0], [0.0, 1.0]])
    np.testing.assert_array_equal(G.entries, [[11.0, 2.0]])


def test_center_all_ones_is_zero():
    G = GramMatrix(np.ones((3, 3)))
    C = center_gram(G)
    np.testing.assert_allclose(C.entries, 0.0, atol=1e-15)


def test_center_identity_two_by_two():
    C = center_gram(GramMatrix(np.eye(2)))
    np.testing.assert_allclose(C.entries, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_centered_row_sums_vanish():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((50, 50))
    G = GramMatrix(M @ M.T)
    C = center_gram(G).entries
    assert np.max(np.abs(C.sum(axis=1))) < 1e-8
    # the all-ones vector is annihilated (centered Grams are singular)
    assert np.max(np.abs(C @ np.ones(50))) < 1e-8


def test_double_centering_is_idempotent():
    M = np.random.default_rng(4).standard_normal((30, 30))
    once = center_gram(GramMatrix(M @ M.T)).entries
    np.testing.assert_allclose(center_gram(once).entries, once, rtol=0,
                               atol=1e-13 * np.abs(once).max())


def test_center_non_square_rejected():
    with pytest.raises(InputError):
        center_gram(GramMatrix(np.ones((2, 3))))


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=10**6))
def test_centering_preserves_psd(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    C = center_gram(GramMatrix(M @ M.T)).entries
    vals = np.linalg.eigvalsh(C)
    scale = max(np.max(np.abs(vals)), 1.0)
    assert vals.min() >= -1e-8 * scale


def test_haversine_metric_axioms():
    k = Kernel("haversine", sigma=30.0)
    rng = np.random.default_rng(4)
    # (longitude, latitude) degrees
    P = np.stack([rng.uniform(-180, 180, 20), rng.uniform(-85, 85, 20)], axis=1)
    G = gram_matrix(k, P).entries
    np.testing.assert_allclose(np.diag(G), 1.0, atol=1e-12)  # d(x, x) = 0
    np.testing.assert_allclose(G, G.T, atol=1e-12)  # symmetry
    # antipodal points at sigma=30 km underflow to exactly 0, which is fine
    assert np.all(G >= 0) and np.all(G <= 1.0)


def test_parse_kernel_round_trip():
    for spec in (
        "gaussian:sigma=1.0",
        "linear",
        "poly:c=1,p=2",
        "haversine:sigma=30,radius=6371",
    ):
        k = parse_kernel(spec)
        k2 = parse_kernel(k.spec_string())
        assert k == k2


def test_parse_kernel_matches_constructors():
    assert parse_kernel("gaussian:sigma=0.3") == Kernel("gaussian", sigma=0.3)
    assert parse_kernel("linear") == Kernel("linear")
    assert parse_kernel("poly:c=2,p=3") == Kernel("poly", offset=2.0, degree=3)
    assert parse_kernel("haversine:sigma=30,radius=6371") == Kernel(
        "haversine", sigma=30.0, radius=6371.0)


def test_parse_kernel_rejects_unknown():
    with pytest.raises(InputError, match="unknown kernel 'rbf'"):
        parse_kernel("rbf:sigma=1")
    with pytest.raises(InputError,
                       match=r"unknown kernel parameters \['bandwidth'\] for 'gaussian'"):
        parse_kernel("gaussian:bandwidth=1")


@pytest.mark.parametrize("spec", [
    "gaussian:sigma=abc",
    "gaussian:sigma=inf",
    "gaussian:sigma=nan",
    "poly:p=2.5",
    "poly:c=-inf,p=2",
    "haversine:sigma=30,radius=inf",
])
def test_parse_kernel_rejects_bad_values(spec):
    with pytest.raises(InputError):
        parse_kernel(spec)


def test_kernel_validation():
    with pytest.raises(InputError):
        Kernel("gaussian", sigma=0.0)
    with pytest.raises(InputError):
        Kernel("gaussian", sigma=-1.0)
    with pytest.raises(InputError):
        Kernel("poly", offset=1.0, degree=0)
    # an infinite degree raised OverflowError, and a nan offset was accepted
    # until kernel_cca failed in scipy with a bare ValueError
    for bad in (dict(degree=np.inf), dict(offset=np.nan), dict(offset="1"), dict(radius=np.nan)):
        with pytest.raises(InputError, match="finite real number"):
            Kernel("poly", **bad)


@pytest.mark.parametrize("kern", [Kernel("gaussian", sigma=0.5),
                                  Kernel("poly", offset=1.0, degree=3)])
def test_pivoted_cholesky_residual_and_triangular_pivots(kern):
    rng = np.random.default_rng(20)
    A = rng.standard_normal((300, 2))
    L, piv, residual = pivoted_cholesky(kern, A)
    G = gram_matrix(kern, A).entries
    scale = kernel_diagonal(kern, A).max()
    assert 0 < piv.shape[0] < 300
    assert residual.max() <= FACTOR_TOL * scale
    np.testing.assert_allclose(residual, np.diag(G) - np.sum(L * L, axis=1),
                               rtol=0, atol=1e-13 * scale)
    # a PSD residual has |E_ij| <= max_i E_ii
    assert np.abs(G - L @ L.T).max() <= 2 * FACTOR_TOL * scale
    block = L[piv]
    assert np.all(np.triu(block, 1) == 0.0)
    assert np.all(np.diag(block) > 0.0)
    # a pivot's own row of G is reproduced through the pivot block
    np.testing.assert_allclose(G[:, piv], L @ block.T, rtol=0, atol=1e-12 * scale)


def test_pivoted_cholesky_linear_kernel_has_rank_d():
    rng = np.random.default_rng(21)
    A = rng.standard_normal((50, 3))
    L, piv, _ = pivoted_cholesky(Kernel("linear"), A)
    assert piv.shape[0] == 3
    np.testing.assert_allclose(L @ L.T, A @ A.T, rtol=0, atol=1e-12)


def test_pivoted_cholesky_names_an_exhausted_rank():
    rng = np.random.default_rng(22)
    with pytest.raises(InputError, match="numerical rank 2"):
        pivoted_cholesky(Kernel("linear"), rng.standard_normal((20, 2)), min_rank=3)
    twins = np.repeat(rng.standard_normal((2, 2)), 5, axis=0)  # two distinct points
    with pytest.raises(InputError, match="numerical rank 2"):
        pivoted_cholesky(Kernel("gaussian", sigma=1.0), twins, min_rank=3)
    # below the tolerance but not exhausted: pivoting goes on to min_rank
    tight, kern = 0.3 * rng.standard_normal((30, 1)), Kernel("gaussian", sigma=3.0)
    rank = pivoted_cholesky(kern, tight)[1].shape[0]
    assert pivoted_cholesky(kern, tight, min_rank=rank + 1)[1].shape[0] == rank + 1


def test_pivoted_cholesky_checks_memory_before_growing(monkeypatch):
    from cohsets import linalg

    monkeypatch.setattr(linalg, "available_memory", lambda: 1000)  # bytes
    with pytest.raises(InputError, match="pivoted-Cholesky factor"):
        pivoted_cholesky(Kernel("gaussian", sigma=1.0), np.zeros((100, 2)))


# point counts below, at and far above one panel of candidate pivots
_FACTOR_SIZES = (PANEL - 5, PANEL, 301)


def _factor_points(kern, n, d):
    rng = np.random.default_rng(24)
    if kern.variant == "haversine":
        return np.column_stack([rng.uniform(-180, 180, n), rng.uniform(-90, 90, n)])
    return rng.standard_normal((n, d))


@pytest.mark.parametrize("kern, d, min_rank", [
    (Kernel("gaussian", sigma=0.7), 2, 1), (Kernel("gaussian", sigma=0.7), 2, 90),
    (Kernel("gaussian", sigma=1.5), 5, 1),
    (Kernel("poly", offset=1.0, degree=3), 3, 1), (Kernel("poly", offset=1.0, degree=3), 3, 20),
    (Kernel("linear"), 4, 4), (Kernel("haversine", sigma=800.0), 2, 1),
])
def test_pivoted_cholesky_matches_the_reference_loop(kern, d, min_rank):
    """The panels change only the rounding of the greedy loop: the same
    pivots, and L L^T and the residual within 1e-13 of the kernel scale. L
    itself may move by about 3e-9 sqrt(scale) in late columns, where the
    division by a small pivot magnifies rounding."""
    for n in _FACTOR_SIZES:
        A = _factor_points(kern, n, d)
        rank = min(min_rank, n)
        L, piv, residual = pivoted_cholesky(kern, A, rank)
        ref_L, ref_piv, ref_res = pivoted_cholesky_reference(
            lambda P, Q: gram_matrix(kern, P, Q).entries, kernel_diagonal(kern, A), A, rank,
            FACTOR_TOL)
        scale = kernel_diagonal(kern, A).max()
        assert piv.shape[0] >= min(max(rank, 4), n)
        assert np.array_equal(piv, ref_piv)
        np.testing.assert_allclose(L @ L.T, ref_L @ ref_L.T, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(residual, ref_res, rtol=0, atol=1e-13 * scale)


def test_pivoted_cholesky_is_bitwise_the_same_on_every_run_and_thread():
    kern = Kernel("gaussian", sigma=0.7)
    for n in _FACTOR_SIZES:
        A = _factor_points(kern, n, 2)
        first = pivoted_cholesky(kern, A)
        with ThreadPoolExecutor(max_workers=1) as pool:
            on_worker = pool.submit(pivoted_cholesky, kern, A).result()
        for again in (pivoted_cholesky(kern, A), on_worker):
            assert all(np.array_equal(a, b) for a, b in zip(first, again))


# prints a digest of every array a library call returns, for each point count
_FACTOR_DIGEST = """
import hashlib, sys
import numpy as np
from cohsets import Kernel, kernel_pca
from cohsets.kernels import pivoted_cholesky
kern, digest = Kernel("gaussian", sigma=0.3), hashlib.sha256()
for n in map(int, sys.argv[2:]):
    A = np.random.default_rng(24).standard_normal((n, 2))
    if sys.argv[1] == "pivoted_cholesky":
        arrays = pivoted_cholesky(kern, A)
    else:
        arrays = [a for c in kernel_pca(A, kern, 3)
                  for a in (c.eigenvalue, c.coefficients, c.train_values, c.expansion.coeffs)]
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
print(digest.hexdigest())
"""


@pytest.mark.parametrize("call", ["pivoted_cholesky", "kernel_pca"])
def test_factor_bits_do_not_depend_on_the_blas_thread_count(call):
    """Library calls, outside any CLI scope, give the same bits at 1 and 2
    OpenBLAS threads: each enters linalg.serial_blas itself. Without it, two
    threads change the bits of the factor at n=301, where it has full rank."""
    package_root = Path(cohsets.__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(package_root), os.environ.get("PYTHONPATH")]))
    sizes = [str(n) for n in _FACTOR_SIZES]
    digests = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _FACTOR_DIGEST, call, *sizes],
            env=dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_pivoted_cholesky_factor_owns_exactly_its_rows():
    """L is not a view of the larger buffer the factor grew in."""
    A = np.random.default_rng(23).standard_normal((200, 3))
    for kern in (Kernel("linear"), Kernel("gaussian", sigma=0.5)):
        L, piv, _ = pivoted_cholesky(kern, A)
        owner = L if L.base is None else L.base
        assert L.shape == (200, piv.shape[0])
        assert owner.shape == (piv.shape[0], 200)
