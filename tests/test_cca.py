"""Kernel CCA: four formulations, spectral invariants, and evaluation."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from cohsets import (
    InputError,
    Kernel,
    NumericalError,
    RegParam,
    TrajectoryPairs,
    evaluate_eigenfunction,
    evaluate_eigenfunctions,
    explicit_cca,
    gram_matrix,
    kernel_cca,
    kernel_cca_generalized,
    whitened_svd_cca,
)
from cohsets.dynamics import superellipse_pairs
from cohsets.kernels import GramMatrix, center_gram
from cohsets.modes import SnapshotMatrices, cmd

GAUSS = Kernel.gaussian(1.0)

# 95th percentile of rho_1 over 100 random shuffles of the Y view for the
# independent-views instance below (n=500, Gaussian sigma=1, eps=0.01),
# computed once with this file's exact construction and frozen.
PERMUTATION_NULL_95 = 0.2646


def _random_pairs(n, seed, d=2, coupled=True):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    Y = X + 0.3 * rng.standard_normal((n, d)) if coupled else rng.standard_normal((n, d))
    return TrajectoryPairs(X, Y)


def test_identical_views_match_direct_oracle():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 2))
    eps = 1e-8
    res = kernel_cca(TrajectoryPairs(X, X), GAUSS, GAUSS, RegParam(eps), 5)
    assert res.rho[0] > 0.999
    # oracle: rho = g / (g + n*eps) for eigenvalues g of the centered Gram
    G = center_gram(gram_matrix(GAUSS, X)).entries
    g = np.sort(np.linalg.eigvalsh(G))[::-1][:5]
    np.testing.assert_allclose(res.rho, g / (g + 20 * eps), atol=1e-8)


def test_independent_views_below_null():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((500, 2))
    Y = rng.standard_normal((500, 2))
    res = kernel_cca(TrajectoryPairs(X, Y), GAUSS, GAUSS, RegParam(0.01), 1)
    assert res.rho[0] < 0.35
    assert res.rho[0] < PERMUTATION_NULL_95 + 0.05


def test_superellipse_views_highly_correlated():
    pairs = superellipse_pairs(500, seed=3)
    kern = Kernel.gaussian(0.3)
    res = kernel_cca(pairs, kern, kern, RegParam(1e-5), 3)
    corr = np.corrcoef(res.f_on_X[:, 0], res.g_on_Y[:, 0])[0, 1]
    assert corr > 0.9


@pytest.mark.parametrize("eps", [1e-2, 1e-6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_four_formulations_agree(eps, seed):
    rng = np.random.default_rng(seed)
    n, d = 30, 3
    X = rng.standard_normal((n, d))
    Y = X @ rng.standard_normal((d, d)) + 0.2 * rng.standard_normal((n, d))
    pairs = TrajectoryPairs(X, Y)
    reg = RegParam(eps)
    lin = Kernel.linear()
    k = 3
    r1 = kernel_cca(pairs, lin, lin, reg, k).rho
    r2 = kernel_cca_generalized(pairs, lin, lin, reg, k).rho
    r3 = explicit_cca(X.T, Y.T, reg, k).rho
    r4 = whitened_svd_cca(X.T, Y.T, reg, k).rho
    np.testing.assert_allclose(r1, r2, atol=1e-6)
    np.testing.assert_allclose(r1, r3, atol=1e-6)
    np.testing.assert_allclose(r1, r4, atol=1e-6)


def test_variant_i_matches_variant_ii():
    pairs = _random_pairs(25, 4)
    r_ii = kernel_cca(pairs, GAUSS, GAUSS, RegParam(1e-4), 4, variant="ii").rho
    r_i = kernel_cca(pairs, GAUSS, GAUSS, RegParam(1e-4), 4, variant="i").rho
    np.testing.assert_allclose(r_i, r_ii, atol=1e-8)


def _dense_grams(pairs, centered):
    Gx, Gy = gram_matrix(GAUSS, pairs.X), gram_matrix(GAUSS, pairs.Y)
    if centered:
        Gx, Gy = center_gram(Gx), center_gram(Gy)
    return Gx.entries, Gy.entries


def _dense_operator(Gx, Gy, eff, variant):
    """The nonsymmetric matrix whose eigenpairs are (rho^2, v), from explicit inverses."""
    n = Gx.shape[0]
    Rx = np.linalg.solve(Gx + eff * np.eye(n), np.eye(n))
    Ry = np.linalg.solve(Gy + eff * np.eye(n), np.eye(n))
    return Gx @ Rx @ Ry @ Gy if variant == "ii" else Rx @ Ry @ Gy @ Gx


def test_whitened_and_direct_methods_agree():
    pairs = _random_pairs(25, 5)
    a = kernel_cca(pairs, GAUSS, GAUSS, RegParam(1e-4), 4).rho
    # direct oracle: dense nonsymmetric eigensolve of the variant-ii matrix
    Gx, Gy = _dense_grams(pairs, centered=True)
    vals = np.linalg.eigvals(_dense_operator(Gx, Gy, 25 * 1e-4, "ii"))
    b = np.sqrt(np.clip(np.sort(vals.real)[::-1][:4], 0.0, None))
    np.testing.assert_allclose(a, b, atol=1e-8)


def _assert_equal_up_to_column_sign(a, b, rtol):
    for j in range(b.shape[1]):
        sign = 1.0 if a[:, j] @ b[:, j] >= 0 else -1.0
        np.testing.assert_allclose(sign * a[:, j], b[:, j], rtol=0,
                                   atol=rtol * np.linalg.norm(b[:, j]))


@pytest.mark.parametrize("centered", [True, False])
@pytest.mark.parametrize("variant", ["i", "ii"])
def test_coefficients_satisfy_defining_equations(variant, centered):
    """V, F and W against their defining equations, checked with dense solves."""
    n, k, eps = 40, 4, 1e-3
    pairs = _random_pairs(n, 17, d=6)
    res = kernel_cca(pairs, GAUSS, GAUSS, RegParam(eps), k, centered=centered, variant=variant)
    Gx, Gy = _dense_grams(pairs, centered)
    eff = n * eps
    A = _dense_operator(Gx, Gy, eff, variant)
    V = res.v_vectors
    np.testing.assert_allclose(np.linalg.norm(V, axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(A @ V, V * res.rho**2, atol=1e-9)
    F = np.linalg.solve(Gx + eff * np.eye(n), V) if variant == "ii" else V
    np.testing.assert_allclose(res.f_coeffs, F, rtol=1e-8, atol=1e-10 * np.abs(F).max())
    W_rho = np.linalg.solve(Gy + eff * np.eye(n), Gx @ F)
    _assert_equal_up_to_column_sign(res.w_vectors * res.rho, W_rho, 1e-8)
    if variant == "i":
        snap = SnapshotMatrices(pairs.X.T, pairs.Y.T)
        modes = cmd(snap, RegParam(eps), k, centered=centered)
        lin = kernel_cca(pairs, Kernel.linear(), Kernel.linear(), RegParam(eps), k,
                         centered=centered, variant="i")
        np.testing.assert_allclose(modes.rho, lin.rho, atol=1e-12)
        _assert_equal_up_to_column_sign(modes.w, lin.w_vectors, 1e-8)


def test_permutation_equivariance():
    pairs = _random_pairs(30, 6)
    res = kernel_cca(pairs, GAUSS, GAUSS, RegParam(1e-3), 3)
    perm = np.random.default_rng(7).permutation(30)
    permuted = TrajectoryPairs(pairs.X[perm], pairs.Y[perm])
    res_p = kernel_cca(permuted, GAUSS, GAUSS, RegParam(1e-3), 3)
    np.testing.assert_allclose(res.rho, res_p.rho, atol=1e-8)
    # eigenfunction values travel with the samples, up to a per-column sign
    for j in range(3):
        a, b = res.f_on_X[perm, j], res_p.f_on_X[:, j]
        sign = np.sign(a @ b)
        np.testing.assert_allclose(sign * b, a, atol=1e-7)


def test_kernel_scale_invariance_is_exact():
    """Scaling all coordinates and sigma by the same power of two leaves the
    Gram matrix bitwise identical, hence rho identical."""
    pairs = _random_pairs(20, 8)
    c = 2.0
    scaled = TrajectoryPairs(pairs.X * c, pairs.Y * c)
    k1, k2 = Kernel.gaussian(1.0), Kernel.gaussian(c)
    G1 = gram_matrix(k1, pairs.X).entries
    G2 = gram_matrix(k2, scaled.X).entries
    assert G1.tobytes() == G2.tobytes()
    r1 = kernel_cca(pairs, k1, k1, RegParam(1e-4), 3).rho
    r2 = kernel_cca(scaled, k2, k2, RegParam(1e-4), 3).rho
    np.testing.assert_array_equal(r1, r2)


def test_spectral_range_invariant():
    for seed in range(10):
        pairs = _random_pairs(15, seed, coupled=bool(seed % 2))
        res = kernel_cca(pairs, GAUSS, GAUSS, RegParam(10.0 ** -(seed % 6 + 1)), 5)
        assert np.all(res.rho >= 0)
        assert np.all(res.rho < 1.0)
        assert np.all(np.diff(res.rho) <= 1e-12)  # sorted nonincreasing


def test_generalized_sign_convention():
    pairs = _random_pairs(25, 9)
    res = kernel_cca_generalized(pairs, GAUSS, GAUSS, RegParam(1e-3), 3)
    for j in range(3):
        f, g = res.f_on_X[:, j], res.g_on_Y[:, j]
        assert np.corrcoef(f, g)[0, 1] >= -1e-10


@pytest.mark.parametrize("formulation", [explicit_cca, whitened_svd_cca])
def test_explicit_results_evaluate_at_their_features(formulation):
    rng = np.random.default_rng(17)
    fx = rng.standard_normal((3, 40))
    fy = fx[:2] + 0.3 * rng.standard_normal((2, 40))
    res = formulation(fx, fy, RegParam(1e-3), 2)
    np.testing.assert_allclose(evaluate_eigenfunctions(res, "f", fx.T), res.f_on_X, atol=1e-12)
    np.testing.assert_allclose(evaluate_eigenfunctions(res, "g", fy.T), res.g_on_Y, atol=1e-12)
    with pytest.raises(InputError):
        evaluate_eigenfunctions(res, "f", fy.T)  # a Y-view feature vector has 2 entries
    with pytest.raises(InputError):
        evaluate_eigenfunction(res, "g", 0, fx[:, 0])


def test_explicit_cca_rank_deficient_unregularized():
    rng = np.random.default_rng(10)
    base = rng.standard_normal((2, 20))
    fx = np.vstack([base, base[0]])  # redundant third feature
    fy = rng.standard_normal((3, 20))
    with pytest.raises(NumericalError, match="redundant basis functions"):
        explicit_cca(fx, fy, RegParam(0.0), 2)


def test_input_validation():
    pairs = _random_pairs(10, 11)
    with pytest.raises(InputError):
        kernel_cca(pairs, GAUSS, GAUSS, RegParam(0.0), 2)  # eps must be > 0
    with pytest.raises(InputError):
        kernel_cca(TrajectoryPairs(np.ones((1, 2)), np.ones((1, 2))),
                   GAUSS, GAUSS, RegParam(1e-3), 1)
    with pytest.raises(InputError):
        TrajectoryPairs(np.ones((3, 2)), np.ones((4, 2)))


def test_conditioning_warning_covers_both_views():
    rng = np.random.default_rng(18)
    X = rng.standard_normal((20, 2))
    Y = 3e4 * rng.standard_normal((20, 2))  # linear Gram diagonal ~1e9
    reg = RegParam(1e-9)
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        kernel_cca(TrajectoryPairs(X, Y), GAUSS, Kernel.linear(), reg, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel_cca(TrajectoryPairs(X, Y / 3e4), GAUSS, Kernel.linear(), reg, 2)


def test_evaluate_eigenfunction_consistency():
    pairs = _random_pairs(18, 12)
    res = kernel_cca(pairs, GAUSS, GAUSS, RegParam(1e-3), 3)
    for i in (0, 5, 17):
        for j in range(3):
            assert evaluate_eigenfunction(res, "f", j, pairs.X[i]) == pytest.approx(
                res.f_on_X[i, j], abs=1e-6
            )
            assert evaluate_eigenfunction(res, "g", j, pairs.Y[i]) == pytest.approx(
                res.g_on_Y[i, j], abs=1e-6
            )
    batch = evaluate_eigenfunctions(res, "f", pairs.X)
    np.testing.assert_allclose(batch, res.f_on_X, atol=1e-6)


def test_evaluate_eigenfunction_smooth_between_neighbors():
    pairs = _random_pairs(18, 13)
    res = kernel_cca(pairs, GAUSS, GAUSS, RegParam(1e-2), 2)
    # two nearby training points: the midpoint value stays near their average
    d = np.linalg.norm(pairs.X[:, None] - pairs.X[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    i, j = np.unravel_index(np.argmin(d), d.shape)
    mid = 0.5 * (pairs.X[i] + pairs.X[j])
    val = evaluate_eigenfunction(res, "f", 0, mid)
    avg = 0.5 * (res.f_on_X[i, 0] + res.f_on_X[j, 0])
    span = np.ptp(res.f_on_X[:, 0])
    assert abs(val - avg) < 0.5 * span * max(d[i, j], 0.1)


def test_evaluate_eigenfunction_errors():
    pairs = _random_pairs(10, 14)
    res = kernel_cca(pairs, GAUSS, GAUSS, RegParam(1e-3), 2)
    with pytest.raises(InputError):
        evaluate_eigenfunction(res, "f", 5, pairs.X[0])
    with pytest.raises(InputError):
        evaluate_eigenfunction(res, "h", 0, pairs.X[0])


def test_result_save_round_trip(tmp_path):
    pairs = _random_pairs(12, 15)
    res = kernel_cca(pairs, GAUSS, GAUSS, RegParam(1e-3), 3)
    res.save(tmp_path)
    for name in ("rho.csv", "v.csv", "w.csv", "f_on_X.csv", "g_on_Y.csv", "metadata.json"):
        assert (tmp_path / name).exists()
    rho = np.loadtxt(tmp_path / "rho.csv", delimiter=",")
    np.testing.assert_allclose(rho, res.rho, rtol=1e-12)
    f = np.loadtxt(tmp_path / "f_on_X.csv", delimiter=",")
    np.testing.assert_allclose(f, res.f_on_X, rtol=1e-12)


def test_uncentered_flag_changes_spectrum():
    pairs = _random_pairs(20, 16)
    a = kernel_cca(pairs, GAUSS, GAUSS, RegParam(1e-3), 3, centered=True).rho
    b = kernel_cca(pairs, GAUSS, GAUSS, RegParam(1e-3), 3, centered=False).rho
    # the uncentered problem keeps the constant direction, so spectra differ
    assert not np.allclose(a, b, atol=1e-6)
    assert np.all(b >= 0) and np.all(b < 1.0)


@pytest.mark.parametrize("centered", [True, False])
@pytest.mark.parametrize("variant", ["i", "ii"])
def test_factor_route_matches_dense_oracle(variant, centered):
    """kernel_cca against dense Grams, dense solves and a dense eigensolve, on
    the training samples and off-sample, for both views. The factor ranks stay
    below n, so the solves outside the factors' range are exercised."""
    n, k, eps = 400, 4, 1e-5
    pairs = _random_pairs(n, 19)
    res = kernel_cca(pairs, GAUSS, GAUSS, RegParam(eps), k, centered=centered, variant=variant)
    assert res.factor["x"]["rank"] < n and res.factor["y"]["rank"] < n
    Gx, Gy = _dense_grams(pairs, centered)
    eff = n * eps
    # the dense variant-i matrix is the worse conditioned one (its own eigensolve
    # misses rho by 2e-8 here), so both variants start from the variant-ii
    # eigenvectors; v_i is proportional to (Gx+eff)^-1 (Gy+eff)^-1 Gy v_ii
    vals, vecs = np.linalg.eig(_dense_operator(Gx, Gy, eff, "ii"))
    order = np.argsort(-vals.real)[:k]
    rho = np.sqrt(vals.real[order])
    np.testing.assert_allclose(res.rho, rho, rtol=0, atol=1e-8)
    Rx, Ry = Gx + eff * np.eye(n), Gy + eff * np.eye(n)
    V = vecs.real[:, order]
    if variant == "i":
        V = np.linalg.solve(Rx, np.linalg.solve(Ry, Gy @ V))
        V /= np.linalg.norm(V, axis=0)
    _assert_equal_up_to_column_sign(res.v_vectors, V, 1e-6)
    F = np.linalg.solve(Rx, V) if variant == "ii" else V
    W = np.linalg.solve(Ry, Gx @ F) / rho
    _assert_equal_up_to_column_sign(res.f_on_X, Gx @ F, 1e-6)
    _assert_equal_up_to_column_sign(res.g_on_Y, Gy @ W, 1e-6)
    # off-sample: the (centered) kernel rows of new points against all n samples
    points = np.random.default_rng(20).standard_normal((50, 2))
    for which, train, C in (("f", pairs.X, F), ("g", pairs.Y, W)):
        K = gram_matrix(GAUSS, points, train).entries
        if centered:
            raw = gram_matrix(GAUSS, train).entries
            K = K - K.mean(axis=1, keepdims=True) - raw.mean(axis=0) + raw.mean()
        _assert_equal_up_to_column_sign(evaluate_eigenfunctions(res, which, points), K @ C, 1e-6)


def test_kernel_cca_forms_no_n_by_n_array():
    n = 3000
    pairs = _random_pairs(n, 21)
    tracemalloc.start()
    try:
        res = kernel_cca(pairs, GAUSS, GAUSS, RegParam(1e-6), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.factor["x"]["rank"] < n
    assert peak < n * n * 8, f"peak {peak / 1e6:.1f} MB"


def test_kernel_cca_takes_no_svd(monkeypatch):
    def forbidden(*a, **kw):
        pytest.fail("kernel_cca took an SVD")

    for module in (np.linalg, scipy.linalg):
        monkeypatch.setattr(module, "svd", forbidden)
    for variant in ("i", "ii"):
        kernel_cca(_random_pairs(200, 23), GAUSS, GAUSS, RegParam(1e-5), 3, variant=variant)


def test_rank_below_k_is_an_input_error():
    pairs = _random_pairs(30, 22)  # two-dimensional points: a linear Gram of rank 2
    with pytest.raises(InputError, match="numerical rank 2"):
        kernel_cca(pairs, Kernel.linear(), Kernel.linear(), RegParam(1e-3), 3)
