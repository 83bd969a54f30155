"""Kernel CCA: dense oracles, spectral invariants, and evaluation."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from cohsets import (
    InputError,
    Kernel,
    KernelExpansion,
    NumericalError,
    RegParam,
    TrajectoryPairs,
    evaluate_eigenfunctions,
    gram_matrix,
    kernel_cca,
)
from cohsets.cca import _EVAL_BLOCK, _FactorView, _gram_cca_core, _result
from cohsets.kernels import center_gram
from cohsets.modes import SnapshotMatrices, cmd
from oracles import ORACLES, superellipse_pairs

GAUSS = Kernel("gaussian", sigma=1.0)

# 95th percentile of rho_1 over 100 random shuffles of the Y view for the
# independent-views instance below (n=500, Gaussian sigma=1, eps=0.01),
# computed once with this file's exact construction and frozen.
PERMUTATION_NULL_95 = 0.2646


def _random_pairs(n, seed, d=2, coupled=True):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    Y = X + 0.3 * rng.standard_normal((n, d)) if coupled else rng.standard_normal((n, d))
    return TrajectoryPairs(X, Y)


def _views(pairs, kern, k, centered=True):
    return _FactorView(kern, pairs.X, k, centered), _FactorView(kern, pairs.Y, k, centered)


def _cca(pairs, eps, k, variant, centered=True):
    """kernel_cca for variant 'ii'; for variant 'i' (CMD's), the core on
    kernel_cca's factors, packaged by kernel_cca's result builder."""
    if variant == "ii":
        return kernel_cca(pairs, GAUSS, GAUSS, RegParam(eps), k, centered=centered)
    view_x, view_y = _views(pairs, GAUSS, k, centered)
    solution = _gram_cca_core(view_x.L, view_y.L, RegParam(eps).effective(pairs.n), k, "i")
    return _result(*solution, view_x, view_y)


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
    kern = Kernel("gaussian", sigma=0.3)
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
    lin = Kernel("linear")
    k = 3
    rho = kernel_cca(TrajectoryPairs(X, Y), lin, lin, RegParam(eps), k).rho
    for oracle in ORACLES:
        np.testing.assert_allclose(rho, oracle(X, Y, eps, k), atol=1e-6)


def test_variant_i_matches_variant_ii():
    pairs = _random_pairs(25, 4)
    r_ii = _cca(pairs, 1e-4, 4, "ii").rho
    r_i = _cca(pairs, 1e-4, 4, "i").rho
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
    """The core's V, F and W against their defining equations, checked with
    dense solves; for variant ii, kernel_cca returns that solution, with
    f = Gx F on the samples."""
    n, k, eps = 40, 4, 1e-3
    pairs = _random_pairs(n, 17, d=6)
    eff = n * eps
    view_x, view_y = _views(pairs, GAUSS, k, centered)
    rho, V, F, W = _gram_cca_core(view_x.L, view_y.L, eff, k, variant)
    Gx, Gy = _dense_grams(pairs, centered)
    A = _dense_operator(Gx, Gy, eff, variant)
    np.testing.assert_allclose(np.linalg.norm(V, axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(A @ V, V * rho**2, atol=1e-9)
    F_dense = np.linalg.solve(Gx + eff * np.eye(n), V) if variant == "ii" else V
    np.testing.assert_allclose(F, F_dense, rtol=1e-8, atol=1e-10 * np.abs(F_dense).max())
    W_rho = np.linalg.solve(Gy + eff * np.eye(n), Gx @ F_dense)
    _assert_equal_up_to_column_sign(W * rho, W_rho, 1e-8)
    if variant == "ii":
        res = kernel_cca(pairs, GAUSS, GAUSS, RegParam(eps), k, centered=centered)
        np.testing.assert_array_equal(res.rho, rho)
        np.testing.assert_array_equal(res.v_vectors, V)
        _assert_equal_up_to_column_sign(res.f_on_X, Gx @ F_dense, 1e-8)
    else:
        snap = SnapshotMatrices(pairs.X.T, pairs.Y.T)
        modes = cmd(snap, RegParam(eps), k, centered=centered)
        lin_x, lin_y = _views(pairs, Kernel("linear"), k, centered)
        lin_rho, _, _, lin_W = _gram_cca_core(lin_x.L, lin_y.L, eff, k, "i")
        np.testing.assert_allclose(modes.rho, lin_rho, atol=1e-12)
        _assert_equal_up_to_column_sign(modes.w, lin_W, 1e-8)


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
    k1, k2 = Kernel("gaussian", sigma=1.0), Kernel("gaussian", sigma=c)
    G1 = gram_matrix(k1, pairs.X).entries
    G2 = gram_matrix(k2, scaled.X).entries
    assert G1.tobytes() == G2.tobytes()
    r1 = kernel_cca(pairs, k1, k1, RegParam(1e-4), 3).rho
    r2 = kernel_cca(scaled, k2, k2, RegParam(1e-4), 3).rho
    np.testing.assert_array_equal(r1, r2)


def test_spectral_range_invariant():
    for seed in range(20):
        pairs = _random_pairs(15, seed, coupled=bool(seed % 2))
        reg = RegParam(10.0 ** -(seed % 6 + 1))
        res = kernel_cca(pairs, GAUSS, GAUSS, reg, 5, centered=seed < 10)
        assert np.all(res.rho >= 0)
        assert np.all(res.rho < 1.0)
        assert np.all(np.diff(res.rho) <= 1e-12)  # sorted nonincreasing


def test_spectral_range_check_covers_uncentered_grams(monkeypatch):
    """rho^2 < 1 holds for any PSD Gram with eps > 0, so the range check runs
    on uncentered calls too: a top eigenvalue of 1 + 1e-9 is a NumericalError."""
    eigh = scipy.linalg.eigh

    def eigh_past_one(*args, **kwargs):
        vals, vecs = eigh(*args, **kwargs)
        vals[-1] = 1.0 + 1e-9
        return vals, vecs

    monkeypatch.setattr(scipy.linalg, "eigh", eigh_past_one)
    with pytest.raises(NumericalError, match=r"escaped \[0,1\)"):
        kernel_cca(_random_pairs(20, 27), GAUSS, GAUSS, RegParam(1e-3), 2, centered=False)


def test_generalized_sign_convention():
    """The result builder flips each g so that corr(f, g) >= 0 on the samples."""
    pairs = _random_pairs(25, 9)
    for variant in ("i", "ii"):
        res = _cca(pairs, 1e-3, 3, variant)
        for j in range(3):
            f, g = res.f_on_X[:, j], res.g_on_Y[:, j]
            assert np.corrcoef(f, g)[0, 1] >= -1e-10


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
        kernel_cca(TrajectoryPairs(X, Y), GAUSS, Kernel("linear"), reg, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel_cca(TrajectoryPairs(X, Y / 3e4), GAUSS, Kernel("linear"), reg, 2)


def test_evaluate_eigenfunction_consistency():
    pairs = _random_pairs(18, 12)
    res = kernel_cca(pairs, GAUSS, GAUSS, RegParam(1e-3), 3)
    for i in (0, 5, 17):
        # one point at a time, as a 1-D array
        f_i = evaluate_eigenfunctions(res, "f", pairs.X[i])
        g_i = evaluate_eigenfunctions(res, "g", pairs.Y[i])
        assert f_i.shape == g_i.shape == (1, 3)
        np.testing.assert_allclose(f_i[0], res.f_on_X[i], atol=1e-6)
        np.testing.assert_allclose(g_i[0], res.g_on_Y[i], atol=1e-6)
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
    val = evaluate_eigenfunctions(res, "f", mid)[0, 0]
    avg = 0.5 * (res.f_on_X[i, 0] + res.f_on_X[j, 0])
    span = np.ptp(res.f_on_X[:, 0])
    assert abs(val - avg) < 0.5 * span * max(d[i, j], 0.1)


def test_evaluate_eigenfunction_errors():
    pairs = _random_pairs(10, 14)
    res = kernel_cca(pairs, GAUSS, GAUSS, RegParam(1e-3), 2)
    with pytest.raises(InputError, match="which must be"):
        evaluate_eigenfunctions(res, "h", pairs.X[0])
    with pytest.raises(InputError, match="point dimension 3"):
        evaluate_eigenfunctions(res, "f", np.ones((4, 3)))  # the views are 2-dimensional
    with pytest.raises(InputError, match="point dimension 1"):
        evaluate_eigenfunctions(res, "g", pairs.Y[0, :1])
    with pytest.raises(InputError, match="non-finite"):
        evaluate_eigenfunctions(res, "f", [[0.0, np.nan]])


@pytest.mark.parametrize("shape, dtype", [((7, 3), float), ((7,), float), ((7, 2), complex)])
def test_kernel_expansion_matches_dense_evaluation(shape, dtype):
    """Blocked evaluation across block edges equals one dense k(P, A) @ c - offset."""
    rng = np.random.default_rng(23)
    anchors = rng.standard_normal((7, 2))
    coeffs = rng.standard_normal(shape)
    offset = rng.standard_normal(shape[1:])
    if dtype is complex:
        coeffs = coeffs + 1j * rng.standard_normal(shape)
        offset = offset + 1j * rng.standard_normal(shape[1:])
    points = rng.standard_normal((2 * _EVAL_BLOCK + 3, 2))
    values = KernelExpansion(GAUSS, anchors, coeffs, offset)(points)
    d2 = np.sum((points[:, None, :] - anchors[None, :, :]) ** 2, axis=2)
    dense = np.exp(-d2 / 2.0) @ coeffs - offset
    assert values.shape == dense.shape and values.dtype == dense.dtype
    np.testing.assert_allclose(values, dense, rtol=0, atol=1e-12 * np.abs(dense).max())


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
    """kernel_cca (variant i: the core on its factors) against dense Grams,
    dense solves and a dense eigensolve, on the training samples and
    off-sample, for both views. The factor ranks stay
    below n, so the solves outside the factors' range are exercised."""
    n, k, eps = 400, 4, 1e-5
    pairs = _random_pairs(n, 19)
    res = _cca(pairs, eps, k, variant, centered)
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
        _cca(_random_pairs(200, 23), 1e-5, 3, variant)


def test_rank_below_k_is_an_input_error():
    pairs = _random_pairs(30, 22)  # two-dimensional points: a linear Gram of rank 2
    with pytest.raises(InputError, match="numerical rank 2"):
        kernel_cca(pairs, Kernel("linear"), Kernel("linear"), RegParam(1e-3), 3)


def test_concurrent_factors_are_bitwise_the_sequential_ones():
    """kernel_cca builds its two factors on two threads; each is the same to
    the bit as a factor built alone, and so is everything made from them."""
    pairs, reg, k = _random_pairs(1001, 24), RegParam(1e-6), 5
    kern_x, kern_y = GAUSS, Kernel("gaussian", sigma=0.8)
    res = kernel_cca(pairs, kern_x, kern_y, reg, k)
    view_x = _FactorView(kern_x, pairs.X, k, True)
    view_y = _FactorView(kern_y, pairs.Y, k, True)
    rho, V, F, W = _gram_cca_core(view_x.L, view_y.L, reg.effective(pairs.n), k, "ii")
    ref = _result(rho, V, F, W, view_x, view_y)
    assert res.factor == ref.factor
    for got, want in ((res.f, ref.f), (res.g, ref.g)):
        assert np.array_equal(got.anchors, want.anchors)
        assert np.array_equal(got.coeffs, want.coeffs)


def test_factor_memory_guard_raises_its_own_error(monkeypatch):
    """The guard's InputError reaches the caller as itself, not wrapped by a thread."""
    from cohsets import linalg

    monkeypatch.setattr(linalg, "available_memory", lambda: 1000)  # bytes
    with pytest.raises(InputError, match="pivoted-Cholesky factor"):
        kernel_cca(_random_pairs(100, 25), GAUSS, GAUSS, RegParam(1e-5), 3)


def test_rank_deficient_y_view_is_an_input_error():
    rng = np.random.default_rng(26)
    X = rng.standard_normal((40, 2))
    Y = np.repeat(rng.standard_normal((2, 2)), 20, axis=0)  # two distinct points
    with pytest.raises(InputError, match="numerical rank 2"):
        kernel_cca(TrajectoryPairs(X, Y), GAUSS, GAUSS, RegParam(1e-3), 3)
