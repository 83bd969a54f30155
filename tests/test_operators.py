"""Finite-rank empirical operators, their eigenproblems, and kernel PCA."""

import functools

import numpy as np
import pytest

from cohsets import (
    EmpiricalOperator,
    InputError,
    Kernel,
    NumericalError,
    RegParam,
    TrajectoryPairs,
    gram_matrix,
    kernel_pca,
    koopman_estimate,
    op_eig_variant_i,
    perron_frobenius_estimate,
)
from cohsets.cca import _EVAL_BLOCK
from cohsets.dynamics import bickley_pairs
from cohsets.kernels import center_gram
from cohsets.operators import eigenfunctions_to_csv
from oracles import kernel_pca_reference, operator_eigenvalues

POLY = Kernel("poly", offset=1.0, degree=2)


def _poly_features(P):
    """Explicit feature map of (1 + x.y)^2 for 2-D inputs: 6 monomial features."""
    x1, x2 = P[:, 0], P[:, 1]
    r2 = np.sqrt(2.0)
    return np.stack([np.ones_like(x1), r2 * x1, r2 * x2, x1**2, r2 * x1 * x2, x2**2])


def _nonzero_sorted(vals, tol=1e-10):
    vals = np.asarray(vals, dtype=complex)
    vals = vals[np.abs(vals) > tol * max(1.0, np.abs(vals).max())]
    return np.sort_complex(vals)


def test_polynomial_kernel_matches_monomial_features():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8, 2))
    Y = rng.standard_normal((8, 2))
    from cohsets import gram_matrix

    G = gram_matrix(POLY, X, Y).entries
    np.testing.assert_allclose(G, _poly_features(X).T @ _poly_features(Y), atol=1e-12)


@pytest.mark.parametrize("which_b", ["mean", "koopman", "pf"])
def test_operator_spectrum_matches_dense_feature_matrix(which_b):
    """Nonzero eigenvalues of B G_XY and G_XY B equal the dense 6x6 operator
    matrix built from explicit monomial features, to 1e-10."""
    rng = np.random.default_rng(7)
    n = 6
    X = rng.standard_normal((n, 2))
    Y = X + 0.1 * rng.standard_normal((n, 2))
    reg = RegParam(1e-3)
    if which_b == "mean":
        op = EmpiricalOperator(np.eye(n) / n, X, Y, POLY)
    elif which_b == "koopman":
        op = koopman_estimate(TrajectoryPairs(X, Y), POLY, reg)
    else:
        op = perron_frobenius_estimate(TrajectoryPairs(X, Y), POLY, reg)
    cross = op.cross_gram()
    dense = _poly_features(op.Y_data) @ op.B @ _poly_features(op.X_data).T
    ref = _nonzero_sorted(np.linalg.eigvals(dense))
    got_i = _nonzero_sorted(np.linalg.eigvals(op.B @ cross))[-ref.size:]
    got_ii = _nonzero_sorted(np.linalg.eigvals(cross @ op.B))[-ref.size:]
    np.testing.assert_allclose(got_i, ref, atol=1e-10)
    np.testing.assert_allclose(got_ii, ref, atol=1e-10)


def _koopman_12():
    rng = np.random.default_rng(3)
    n = 12
    X = rng.standard_normal((n, 2))
    Y = X + 0.05 * rng.standard_normal((n, 2))
    return koopman_estimate(TrajectoryPairs(X, Y), Kernel("gaussian", sigma=1.0), RegParam(1e-4))


def test_variant_i_and_ii_agree_and_evaluate_consistently():
    """The eigenvalues of B G_XY match the phi-side oracle route G_XY B."""
    op = _koopman_12()
    fi = op_eig_variant_i(op, 4)
    np.testing.assert_allclose(
        [f.eigenvalue for f in fi], operator_eigenvalues(op.B, op.cross_gram(), 4), atol=1e-8
    )
    # evaluation at the anchors reproduces the stored training values
    for f in fi:
        np.testing.assert_allclose(f(op.Y_data), f.train_values, atol=1e-6)


def test_every_returned_eigenpair_is_exact():
    """The top 9 eigenvalues of this estimate include the complex pair
    0.9422 +- 0.0751i; each returned pair satisfies B G_XY v = lambda v."""
    op = _koopman_12()
    M = op.B @ op.cross_gram()
    funcs = op_eig_variant_i(op, 9)
    assert len(funcs) == 9
    assert sum(isinstance(f.eigenvalue, complex) for f in funcs) == 9
    assert sum(f.eigenvalue.imag != 0 for f in funcs) == 2
    for f in funcs:
        v = f.coefficients
        assert np.linalg.norm(M @ v - f.eigenvalue * v) / np.linalg.norm(v) <= 1e-10


def test_rotation_koopman_eigenvalues_are_exp_i_theta(tmp_path):
    """Y = X R_theta^T with a linear kernel: the two nonzero Koopman eigenvalues
    are those of R_theta^T, e^{+-i theta}, and the complex eigenfunctions
    evaluate consistently at their anchors."""
    theta = 0.3
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    X = np.random.default_rng(13).standard_normal((50, 2))
    op = koopman_estimate(TrajectoryPairs(X, X @ R.T), Kernel("linear"), RegParam(1e-8))
    funcs = op_eig_variant_i(op, 2)
    np.testing.assert_allclose([f.eigenvalue for f in funcs],
                               [np.exp(1j * theta), np.exp(-1j * theta)], atol=1e-6)
    for f in funcs:
        assert np.iscomplexobj(f.train_values)
        np.testing.assert_allclose(f(op.Y_data), f.train_values, atol=1e-10)
    # the CSV writer round-trips complex values exactly
    eigenfunctions_to_csv(funcs, tmp_path / "funcs.csv")
    row = (tmp_path / "funcs.csv").read_text().splitlines()[2].split(",")
    assert complex(row[1]) == funcs[1].eigenvalue
    assert [complex(c) for c in row[2:]] == funcs[1].coefficients.tolist()


def test_koopman_identity_dynamics_direct_oracle():
    """Y = X: Koopman eigenvalues are g_i / (g_i + n*eps) for Gram eigenvalues g_i."""
    rng = np.random.default_rng(11)
    X = rng.standard_normal((15, 2))
    kern = Kernel("gaussian", sigma=1.0)
    eps = 1e-3
    op = koopman_estimate(TrajectoryPairs(X, X), kern, RegParam(eps))
    funcs = op_eig_variant_i(op, 5)
    from cohsets import gram_matrix

    g = np.sort(np.linalg.eigvalsh(gram_matrix(kern, X).entries))[::-1]
    oracle = g / (g + 15 * eps)
    np.testing.assert_allclose([f.eigenvalue for f in funcs], oracle[:5], atol=1e-10)


def test_koopman_dominant_eigenfunction_near_constant():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((40, 2))
    perm = rng.permutation(40)
    op = koopman_estimate(TrajectoryPairs(X, X[perm]), Kernel("gaussian", sigma=1.5),
                          RegParam(1e-6))
    f = op_eig_variant_i(op, 1)[0]
    assert f.eigenvalue > 0.95
    vals = f.train_values
    assert np.std(vals) / np.abs(np.mean(vals)) < 0.05


def test_pf_koopman_duality():
    """The PF estimate on (X, Y) shares its spectrum with the Koopman estimate
    under the X <-> Y swap."""
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 2))
    Y = X + 0.2 * rng.standard_normal((6, 2))
    kern = POLY
    reg = RegParam(1e-3)
    pf = perron_frobenius_estimate(TrajectoryPairs(X, Y), kern, reg)
    # PF of (x -> y) is the adjoint-like counterpart of Koopman of the pair
    koop = koopman_estimate(TrajectoryPairs(X, Y), kern, reg)
    a = _nonzero_sorted(np.linalg.eigvals(pf.B @ pf.cross_gram()), tol=1e-8)
    b = _nonzero_sorted(np.linalg.eigvals(koop.B @ koop.cross_gram()), tol=1e-8)
    k = min(a.size, b.size)
    np.testing.assert_allclose(a[-k:], b[-k:], atol=1e-6)


def test_pf_condition_guard():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((12, 2))
    Y = X + 0.1 * rng.standard_normal((12, 2))
    # n = 12 points with a rank-6 polynomial kernel make G_XY singular
    with pytest.raises(NumericalError, match="G_XY cannot be inverted"):
        perron_frobenius_estimate(TrajectoryPairs(X, Y), POLY, RegParam(1e-6))


def test_eigenvalue_shrinks_with_regularization():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((20, 2))
    prev = 1.0
    for eps in (1e-6, 1e-3, 1e-1):
        op = koopman_estimate(TrajectoryPairs(X, X), Kernel("gaussian", sigma=1.0), RegParam(eps))
        lam = op_eig_variant_i(op, 1)[0].eigenvalue
        assert lam < prev
        prev = lam


def test_operator_validation():
    with pytest.raises(InputError):
        EmpiricalOperator(np.ones((2, 3)), np.ones((2, 1)), np.ones((2, 1)), POLY)
    with pytest.raises(InputError):
        EmpiricalOperator(np.eye(3), np.ones((2, 1)), np.ones((3, 1)), POLY)


@pytest.mark.parametrize("anchors", [
    pytest.param([[0.0, 1.0], [2.0]], id="ragged"),
    pytest.param([["0.0", "1.0"], ["2.0", "3.0"]], id="strings"),
])
@pytest.mark.parametrize("view", ["X_data", "Y_data"])
def test_operator_refuses_anchors_that_are_not_a_numeric_array(view, anchors):
    """Ragged or string anchors ended in numpy's bare ValueError; they follow
    the Gram matrices' rule."""
    data = {"X_data": np.ones((2, 2)), "Y_data": np.ones((2, 2)), view: anchors}
    with pytest.raises(InputError, match="numeric array"):
        EmpiricalOperator(np.eye(2), kernel=POLY, **data)


def test_operator_refuses_a_ragged_coefficient_matrix():
    with pytest.raises(InputError, match="coefficient matrix B must be a 2-D numeric array"):
        EmpiricalOperator([[1.0, 0.0], [0.0]], np.ones((2, 2)), np.ones((2, 2)), POLY)


def test_kernel_pca_line_has_single_nonzero_eigenvalue():
    t = np.linspace(-1, 1, 12)[:, None]
    data = np.hstack([t, 2 * t])  # collinear points
    funcs = kernel_pca(data, Kernel("linear"), 3)
    vals = np.array([f.eigenvalue for f in funcs])
    assert vals[0] > 1e-8
    assert np.all(vals[1:] < 1e-10)
    # numerically-zero components get zero coefficients rather than a blow-up
    assert np.all(funcs[2].coefficients == 0)


def test_kernel_pca_linear_kernel_matches_pca():
    rng = np.random.default_rng(9)
    data = rng.standard_normal((30, 3)) * np.array([3.0, 1.0, 0.2])
    funcs = kernel_pca(data, Kernel("linear"), 3)
    cov = np.cov(data, rowvar=False, bias=True)
    pca_vals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    np.testing.assert_allclose([f.eigenvalue for f in funcs], pca_vals, atol=1e-10)


def test_kernel_pca_evaluation_consistency():
    rng = np.random.default_rng(10)
    data = rng.standard_normal((25, 2))
    funcs = kernel_pca(data, Kernel("gaussian", sigma=0.8), 4)
    for f in funcs:
        np.testing.assert_allclose(f(data), f.train_values, atol=1e-6)


def test_kernel_pca_evaluates_at_new_points():
    """Each component at new points is the training-centered cross-Gram times
    its coefficients, (G - rowmean - colmean + grand) c, in blocks across a
    block edge."""
    rng = np.random.default_rng(11)
    data = rng.standard_normal((40, 2))
    points = rng.standard_normal((2 * _EVAL_BLOCK + 3, 2))
    kern = Kernel("gaussian", sigma=0.8)
    raw = gram_matrix(kern, data).entries
    G = gram_matrix(kern, points, data).entries
    G = G - G.mean(axis=1, keepdims=True) - raw.mean(axis=0) + raw.mean()
    for f in kernel_pca(data, kern, 4):
        expected = G @ f.coefficients
        np.testing.assert_allclose(f(points), expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())


@functools.lru_cache(maxsize=1)
def _jet_points():
    """Jet X points at n=1000, whose Gaussian Gram (sigma 1) factors at rank
    772 < n, so kernel PCA runs on a truncated factor."""
    return bickley_pairs(1000, 0).X


def _collinear():
    t = np.linspace(-1, 1, 12)[:, None]
    return np.hstack([t, 2 * t])


# every kernel-PCA input of this file, the all-zero Grams and the jet
KPCA_CASES = [
    pytest.param(_collinear, Kernel("linear"), 3, id="collinear-linear"),
    pytest.param(lambda: np.random.default_rng(9).standard_normal((30, 3))
                 * np.array([3.0, 1.0, 0.2]), Kernel("linear"), 3, id="linear-pca"),
    pytest.param(lambda: np.random.default_rng(10).standard_normal((25, 2)),
                 Kernel("gaussian", sigma=0.8), 4, id="gauss-25"),
    pytest.param(lambda: np.random.default_rng(11).standard_normal((40, 2)),
                 Kernel("gaussian", sigma=0.8), 4, id="gauss-40"),
    pytest.param(lambda: np.random.default_rng(12).standard_normal((6, 2)),
                 Kernel("gaussian", sigma=1.0), 2, id="gauss-6"),
    pytest.param(lambda: np.zeros((6, 2)), Kernel("linear"), 2, id="zeros-linear"),
    pytest.param(lambda: np.zeros((6, 2)), Kernel("poly", offset=0.0, degree=2), 2,
                 id="zeros-poly-c0"),
    pytest.param(_jet_points, Kernel("gaussian", sigma=1.0), 5, id="jet-1000"),
]


@pytest.mark.parametrize("data, kern, k", KPCA_CASES)
def test_kernel_pca_matches_dense_oracle(data, kern, k):
    """Against the dense route: eigenvalues to 1e-10 relative and
    sign-aligned training components to 1e-8 of their scale. Each nonzero
    component is an eigenvector of the centered Gram, G~ c = n lambda c, of
    unit RKHS norm c^T G~ c = 1, with a positive largest-magnitude training
    value; every other component is zero."""
    data = data()
    n = data.shape[0]
    G = gram_matrix(kern, data).entries
    ref_vals, _, ref_values = kernel_pca_reference(G, k)
    funcs = kernel_pca(data, kern, k)
    assert len(funcs) == k
    vals = np.array([f.eigenvalue for f in funcs])
    np.testing.assert_allclose(vals, ref_vals, rtol=1e-10, atol=1e-10 * ref_vals.max())
    Gc = center_gram(G).entries
    for f, lam, ref in zip(funcs, ref_vals, ref_values.T):
        t, c = f.train_values, f.coefficients
        if lam <= 1e-12:
            assert not c.any() and not t.any()
            continue
        assert np.abs(np.sign(t @ ref) * t - ref).max() <= 1e-8 * np.abs(ref).max()
        assert t[np.argmax(np.abs(t))] > 0
        assert np.linalg.norm(Gc @ c - n * lam * c) <= 1e-8 * n * lam * np.linalg.norm(c)
        assert c @ Gc @ c == pytest.approx(1.0, rel=0, abs=1e-8)


def test_kernel_pca_jet_factor_is_truncated():
    funcs = kernel_pca(_jet_points(), Kernel("gaussian", sigma=1.0), 5)
    assert 5 <= funcs[0].expansion.anchors.shape[0] < 1000


@pytest.mark.parametrize("kern", [Kernel("linear"), Kernel("poly", offset=0.0, degree=2)],
                         ids=["linear", "poly-c0"])
def test_kernel_pca_of_an_all_zero_gram(kern):
    """Points at the origin give an all-zero Gram (numerical rank 0): every
    component is the zero function with eigenvalue 0, not a rank error."""
    funcs = kernel_pca(np.zeros((6, 2)), kern, 2)
    assert len(funcs) == 2
    for f in funcs:
        assert f.eigenvalue == 0
        assert not f.coefficients.any() and not f.train_values.any()
        assert not f(np.ones((3, 2))).any()


def test_kernel_pca_input_checks():
    with pytest.raises(InputError):
        kernel_pca(np.ones((1, 2)), Kernel("gaussian", sigma=1.0), 1)
    with pytest.raises(InputError):
        kernel_pca(np.ones((3, 2)), Kernel("gaussian", sigma=1.0), 5)


def test_kernel_pca_refuses_a_ragged_point_list():
    """numpy's bare ValueError ("inhomogeneous shape") escaped before."""
    with pytest.raises(InputError, match="point set data"):
        kernel_pca([[1.0, 2.0], [3.0]], Kernel("gaussian", sigma=1.0), 1)


def test_eigenfunctions_to_csv(tmp_path):
    rng = np.random.default_rng(12)
    data = rng.standard_normal((6, 2))
    funcs = kernel_pca(data, Kernel("gaussian", sigma=1.0), 2)
    path = tmp_path / "funcs.csv"
    eigenfunctions_to_csv(funcs, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,eigenvalue," + ",".join(f"coefficient_{i+1}" for i in range(6))
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(funcs[0].eigenvalue)
    # repr round-trips exactly
    assert float(row[2]) == funcs[0].coefficients[0]
