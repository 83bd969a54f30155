"""Finite-rank empirical operators, their eigenproblems, and kernel PCA."""

import numpy as np
import pytest

from cohsets import (
    EmpiricalOperator,
    InputError,
    Kernel,
    NumericalError,
    RegParam,
    TrajectoryPairs,
    kernel_pca,
    koopman_estimate,
    op_eig_variant_i,
    perron_frobenius_estimate,
)
from cohsets.operators import eigenfunctions_to_csv
from oracles import operator_eigenvalues

POLY = Kernel.polynomial(offset=1.0, degree=2)


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
        op = EmpiricalOperator(np.eye(n) / n, X, Y, POLY, POLY)
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
    return koopman_estimate(TrajectoryPairs(X, Y), Kernel.gaussian(1.0), RegParam(1e-4))


def test_variant_i_and_ii_agree_and_evaluate_consistently():
    """The eigenvalues of B G_XY match the phi-side oracle route G_XY B."""
    op = _koopman_12()
    fi = op_eig_variant_i(op, 4)
    np.testing.assert_allclose(
        [f.eigenvalue for f in fi], operator_eigenvalues(op.B, op.cross_gram(), 4), atol=1e-8
    )
    # evaluation at the anchors reproduces the stored training values
    for f in fi:
        np.testing.assert_allclose(f(f.anchors), f.train_values, atol=1e-6)


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
    op = koopman_estimate(TrajectoryPairs(X, X @ R.T), Kernel.linear(), RegParam(1e-8))
    funcs = op_eig_variant_i(op, 2)
    np.testing.assert_allclose([f.eigenvalue for f in funcs],
                               [np.exp(1j * theta), np.exp(-1j * theta)], atol=1e-6)
    for f in funcs:
        assert np.iscomplexobj(f.train_values)
        np.testing.assert_allclose(f(f.anchors), f.train_values, atol=1e-10)
    # the CSV writer round-trips complex values exactly
    eigenfunctions_to_csv(funcs, tmp_path / "funcs.csv")
    row = (tmp_path / "funcs.csv").read_text().splitlines()[2].split(",")
    assert complex(row[1]) == funcs[1].eigenvalue
    assert [complex(c) for c in row[2:]] == funcs[1].coefficients.tolist()


def test_koopman_identity_dynamics_direct_oracle():
    """Y = X: Koopman eigenvalues are g_i / (g_i + n*eps) for Gram eigenvalues g_i."""
    rng = np.random.default_rng(11)
    X = rng.standard_normal((15, 2))
    kern = Kernel.gaussian(1.0)
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
    op = koopman_estimate(TrajectoryPairs(X, X[perm]), Kernel.gaussian(1.5), RegParam(1e-6))
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
        op = koopman_estimate(TrajectoryPairs(X, X), Kernel.gaussian(1.0), RegParam(eps))
        lam = op_eig_variant_i(op, 1)[0].eigenvalue
        assert lam < prev
        prev = lam


def test_operator_validation():
    with pytest.raises(InputError):
        EmpiricalOperator(np.ones((2, 3)), np.ones((2, 1)), np.ones((2, 1)), POLY, POLY)
    with pytest.raises(InputError):
        EmpiricalOperator(np.eye(3), np.ones((2, 1)), np.ones((3, 1)), POLY, POLY)


def test_kernel_pca_line_has_single_nonzero_eigenvalue():
    t = np.linspace(-1, 1, 12)[:, None]
    data = np.hstack([t, 2 * t])  # collinear points
    funcs = kernel_pca(data, Kernel.linear(), 3)
    vals = np.array([f.eigenvalue for f in funcs])
    assert vals[0] > 1e-8
    assert np.all(vals[1:] < 1e-10)
    # numerically-zero components get zero coefficients rather than a blow-up
    assert np.all(funcs[2].coefficients == 0)


def test_kernel_pca_linear_kernel_matches_pca():
    rng = np.random.default_rng(9)
    data = rng.standard_normal((30, 3)) * np.array([3.0, 1.0, 0.2])
    funcs = kernel_pca(data, Kernel.linear(), 3)
    cov = np.cov(data, rowvar=False, bias=True)
    pca_vals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    np.testing.assert_allclose([f.eigenvalue for f in funcs], pca_vals, atol=1e-10)


def test_kernel_pca_evaluation_consistency():
    rng = np.random.default_rng(10)
    data = rng.standard_normal((25, 2))
    funcs = kernel_pca(data, Kernel.gaussian(0.8), 4)
    for f in funcs:
        np.testing.assert_allclose(f(data), f.train_values, atol=1e-6)


def test_kernel_pca_input_checks():
    with pytest.raises(InputError):
        kernel_pca(np.ones((1, 2)), Kernel.gaussian(1.0), 1)
    with pytest.raises(InputError):
        kernel_pca(np.ones((3, 2)), Kernel.gaussian(1.0), 5)


def test_eigenfunctions_to_csv(tmp_path):
    rng = np.random.default_rng(12)
    data = rng.standard_normal((6, 2))
    funcs = kernel_pca(data, Kernel.gaussian(1.0), 2)
    path = tmp_path / "funcs.csv"
    eigenfunctions_to_csv(funcs, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,eigenvalue," + ",".join(f"coefficient_{i+1}" for i in range(6))
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(funcs[0].eigenvalue)
    # repr round-trips exactly
    assert float(row[2]) == funcs[0].coefficients[0]
