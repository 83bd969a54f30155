"""Coherent mode decomposition of high-dimensional snapshot pairs."""

import numpy as np
import pytest
import scipy.linalg

from cohsets import (
    InputError,
    Kernel,
    NumericalError,
    RegParam,
    SnapshotMatrices,
    TrajectoryPairs,
    cmd,
    kernel_cca,
)
from cohsets import modes
from cohsets.io import read_snapshots, write_snapshots
from cohsets.kernels import center_gram
from cohsets.modes import solve_cmd_grams
from oracles import cmd_one_thread, cmd_reference, generalized_rho, whitened_svd_rho


def _cos(a, b):
    return abs(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))


def test_rank_one_sinusoid():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(1000)
    n = 128  # sequential pairing caps rho_1 near cos(2*pi/n)
    Z = np.outer(u, np.sin(2 * np.pi * np.arange(n + 1) / n))
    snap = SnapshotMatrices.from_sequence(Z)
    res = cmd(snap, RegParam(1e-6), 1)
    assert res.rho[0] > 0.99
    assert _cos(res.xi_modes[:, 0], u) > 0.999
    assert _cos(res.eta_modes[:, 0], u) > 0.999


def test_identity_dynamics_reduction():
    """Y = X: rho are the eigenvalues of G (G + n*eps*I)^-1 and xi is
    proportional to eta for every mode."""
    rng = np.random.default_rng(1)
    X = rng.standard_normal((50, 12))
    snap = SnapshotMatrices(X, X)
    eps = 1e-4
    res = cmd(snap, RegParam(eps), 5)
    G = X.T @ X
    g = np.sort(np.linalg.eigvalsh(G))[::-1][:5]
    np.testing.assert_allclose(res.rho, g / (g + 12 * eps), atol=1e-8)
    for j in range(5):
        assert _cos(res.xi_modes[:, j], res.eta_modes[:, j]) > 1.0 - 1e-8


def test_cmd_equals_linear_uncentered_kernel_cca():
    """CMD solves the core's variant i, kernel CCA its variant ii. The
    spectra agree, and the training values Gx v of a variant-i eigenvector v
    are the variant-ii eigenvector."""
    rng = np.random.default_rng(2)
    d, n = 30, 15
    X = rng.standard_normal((d, n))
    Y = rng.standard_normal((d, n))
    eps = 0.1
    res = cmd(SnapshotMatrices(X, Y), RegParam(eps), 4)
    lin = Kernel("linear")
    ref = kernel_cca(TrajectoryPairs(X.T, Y.T), lin, lin, RegParam(eps), 4, centered=False)
    np.testing.assert_allclose(res.rho, ref.rho, atol=1e-8)
    # xi^T x_i = (Gx v)_i against kernel CCA's v
    f_cmd = X.T @ res.xi_modes
    for j in range(4):
        a, b = f_cmd[:, j], ref.v_vectors[:, j]
        sign = np.sign(a @ b)
        np.testing.assert_allclose(sign * b / np.linalg.norm(b),
                                   a / np.linalg.norm(a), atol=1e-7)


def test_orthogonal_invariance():
    rng = np.random.default_rng(3)
    d, n = 80, 20
    X = rng.standard_normal((d, n))
    Y = rng.standard_normal((d, n))
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = cmd(SnapshotMatrices(X, Y), RegParam(0.1), 3)
    b = cmd(SnapshotMatrices(Q @ X, Q @ Y), RegParam(0.1), 3)
    np.testing.assert_allclose(a.rho, b.rho, atol=1e-8)
    for j in range(3):
        assert _cos(Q @ a.xi_modes[:, j], b.xi_modes[:, j]) > 1.0 - 1e-8


def test_modes_live_in_snapshot_column_spaces():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((60, 10))
    Y = rng.standard_normal((60, 10))
    res = cmd(SnapshotMatrices(X, Y), RegParam(0.1), 3)
    Px = X @ np.linalg.pinv(X)
    Py = Y @ np.linalg.pinv(Y)
    np.testing.assert_allclose(Px @ res.xi_modes, res.xi_modes, atol=1e-8)
    np.testing.assert_allclose(Py @ res.eta_modes, res.eta_modes, atol=1e-8)


def test_zero_correlation_modes_flagged():
    # orthogonal snapshot columns with two exactly-zero columns: the Gram
    # matrices are diagonal with exact zero eigenvalues beyond rank 2
    X = np.zeros((6, 4))
    Y = np.zeros((6, 4))
    X[0, 0], X[1, 1] = 2.0, 1.0
    Y[0, 0], Y[1, 1] = 1.5, 0.5
    with pytest.warns(RuntimeWarning, match="zero correlation"):
        res = cmd(SnapshotMatrices(X, Y), RegParam(1e-6), 3)
    assert res.eta_defined[0]
    assert not res.eta_defined[-1]
    assert np.all(np.isnan(res.eta_modes[:, ~res.eta_defined]))


def test_from_sequence_and_skip(monkeypatch):
    """The pairing as cmd reads it: X and Y are the first and last n columns
    of each row block, and the blocks stack to the whole of Z."""
    monkeypatch.setattr(modes, "BLOCK_ROWS", 2)
    Z = np.arange(50.0).reshape(5, 10)

    def pairs(snap):
        block = np.vstack(list(snap.blocks()))
        return block[:, :snap.n], block[:, -snap.n:]

    X, Y = pairs(SnapshotMatrices.from_sequence(Z))
    np.testing.assert_array_equal(X, Z[:, :-1])
    np.testing.assert_array_equal(Y, Z[:, 1:])
    skipped = SnapshotMatrices.from_sequence(Z, skip=4)
    assert skipped.n == 5
    X, Y = pairs(skipped)
    np.testing.assert_array_equal(X, Z[:, 4:-1])
    np.testing.assert_array_equal(Y, Z[:, 5:])
    X, Y = pairs(SnapshotMatrices(Z[:, :4], Z[:, 6:]))
    np.testing.assert_array_equal(X, Z[:, :4])
    np.testing.assert_array_equal(Y, Z[:, 6:])
    with pytest.raises(InputError):
        SnapshotMatrices.from_sequence(Z[:, :2])
    with pytest.raises(InputError):
        SnapshotMatrices.from_sequence(Z, skip=8)


def test_snapshot_validation():
    with pytest.raises(InputError):
        SnapshotMatrices(np.ones((3, 5)), np.ones((3, 4)))
    with pytest.raises(InputError):
        SnapshotMatrices(np.ones((3, 5)), np.ones((2, 5)))


@pytest.mark.parametrize("X", [
    pytest.param(np.ones(5), id="1-D"),
    pytest.param(np.ones((3, 4, 5)), id="3-D"),
    pytest.param(np.array([["a", "b"], ["c", "d"]]), id="strings"),
    pytest.param(np.ones((3, 4), dtype=complex), id="complex"),
    pytest.param(np.array([[1.0, None], [2.0, 3.0]]), id="object"),
    pytest.param([[1.0, 2.0, 3.0], [4.0, 5.0]], id="ragged"),
])
def test_snapshot_matrices_refuse_non_numeric_or_non_2d_arrays(X):
    with pytest.raises(InputError, match="2-D numeric array"):
        SnapshotMatrices(X, X)
    with pytest.raises(InputError, match="2-D numeric array"):
        SnapshotMatrices.from_sequence(X)


@pytest.mark.parametrize("skip", [1.5, 2.0, "2", True], ids=["1.5", "2.0", "str", "bool"])
def test_from_sequence_refuses_a_non_int_skip(skip):
    with pytest.raises(InputError, match="skip must be an integer"):
        SnapshotMatrices.from_sequence(np.ones((3, 10)), skip=skip)


def _planted_sequence(d, m, seed):
    """d x m snapshots with three planted oscillations, noise and a mean."""
    rng = np.random.default_rng(seed)
    t = np.arange(m)
    return (np.outer(rng.standard_normal(d), np.cos(0.3 * t))
            + np.outer(rng.standard_normal(d), np.sin(0.3 * t))
            + 0.5 * np.outer(rng.standard_normal(d), np.cos(0.7 * t))
            + 0.3 * rng.standard_normal((d, m)) + 1.0)


def _column_deviation(a, b):
    return float((np.abs(a - b).max(axis=0) / np.abs(b).max(axis=0)).max())


@pytest.mark.parametrize("source", ["file", "array"])
def test_block_edges_match_the_dense_oracle(tmp_path, monkeypatch, source):
    """With blocks of 7 rows, d = 52 (seven full blocks and a 3-row one) and a
    transient skip, blocked CMD matches dense Grams, from a file or an array."""
    monkeypatch.setattr(modes, "BLOCK_ROWS", 7)
    Z, skip, eps, k = _planted_sequence(52, 30, 10), 3, 0.5, 3
    if source == "file":
        write_snapshots(tmp_path / "snap.bin", Z)
        snap = SnapshotMatrices.from_sequence(read_snapshots(tmp_path / "snap.bin"), skip)
    else:
        snap = SnapshotMatrices.from_sequence(Z, skip)
    assert [len(b) for b in snap.blocks()] == [7] * 7 + [3]
    res = cmd(snap, RegParam(eps), k)
    rho, v, w, xi, eta = cmd_reference(Z, skip, eps, k)
    np.testing.assert_allclose(res.rho, rho, rtol=0, atol=1e-12)
    for got, want in ((res.v, v), (res.w, w), (res.xi_modes, xi), (res.eta_modes, eta)):
        assert _column_deviation(got, want) < 1e-8


def test_two_thread_passes_match_one_thread(tmp_path, monkeypatch):
    """With blocks of 7 rows, d = 38 is five full blocks and a 3-row rest:
    the first thread takes blocks 0, 2 and 4, the second 1, 3 and the rest.
    cmd matches the one-thread loop, and the file route gives the array
    route's bits, rerun after rerun."""
    monkeypatch.setattr(modes, "BLOCK_ROWS", 7)
    Z, skip, eps, k = _planted_sequence(38, 30, 13), 3, 0.5, 3
    snap = SnapshotMatrices.from_sequence(Z, skip)
    assert [len(b) for b in snap.blocks(0, 2)] == [7, 7, 7]
    assert [len(b) for b in snap.blocks(1, 2)] == [7, 7, 3]
    res = cmd(snap, RegParam(eps), k)
    rho, v, w, xi, eta = cmd_one_thread(Z, skip, eps, k, 7, solve_cmd_grams)
    np.testing.assert_allclose(res.rho, rho, rtol=0, atol=1e-13)
    for got, want in ((res.v, v), (res.w, w), (res.xi_modes, xi), (res.eta_modes, eta)):
        assert _column_deviation(got, want) < 1e-10
    write_snapshots(tmp_path / "snap.bin", Z)
    for _ in range(3):
        again = cmd(SnapshotMatrices.from_sequence(read_snapshots(tmp_path / "snap.bin"), skip),
                    RegParam(eps), k)
        for name in ("rho", "v", "w", "xi_modes", "eta_modes"):
            assert getattr(again, name).tobytes() == getattr(res, name).tobytes(), name


def test_centered_flag_changes_result():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((20, 12)) + 5.0  # strong mean component
    Y = rng.standard_normal((20, 12)) + 5.0
    a = cmd(SnapshotMatrices(X, Y), RegParam(0.1), 3, centered=False)
    b = cmd(SnapshotMatrices(X, Y), RegParam(0.1), 3, centered=True)
    assert not np.allclose(a.rho, b.rho, atol=1e-6)


@pytest.mark.parametrize("eps", [0.1, 1e-3])
def test_centered_cmd_matches_oracles(eps):
    """Centered CMD is linear-kernel CCA on centered samples: its rho are the
    dense oracles', and rho, v and w match the eigensolve on Grams centered
    by center_gram."""
    rng = np.random.default_rng(7)
    X = rng.standard_normal((20, 12)) + 5.0  # strong mean component
    Y = rng.standard_normal((20, 12)) + 5.0
    res = cmd(SnapshotMatrices(X, Y), RegParam(eps), 3, centered=True)
    for oracle in (generalized_rho, whitened_svd_rho):
        np.testing.assert_allclose(res.rho, oracle(X.T, Y.T, eps, 3), rtol=0, atol=1e-10)
    rho, v, w, _ = solve_cmd_grams(center_gram(X.T @ X).entries,
                                   center_gram(Y.T @ Y).entries, 12 * eps, 3)
    np.testing.assert_allclose(res.rho, rho, rtol=0, atol=1e-10)
    for got, want in ((res.v, v), (res.w, w)):
        assert (np.abs(got - want).max(axis=0) / np.abs(want).max(axis=0)).max() < 1e-8


@pytest.mark.parametrize("centered", [False, True], ids=["uncentered", "centered"])
@pytest.mark.parametrize("skip", [0, 3])
def test_sequence_pairs_share_one_gram(skip, centered):
    """from_sequence takes both Grams from one Z^T Z; explicit pairs take two.
    The two routes give the same decomposition."""
    rng = np.random.default_rng(8)
    d, m = 200, 40
    t = np.arange(m)
    Z = (np.outer(rng.standard_normal(d), np.cos(0.3 * t))
         + np.outer(rng.standard_normal(d), np.sin(0.3 * t))
         + 0.5 * np.outer(rng.standard_normal(d), np.cos(0.7 * t))
         + 0.3 * rng.standard_normal((d, m)) + 1.0)
    shared = cmd(SnapshotMatrices.from_sequence(Z, skip=skip), RegParam(0.5), 4,
                 centered=centered)
    paired = cmd(SnapshotMatrices(Z[:, skip:-1].copy(), Z[:, skip + 1:].copy()),
                 RegParam(0.5), 4, centered=centered)
    np.testing.assert_allclose(shared.rho, paired.rho, rtol=0, atol=1e-12)
    for name in ("v", "w", "xi_modes", "eta_modes"):
        a, b = getattr(shared, name), getattr(paired, name)
        rel = np.abs(a - b).max(axis=0) / np.abs(b).max(axis=0)
        assert rel.max() < 1e-8, (name, rel)


def test_nonfinite_only_in_y_rejected_by_cmd():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((20, 8))
    Y = rng.standard_normal((20, 8))
    Y[7, 5] = np.nan
    snap = SnapshotMatrices(X, Y)  # the constructor makes no d x n pass
    with pytest.raises(InputError, match="non-finite snapshot entries"):
        cmd(snap, RegParam(0.1), 2)


@pytest.mark.parametrize("k", [0, 7, 2.5, True], ids=["0", "7", "2.5", "bool"])
def test_solve_cmd_grams_refuses_a_bad_mode_count(k):
    """On 5 x 5 Grams, k=0 and k=7 ended in scipy's ValueError and k=2.5
    returned three modes; the count follows linalg.require_count."""
    with pytest.raises(InputError, match=r"k modes must be an integer in \[1, 5\]"):
        solve_cmd_grams(np.eye(5), np.eye(5), 0.1, k)


def test_unregularized_singular_gram_is_a_numerical_error():
    """eff = 0 is refused before any work, as cmd and kernel_cca refuse
    eps = 0: it ended in a NumericalError on a singular Gram and in scipy's
    bare ValueError on a nonsingular one."""
    for Gxx in (np.zeros((5, 5)), np.eye(5)):
        with pytest.raises(InputError, match=r"eff = n eps must be > 0"):
            solve_cmd_grams(Gxx, np.eye(5), 0.0, 2)


def test_a_gram_factor_without_cholesky_is_a_numerical_error(monkeypatch):
    """A failed Cholesky factor of L^T L + eff I is a NumericalError, not a
    LinAlgError traceback."""
    def fail(*args, **kwargs):
        raise scipy.linalg.LinAlgError("raised by the test")

    monkeypatch.setattr(scipy.linalg, "cholesky", fail)
    with pytest.raises(NumericalError, match="not positive definite"):
        solve_cmd_grams(np.eye(5), np.eye(5), 0.1, 2)
