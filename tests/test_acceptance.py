"""Acceptance gate: one test per criterion, named so `pytest -v` reads as a
pass/fail checklist. Each test also prints a one-line summary with the
measured numbers."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import cohsets
from cohsets import (
    EmpiricalOperator,
    Embedding,
    Kernel,
    RegParam,
    SnapshotMatrices,
    TrajectoryPairs,
    cmd,
    coherence_score,
    kernel_cca,
    kmeans,
    koopman_estimate,
    perron_frobenius_estimate,
)
from cohsets.dynamics import (
    FiveWellConfig,
    bickley_pairs,
    bickley_velocity,
    five_well_pairs,
    five_well_grad,
)
from cohsets.io import write_snapshots
from cohsets.modes import BLOCK_ROWS
from oracles import ORACLES, five_well_potential, superellipse_pairs

GAUSS = Kernel("gaussian", sigma=1.0)


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


# ------------------------------------------------------------ shared fixture


@pytest.fixture(scope="module")
def jet_run():
    """n=2000 jet experiment shared by criteria 1 and 2."""
    t0 = time.perf_counter()
    pairs = bickley_pairs(2000, seed=0)
    result = kernel_cca(pairs, GAUSS, GAUSS, RegParam(1e-7), 10)
    elapsed = time.perf_counter() - t0
    return pairs, result, elapsed


# ----------------------------------------------------------------- criteria


def test_criterion_01_jet_leading_spectrum(jet_run):
    _, result, elapsed = jet_run
    lam = result.rho**2  # eigenvalues of the forward-backward operator
    targets = {1: 0.98, 2: 0.87, 4: 0.78, 6: 0.75}
    devs = {r: abs(lam[r - 1] - v) for r, v in targets.items()}
    ok = (
        0.93 <= lam[0] < 1.0
        and all(d <= 0.06 for d in devs.values())
        and elapsed < 120.0
    )
    _report(1, ok, f"lam(1,2,4,6)={[round(float(lam[r-1]), 4) for r in targets]}, "
                   f"runtime {elapsed:.1f}s")
    assert 0.93 <= lam[0] < 1.0
    for r, v in targets.items():
        assert abs(lam[r - 1] - v) <= 0.06, (r, lam[r - 1], v)
    assert elapsed < 120.0


def test_criterion_02_jet_partition_coherence(jet_run):
    pairs, result, _ = jet_run
    part = kmeans(Embedding(result.f_on_X[:, :8]), 9, seed=0)
    score = coherence_score(pairs, part.labels, periods=(20.0, None))
    rng = np.random.default_rng(0)
    rand_scores = [
        coherence_score(pairs, rng.integers(0, 9, pairs.X.shape[0]),
                        periods=(20.0, None))
        for _ in range(20)
    ]
    ok = all(score > r for r in rand_scores)
    _report(2, ok, f"CCA partition {score:.4f} vs random max {max(rand_scores):.4f}")
    assert ok


@pytest.fixture(scope="module")
def wells_pairs():
    """Five-well trajectory pairs, n=1000, for 10 seeds at each beta."""
    return {
        beta: [five_well_pairs(1000, FiveWellConfig(beta=beta, seed=seed))
               for seed in range(10)]
        for beta in (1.0, 2.0, 3.0)
    }


@pytest.fixture(scope="module")
def wells_runs(wells_pairs):
    """Top-5 operator eigenvalues (rho^2) for 10 seeds at each beta."""
    return {
        beta: np.array([kernel_cca(pairs, GAUSS, GAUSS, RegParam(1e-6), 5).rho**2
                        for pairs in runs])
        for beta, runs in wells_pairs.items()
    }


def _ulam_spectrum(labels_x, labels_y):
    """Squared singular values of the box-discretized forward-backward
    transfer operator (Ulam / Markov-state-model estimate), trivial value 1
    dropped: the SVD of D_X^{-1/2} C D_Y^{-1/2}, C the start-box by end-box
    count matrix and D_X, D_Y its row and column sums. Plain numpy only, so
    it is independent of the cohsets linear algebra."""
    _, lx = np.unique(labels_x, return_inverse=True)
    _, ly = np.unique(labels_y, return_inverse=True)
    C = np.zeros((lx.max() + 1, ly.max() + 1))
    np.add.at(C, (lx, ly), 1.0)
    D = np.outer(C.sum(axis=1), C.sum(axis=0))
    sigma = np.linalg.svd(C / np.sqrt(D), compute_uv=False)
    return sigma[1:] ** 2


def _sector(points, t, bins, s=5):
    """Angular box of each point in the frame that rotates with the wells:
    with bins=s, box j is the well sector whose barriers sit at 2*pi*j/s."""
    ang = np.arctan2(points[:, 1], points[:, 0]) - (np.pi / 2) * t / s
    return np.floor(ang / (2 * np.pi / bins)).astype(int) % bins


def test_ulam_spectrum_recovers_cyclic_chain():
    """Oracle check for `_ulam_spectrum`: a 5-state cyclic chain that slips
    one state backward with probability p has the circulant spectrum
    1 - 2p(1-p)(1 - cos(2 pi k/5)), each value twice; the identity chain has
    all ones, whatever the state populations."""
    rng = np.random.default_rng(0)
    n, p = 200_000, 0.2
    x = rng.integers(0, 5, n)
    y = (x - (rng.uniform(size=n) < p)) % 5
    k = np.array([1, 1, 2, 2])
    expect = 1 - 2 * p * (1 - p) * (1 - np.cos(2 * np.pi * k / 5))
    got = _ulam_spectrum(x, y)
    # sampling error: over 40 seeds at this n the largest deviation was 0.0063
    assert got.shape == (4,)
    assert np.max(np.abs(got - expect)) < 0.01, (got, expect)
    x = rng.choice(5, n, p=[0.4, 0.3, 0.15, 0.1, 0.05])
    np.testing.assert_allclose(_ulam_spectrum(x, x), np.ones(4), atol=1e-12)


def test_criterion_03_five_well_spectral_gap(wells_runs, wells_pairs):
    """Kernel CCA resolves exactly five coherent sets at beta=3: a gap
    lam4 - lam5 >= 0.15 below the fourth eigenvalue, and lam1..lam4 within 0.1
    of the same run's independent Ulam estimate (40 angular start boxes at t=0,
    the 5 rotating well sectors at t=10).

    The leading values are not near 1. Over [0, 10] about 78% of particles
    stay in their rotating well, about 17% slip one well backward, 3.5% one
    forward and 1.5% two backward, so the oracle gives about
    (0.76, 0.74, 0.47, 0.43) and lam1 <= 0.80 in every run; no estimator of
    this simulator's operator puts lam3 and lam4 near 0.8.

    Tolerance: production CCA exceeds the oracle by at most 0.059 over the
    10 runs; with centered=False, eps=1e-2 or sigma=0.3 the largest deviation
    is at least 0.13 in every run. 0.1 separates the two."""
    spectra = wells_runs[3.0]
    hits = 0
    worst = 0.0
    oracles = []
    for lam, pairs in zip(spectra, wells_pairs[3.0]):
        oracle = _ulam_spectrum(_sector(pairs.X, 0.0, 40),
                                _sector(pairs.Y, 10.0, 5))
        oracles.append(oracle)
        dev = float(np.max(np.abs(lam[:4] - oracle)))
        worst = max(worst, dev)
        if dev <= 0.1 and lam[3] - lam[4] >= 0.15:
            hits += 1
    ok = hits >= 8
    _report("3a", ok, f"{hits}/10 runs with gap >= 0.15 and lam1..4 within 0.1 "
                      f"of the Ulam oracle (worst deviation {worst:.3f}; median "
                      f"CCA spectrum {np.round(np.median(spectra, axis=0), 3)}, "
                      f"median oracle {np.round(np.median(oracles, axis=0), 3)})")
    assert ok, (f"{hits}/10 runs passed; worst deviation of lam1..4 from the "
                 f"Ulam oracle {worst:.3f}")


def test_criterion_03_five_well_monotonicity(wells_runs):
    means = [wells_runs[b][:, :4].mean() for b in (1.0, 2.0, 3.0)]
    ok = means[0] <= means[1] <= means[2]
    _report("3b", ok, f"mean top-4 eigenvalue by beta: "
                      f"{[round(float(m), 3) for m in means]}")
    assert ok


def test_criterion_04_superellipse_correlation():
    pairs = superellipse_pairs(500, seed=3)
    kern = Kernel("gaussian", sigma=0.3)
    res = kernel_cca(pairs, kern, kern, RegParam(1e-5), 3)
    corr = np.corrcoef(res.f_on_X[:, 0], res.g_on_Y[:, 0])[0, 1]
    ok = corr > 0.9
    _report(4, ok, f"corr(f(X), g(Y)) = {corr:.4f}")
    assert ok


def test_criterion_05_four_formulation_agreement():
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(10, 41))
        d = int(rng.integers(2, 5))
        eps = 1e-2 if trial % 2 == 0 else 1e-6
        X = rng.standard_normal((n, d))
        Y = X @ rng.standard_normal((d, d)) + 0.3 * rng.standard_normal((n, d))
        lin = Kernel("linear")
        k = min(5, d)
        rho = kernel_cca(TrajectoryPairs(X, Y), lin, lin, RegParam(eps), k).rho
        for oracle in ORACLES:
            worst = max(worst, float(np.max(np.abs(rho - oracle(X, Y, eps, k)))))
    ok = worst < 1e-6
    _report(5, ok, f"50 instances, worst top-5 rho deviation {worst:.2e}")
    assert ok


def test_criterion_06_operator_eigenvalue_oracle():
    def feats(P):
        x1, x2 = P[:, 0], P[:, 1]
        r2 = np.sqrt(2.0)
        return np.stack([np.ones_like(x1), r2 * x1, r2 * x2,
                         x1**2, r2 * x1 * x2, x2**2])

    poly = Kernel("poly", offset=1.0, degree=2)
    rng = np.random.default_rng(7)
    n = 6
    X = rng.standard_normal((n, 2))
    Y = X + 0.1 * rng.standard_normal((n, 2))
    reg = RegParam(1e-3)
    worst = 0.0
    for op in (
        EmpiricalOperator(np.eye(n) / n, X, Y, poly),
        koopman_estimate(TrajectoryPairs(X, Y), poly, reg),
        perron_frobenius_estimate(TrajectoryPairs(X, Y), poly, reg),
    ):
        cross = op.cross_gram()
        dense = feats(op.Y_data) @ op.B @ feats(op.X_data).T
        ref = np.sort_complex(np.linalg.eigvals(dense))
        for M in (op.B @ cross, cross @ op.B):
            vals = np.sort_complex(np.linalg.eigvals(M))
            scale = max(1.0, np.abs(ref).max())
            keep = np.abs(vals) > 1e-10 * scale
            got = vals[keep]
            expect = ref[np.abs(ref) > 1e-10 * scale]
            assert got.size == expect.size
            worst = max(worst, float(np.max(np.abs(got - expect))))
    ok = worst < 1e-10
    _report(6, ok, f"worst eigenvalue deviation {worst:.2e} over 3 operators x 2 routes")
    assert ok


def test_criterion_07_gradient_and_divergence_oracles():
    rng = np.random.default_rng(0)
    pts = np.stack([rng.uniform(-2.5, 2.5, 1400), rng.uniform(-2.5, 2.5, 1400)], axis=1)
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 0.05][:1000]
    ts = rng.uniform(0, 10, 1000)
    h = 1e-6
    worst_g = 0.0
    for i in range(1000):
        x, t = pts[i], ts[i]
        grad = five_well_grad(x, t)
        for dim, e in enumerate(np.eye(2)):
            fd = (five_well_potential(x + h * e, t)
                  - five_well_potential(x - h * e, t)) / (2 * h)
            worst_g = max(worst_g, abs(grad[dim] - fd) / max(abs(fd), 1.0))
    samples = np.stack([rng.uniform(0, 20, 1000), rng.uniform(-3, 3, 1000)], axis=1)
    t = 7.3
    hh = 1e-5
    dudx = (bickley_velocity(samples + [hh, 0.0], t)[:, 0]
            - bickley_velocity(samples - [hh, 0.0], t)[:, 0]) / (2 * hh)
    dvdy = (bickley_velocity(samples + [0.0, hh], t)[:, 1]
            - bickley_velocity(samples - [0.0, hh], t)[:, 1]) / (2 * hh)
    worst_d = float(np.max(np.abs(dudx + dvdy)))
    ok = worst_g < 1e-5 and worst_d < 1e-6
    _report(7, ok, f"gradient rel err {worst_g:.2e}, divergence {worst_d:.2e}")
    assert worst_g < 1e-5
    assert worst_d < 1e-6


_EIGENSOLVE_TIME_RATIO = """
import time
import numpy as np
from cohsets.modes import solve_cmd_grams
times = {}
for d in (1000, 100000):
    S = np.random.default_rng(1).standard_normal((d, 100))
    T = np.random.default_rng(2).standard_normal((d, 100))
    Gxx, Gyy = S.T @ S, T.T @ T
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        solve_cmd_grams(Gxx, Gyy, 100 * 0.1, 5)
        best = min(best, time.perf_counter() - t0)
    times[d] = best
print(times[100000] / times[1000])
"""


def test_criterion_08_cmd_properties():
    rng = np.random.default_rng(0)
    # rank-1 alignment
    u = rng.standard_normal(1000)
    n = 128
    Z = np.outer(u, np.sin(2 * np.pi * np.arange(n + 1) / n))
    res = cmd(SnapshotMatrices.from_sequence(Z), RegParam(1e-6), 1)
    cosine = abs(res.xi_modes[:, 0] @ u) / (
        np.linalg.norm(res.xi_modes[:, 0]) * np.linalg.norm(u)
    )
    # equivalence with linear-kernel uncentered CCA
    X = rng.standard_normal((200, 40))
    Y = rng.standard_normal((200, 40))
    res2 = cmd(SnapshotMatrices(X, Y), RegParam(0.1), 5)
    lin = Kernel("linear")
    ref = kernel_cca(TrajectoryPairs(X.T, Y.T), lin, lin, RegParam(0.1), 5, centered=False)
    dev = float(np.max(np.abs(res2.rho - ref.rho)))
    # d-independence of the eigensolve stage. Both timed calls solve the same
    # 100 x 100 problem; multithreaded BLAS at that size is noisier than the
    # bound, so the timing loop runs in a child process with one BLAS thread.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cohsets.__file__)))
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=pythonpath)
    proc = subprocess.run([sys.executable, "-c", _EIGENSOLVE_TIME_RATIO], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    ratio = float(proc.stdout)
    ok = res.rho[0] > 0.99 and cosine > 0.999 and dev < 1e-8 and ratio < 1.5
    _report(8, ok, f"rho1={res.rho[0]:.4f}, |cos|={cosine:.5f}, "
                   f"CCA dev {dev:.2e}, eigensolve time ratio {ratio:.2f}")
    assert res.rho[0] > 0.99
    assert cosine > 0.999
    assert dev < 1e-8
    assert ratio < 1.5


def test_criterion_09_spectral_range_fuzz():
    rng = np.random.default_rng(0)
    worst_hi, worst_lo = 0.0, 1.0
    for _ in range(200):
        n = int(rng.integers(5, 30))
        d = int(rng.integers(1, 4))
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 5)
        Y = (X if rng.uniform() < 0.3 else rng.standard_normal((n, d)))
        eps = 10.0 ** rng.uniform(-8, 0)
        sig = rng.uniform(0.2, 3.0)
        kern = Kernel("gaussian", sigma=sig)
        res = kernel_cca(TrajectoryPairs(X, Y), kern, kern, RegParam(eps),
                         min(4, n - 1))
        lam = res.rho**2
        worst_hi = max(worst_hi, float(lam.max(initial=0.0)))
        worst_lo = min(worst_lo, float(lam.min(initial=1.0)))
        assert np.all(lam >= 0.0) and np.all(lam < 1.0)
    _report(9, True, f"200 instances, rho^2 range [{worst_lo:.2e}, {worst_hi:.10f}]")


def _run_cli(pipeline, out, **env):
    cmdline = [
        sys.executable, "-c",
        "import sys; from cohsets.cli import main; main(sys.argv[1:])",
    ] + pipeline + ["--out", str(out)]
    proc = subprocess.run(cmdline, env=dict(os.environ, **env), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return out


def _cmd_snapshots(path):
    """A CMDX sequence with three planted oscillations whose 12 788 rows span
    three of cmd's row blocks and part of a fourth."""
    d, t = 3 * BLOCK_ROWS + 500, np.arange(42)
    rng = np.random.default_rng(10)
    Z = sum(a * np.outer(rng.standard_normal(d), np.cos(f * t))
            for a, f in ((1.0, 0.2), (0.7, 0.5), (0.5, 0.9)))
    write_snapshots(path, Z + 0.3 * rng.standard_normal((d, len(t))))
    return str(path)


# sizes at which two OpenBLAS threads outside serial_blas change the last bits
# of dense products (by 1.7e-9 for bickley and 2.6e-10 for wells)
@pytest.mark.parametrize("pipeline", [
    ["wells", "--n", "600", "--seed", "3"],
    ["bickley", "--n", "1500", "--seed", "9001"],
    ["cmd-file", "{snapshots}", "--epsilon", "1", "--k", "4", "--skip-transient", "2"],
])
def test_criterion_10_thread_count_determinism(pipeline, tmp_path):
    """Every artifact is byte-identical across reruns at a fixed BLAS thread
    count and across OPENBLAS_NUM_THREADS=1 vs 2: every command runs its BLAS
    calls on one thread (linalg.serial_blas)."""
    if pipeline[0] == "cmd-file":
        pipeline = [pipeline[0], _cmd_snapshots(tmp_path / "snapshots.bin")] + pipeline[2:]
    blas = {t: _run_cli(pipeline, tmp_path / f"blas{t}", OPENBLAS_NUM_THREADS=t)
            for t in ("1", "2")}
    rerun = _run_cli(pipeline, tmp_path / "blas1_rerun", OPENBLAS_NUM_THREADS="1")
    names = [f.name for f in sorted(blas["1"].iterdir())]
    mismatched = [name for name in names
                  if (blas["1"] / name).read_bytes() != (rerun / name).read_bytes()]
    blas_mismatched = [name for name in names
                       if (blas["1"] / name).read_bytes() != (blas["2"] / name).read_bytes()]
    ok = not mismatched and not blas_mismatched
    _report(10, ok, f"{pipeline[0]}: {len(names)} artifacts byte-identical across reruns at 1 "
                    f"BLAS thread{'' if not mismatched else ' except ' + str(mismatched)} and "
                    f"across 1 vs 2 BLAS threads"
                    f"{'' if not blas_mismatched else ' except ' + str(blas_mismatched)}")
    assert not mismatched
    assert not blas_mismatched
