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
    explicit_cca,
    kernel_cca,
    kernel_cca_generalized,
    kmeans,
    koopman_estimate,
    perron_frobenius_estimate,
    whitened_svd_cca,
)
from cohsets.dynamics import (
    FiveWellConfig,
    bickley_pairs,
    bickley_velocity,
    five_well_pairs,
    five_well_potential,
    five_well_grad,
    superellipse_pairs,
)

GAUSS = Kernel.gaussian(1.0)


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
def wells_runs():
    """Top-5 operator eigenvalues (rho^2) for 10 seeds at each beta."""
    out = {}
    for beta in (1.0, 2.0, 3.0):
        spectra = []
        for seed in range(10):
            pairs = five_well_pairs(1000, FiveWellConfig(beta=beta), seed=seed)
            res = kernel_cca(pairs, GAUSS, GAUSS, RegParam(1e-6), 5)
            spectra.append(res.rho**2)
        out[beta] = np.array(spectra)
    return out


def test_criterion_03_five_well_spectral_gap(wells_runs):
    """Expected-red check: the simulated five-well system at beta=3 produces
    only 2 eigenvalues above 0.8 (a conjugate pair of the rotating-frame
    cycle), not 4. The shortfall is physical, not numerical: the escape rate
    over the rotating barrier lets ~20% of particles slip one well backward
    over the window, and a 5-state cyclic hopping chain with that slip
    probability reproduces the observed (0.77, 0.77, 0.47, 0.47) spectrum."""
    spectra = wells_runs[3.0]
    hits = 0
    for lam in spectra:
        above = int(np.sum(lam > 0.8))
        gap_ok = lam.shape[0] > 4 and (lam[3] - lam[4]) >= 0.15
        if above == 4 and gap_ok:
            hits += 1
    ok = hits >= 8
    _report("3a", ok, f"{hits}/10 runs with exactly 4 eigenvalues > 0.8 and "
                      f"gap >= 0.15 (median spectrum "
                      f"{np.round(np.median(spectra, axis=0), 3)})")
    assert ok, (
        "known shortfall: at beta=3 roughly 20% of particles slip one well "
        "backward over t in [0, 10], which caps the 3rd/4th eigenvalues near "
        "0.47 (cyclic hopping chain: 1 - 2p(1-p)(1 - cos(2 pi k/5)) at p=0.2)"
    )


def test_criterion_03_five_well_monotonicity(wells_runs):
    means = [wells_runs[b][:, :4].mean() for b in (1.0, 2.0, 3.0)]
    ok = means[0] <= means[1] <= means[2]
    _report("3b", ok, f"mean top-4 eigenvalue by beta: "
                      f"{[round(float(m), 3) for m in means]}")
    assert ok


def test_criterion_04_superellipse_correlation():
    pairs = superellipse_pairs(500, seed=3)
    kern = Kernel.gaussian(0.3)
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
        pairs = TrajectoryPairs(X, Y)
        reg = RegParam(eps)
        lin = Kernel.linear()
        k = min(5, d)
        r1 = kernel_cca(pairs, lin, lin, reg, k).rho
        r2 = kernel_cca_generalized(pairs, lin, lin, reg, k).rho
        r3 = explicit_cca(X.T, Y.T, reg, k).rho
        r4 = whitened_svd_cca(X.T, Y.T, reg, k).rho
        for other in (r2, r3, r4):
            worst = max(worst, float(np.max(np.abs(r1 - other))))
    ok = worst < 1e-6
    _report(5, ok, f"50 instances, worst top-5 rho deviation {worst:.2e}")
    assert ok


def test_criterion_06_operator_eigenvalue_oracle():
    def feats(P):
        x1, x2 = P[:, 0], P[:, 1]
        r2 = np.sqrt(2.0)
        return np.stack([np.ones_like(x1), r2 * x1, r2 * x2,
                         x1**2, r2 * x1 * x2, x2**2])

    poly = Kernel.polynomial(offset=1.0, degree=2)
    rng = np.random.default_rng(7)
    n = 6
    X = rng.standard_normal((n, 2))
    Y = X + 0.1 * rng.standard_normal((n, 2))
    reg = RegParam(1e-3)
    worst = 0.0
    for op in (
        EmpiricalOperator(np.eye(n) / n, X, Y, poly, poly),
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
    lin = Kernel.linear()
    ref = kernel_cca(TrajectoryPairs(X.T, Y.T), lin, lin, RegParam(0.1), 5,
                     centered=False, variant="i")
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
        kern = Kernel.gaussian(sig)
        res = kernel_cca(TrajectoryPairs(X, Y), kern, kern, RegParam(eps),
                         min(4, n - 1))
        lam = res.rho**2
        worst_hi = max(worst_hi, float(lam.max(initial=0.0)))
        worst_lo = min(worst_lo, float(lam.min(initial=1.0)))
        assert np.all(lam >= 0.0) and np.all(lam < 1.0)
    _report(9, True, f"200 instances, rho^2 range [{worst_lo:.2e}, {worst_hi:.10f}]")


@pytest.mark.parametrize("pipeline", [
    ["wells", "--n", "120", "--k", "4", "--clusters", "3", "--m-funcs", "3"],
    ["bickley", "--n", "120", "--tau", "5", "--k", "3", "--clusters", "3",
     "--m-funcs", "3", "--grid", "10", "4"],
])
def test_criterion_10_thread_count_determinism(pipeline, tmp_path):
    outs = {}
    for threads in ("1", "8"):
        out = tmp_path / f"t{threads}"
        env = dict(os.environ, NUMBA_NUM_THREADS=threads)
        cmdline = [
            sys.executable, "-c",
            "import sys; from cohsets.cli import main; main(sys.argv[1:])",
        ] + pipeline + ["--out", str(out)]
        proc = subprocess.run(cmdline, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs[threads] = out
    mismatched = []
    for f in sorted(outs["1"].iterdir()):
        if f.read_bytes() != (outs["8"] / f.name).read_bytes():
            mismatched.append(f.name)
    ok = not mismatched
    _report(10, ok, f"{pipeline[0]} artifacts byte-identical across 1 vs 8 "
                    f"threads{'' if ok else ': mismatch in ' + str(mismatched)}")
    assert ok
