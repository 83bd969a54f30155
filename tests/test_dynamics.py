"""Jet flow, rotating multi-well SDE, and sample-pair generators."""

import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cohsets import InputError, NumericalError, dynamics
from cohsets.dynamics import (
    BickleyConfig,
    FiveWellConfig,
    MAX_STEPS,
    bickley_flow_map,
    bickley_pairs,
    bickley_velocity,
    em_ensemble,
    five_well_grad,
    five_well_pairs,
    sample_uniform,
)
from oracles import em_ensemble_reference, five_well_potential, superellipse_pairs


# ---------------------------------------------------------------- jet flow


def test_jet_center_velocity_is_u0():
    """At x2 = 0 the tanh factor in the zonal perturbation vanishes, so
    u = U0 exactly for every x1 and t (the meridional component does not
    vanish there: the wave term enters v through sech^2 alone)."""
    pts = np.stack([np.linspace(0, 20, 7), np.zeros(7)], axis=1)
    for t in (0.0, 3.7, 40.0):
        vel = bickley_velocity(pts, t)
        np.testing.assert_array_equal(vel[:, 0], dynamics.U0)


def _jet_velocity_reference(x, y, t):
    """(u, v) at one point from the jet's formula with all eight
    transcendentals: cosh, tanh, and cos and sin of each wave's phase
    k_m (x - c_m t). The phase is computed exactly from the float inputs and
    rounded once, so at t = 1e3 (phases near 2350, where one ulp is 4.5e-13)
    the reference adds no rounding of its own beyond half an ulp."""
    L, U0 = dynamics.L, dynamics.U0
    sech2 = 1.0 / math.cosh(y / L) ** 2
    pert = dpert = 0.0
    for eps, c, k in zip(dynamics.EPS, dynamics.SPEEDS, dynamics.WAVENUMBERS):
        arg = float(Fraction(k) * (Fraction(x) - Fraction(c) * Fraction(t)))
        pert += eps * math.cos(arg)
        dpert -= eps * k * math.sin(arg)
    return U0 * sech2 + 2.0 * U0 * math.tanh(y / L) * sech2 * pert, U0 * L * sech2 * dpert


@pytest.mark.parametrize("t", [0.0, 11.3, 1e3])
def test_velocity_matches_the_eight_transcendental_formula(t):
    """The body's three transcendentals, multiple-angle polynomials and scalar
    phases give the formula's velocity to 1e-12 at 200 random points; t = 1e3
    makes the scalar phases large."""
    rng = np.random.default_rng(12)
    pts = np.stack([rng.uniform(0, 20, 200), rng.uniform(-3, 3, 200)], axis=1)
    ref = np.array([_jet_velocity_reference(x, y, t) for x, y in pts])
    np.testing.assert_allclose(bickley_velocity(pts, t), ref, rtol=0, atol=1e-12)


def test_wavenumbers_are_in_the_ratio_one_two_three():
    """The velocity body writes cos 2 theta and cos 3 theta as polynomials of
    cos theta, so it relies on k2 = 2 k1 and k3 = 3 k1."""
    k1, k2, k3 = dynamics.WAVENUMBERS
    assert k2 / k1 == 2.0
    assert k3 / k1 == pytest.approx(3.0, rel=1e-15, abs=0.0)


def test_jet_decays_away_from_core():
    speeds = []
    for x2 in (0.0, 1.5, 3.0):
        vel = bickley_velocity(np.array([[5.0, x2]]), 0.0)
        speeds.append(np.linalg.norm(vel[0]))
    assert speeds[0] > speeds[1] > speeds[2]


def test_velocity_is_divergence_free():
    rng = np.random.default_rng(0)
    pts = np.stack([rng.uniform(0, 20, 200), rng.uniform(-3, 3, 200)], axis=1)
    h = 1e-5
    for t in (0.0, 11.3):
        dudx = (
            bickley_velocity(pts + [h, 0.0], t)[:, 0]
            - bickley_velocity(pts - [h, 0.0], t)[:, 0]
        ) / (2 * h)
        dvdy = (
            bickley_velocity(pts + [0.0, h], t)[:, 1]
            - bickley_velocity(pts - [0.0, h], t)[:, 1]
        ) / (2 * h)
        assert np.max(np.abs(dudx + dvdy)) < 1e-6


def test_flow_map_zero_lag_is_identity():
    rng = np.random.default_rng(1)
    x0 = np.stack([rng.uniform(0, 20, 10), rng.uniform(-3, 3, 10)], axis=1)
    end = bickley_flow_map(x0, 0.0, 0.0)
    np.testing.assert_array_equal(end, x0)
    assert not np.shares_memory(end, x0)


@pytest.mark.parametrize("tau", [0.04, -0.04])
def test_flow_map_short_lag_moves_points(tau):
    """A lag below half the integrator step still takes one RK4 step. Its local
    error, O(tau^5), is at most 1.1e-6 at these points, which move by 0.12-0.27."""
    pts = np.array([[5.0, 0.5], [12.75, -1.15], [1.0, 0.6]])
    end = bickley_flow_map(pts, 0.0, tau)
    ref = bickley_flow_map(pts, 0.0, tau, BickleyConfig(step=1e-4))
    assert np.min(np.abs(end - pts)[:, 0]) > 0.1
    np.testing.assert_allclose(end, ref, rtol=0, atol=2e-6)


def test_flow_map_step_halving_converges():
    pts = np.array([
        [12.75, -1.15], [12.6, -1.0], [3.0, 0.5], [18.0, -0.3], [6.0, 0.2],
        [10.0, -0.4], [15.0, 0.1], [1.0, 0.6], [9.0, 0.0], [12.9, -1.3],
    ])
    e1 = bickley_flow_map(pts, 0.0, 40.0, BickleyConfig(step=0.005))
    e2 = bickley_flow_map(pts, 0.0, 40.0, BickleyConfig(step=0.0025))
    d = np.abs(e1 - e2)
    d[:, 0] = np.minimum(d[:, 0], 20.0 - d[:, 0])  # periodic in x1
    assert d.max() < 1e-6


@pytest.mark.parametrize("shape", [(1, 2), (37, 2)])
def test_flow_map_leaves_its_input_unchanged(shape):
    """The (2, n) state is a copy, and the endpoints are a new array."""
    rng = np.random.default_rng(13)
    x0 = np.stack([rng.uniform(0, 20, shape[0]), rng.uniform(-3, 3, shape[0])], axis=1)
    before = x0.copy()
    end = bickley_flow_map(x0, 0.0, 2.0)
    assert np.array_equal(x0, before)
    assert end.shape == shape and end.flags.c_contiguous
    assert not np.shares_memory(end, x0)
    assert np.abs(end - x0).max() > 0.1  # the particles moved


_JET_CALLS = [
    pytest.param(lambda p: bickley_velocity(p, 3.7), id="velocity"),
    pytest.param(lambda p: bickley_flow_map(p, 0.0, 2.0), id="flow-map"),
]


@pytest.mark.parametrize("call", _JET_CALLS)
def test_jet_of_one_point_is_a_pair(call):
    pts = np.array([[5.0, 0.5], [12.75, -1.15]])
    one = call(pts[1])
    assert one.shape == (2,)
    np.testing.assert_array_equal(one, call(pts)[1])


@pytest.mark.parametrize("points", [
    pytest.param(np.ones((4, 3)), id="three-columns"),
    pytest.param(np.ones(3), id="one-point-of-three"),
    pytest.param(np.ones((2, 2, 2)), id="3-D"),
    pytest.param([[5.0, 0.5], [1.0]], id="ragged"),
    pytest.param([["5.0", "0.5"]], id="strings"),
])
@pytest.mark.parametrize("call", _JET_CALLS)
def test_jet_refuses_states_that_are_not_pairs(call, points):
    """The velocity silently dropped a third column, and the flow map, which
    steps a (2, n) state, has no slope for one; ragged and string states
    ended in numpy's bare ValueError, and numeric strings were converted."""
    with pytest.raises(InputError, match="jet states must be"):
        call(points)


def test_flow_map_wraps_periodic_coordinate():
    end = bickley_flow_map(np.array([[10.0, 0.0]]), 0.0, 10.0)
    assert 0.0 <= end[0, 0] < 20.0


@pytest.mark.parametrize("tau, step", [
    (1e9, 0.1), (np.nan, 0.1), (np.inf, 0.1), (-np.inf, 0.1), (40.0, np.inf), (-40.0, np.inf),
], ids=["1e9", "nan", "inf", "-inf", "step-inf", "step-inf-backward"])
def test_flow_map_refuses_a_lag_beyond_max_steps(monkeypatch, tau, step):
    """The library flow map checks its lag and step as the config does, before
    its first RK4 stage: too many steps, or a lag or step that is not finite.
    An infinite step used to take one RK4 step of the whole lag, to (10.89,
    -47.04) from (5, 0.5) over 40 days."""
    def forbidden(*a, **kw):
        pytest.fail("an RK4 stage ran before the step count was checked")

    monkeypatch.setattr(dynamics, "_velocity", forbidden)
    with pytest.raises(InputError, match="RK4 steps"):
        bickley_flow_map(np.array([[5.0, 0.5]]), 0.0, tau, BickleyConfig(step=step))


def test_flow_map_rejects_nonfinite():
    with pytest.raises(NumericalError):
        bickley_flow_map(np.array([[np.nan, 0.0]]), 0.0, 1.0)


def test_vortex_core_disk_stays_coherent():
    """A radius-0.5 disk seeded in the lower recirculation cell keeps more than
    90% of 500 samples within twice the initial diameter of the advected
    center over tau = 40."""
    cx, cy = 12.75, -1.15
    rng = np.random.default_rng(5)
    ang = rng.uniform(0, 2 * np.pi, 500)
    rad = 0.5 * np.sqrt(rng.uniform(0, 1, 500))
    disk = np.stack([cx + rad * np.cos(ang), cy + rad * np.sin(ang)], axis=1)
    end = bickley_flow_map(disk, 0.0, 40.0)
    center = bickley_flow_map(np.array([[cx, cy]]), 0.0, 40.0)[0]
    d = end - center
    d[:, 0] -= 20.0 * np.round(d[:, 0] / 20.0)
    assert np.mean(np.hypot(d[:, 0], d[:, 1]) <= 2.0) > 0.9


def test_flow_preserves_cell_area():
    """Convex-hull area of a 10^3-point grid cell inside the recirculation
    cell drifts < 5% over tau = 40 (incompressibility proxy)."""
    from scipy.spatial import ConvexHull

    g = np.linspace(-0.005, 0.005, 32)
    GX, GY = np.meshgrid(12.75 + g, -1.1 + g)
    cell = np.stack([GX.ravel(), GY.ravel()], axis=1)[:1000]
    end = bickley_flow_map(cell, 0.0, 40.0)
    end[:, 0] -= 20.0 * np.round((end[:, 0] - np.median(end[:, 0])) / 20.0)
    a0 = ConvexHull(cell).volume
    a1 = ConvexHull(end).volume
    assert abs(a1 - a0) / a0 < 0.05


def test_bickley_pairs_shapes_and_determinism():
    a = bickley_pairs(50, seed=3)
    b = bickley_pairs(50, seed=3)
    assert a.X.shape == a.Y.shape == (50, 2)
    assert a.X.tobytes() == b.X.tobytes()
    assert a.Y.tobytes() == b.Y.tobytes()
    c = bickley_pairs(50, seed=4)
    assert a.X.tobytes() != c.X.tobytes()


# ----------------------------------------------------- rotating potential


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    n = 300
    pts = np.stack([rng.uniform(-2.5, 2.5, n), rng.uniform(-2.5, 2.5, n)], axis=1)
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 0.05]
    ts = rng.uniform(0, 10, pts.shape[0])
    h = 1e-6
    for dim, e in enumerate(np.eye(2)):
        for i in range(0, pts.shape[0], 7):
            x, t = pts[i], ts[i]
            fd = (
                five_well_potential(x + h * e, t) - five_well_potential(x - h * e, t)
            ) / (2 * h)
            grad = five_well_grad(x, t)[dim]
            assert abs(grad - fd) / max(abs(fd), 1.0) < 1e-5


def test_radial_gradient_vanishes_on_moving_ring():
    """The radial part 10(r - 3/2 - sin(2 pi t)/2)^2 is minimized exactly on
    the ring r = 3/2 + sin(2 pi t)/2, so there the radial derivative comes only
    from the angular cosine term, which is tangential; the projection of the
    gradient on the radial direction has no quadratic contribution."""
    for t in (0.0, 0.3, 0.8):
        a = 1.5 + 0.5 * np.sin(2 * np.pi * t)
        for theta in (0.1, 1.0, 2.5):
            x = a * np.array([np.cos(theta), np.sin(theta)])
            grad = five_well_grad(x, t)
            radial = grad @ (x / a)
            assert abs(radial) < 1e-10


def test_gradient_rotational_symmetry():
    """At t = 0 the potential is invariant under rotation by 2 pi / s."""
    s = 5
    R = np.array([
        [np.cos(2 * np.pi / s), -np.sin(2 * np.pi / s)],
        [np.sin(2 * np.pi / s), np.cos(2 * np.pi / s)],
    ])
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-2, 2, 2)
        if np.hypot(*x) < 0.1:
            continue
        np.testing.assert_allclose(
            five_well_grad(R @ x, 0.0), R @ five_well_grad(x, 0.0), atol=1e-10
        )


def test_gradient_rejects_origin():
    with pytest.raises(InputError):
        five_well_grad(np.array([0.0, 0.0]), 0.0)


def test_noise_free_limit_is_gradient_descent():
    cfg = FiveWellConfig(beta=np.inf, h=1e-3, t_span=(0.0, 0.05))
    x0 = np.array([1.6, 0.2])
    end = em_ensemble(cfg, x0[None, :], seed=0)[0]
    x = x0.copy()
    t = 0.0
    for _ in range(50):
        x = x - five_well_grad(x, t) * 1e-3
        t += 1e-3
    np.testing.assert_allclose(end, x, atol=1e-12)


def test_sde_deterministic_given_seed():
    cfg = FiveWellConfig(beta=3.0, t_span=(0.0, 0.5))
    X0 = sample_uniform(dynamics.WELL_DOMAIN, 20, seed=1)
    X0[np.hypot(X0[:, 0], X0[:, 1]) < 1e-6] += 0.1
    a = em_ensemble(cfg, X0.copy(), seed=9)
    b = em_ensemble(cfg, X0.copy(), seed=9)
    assert a.tobytes() == b.tobytes()
    c = em_ensemble(cfg, X0.copy(), seed=10)
    assert a.tobytes() != c.tobytes()


def test_sde_divergence_detected():
    cfg = FiveWellConfig(beta=3.0, h=5.0, t_span=(0.0, 50.0))
    with pytest.raises(NumericalError, match="diverged"):
        em_ensemble(cfg, np.array([[2.0, 1.0]]), seed=0)


def _starts(n, seed=1):
    X0 = sample_uniform(dynamics.WELL_DOMAIN, n, seed)
    X0[np.hypot(X0[:, 0], X0[:, 1]) < 1e-6] += 0.1
    return X0


# 1234 steps: two full noise blocks and a partial one
_LONG = FiveWellConfig(t_span=(0.0, 1.234), seed=4)


@pytest.mark.parametrize("n", [1, 37])
@pytest.mark.parametrize("cfg, kwargs", [
    pytest.param(_LONG, {}, id="config-seed"),
    pytest.param(_LONG, {"seed": 9}, id="explicit-seed"),
    pytest.param(FiveWellConfig(beta=np.inf, t_span=(0.0, 1.234)), {}, id="beta-inf"),
])
def test_em_ensemble_is_bitwise_the_reference(n, cfg, kwargs):
    """The worker-filled noise blocks and the (2, n) in-place step give the
    bits of the loop that drew each block in turn and stepped (n, 2)."""
    assert 2 * dynamics._EM_BLOCK < 1234 < 3 * dynamics._EM_BLOCK
    X0 = _starts(n)
    out = em_ensemble(cfg, X0, **kwargs)
    assert out.shape == (n, 2) and out.flags.c_contiguous
    assert np.array_equal(out, em_ensemble_reference(cfg, X0, **kwargs))
    assert np.abs(out - X0).max() > 0.01  # the particles moved


@pytest.mark.parametrize("n", [1, 37])
@pytest.mark.parametrize("noise_free", [False, True])
def test_em_ensemble_leaves_start_points_unchanged(n, noise_free):
    X0 = _starts(n)
    before = X0.copy()
    cfg = FiveWellConfig(beta=np.inf if noise_free else 3.0, t_span=(0.0, 0.6))
    out = em_ensemble(cfg, X0)
    assert np.array_equal(X0, before)
    assert not np.shares_memory(out, X0)


def test_em_ensemble_leaves_no_thread_behind():
    before = threading.active_count()
    em_ensemble(_LONG, _starts(37))
    assert threading.active_count() == before
    # diverges in the first of two blocks, while the second is being drawn
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="diverged"):
        em_ensemble(FiveWellConfig(h=5.0, t_span=(0.0, 5000.0)), np.array([[2.0, 1.0]]))
    assert threading.active_count() == before


def test_em_ensemble_concurrent_callers_keep_their_bits():
    """More callers than cores, each with its own drawing worker, under a short
    switch interval: a block drawn into the buffer being stepped, or drawn
    out of order, would change some endpoint."""
    X0 = _starts(37)
    seeds = range(4)
    expected = [em_ensemble_reference(_LONG, X0, seed=seed) for seed in seeds]
    results = [None] * len(seeds)

    def run(i):
        results[i] = em_ensemble(_LONG, X0, seed=seeds[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(seeds))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(results, expected):
        assert np.array_equal(got, want)


def test_em_ensemble_noise_peak_is_two_blocks():
    """Two reused noise buffers of one block each, and nothing else of that size."""
    n = 200
    X0 = _starts(n)
    two_blocks = 2 * dynamics._EM_BLOCK * n * 2 * 8
    tracemalloc.start()
    try:
        em_ensemble(_LONG, X0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert two_blocks <= peak <= 1.05 * two_blocks


@pytest.mark.parametrize("noise_free", [False, True])
def test_em_ensemble_nan_state_is_divergence(noise_free):
    """A particle at the origin has a 0/0 gradient; its nan state must not
    pass the |X| check as a small value."""
    X0 = np.array([[0.0, 0.0], [1.0, 1.0]])
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="reached nan"):
        em_ensemble(FiveWellConfig(beta=np.inf if noise_free else 3.0, t_span=(0.0, 0.01)), X0)


def test_ensemble_settles_on_moving_ring():
    """By t = 0.25 the ring sits at radius a(t) in [1, 2]; the ensemble mean
    radius equilibrates into that band."""
    cfg = FiveWellConfig(beta=3.0, t_span=(0.0, 0.25))
    X0 = sample_uniform(dynamics.WELL_DOMAIN, 2000, seed=11)
    X0[np.hypot(X0[:, 0], X0[:, 1]) < 1e-6] += 0.1
    end = em_ensemble(cfg, X0, seed=12)
    mean_r = np.hypot(end[:, 0], end[:, 1]).mean()
    assert 1.6 < mean_r < 2.3


def test_metastable_sector_occupation():
    """At beta = 3 most particles never leave their rotating angular sector
    over [0, 10] (metastability proxy, threshold 0.6)."""
    pairs = five_well_pairs(1000, FiveWellConfig(beta=3.0, seed=0))
    s = 5

    def sector(P, t):
        ang = np.arctan2(P[:, 1], P[:, 0]) - (np.pi / 2) * t / s
        return np.floor(ang / (2 * np.pi / s)).astype(int) % s

    stay = sector(pairs.X, 0.0) == sector(pairs.Y, 10.0)
    assert np.mean(stay) > 0.6


def test_sample_uniform_bounds_and_determinism():
    dom = ((-2.0, 3.0), (0.0, 1.0))
    P = sample_uniform(dom, 500, seed=4)
    assert P.shape == (500, 2)
    assert P[:, 0].min() >= -2.0 and P[:, 0].max() <= 3.0
    assert P[:, 1].min() >= 0.0 and P[:, 1].max() <= 1.0
    assert P.tobytes() == sample_uniform(dom, 500, seed=4).tobytes()


def test_five_well_pairs_deterministic():
    cfg = FiveWellConfig(beta=2.0, seed=7)
    a = five_well_pairs(40, cfg)
    b = five_well_pairs(40, cfg)
    assert a.X.tobytes() == b.X.tobytes()
    assert a.Y.tobytes() == b.Y.tobytes()


def test_config_validation():
    with pytest.raises(InputError):
        BickleyConfig(step=0.0)
    # more than MAX_STEPS RK4 steps; the configs are only built, never integrated
    BickleyConfig(tau=-MAX_STEPS * 0.1)
    for cfg in (dict(tau=(MAX_STEPS + 1) * 0.1), dict(tau=-1e9), dict(step=1e-9)):
        with pytest.raises(InputError, match="RK4 steps"):
            BickleyConfig(**cfg)
    with pytest.raises(InputError):
        FiveWellConfig(beta=0.0)
    with pytest.raises(InputError):
        FiveWellConfig(h=-1e-3)


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "0", None],
                         ids=["negative", "1.5", "2.0", "bool", "str", "None"])
def test_five_well_config_refuses_a_seed_that_is_not_a_non_negative_int(seed):
    """seed=-1 and seed=1.5 were accepted and failed later inside numpy."""
    with pytest.raises(InputError, match="seed must be a non-negative integer"):
        FiveWellConfig(seed=seed)


@pytest.mark.parametrize("t_span", [
    (0.0, np.nan), (np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0), (1.0, 0.0), (2.0, 2.0),
])
def test_five_well_config_rejects_bad_time_span(t_span):
    with pytest.raises(InputError, match="t_span"):
        FiveWellConfig(t_span=t_span)


def test_five_well_config_bounds_the_step():
    """With the default span of 10, h = inf and h = 20 both ran zero steps and
    returned the start points unchanged; nan is rejected too, and so is a step
    that takes more than MAX_STEPS. A step of the whole span is one step."""
    FiveWellConfig(h=10.0 / MAX_STEPS)
    for h in (np.inf, np.nan, 20.0, 10.0 / (MAX_STEPS + 1)):
        with pytest.raises(InputError, match="step size h"):
            FiveWellConfig(h=h)
    x0 = np.array([[1.0, 1.0]])
    end = em_ensemble(FiveWellConfig(beta=np.inf, h=0.01, t_span=(0.0, 0.01)), x0)
    np.testing.assert_array_equal(end, x0 - 0.01 * five_well_grad(x0, 0.0))


# ------------------------------------------------------------- superellipse


def test_superellipse_pairs_on_curve():
    pairs = superellipse_pairs(200, seed=0, noise=0.0)
    for P in (pairs.X, pairs.Y):
        vals = np.abs(P[:, 0]) ** 4 + np.abs(P[:, 1]) ** 4
        np.testing.assert_allclose(vals, 1.0, atol=1e-10)


def test_superellipse_noise_and_determinism():
    a = superellipse_pairs(100, seed=2)
    b = superellipse_pairs(100, seed=2)
    assert a.X.tobytes() == b.X.tobytes()
    noisy = superellipse_pairs(200, seed=1, noise=0.05)
    vals = np.abs(noisy.X[:, 0]) ** 4 + np.abs(noisy.X[:, 1]) ** 4
    assert 0.02 < np.std(vals)
