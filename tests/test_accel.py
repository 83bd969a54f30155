"""Compiled kernels against their pure-numpy fallbacks."""

import os
import subprocess
import sys

import numpy as np

import cohsets
from cohsets import _accel


def test_gaussian_gram_backends_agree():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((40, 3))
    B = rng.standard_normal((25, 3))
    fast = _accel.gaussian_gram(A, B, 0.7)
    ref = _accel.gaussian_gram_numpy(A, B, 0.7)
    np.testing.assert_allclose(fast, ref, rtol=0, atol=1e-12)


def test_haversine_gram_backends_agree():
    rng = np.random.default_rng(1)
    A = np.stack([rng.uniform(-180, 180, 30), rng.uniform(-85, 85, 30)], axis=1)
    fast = _accel.haversine_gram(A, A, 30.0, 6371.0)
    ref = _accel.haversine_gram_numpy(A, A, 30.0, 6371.0)
    np.testing.assert_allclose(fast, ref, rtol=0, atol=1e-12)


def test_bickley_integration_backends_agree():
    rng = np.random.default_rng(2)
    X = np.stack([rng.uniform(0, 20, 20), rng.uniform(-3, 3, 20)], axis=1)
    args = (
        0.0, 5.0, 0.1, 5.413824, 1.77,
        np.array([0.075, 0.4, 0.3]),
        np.array([0.7828389504, 1.10983392, 2.495772864]),
        np.array([0.31392246115209543, 0.6278449223041909, 0.9417673834562862]),
    )
    a = _accel.bickley_integrate(X, *args)
    b = _accel.bickley_integrate_numpy(X, *args)
    assert np.abs(a - X).max() > 0.1  # the particles moved
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_em_advance_backends_agree():
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, (30, 2))
    X[np.hypot(X[:, 0], X[:, 1]) < 0.1] += 0.5
    noise = rng.standard_normal((40, 30, 2))  # one slab per step
    a = X.copy()
    b = X.copy()
    ra = _accel.em_advance(a, noise, 0.0, 1e-3, 3.0, 5.0)
    rb = _accel.em_advance_numpy(b, noise, 0.0, 1e-3, 3.0, 5.0)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)
    assert abs(ra - rb) < 1e-12


def test_numba_disabled_env_flag(tmp_path):
    """With COHSETS_NO_NUMBA=1 the package runs on the numpy fallback and
    produces results matching the compiled path."""
    code = (
        "import numpy as np\n"
        "from cohsets import _accel, Kernel, gram_matrix\n"
        "assert not _accel.NUMBA_ENABLED\n"
        "assert _accel.gaussian_gram is _accel.gaussian_gram_numpy\n"
        "rng = np.random.default_rng(0)\n"
        "A = rng.standard_normal((15, 2))\n"
        "G = gram_matrix(Kernel.gaussian(1.0), A).entries\n"
        "np.save('gram_nonumba.npy', G)\n"
    )
    # the child runs in tmp_path, so a relative PYTHONPATH would not resolve
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cohsets.__file__)))
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, COHSETS_NO_NUMBA="1", PYTHONPATH=pythonpath)
    subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=tmp_path)
    from cohsets import Kernel, gram_matrix

    rng = np.random.default_rng(0)
    A = rng.standard_normal((15, 2))
    G = gram_matrix(Kernel.gaussian(1.0), A).entries
    saved = np.load(tmp_path / "gram_nonumba.npy")
    np.testing.assert_allclose(G, saved, rtol=0, atol=1e-12)
