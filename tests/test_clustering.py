"""k-means over spectral embeddings and the coherence diagnostic."""

import tracemalloc

import numpy as np
import pytest

from cohsets import Embedding, InputError, TrajectoryPairs, coherence_score, kmeans, linalg


def _blobs(seed=0, per=20, centers=((0.0, 0.0), (10.0, 0.0), (0.0, 10.0))):
    rng = np.random.default_rng(seed)
    pts, truth = [], []
    for i, c in enumerate(centers):
        pts.append(np.asarray(c) + 0.1 * rng.standard_normal((per, 2)))
        truth.extend([i] * per)
    return np.vstack(pts), np.asarray(truth)


def test_kmeans_recovers_separated_blobs():
    P, truth = _blobs()
    part = kmeans(Embedding(P), 3, seed=0)
    # same partition up to label renaming
    for lab in range(3):
        members = truth[part.labels == lab]
        assert len(set(members)) == 1
    assert len(np.unique(part.labels)) == 3


def test_kmeans_deterministic_given_seed():
    P, _ = _blobs(seed=5)
    a = kmeans(Embedding(P), 3, seed=7)
    b = kmeans(Embedding(P), 3, seed=7)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.centers.tobytes() == b.centers.tobytes()
    assert a.inertia == b.inertia


def test_kmeans_partition_invariants():
    P, _ = _blobs(seed=9)
    part = kmeans(Embedding(P), 4, seed=1)
    # every cluster nonempty
    assert set(np.unique(part.labels)) == set(range(4))
    # labels are the argmin over centers
    d2 = ((P[:, None, :] - part.centers[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_array_equal(part.labels, np.argmin(d2, axis=1))
    assert part.inertia == pytest.approx(d2[np.arange(len(P)), part.labels].sum())


def test_kmeans_rejects_bad_k():
    P = np.zeros((5, 2))
    with pytest.raises(InputError):
        kmeans(Embedding(np.ones((3, 2))), 4)
    with pytest.raises(InputError):
        kmeans(Embedding(P), 0)


def test_embedding_validation():
    with pytest.raises(InputError):
        Embedding(np.array([[np.inf, 1.0]]))


def test_coherence_score_tight_clusters_beat_random():
    rng = np.random.default_rng(3)
    Y = np.vstack([
        np.array([0.0, 0.0]) + 0.05 * rng.standard_normal((25, 2)),
        np.array([50.0, 0.0]) + 0.05 * rng.standard_normal((25, 2)),
    ])
    pairs = TrajectoryPairs(rng.standard_normal((50, 2)), Y)
    good = np.repeat([0, 1], 25)
    assert coherence_score(pairs, good) == pytest.approx(1.0)
    for seed in range(5):
        rand = np.random.default_rng(seed).integers(0, 2, 50)
        assert coherence_score(pairs, rand) < coherence_score(pairs, good)


def test_coherence_score_periodic_wrap():
    # two groups at x = 0.05 and x = 19.95 are close under period 20
    Y = np.array([[0.05, 0.0], [19.95, 0.0], [10.0, 0.0], [10.1, 0.0]])
    pairs = TrajectoryPairs(np.zeros((4, 2)), Y)
    labels = np.array([0, 0, 1, 1])
    wrapped = coherence_score(pairs, labels, periods=(20.0, None))
    unwrapped = coherence_score(pairs, labels)
    assert wrapped == pytest.approx(1.0)
    assert unwrapped < wrapped


def test_coherence_score_singletons_and_alignment():
    rng = np.random.default_rng(4)
    pairs = TrajectoryPairs(rng.standard_normal((6, 2)), rng.standard_normal((6, 2)))
    assert coherence_score(pairs, np.arange(6)) == pytest.approx(1.0)
    with pytest.raises(InputError):
        coherence_score(pairs, np.zeros(5, dtype=int))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("clusters", [1, 5])
def test_coherence_score_memory_guard(monkeypatch, d, clusters):
    """The guard refuses a memory budget just below the measured peak and
    accepts twice that peak; it does not change the score."""
    rng = np.random.default_rng(d)
    Y = rng.standard_normal((300, d))
    pairs, labels = TrajectoryPairs(Y, Y), rng.integers(0, clusters, 300)
    tracemalloc.start()
    try:
        score = coherence_score(pairs, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(linalg, "available_memory", lambda: peak - 1)
    with pytest.raises(InputError, match="coherence score"):
        coherence_score(pairs, labels)
    monkeypatch.setattr(linalg, "available_memory", lambda: 2 * peak)
    assert coherence_score(pairs, labels) == score
