"""k-means over spectral embeddings and the coherence diagnostic."""

import tracemalloc

import numpy as np
import pytest

from cohsets import Embedding, InputError, TrajectoryPairs, clustering, coherence_score, kmeans, linalg


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


def _assign_with_row_norms_per_call(P, centers):
    """clustering._assign as it was when it computed P's row norms on every call."""
    d2 = (
        np.sum(P * P, axis=1)[:, None]
        - 2.0 * P @ centers.T
        + np.sum(centers * centers, axis=1)[None, :]
    )
    return np.argmin(d2, axis=1), d2


@pytest.mark.parametrize("k", [2, 5])
def test_kmeans_row_norms_once_is_bitwise_the_per_iteration_norms(monkeypatch, k):
    """kmeans computes the embedding's row norms once per call; labels, centers
    and inertia are byte-identical to recomputing them in every assignment."""
    P = np.random.default_rng(11).standard_normal((300, 3))
    once = kmeans(Embedding(P), k, seed=3)
    calls = []

    def per_call(P, centers, sq):
        calls.append(sq)
        return _assign_with_row_norms_per_call(P, centers)

    monkeypatch.setattr(clustering, "_assign", per_call)
    again = kmeans(Embedding(P), k, seed=3)
    assert len(calls) > clustering._RESTARTS  # Lloyd iterated
    assert all(sq is calls[0] for sq in calls)  # one array of norms for the whole call
    assert once.labels.tobytes() == again.labels.tobytes()
    assert once.centers.tobytes() == again.centers.tobytes()
    assert once.inertia == again.inertia


def test_kmeans_rejects_bad_k():
    P = np.zeros((5, 2))
    with pytest.raises(InputError):
        kmeans(Embedding(np.ones((3, 2))), 4)
    with pytest.raises(InputError):
        kmeans(Embedding(P), 0)


def test_embedding_validation():
    with pytest.raises(InputError):
        Embedding(np.array([[np.inf, 1.0]]))


@pytest.mark.parametrize("points", [
    pytest.param(np.ones((4, 3, 2)), id="3-D"),
    pytest.param([["a", "b"], ["c", "d"]], id="strings"),
    pytest.param([[1.0, 2.0], [3.0]], id="ragged"),
])
def test_embedding_refuses_non_numeric_or_non_2d_arrays(points):
    with pytest.raises(InputError, match="2-D numeric array"):
        Embedding(points)


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


def test_coherence_score_refuses_labels_that_are_not_1d():
    """A column of labels used to end in numpy's bare ValueError ("object too deep")."""
    pairs = TrajectoryPairs(np.zeros((4, 2)), np.arange(8.0).reshape(4, 2))
    with pytest.raises(InputError, match="1-D array of one label per sample pair"):
        coherence_score(pairs, np.array([[0], [0], [1], [1]]))


@pytest.mark.parametrize("periods", [
    pytest.param([1.0], id="too-few"),
    pytest.param([20.0, None, None], id="too-many"),
    pytest.param([np.nan, None], id="nan"),
    pytest.param([np.inf, None], id="inf"),
    pytest.param([-1.0, None], id="negative"),
    pytest.param([True, None], id="bool"),
    pytest.param(["20", None], id="string"),
    pytest.param(20.0, id="scalar"),
])
def test_coherence_score_refuses_bad_periods(periods):
    """On 2-D points, periods=[1.0] returned 0.511, [nan, None] 0.0 and
    [-1.0, None] 0.45; each is now refused."""
    rng = np.random.default_rng(6)
    pairs = TrajectoryPairs(rng.uniform(0, 20, (30, 2)), rng.uniform(0, 20, (30, 2)))
    with pytest.raises(InputError, match="one entry per coordinate"):
        coherence_score(pairs, rng.integers(0, 3, 30), periods=periods)


def test_coherence_score_accepts_none_or_zero_as_not_periodic():
    rng = np.random.default_rng(6)
    pairs = TrajectoryPairs(rng.uniform(0, 20, (30, 2)), rng.uniform(0, 20, (30, 2)))
    labels = rng.integers(0, 3, 30)
    plain = coherence_score(pairs, labels)
    assert coherence_score(pairs, labels, periods=(None, None)) == plain
    assert coherence_score(pairs, labels, periods=[0, 0.0]) == plain
    assert coherence_score(pairs, labels, periods=np.array([20.0, 0.0])) == \
        coherence_score(pairs, labels, periods=(20, None))


def test_coherence_score_wraps_with_periods_from_a_generator():
    """Checking periods used up a generator, so the distances were never
    wrapped and the score was silently the non-periodic one."""
    rng = np.random.default_rng(6)
    pairs = TrajectoryPairs(rng.uniform(0, 20, (30, 2)), rng.uniform(0, 20, (30, 2)))
    labels = rng.integers(0, 3, 30)
    wrapped = coherence_score(pairs, labels, periods=(20.0, None))
    assert wrapped != coherence_score(pairs, labels)
    assert coherence_score(pairs, labels, periods=(p for p in (20.0, None))) == wrapped


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("clusters", [1, 5])
def test_coherence_score_memory_guard(monkeypatch, d, clusters):
    """The guard asks for n^2 doubles, the pair distances and np.quantile's
    copy of them; the measured peak exceeds that by O(n) index arrays only
    (1.0077-1.0094 n^2 doubles here). The guard refuses a budget one byte
    below n^2 doubles and accepts twice the peak; it does not change the score."""
    n = 300
    rng = np.random.default_rng(d)
    Y = rng.standard_normal((n, d))
    pairs, labels = TrajectoryPairs(Y, Y), rng.integers(0, clusters, n)
    tracemalloc.start()
    try:
        score = coherence_score(pairs, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    need = 8 * n * n
    assert need < peak < 1.02 * need
    monkeypatch.setattr(linalg, "available_memory", lambda: need - 1)
    with pytest.raises(InputError, match="coherence score"):
        coherence_score(pairs, labels)
    monkeypatch.setattr(linalg, "available_memory", lambda: 2 * peak)
    assert coherence_score(pairs, labels) == score
