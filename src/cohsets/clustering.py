"""k-means over eigenfunction embeddings and a coherence diagnostic."""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import require_count, require_memory, require_points, require_real

_MAX_ITER = 300
# k-means keeps the best of this many k-means++ starts
_RESTARTS = 10
# coherence_score's radius: this quantile of all endpoint pair distances
_RADIUS_QUANTILE = 0.5


@dataclass
class Embedding:
    """n x m matrix of dominant eigenfunction evaluations per sample: n points."""

    points: np.ndarray

    def __post_init__(self):
        self.points = require_points(self.points, "embedding", "clustering")


@dataclass
class Partition:
    labels: np.ndarray
    centers: np.ndarray
    inertia: float


def _kmeans_pp_init(P, k, rng):
    n = P.shape[0]
    centers = np.empty((k, P.shape[1]))
    centers[0] = P[rng.integers(n)]
    d2 = np.sum((P - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = P[rng.integers(n)]
            continue
        centers[j] = P[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((P - centers[j]) ** 2, axis=1))
    return centers


def _assign(P, centers, sq):
    """Nearest center of each row of P, whose squared norms are sq, and the
    squared distances to every center."""
    d2 = (
        sq[:, None]
        - 2.0 * P @ centers.T
        + np.sum(centers * centers, axis=1)[None, :]
    )
    return np.argmin(d2, axis=1), d2


def _lloyd(P, sq, k, rng):
    centers = _kmeans_pp_init(P, k, rng)
    labels = None
    for _ in range(_MAX_ITER):
        new_labels, d2 = _assign(P, centers, sq)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            mask = labels == j
            if not np.any(mask):
                # reseed an empty cluster from the farthest point
                far = np.argmax(np.min(d2, axis=1))
                centers[j] = P[far]
                labels[far] = j
                mask = labels == j
            centers[j] = P[mask].mean(axis=0)
    labels, d2 = _assign(P, centers, sq)
    inertia = float(np.sum(d2[np.arange(P.shape[0]), labels]))
    return labels, centers, inertia


def kmeans(emb, k, seed=0):
    """Best-of-restarts Lloyd's algorithm with k-means++ seeding.

    Deterministic for a given seed: restart r uses the substream (seed, r) and
    the winner is chosen by (inertia, restart index).
    """
    P = emb.points if isinstance(emb, Embedding) else Embedding(emb).points
    require_count(k, P.shape[0], "k clusters", "clustering", "kmeans")
    seed = require_count(seed, None, "seed", "clustering", "kmeans", low=0)
    sq = np.sum(P * P, axis=1)  # every restart's every assignment needs them
    best = None
    for r in range(_RESTARTS):
        rng = np.random.default_rng([seed, r])
        labels, centers, inertia = _lloyd(P, sq, k, rng)
        if best is None or inertia < best[0]:
            best = (inertia, labels, centers)
    inertia, labels, centers = best
    return Partition(labels=labels, centers=centers, inertia=inertia)


def _as_periods(periods, dim):
    """periods as a list of dim entries, each None, 0 or a finite real > 0,
    or InputError."""
    try:
        entries = [p if p is None else require_real(p, "a period", "clustering")
                   for p in periods]
    except (TypeError, InputError):  # a scalar, or an entry that is not a finite number
        entries = None
    if entries is None or len(entries) != dim or any(p is not None and p < 0 for p in entries):
        raise InputError(f"periods must give one entry per coordinate ({dim}), each None "
                         f"or 0 or a finite period > 0, got {periods!r}", "clustering")
    return entries


def coherence_score(pairs, labels, periods=None):
    """Cluster-size-weighted fraction of within-cluster endpoint pairs that
    stay within the median (_RADIUS_QUANTILE) of all endpoint pair distances.

    labels: one label per sample pair, a 1-D array. periods: optional, one
    entry per coordinate, each None or 0 (not periodic) or the finite period
    > 0 of a wrapped coordinate. Singleton clusters contribute 1.
    """
    Y = require_points(pairs.Y, "endpoints", "clustering")
    n = Y.shape[0]
    codes = require_points(labels, "labels", "clustering")  # 1-D labels are one point
    if np.ndim(labels) != 1 or codes.shape[1] != n:
        raise InputError(f"labels must be a 1-D array of one label per sample pair ({n}), "
                         f"got shape {np.shape(labels)}", "clustering")
    if periods is not None:
        periods = _as_periods(periods, Y.shape[1])  # once: an iterator is spent by reading
    # the n (n - 1) / 2 pair distances and np.quantile's partitioned copy
    require_memory(n * n, "coherence score")
    dist = np.empty(n * (n - 1) // 2)
    starts = np.r_[0, np.cumsum(np.arange(n - 1, 0, -1))]  # row i's pairs (i, j > i)
    for i in range(n - 1):
        diff = Y[i] - Y[i + 1:]
        if periods is not None:
            for dim, period in enumerate(periods):
                if period:
                    diff[:, dim] -= period * np.round(diff[:, dim] / period)
        dist[starts[i]:starts[i + 1]] = np.sqrt(np.sum(diff * diff, axis=1))
    threshold = np.quantile(dist, _RADIUS_QUANTILE)
    # within-cluster pairs of each label, in sorted-label order
    codes = np.unique(codes[0], return_inverse=True)[1]
    sizes = np.bincount(codes)
    close, total = np.zeros_like(sizes), np.zeros_like(sizes)
    for i in range(n - 1):
        row = dist[starts[i]:starts[i + 1]][codes[i + 1:] == codes[i]]
        total[codes[i]] += row.size
        close[codes[i]] += np.count_nonzero(row <= threshold)
    score = 0.0
    for size, c, t in zip(sizes, close, total):
        score += float(c / t if t else 1.0) * int(size) / n
    return score
