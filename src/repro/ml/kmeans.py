"""k-means clustering with k-means++ initialization.

Used by cluster batching (paper Section 3.5): data instances are clustered
over their embeddings, then batches are drawn within each cluster.

The assignment step is a single matmul: with row norms ``|x|^2`` computed
once per fit and centroid norms ``|c|^2`` once per iteration, squared
distances are ``|x|^2 - 2 x.c + |c|^2`` — no ``(n, k, d)`` broadcast
allocation, which is what makes 10k-point fits cheap.  Lloyd iterations
stop as soon as labels converge (the fixed point of the update step), which
is provably identical to running out the full iteration budget: once labels
repeat, centroids recompute to the same means and labels never move again.

The per-row reductions (row norms, k-means++ distances) run over row blocks
of at most :data:`BLOCK_BYTES` of temporary, so they cost a block, not a
second copy of the matrix.  Each output element reduces one row of the
C-ordered matrix (``fit`` and ``predict`` make it one) on its own, so it is
bit-identical under any blocking.  The update step's member copies
(the largest cluster) and the ``(n, k)`` assignment matmul stay whole:
blocking the first would change its summation order, and the second is
already ``k / dim`` of the matrix.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ReproError

#: float64 bytes per row block of a per-row reduction: 256 rows at the
#: embedder's 256 dimensions
BLOCK_BYTES = 1 << 19


def _row_sums(
    X: np.ndarray, square: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """``square(X).sum(axis=1)``, computed over row blocks of ``X``."""
    sums = np.empty(X.shape[0], dtype=np.float64)
    step = max(1, BLOCK_BYTES // (8 * max(X.shape[1], 1)))
    for start in range(0, X.shape[0], step):
        block = X[start:start + step]
        square(block).sum(axis=1, out=sums[start:start + step])
    return sums


def row_sq_norms(X: np.ndarray) -> np.ndarray:
    """Squared L2 norm of each row: ``(X * X).sum(axis=1)``, blocked."""
    return _row_sums(X, lambda block: block * block)


def sq_distances_to(X: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared distance of each row to ``point``:
    ``((X - point) ** 2).sum(axis=1)``, blocked."""
    return _row_sums(X, lambda block: (block - point) ** 2)


class KMeans:
    """Lloyd's algorithm with k-means++ seeding.

    Deterministic for a fixed ``seed``.  Empty clusters are re-seeded to the
    point farthest from its current centroid, so ``fit`` always produces
    exactly ``k`` non-degenerate clusters when there are at least ``k``
    distinct points.

    ``early_stop=False`` disables the convergence exit and runs all
    ``n_iter`` iterations — the pre-kernel reference behavior, kept so the
    property suite can prove the exit changes nothing.
    """

    def __init__(
        self, k: int, n_iter: int = 50, seed: int = 0, early_stop: bool = True
    ):
        if k <= 0:
            raise ValueError("k must be positive")
        if n_iter <= 0:
            raise ValueError("n_iter must be positive")
        self.k = k
        self.n_iter = n_iter
        self.seed = seed
        self.early_stop = early_stop
        self.centroids_: np.ndarray | None = None
        self.labels_: np.ndarray | None = None
        self.inertia_: float = float("inf")
        #: Lloyd iterations actually run by the last ``fit``
        self.n_iter_: int = 0

    @staticmethod
    def _pairwise_sq_distances(
        X: np.ndarray, x_norms: np.ndarray, centroids: np.ndarray
    ) -> np.ndarray:
        """Squared Euclidean distances via one matmul; clipped at zero so
        cancellation noise never produces a negative distance."""
        c_norms = (centroids * centroids).sum(axis=1)
        distances = x_norms[:, None] - 2.0 * (X @ centroids.T) + c_norms[None, :]
        np.maximum(distances, 0.0, out=distances)
        return distances

    def _init_centroids(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """k-means++ seeding: spread initial centroids apart."""
        n = X.shape[0]
        centroids = np.empty((self.k, X.shape[1]), dtype=np.float64)
        first = int(rng.integers(n))
        centroids[0] = X[first]
        closest_sq = sq_distances_to(X, centroids[0])
        for i in range(1, self.k):
            total = closest_sq.sum()
            if total <= 0.0:
                # All remaining points coincide with a centroid; pick any.
                centroids[i] = X[int(rng.integers(n))]
                continue
            probs = closest_sq / total
            choice = int(rng.choice(n, p=probs))
            centroids[i] = X[choice]
            dist_sq = sq_distances_to(X, centroids[i])
            closest_sq = np.minimum(closest_sq, dist_sq)
        return centroids

    def fit(self, X: np.ndarray) -> "KMeans":
        """Cluster the rows of ``X``; stores ``labels_`` and ``centroids_``."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ReproError(f"X must be 2-D, got shape {X.shape}")
        n = X.shape[0]
        if n == 0:
            raise ReproError("cannot cluster zero points")
        if n < self.k:
            # Degenerate but common in small tests: one point per cluster.
            self.centroids_ = X.copy()
            self.labels_ = np.arange(n)
            self.inertia_ = 0.0
            self.n_iter_ = 0
            return self

        rng = np.random.default_rng(self.seed)
        centroids = self._init_centroids(X, rng)
        x_norms = row_sq_norms(X)
        labels = np.zeros(n, dtype=np.int64)
        self.n_iter_ = 0
        for iteration in range(self.n_iter):
            # Assignment step: one matmul against the current centroids.
            distances = self._pairwise_sq_distances(X, x_norms, centroids)
            new_labels = distances.argmin(axis=1)
            self.n_iter_ = iteration + 1
            if (
                self.early_stop
                and iteration > 0
                and np.array_equal(new_labels, labels)
            ):
                break
            labels = new_labels
            # Update step, re-seeding empty clusters.
            for c in range(self.k):
                members = X[labels == c]
                if len(members) == 0:
                    farthest = int(distances.min(axis=1).argmax())
                    centroids[c] = X[farthest]
                else:
                    centroids[c] = members.mean(axis=0)
        distances = self._pairwise_sq_distances(X, x_norms, centroids)
        self.labels_ = distances.argmin(axis=1)
        self.inertia_ = float(distances.min(axis=1).sum())
        self.centroids_ = centroids
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Assign each row of ``X`` to its nearest learned centroid."""
        if self.centroids_ is None:
            raise ReproError("predict called before fit")
        X = np.ascontiguousarray(X, dtype=np.float64)
        x_norms = row_sq_norms(X)
        distances = self._pairwise_sq_distances(X, x_norms, self.centroids_)
        return distances.argmin(axis=1)

    def clusters(self) -> list[list[int]]:
        """Indices of the fitted points grouped by cluster label."""
        if self.labels_ is None:
            raise ReproError("clusters() called before fit")
        groups: list[list[int]] = [[] for __ in range(int(self.labels_.max()) + 1)]
        for index, label in enumerate(self.labels_):
            groups[int(label)].append(index)
        return [g for g in groups if g]
