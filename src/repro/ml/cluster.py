"""K-means clustering (the model-clustering optimization's workhorse, §4.1).

Lloyd's algorithm with k-means++ initialization and an empty-cluster
re-seeding step. ``fit`` records ``inertia_`` and per-cluster feature
statistics (:meth:`KMeans.cluster_constant_features`) that the
model-clustering rule uses to decide which features are constant within a
cluster and can therefore be folded out of the per-cluster model.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MLError
from repro.ml.base import BaseEstimator, as_matrix


class KMeans(BaseEstimator):
    """Standard k-means."""

    def __init__(
        self,
        n_clusters: int = 8,
        max_iter: int = 100,
        tol: float = 1e-6,
        n_init: int = 3,
        random_state: int | None = None,
    ):
        if n_clusters < 1:
            raise MLError("n_clusters must be positive")
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.tol = tol
        self.n_init = n_init
        self.random_state = random_state
        self.cluster_centers_: np.ndarray | None = None
        self.labels_: np.ndarray | None = None
        self.inertia_: float | None = None
        self.n_iter_: int = 0

    # -- fitting -----------------------------------------------------------

    def fit(self, X, y=None) -> "KMeans":
        X = as_matrix(X)
        if X.shape[0] < self.n_clusters:
            raise MLError(
                f"n_samples={X.shape[0]} < n_clusters={self.n_clusters}"
            )
        rng = np.random.default_rng(self.random_state)
        best = None
        for _ in range(self.n_init):
            centers, labels, inertia, iters = self._run_once(X, rng)
            if best is None or inertia < best[2]:
                best = (centers, labels, inertia, iters)
        self.cluster_centers_, self.labels_, self.inertia_, self.n_iter_ = best
        return self

    def _run_once(self, X: np.ndarray, rng: np.random.Generator):
        centers = self._kmeans_plus_plus(X, rng)
        labels = np.zeros(X.shape[0], dtype=np.int64)
        for iteration in range(self.max_iter):
            distances = self._distances(X, centers)
            labels = np.argmin(distances, axis=1)
            new_centers = centers.copy()
            for k in range(self.n_clusters):
                members = X[labels == k]
                if len(members) == 0:
                    # Re-seed an empty cluster at the farthest point.
                    farthest = np.argmax(distances.min(axis=1))
                    new_centers[k] = X[farthest]
                else:
                    new_centers[k] = members.mean(axis=0)
            shift = np.linalg.norm(new_centers - centers)
            centers = new_centers
            if shift < self.tol:
                break
        distances = self._distances(X, centers)
        labels = np.argmin(distances, axis=1)
        inertia = float(distances[np.arange(len(labels)), labels].sum())
        return centers, labels, inertia, iteration + 1

    def _kmeans_plus_plus(
        self, X: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        n = X.shape[0]
        centers = [X[rng.integers(0, n)]]
        for _ in range(1, self.n_clusters):
            distances = self._distances(X, np.vstack(centers)).min(axis=1)
            total = distances.sum()
            if total <= 0.0:
                centers.append(X[rng.integers(0, n)])
                continue
            probabilities = distances / total
            centers.append(X[rng.choice(n, p=probabilities)])
        return np.vstack(centers)

    @staticmethod
    def _distances(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """Squared euclidean distances, ``(n_samples, n_clusters)``.

        Clamped at zero: the expansion can go slightly negative in
        floating point, which would break the k-means++ sampling weights.
        """
        distances = (
            (X**2).sum(axis=1, keepdims=True)
            - 2.0 * X @ centers.T
            + (centers**2).sum(axis=1)
        )
        return np.maximum(distances, 0.0)

    # -- inference -----------------------------------------------------------

    def predict(self, X) -> np.ndarray:
        self.check_fitted("cluster_centers_")
        X = as_matrix(X)
        return np.argmin(self._distances(X, self.cluster_centers_), axis=1)

    # -- support for the model-clustering rule ---------------------------

    def cluster_constant_features(
        self, X, tolerance: float = 1e-9
    ) -> list[dict[int, float]]:
        """Per cluster, the features that are constant within the cluster.

        Returns one dict per cluster mapping feature index -> the constant
        value. The model-clustering rule treats these exactly like
        ``feature = value`` predicates and prunes the per-cluster model
        accordingly (paper §4.1, "model clustering").
        """
        self.check_fitted("cluster_centers_")
        X = as_matrix(X)
        labels = self.predict(X)
        result: list[dict[int, float]] = []
        for k in range(self.n_clusters):
            members = X[labels == k]
            constants: dict[int, float] = {}
            if len(members) > 0:
                spans = members.max(axis=0) - members.min(axis=0)
                for j in np.nonzero(spans <= tolerance)[0]:
                    constants[int(j)] = float(members[0, j])
            result.append(constants)
        return result
