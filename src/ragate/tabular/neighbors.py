"""Exact k-nearest-neighbour classifier (brute force, deterministic ties).

Scoring is exact and reproduces, bit for bit, the plain formulation: the
distance matrix ``sqrt(sum((A[:, None] - B[None]) ** 2, axis=-1))`` (or the
sum of absolute differences), a stable argsort of each row, and per-row
averaging. It gets there without the (queries x train x features) temporary
and without sorting every row:

* **Layout.** ``fit``/``from_dict`` keep the training matrix a second time,
  transposed to a contiguous (features x train) array, so scoring never
  copies it.
* **Blocks.** Distances are computed for ``_BLOCK`` (8) query rows at a
  time: one (8 x features x train) difference array, squared (or made
  absolute) in place, then summed over the feature axis.
* **Summation order.** ``_pairwise_sum`` adds the feature terms in the order
  numpy's ``np.sum`` uses along a contiguous axis (its pairwise sum): fewer
  than 8 terms are added left to right onto 0; up to 128 terms go into 8
  running accumulators, which combine as
  ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the tail is added left to
  right; above 128 the terms are halved (the first half a multiple of 8
  long) and the two sums added. The same helper
  sums the inverse-distance weights, so weighted scores match ``np.sum`` on
  each row too.
* **Ties.** ``np.argpartition`` picks k candidates per row, and they are
  ordered by (distance, training index). Where more than k training rows lie
  at or below the k-th distance, the tie is broken by a stable argsort of
  that row alone. Either way the neighbours are the first k of the row's
  stable argsort.

With ``weights="distance"`` a row that has neighbours at distance zero takes
the mean label of those coincident points only.
"""

from __future__ import annotations

import numpy as np

from .base import Family, InvalidHyperparameter, check_choice

_METRICS = ("euclidean", "manhattan")
# Tree-based index names accepted for grid compatibility; search is always exact.
_ALGORITHMS = ("auto", "ball_tree", "kd_tree", "brute")
_WEIGHTS = ("uniform", "distance")

# Query rows per distance block; each block holds one (rows x features x train) array.
_BLOCK = 8


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    """Sum a (rows, n, cols) array over axis 1 in numpy's pairwise order."""
    n = a.shape[1]
    if n < 8:
        res = np.zeros((a.shape[0], a.shape[2]))
        for j in range(n):
            res += a[:, j]
        return res
    if n <= 128:
        stop = n - n % 8
        r = a[:, :8].copy()
        for i in range(8, stop, 8):
            r += a[:, i : i + 8]
        r[:, 0:4:2] += r[:, 1:4:2]  # r0 + r1, r2 + r3
        r[:, 4:8:2] += r[:, 5:8:2]  # r4 + r5, r6 + r7
        r[:, 0:8:4] += r[:, 2:8:4]  # (r0 + r1) + (r2 + r3), (r4 + r5) + (r6 + r7)
        res = r[:, 0]
        res += r[:, 4]
        for j in range(stop, n):
            res += a[:, j]
        return res
    half = n // 2
    half -= half % 8
    res = _pairwise_sum(a[:, :half])
    res += _pairwise_sum(a[:, half:])
    return res


def _block_distances(Q: np.ndarray, T: np.ndarray, metric: str) -> np.ndarray:
    """Distances from at most _BLOCK query rows to the columns of T (features x train)."""
    diff = Q[:, :, None] - T[None, :, :]
    if metric == "euclidean":
        np.multiply(diff, diff, out=diff)
        return np.sqrt(_pairwise_sum(diff))
    np.abs(diff, out=diff)
    return _pairwise_sum(diff)


def _distance_blocks(X: np.ndarray, T: np.ndarray, metric: str):
    for start in range(0, X.shape[0], _BLOCK):
        yield start, _block_distances(X[start : start + _BLOCK], T, metric)


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Per row, the first k columns of ``np.argsort(dist, kind="stable")``."""
    part = np.argpartition(dist, k - 1, axis=1)[:, :k]
    rows = np.arange(dist.shape[0])[:, None]
    part_dist = dist[rows, part]
    cand = part[rows, np.lexsort((part, part_dist), axis=1)]
    # part_dist[:, k - 1] is the k-th smallest distance. A row where it is
    # tied past k (or is NaN) sorts in full.
    tied = np.count_nonzero(dist <= part_dist[:, k - 1 :], axis=1) != k
    for i in np.flatnonzero(tied):
        cand[i] = np.argsort(dist[i], kind="stable")[:k]
    return cand


class KNNModel(Family):
    family = "knn"

    def __init__(self, n_neighbors: int = 5, metric: str = "euclidean", algorithm: str = "auto", weights: str = "uniform", seed: int = 0):
        self.metric = check_choice("metric", metric, _METRICS)
        self.algorithm = check_choice("algorithm", algorithm, _ALGORITHMS)
        self.weights = check_choice("weights", weights, _WEIGHTS)
        if n_neighbors < 1:
            raise InvalidHyperparameter(f"n_neighbors must be >= 1, got {n_neighbors}")
        self.n_neighbors = int(n_neighbors)
        self.seed = seed
        self.train_X: np.ndarray | None = None
        self.train_y: np.ndarray | None = None
        self._train_T: np.ndarray | None = None

    @classmethod
    def fit_key(cls, params: dict) -> tuple[dict, bool]:
        # Search is exact brute force whatever the algorithm name.
        return {k: v for k, v in params.items() if k != "algorithm"}, False

    def _set_train(self, X, y) -> None:
        self.train_X = np.asarray(X, dtype=np.float64)
        self.train_y = np.asarray(y, dtype=np.int64)
        self._train_T = np.ascontiguousarray(self.train_X.T)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KNNModel":
        X = np.asarray(X, dtype=np.float64)
        if self.n_neighbors > X.shape[0]:
            raise InvalidHyperparameter(
                f"n_neighbors={self.n_neighbors} exceeds {X.shape[0]} training rows"
            )
        self._set_train(X, y)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.train_X is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        # A loaded model may hold fewer training rows than n_neighbors; it uses them all.
        k = min(self.n_neighbors, self._train_T.shape[1])
        nbrs = np.empty((X.shape[0], k), dtype=np.intp)
        nbr_dist = np.empty((X.shape[0], k))
        for start, dist in _distance_blocks(X, self._train_T, self.metric):
            idx = _nearest(dist, k)
            nbrs[start : start + idx.shape[0]] = idx
            nbr_dist[start : start + idx.shape[0]] = dist[np.arange(idx.shape[0])[:, None], idx]
        labels = self.train_y[nbrs]
        # Label sums are integers, so dividing the integer sum by the count is
        # exactly the float mean.
        if self.weights == "uniform":
            return labels.sum(axis=1) / k
        zero = nbr_dist == 0.0
        coincident = zero.any(axis=1)
        probs = np.empty(X.shape[0])
        rest = ~coincident
        w = 1.0 / nbr_dist[rest]
        # The weighted label sum and the weight sum, each in np.sum's order.
        sums = _pairwise_sum(np.stack((w * labels[rest], w), axis=2))
        probs[rest] = sums[:, 0] / sums[:, 1]
        # Exact matches dominate: average the coincident points only.
        zero = zero[coincident]
        probs[coincident] = np.where(zero, labels[coincident], 0).sum(axis=1) / zero.sum(axis=1)
        return probs

    def _state(self) -> dict:
        return {
            "train_X": [[float(v) for v in row] for row in self.train_X],
            "train_y": [int(v) for v in self.train_y],
        }

    def _load(self, obj: dict, n_features: int | None) -> None:
        self._set_train(obj["train_X"], obj["train_y"])
        rows, width = self.train_X.shape if self.train_X.ndim == 2 else (0, None)
        if rows == 0 or self.train_y.shape != (rows,) or n_features not in (None, width):
            raise ValueError(f"knn training rows do not fit {n_features} features")
