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
the mean label of those coincident points only. ``predict_proba`` and the
permuted path below hand their distances to one helper, ``_scores``, so
that rule and the tie rule exist once.

**Permuted scoring.** ``permuted_proba(X, perms)`` scores every copy of X
whose column j is reordered by ``perms[j, r]``, as permutation importance
asks, without computing any copy's distances from scratch. Replacing
column j of a row changes only term j of its distance sum, and
``_pairwise_sum`` is a fixed tree of additions (``_sum_tree``). So for each
block of ``_PERMUTED_BLOCK`` rows the terms and every partial sum of that
tree are computed once. Then, for each column, the new term j of every
repeat goes up the path from leaf j to the total, adding at each step the
cached operand beside it. Each of those additions is the one
``_pairwise_sum`` makes for the shuffled copy, on the same two operands
(IEEE addition is commutative), so every distance, and hence every score,
is bit-equal to ``predict_proba`` of that copy. For 28 features a path is
at most 9 additions, against 83 operations for a full distance. A block
holds the (features x rows x train) terms and about as many partial sums:
0.9 MB per row for 28 features and 2,000 training rows. Blocks of 2 rows
keep that small. Blocks of 4 ran up to 10 % faster but raised the peak
memory of ``evaluate`` by about 3 MB more; blocks of 8 and 16 were no
faster than 4.
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
# Eval rows per block of permuted scoring, which holds about twice that array.
_PERMUTED_BLOCK = 2


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


def _sum_tree(n: int) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """The additions ``_pairwise_sum`` makes over n terms, and each term's way
    to the total.

    The additions are pairs of operand ids, in ``_pairwise_sum``'s order: id
    i < n is term i, id n is the 0.0 a short sum starts from, and id n + 1 + p
    is the sum made by pair p; the last pair makes the total. ``paths[j]``
    lists the operands added, one by one, to term j on its way to the total.
    """
    pairs: list[tuple[int, int]] = []

    def add(a: int, b: int) -> int:
        pairs.append((a, b))
        return n + len(pairs)

    def chain(acc: int, ids) -> int:
        for i in ids:
            acc = add(acc, i)
        return acc

    def build(lo: int, hi: int) -> int:
        size = hi - lo
        if size < 8:
            return chain(n, range(lo, hi))
        if size <= 128:
            stop = hi - size % 8
            r = [chain(lo + c, range(lo + c + 8, stop, 8)) for c in range(8)]
            head = add(add(add(r[0], r[1]), add(r[2], r[3])), add(add(r[4], r[5]), add(r[6], r[7])))
            return chain(head, range(stop, hi))
        half = size // 2
        half -= half % 8
        return add(build(lo, lo + half), build(lo + half, hi))

    build(0, n)
    up = {}  # operand id -> (id of the sum it goes into, the other operand)
    for p, (a, b) in enumerate(pairs):
        up[a] = (n + 1 + p, b)
        up[b] = (n + 1 + p, a)
    paths = []
    for j in range(n):
        path, node = [], j
        while node in up:
            node, other = up[node]
            path.append(other)
        paths.append(path)
    return pairs, paths


def _terms(Q: np.ndarray, T: np.ndarray, metric: str) -> np.ndarray:
    """The per-feature distance terms of query rows Q against the columns of T,
    (rows, features, train) for (rows, features) Q, made in place."""
    diff = Q[..., None] - T
    if metric == "euclidean":
        return np.multiply(diff, diff, out=diff)
    return np.abs(diff, out=diff)


def _block_distances(Q: np.ndarray, T: np.ndarray, metric: str) -> np.ndarray:
    """Distances from at most _BLOCK query rows to the columns of T (features x train)."""
    total = _pairwise_sum(_terms(Q, T, metric))
    return np.sqrt(total) if metric == "euclidean" else total


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

    def _scores(self, dist: np.ndarray) -> np.ndarray:
        """Scores of the query rows whose distances to the training rows are the rows of ``dist``."""
        # A loaded model may hold fewer training rows than n_neighbors; it uses them all.
        k = min(self.n_neighbors, dist.shape[1])
        nbrs = _nearest(dist, k)
        labels = self.train_y[nbrs]
        # Label sums are integers, so dividing the integer sum by the count is
        # exactly the float mean.
        if self.weights == "uniform":
            return labels.sum(axis=1) / k
        nbr_dist = dist[np.arange(nbrs.shape[0])[:, None], nbrs]
        zero = nbr_dist == 0.0
        coincident = zero.any(axis=1)
        probs = np.empty(dist.shape[0])
        rest = ~coincident
        w = 1.0 / nbr_dist[rest]
        # The weighted label sum and the weight sum, each in np.sum's order.
        sums = _pairwise_sum(np.stack((w * labels[rest], w), axis=2))
        probs[rest] = sums[:, 0] / sums[:, 1]
        # Exact matches dominate: average the coincident points only.
        zero = zero[coincident]
        probs[coincident] = np.where(zero, labels[coincident], 0).sum(axis=1) / zero.sum(axis=1)
        return probs

    def _check_fitted(self, X) -> np.ndarray:
        if self.train_X is None:
            raise RuntimeError("model is not fitted")
        return np.asarray(X, dtype=np.float64)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = self._check_fitted(X)
        probs = np.empty(X.shape[0])
        for start in range(0, X.shape[0], _BLOCK):
            dist = _block_distances(X[start : start + _BLOCK], self._train_T, self.metric)
            probs[start : start + _BLOCK] = self._scores(dist)
        return probs

    def permuted_proba(self, X: np.ndarray, perms: np.ndarray) -> np.ndarray:
        """Scores of X with column j reordered by ``perms[j, r]``, for every
        (j, r): a (columns x repeats x rows) array, each row bit-equal to
        ``predict_proba`` of that shuffled copy (see the module docstring)."""
        X = self._check_fitted(X)
        probs = np.empty(perms.shape)
        d, _, n = perms.shape
        pairs, paths = _sum_tree(d)
        T = self._train_T
        for start in range(0, n, _PERMUTED_BLOCK):
            rows = slice(start, start + _PERMUTED_BLOCK)
            # terms as (features, rows, train), so term j of the block is contiguous
            sums = list(_terms(X[rows].T, T[:, None, :], self.metric))
            sums.append(0.0)
            for a, b in pairs:
                sums.append(sums[a] + sums[b])
            for j in range(d):
                total = _terms(X[perms[j, :, rows], j], T[j], self.metric)  # (repeats, rows, train)
                for other in paths[j]:
                    total += sums[other]
                if self.metric == "euclidean":
                    np.sqrt(total, out=total)
                probs[j, :, rows] = self._scores(total.reshape(-1, T.shape[1])).reshape(total.shape[:2])
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
