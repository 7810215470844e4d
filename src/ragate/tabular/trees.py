"""CART-style binary trees shared by the tree, boosting, and forest families.

One grower handles weighted gini/entropy classification and mse regression
(for boosting residuals). Split search is exact over midpoints between
distinct sorted values ("best") or samples one uniform threshold per
candidate feature ("random"); max_features subsamples candidates per node.
Ties keep the first candidate encountered, so trees are reproducible for a
fixed rng.

A fitted tree is a ``Tree``: six parallel arrays over its nodes, in
pre-order (a node, then its whole left subtree, then its right subtree), so
the root is node 0 and every child comes after its parent:

* ``feature``: the column an internal node splits on, -1 at a leaf;
* ``threshold``: the split value (0.0 at a leaf);
* ``left`` / ``right``: child node indices (-1 at a leaf);
* ``value``: the node's leaf value (kept for internal nodes too);
* ``n``: the number of training samples that reached the node.

A row goes left when ``x[feature] <= threshold`` and right otherwise, so a
``NaN`` feature value always goes right. Growing pops nodes from an explicit
stack; scoring walks a few rows down one at a time and takes a batch down
all together, one level per vectorized step. No recursion depth grows with
the tree. ``to_dict`` writes the six arrays as plain JSON lists, and
``from_dict`` checks them (see ``Tree``).
"""

from __future__ import annotations

import math

import numpy as np

from .base import Family, InvalidHyperparameter, check_choice, check_max_depth

_CRITERIA_CLS = ("gini", "entropy")
_SPLITTERS = ("best", "random")
_FIELDS = ("feature", "threshold", "left", "right", "value", "n")
# Below this many rows a plain walk per row is cheaper than vectorized steps.
_WALK_ROWS = 16


def _column(values, name: str, integral: bool) -> np.ndarray:
    try:
        a = np.asarray(values)
    except (ValueError, TypeError, OverflowError):
        a = None
    if a is None or a.ndim != 1 or a.dtype.kind not in ("iu" if integral else "iuf"):
        raise ValueError(f"tree {name} must be a list of {'integers' if integral else 'numbers'}")
    if integral:
        if a.size and (a.min() < -1 or a.max() >= 2**31):
            raise ValueError(f"tree {name} holds an out-of-range index")
        return a.astype(np.intp)
    a = a.astype(np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"tree {name} must be finite")
    return a


class Tree:
    """One fitted tree as parallel node arrays in pre-order (see module doc)."""

    def __init__(self, feature, threshold, left, right, value, n):
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.value = np.asarray(value, dtype=np.float64)
        self.n = np.asarray(n, dtype=np.intp)
        # Scoring tables. Vectorized steps: a leaf is its own child on both
        # sides and reads column 0, so ``depth`` steps land every row on its
        # leaf. Row walks: the arrays as Python lists.
        split = self.feature >= 0
        node = np.arange(split.size)
        self._feature = np.where(split, self.feature, 0)
        self._child = np.stack([np.where(split, self.right, node), np.where(split, self.left, node)], axis=1).ravel()
        self._walk = tuple(a.tolist() for a in (self.feature, self.threshold, self.left, self.right, self.value))
        # depth: edges on the longest root-to-leaf path, one level per step
        level, self.depth = node[:1], 0
        while True:
            level = level[split[level]]
            if level.size == 0:
                break
            level = np.concatenate([self.left[level], self.right[level]])
            self.depth += 1

    def to_dict(self) -> dict:
        return {f: getattr(self, f).tolist() for f in _FIELDS}

    @classmethod
    def from_dict(cls, obj, n_features: int | None = None) -> "Tree":
        """Rebuild a tree from ``to_dict`` output; raises ``ValueError`` for
        arrays of unequal length, a child that is out of range or not after
        its parent, a node with other than one parent, a feature below -1
        (or at or past ``n_features`` when given), and a non-finite
        threshold or value."""
        if not isinstance(obj, dict) or set(obj) != set(_FIELDS):
            raise ValueError(f"a tree must be an object with exactly the keys {list(_FIELDS)}")
        arrays = {f: _column(obj[f], f, integral=f not in ("threshold", "value")) for f in _FIELDS}
        size = arrays["feature"].size
        if size == 0 or any(a.size != size for a in arrays.values()):
            raise ValueError("tree arrays must be non-empty and of equal length")
        feature, left, right = arrays["feature"], arrays["left"], arrays["right"]
        if n_features is not None and np.any(feature >= n_features):
            raise ValueError(f"tree splits on a feature outside [0, {n_features})")
        node, split = np.arange(size), feature >= 0
        for child in (left, right):
            if np.any(split & ((child <= node) | (child >= size))) or np.any(~split & (child != -1)):
                raise ValueError("tree child index is out of range or not after its parent")
        if not np.array_equal(np.sort(np.concatenate([left[split], right[split]])), node[1:]):
            raise ValueError("every tree node but the root must have exactly one parent")
        if np.any(arrays["n"] < 0):
            raise ValueError("tree sample counts must be >= 0")
        return cls(**arrays)


def resolve_max_features(max_features, n_features: int) -> int:
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(math.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(math.log2(n_features)))
    if isinstance(max_features, bool):
        raise InvalidHyperparameter("max_features must not be boolean")
    if isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise InvalidHyperparameter(f"fractional max_features must be in (0, 1], got {max_features}")
        return max(1, int(max_features * n_features))
    if isinstance(max_features, int):
        if max_features < 1:
            raise InvalidHyperparameter(f"max_features must be >= 1, got {max_features}")
        return min(max_features, n_features)
    raise InvalidHyperparameter(f"unsupported max_features {max_features!r}")


def check_max_features(max_features):
    """``max_features`` if ``resolve_max_features`` takes it: its rules do not depend on the column count."""
    resolve_max_features(max_features, 1)
    return max_features


def _impurity(criterion: str):
    """``f(w_pos, w_tot)``, the weighted child impurity of a classification
    criterion (shapes broadcast, w_tot > 0 required), or None for mse. Only
    entropy needs scipy; a tree imports it here, once."""
    if criterion == "mse":
        return None
    if criterion == "entropy":
        from scipy.special import xlogy

    def impurity(w_pos: np.ndarray, w_tot: np.ndarray) -> np.ndarray:
        p = w_pos / w_tot
        if criterion == "gini":
            return w_tot * 2.0 * p * (1.0 - p)
        return -(xlogy(w_pos, p) + xlogy(w_tot - w_pos, 1.0 - p))

    return impurity


def _children_score(y, w, mask, impurity) -> float:
    score = 0.0
    for side in (mask, ~mask):
        wt = float(np.sum(w[side]))
        wy = float(np.sum(w[side] * y[side]))
        if impurity is not None:
            score += float(impurity(np.float64(wy), np.float64(wt)))
        else:
            score += float(np.sum(w[side] * y[side] ** 2)) - wy * wy / wt
    return score


def _best_split(v: np.ndarray, y: np.ndarray, w: np.ndarray, impurity):
    order = np.argsort(v, kind="stable")
    vs, ys, ws = v[order], y[order], w[order]
    cut = np.nonzero(vs[1:] > vs[:-1])[0]
    if cut.size == 0:
        return None
    cw = np.cumsum(ws)
    if impurity is not None:
        cwp = np.cumsum(ws * ys)
        lw, lp = cw[cut], cwp[cut]
        rw, rp = cw[-1] - lw, cwp[-1] - lp
        score = impurity(lp, lw) + impurity(rp, rw)
    else:
        cwy = np.cumsum(ws * ys)
        cwy2 = np.cumsum(ws * ys * ys)
        lw, ly, ly2 = cw[cut], cwy[cut], cwy2[cut]
        rw, ry, ry2 = cw[-1] - lw, cwy[-1] - ly, cwy2[-1] - ly2
        score = (ly2 - ly * ly / lw) + (ry2 - ry * ry / rw)
    j = int(np.argmin(score))
    threshold = 0.5 * (vs[cut[j]] + vs[cut[j] + 1])
    # Midpoint can round onto the upper value; fall back to the lower one so
    # the left child keeps at least the samples at vs[cut[j]].
    if threshold >= vs[cut[j] + 1]:
        threshold = vs[cut[j]]
    return threshold, float(score[j])


def _random_split(v: np.ndarray, y: np.ndarray, w: np.ndarray, impurity, rng):
    lo, hi = float(np.min(v)), float(np.max(v))
    if lo == hi:
        return None
    threshold = float(rng.uniform(lo, hi))
    mask = v <= threshold
    if mask.all() or not mask.any():
        return None
    return threshold, _children_score(y, w, mask, impurity)


def grow_tree(
    X: np.ndarray,
    targets: np.ndarray,
    sample_weight: np.ndarray | None = None,
    *,
    criterion: str = "gini",
    splitter: str = "best",
    max_depth: int | None = None,
    max_features=None,
    rng=None,
    leaf_value=None,
    min_samples_split: int = 2,
) -> Tree:
    """Grow one tree; ``leaf_value(idx)`` maps sample indices to a leaf value.

    Nodes are grown in pre-order from an explicit stack (the left child is
    pushed last, so it is grown first), which also fixes the order of the
    rng draws for ``max_features`` and the random splitter.
    """
    if criterion not in _CRITERIA_CLS + ("mse",):
        raise InvalidHyperparameter(f"unknown criterion {criterion!r}")
    check_choice("splitter", splitter, _SPLITTERS)
    impurity = _impurity(criterion)
    X = np.asarray(X, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if sample_weight is None:
        sample_weight = np.ones(X.shape[0])
    if leaf_value is None:
        leaf_value = lambda idx: float(  # noqa: E731 - default: weighted mean
            np.sum(sample_weight[idx] * targets[idx]) / np.sum(sample_weight[idx])
        )
    n_features = X.shape[1]
    max_feats = resolve_max_features(max_features, n_features)
    rng = rng if rng is not None else np.random.default_rng(0)

    feature, threshold, left, right, value, n = [], [], [], [], [], []
    # (sample indices, depth, the node this is the right child of or -1)
    stack = [(np.arange(X.shape[0]), 0, -1)]
    while stack:
        idx, depth, right_of = stack.pop()
        node = len(value)
        if right_of >= 0:
            right[right_of] = node
        value.append(float(leaf_value(idx)))
        n.append(int(idx.size))
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        t = targets[idx]
        if idx.size < min_samples_split or (max_depth is not None and depth >= max_depth) or np.all(t == t[0]):
            continue

        if max_feats < n_features:
            feats = rng.choice(n_features, size=max_feats, replace=False)
        else:
            feats = np.arange(n_features)
        w = sample_weight[idx]
        best = None
        for f in feats:
            v = X[idx, f]
            if splitter == "best":
                found = _best_split(v, t, w, impurity)
            else:
                found = _random_split(v, t, w, impurity, rng)
            if found is not None and (best is None or found[1] < best[2]):
                best = (int(f), found[0], found[1])
        if best is None:
            continue

        # The left child is popped next, so it becomes node + 1.
        feature[node], threshold[node], left[node] = best[0], best[1], node + 1
        mask = X[idx, best[0]] <= best[1]
        stack.append((idx[~mask], depth + 1, node))
        stack.append((idx[mask], depth + 1, -1))
    return Tree(feature, threshold, left, right, value, n)


def tree_predict(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf value for each row of ``X``.

    A few rows walk down one by one and stop at their own leaf; a larger
    batch takes ``tree.depth`` vectorized steps, which cost a handful of
    numpy calls each, whatever the number of rows.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] < _WALK_ROWS:
        feature, threshold, left, right, value = tree._walk
        out = []
        for x in X.tolist():
            node = 0
            while feature[node] >= 0:
                node = left[node] if x[feature[node]] <= threshold[node] else right[node]
            out.append(value[node])
        return np.array(out, dtype=np.float64)
    flat = X.ravel()
    row_start = np.arange(X.shape[0]) * X.shape[1]
    node = np.zeros(X.shape[0], dtype=np.intp)
    for _ in range(tree.depth):
        node = tree._child[2 * node + (flat[row_start + tree._feature[node]] <= tree.threshold[node])]
    return tree.value[node]


def laplace_leaf(targets: np.ndarray, weights: np.ndarray):
    """Leaf probability (w_pos + 1)/(w_total + 2): never exactly 0 or 1."""

    def leaf_value(idx) -> float:
        w = weights[idx]
        return float((np.sum(w * targets[idx]) + 1.0) / (np.sum(w) + 2.0))

    return leaf_value


class DecisionTreeModel(Family):
    family = "dtree"

    def __init__(self, max_depth=None, max_features=None, criterion: str = "gini", splitter: str = "best", seed: int = 0):
        self.criterion = check_choice("criterion", criterion, _CRITERIA_CLS)
        self.max_depth = check_max_depth(max_depth)
        self.max_features = check_max_features(max_features)
        self.splitter = check_choice("splitter", splitter, _SPLITTERS)
        self.seed = seed
        self.tree: Tree | None = None

    @classmethod
    def fit_key(cls, params: dict) -> tuple[dict, bool]:
        # Exact splits over every feature draw nothing from the rng.
        return dict(params), not (params["splitter"] == "best" and params["max_features"] is None)

    def fit(self, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray | None = None) -> "DecisionTreeModel":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if sample_weight is None:
            sample_weight = np.ones(X.shape[0])
        self.tree = grow_tree(
            X,
            y,
            sample_weight,
            criterion=self.criterion,
            splitter=self.splitter,
            max_depth=self.max_depth,
            max_features=self.max_features,
            rng=np.random.default_rng(self.seed),
            leaf_value=laplace_leaf(y, sample_weight),
        )
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.tree is None:
            raise RuntimeError("model is not fitted")
        return tree_predict(self.tree, X)

    def _state(self) -> dict:
        return {"tree": self.tree.to_dict()}

    def _load(self, obj: dict, n_features: int | None) -> None:
        self.tree = Tree.from_dict(obj["tree"], n_features)
