"""Bagged decision trees with per-node feature subsampling."""

from __future__ import annotations

import numpy as np

from .base import Family, InvalidHyperparameter, check_choice, check_class_weight, check_max_depth, check_two_classes
from .base import resolve_sample_weights
from .trees import _CRITERIA_CLS, Tree, check_max_features, grow_tree, laplace_leaf, tree_predict


class RandomForestModel(Family):
    family = "rforest"
    # Tree i draws from the i-th spawned stream whatever the count.
    PREFIX = "n_estimators"

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth=None,
        max_features="sqrt",
        bootstrap: bool = True,
        criterion: str = "gini",
        class_weight=None,
        seed: int = 0,
    ):
        if n_estimators < 1:
            raise InvalidHyperparameter(f"n_estimators must be >= 1, got {n_estimators}")
        self.criterion = check_choice("criterion", criterion, _CRITERIA_CLS)
        if not isinstance(bootstrap, bool):
            raise InvalidHyperparameter(f"bootstrap must be boolean, got {bootstrap!r}")
        self.n_estimators = int(n_estimators)
        self.max_depth = check_max_depth(max_depth)
        self.max_features = check_max_features(max_features)
        self.bootstrap = bootstrap
        self.class_weight = check_class_weight(class_weight)
        self.seed = seed
        self.trees: list = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestModel":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        check_two_classes(y, self.family)
        weights = resolve_sample_weights(y, self.class_weight)
        # One independent stream per tree keeps members trainable in any
        # order without changing the ensemble.
        streams = [np.random.default_rng(s) for s in np.random.SeedSequence(self.seed).spawn(self.n_estimators)]
        self.trees = []
        n = X.shape[0]
        yf = y.astype(np.float64)
        for rng in streams:
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
            else:
                idx = np.arange(n)
            Xb, yb, wb = X[idx], yf[idx], weights[idx]
            tree = grow_tree(
                Xb,
                yb,
                wb,
                criterion=self.criterion,
                splitter="best",
                max_depth=self.max_depth,
                max_features=self.max_features,
                rng=rng,
                leaf_value=laplace_leaf(yb, wb),
            )
            self.trees.append(tree)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self.trees:
            raise RuntimeError("model is not fitted")
        votes = np.stack([tree_predict(t, X) for t in self.trees])
        return votes.mean(axis=0)

    def _state(self) -> dict:
        return {"trees": [t.to_dict() for t in self.trees]}

    def _load(self, obj: dict, n_features: int | None) -> None:
        self.trees = [Tree.from_dict(t, n_features) for t in obj["trees"]]
        if not self.trees:
            raise ValueError("rforest state holds no trees")
