"""Bagged decision trees with per-node feature subsampling."""

from __future__ import annotations

import numpy as np

from .base import InvalidHyperparameter, check_two_classes, resolve_sample_weights
from .trees import Tree, grow_tree, laplace_leaf, tree_predict

_CRITERIA = ("gini", "entropy")


class RandomForestModel:
    family = "rforest"
    PARAMS = frozenset({"n_estimators", "max_depth", "max_features", "bootstrap", "criterion", "class_weight"})

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
        if criterion not in _CRITERIA:
            raise InvalidHyperparameter(f"criterion must be one of {_CRITERIA}, got {criterion!r}")
        if not isinstance(bootstrap, bool):
            raise InvalidHyperparameter(f"bootstrap must be boolean, got {bootstrap!r}")
        self.n_estimators = int(n_estimators)
        self.max_depth = max_depth
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.criterion = criterion
        self.class_weight = class_weight
        self.seed = seed
        self.trees: list = []

    def get_params(self) -> dict:
        return {
            "n_estimators": self.n_estimators,
            "max_depth": self.max_depth,
            "max_features": self.max_features,
            "bootstrap": self.bootstrap,
            "criterion": self.criterion,
            "class_weight": self.class_weight,
        }

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

    def to_dict(self) -> dict:
        return {
            "params": self.get_params(),
            "seed": self.seed,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, obj: dict, n_features: int | None = None) -> "RandomForestModel":
        params = dict(obj["params"])
        cw = params.get("class_weight")
        if isinstance(cw, dict):
            params["class_weight"] = {int(k): float(v) for k, v in cw.items()}
        model = cls(**params, seed=obj["seed"])
        model.trees = [Tree.from_dict(t, n_features) for t in obj["trees"]]
        if not model.trees:
            raise ValueError("rforest state holds no trees")
        return model
