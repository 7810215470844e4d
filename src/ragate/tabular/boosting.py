"""Gradient-boosted trees on logistic loss with Newton leaf updates."""

from __future__ import annotations

import numpy as np

from .base import Family, InvalidHyperparameter, _sigmoid, check_max_depth, check_two_classes
from .trees import Tree, check_max_features, grow_tree, tree_predict

_LEAF_EPS = 1e-12


def logistic_loss(raw: np.ndarray, y: np.ndarray) -> float:
    """Mean negative log-likelihood of labels under logits ``raw``."""
    y_pm = np.where(y == 1, 1.0, -1.0)
    return float(np.mean(np.logaddexp(0.0, -y_pm * raw)))


class GradientBoostingModel(Family):
    family = "gboost"
    # Tree i is grown from the same raw scores and rng state whatever the count.
    PREFIX = "n_estimators"

    def __init__(self, n_estimators: int = 50, learning_rate: float = 0.05, max_depth: int = 3, max_features=None, seed: int = 0):
        if n_estimators < 1:
            raise InvalidHyperparameter(f"n_estimators must be >= 1, got {n_estimators}")
        if not learning_rate > 0:
            raise InvalidHyperparameter(f"learning_rate must be positive, got {learning_rate}")
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = check_max_depth(max_depth)
        self.max_features = check_max_features(max_features)
        self.seed = seed
        self.base_score: float = 0.0
        self.trees: list = []
        self.train_loss_history: list[float] = []

    @classmethod
    def fit_key(cls, params: dict) -> tuple[dict, bool]:
        # Every split is exact; only a max_features subset draws from the rng.
        return dict(params), params["max_features"] is not None

    def truncated(self, k: int) -> "GradientBoostingModel":
        view = super().truncated(k)
        view.train_loss_history = self.train_loss_history[: k + 1]
        return view

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingModel":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        check_two_classes(y.astype(np.int64), self.family)
        rng = np.random.default_rng(self.seed)

        prior = float(np.mean(y))
        self.base_score = float(np.log(prior / (1.0 - prior)))
        raw = np.full(X.shape[0], self.base_score)
        self.trees = []
        self.train_loss_history = [logistic_loss(raw, y)]
        for _ in range(self.n_estimators):
            p = _sigmoid(raw)
            residual = y - p  # negative gradient of the logistic loss
            hessian = p * (1.0 - p)

            def newton_leaf(idx, residual=residual, hessian=hessian) -> float:
                return float(np.sum(residual[idx]) / (np.sum(hessian[idx]) + _LEAF_EPS))

            tree = grow_tree(
                X,
                residual,
                criterion="mse",
                splitter="best",
                max_depth=self.max_depth,
                max_features=self.max_features,
                rng=rng,
                leaf_value=newton_leaf,
            )
            self.trees.append(tree)
            raw = raw + self.learning_rate * tree_predict(tree, X)
            self.train_loss_history.append(logistic_loss(raw, y))
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        raw = np.full(np.asarray(X).shape[0], self.base_score)
        for tree in self.trees:
            raw = raw + self.learning_rate * tree_predict(tree, X)
        return raw

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self.trees:
            raise RuntimeError("model is not fitted")
        return _sigmoid(self.decision_function(X))

    def _state(self) -> dict:
        return {
            "base_score": self.base_score,
            "trees": [t.to_dict() for t in self.trees],
            "train_loss_history": self.train_loss_history,
        }

    def _load(self, obj: dict, n_features: int | None) -> None:
        self.base_score = float(obj["base_score"])
        self.trees = [Tree.from_dict(t, n_features) for t in obj["trees"]]
        if not self.trees:
            raise ValueError("gboost state holds no trees")
        self.train_loss_history = [float(v) for v in obj.get("train_loss_history", [])]
