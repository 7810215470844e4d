"""L2-regularized logistic regression trained by L-BFGS.

Both grid solver names ("lbfgs", "liblinear") map to the same optimizer:
the loss is convex, so the solver choice only matters for speed, not for
the learned decision function.
"""

from __future__ import annotations

import numpy as np

from .base import Family, InvalidHyperparameter, _sigmoid, check_choice, check_class_weight, check_two_classes
from .base import resolve_sample_weights

_SOLVERS = ("lbfgs", "liblinear")


def loss_and_grad(params: np.ndarray, X: np.ndarray, y_pm: np.ndarray, C: float, sample_weight: np.ndarray):
    """Regularized negative log-likelihood and its exact gradient.

    params = (w_1..w_d, b); y_pm in {-1, +1}. Matches the classic
    formulation 0.5 wᵀw + C Σ s_i log(1 + exp(-y_i (x_i·w + b))).
    """
    w, b = params[:-1], params[-1]
    z = X @ w + b
    margins = y_pm * z
    loss = 0.5 * float(w @ w) + C * float(np.sum(sample_weight * np.logaddexp(0.0, -margins)))
    # d/dz of the data term: -C s y σ(-y z)
    dz = -C * sample_weight * y_pm * _sigmoid(-margins)
    grad = np.empty_like(params)
    grad[:-1] = w + X.T @ dz
    grad[-1] = float(np.sum(dz))
    return loss, grad


class LogisticRegressionModel(Family):
    family = "logreg"

    def __init__(self, C: float = 1.0, solver: str = "lbfgs", class_weight=None, max_iter: int = 10000, seed: int = 0):
        self.solver = check_choice("solver", solver, _SOLVERS)
        if not C > 0:
            raise InvalidHyperparameter(f"C must be positive, got {C}")
        self.C = float(C)
        self.class_weight = check_class_weight(class_weight)
        self.max_iter = int(max_iter)
        self.seed = seed
        self.weights: np.ndarray | None = None
        self.bias: float = 0.0

    @classmethod
    def fit_key(cls, params: dict) -> tuple[dict, bool]:
        # One optimizer runs for both solver names, from a zero start.
        key, _ = super().fit_key(params)
        del key["solver"]
        return key, False

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegressionModel":
        from scipy import optimize  # only a fit needs scipy; scoring and loading do not

        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        check_two_classes(y, self.family)
        sw = resolve_sample_weights(y, self.class_weight)
        y_pm = np.where(y == 1, 1.0, -1.0)
        x0 = np.zeros(X.shape[1] + 1)
        result = optimize.minimize(
            loss_and_grad,
            x0,
            args=(X, y_pm, self.C, sw),
            method="L-BFGS-B",
            jac=True,
            options={"maxiter": self.max_iter, "ftol": 1e-12, "gtol": 1e-8},
        )
        self.weights = result.x[:-1]
        self.bias = float(result.x[-1])
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("model is not fitted")
        return _sigmoid(np.asarray(X, dtype=np.float64) @ self.weights + self.bias)

    def _state(self) -> dict:
        return {"weights": [float(v) for v in self.weights], "bias": self.bias}

    def _load(self, obj: dict, n_features: int | None) -> None:
        self.weights = np.asarray(obj["weights"], dtype=np.float64)
        self.bias = float(obj["bias"])
        if self.weights.ndim != 1 or n_features not in (None, self.weights.size):
            raise ValueError(f"logreg weights do not fit {n_features} features")
