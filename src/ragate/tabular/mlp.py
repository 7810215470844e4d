"""Small feed-forward binary classifier with adam/sgd training.

Parameters live in one flat vector (packed layer by layer), which keeps
the optimizer state trivial and lets the gradient be checked against
finite differences directly.
"""

from __future__ import annotations

import numpy as np

from .base import DegenerateData, Family, InvalidHyperparameter, _sigmoid, check_choice, check_two_classes

_ACTIVATIONS = ("relu", "tanh")
_SOLVERS = ("adam", "sgd")
_LR_SCHEDULES = ("constant", "adaptive")

_TOL = 1e-4
_PATIENCE = 10
_LR_INIT = 0.001
_MOMENTUM = 0.9


def layer_shapes(n_features: int, hidden_layer_sizes: tuple[int, ...]) -> list[tuple[int, int]]:
    sizes = [n_features, *hidden_layer_sizes, 1]
    return [(sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)]


def pack_params(layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    return np.concatenate([np.concatenate([W.ravel(), b]) for W, b in layers])


def unpack_params(flat: np.ndarray, shapes: list[tuple[int, int]]) -> list[tuple[np.ndarray, np.ndarray]]:
    layers = []
    pos = 0
    for fan_in, fan_out in shapes:
        W = flat[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out)
        pos += fan_in * fan_out
        b = flat[pos : pos + fan_out]
        pos += fan_out
        layers.append((W, b))
    return layers


def _act(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _act_deriv_from_output(a: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return (a > 0.0).astype(np.float64)
    return 1.0 - a * a


def forward_logits(flat: np.ndarray, shapes, X: np.ndarray, activation: str) -> np.ndarray:
    layers = unpack_params(flat, shapes)
    a = X
    for W, b in layers[:-1]:
        a = _act(a @ W + b, activation)
    W, b = layers[-1]
    return (a @ W + b)[:, 0]


def mlp_loss_and_grad(flat: np.ndarray, shapes, X: np.ndarray, y: np.ndarray, alpha: float, activation: str):
    """Mean log-loss + (alpha/2n)·Σ‖W‖² and its exact flat gradient."""
    layers = unpack_params(flat, shapes)
    n = X.shape[0]
    acts = [X]
    for W, b in layers[:-1]:
        acts.append(_act(acts[-1] @ W + b, activation))
    W_out, b_out = layers[-1]
    logits = (acts[-1] @ W_out + b_out)[:, 0]

    y_pm = np.where(y == 1, 1.0, -1.0)
    reg = sum(float(np.sum(W * W)) for W, _ in layers)
    loss = float(np.mean(np.logaddexp(0.0, -y_pm * logits))) + 0.5 * alpha * reg / n

    delta = ((_sigmoid(logits) - y) / n)[:, None]
    grads: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(layers)
    for layer_i in range(len(layers) - 1, -1, -1):
        W, _ = layers[layer_i]
        grads[layer_i] = (acts[layer_i].T @ delta + alpha * W / n, delta.sum(axis=0))
        if layer_i > 0:
            delta = (delta @ W.T) * _act_deriv_from_output(acts[layer_i], activation)
    return loss, pack_params(grads)


class MLPModel(Family):
    family = "mlp"

    def __init__(
        self,
        hidden_layer_sizes=(100,),
        activation: str = "relu",
        solver: str = "adam",
        alpha: float = 0.0001,
        learning_rate: str = "constant",
        early_stopping: bool = True,
        max_iter: int = 200,
        seed: int = 0,
    ):
        self.activation = check_choice("activation", activation, _ACTIVATIONS)
        self.solver = check_choice("solver", solver, _SOLVERS)
        self.learning_rate = check_choice("learning_rate", learning_rate, _LR_SCHEDULES)
        sizes = tuple(int(h) for h in hidden_layer_sizes)
        if not sizes or any(h < 1 for h in sizes):
            raise InvalidHyperparameter(f"hidden_layer_sizes must be positive, got {hidden_layer_sizes!r}")
        if alpha < 0:
            raise InvalidHyperparameter(f"alpha must be >= 0, got {alpha}")
        self.hidden_layer_sizes = sizes
        self.alpha = float(alpha)
        self.early_stopping = bool(early_stopping)
        self.max_iter = int(max_iter)
        self.seed = seed
        self.flat: np.ndarray | None = None
        self.shapes: list[tuple[int, int]] | None = None

    @classmethod
    def fit_key(cls, params: dict) -> tuple[dict, bool]:
        # Only sgd reads the learning-rate schedule.
        drop = "learning_rate" if params["solver"] == "adam" else None
        return {k: v for k, v in params.items() if k != drop}, True

    def _init_params(self, rng, shapes) -> np.ndarray:
        layers = []
        for fan_in, fan_out in shapes:
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            layers.append((rng.uniform(-bound, bound, size=(fan_in, fan_out)), np.zeros(fan_out)))
        return pack_params(layers)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLPModel":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        check_two_classes(y.astype(np.int64), self.family)
        n = X.shape[0]
        if n < 2:
            raise DegenerateData("mlp needs at least 2 rows")
        rng = np.random.default_rng(self.seed)
        self.shapes = layer_shapes(X.shape[1], self.hidden_layer_sizes)
        flat = self._init_params(rng, self.shapes)

        if self.early_stopping:
            perm = rng.permutation(n)
            n_val = max(1, int(round(0.1 * n)))
            val_idx, fit_idx = perm[:n_val], perm[n_val:]
            if fit_idx.size == 0:
                raise DegenerateData("mlp early-stopping split left no training rows")
        else:
            val_idx, fit_idx = np.empty(0, dtype=np.int64), np.arange(n)
        X_fit, y_fit = X[fit_idx], y[fit_idx]
        batch = min(200, X_fit.shape[0])

        lr = _LR_INIT
        m = np.zeros_like(flat)
        v = np.zeros_like(flat)
        velocity = np.zeros_like(flat)
        t = 0
        best_metric = -np.inf
        best_flat = flat.copy()
        best_loss = np.inf
        stall = 0
        loss_stall = 0

        for _ in range(self.max_iter):
            order = rng.permutation(X_fit.shape[0])
            for lo in range(0, X_fit.shape[0], batch):
                sel = order[lo : lo + batch]
                _, grad = mlp_loss_and_grad(flat, self.shapes, X_fit[sel], y_fit[sel], self.alpha, self.activation)
                if self.solver == "adam":
                    t += 1
                    m = 0.9 * m + 0.1 * grad
                    v = 0.999 * v + 0.001 * grad * grad
                    m_hat = m / (1.0 - 0.9**t)
                    v_hat = v / (1.0 - 0.999**t)
                    flat = flat - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
                else:
                    velocity = _MOMENTUM * velocity - lr * grad
                    flat = flat + velocity

            epoch_loss, _ = mlp_loss_and_grad(flat, self.shapes, X_fit, y_fit, self.alpha, self.activation)
            if epoch_loss < best_loss - _TOL:
                best_loss = epoch_loss
                loss_stall = 0
            else:
                loss_stall += 1
            if self.learning_rate == "adaptive" and self.solver == "sgd" and loss_stall >= 2:
                lr = max(lr / 5.0, 1e-6)
                loss_stall = 0

            if self.early_stopping:
                val_logits = forward_logits(flat, self.shapes, X[val_idx], self.activation)
                val_acc = float(np.mean((val_logits >= 0.0) == (y[val_idx] == 1.0)))
                if val_acc > best_metric + _TOL:
                    best_metric = val_acc
                    best_flat = flat.copy()
                    stall = 0
                else:
                    stall += 1
                if stall >= _PATIENCE:
                    break
            else:
                best_flat = flat
                if loss_stall >= _PATIENCE:
                    break

        self.flat = best_flat if self.early_stopping else flat
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.flat is None:
            raise RuntimeError("model is not fitted")
        return _sigmoid(forward_logits(self.flat, self.shapes, np.asarray(X, dtype=np.float64), self.activation))

    def _state(self) -> dict:
        return {"shapes": [list(s) for s in self.shapes], "flat": [float(v) for v in self.flat]}

    def _load(self, obj: dict, n_features: int | None) -> None:
        self.shapes = [tuple(s) for s in obj["shapes"]]
        self.flat = np.asarray(obj["flat"], dtype=np.float64)
        width = self.shapes[0][0] if n_features is None else n_features
        expected = layer_shapes(width, self.hidden_layer_sizes)
        if self.shapes != expected or self.flat.shape != (sum(i * o + o for i, o in expected),):
            raise ValueError(f"mlp weights do not fit {n_features} features")
        self.shapes = expected
