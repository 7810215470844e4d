"""Shared types for the tabular "retrieval needed" classifier suite."""

from __future__ import annotations

import copy
import inspect
from dataclasses import dataclass

import numpy as np

from ..core import RagateError


class DegenerateData(RagateError):
    """The training data cannot support the requested fit."""


class InvalidHyperparameter(RagateError):
    """A hyperparameter name or value is outside the family's domain."""


class EmptyGrid(RagateError):
    """Grid search was asked to search zero candidate settings."""


@dataclass(frozen=True)
class TabularDataset:
    """Feature matrix + binary need-retrieval labels (1 = retrieve)."""

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y shape {y.shape} does not match {X.shape[0]} rows")
        if not np.all(np.isfinite(X)):
            raise ValueError("X must be finite")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("y must be 0/1")
        if len(self.feature_names) != X.shape[1]:
            raise ValueError("feature_names length does not match X columns")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def rows(self, idx) -> "TabularDataset":
        return TabularDataset(self.X[idx], self.y[idx], self.feature_names)


class Family:
    """A classifier family, declared by its constructor.

    The keywords of a subclass's ``__init__`` other than ``seed`` are its
    hyperparameters (``PARAMS``, in declaration order); the constructor keeps
    each one as the attribute of the same name. A subclass writes ``fit``,
    ``predict_proba`` and two hooks for its fitted state: ``_state()`` gives
    the JSON fields beside ``params`` and ``seed``, and
    ``_load(obj, n_features)`` reads them back, raising ``ValueError`` for
    state that does not fit ``n_features`` columns.
    """

    family: str
    PARAMS: tuple[str, ...] = ()
    # A tree count whose smaller values ``truncated`` reads off one fit, or None.
    PREFIX: str | None = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.PARAMS = tuple(name for name in inspect.signature(cls.__init__).parameters if name not in ("self", "seed"))

    def get_params(self) -> dict:
        return {name: getattr(self, name) for name in self.PARAMS}

    @classmethod
    def fit_key(cls, params: dict) -> tuple[dict, bool]:
        """``params`` (from ``get_params``) cut to what ``fit`` reads, and whether
        ``fit`` draws from its seed: settings with one key fit the same model,
        for every seed when the flag is False."""
        key = dict(params)
        if key.get("class_weight") == {0: 1, 1: 1}:  # the sample weights of None
            key["class_weight"] = None
        return key, True

    def truncated(self, k: int):
        """This ensemble cut to its first ``k`` trees: a ``k``-tree fit, bit for bit."""
        view = copy.copy(self)
        setattr(view, self.PREFIX, k)
        view.trees = self.trees[:k]
        return view

    def to_dict(self) -> dict:
        return {"params": self.get_params(), "seed": self.seed, **self._state()}

    @classmethod
    def from_dict(cls, obj: dict, n_features: int | None = None):
        model = cls(**obj["params"], seed=obj["seed"])
        model._load(obj, n_features)
        return model


def shuffled(X: np.ndarray, j: int, perm: np.ndarray) -> np.ndarray:
    """A copy of X whose column j is reordered by ``perm``."""
    out = X.copy()
    out[:, j] = X[perm, j]
    return out


def permuted_proba(model, X: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """``model``'s scores on every copy of X whose column j is reordered by
    ``perms[j, r]``: a (columns x repeats x rows) array. A model with a
    ``permuted_proba`` method computes it; any other is scored one shuffled
    copy at a time."""
    own = getattr(model, "permuted_proba", None)
    if own is not None:
        return own(X, perms)
    probs = np.empty(perms.shape)
    for j, r in np.ndindex(probs.shape[:2]):
        probs[j, r] = model.predict_proba(shuffled(X, j, perms[j, r]))
    return probs


def check_choice(name: str, value, choices: tuple):
    """``value`` if it is one of ``choices``; InvalidHyperparameter naming ``name`` otherwise."""
    if value not in choices:
        raise InvalidHyperparameter(f"{name} must be one of {choices}, got {value!r}")
    return value


def check_max_depth(max_depth):
    if max_depth is not None and max_depth < 1:
        raise InvalidHyperparameter(f"max_depth must be >= 1 or None, got {max_depth}")
    return max_depth


def check_class_weight(class_weight):
    """``class_weight`` if ``resolve_sample_weights`` takes it; it raises otherwise."""
    resolve_sample_weights(np.array([0, 1]), class_weight)
    return class_weight


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated on the side of 0 where exp cannot overflow."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def check_two_classes(y: np.ndarray, family: str) -> None:
    if np.unique(y).size < 2:
        raise DegenerateData(f"{family} needs both classes present in y")


def balanced_class_weights(y: np.ndarray) -> dict[int, float]:
    """Inverse-frequency weights: n / (n_classes * count_c), sklearn-style."""
    n = y.shape[0]
    weights = {}
    for c in (0, 1):
        count = int(np.sum(y == c))
        weights[c] = n / (2.0 * count) if count else 0.0
    return weights


def resolve_sample_weights(y: np.ndarray, class_weight) -> np.ndarray:
    """Per-sample weights from a class_weight setting (None|'balanced'|dict)."""
    if class_weight is None:
        return np.ones(y.shape[0])
    if class_weight == "balanced":
        table = balanced_class_weights(y)
    elif isinstance(class_weight, dict):
        table = {int(k): float(v) for k, v in class_weight.items()}
        if set(table) != {0, 1}:
            raise InvalidHyperparameter(f"class_weight dict must cover classes 0 and 1, got {sorted(table)}")
    else:
        raise InvalidHyperparameter(f"unsupported class_weight {class_weight!r}")
    return np.array([table[int(c)] for c in y], dtype=np.float64)
