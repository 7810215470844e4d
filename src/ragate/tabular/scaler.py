"""Per-column z-score scaling with an explicit zero-variance convention."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Scaler:
    mean: np.ndarray
    std: np.ndarray  # population std; exactly 0 marks a constant column


def fit_scaler(X: np.ndarray) -> Scaler:
    X = np.asarray(X, dtype=np.float64)
    return Scaler(mean=X.mean(axis=0), std=X.std(axis=0))


def transform(scaler: Scaler, X: np.ndarray) -> np.ndarray:
    """z-score columns by the fitted statistics; constant columns map to 0."""
    X = np.asarray(X, dtype=np.float64)
    safe = np.where(scaler.std == 0.0, 1.0, scaler.std)
    out = (X - scaler.mean) / safe
    out[:, scaler.std == 0.0] = 0.0
    return out


def scaler_to_dict(scaler: Scaler) -> dict:
    return {
        "mean": [float(v) for v in scaler.mean],
        "std": [float(v) for v in scaler.std],
    }


def scaler_from_dict(obj: dict) -> Scaler:
    """Raises ValueError unless ``mean`` and ``std`` are equal-length lists of
    finite numbers and no ``std`` is negative."""
    if not isinstance(obj, dict) or "mean" not in obj or "std" not in obj:
        raise ValueError("scaler must be an object with 'mean' and 'std' lists")
    try:
        scaler = Scaler(mean=np.asarray(obj["mean"], dtype=np.float64), std=np.asarray(obj["std"], dtype=np.float64))
    except (TypeError, ValueError, OverflowError):
        raise ValueError("scaler 'mean' and 'std' must be lists of numbers") from None
    if scaler.mean.ndim != 1 or scaler.mean.shape != scaler.std.shape:
        raise ValueError("scaler 'mean' and 'std' must be lists of equal length")
    if not (np.all(np.isfinite(scaler.mean)) and np.all(np.isfinite(scaler.std)) and np.all(scaler.std >= 0.0)):
        raise ValueError("scaler 'mean' must be finite and 'std' finite and >= 0")
    return scaler
