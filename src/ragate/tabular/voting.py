"""Soft-voting pair over the two best-validated families."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import permuted_proba


@dataclass
class VotingModel:
    """Exactly two members; probability = arithmetic mean of theirs."""

    families: tuple[str, str]
    members: tuple

    def __post_init__(self):
        if len(self.members) != 2 or len(self.families) != 2:
            raise ValueError("voting model takes exactly 2 members")

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        a = self.members[0].predict_proba(X)
        b = self.members[1].predict_proba(X)
        return (np.asarray(a) + np.asarray(b)) / 2.0

    def permuted_proba(self, X: np.ndarray, perms: np.ndarray) -> np.ndarray:
        probs = permuted_proba(self.members[0], X, perms)
        probs += permuted_proba(self.members[1], X, perms)
        probs /= 2.0
        return probs
