"""Hyperparameter grids: bundled defaults, expansion, canonical ordering.

The grid file keeps a separate ``catboost`` section for fidelity to the
original search space; at load time it is expanded onto the gboost engine
(iterations -> n_estimators, depth -> max_depth) since the two families
share the boosted-tree implementation here.
"""

from __future__ import annotations

import itertools
import json
from importlib import resources

import yaml

from .base import EmptyGrid, InvalidHyperparameter
from .boosting import GradientBoostingModel
from .forest import RandomForestModel
from .linear import LogisticRegressionModel
from .mlp import MLPModel
from .neighbors import KNNModel
from .trees import DecisionTreeModel

# The fixed family order breaks ties between families and orders expanded grids.
FAMILY_CLASSES = {
    cls.family: cls
    for cls in (LogisticRegressionModel, KNNModel, MLPModel, DecisionTreeModel, GradientBoostingModel, RandomForestModel)
}
FAMILY_ORDER = tuple(FAMILY_CLASSES)

_CATBOOST_PARAM_MAP = {"iterations": "n_estimators", "learning_rate": "learning_rate", "depth": "max_depth"}


def canonical_key(params: dict) -> str:
    """Total order over hyperparameter settings (ties resolve by this key)."""
    return json.dumps(params, sort_keys=True, default=str)


def load_raw_grids(path=None) -> dict:
    """Parse a grid config file; None loads the bundled defaults."""
    if path is None:
        text = resources.files("ragate").joinpath("data", "default_grids.yaml").read_text(encoding="utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise InvalidHyperparameter(f"grid config is not valid YAML: {exc}") from None
    except RecursionError:
        raise InvalidHyperparameter("grid config is not valid YAML: nested too deeply") from None
    if not isinstance(raw, dict):
        raise InvalidHyperparameter("grid config must be a mapping of family -> parameter lists")
    validate_grids(raw)
    return raw


def family_class(family: str, names) -> type:
    """The class of ``family``, after checking that it takes every hyperparameter in ``names``."""
    if family not in FAMILY_CLASSES:
        raise InvalidHyperparameter(f"unknown classifier family {family!r}")
    unknown = [name for name in names if name not in FAMILY_CLASSES[family].PARAMS]
    if unknown:
        raise InvalidHyperparameter(f"{family} does not take {unknown}")
    return FAMILY_CLASSES[family]


def construct(family: str, params: dict, seed: int = 0):
    """An unfitted member; a setting ``family`` does not take raises InvalidHyperparameter."""
    cls = family_class(family, params)
    try:
        return cls(**params, seed=seed)
    except (TypeError, ValueError, OverflowError, InvalidHyperparameter) as exc:
        raise InvalidHyperparameter(f"{family} setting {canonical_key(params)} is invalid: {exc}") from None


def validate_grids(raw: dict) -> None:
    for family, grid in raw.items():
        if not isinstance(grid, dict) or not grid:
            raise InvalidHyperparameter(f"grid for {family!r} must be a non-empty mapping")
        if family == "catboost":
            unknown = [name for name in grid if name not in _CATBOOST_PARAM_MAP]
            if unknown:
                raise InvalidHyperparameter(f"catboost does not take {unknown}")
        else:
            family_class(family, grid)
        for name, values in grid.items():
            if isinstance(values, list) and not values:
                raise InvalidHyperparameter(f"{family}.{name} lists no candidate values")


def expand_grid(grid: dict) -> list[dict]:
    """Cartesian product in declared parameter order; scalars are fixed."""
    keys = list(grid.keys())
    value_lists = [v if isinstance(v, list) else [v] for v in grid.values()]
    return [dict(zip(keys, combo)) for combo in itertools.product(*value_lists)]


def expanded_family_grids(raw: dict) -> dict[str, list[dict]]:
    """Per-family candidate lists with catboost folded into gboost.

    Duplicate settings produced by the fold keep their first occurrence.
    """
    out: dict[str, list[dict]] = {}
    for family in FAMILY_ORDER:
        if family not in raw:
            continue
        out[family] = expand_grid(raw[family])
    if "catboost" in raw:
        mapped = {_CATBOOST_PARAM_MAP[k]: v for k, v in raw["catboost"].items()}
        extra = expand_grid(mapped)
        for point in extra:
            point.setdefault("max_features", None)
        merged = out.get("gboost", [])
        seen = {canonical_key(p) for p in merged}
        for point in extra:
            key = canonical_key(point)
            if key not in seen:
                merged.append(point)
                seen.add(key)
        out["gboost"] = merged
    for family, points in out.items():
        if not points:
            raise EmptyGrid(f"family {family!r} has no grid points")
    return out


def load_grids(path=None) -> dict[str, list[dict]]:
    """Expanded per-family grids from a config file (bundled default if None),
    every point constructed, so a bad value fails before any fit."""
    grids = expanded_family_grids(load_raw_grids(path))
    for family, points in grids.items():
        for params in points:
            construct(family, params)
    return grids
