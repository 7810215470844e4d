"""Run configuration: one YAML file wiring stores, models, schema, costs."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import yaml

from .core import RagateError, RunReport
from .evalgate import CostModel
from .features import DEFAULT_CONTEXT_NORM, FeatureSchema, ModelSet, StoreSet, default_schema
from .linker import build_gazetteer, load_entity_sidecar
from .stores import STORE_KINDS, load_store
from .textclf import TextClfConfig, load_text_classifier, load_toy_corpus, train_text_classifier

__all__ = [
    "ConfigError", "RunConfig", "check_seed", "check_threshold", "load_config", "build_schema", "load_stores", "load_models",
]

BUILTIN_MODEL = "builtin"

_TOP_LEVEL_KEYS = {
    "stores",
    "gazetteer",
    "sidecar",
    "models",
    "features",
    "grids",
    "cost_model",
    "references",
    "seed",
    "threshold",
    "val_size",
    "importance_repeats",
    "out_dir",
}
_FEATURE_KEYS = {
    "groups",
    "include_context_length",
    "knowledgability_aggregates",
    "override_features",
    "context_norm",
}


class ConfigError(RagateError):
    """The run config file is missing, malformed, or references absent paths."""


@dataclass(frozen=True)
class RunConfig:
    store_paths: dict = field(default_factory=dict)
    gazetteer_path: str | None = None
    sidecar_path: str | None = None
    qtype_model: str | None = None
    complexity_model: str | None = None
    schema: FeatureSchema = field(default_factory=default_schema)
    context_norm: float = DEFAULT_CONTEXT_NORM
    grids_path: str | None = None
    cost_model: CostModel = field(default_factory=CostModel)
    references: tuple[RunReport, ...] = ()
    seed: int = 0
    threshold: float = 0.5
    val_size: int = 100
    importance_repeats: int = 20
    out_dir: str | None = None


def _resolve(base_dir: str, path: str, what: str) -> str:
    resolved = path if os.path.isabs(path) else os.path.join(base_dir, path)
    if not os.path.exists(resolved):
        raise ConfigError(f"{what} path does not exist: {resolved}")
    return resolved


def check_threshold(threshold: float) -> float:
    """The decision threshold itself; ConfigError unless it lies in [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must be in [0, 1], got {threshold}")
    return threshold


def check_seed(seed: int) -> int:
    """The seed itself; ConfigError unless it is >= 0."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _mapping(section: dict, key: str) -> dict:
    """``section[key]`` as a mapping; absent or null gives {}."""
    value = section.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping, got {type(value).__name__}")
    return value


def _string_list(section: dict, key: str, default: tuple) -> tuple[str, ...]:
    value = section.get(key, default)
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{key} must be a list of strings")
    return tuple(value)


def _path_string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a path string, got {type(value).__name__}")
    return value


def _float(section: dict, key: str, default: float) -> float:
    """``float(section[key])``; ConfigError if it does not convert."""
    try:
        return float(section.get(key, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} is invalid: {exc}") from exc


def _integer(section: dict, key: str, default: int) -> int:
    """``section[key]`` as an int. A float counts only when it is integral; a
    bool, a string or any other value raises ConfigError."""
    value = section.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key} is invalid: expected an integer, got {value!r}")
    return value


def load_config(path) -> RunConfig:
    """Parse + validate a YAML run config; relative paths anchor at the file."""
    if not os.path.exists(path):
        raise ConfigError(f"config file does not exist: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh) or {}
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    except RecursionError:
        raise ConfigError("config is not valid YAML: nested too deeply") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown, key=str)}")
    base_dir = os.path.dirname(os.path.abspath(path))

    def resolve(value, what):
        return _resolve(base_dir, _path_string(value, what), what)

    store_paths = {}
    for kind, p in _mapping(raw, "stores").items():
        if kind not in STORE_KINDS:
            raise ConfigError(f"unknown store kind {kind!r}; expected one of {STORE_KINDS}")
        store_paths[kind] = resolve(p, f"{kind} store")

    gazetteer = raw.get("gazetteer")
    sidecar = raw.get("sidecar")
    models = _mapping(raw, "models")
    unknown_models = set(models) - {"qtype", "complexity"}
    if unknown_models:
        raise ConfigError(f"unknown model entries: {sorted(unknown_models, key=str)}")

    def model_path(name):
        value = models.get(name)
        if value is None or value == BUILTIN_MODEL:
            return value
        return resolve(value, f"{name} model")

    feats = _mapping(raw, "features")
    unknown_feats = set(feats) - _FEATURE_KEYS
    if unknown_feats:
        raise ConfigError(f"unknown feature options: {sorted(unknown_feats, key=str)}")
    include_context_length = feats.get("include_context_length", True)
    if not isinstance(include_context_length, bool):
        raise ConfigError(f"include_context_length must be true or false, got {include_context_length!r}")
    groups = _string_list(feats, "groups", ()) if feats.get("groups") is not None else None
    try:
        schema = default_schema(
            groups=groups,
            include_context_length=include_context_length,
            knowledgability_aggregates=_string_list(feats, "knowledgability_aggregates", ("mean",)),
            override_features=_string_list(feats, "override_features", ()),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    raw_references = raw.get("references") or []
    if not isinstance(raw_references, list):
        raise ConfigError(f"references must be a list, got {type(raw_references).__name__}")
    references = []
    for i, row in enumerate(raw_references):
        try:
            references.append(
                RunReport(
                    method_name=str(row["method"]),
                    in_accuracy=float(row["in_accuracy"]),
                    lm_calls=float(row["lm_calls"]),
                    retrieval_calls=float(row["retrieval_calls"]),
                    mean_pflops=float(row["mean_pflops"]),
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"references[{i}] is invalid: {exc}") from exc

    cost_raw = _mapping(raw, "cost_model")
    unknown_costs = set(cost_raw) - {"default", "methods"}
    if unknown_costs:
        raise ConfigError(f"unknown cost_model entries: {sorted(unknown_costs, key=str)}")
    for key in ("default", "methods"):
        _mapping(cost_raw, key)
    try:
        cost_model = CostModel.from_config(cost_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cost_model is invalid: {exc}") from exc

    threshold = check_threshold(_float(raw, "threshold", 0.5))
    val_size = _integer(raw, "val_size", 100)
    if val_size < 1:
        raise ConfigError(f"val_size must be >= 1, got {val_size}")
    context_norm = _float(feats, "context_norm", DEFAULT_CONTEXT_NORM)
    if not context_norm > 0:
        raise ConfigError(f"context_norm must be > 0, got {context_norm}")
    if context_norm == float("inf"):
        raise ConfigError("context_norm must be finite, got inf")
    importance_repeats = _integer(raw, "importance_repeats", 20)
    if importance_repeats < 0:
        raise ConfigError(f"importance_repeats must be >= 0, got {importance_repeats}")
    out_dir = raw.get("out_dir")
    if out_dir is not None:
        _path_string(out_dir, "out_dir")

    return RunConfig(
        store_paths=store_paths,
        gazetteer_path=resolve(gazetteer, "gazetteer") if gazetteer else None,
        sidecar_path=resolve(sidecar, "sidecar") if sidecar else None,
        qtype_model=model_path("qtype"),
        complexity_model=model_path("complexity"),
        schema=schema,
        context_norm=context_norm,
        grids_path=resolve(raw["grids"], "grids") if raw.get("grids") else None,
        cost_model=cost_model,
        references=tuple(references),
        seed=check_seed(_integer(raw, "seed", 0)),
        threshold=threshold,
        val_size=val_size,
        importance_repeats=importance_repeats,
        out_dir=out_dir,
    )


def build_schema(config: RunConfig) -> FeatureSchema:
    return config.schema


def load_stores(config: RunConfig) -> StoreSet:
    loaded = {kind: load_store(kind, path) for kind, path in config.store_paths.items()}
    gazetteer = None
    if config.gazetteer_path:
        gazetteer = build_gazetteer(config.gazetteer_path, popularity=loaded.get("pageviews"))
    sidecar = load_entity_sidecar(config.sidecar_path) if config.sidecar_path else {}
    return StoreSet(**loaded, gazetteer=gazetteer, sidecar=sidecar)


def _load_or_train(setting: str | None, corpus_name: str):
    if setting is None:
        return None
    if setting == BUILTIN_MODEL:
        return train_text_classifier(load_toy_corpus(corpus_name), TextClfConfig(seed=0))
    return load_text_classifier(setting)


def load_models(config: RunConfig) -> ModelSet:
    return ModelSet(
        qtype=_load_or_train(config.qtype_model, "qtype"),
        complexity=_load_or_train(config.complexity_model, "complexity"),
    )
