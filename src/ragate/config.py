"""Run configuration: one YAML file wiring stores, models, schema, costs."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import yaml

from .core import RunReport
from .evalgate import CostModel
from .features import (
    FEATURE_GROUPS,
    DEFAULT_CONTEXT_NORM,
    FeatureSchema,
    ModelSet,
    StoreSet,
    default_schema,
)
from .linker import build_gazetteer, load_entity_sidecar
from .stores import load_store
from .textclf import TextClfConfig, load_text_classifier, load_toy_corpus, train_text_classifier

__all__ = ["ConfigError", "RunConfig", "check_threshold", "load_config", "build_schema", "load_stores", "load_models"]

BUILTIN_MODEL = "builtin"

_STORE_KINDS = ("triples", "pageviews", "frequency", "knowledgability")
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


class ConfigError(Exception):
    """The run config file is missing, malformed, or references absent paths."""


@dataclass(frozen=True)
class RunConfig:
    store_paths: dict = field(default_factory=dict)
    gazetteer_path: str | None = None
    sidecar_path: str | None = None
    qtype_model: str | None = None
    complexity_model: str | None = None
    feature_groups: tuple[str, ...] | None = None
    include_context_length: bool = True
    knowledgability_aggregates: tuple[str, ...] = ("mean",)
    override_features: tuple[str, ...] = ()
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


def load_config(path) -> RunConfig:
    """Parse + validate a YAML run config; relative paths anchor at the file."""
    if not os.path.exists(path):
        raise ConfigError(f"config file does not exist: {path}")
    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    base_dir = os.path.dirname(os.path.abspath(path))

    store_paths = {}
    for kind, p in (raw.get("stores") or {}).items():
        if kind not in _STORE_KINDS:
            raise ConfigError(f"unknown store kind {kind!r}; expected one of {_STORE_KINDS}")
        store_paths[kind] = _resolve(base_dir, p, f"{kind} store")

    gazetteer = raw.get("gazetteer")
    sidecar = raw.get("sidecar")
    models = raw.get("models") or {}
    unknown_models = set(models) - {"qtype", "complexity"}
    if unknown_models:
        raise ConfigError(f"unknown model entries: {sorted(unknown_models)}")

    def model_path(name):
        value = models.get(name)
        if value is None or value == BUILTIN_MODEL:
            return value
        return _resolve(base_dir, value, f"{name} model")

    feats = raw.get("features") or {}
    unknown_feats = set(feats) - _FEATURE_KEYS
    if unknown_feats:
        raise ConfigError(f"unknown feature options: {sorted(unknown_feats)}")
    groups = feats.get("groups")
    if groups is not None:
        bad = [g for g in groups if g not in FEATURE_GROUPS]
        if bad:
            raise ConfigError(f"unknown feature groups: {bad}")
        groups = tuple(groups)

    references = []
    for i, row in enumerate(raw.get("references") or []):
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
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"references[{i}] is invalid: {exc}") from exc

    try:
        cost_model = CostModel.from_config(raw.get("cost_model"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cost_model is invalid: {exc}") from exc

    threshold = check_threshold(float(raw.get("threshold", 0.5)))

    return RunConfig(
        store_paths=store_paths,
        gazetteer_path=_resolve(base_dir, gazetteer, "gazetteer") if gazetteer else None,
        sidecar_path=_resolve(base_dir, sidecar, "sidecar") if sidecar else None,
        qtype_model=model_path("qtype"),
        complexity_model=model_path("complexity"),
        feature_groups=groups,
        include_context_length=bool(feats.get("include_context_length", True)),
        knowledgability_aggregates=tuple(feats.get("knowledgability_aggregates", ("mean",))),
        override_features=tuple(feats.get("override_features", ())),
        context_norm=float(feats.get("context_norm", DEFAULT_CONTEXT_NORM)),
        grids_path=_resolve(base_dir, raw["grids"], "grids") if raw.get("grids") else None,
        cost_model=cost_model,
        references=tuple(references),
        seed=int(raw.get("seed", 0)),
        threshold=threshold,
        val_size=int(raw.get("val_size", 100)),
        importance_repeats=int(raw.get("importance_repeats", 20)),
        out_dir=raw.get("out_dir"),
    )


def build_schema(config: RunConfig) -> FeatureSchema:
    try:
        return default_schema(
            groups=config.feature_groups,
            include_context_length=config.include_context_length,
            knowledgability_aggregates=config.knowledgability_aggregates,
            override_features=config.override_features,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_stores(config: RunConfig) -> StoreSet:
    loaded = {kind: load_store(kind, path) for kind, path in config.store_paths.items()}
    gazetteer = None
    if config.gazetteer_path:
        gazetteer = build_gazetteer(config.gazetteer_path, popularity=loaded.get("pageviews"))
    sidecar = load_entity_sidecar(config.sidecar_path) if config.sidecar_path else {}
    return StoreSet(
        triples=loaded.get("triples"),
        pageviews=loaded.get("pageviews"),
        frequency=loaded.get("frequency"),
        knowledgability=loaded.get("knowledgability"),
        gazetteer=gazetteer,
        sidecar=sidecar,
    )


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
