"""External-information feature extraction.

Seven feature groups computed per question without querying an LLM:
knowledge-graph triple counts, page-view popularity, surface-form corpus
frequency, precomputed knowledgability scores, question type, question
complexity, and retrieved-context relevance. The default schema has 28
named features; group subsets and extra override-only features are
supported for ablation/hybrid runs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .core import EntityMention, QuestionRecord, RagateError, normalize_text, tokenize
from .linker import Gazetteer, link, sidecar_mentions
from .stores import (
    FrequencyStore,
    KnowledgabilityStore,
    PopularityStore,
    TripleCountStore,
)
from .textclf import TextClassifier, relevance_score

__all__ = [
    "ModelMissing",
    "SchemaMismatch",
    "QTYPE_CLASSES",
    "COMPLEXITY_CLASSES",
    "FEATURE_GROUPS",
    "DEFAULT_CONTEXT_NORM",
    "Aggregates",
    "aggregate",
    "FeatureSchema",
    "default_schema",
    "FeatureVector",
    "StoreSet",
    "ModelSet",
    "collect_mentions",
    "graph_features",
    "popularity_features",
    "frequency_features",
    "knowledgability_features",
    "question_type_features",
    "complexity_feature",
    "context_relevance_features",
    "extract_all",
    "extract_matrix",
    "read_features_tsv",
    "write_features_tsv",
]


class ModelMissing(RagateError):
    """A feature needs a store/model/override that was not provided."""


class SchemaMismatch(RagateError):
    """Feature names disagree between two artifacts or inputs."""


# Fixed output order of the question-type probability block.
QTYPE_CLASSES = (
    "ordinal",
    "count",
    "generic",
    "superlative",
    "difference",
    "intersection",
    "multihop",
    "comparative",
    "yesno",
)

COMPLEXITY_CLASSES = ("onehop", "multihop")

FEATURE_GROUPS = (
    "graph",
    "popularity",
    "frequency",
    "knowledgability",
    "qtype",
    "complexity",
    "context",
)

DEFAULT_CONTEXT_NORM = 512.0

_KNOW_AGGREGATES = ("min", "max", "mean")


@dataclass(frozen=True)
class Aggregates:
    min: float
    max: float
    mean: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.min, self.max, self.mean)


def aggregate(values: list[float]) -> Aggregates:
    """Min/max/mean of ``values``; the empty list maps to (0, 0, 0)."""
    if not values:
        return Aggregates(0.0, 0.0, 0.0)
    return Aggregates(float(min(values)), float(max(values)), float(sum(values) / len(values)))


def _group_entries(
    include_context_length: bool,
    knowledgability_aggregates: tuple[str, ...],
) -> dict[str, tuple[str, ...]]:
    context_names = ["context_relevance_min", "context_relevance_max", "context_relevance_mean"]
    if include_context_length:
        context_names.append("context_length")
    return {
        "graph": (
            "graph_subject_min",
            "graph_subject_max",
            "graph_subject_mean",
            "graph_object_min",
            "graph_object_max",
            "graph_object_mean",
        ),
        "popularity": ("popularity_min", "popularity_max", "popularity_mean"),
        "frequency": (
            "frequency_min",
            "frequency_max",
            "frequency_mean",
            "frequency_rarest_unigram",
        ),
        "knowledgability": tuple(f"knowledgability_{agg}" for agg in knowledgability_aggregates),
        "qtype": tuple(f"qtype_{c}" for c in QTYPE_CLASSES),
        "complexity": ("complexity_multihop",),
        "context": tuple(context_names),
    }


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered (name, group) feature layout shared by extraction and models."""

    entries: tuple[tuple[str, str], ...]
    include_context_length: bool = True
    knowledgability_aggregates: tuple[str, ...] = ("mean",)

    def __post_init__(self):
        names = [name for name, _ in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")
        bad = [a for a in self.knowledgability_aggregates if a not in _KNOW_AGGREGATES]
        if bad or not self.knowledgability_aggregates:
            raise ValueError(f"knowledgability_aggregates must be a non-empty subset of {_KNOW_AGGREGATES}")
        expected = _group_entries(self.include_context_length, self.knowledgability_aggregates)
        for group in self.groups_present():
            if group == "override":
                continue
            if group not in expected:
                raise ValueError(f"unknown feature group {group!r}")
            got = self.group_names(group)
            if got != expected[group]:
                raise ValueError(f"group {group!r} features {got} do not match schema flags {expected[group]}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    def group_of(self, name: str) -> str:
        for n, g in self.entries:
            if n == name:
                return g
        raise KeyError(name)

    def group_names(self, group: str) -> tuple[str, ...]:
        return tuple(name for name, g in self.entries if g == group)

    def groups_present(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for _, g in self.entries:
            seen.setdefault(g, None)
        return tuple(seen)

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def from_entries(cls, entries) -> "FeatureSchema":
        """Rebuild a schema from artifact-serialized (name, group) pairs."""
        entries = tuple((str(n), str(g)) for n, g in entries)
        names = {n for n, _ in entries}
        aggs = tuple(a for a in _KNOW_AGGREGATES if f"knowledgability_{a}" in names)
        return cls(
            entries=entries,
            include_context_length="context_length" in names,
            knowledgability_aggregates=aggs or ("mean",),
        )


def default_schema(
    groups: tuple[str, ...] | None = None,
    include_context_length: bool = True,
    knowledgability_aggregates: tuple[str, ...] = ("mean",),
    override_features: tuple[str, ...] = (),
) -> FeatureSchema:
    """The 28-feature default layout, optionally restricted or extended.

    ``groups`` keeps only the named groups (canonical order). Extra
    ``override_features`` are appended with group "override"; their values
    must be supplied per record via feature_overrides.
    """
    if groups is None:
        groups = FEATURE_GROUPS
    unknown = [g for g in groups if g not in FEATURE_GROUPS]
    if unknown:
        raise ValueError(f"unknown feature groups {unknown}")
    aggs = tuple(a for a in _KNOW_AGGREGATES if a in knowledgability_aggregates)
    table = _group_entries(include_context_length, aggs)
    entries = [(name, g) for g in FEATURE_GROUPS if g in groups for name in table[g]]
    entries.extend((name, "override") for name in override_features)
    return FeatureSchema(
        entries=tuple(entries),
        include_context_length=include_context_length,
        knowledgability_aggregates=aggs,
    )


_RANGE_EPS = 1e-9
_SIMPLEX_TOL = 1e-6
_UNIT_GROUPS = {"knowledgability", "qtype", "complexity"}


@dataclass(frozen=True)
class FeatureVector:
    """Feature values for one question, ordered per its schema."""

    schema: FeatureSchema
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] != len(self.schema):
            raise ValueError(f"expected {len(self.schema)} values, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("feature values must be finite")
        for (name, group), value in zip(self.schema.entries, arr):
            if group in ("graph", "popularity", "frequency") and value < -_RANGE_EPS:
                raise ValueError(f"{name} must be non-negative, got {value}")
            if group in _UNIT_GROUPS and not -_RANGE_EPS <= value <= 1.0 + _RANGE_EPS:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
            if group == "context":
                if name == "context_length":
                    if value < -_RANGE_EPS:
                        raise ValueError(f"{name} must be non-negative, got {value}")
                elif not -_RANGE_EPS <= value <= 1.0 + _RANGE_EPS:
                    raise ValueError(f"{name} must lie in [0, 1], got {value}")
        qtype_names = self.schema.group_names("qtype")
        if len(qtype_names) == len(QTYPE_CLASSES):
            total = float(sum(arr[self.schema.names.index(n)] for n in qtype_names))
            if abs(total - 1.0) > _SIMPLEX_TOL:
                raise ValueError(f"question-type block must sum to 1, got {total}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def as_dict(self) -> dict[str, float]:
        return {name: float(v) for name, v in zip(self.schema.names, self.values)}

    def __len__(self) -> int:
        return len(self.schema)


@dataclass(frozen=True)
class StoreSet:
    """Immutable lookup resources needed by the entity-derived groups."""

    triples: TripleCountStore | None = None
    pageviews: PopularityStore | None = None
    frequency: FrequencyStore | None = None
    knowledgability: KnowledgabilityStore | None = None
    gazetteer: Gazetteer | None = None
    sidecar: dict[str, list[str]] = field(default_factory=dict)


@dataclass(frozen=True)
class ModelSet:
    qtype: TextClassifier | None = None
    complexity: TextClassifier | None = None


def collect_mentions(record: QuestionRecord, stores: StoreSet) -> tuple[EntityMention, ...]:
    """Gazetteer mentions from the question text plus any sidecar entities."""
    mentions: list[EntityMention] = []
    if stores.gazetteer is not None:
        mentions.extend(link(record.question, stores.gazetteer))
    extra = stores.sidecar.get(record.id)
    if extra:
        mentions.extend(sidecar_mentions(extra))
    return tuple(mentions)


def _unique_kg_ids(mentions) -> list[str]:
    return list(dict.fromkeys(m.kg_id for m in mentions))


def graph_features(mentions, triple_store: TripleCountStore) -> tuple[float, ...]:
    """log1p of subject- and object-count aggregates over linked entities."""
    subj: list[float] = []
    obj: list[float] = []
    for kg_id in _unique_kg_ids(mentions):
        counts = triple_store.lookup(kg_id)
        if counts is None:
            continue
        subj.append(float(counts[0]))
        obj.append(float(counts[1]))
    out = aggregate(subj).as_tuple() + aggregate(obj).as_tuple()
    return tuple(math.log1p(v) for v in out)


def popularity_features(mentions, popularity_store: PopularityStore) -> tuple[float, ...]:
    views = []
    for kg_id in _unique_kg_ids(mentions):
        v = popularity_store.lookup(kg_id)
        if v is not None:
            views.append(float(v))
    return tuple(math.log1p(v) for v in aggregate(views).as_tuple())


def _surface_frequency(tokens: list[str], store: FrequencyStore) -> float:
    # A term missing from the corpus has frequency 0 (unlike the id-keyed
    # stores, absence here is a measurement, not a gap).
    return float(min(store.lookup(tok) or 0 for tok in tokens))


def frequency_features(mentions, question: str, frequency_store: FrequencyStore) -> tuple[float, ...]:
    """Per-entity surface frequencies (3 aggregates) + rarest question unigram.

    Multi-token surfaces score the minimum over their tokens; mentions with
    no surface text (sidecar entities) are skipped.
    """
    surfaces = dict.fromkeys(
        normalize_text(m.surface) for m in mentions if normalize_text(m.surface)
    )
    per_entity = [_surface_frequency(tokenize(s), frequency_store) for s in surfaces]
    out = [math.log1p(v) for v in aggregate(per_entity).as_tuple()]
    q_tokens = tokenize(question)
    rarest = _surface_frequency(q_tokens, frequency_store) if q_tokens else 0.0
    out.append(math.log1p(rarest))
    return tuple(out)


def knowledgability_features(mentions, know_store: KnowledgabilityStore, schema: FeatureSchema) -> tuple[float, ...]:
    scores = []
    for kg_id in _unique_kg_ids(mentions):
        s = know_store.lookup(kg_id)
        if s is not None:
            scores.append(float(s))
    aggs = aggregate(scores)
    return tuple(getattr(aggs, a) / 100.0 for a in schema.knowledgability_aggregates)


def question_type_features(question: str, qtype_model: TextClassifier | None) -> tuple[float, ...]:
    """Probability of each of the nine question-type classes, fixed order."""
    if qtype_model is None:
        raise ModelMissing("question-type model is required and no override was given")
    if set(qtype_model.class_names) != set(QTYPE_CLASSES):
        raise SchemaMismatch(
            f"question-type model classes {sorted(qtype_model.class_names)} != {sorted(QTYPE_CLASSES)}"
        )
    probs = dict(zip(qtype_model.class_names, qtype_model.predict_proba(question)))
    return tuple(float(probs[c]) for c in QTYPE_CLASSES)


def complexity_feature(question: str, complexity_model: TextClassifier | None) -> float:
    """Probability that answering needs more than one inference hop."""
    if complexity_model is None:
        raise ModelMissing("complexity model is required and no override was given")
    if set(complexity_model.class_names) != set(COMPLEXITY_CLASSES):
        raise SchemaMismatch(
            f"complexity model classes {sorted(complexity_model.class_names)} != {sorted(COMPLEXITY_CLASSES)}"
        )
    probs = dict(zip(complexity_model.class_names, complexity_model.predict_proba(question)))
    return float(probs["multihop"])


def context_relevance_features(
    question: str,
    contexts,
    scorer=relevance_score,
    include_length: bool = True,
    length_norm: float = DEFAULT_CONTEXT_NORM,
) -> tuple[float, ...]:
    scores = [float(scorer(question, c)) for c in contexts]
    out = list(aggregate(scores).as_tuple())
    if include_length:
        total_tokens = sum(len(tokenize(c)) for c in contexts)
        out.append(total_tokens / length_norm)
    return tuple(out)


_ENTITY_GROUPS = ("graph", "popularity", "frequency", "knowledgability")
_GROUP_STORE_ATTR = {
    "graph": "triples",
    "popularity": "pageviews",
    "frequency": "frequency",
    "knowledgability": "knowledgability",
}


def extract_all(
    record: QuestionRecord,
    stores: StoreSet,
    models: ModelSet,
    schema: FeatureSchema,
    context_norm: float = DEFAULT_CONTEXT_NORM,
) -> FeatureVector:
    """Compute every schema feature for one question.

    Per-feature overrides from the record take precedence; a group is only
    computed (and its store/model only required) when at least one of its
    features is not overridden.
    """
    overrides = record.feature_overrides
    known = set(schema.names)
    for name in overrides:
        if name not in known:
            raise SchemaMismatch(f"override names unknown feature {name!r}")

    needed = {g for name, g in schema.entries if name not in overrides}
    computed: dict[str, float] = {}

    mentions: tuple[EntityMention, ...] = ()
    if needed & set(_ENTITY_GROUPS):
        mentions = collect_mentions(record, stores)
    for group in _ENTITY_GROUPS:
        if group not in needed:
            continue
        store = getattr(stores, _GROUP_STORE_ATTR[group])
        if store is None:
            raise ModelMissing(f"{group} features need the {_GROUP_STORE_ATTR[group]} store")
        if group == "graph":
            block = graph_features(mentions, store)
        elif group == "popularity":
            block = popularity_features(mentions, store)
        elif group == "frequency":
            block = frequency_features(mentions, record.question, store)
        else:
            block = knowledgability_features(mentions, store, schema)
        computed.update(zip(schema.group_names(group), block))

    if "qtype" in needed:
        block = question_type_features(record.question, models.qtype)
        computed.update(zip(schema.group_names("qtype"), block))
    if "complexity" in needed:
        computed["complexity_multihop"] = complexity_feature(record.question, models.complexity)
    if "context" in needed:
        block = context_relevance_features(
            record.question,
            record.contexts,
            include_length=schema.include_context_length,
            length_norm=context_norm,
        )
        computed.update(zip(schema.group_names("context"), block))

    values = []
    for name, group in schema.entries:
        if name in overrides:
            values.append(float(overrides[name]))
        elif group == "override":
            raise ModelMissing(f"feature {name!r} must be supplied via feature_overrides")
        else:
            values.append(computed[name])
    return FeatureVector(schema=schema, values=np.array(values, dtype=np.float64))


def extract_matrix(records, stores: StoreSet, models: ModelSet, schema: FeatureSchema, context_norm: float) -> np.ndarray:
    """One ``extract_all`` row per record; an error names the question it came from."""
    rows = []
    for record in records:
        try:
            rows.append(extract_all(record, stores, models, schema, context_norm=context_norm).values)
        except (ModelMissing, SchemaMismatch, ValueError) as exc:
            raise type(exc)(f"question {record.id!r}: {exc}") from exc
    return np.array(rows) if rows else np.empty((0, len(schema)))


# ---------------------------------------------------------------------------
# Feature table file format: '#' comments, header "id<TAB>names...", repr floats
# ---------------------------------------------------------------------------


# What would not read back as the id it was: a leading '#' (a comment line),
# a tab or line break, or a lone surrogate, which UTF-8 cannot encode.
_UNREADABLE_ID = re.compile("^#|[\t\n\r\ud800-\udfff]")


def write_features_tsv(path, ids, schema: FeatureSchema, matrix: np.ndarray) -> None:
    """An id ``read_features_tsv`` could not give back raises ValueError before any file is opened."""
    for row_id in ids:
        if _UNREADABLE_ID.search(row_id):
            raise ValueError(f"question id {row_id!r} cannot be stored in features.tsv: "
                             "it starts with '#' or holds a tab, a line break or a lone surrogate")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# per-question feature table\n")
        fh.write("# groups: " + " ".join(g for _, g in schema.entries) + "\n")
        fh.write("id\t" + "\t".join(schema.names) + "\n")
        for row_id, row in zip(ids, matrix):
            fh.write(row_id + "\t" + "\t".join(repr(float(v)) for v in row) + "\n")


def read_features_tsv(path):
    """Returns (ids, (name, group) entries, matrix)."""
    groups = None
    header = None
    ids = []
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("groups:"):
                    groups = tuple(body[len("groups:") :].split())
                continue
            cols = line.split("\t")
            if header is None:
                if cols[0] != "id" or len(cols) < 2:
                    raise ValueError(f"{path}:{line_no}: feature table header must start with 'id'")
                header = tuple(cols[1:])
                continue
            if len(cols) != len(header) + 1:
                raise ValueError(f"{path}:{line_no}: expected {len(header) + 1} columns, got {len(cols)}")
            ids.append(cols[0])
            try:
                rows.append([float(v) for v in cols[1:]])
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    if header is None:
        raise ValueError(f"{path}: no header row found")
    if groups is None:
        groups = ("feature",) * len(header)
    if len(groups) != len(header):
        raise ValueError(f"{path}: groups comment lists {len(groups)} entries for {len(header)} columns")
    matrix = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(header)))
    return ids, tuple(zip(header, groups)), matrix
