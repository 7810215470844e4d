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
from .stores import FrequencyStore, KeyedStore, KnowledgabilityStore, PopularityStore, TripleCountStore
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
    "check_table_ids",
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

# Each group, in canonical order, with the StoreSet attribute its values are
# looked up in (None: computed from the question and contexts) and the upper
# bound of its values; every group's values are >= 0. context_length is the
# one feature whose bound is not its group's.
_GROUPS = {
    "graph": ("triples", math.inf),
    "popularity": ("pageviews", math.inf),
    "frequency": ("frequency", math.inf),
    "knowledgability": ("knowledgability", 1.0),
    "qtype": (None, 1.0),
    "complexity": (None, 1.0),
    "context": (None, 1.0),
}
FEATURE_GROUPS = tuple(_GROUPS)

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


_RANGE_EPS = 1e-9
_SIMPLEX_TOL = 1e-6

# What would not read back from features.tsv as it was written: a leading
# '#' (a comment line), a tab or line break, or a lone surrogate, which
# UTF-8 cannot encode.
_UNREADABLE = re.compile("^#|[\t\n\r\ud800-\udfff]")


def _check_storable(what: str, text: str) -> None:
    if _UNREADABLE.search(text):
        raise ValueError(f"{what} {text!r} cannot be stored in features.tsv: "
                         "it starts with '#' or holds a tab, a line break or a lone surrogate")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered (name, group) feature layout shared by extraction and models.

    The entries must follow the default layout group by group (feature
    group "override" is free-form). Derived once from them: ``names``,
    ``index`` (name to column), ``group_index`` (group to column array, in
    order of first appearance), the per-column range ``lower``/``upper``
    (unbounded for override features), ``include_context_length`` and
    ``knowledgability_aggregates``.
    """

    entries: tuple[tuple[str, str], ...]

    def __post_init__(self):
        entries = tuple((name, group) for name, group in self.entries)
        names = tuple(name for name, _ in entries)
        if not names:
            raise ValueError("a feature schema needs at least one feature")
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")
        for name in names:
            _check_storable("feature name", name)
        columns: dict[str, list[int]] = {}
        for i, (_, group) in enumerate(entries):
            columns.setdefault(group, []).append(i)
        aggs = tuple(a for a in _KNOW_AGGREGATES if (f"knowledgability_{a}", "knowledgability") in entries)
        with_length = ("context_length", "context") in entries
        expected = _group_entries(with_length, aggs)
        for group, idx in columns.items():
            if group == "override":
                continue
            if group not in expected:
                raise ValueError(f"unknown feature group {group!r}")
            got = tuple(names[i] for i in idx)
            if got != expected[group]:
                raise ValueError(f"group {group!r} features {got} do not match schema flags {expected[group]}")
        upper = [math.inf if group == "override" or name == "context_length" else _GROUPS[group][1]
                 for name, group in entries]
        # frozen: the derived attributes are set once, here
        self.__dict__.update(
            entries=entries,
            names=names,
            index={name: i for i, name in enumerate(names)},
            group_index={group: np.array(idx) for group, idx in columns.items()},
            lower=np.array([-math.inf if group == "override" else -_RANGE_EPS for _, group in entries]),
            upper=np.array(upper) + _RANGE_EPS,
            include_context_length=with_length,
            knowledgability_aggregates=aggs,
        )

    def __len__(self) -> int:
        return len(self.entries)


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
        raise ValueError(f"unknown feature groups: {unknown}")
    if not knowledgability_aggregates or not set(knowledgability_aggregates) <= set(_KNOW_AGGREGATES):
        raise ValueError(f"knowledgability_aggregates must be a non-empty subset of {_KNOW_AGGREGATES}, "
                         f"got {list(knowledgability_aggregates)}")
    aggs = tuple(a for a in _KNOW_AGGREGATES if a in knowledgability_aggregates)
    table = _group_entries(include_context_length, aggs)
    entries = [(name, g) for g in FEATURE_GROUPS if g in groups for name in table[g]]
    entries.extend((name, "override") for name in override_features)
    return FeatureSchema(tuple(entries))


@dataclass(frozen=True)
class FeatureVector:
    """Feature values for one question, ordered per its schema."""

    schema: FeatureSchema
    values: np.ndarray

    def __post_init__(self):
        schema = self.schema
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] != len(schema):
            raise ValueError(f"expected {len(schema)} values, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("feature values must be finite")
        outside = np.flatnonzero((arr < schema.lower) | (arr > schema.upper))
        if outside.size:
            i = outside[0]
            rule = "be non-negative" if schema.upper[i] == math.inf else "lie in [0, 1]"
            raise ValueError(f"{schema.names[i]} must {rule}, got {arr[i]}")
        qtype = schema.group_index.get("qtype")
        if qtype is not None:
            total = sum(arr[qtype].tolist())
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


def _entity_values(mentions, store: KeyedStore) -> list:
    """The store's values for the mentions' distinct kg_ids, in mention order; absent ids are skipped."""
    found = (store.lookup(kg_id) for kg_id in dict.fromkeys(m.kg_id for m in mentions))
    return [value for value in found if value is not None]


def graph_features(mentions, triple_store: TripleCountStore) -> tuple[float, ...]:
    """log1p of subject- and object-count aggregates over linked entities."""
    counts = _entity_values(mentions, triple_store)
    out = aggregate([float(s) for s, _ in counts]).as_tuple() + aggregate([float(o) for _, o in counts]).as_tuple()
    return tuple(math.log1p(v) for v in out)


def popularity_features(mentions, popularity_store: PopularityStore) -> tuple[float, ...]:
    views = [float(v) for v in _entity_values(mentions, popularity_store)]
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
    aggs = aggregate([float(s) for s in _entity_values(mentions, know_store)])
    return tuple(getattr(aggs, a) / 100.0 for a in schema.knowledgability_aggregates)


def _class_probabilities(question: str, model: TextClassifier | None, classes, what: str) -> tuple[float, ...]:
    if model is None:
        raise ModelMissing(f"{what} model is required and no override was given")
    if set(model.class_names) != set(classes):
        raise SchemaMismatch(f"{what} model classes {sorted(model.class_names)} != {sorted(classes)}")
    probs = dict(zip(model.class_names, model.predict_proba(question)))
    return tuple(float(probs[c]) for c in classes)


def question_type_features(question: str, qtype_model: TextClassifier | None) -> tuple[float, ...]:
    """Probability of each of the nine question-type classes, fixed order."""
    return _class_probabilities(question, qtype_model, QTYPE_CLASSES, "question-type")


def complexity_feature(question: str, complexity_model: TextClassifier | None) -> float:
    """Probability that answering needs more than one inference hop."""
    return _class_probabilities(question, complexity_model, COMPLEXITY_CLASSES, "complexity")[1]  # multihop


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


def _group_values(group: str, record: QuestionRecord, mentions, store, models: ModelSet,
                  schema: FeatureSchema, context_norm: float) -> tuple[float, ...]:
    # Each function is looked up by its module-level name at call time, so
    # it can be swapped to observe or time the call.
    if group == "graph":
        return graph_features(mentions, store)
    if group == "popularity":
        return popularity_features(mentions, store)
    if group == "frequency":
        return frequency_features(mentions, record.question, store)
    if group == "knowledgability":
        return knowledgability_features(mentions, store, schema)
    if group == "qtype":
        return question_type_features(record.question, models.qtype)
    if group == "complexity":
        return (complexity_feature(record.question, models.complexity),)
    return context_relevance_features(
        record.question, record.contexts, include_length=schema.include_context_length, length_norm=context_norm
    )


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
    for name in overrides:
        if name not in schema.index:
            raise SchemaMismatch(f"override names unknown feature {name!r}")
    needed = {g for name, g in schema.entries if name not in overrides}

    values = np.empty(len(schema))
    mentions = None
    for group, columns in schema.group_index.items():
        if group not in needed or group == "override":
            continue
        attr, store = _GROUPS[group][0], None
        if attr is not None:
            store = getattr(stores, attr)
            if store is None:
                raise ModelMissing(f"{group} features need the {attr} store")
            if mentions is None:
                mentions = collect_mentions(record, stores)
        values[columns] = _group_values(group, record, mentions, store, models, schema, context_norm)
    if "override" in needed:
        name = next(n for n, g in schema.entries if g == "override" and n not in overrides)
        raise ModelMissing(f"feature {name!r} must be supplied via feature_overrides")
    for name, value in overrides.items():
        values[schema.index[name]] = value
    return FeatureVector(schema=schema, values=values)


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


def check_table_ids(ids) -> None:
    """ValueError naming the first id ``read_features_tsv`` could not give back."""
    seen = set()
    for row_id in ids:
        _check_storable("question id", row_id)
        if row_id in seen:
            raise ValueError(f"question id {row_id!r} repeats; features.tsv holds one row per id")
        seen.add(row_id)


def write_features_tsv(path, ids, schema: FeatureSchema, matrix: np.ndarray) -> None:
    """An id ``read_features_tsv`` could not give back raises ValueError before any file is opened."""
    check_table_ids(ids)
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
    seen = set()
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
            if cols[0] in seen:
                raise ValueError(f"{path}:{line_no}: duplicate id {cols[0]!r}")
            seen.add(cols[0])
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
