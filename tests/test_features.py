import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragate import features
from ragate.features import (
    COMPLEXITY_CLASSES,
    FEATURE_GROUPS,
    QTYPE_CLASSES,
    Aggregates,
    FeatureSchema,
    FeatureVector,
    ModelMissing,
    ModelSet,
    SchemaMismatch,
    aggregate,
    collect_mentions,
    complexity_feature,
    context_relevance_features,
    default_schema,
    extract_all,
    frequency_features,
    graph_features,
    knowledgability_features,
    popularity_features,
    question_type_features,
)
from ragate.linker import link
from ragate.stores import FrequencyStore, KnowledgabilityStore, PopularityStore, TripleCountStore

from conftest import make_record, make_stores


class TestAggregate:
    def test_values(self):
        aggs = aggregate([3.0, 1.0, 2.0])
        assert aggs.as_tuple() == (1.0, 3.0, 2.0)

    def test_empty(self):
        assert aggregate([]).as_tuple() == (0.0, 0.0, 0.0)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    def test_ordering_invariant(self, values):
        aggs = aggregate(values)
        slack = 1e-9 * max(1.0, abs(aggs.min), abs(aggs.max))
        assert aggs.min - slack <= aggs.mean <= aggs.max + slack


class TestSchema:
    def test_default_has_28_features(self):
        schema = default_schema()
        assert len(schema) == 28
        assert tuple(schema.group_index) == FEATURE_GROUPS

    def test_default_names_fixed_order(self):
        names = default_schema().names
        assert names[:6] == (
            "graph_subject_min",
            "graph_subject_max",
            "graph_subject_mean",
            "graph_object_min",
            "graph_object_max",
            "graph_object_mean",
        )
        assert names[14:23] == tuple(f"qtype_{c}" for c in QTYPE_CLASSES)
        assert names[-1] == "context_length"

    def test_group_restriction(self):
        schema = default_schema(groups=("popularity", "frequency"))
        assert len(schema) == 7
        assert tuple(schema.group_index) == ("popularity", "frequency")

    def test_without_context_length(self):
        schema = default_schema(include_context_length=False)
        assert len(schema) == 27
        assert "context_length" not in schema.names

    def test_knowledgability_aggregate_subset(self):
        schema = default_schema(knowledgability_aggregates=("min", "max", "mean"))
        assert "knowledgability_min" in schema.names
        assert "knowledgability_max" in schema.names
        assert len(schema) == 30

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ValueError):
            default_schema(knowledgability_aggregates=("median",))

    def test_override_features_appended(self):
        schema = default_schema(override_features=("ue_entropy",))
        assert schema.names[-1] == "ue_entropy"
        assert schema.entries[-1] == ("ue_entropy", "override")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            FeatureSchema(entries=(("a", "popularity"), ("a", "popularity")))

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError):
            default_schema(groups=("embeddings",))

    def test_empty_schema_rejected(self):
        with pytest.raises(ValueError, match="at least one feature"):
            default_schema(groups=())
        assert default_schema(groups=(), override_features=("ue_entropy",)).names == ("ue_entropy",)


# The per-entry range and simplex loop that FeatureVector ran before its
# checks were vectorized over the schema's bounds, kept as the reference.
def reference_vector_check(schema, arr):
    eps = features._RANGE_EPS
    if not np.all(np.isfinite(arr)):
        raise ValueError("feature values must be finite")
    for (name, group), value in zip(schema.entries, arr):
        if group in ("graph", "popularity", "frequency") and value < -eps:
            raise ValueError(f"{name} must be non-negative, got {value}")
        if group in ("knowledgability", "qtype", "complexity") and not -eps <= value <= 1.0 + eps:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if group == "context":
            if name == "context_length":
                if value < -eps:
                    raise ValueError(f"{name} must be non-negative, got {value}")
            elif not -eps <= value <= 1.0 + eps:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
    qtype_names = tuple(name for name, group in schema.entries if group == "qtype")
    if len(qtype_names) == len(QTYPE_CLASSES):
        total = float(sum(arr[schema.names.index(n)] for n in qtype_names))
        if abs(total - 1.0) > features._SIMPLEX_TOL:
            raise ValueError(f"question-type block must sum to 1, got {total}")


_EPS = features._RANGE_EPS
EDGE_VALUES = [
    0.0, -0.0, 0.25, 1.0, 3.0, -3.0, 1e6, math.nan, math.inf, -math.inf,
    -_EPS, np.nextafter(-_EPS, -1.0), 1.0 + _EPS, np.nextafter(1.0 + _EPS, 2.0),
]


def _error(check):
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(
    groups=st.sets(st.sampled_from(FEATURE_GROUPS)),
    include_context_length=st.booleans(),
    aggregates=st.sets(st.sampled_from(("min", "max", "mean")), min_size=1),
    overrides=st.lists(st.sampled_from(("ue_a", "ue_b", "ue_c")), unique=True),
    data=st.data(),
)
def test_vector_checks_match_the_reference_loop(groups, include_context_length, aggregates, overrides, data):
    try:
        schema = default_schema(tuple(groups), include_context_length, tuple(aggregates), tuple(overrides))
    except ValueError:
        assert not groups and not overrides
        return
    # A vector that passes: zeros, with the qtype block one-hot or spread
    # evenly. Each entry in turn is set to an edge value, then a few at once.
    base = np.zeros(len(schema))
    qtype = [i for i, (_, group) in enumerate(schema.entries) if group == "qtype"]
    if qtype:
        if data.draw(st.booleans()):
            base[qtype] = 1.0 / len(qtype)
        else:
            base[qtype[data.draw(st.integers(0, len(qtype) - 1))]] = 1.0
    edits = [[i] for i in range(len(schema))] + [data.draw(st.lists(st.integers(0, len(schema) - 1), max_size=3))]
    for positions in edits:
        values = base.copy()
        for i in positions:
            values[i] = data.draw(st.sampled_from(EDGE_VALUES))
        expected = _error(lambda: reference_vector_check(schema, values))
        assert _error(lambda: FeatureVector(schema=schema, values=values)) == expected

QUESTION = "was einstein born in new york city"

STORES = dict(
    triples={"Q937": (5, 2), "Q60": (3, 4)},
    pageviews={"Q937": 999, "Q60": 10},
    frequency={"einstein": 5, "new": 100, "york": 40, "city": 60, "was": 900, "born": 50, "in": 800},
    knowledgability={"Q937": 80.0, "Q60": 40.0},
    aliases={"einstein": "Q937", "new york city": "Q60"},
)


def mentions_for(question=QUESTION):
    stores = make_stores(**STORES)
    return link(question, stores.gazetteer)


class TestGraphFeatures:
    def test_hand_computed(self):
        stores = make_stores(**STORES)
        values = graph_features(mentions_for(), stores.triples)
        # subjects {5, 3}: aggregates (3, 5, 4); objects {2, 4}: (2, 4, 3); then log1p
        assert values == pytest.approx(
            (math.log(4), math.log(6), math.log(5), math.log(3), math.log(5), math.log(4)),
            abs=1e-12,
        )

    def test_absent_entity_skipped(self):
        stores = make_stores(**{**STORES, "triples": {"Q937": (5, 2)}})
        values = graph_features(mentions_for(), stores.triples)
        assert values == pytest.approx(
            (math.log(6), math.log(6), math.log(6), math.log(3), math.log(3), math.log(3)), abs=1e-12
        )

    def test_no_mentions_gives_zeros(self):
        stores = make_stores(**STORES)
        assert graph_features((), stores.triples) == (0.0,) * 6

    def test_duplicate_entity_counted_once(self):
        stores = make_stores(triples={"Q937": (5, 2)}, aliases={"einstein": "Q937"})
        mentions = link("einstein met einstein", stores.gazetteer)
        assert len(mentions) == 2
        values = graph_features(mentions, stores.triples)
        # dedup by kg_id: same result as a single mention
        assert values == graph_features(mentions[:1], stores.triples)


class TestPopularityFeatures:
    def test_hand_computed(self):
        stores = make_stores(**STORES)
        values = popularity_features(mentions_for(), stores.pageviews)
        # views {999, 10}: (10, 999, 504.5) then log1p
        assert values == pytest.approx((math.log(11), math.log(1000), math.log(505.5)), abs=1e-12)

    def test_aggregate_before_log(self):
        # mean of raw counts is logged, not the mean of logs
        stores = make_stores(**STORES)
        _, _, mean_value = popularity_features(mentions_for(), stores.pageviews)
        mean_of_logs = (math.log(1000) + math.log(11)) / 2
        assert mean_value != pytest.approx(mean_of_logs, abs=1e-6)


class TestFrequencyFeatures:
    def test_hand_computed(self):
        stores = make_stores(**STORES)
        values = frequency_features(mentions_for(), QUESTION, stores.frequency)
        # surfaces: einstein -> 5; "new york city" -> min(100, 40, 60) = 40
        # aggregates (5, 40, 22.5); rarest question unigram = einstein (5)
        assert values == pytest.approx(
            (math.log(6), math.log(41), math.log(23.5), math.log(6)), abs=1e-12
        )

    def test_absent_term_counts_as_zero(self):
        stores = make_stores(
            frequency={"einstein": 5}, aliases={"einstein": "Q937", "new york city": "Q60"}
        )
        values = frequency_features(mentions_for(), QUESTION, stores.frequency)
        # "new york city" tokens are all absent -> surface frequency 0
        assert values[0] == 0.0
        # rarest unigram: absent words ("born", ...) -> 0
        assert values[3] == 0.0

    def test_sidecar_mentions_skipped(self):
        from ragate.linker import sidecar_mentions

        stores = make_stores(frequency={"einstein": 5})
        values = frequency_features(sidecar_mentions(["Q1"]), "einstein asked", stores.frequency)
        # no usable surfaces -> aggregates are zeros; rarest unigram still computed
        assert values[:3] == (0.0, 0.0, 0.0)
        assert values[3] == pytest.approx(0.0, abs=1e-12)  # "asked" absent -> 0

    def test_duplicate_surfaces_counted_once(self):
        stores = make_stores(frequency={"paris": 8, "visit": 100}, aliases={"paris": "Q90"})
        mentions = link("visit paris and paris", stores.gazetteer)
        values = frequency_features(mentions, "visit paris and paris", stores.frequency)
        assert values[:3] == pytest.approx((math.log(9),) * 3, abs=1e-12)


class TestKnowledgability:
    def test_mean_scaled_to_unit(self):
        stores = make_stores(**STORES)
        values = knowledgability_features(mentions_for(), stores.knowledgability, default_schema())
        assert values == pytest.approx((0.6,), abs=1e-12)  # (80+40)/2 / 100

    def test_all_aggregates(self):
        schema = default_schema(knowledgability_aggregates=("min", "max", "mean"))
        stores = make_stores(**STORES)
        values = knowledgability_features(mentions_for(), stores.knowledgability, schema)
        assert values == pytest.approx((0.4, 0.8, 0.6), abs=1e-12)


class TestTextModelFeatures:
    def test_qtype_vector_matches_model(self, toy_models):
        values = question_type_features("how many moons does mars have", toy_models.qtype)
        assert len(values) == 9
        assert sum(values) == pytest.approx(1.0, abs=1e-9)
        by_name = dict(zip(QTYPE_CLASSES, values))
        assert max(by_name, key=by_name.get) == "count"

    def test_qtype_fixed_order_not_model_order(self, toy_models):
        # model stores classes sorted; the feature order is the fixed one
        values = question_type_features("who wrote dune", toy_models.qtype)
        proba = toy_models.qtype.predict_proba("who wrote dune")
        model_order = dict(zip(toy_models.qtype.class_names, proba))
        assert values == tuple(pytest.approx(model_order[c], abs=1e-12) for c in QTYPE_CLASSES)

    def test_complexity_is_multihop_probability(self, toy_models):
        easy = complexity_feature("what is the capital of france", toy_models.complexity)
        hard = complexity_feature("who is the spouse of the director of vertigo", toy_models.complexity)
        assert 0.0 <= easy <= 1.0
        assert hard > easy

    def test_missing_model_raises(self):
        with pytest.raises(ModelMissing):
            question_type_features("q", None)
        with pytest.raises(ModelMissing):
            complexity_feature("q", None)

    def test_wrong_class_set_raises(self, toy_models):
        with pytest.raises(SchemaMismatch):
            question_type_features("q", toy_models.complexity)
        with pytest.raises(SchemaMismatch):
            complexity_feature("q", toy_models.qtype)


class TestContextFeatures:
    def test_hand_computed(self):
        question = "who wrote moby dick"
        contexts = ["who wrote moby dick", "unrelated filler text here"]
        values = context_relevance_features(question, contexts, length_norm=8.0)
        assert values[:3] == pytest.approx((0.0, 1.0, 0.5), abs=1e-12)
        assert values[3] == pytest.approx(8 / 8.0, abs=1e-12)  # 4 + 4 tokens over norm 8

    def test_empty_contexts(self):
        values = context_relevance_features("question", [])
        assert values == (0.0, 0.0, 0.0, 0.0)

    def test_without_length(self):
        values = context_relevance_features("a b", ["a b"], include_length=False)
        assert values == (1.0, 1.0, 1.0)

    def test_custom_scorer(self):
        values = context_relevance_features("q", ["c1", "c2"], scorer=lambda q, c: 0.25)
        assert values[:3] == (0.25, 0.25, 0.25)


class TestCollectMentions:
    def test_gazetteer_plus_sidecar(self):
        stores = make_stores(**{**STORES, "sidecar": {"q0": ["Q42"]}})
        record = make_record(id="q0", question=QUESTION)
        mentions = collect_mentions(record, stores)
        assert [m.kg_id for m in mentions] == ["Q937", "Q60", "Q42"]
        assert mentions[-1].surface == ""

    def test_sidecar_only(self):
        stores = make_stores(sidecar={"q0": ["Q1", "Q2"]})
        mentions = collect_mentions(make_record(id="q0"), stores)
        assert [m.kg_id for m in mentions] == ["Q1", "Q2"]

    def test_no_sources(self):
        assert collect_mentions(make_record(), make_stores()) == ()


class TestExtractAll:
    def full_setup(self):
        return make_stores(**STORES)

    def test_full_vector_shape_and_schema(self, toy_models):
        schema = default_schema()
        vector = extract_all(make_record(question=QUESTION), self.full_setup(), toy_models, schema)
        assert len(vector.values) == 28
        assert vector.schema is schema

    def test_overrides_take_precedence(self, toy_models):
        schema = default_schema()
        record = make_record(question=QUESTION, overrides={"popularity_mean": 0.123})
        vector = extract_all(record, self.full_setup(), toy_models, schema)
        assert vector.as_dict()["popularity_mean"] == 0.123

    def test_unknown_override_rejected(self, toy_models):
        record = make_record(question=QUESTION, overrides={"no_such_feature": 1.0})
        with pytest.raises(SchemaMismatch):
            extract_all(record, self.full_setup(), toy_models, default_schema())

    def test_missing_store_raises_model_missing(self, toy_models):
        stores = make_stores(**{**STORES, "triples": None})
        with pytest.raises(ModelMissing) as exc_info:
            extract_all(make_record(question=QUESTION), stores, toy_models, default_schema())
        assert "triples" in str(exc_info.value)

    def test_missing_store_ok_when_group_fully_overridden(self, toy_models):
        stores = make_stores(**{**STORES, "knowledgability": None})
        record = make_record(question=QUESTION, overrides={"knowledgability_mean": 0.5})
        vector = extract_all(record, stores, toy_models, default_schema())
        assert vector.as_dict()["knowledgability_mean"] == 0.5

    def test_missing_store_ok_when_group_not_in_schema(self, toy_models):
        stores = make_stores(**{**STORES, "triples": None})
        schema = default_schema(groups=("popularity", "qtype", "complexity", "context"))
        vector = extract_all(make_record(question=QUESTION), stores, toy_models, schema)
        assert len(vector.values) == len(schema)

    def test_override_group_requires_override(self, toy_models):
        schema = default_schema(override_features=("ue_entropy",))
        with pytest.raises(ModelMissing):
            extract_all(make_record(question=QUESTION), self.full_setup(), toy_models, schema)
        record = make_record(question=QUESTION, overrides={"ue_entropy": 0.7})
        vector = extract_all(record, self.full_setup(), toy_models, schema)
        assert vector.as_dict()["ue_entropy"] == 0.7

    def test_every_swappable_name_is_called(self, toy_models, monkeypatch):
        # Timing tools swap these module attributes and store methods, so
        # extract_all must reach each through its name at call time and pass
        # context_relevance_features its options as keywords.
        calls = set()

        def spy(owner, attr, label):
            original = getattr(owner, attr)

            def traced(*args, **kwargs):
                calls.add(label)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, traced)

        names = ("link", "graph_features", "popularity_features", "frequency_features", "knowledgability_features",
                 "question_type_features", "complexity_feature")
        for name in names:
            spy(features, name, name)
        context = features.context_relevance_features

        def context_spy(question, contexts, **kwargs):
            calls.add("context_relevance_features")
            return context(question, contexts, **kwargs)

        monkeypatch.setattr(features, "context_relevance_features", context_spy)
        store_classes = (TripleCountStore, PopularityStore, FrequencyStore, KnowledgabilityStore)
        for cls in store_classes:
            spy(cls, "lookup", cls.__name__)
        record = make_record(question=QUESTION, contexts=("einstein was born in ulm",))
        extract_all(record, self.full_setup(), toy_models, default_schema())
        assert calls == {*names, "context_relevance_features", *(cls.__name__ for cls in store_classes)}

    def test_values_read_only(self, toy_models):
        vector = extract_all(make_record(question=QUESTION), self.full_setup(), toy_models, default_schema())
        with pytest.raises(ValueError):
            vector.values[0] = 99.0

    @given(
        question=st.text(max_size=40),
        contexts=st.lists(st.text(max_size=30), max_size=3),
        views=st.integers(0, 10**9),
        freq=st.integers(0, 10**6),
    )
    @settings(max_examples=30, deadline=None)
    def test_vector_invariants_on_arbitrary_inputs(self, toy_models, question, contexts, views, freq):
        stores = make_stores(
            triples={"Q937": (views % 1000, views % 77)},
            pageviews={"Q937": views},
            frequency={"einstein": freq},
            knowledgability={"Q937": 55.0},
            aliases={"einstein": "Q937"},
        )
        record = make_record(question=question, contexts=contexts)
        vector = extract_all(record, stores, toy_models, default_schema())
        d = vector.as_dict()
        assert all(np.isfinite(v) for v in d.values())
        qtype_sum = sum(v for k, v in d.items() if k.startswith("qtype_"))
        assert qtype_sum == pytest.approx(1.0, abs=1e-6)
        assert 0.0 <= d["complexity_multihop"] <= 1.0
        assert 0.0 <= d["knowledgability_mean"] <= 1.0
        for key in ("context_relevance_min", "context_relevance_max", "context_relevance_mean"):
            assert 0.0 <= d[key] <= 1.0
        assert d["context_relevance_min"] <= d["context_relevance_mean"] <= d["context_relevance_max"]
        assert d["context_length"] >= 0.0
        for key in ("graph_subject_min", "popularity_max", "frequency_mean"):
            assert d[key] >= 0.0


class TestConstants:
    def test_qtype_classes(self):
        assert QTYPE_CLASSES == (
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

    def test_complexity_classes(self):
        assert COMPLEXITY_CLASSES == ("onehop", "multihop")

    def test_feature_groups(self):
        assert FEATURE_GROUPS == (
            "graph",
            "popularity",
            "frequency",
            "knowledgability",
            "qtype",
            "complexity",
            "context",
        )
