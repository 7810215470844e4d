import functools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from ragate.textclf import (
    DegenerateCorpus,
    TextClfConfig,
    _product,
    classifier_from_dict,
    classifier_to_dict,
    hashed_counts,
    load_text_classifier,
    load_toy_corpus,
    relevance_score,
    save_text_classifier,
    softmax_loss_and_grad,
    train_text_classifier,
)

SMALL = TextClfConfig(seed=0, epochs=25, dim=1 << 10)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(10**308, 10**320) | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

SEPARABLE = [
    ("how many cats", "count"),
    ("how many dogs", "count"),
    ("how many rivers", "count"),
    ("who wrote this book", "generic"),
    ("who painted that wall", "generic"),
    ("who composed the tune", "generic"),
]


@functools.cache
def _separable_dict() -> str:
    return json.dumps(classifier_to_dict(train_text_classifier(SEPARABLE, SMALL)))


def _separable_artifact() -> dict:
    """A fresh copy of the artifact of a classifier fit on SEPARABLE."""
    return json.loads(_separable_dict())


def featurize_many(texts: list[str], dim: int) -> sparse.csr_matrix:
    """Hashed unigram+bigram count rows, shape (len(texts), dim), columns ascending."""
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for text in texts:
        counts = hashed_counts(text, dim)
        for col in sorted(counts):
            indices.append(col)
            data.append(counts[col])
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.array(data, dtype=np.float64), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(len(texts), dim),
    )


def _terms(X) -> tuple:
    """The (rows, cols, values) of the nonzero entries of ``X``, sorted by row, then column."""
    X = sparse.csr_matrix(X)
    return np.repeat(np.arange(X.shape[0]), np.diff(X.indptr)), X.indices, X.data


class TestFeaturize:
    def test_counts_unigrams_and_bigrams(self):
        x = featurize_many(["the cat sat"], 1 << 12)
        # 3 unigram occurrences + 2 bigram occurrences
        assert x.sum() == 5.0
        assert x.shape == (1, 1 << 12)

    def test_deterministic(self):
        a = featurize_many(["who wrote moby dick"], 1 << 12)
        b = featurize_many(["who wrote moby dick"], 1 << 12)
        assert (a != b).nnz == 0

    def test_normalization_applied(self):
        a = featurize_many(["The CAT   sat!"], 1 << 12)
        b = featurize_many(["the cat sat"], 1 << 12)
        assert (a != b).nnz == 0

    def test_repeated_token_accumulates(self):
        x = featurize_many(["very very"], 1 << 12)
        assert x.max() == 2.0  # the repeated unigram bucket

    def test_featurize_many_stacks(self):
        X = featurize_many(["a b", "c"], 1 << 10)
        assert X.shape == (2, 1 << 10)
        assert (X[0] != featurize_many(["a b"], 1 << 10)).nnz == 0


_COUNTS = st.floats(-1e3, 1e3, allow_nan=False) | st.sampled_from([1.0, 2.0, -0.0, 1e-9])
# (column count, one {column: count} dict per row)
_COUNT_ROWS = st.integers(1, 8).flatmap(
    lambda n_cols: st.tuples(
        st.just(n_cols), st.lists(st.dictionaries(st.integers(0, n_cols - 1), _COUNTS), min_size=1, max_size=8)
    )
)


class TestProduct:
    """``_product`` and its transposed use give scipy's CSR products bit for bit."""

    @given(matrix=_COUNT_ROWS, k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @example(matrix=(3, [{0: 0.1, 1: 0.2, 2: 0.3}, {}, {0: 1e-9, 2: -7.0}, {0: 3.0, 1: 1.0}]), k=2, seed=0)
    @settings(max_examples=300, deadline=None)
    def test_matches_csr_products(self, matrix, k, seed):
        n_cols, rows = matrix
        cols = [sorted(row) for row in rows]
        X = sparse.csr_matrix(
            (np.array([row[c] for row, key in zip(rows, cols) for c in key], dtype=np.float64),
             np.array([c for key in cols for c in key], dtype=np.int64),
             np.cumsum([0] + [len(key) for key in cols])),
            shape=(len(rows), n_cols),
        )
        # signed weights over many magnitudes, so the order of the sums shows
        rng = np.random.default_rng(seed)
        W = rng.normal(size=(n_cols, k)) * 10.0 ** rng.integers(-8, 9, size=(n_cols, k))
        D = rng.normal(size=(len(rows), k)) * 10.0 ** rng.integers(-8, 9, size=(len(rows), k))
        r, c, v = _terms(X)
        assert np.array_equal(_product(r, c, v, W, len(rows)), X @ W)
        assert np.array_equal(_product(c, r, v, D, n_cols), X.T @ D)


class TestSoftmaxGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        n, d, c = 12, 7, 3
        X = rng.normal(size=(n, d))
        labels = rng.integers(0, c, size=n)
        weights = rng.normal(scale=0.3, size=(d, c))
        bias = rng.normal(scale=0.3, size=c)
        X = _terms(X)
        loss, grad_w, grad_b = softmax_loss_and_grad(weights, bias, X, labels)
        eps = 1e-6
        for idx in [(0, 0), (3, 1), (6, 2)]:
            bumped = weights.copy()
            bumped[idx] += eps
            up, _, _ = softmax_loss_and_grad(bumped, bias, X, labels)
            bumped[idx] -= 2 * eps
            down, _, _ = softmax_loss_and_grad(bumped, bias, X, labels)
            numeric = (up - down) / (2 * eps)
            assert abs(numeric - grad_w[idx]) <= 1e-4 * max(1.0, abs(numeric))
        for j in range(c):
            bumped = bias.copy()
            bumped[j] += eps
            up, _, _ = softmax_loss_and_grad(weights, bumped, X, labels)
            bumped[j] -= 2 * eps
            down, _, _ = softmax_loss_and_grad(weights, bumped, X, labels)
            numeric = (up - down) / (2 * eps)
            assert abs(numeric - grad_b[j]) <= 1e-4 * max(1.0, abs(numeric))

    def test_uniform_start_loss_is_log_c(self):
        loss, _, _ = softmax_loss_and_grad(np.zeros((4, 3)), np.zeros(3), _terms(np.eye(4)), np.array([0, 1, 2, 0]))
        assert loss == pytest.approx(np.log(3.0), rel=1e-9)


class TestTraining:
    def test_fits_separable_corpus(self):
        model = train_text_classifier(SEPARABLE, SMALL)
        for text, label in SEPARABLE:
            assert model.predict(text) == label

    def test_class_names_sorted(self):
        model = train_text_classifier(SEPARABLE, SMALL)
        assert model.class_names == ("count", "generic")

    def test_proba_sums_to_one(self):
        model = train_text_classifier(SEPARABLE, SMALL)
        p = model.predict_proba("how many moons does jupiter have")
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert (p >= 0).all()

    def test_deterministic_across_runs(self):
        a = train_text_classifier(SEPARABLE, SMALL)
        b = train_text_classifier(SEPARABLE, SMALL)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_loss_history_decreases(self):
        model = train_text_classifier(SEPARABLE, SMALL)
        history = model.training_meta["loss_history"]
        assert history[-1] < history[0]

    def test_empty_corpus_rejected(self):
        with pytest.raises(DegenerateCorpus):
            train_text_classifier([], SMALL)

    def test_single_label_rejected(self):
        with pytest.raises(DegenerateCorpus):
            train_text_classifier([("a", "x"), ("b", "x")], SMALL)


class TestRelevanceScore:
    def test_identical(self):
        assert relevance_score("the cat sat", "the cat sat") == 1.0

    def test_disjoint(self):
        assert relevance_score("alpha beta", "gamma delta") == 0.0

    def test_hand_computed_value(self):
        # q = {a, b}, c = {b, c, d}: overlap 1, f1 = 2*1/(2+3)
        assert relevance_score("a b", "b c d") == pytest.approx(0.4, abs=1e-12)

    def test_multiset_overlap(self):
        # q = {a:2}, c = {a:1, b:1}: overlap 1, f1 = 2/(2+2)
        assert relevance_score("a a", "a b") == pytest.approx(0.5, abs=1e-12)

    def test_empty_sides(self):
        assert relevance_score("", "something") == 0.0
        assert relevance_score("something", "!!") == 0.0

    @given(st.text(max_size=40), st.text(max_size=40))
    @settings(max_examples=100)
    def test_bounds_and_symmetry(self, q, c):
        s = relevance_score(q, c)
        assert 0.0 <= s <= 1.0
        assert s == relevance_score(c, q)


class TestArtifactIO:
    def test_round_trip_exact(self, tmp_path):
        model = train_text_classifier(SEPARABLE, SMALL)
        path = tmp_path / "clf.json"
        save_text_classifier(model, path)
        loaded = load_text_classifier(path)
        assert loaded.class_names == model.class_names
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.bias, model.bias)
        text = "how many pages"
        assert np.array_equal(loaded.predict_proba(text), model.predict_proba(text))

    def test_save_is_byte_deterministic(self, tmp_path):
        model = train_text_classifier(SEPARABLE, SMALL)
        save_text_classifier(model, tmp_path / "a.json")
        save_text_classifier(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            classifier_from_dict({"kind": "gate"})

    def test_rejects_out_of_range_column(self):
        obj = classifier_to_dict(train_text_classifier(SEPARABLE, SMALL))
        obj["weights"]["99999999"] = [0.0, 0.0]
        with pytest.raises(ValueError):
            classifier_from_dict(obj)

    @pytest.mark.parametrize(
        "change",
        [
            {"dim": 1.5},
            {"dim": "16"},
            {"dim": True},
            {"dim": float("inf")},
            {"dim": 0},
            {"class_names": "ab"},
            {"class_names": ["count", 1]},
            {"class_names": ["count", "count"]},
            {"bias": [0.0, float("nan")]},
            {"bias": {"a": 1}},
            {"bias": [10**400, 0]},
            {"weights": []},
            {"weights": {"abc": [0.0, 0.0]}},
            {"weights": {"1.5": [0.0, 0.0]}},
            {"weights": {"inf": [0.0, 0.0]}},
            {"weights": {"3": [float("inf"), 0.0]}},
            {"weights": {"3": 7}},
            {"weights": {"3": [[0.0], 0.0]}},
            {"training_meta": 5},
        ],
    )
    def test_rejects_malformed_fields(self, change):
        obj = {**_separable_artifact(), **change}
        with pytest.raises(ValueError):
            classifier_from_dict(obj)

    @pytest.mark.parametrize("key", ["dim", "class_names", "bias", "weights"])
    def test_rejects_missing_key(self, key):
        obj = _separable_artifact()
        del obj[key]
        with pytest.raises(ValueError, match=f"lacks \\['{key}'\\]"):
            classifier_from_dict(obj)

    @settings(max_examples=300, deadline=None)
    @given(
        fields=st.dictionaries(st.sampled_from(["dim", "class_names", "bias", "weights", "training_meta"]), JSON_VALUES),
        weights=st.dictionaries(st.text(max_size=4) | st.integers(-2, 1 << 11).map(str), JSON_VALUES, max_size=3),
    )
    def test_random_artifacts_raise_only_value_error(self, fields, weights):
        base = _separable_artifact()
        for obj in ({"kind": "text-classifier", **fields}, {**base, **fields}, {**base, "weights": weights}):
            try:
                model = classifier_from_dict(obj)
            except ValueError:
                continue
            assert np.all(np.isfinite(model.predict_proba("how many cats")))

    def test_artifact_is_plain_json(self, tmp_path):
        path = tmp_path / "clf.json"
        save_text_classifier(train_text_classifier(SEPARABLE, SMALL), path)
        obj = json.loads(path.read_text())
        assert obj["kind"] == "text-classifier"


class TestToyCorpora:
    def test_qtype_has_nine_classes(self):
        corpus = load_toy_corpus("qtype")
        labels = {label for _, label in corpus}
        assert labels == {
            "ordinal",
            "count",
            "generic",
            "superlative",
            "difference",
            "intersection",
            "multihop",
            "comparative",
            "yesno",
        }

    def test_complexity_has_two_classes(self):
        labels = {label for _, label in load_toy_corpus("complexity")}
        assert labels == {"onehop", "multihop"}

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            load_toy_corpus("sentiment")


# ---------------------------------------------------------------------------
# The compact column layout against a dense (classes x dim) reference
# ---------------------------------------------------------------------------


def _dense_softmax(x, weights, bias):
    logits = np.asarray(x @ weights.T) + bias
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return (exp / exp.sum(axis=1, keepdims=True))[0]


def _scipy_loss_and_grad(weights, bias, X, labels):
    """``softmax_loss_and_grad`` on a (classes x dim) weight array and a CSR
    count matrix, its products taken by scipy."""
    n = X.shape[0]
    logits = np.asarray(X @ weights.T) + bias
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = exp / exp.sum(axis=1, keepdims=True)
    loss = -np.mean(np.log(probs[np.arange(n), labels] + 1e-12))
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    return loss, np.asarray((X.T @ delta).T), delta.sum(axis=0)


def _dense_reference_dict(corpus, config):
    """The artifact of plain gradient descent on all ``dim`` columns."""
    class_names = tuple(sorted({label for _, label in corpus}))
    class_index = {name: i for i, name in enumerate(class_names)}
    X = featurize_many([text for text, _ in corpus], config.dim)
    y = np.array([class_index[label] for _, label in corpus], dtype=np.int64)
    n = X.shape[0]
    rng = np.random.default_rng(config.seed)
    weights = np.zeros((len(class_names), config.dim))
    bias = np.zeros(len(class_names))
    batch = max(1, min(config.batch_size, n))
    loss_history = []
    for _ in range(config.epochs):
        order = rng.permutation(n) if batch < n else np.arange(n)
        for lo in range(0, n, batch):
            idx = order[lo : lo + batch]
            _, grad_w, grad_b = _scipy_loss_and_grad(weights, bias, X[idx], y[idx])
            weights -= config.learning_rate * grad_w
            bias -= config.learning_rate * grad_b
        loss_history.append(float(_scipy_loss_and_grad(weights, bias, X, y)[0]))
    nonzero_cols = np.flatnonzero(np.any(weights != 0.0, axis=0))
    return {
        "kind": "text-classifier",
        "dim": config.dim,
        "class_names": list(class_names),
        "bias": [float(v) for v in bias],
        "weights": {str(int(c)): [float(v) for v in weights[:, c]] for c in nonzero_cols},
        "training_meta": {
            "seed": config.seed,
            "epochs": config.epochs,
            "learning_rate": config.learning_rate,
            "batch_size": batch,
            "loss_history": loss_history,
        },
    }


@pytest.fixture(scope="module")
def dense_builtins(toy_models):
    """Each builtin model with its weights scattered into a (classes x dim) array."""
    dense = []
    for model in (toy_models.qtype, toy_models.complexity):
        weights = np.zeros((len(model.class_names), model.dim))
        weights[:, model.columns] = model.weights.T
        dense.append((model, weights))
    return dense


_WORDS = [
    "how", "many", "who", "what", "which", "is", "the", "of", "and", "or", "than", "more",
    "first", "largest", "river", "city", "born", "wrote", "did", "does", "zqxv", "blorpt",
]

_UNSEEN = "zqxv blorpt wuffle"


class TestCompactLayout:
    def test_holds_only_weighted_columns(self, toy_models):
        for model in (toy_models.qtype, toy_models.complexity):
            assert model.weights.shape == (len(model.columns), len(model.class_names))
            assert np.all(np.diff(model.columns) > 0)
            assert np.all(np.any(model.weights != 0.0, axis=1))

    def test_unseen_probe_misses_every_column(self, toy_models):
        for model in (toy_models.qtype, toy_models.complexity):
            assert not set(hashed_counts(_UNSEEN, model.dim)) & set(model.columns.tolist())

    @given(st.one_of(st.text(max_size=60), st.lists(st.sampled_from(_WORDS), max_size=12).map(" ".join)))
    @example("")
    @example(_UNSEEN)
    @settings(max_examples=150, deadline=None)
    def test_predict_proba_is_the_dense_product(self, dense_builtins, text):
        for model, weights in dense_builtins:
            expected = _dense_softmax(featurize_many([text], model.dim), weights, model.bias)
            assert np.array_equal(model.predict_proba(text), expected)

    @pytest.mark.parametrize("name", ["qtype", "complexity"])
    def test_builtin_artifact_matches_dense_training(self, name):
        config = TextClfConfig(seed=0)
        corpus = load_toy_corpus(name)
        compact = classifier_to_dict(train_text_classifier(corpus, config))
        assert json.dumps(compact, sort_keys=True) == json.dumps(_dense_reference_dict(corpus, config), sort_keys=True)

    def test_rejects_a_column_given_twice(self):
        obj = classifier_to_dict(train_text_classifier(SEPARABLE, SMALL))
        col, column = next(iter(obj["weights"].items()))
        obj["weights"]["0" + col] = column
        with pytest.raises(ValueError):
            classifier_from_dict(obj)
