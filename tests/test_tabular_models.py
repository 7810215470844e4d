import contextlib
import inspect
import json
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ragate.tabular import (
    FAMILY_CLASSES,
    DegenerateData,
    DecisionTreeModel,
    GradientBoostingModel,
    InvalidHyperparameter,
    KNNModel,
    LogisticRegressionModel,
    MLPModel,
    RandomForestModel,
    TabularDataset,
    VotingModel,
    grow_tree,
    logistic_loss,
    mlp_loss_and_grad,
    tree_predict,
)
from ragate.tabular.base import balanced_class_weights, check_two_classes, resolve_sample_weights
from ragate.tabular.linear import loss_and_grad
from ragate.tabular.mlp import layer_shapes, pack_params, unpack_params
from ragate.tabular.neighbors import _BLOCK, _PERMUTED_BLOCK, _block_distances
from ragate.tabular.trees import Tree, _best_split, _impurity, _random_split, laplace_leaf, resolve_max_features


def separable(n=80, d=4, seed=0, margin=1.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(np.int64)
    X[y == 1, 0] += margin
    X[y == 0, 0] -= margin
    return X, y


def noisy(n=120, d=5, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    logits = 1.5 * X[:, 0] - X[:, 2]
    y = (logits + rng.normal(scale=0.8, size=n) > 0).astype(np.int64)
    return X, y


class TestBaseHelpers:
    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            TabularDataset(np.zeros((3, 2)), np.array([0, 1, 2]), ("a", "b"))
        with pytest.raises(ValueError):
            TabularDataset(np.array([[np.inf, 0.0]]), np.array([1]), ("a", "b"))
        with pytest.raises(ValueError):
            TabularDataset(np.zeros((2, 2)), np.array([0, 1]), ("a",))

    def test_dataset_rows(self):
        data = TabularDataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]), ("a", "b"))
        sub = data.rows([2, 0])
        assert sub.X[0, 0] == 4.0 and sub.y.tolist() == [0, 0]

    def test_balanced_class_weights(self):
        y = np.array([0, 0, 0, 1])
        weights = balanced_class_weights(y)
        # n / (2 * count): {0: 4/6, 1: 4/2}
        assert weights[0] == pytest.approx(4 / 6)
        assert weights[1] == pytest.approx(2.0)

    def test_resolve_sample_weights(self):
        y = np.array([0, 1, 1])
        assert resolve_sample_weights(y, None).tolist() == [1.0, 1.0, 1.0]
        explicit = resolve_sample_weights(y, {0: 2.0, 1: 0.5})
        assert explicit.tolist() == [2.0, 0.5, 0.5]
        # JSON round-trips turn int keys into strings; both must work
        coerced = resolve_sample_weights(y, {"0": 2.0, "1": 0.5})
        assert coerced.tolist() == [2.0, 0.5, 0.5]
        with pytest.raises(InvalidHyperparameter):
            resolve_sample_weights(y, {0: 1.0})

    def test_check_two_classes(self):
        with pytest.raises(DegenerateData):
            check_two_classes(np.array([1, 1, 1]), "logreg")


class TestLogisticRegression:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(15, 4))
        y_pm = np.where(rng.integers(0, 2, 15) == 1, 1.0, -1.0)
        sw = rng.uniform(0.5, 2.0, size=15)
        params = rng.normal(scale=0.5, size=5)
        loss, grad = loss_and_grad(params, X, y_pm, C=0.7, sample_weight=sw)
        eps = 1e-6
        for j in range(5):
            bumped = params.copy()
            bumped[j] += eps
            up, _ = loss_and_grad(bumped, X, y_pm, 0.7, sw)
            bumped[j] -= 2 * eps
            down, _ = loss_and_grad(bumped, X, y_pm, 0.7, sw)
            numeric = (up - down) / (2 * eps)
            assert abs(numeric - grad[j]) <= 1e-4 * max(1.0, abs(numeric))

    def test_fits_separable(self):
        X, y = separable()
        model = LogisticRegressionModel(C=1.0, seed=0).fit(X, y)
        acc = np.mean((model.predict_proba(X) >= 0.5).astype(int) == y)
        assert acc >= 0.95

    def test_regularization_shrinks_weights(self):
        X, y = separable()
        big_c = LogisticRegressionModel(C=10.0, seed=0).fit(X, y)
        small_c = LogisticRegressionModel(C=0.001, seed=0).fit(X, y)
        assert np.linalg.norm(small_c.weights) < np.linalg.norm(big_c.weights)

    def test_invalid_c(self):
        with pytest.raises(InvalidHyperparameter):
            LogisticRegressionModel(C=0.0)

    def test_invalid_solver(self):
        with pytest.raises(InvalidHyperparameter):
            LogisticRegressionModel(solver="newton")

    def test_both_solver_names_accepted(self):
        X, y = separable(n=40)
        a = LogisticRegressionModel(solver="lbfgs", seed=0).fit(X, y)
        b = LogisticRegressionModel(solver="liblinear", seed=0).fit(X, y)
        assert np.allclose(a.weights, b.weights)

    def test_balanced_class_weight_moves_boundary(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 2))
        y = np.zeros(100, dtype=np.int64)
        y[:10] = 1
        X[y == 1] += 1.0
        plain = LogisticRegressionModel(class_weight=None, seed=0).fit(X, y)
        balanced = LogisticRegressionModel(class_weight="balanced", seed=0).fit(X, y)
        # upweighting the minority class raises its predicted probability
        assert balanced.predict_proba(X[y == 1]).mean() > plain.predict_proba(X[y == 1]).mean()


def knn_reference(train_X, train_y, X, k, metric, weights):
    """Brute-force kNN independent of the library implementation."""
    out = np.empty(X.shape[0])
    for i, x in enumerate(X):
        if metric == "euclidean":
            d = np.sqrt(((train_X - x) ** 2).sum(axis=1))
        else:
            d = np.abs(train_X - x).sum(axis=1)
        order = np.argsort(d, kind="stable")[:k]
        if weights == "uniform":
            out[i] = train_y[order].mean()
        else:
            dk = d[order]
            if np.any(dk == 0.0):
                coincident = order[dk == 0.0]
                out[i] = train_y[coincident].mean()
            else:
                w = 1.0 / dk
                out[i] = (w * train_y[order]).sum() / w.sum()
    return out


class TestKNN:
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    @pytest.mark.parametrize("weights", ["uniform", "distance"])
    def test_matches_brute_force(self, metric, weights):
        rng = np.random.default_rng(11)
        train_X = rng.normal(size=(60, 5))
        train_y = rng.integers(0, 2, 60).astype(np.int64)
        X = rng.normal(size=(25, 5))
        model = KNNModel(n_neighbors=7, metric=metric, weights=weights, seed=0).fit(train_X, train_y)
        expected = knn_reference(train_X, train_y, X, 7, metric, weights)
        assert np.allclose(model.predict_proba(X), expected, atol=1e-12)

    def test_zero_distance_rule(self):
        train_X = np.array([[0.0], [0.0], [5.0]])
        train_y = np.array([1, 0, 1])
        model = KNNModel(n_neighbors=3, weights="distance", seed=0).fit(train_X, train_y)
        # query coincides with two points (labels 1 and 0): only they count
        assert model.predict_proba(np.array([[0.0]]))[0] == pytest.approx(0.5)

    def test_distance_ties_broken_by_train_index(self):
        train_X = np.array([[1.0], [-1.0], [1.0]])
        train_y = np.array([1, 0, 0])
        model = KNNModel(n_neighbors=1, weights="uniform", seed=0).fit(train_X, train_y)
        # both +1 and -1 are at distance 1 from 0; index 0 wins the tie
        assert model.predict_proba(np.array([[0.0]]))[0] == 1.0

    def test_k_larger_than_train_rejected(self):
        with pytest.raises(InvalidHyperparameter):
            KNNModel(n_neighbors=5, seed=0).fit(np.zeros((3, 1)), np.array([0, 1, 0]))

    def test_single_class_data_allowed(self):
        model = KNNModel(n_neighbors=2, seed=0).fit(np.arange(4.0).reshape(4, 1), np.ones(4, dtype=np.int64))
        assert model.predict_proba(np.array([[2.0]]))[0] == 1.0

    def test_algorithm_names_cosmetic(self):
        X, y = separable(n=30)
        probs = [
            KNNModel(n_neighbors=3, algorithm=algo, seed=0).fit(X, y).predict_proba(X[:5])
            for algo in ("auto", "ball_tree", "kd_tree", "brute")
        ]
        for p in probs[1:]:
            assert np.array_equal(p, probs[0])

    def test_pairwise_distances_oracle(self):
        A = np.array([[0.0, 0.0], [1.0, 1.0]])
        B = np.array([[3.0, 4.0]])
        assert block_distances(A, B, "euclidean")[0, 0] == pytest.approx(5.0)
        assert block_distances(A, B, "manhattan")[1, 0] == pytest.approx(5.0)

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    @pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 15, 16, 17, 28, 39, 64, 127, 128, 129, 200, 300, 1000])
    def test_pairwise_distances_bit_identical_to_broadcast_sum(self, metric, d):
        rng = np.random.default_rng(d)
        A = rng.normal(size=(11, d)) * rng.uniform(0.01, 100.0, size=d)
        B = rng.normal(size=(17, d)) * rng.uniform(0.01, 100.0, size=d)
        B[:3] = A[:3]
        diff = A[:, None, :] - B[None, :, :]
        if metric == "euclidean":
            expected = np.sqrt(np.sum(diff * diff, axis=2))
        else:
            expected = np.sum(np.abs(diff), axis=2)
        assert np.array_equal(block_distances(A, B, metric), expected)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.one_of(st.integers(1, 40), st.sampled_from([64, 127, 128, 129, 136, 200, 300])),
        m=st.integers(1, 40),
        n=st.integers(1, 30),
        k_frac=st.floats(0.0, 1.0),
        integer=st.booleans(),
        metric=st.sampled_from(["euclidean", "manhattan"]),
        weights=st.sampled_from(["uniform", "distance"]),
    )
    def test_predict_proba_bit_identical_to_broadcast_reference(
        self, seed, d, m, n, k_frac, integer, metric, weights
    ):
        rng = np.random.default_rng(seed)
        if integer:
            # Few distinct values: many equal distances and exact matches.
            train_X = rng.integers(-2, 3, size=(m, d)).astype(np.float64)
            X = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        else:
            train_X = rng.normal(size=(m, d))
            X = rng.normal(size=(n, d))
        copied = rng.integers(0, min(n, m) + 1)
        X[:copied] = train_X[rng.permutation(m)[:copied]]
        train_y = rng.integers(0, 2, size=m)
        k = 1 + int(k_frac * (m - 1))
        model = KNNModel(n_neighbors=k, metric=metric, weights=weights).fit(train_X, train_y)
        expected = knn_broadcast_reference(train_X, train_y, X, k, metric, weights)
        assert np.array_equal(model.predict_proba(X), expected)

    @pytest.mark.parametrize("d", [1, 28, 129])
    @pytest.mark.parametrize("weights", ["uniform", "distance"])
    def test_tied_integer_grid_with_all_rows_as_neighbours(self, d, weights):
        rng = np.random.default_rng(5)
        train_X = rng.integers(0, 2, size=(30, d)).astype(np.float64)
        train_y = rng.integers(0, 2, size=30)
        X = np.vstack([train_X[:9], rng.integers(0, 2, size=(12, d))])  # 21 rows: not whole blocks
        for k in (1, 4, 30):
            for metric in ("euclidean", "manhattan"):
                model = KNNModel(n_neighbors=k, metric=metric, weights=weights).fit(train_X, train_y)
                expected = knn_broadcast_reference(train_X, train_y, X, k, metric, weights)
                assert np.array_equal(model.predict_proba(X), expected)


def stacked_shuffle_proba(model, X, perms):
    """``predict_proba`` of each copy of X whose column j is reordered by perms[j, r], stacked."""
    out = np.empty(perms.shape)
    for j in range(perms.shape[0]):
        for r in range(perms.shape[1]):
            copy = X.copy()
            copy[:, j] = X[perms[j, r], j]
            out[j, r] = model.predict_proba(copy)
    return out


class TestKNNPermuted:
    # Feature counts reach every branch of _pairwise_sum: under 8 terms, 8-128
    # with and without a tail, and over 128; row counts span several blocks.
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.one_of(st.integers(1, 150), st.sampled_from([1, 7, 8, 9, 16, 17, 28, 127, 128, 129, 136, 144, 150])),
        m=st.integers(1, 30),
        n=st.integers(0, 3 * _PERMUTED_BLOCK + 1),
        repeats=st.integers(0, 3),
        k_frac=st.floats(0.0, 1.0),
        integer=st.booleans(),
        metric=st.sampled_from(["euclidean", "manhattan"]),
        weights=st.sampled_from(["uniform", "distance"]),
    )
    @example(seed=1, d=7, m=9, n=_PERMUTED_BLOCK + 1, repeats=3, k_frac=1.0, integer=True, metric="euclidean",
             weights="distance")
    @example(seed=2, d=16, m=12, n=2 * _PERMUTED_BLOCK - 1, repeats=2, k_frac=0.5, integer=True, metric="manhattan",
             weights="uniform")
    @example(seed=3, d=28, m=20, n=3 * _PERMUTED_BLOCK + 1, repeats=3, k_frac=0.2, integer=False,
             metric="euclidean", weights="distance")
    @example(seed=4, d=150, m=10, n=_PERMUTED_BLOCK + 3, repeats=1, k_frac=0.0, integer=True, metric="manhattan",
             weights="distance")
    def test_bit_equal_to_scoring_each_shuffled_copy(self, seed, d, m, n, repeats, k_frac, integer, metric, weights):
        rng = np.random.default_rng(seed)
        if integer:
            # Few distinct values: many equal distances and exact matches.
            train_X = rng.integers(-2, 3, size=(m, d)).astype(np.float64)
            X = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        else:
            train_X = rng.normal(size=(m, d)) * rng.uniform(0.01, 100.0, size=d)
            X = rng.normal(size=(n, d)) * rng.uniform(0.01, 100.0, size=d)
        dups = rng.integers(0, m, size=m // 3)  # duplicated training rows
        train_X[rng.permutation(m)[: dups.size]] = train_X[dups]
        copied = rng.integers(0, min(n, m) + 1)  # queries at distance zero
        X[:copied] = train_X[rng.permutation(m)[:copied]]
        train_y = rng.integers(0, 2, size=m)
        k = 1 + int(k_frac * (m - 1))
        model = KNNModel(n_neighbors=k, metric=metric, weights=weights).fit(train_X, train_y)
        perms = np.empty((d, repeats, n), dtype=np.intp)
        for j, r in np.ndindex(d, repeats):
            perms[j, r] = rng.permutation(n)
        got = model.permuted_proba(X, perms)
        assert got.shape == (d, repeats, n)
        assert np.array_equal(got, stacked_shuffle_proba(model, X, perms))


def block_distances(A, B, metric):
    """Distances from the rows of A to those of B, one block of rows at a time, as KNNModel computes them."""
    T = np.ascontiguousarray(B.T)
    return np.vstack([_block_distances(A[i : i + _BLOCK], T, metric) for i in range(0, A.shape[0], _BLOCK)])


def knn_broadcast_reference(train_X, train_y, X, k, metric, weights):
    """The plain formulation KNNModel must match bit for bit: one broadcast
    (queries x train x features) difference, a stable argsort of every row,
    and a Python loop over the rows."""
    diff = X[:, None, :] - train_X[None, :, :]
    if metric == "euclidean":
        dist = np.sqrt(np.sum(diff * diff, axis=2))
    else:
        dist = np.sum(np.abs(diff), axis=2)
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    probs = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        nbrs = order[i]
        labels = train_y[nbrs]
        if weights == "uniform":
            probs[i] = float(np.mean(labels))
            continue
        dk = dist[i, nbrs]
        if np.any(dk == 0.0):
            probs[i] = float(np.mean(labels[dk == 0.0]))
        else:
            w = 1.0 / dk
            probs[i] = float(np.sum(w * labels) / np.sum(w))
    return probs


class TestDecisionTree:
    def test_resolve_max_features(self):
        assert resolve_max_features(None, 10) == 10
        assert resolve_max_features("sqrt", 10) == 3
        assert resolve_max_features("log2", 10) == 3
        assert resolve_max_features(0.2, 10) == 2
        assert resolve_max_features(0.05, 10) == 1  # floors at 1
        assert resolve_max_features(4, 10) == 4
        with pytest.raises(InvalidHyperparameter):
            resolve_max_features(0.0, 10)
        with pytest.raises(InvalidHyperparameter):
            resolve_max_features(True, 10)
        with pytest.raises(InvalidHyperparameter):
            resolve_max_features("auto", 10)

    def test_perfect_split_found(self):
        X = np.array([[1.0], [2.0], [10.0], [11.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = grow_tree(X, y, criterion="gini")
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(6.0)  # midpoint of 2 and 10
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.n.tolist() == [4, 2, 2]

    def test_zero_training_error_on_consistent_data(self):
        X, y = noisy(n=150)
        model = DecisionTreeModel(max_depth=None, seed=0).fit(X, y)
        predictions = (model.predict_proba(X) >= 0.5).astype(int)
        assert np.array_equal(predictions, y)

    def test_entropy_criterion_also_fits(self):
        X, y = noisy(n=100)
        model = DecisionTreeModel(max_depth=None, criterion="entropy", seed=0).fit(X, y)
        assert np.array_equal((model.predict_proba(X) >= 0.5).astype(int), y)

    def test_max_depth_limits_tree(self):
        X, y = noisy(n=200)
        model = DecisionTreeModel(max_depth=3, seed=0).fit(X, y)
        tree = model.tree
        depth = np.zeros(tree.feature.size, dtype=int)
        for node in np.flatnonzero(tree.feature >= 0):  # parents come before children
            depth[[tree.left[node], tree.right[node]]] = depth[node] + 1
        assert depth.max() <= 3
        assert tree.depth == depth.max()

    def test_laplace_leaf_values(self):
        # weighted positives 2, total 4 -> (2+1)/(4+2)
        targets = np.array([1.0, 1.0, 0.0, 0.0])
        leaf = laplace_leaf(targets, np.ones(4))
        assert leaf(np.arange(4)) == pytest.approx(0.5)
        assert leaf(np.array([0])) == pytest.approx(2 / 3)
        assert leaf(np.array([3])) == pytest.approx(1 / 3)
        weighted = laplace_leaf(targets, np.array([3.0, 1.0, 1.0, 1.0]))
        # w_pos 4, w_total 6 -> 5/8
        assert weighted(np.arange(4)) == pytest.approx(5 / 8)

    def test_leaf_probabilities_never_hit_0_or_1(self):
        X, y = noisy(n=80)
        proba = DecisionTreeModel(max_depth=None, seed=0).fit(X, y).predict_proba(X)
        assert proba.min() > 0.0
        assert proba.max() < 1.0

    def test_single_class_data_allowed(self):
        X = np.arange(10.0).reshape(5, 2)
        model = DecisionTreeModel(seed=0).fit(X, np.zeros(5, dtype=np.int64))
        assert model.predict_proba(X)[0] == pytest.approx(1 / 7)  # (0+1)/(5+2)

    def test_random_splitter_deterministic_per_seed(self):
        X, y = noisy(n=100)
        a = DecisionTreeModel(splitter="random", seed=4).fit(X, y)
        b = DecisionTreeModel(splitter="random", seed=4).fit(X, y)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_tree_round_trip(self):
        X, y = noisy(n=60)
        model = DecisionTreeModel(max_depth=4, seed=0).fit(X, y)
        rebuilt = Tree.from_dict(json.loads(json.dumps(model.tree.to_dict())))
        for name in ("feature", "threshold", "left", "right", "value", "n"):
            assert np.array_equal(getattr(rebuilt, name), getattr(model.tree, name))
        assert np.array_equal(tree_predict(rebuilt, X), tree_predict(model.tree, X))

    def test_mse_criterion_regression_targets(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        targets = np.array([1.0, 1.0, 5.0, 5.0])
        tree = grow_tree(X, targets, criterion="mse")
        assert tree.threshold[0] == pytest.approx(1.5)
        assert tree_predict(tree, np.array([[0.5]]))[0] == pytest.approx(1.0)
        assert tree_predict(tree, np.array([[9.0]]))[0] == pytest.approx(5.0)


class TestGradientBoosting:
    def test_base_score_is_log_odds(self):
        X = np.zeros((4, 1))
        X[:, 0] = [0, 1, 2, 3]
        y = np.array([1, 1, 1, 0])
        model = GradientBoostingModel(n_estimators=1, learning_rate=0.1, seed=0).fit(X, y)
        assert model.base_score == pytest.approx(math.log(3.0))

    def test_training_loss_non_increasing(self):
        X, y = noisy(n=150)
        model = GradientBoostingModel(n_estimators=40, learning_rate=0.1, max_depth=3, seed=0).fit(X, y)
        history = np.asarray(model.train_loss_history)
        assert len(history) == 41  # base + one per stage
        assert np.all(np.diff(history) <= 1e-12)

    def test_single_stage_newton_leaf(self):
        # One root-level stump on two clusters: leaf = sum(residual)/(sum(hessian)+eps)
        X = np.array([[0.0], [0.0], [10.0], [10.0]])
        y = np.array([0, 0, 1, 1])
        model = GradientBoostingModel(n_estimators=1, learning_rate=1.0, max_depth=1, seed=0).fit(X, y)
        # base p = 0.5 -> residuals ±0.5, hessians 0.25: leaf = ±(1.0 / 0.5)
        raw = model.decision_function(np.array([[0.0], [10.0]]))
        assert raw[0] == pytest.approx(-2.0, abs=1e-9)
        assert raw[1] == pytest.approx(2.0, abs=1e-9)

    def test_improves_over_stages(self):
        X, y = noisy(n=150)
        few = GradientBoostingModel(n_estimators=2, learning_rate=0.1, seed=0).fit(X, y)
        many = GradientBoostingModel(n_estimators=60, learning_rate=0.1, seed=0).fit(X, y)
        assert many.train_loss_history[-1] < few.train_loss_history[-1]

    def test_logistic_loss_oracle(self):
        raw = np.array([0.0, 100.0, -100.0])
        y = np.array([1, 1, 0])
        assert logistic_loss(raw, y) == pytest.approx(math.log(2.0) / 3, rel=1e-9)

    def test_deterministic(self):
        X, y = noisy(n=100)
        a = GradientBoostingModel(n_estimators=10, max_features=0.4, seed=5).fit(X, y)
        b = GradientBoostingModel(n_estimators=10, max_features=0.4, seed=5).fit(X, y)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))


class TestRandomForest:
    def test_deterministic(self):
        X, y = noisy(n=120)
        a = RandomForestModel(n_estimators=12, seed=9).fit(X, y).predict_proba(X)
        b = RandomForestModel(n_estimators=12, seed=9).fit(X, y).predict_proba(X)
        assert np.array_equal(a, b)

    def test_no_bootstrap_full_features_gives_identical_trees(self):
        X, y = noisy(n=80)
        model = RandomForestModel(
            n_estimators=5, bootstrap=False, max_features=None, max_depth=None, seed=0
        ).fit(X, y)
        first = tree_predict(model.trees[0], X)
        for tree in model.trees[1:]:
            for name in ("feature", "threshold", "left", "right", "value", "n"):
                assert np.array_equal(getattr(tree, name), getattr(model.trees[0], name))
            assert np.array_equal(tree_predict(tree, X), first)
        assert np.allclose(model.predict_proba(X), first, atol=1e-15)

    def test_probabilities_bounded(self):
        X, y = noisy(n=100)
        proba = RandomForestModel(n_estimators=15, max_depth=4, seed=1).fit(X, y).predict_proba(X)
        assert proba.min() >= 0.0 and proba.max() <= 1.0

    def test_fits_signal(self):
        X, y = separable(n=120)
        proba = RandomForestModel(n_estimators=20, seed=0).fit(X, y).predict_proba(X)
        assert np.mean((proba >= 0.5).astype(int) == y) >= 0.95

    def test_bootstrap_must_be_bool(self):
        with pytest.raises(InvalidHyperparameter):
            RandomForestModel(bootstrap="yes")


class TestMLP:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_gradient_matches_finite_differences(self, activation):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(10, 3))
        y = rng.integers(0, 2, 10).astype(np.float64)
        shapes = layer_shapes(3, (5, 4))
        flat = rng.normal(scale=0.5, size=sum(r * c for r, c in shapes) + sum(c for _, c in shapes))
        loss, grad = mlp_loss_and_grad(flat, shapes, X, y, alpha=0.01, activation=activation)
        eps = 1e-6
        rel_errors = []
        for j in rng.choice(flat.size, size=12, replace=False):
            bumped = flat.copy()
            bumped[j] += eps
            up, _ = mlp_loss_and_grad(bumped, shapes, X, y, 0.01, activation)
            bumped[j] -= 2 * eps
            down, _ = mlp_loss_and_grad(bumped, shapes, X, y, 0.01, activation)
            numeric = (up - down) / (2 * eps)
            rel_errors.append(abs(numeric - grad[j]) / max(1.0, abs(numeric)))
        assert max(rel_errors) <= 1e-4

    def test_pack_unpack_round_trip(self):
        shapes = layer_shapes(4, (3,))
        rng = np.random.default_rng(0)
        layers = [(rng.normal(size=s), rng.normal(size=s[1])) for s in shapes]
        rebuilt = unpack_params(pack_params(layers), shapes)
        for (w_in, b_in), (w_out, b_out) in zip(layers, rebuilt):
            assert np.array_equal(w_in, w_out)
            assert np.array_equal(b_in, b_out)

    def test_layer_shapes_end_in_single_output(self):
        assert layer_shapes(7, (5, 3)) == [(7, 5), (5, 3), (3, 1)]

    def test_fits_separable(self):
        # The net holds out 10% for early stopping, so give it enough rows
        # that the validation slice is informative; standardized inputs keep
        # adam in its comfortable range.
        X, y = separable(n=400, margin=2.0)
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        model = MLPModel(hidden_layer_sizes=(16,), max_iter=200, seed=0).fit(X, y)
        acc = np.mean((model.predict_proba(X) >= 0.5).astype(int) == y)
        assert acc >= 0.9

    def test_deterministic(self):
        X, y = noisy(n=80)
        a = MLPModel(hidden_layer_sizes=(8,), max_iter=30, seed=3).fit(X, y).predict_proba(X)
        b = MLPModel(hidden_layer_sizes=(8,), max_iter=30, seed=3).fit(X, y).predict_proba(X)
        assert np.array_equal(a, b)

    def test_sgd_solver_runs(self):
        X, y = separable(n=80)
        model = MLPModel(hidden_layer_sizes=(8,), solver="sgd", learning_rate="adaptive", max_iter=40, seed=0)
        proba = model.fit(X, y).predict_proba(X)
        assert np.all((proba >= 0) & (proba <= 1))

    def test_hidden_layer_sizes_accepts_lists(self):
        X, y = separable(n=60)
        model = MLPModel(hidden_layer_sizes=[8, 4], max_iter=20, seed=0).fit(X, y)
        assert model.predict_proba(X).shape == (60,)


# Each family's hyperparameter names, written out so that a change to a
# constructor's keywords (and so to the grid keys it accepts) shows here.
DECLARED_PARAMS = {
    "logreg": {"C", "solver", "class_weight", "max_iter"},
    "knn": {"n_neighbors", "metric", "algorithm", "weights"},
    "mlp": {"hidden_layer_sizes", "activation", "solver", "alpha", "learning_rate", "early_stopping", "max_iter"},
    "dtree": {"max_depth", "max_features", "criterion", "splitter"},
    "gboost": {"n_estimators", "learning_rate", "max_depth", "max_features"},
    "rforest": {"n_estimators", "max_depth", "max_features", "bootstrap", "criterion", "class_weight"},
}
ROUND_TRIP_SETTINGS = {
    "logreg": {"C": 0.5, "class_weight": {0: 1, 1: 2}},
    "knn": {"n_neighbors": 5, "weights": "distance"},
    "mlp": {"hidden_layer_sizes": (6,), "max_iter": 25},
    "dtree": {"max_depth": 4, "max_features": 0.5, "splitter": "random"},
    "gboost": {"n_estimators": 5, "max_features": "sqrt"},
    "rforest": {"n_estimators": 4, "class_weight": {0: 1, 1: 2}},
}


@pytest.mark.parametrize("family", list(FAMILY_CLASSES))
def test_family_is_declared_by_its_constructor(family):
    cls = FAMILY_CLASSES[family]
    assert cls.family == family
    keywords = [name for name in inspect.signature(cls.__init__).parameters if name not in ("self", "seed")]
    assert list(cls.PARAMS) == keywords
    assert set(cls.PARAMS) == DECLARED_PARAMS[family]

    X, y = noisy(n=80)
    model = cls(**ROUND_TRIP_SETTINGS[family], seed=3).fit(X, y)
    assert set(model.get_params()) == set(cls.PARAMS)
    saved = json.dumps(model.to_dict(), sort_keys=True)
    clone = cls.from_dict(json.loads(saved), n_features=X.shape[1])
    assert json.dumps(clone.to_dict(), sort_keys=True) == saved
    Q = X + 0.1
    assert np.array_equal(clone.predict_proba(Q), model.predict_proba(Q))


class TestVoting:
    def test_exact_mean(self):
        class Fixed:
            def __init__(self, value):
                self.value = value

            def predict_proba(self, X):
                return np.full(X.shape[0], self.value)

        model = VotingModel(families=("a", "b"), members=(Fixed(0.2), Fixed(0.6)))
        assert np.allclose(model.predict_proba(np.zeros((3, 1))), 0.4)

    def test_requires_two_members(self):
        with pytest.raises(ValueError):
            VotingModel(families=("a",), members=(object(),))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_mean_stays_in_range(self, seed):
        X, y = noisy(n=40, seed=seed % 1000)
        lr = LogisticRegressionModel(seed=0).fit(X, y)
        tree = DecisionTreeModel(max_depth=3, seed=0).fit(X, y)
        proba = VotingModel(families=("logreg", "dtree"), members=(lr, tree)).predict_proba(X)
        assert np.all((proba >= 0.0) & (proba <= 1.0))


# ---------------------------------------------------------------------------
# Array trees against the node-object grower and recursive router they
# replaced, kept here verbatim as the reference.
# ---------------------------------------------------------------------------


class RefNode:
    def __init__(self, value, n_samples):
        self.value = value
        self.n_samples = n_samples
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None

    @property
    def is_leaf(self):
        return self.left is None


def reference_grow_tree(X, targets, sample_weight=None, *, criterion="gini", splitter="best", max_depth=None,
                        max_features=None, rng=None, leaf_value=None, min_samples_split=2):
    X = np.asarray(X, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if sample_weight is None:
        sample_weight = np.ones(X.shape[0])
    if leaf_value is None:
        leaf_value = lambda idx: float(np.sum(sample_weight[idx] * targets[idx]) / np.sum(sample_weight[idx]))  # noqa: E731
    max_feats = resolve_max_features(max_features, X.shape[1])
    rng = rng if rng is not None else np.random.default_rng(0)
    impurity = _impurity(criterion)

    def grow(idx, depth):
        node = RefNode(float(leaf_value(idx)), int(idx.size))
        t = targets[idx]
        if idx.size < min_samples_split or (max_depth is not None and depth >= max_depth) or np.all(t == t[0]):
            return node
        n_features = X.shape[1]
        feats = rng.choice(n_features, size=max_feats, replace=False) if max_feats < n_features else np.arange(n_features)
        w = sample_weight[idx]
        best = None
        for f in feats:
            v = X[idx, f]
            found = _best_split(v, t, w, impurity) if splitter == "best" else _random_split(v, t, w, impurity, rng)
            if found is not None and (best is None or found[1] < best[2]):
                best = (int(f), found[0], found[1])
        if best is None:
            return node
        node.feature, node.threshold = best[0], best[1]
        mask = X[idx, node.feature] <= node.threshold
        node.left = grow(idx[mask], depth + 1)
        node.right = grow(idx[~mask], depth + 1)
        return node

    return grow(np.arange(X.shape[0]), 0)


def reference_tree_predict(node, X):
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0])

    def route(node, idx):
        if idx.size == 0:
            return
        if node.is_leaf:
            out[idx] = node.value
            return
        mask = X[idx, node.feature] <= node.threshold
        route(node.left, idx[mask])
        route(node.right, idx[~mask])

    route(node, np.arange(X.shape[0]))
    return out


def reference_preorder(root):
    """The reference tree's nodes as the six pre-order arrays."""
    arrays = {name: [] for name in ("feature", "threshold", "left", "right", "value", "n")}
    stack = [(root, None, None)]
    while stack:
        node, parent, side = stack.pop()
        index = len(arrays["value"])
        if parent is not None:
            arrays[side][parent] = index
        arrays["feature"].append(node.feature)
        arrays["threshold"].append(node.threshold)
        arrays["left"].append(-1)
        arrays["right"].append(-1)
        arrays["value"].append(node.value)
        arrays["n"].append(node.n_samples)
        if not node.is_leaf:
            stack.append((node.right, index, "right"))
            stack.append((node.left, index, "left"))
    return arrays


def reference_engine(*modules):
    """Patch the node-object grower and router into the given model modules."""
    stack = contextlib.ExitStack()
    for module in modules:
        stack.enter_context(mock.patch.object(module, "grow_tree", reference_grow_tree))
        stack.enter_context(mock.patch.object(module, "tree_predict", reference_tree_predict))
    return stack


@st.composite
def tree_problems(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    cell = st.integers(0, 3).map(float) if draw(st.booleans()) else st.floats(-5, 5, allow_nan=False)
    X = np.array(draw(st.lists(cell, min_size=n * d, max_size=n * d))).reshape(n, d)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[:2] = [0, 1]  # both classes, for the ensembles
    params = {
        "max_depth": draw(st.sampled_from([None, 1, 2, 3])),
        "max_features": draw(st.sampled_from([None, "sqrt", "log2", 0.5, 1.0, 1, 2])),
        "seed": draw(st.integers(0, 1000)),
    }
    return X, y, params, draw(st.sampled_from(["gini", "entropy"])), draw(st.sampled_from(["best", "random"]))


def queries(X):
    """Training rows, a NaN row (it must go right), and rows on the midpoints
    of integer data, in batches on both scoring paths."""
    odd = np.full((1, X.shape[1]), np.nan)
    return [X, X[:1], odd, (X + 0.5)[:4], np.vstack([X, X, odd, X + 0.5])]


class TestArrayTreesMatchReference:
    @settings(max_examples=60, deadline=None)
    @given(tree_problems(), st.sampled_from(["gini", "entropy", "mse"]), st.booleans())
    def test_grow_tree_arrays(self, problem, criterion, weighted):
        X, y, params, _, splitter = problem
        targets = y + X[:, 0] * 0.25 if criterion == "mse" else y.astype(np.float64)
        weights = np.where(y == 1, 2.5, 1.0) if weighted else np.ones(len(y))
        leaf = None if criterion == "mse" else laplace_leaf(targets, weights)
        kwargs = dict(criterion=criterion, splitter=splitter, max_depth=params["max_depth"],
                      max_features=params["max_features"], leaf_value=leaf)
        tree = grow_tree(X, targets, weights, rng=np.random.default_rng(params["seed"]), **kwargs)
        root = reference_grow_tree(X, targets, weights, rng=np.random.default_rng(params["seed"]), **kwargs)
        for name, values in reference_preorder(root).items():
            assert np.array_equal(getattr(tree, name), np.array(values)), name
        for Q in queries(X):
            assert np.array_equal(tree_predict(tree, Q), reference_tree_predict(root, Q))

    @settings(max_examples=40, deadline=None)
    @given(tree_problems())
    def test_model_probabilities(self, problem):
        from ragate.tabular import boosting, forest, trees

        X, y, params, criterion, splitter = problem
        depth, feats, seed = params["max_depth"], params["max_features"], params["seed"]
        models = [
            lambda: DecisionTreeModel(depth, feats, criterion, splitter, seed=seed),
            lambda: GradientBoostingModel(3, 0.3, depth, feats, seed=seed),
            lambda: RandomForestModel(3, depth, feats, bool(seed % 2), criterion, "balanced" if seed % 3 else None, seed=seed),
        ]
        for make in models:
            model = make().fit(X, y)
            with reference_engine(trees, boosting, forest):
                reference = make().fit(X, y)
                expected = [reference.predict_proba(Q) for Q in queries(X)]
            for Q, want in zip(queries(X), expected):
                assert np.array_equal(model.predict_proba(Q), want), model.family
            if model.family == "gboost":
                assert model.train_loss_history == reference.train_loss_history


class TestDeepTrees:
    @pytest.mark.parametrize("n", [1200, 5000])
    def test_staircase_fits_scores_and_round_trips(self, tmp_path, n):
        from ragate.tabular import GateModel, fit_scaler, load_gate, save_gate

        X = np.arange(float(n))[:, None]
        y = np.arange(n) % 2
        model = DecisionTreeModel(max_depth=None, seed=0).fit(X, y)
        assert model.tree.depth > sys.getrecursionlimit()
        proba = model.predict_proba(X)
        assert np.array_equal(proba >= 0.5, y == 1)
        gate = GateModel(("x",), ("g",), fit_scaler(X), VotingModel(("dtree", "dtree"), (model, model)))
        save_gate(gate, tmp_path / "model.json")
        loaded = load_gate(tmp_path / "model.json")
        assert np.array_equal(loaded.predict_proba(X), gate.predict_proba(X))
        for row in (0, n // 2, n - 1):
            assert loaded.predict_proba(X[row : row + 1])[0] == gate.predict_proba(X)[row]


# ---------------------------------------------------------------------------
# Fit keys: settings that grid search fits once give bit-identical models
# ---------------------------------------------------------------------------


def fit_key(family, params):
    cls = FAMILY_CLASSES[family]
    return cls.fit_key(cls(**params).get_params())


SMALL_MLP = {"hidden_layer_sizes": (6,), "max_iter": 15}

# (family, setting, seed, other setting, other seed) that share one fit key
MERGED = {
    "logreg-solver": ("logreg", {"C": 0.1, "solver": "lbfgs"}, 0, {"C": 0.1, "solver": "liblinear"}, 0),
    "logreg-seed": ("logreg", {"C": 0.1, "class_weight": "balanced"}, 0, {"C": 0.1, "class_weight": "balanced"}, 1),
    "logreg-unit-weights": ("logreg", {"class_weight": {0: 1, 1: 1}}, 0, {"class_weight": None}, 0),
    "knn-algorithm": ("knn", {"n_neighbors": 7, "algorithm": "auto"}, 0, {"n_neighbors": 7, "algorithm": "kd_tree"}, 0),
    "knn-seed": ("knn", {"weights": "distance", "metric": "manhattan"}, 0, {"weights": "distance", "metric": "manhattan"}, 2),
    "dtree-seed": ("dtree", {"max_depth": 4}, 0, {"max_depth": 4, "splitter": "best", "max_features": None}, 1),
    "gboost-seed": ("gboost", {"n_estimators": 6, "max_features": None}, 0, {"n_estimators": 6}, 1),
    "rforest-unit-weights": ("rforest", {"n_estimators": 5, "class_weight": {0: 1.0, 1: 1}}, 3, {"n_estimators": 5}, 3),
    "mlp-adam-schedule": ("mlp", {**SMALL_MLP, "learning_rate": "constant"}, 0, {**SMALL_MLP, "learning_rate": "adaptive"}, 0),
}

# (family, setting): the seed reaches the fit, so each seed keeps its own fit
SEEDED = {
    "dtree-sqrt": ("dtree", {"max_depth": None, "max_features": "sqrt"}),
    "dtree-random": ("dtree", {"max_depth": 4, "splitter": "random"}),
    "gboost-sqrt": ("gboost", {"n_estimators": 6, "max_features": "sqrt"}),
    "rforest": ("rforest", {"n_estimators": 5, "max_features": None, "bootstrap": True}),
    "mlp": ("mlp", SMALL_MLP),
}


@pytest.mark.parametrize("case", list(MERGED))
def test_settings_with_one_fit_key_fit_the_same_model(case):
    family, a, seed_a, b, seed_b = MERGED[case]
    key_a, seeded = fit_key(family, a)
    assert fit_key(family, b) == (key_a, seeded)
    assert seed_a == seed_b or not seeded
    X, y = noisy(n=120, d=5)
    Q = np.vstack([X, X + 0.1])
    proba_a = FAMILY_CLASSES[family](**a, seed=seed_a).fit(X, y).predict_proba(Q)
    assert np.array_equal(FAMILY_CLASSES[family](**b, seed=seed_b).fit(X, y).predict_proba(Q), proba_a)


@pytest.mark.parametrize("case", list(SEEDED))
def test_seeded_settings_keep_seeds_apart(case):
    family, params = SEEDED[case]
    assert fit_key(family, params)[1]
    X, y = noisy(n=120, d=5)
    Q = np.vstack([X, X + 0.1])
    proba = [FAMILY_CLASSES[family](**params, seed=seed).fit(X, y).predict_proba(Q) for seed in (0, 1)]
    assert not np.array_equal(*proba)


@pytest.mark.parametrize(
    "family, a, b",
    [
        ("logreg", {"class_weight": {0: 1, 1: 2}}, {"class_weight": None}),
        ("rforest", {"class_weight": "balanced"}, {"class_weight": None}),
        ("mlp", {"solver": "sgd", "learning_rate": "constant"}, {"solver": "sgd", "learning_rate": "adaptive"}),
        ("knn", {"metric": "euclidean"}, {"metric": "manhattan"}),
        ("dtree", {"splitter": "best"}, {"splitter": "random"}),
    ],
)
def test_fit_key_keeps_read_params_apart(family, a, b):
    assert fit_key(family, a)[0] != fit_key(family, b)[0]


@pytest.mark.parametrize("family", ["dtree", "gboost", "rforest"])
def test_max_depth_is_checked_at_construction(family):
    with pytest.raises(InvalidHyperparameter, match=r"max_depth must be >= 1 or None, got 0"):
        FAMILY_CLASSES[family](max_depth=0)


def test_fit_key_resolves_defaults_and_drops_unread_params():
    assert fit_key("dtree", {"max_depth": 3}) == fit_key("dtree", {"max_depth": 3, "splitter": "best"})
    assert "solver" not in fit_key("logreg", {})[0]
    assert "algorithm" not in fit_key("knn", {})[0]
    assert "learning_rate" not in fit_key("mlp", {"solver": "adam"})[0]
    assert "learning_rate" in fit_key("mlp", {"solver": "sgd"})[0]


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(["gboost", "rforest"]),
    n=st.integers(1, 8),
    data=st.data(),
    max_features=st.sampled_from([None, "sqrt", 0.5]),
    max_depth=st.sampled_from([1, 2, 4]),
    seed=st.integers(0, 1000),
)
def test_truncated_view_is_a_smaller_fit(family, n, data, max_features, max_depth, seed):
    k = data.draw(st.integers(1, n))
    X, y = noisy(n=60, seed=seed)
    cls = FAMILY_CLASSES[family]
    params = {"max_depth": max_depth, "max_features": max_features}
    full = cls(n_estimators=n, **params, seed=seed).fit(X, y)
    small = cls(n_estimators=k, **params, seed=seed).fit(X, y)
    view = full.truncated(k)
    Q = np.vstack([X, X + 0.1])
    assert np.array_equal(view.predict_proba(Q), small.predict_proba(Q))
    assert json.dumps(view.to_dict(), sort_keys=True) == json.dumps(small.to_dict(), sort_keys=True)
    assert len(full.trees) == n
