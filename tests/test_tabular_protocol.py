"""Selection protocol: grids, grid search, family ranking, gate artifacts."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import outcome_record
from ragate.tabular.base import DegenerateData, EmptyGrid, InvalidHyperparameter, TabularDataset
from ragate.tabular.grids import (
    FAMILY_CLASSES,
    FAMILY_ORDER,
    canonical_key,
    expand_grid,
    expanded_family_grids,
    load_grids,
    load_raw_grids,
    validate_grids,
)
from ragate.tabular.protocol import (
    EvalSplit,
    end_to_end_train,
    fit_plan,
    gate_from_dict,
    gate_to_dict,
    grid_search,
    load_gate,
    save_gate,
    selection_in_accuracy,
    train,
)
from ragate.tabular.scaler import transform


def planted_dataset(n, d=6, seed=0):
    """Linearly separable labels from the first column, with aligned records.

    Rows with y=1 only answer correctly after retrieval; rows with y=0 only
    answer correctly without it, so validation InAcc rewards matching y.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] > 0.0).astype(int)
    records = [outcome_record(i, correct_without=yi == 0, correct_with=yi == 1) for i, yi in enumerate(y)]
    names = tuple(f"f{j}" for j in range(d))
    return TabularDataset(X, y, names), records


SMALL_GRIDS = {
    "logreg": [{"C": 1.0, "max_iter": 300}],
    "dtree": [{"max_depth": 3}],
}


# ---------------------------------------------------------------------------
# train() and the validation split
# ---------------------------------------------------------------------------


class TestTrain:
    def test_unknown_param_rejected(self):
        data, _ = planted_dataset(40)
        with pytest.raises(InvalidHyperparameter, match="bogus"):
            train("logreg", {"C": 1.0, "bogus": 3}, 0, data)

    def test_unknown_family_rejected(self):
        data, _ = planted_dataset(40)
        with pytest.raises(InvalidHyperparameter, match="svm"):
            train("svm", {}, 0, data)

    def test_returns_fitted_model(self):
        data, _ = planted_dataset(60)
        model = train("dtree", {"max_depth": 2}, 0, data)
        proba = model.predict_proba(data.X)
        assert proba.shape == (60,)

    def test_seed_reaches_model(self):
        data, _ = planted_dataset(60)
        a = train("rforest", {"n_estimators": 5}, 1, data)
        b = train("rforest", {"n_estimators": 5}, 1, data)
        assert np.array_equal(a.predict_proba(data.X), b.predict_proba(data.X))


class TestEvalSplit:
    def test_correctness_flags(self):
        data, _ = planted_dataset(4)
        records = [
            outcome_record(0, correct_without=True, correct_with=True),
            outcome_record(1, correct_without=False, correct_with=True),
            outcome_record(2, correct_without=True, correct_with=False),
            outcome_record(3, correct_without=False, correct_with=False),
        ]
        split = EvalSplit.from_records(data, records)
        assert split.correct_without.tolist() == [True, False, True, False]
        assert split.correct_with.tolist() == [True, True, False, False]

    def test_length_mismatch(self):
        data, records = planted_dataset(10)
        with pytest.raises(ValueError, match="9 records"):
            EvalSplit.from_records(data, records[:9])


class TestSelectionInAccuracy:
    def test_hand_oracle(self):
        data, _ = planted_dataset(4)
        split = EvalSplit(
            data=data,
            correct_without=np.array([False, True, True, False]),
            correct_with=np.array([True, True, False, True]),
        )
        proba = np.array([0.9, 0.2, 0.5, 0.4])
        # decisions [T, F, T, F] -> outcomes [cw0, cwo1, cw2, cwo3] = [1,1,0,0]
        assert selection_in_accuracy(proba, split) == pytest.approx(0.5)

    def test_threshold_edge_retrieves(self):
        data, _ = planted_dataset(1)
        split = EvalSplit(
            data=data,
            correct_without=np.array([True]),
            correct_with=np.array([False]),
        )
        assert selection_in_accuracy(np.array([0.5]), split) == 0.0
        assert selection_in_accuracy(np.array([0.49999]), split) == 1.0

    def test_custom_threshold(self):
        data, _ = planted_dataset(2)
        split = EvalSplit(
            data=data,
            correct_without=np.array([False, False]),
            correct_with=np.array([True, True]),
        )
        assert selection_in_accuracy(np.array([0.3, 0.1]), split, threshold=0.2) == 0.5


# ---------------------------------------------------------------------------
# Grid expansion and the bundled search spaces
# ---------------------------------------------------------------------------


class TestExpandGrid:
    def test_declared_order_product(self):
        assert expand_grid({"a": [1, 2], "b": [3, 4]}) == [
            {"a": 1, "b": 3},
            {"a": 1, "b": 4},
            {"a": 2, "b": 3},
            {"a": 2, "b": 4},
        ]

    def test_scalars_are_fixed(self):
        points = expand_grid({"a": [1, 2], "c": 5})
        assert points == [{"a": 1, "c": 5}, {"a": 2, "c": 5}]

    def test_single_point(self):
        assert expand_grid({"a": 1}) == [{"a": 1}]


class TestValidateGrids:
    def test_unknown_family(self):
        with pytest.raises(InvalidHyperparameter, match="svm"):
            validate_grids({"svm": {"C": [1]}})

    def test_unknown_param(self):
        with pytest.raises(InvalidHyperparameter, match="gamma"):
            validate_grids({"logreg": {"gamma": [1]}})

    def test_empty_value_list(self):
        with pytest.raises(InvalidHyperparameter, match="logreg.C"):
            validate_grids({"logreg": {"C": []}})

    def test_non_mapping_grid(self):
        with pytest.raises(InvalidHyperparameter):
            validate_grids({"logreg": [1, 2]})


class TestCatboostFold:
    def test_param_map_and_default_features(self):
        raw = {"catboost": {"iterations": [10], "learning_rate": [0.01], "depth": [3]}}
        out = expanded_family_grids(raw)
        assert out == {
            "gboost": [
                {"n_estimators": 10, "learning_rate": 0.01, "max_depth": 3, "max_features": None}
            ]
        }

    def test_duplicates_keep_first_occurrence(self):
        shared = {"n_estimators": [10], "learning_rate": [0.01], "max_depth": [3], "max_features": [None]}
        raw = {
            "gboost": shared,
            "catboost": {"iterations": [10, 20], "learning_rate": [0.01], "depth": [3]},
        }
        out = expanded_family_grids(raw)
        keys = [canonical_key(p) for p in out["gboost"]]
        assert len(keys) == len(set(keys)) == 2
        assert out["gboost"][0] == {
            "n_estimators": 10,
            "learning_rate": 0.01,
            "max_depth": 3,
            "max_features": None,
        }
        assert out["gboost"][1]["n_estimators"] == 20

    def test_families_follow_fixed_order(self):
        raw = {
            "rforest": {"n_estimators": [5]},
            "logreg": {"C": [1]},
            "knn": {"n_neighbors": [3]},
        }
        assert list(expanded_family_grids(raw)) == ["logreg", "knn", "rforest"]


class TestDefaultGrids:
    def test_bundled_file_values(self):
        raw = load_raw_grids()
        assert raw["logreg"] == {
            "C": [0.01, 0.1, 1],
            "solver": ["lbfgs", "liblinear"],
            "class_weight": ["balanced", {0: 1, 1: 1}, None],
            "max_iter": [10000, 15000, 20000],
        }
        assert raw["knn"] == {
            "n_neighbors": [5, 7, 9, 11, 13, 15],
            "metric": ["euclidean", "manhattan"],
            "algorithm": ["auto", "ball_tree", "kd_tree"],
            "weights": ["uniform", "distance"],
        }
        assert raw["mlp"] == {
            "hidden_layer_sizes": [[50], [100], [50, 50], [100, 50], [100, 100]],
            "activation": ["relu", "tanh"],
            "solver": ["adam", "sgd"],
            "alpha": [0.00001, 0.0001, 0.001, 0.01],
            "learning_rate": ["constant", "adaptive"],
            "early_stopping": True,
            "max_iter": [200, 500],
        }
        assert raw["dtree"] == {
            "max_depth": [3, 5, 7, 10, None],
            "max_features": [0.2, 0.4, "sqrt", "log2", None],
            "criterion": ["gini", "entropy"],
            "splitter": ["best", "random"],
        }
        assert raw["catboost"] == {
            "iterations": [10, 50, 100, 200],
            "learning_rate": [0.001, 0.01, 0.05],
            "depth": [3, 4, 5, 7, 9],
        }
        assert raw["gboost"] == {
            "n_estimators": [25, 35, 50],
            "learning_rate": [0.001, 0.01, 0.05],
            "max_depth": [3, 4, 5, 7, 9],
            "max_features": [0.2, 0.4, "sqrt", "log2", None],
        }
        assert raw["rforest"] == {
            "n_estimators": [25, 35, 50],
            "max_depth": [3, 5, 7, 9, 11],
            "max_features": [0.2, 0.4, "sqrt", "log2", None],
            "bootstrap": [True, False],
            "criterion": ["gini", "entropy"],
            "class_weight": ["balanced", {0: 1, 1: 1}, None],
        }

    def test_expanded_point_counts(self):
        grids = load_grids()
        assert len(grids["logreg"]) == 3 * 2 * 3 * 3
        assert len(grids["knn"]) == 6 * 2 * 3 * 2
        assert len(grids["mlp"]) == 5 * 2 * 2 * 4 * 2 * 2
        assert len(grids["dtree"]) == 5 * 5 * 2 * 2
        # gboost natively 3*3*5*5; catboost folds in 4*3*5 points of which
        # the n_estimators=50, max_features=None slice (1*3*5) already exists.
        assert len(grids["gboost"]) == 225 + 60 - 15
        assert len(grids["rforest"]) == 3 * 5 * 5 * 2 * 2 * 3

    def test_every_point_names_known_params(self):
        for family, points in load_grids().items():
            allowed = set(FAMILY_CLASSES[family].PARAMS)
            for point in points:
                assert set(point) <= allowed
                FAMILY_CLASSES[family](**point, seed=0)


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------


class TestGridSearch:
    def _split(self, n=30, tie=False, seed=0):
        data, records = planted_dataset(n, seed=seed)
        if tie:
            # identical outcomes either way -> every setting scores the same
            records = [outcome_record(i, correct_without=True, correct_with=True) for i in range(n)]
        return data, EvalSplit.from_records(data, records)

    def test_empty_grid_rejected(self):
        data, split = self._split()
        with pytest.raises(EmptyGrid):
            grid_search("logreg", [], data, split, seeds=(0, 1, 2))

    def test_history_covers_all_points(self):
        data, split = self._split(n=60)
        points = [{"max_depth": 1}, {"max_depth": 3}]
        result = grid_search("dtree", points, data, split, seeds=(0, 1, 2))
        assert [h["params"] for h in result.history] == points
        assert all(0.0 <= h["score"] <= 1.0 for h in result.history)
        assert result.best_score == max(h["score"] for h in result.history)

    def test_exact_tie_resolves_by_canonical_key(self):
        data, split = self._split(n=40, tie=True)
        points = [{"max_depth": 7}, {"max_depth": 3}, {"max_depth": 5}]
        result = grid_search("dtree", points, data, split, seeds=(0, 1, 2))
        assert result.best_score == 1.0
        keys = sorted(canonical_key(p) for p in points)
        assert canonical_key(result.best_params) == keys[0]
        assert result.best_params == {"max_depth": 3}

    def test_score_is_mean_over_seeds(self):
        data, split = self._split(n=80, seed=3)
        point = {"n_estimators": 5, "max_features": 0.5}
        result = grid_search("rforest", [point], data.__class__(data.X, data.y, data.feature_names), split, seeds=(0, 1, 2))
        singles = []
        for seed in (0, 1, 2):
            model = train("rforest", point, seed, data)
            singles.append(selection_in_accuracy(model.predict_proba(split.data.X), split))
        assert result.best_score == pytest.approx(np.mean(singles), abs=1e-12)


def grid_search_reference(family, grid_points, train_data, val, seeds):
    """The search that fits every setting with every seed, as it ran before
    settings shared fits: (best_params, best_score, history)."""
    best = None
    history = []
    for params in grid_points:
        scores = []
        for seed in seeds:
            model = train(family, params, int(seed), train_data)
            scores.append(selection_in_accuracy(model.predict_proba(val.data.X), val))
        mean_score = float(np.mean(scores))
        key = canonical_key(params)
        history.append({"params": params, "score": mean_score})
        if best is None or mean_score > best[0] or (mean_score == best[0] and key < best[1]):
            best = (mean_score, key, params)
    return best[2], best[0], history


# Explicit defaults beside omitted ones, unread params, unit class weights,
# seedless and seeded settings, and n_estimators prefixes out of order.
MIXED_GRIDS = {
    "logreg": [
        {"C": 0.5},
        {"C": 0.5, "solver": "liblinear", "max_iter": 10000},
        {"C": 0.5, "class_weight": {0: 1, 1: 1}},
        {"C": 0.05, "class_weight": "balanced", "max_iter": 40},
    ],
    "knn": [
        {"n_neighbors": 3},
        {"n_neighbors": 3, "algorithm": "kd_tree"},
        {"n_neighbors": 5, "weights": "distance", "algorithm": "brute"},
        {"n_neighbors": 5, "weights": "distance"},
    ],
    "mlp": [
        {"hidden_layer_sizes": [8], "max_iter": 15},
        {"hidden_layer_sizes": [8], "max_iter": 15, "learning_rate": "adaptive"},
        {"hidden_layer_sizes": [8], "max_iter": 15, "solver": "sgd", "learning_rate": "adaptive"},
    ],
    "dtree": [
        {"max_depth": 3},
        {"max_depth": 3, "splitter": "best", "max_features": None},
        {"max_depth": 3, "max_features": "sqrt"},
        {"max_depth": 2, "splitter": "random"},
    ],
    "gboost": [
        {"n_estimators": 4},
        {"n_estimators": 8, "max_features": None},
        {"n_estimators": 6, "max_features": "sqrt"},
        {"n_estimators": 2, "max_features": "sqrt"},
        {"n_estimators": 4, "learning_rate": 0.1},
    ],
    "rforest": [
        {"n_estimators": 3},
        {"n_estimators": 7, "class_weight": {0: 1, 1: 1}},
        {"n_estimators": 5, "max_depth": 3},
        {"n_estimators": 3, "class_weight": "balanced"},
    ],
}


class TestSharedFits:
    def _split(self):
        data, _ = planted_dataset(90, seed=5)
        # outcomes from noisy labels, so that settings score apart
        noisy = data.y ^ (np.random.default_rng(5).random(90) < 0.2)
        records = [outcome_record(i, correct_without=yi == 0, correct_with=yi == 1) for i, yi in enumerate(noisy)]
        return data.rows(np.arange(60)), EvalSplit.from_records(data.rows(np.arange(60, 90)), records[60:])

    @pytest.mark.parametrize("family", list(SMALL_GRIDS) + list(MIXED_GRIDS))
    def test_matches_fitting_every_setting_with_every_seed(self, family):
        points = MIXED_GRIDS[family] if family in MIXED_GRIDS else SMALL_GRIDS[family]
        train_data, val = self._split()
        result = grid_search(family, points, train_data, val, seeds=(4, 5, 6))
        best_params, best_score, history = grid_search_reference(family, points, train_data, val, (4, 5, 6))
        assert result.history == history
        assert result.best_params == best_params
        assert result.best_score == best_score
        assert result.timing["declared_fits"] == 3 * len(points)

    def test_seedless_score_is_still_a_mean_of_three(self):
        # InAcc is 7/10 whatever the gate decides, and the mean of three 0.7s is not 0.7
        data, _ = planted_dataset(10, seed=1)
        records = [outcome_record(i, correct_without=i < 7, correct_with=i < 7) for i in range(10)]
        result = grid_search("logreg", [{"C": 1.0}], data, EvalSplit.from_records(data, records), seeds=(0, 1, 2))
        assert result.timing["fits"] == 1
        assert result.best_score == float(np.mean([0.7] * 3)) != 0.7

    def test_default_grid_fit_plan(self):
        fits = {family: sum(3 if seeded else 1 for _, seeded, _ in fit_plan(family, points))
                for family, points in load_grids().items()}
        assert fits == {"logreg": 18, "knn": 24, "mlp": 720, "dtree": 280, "gboost": 195, "rforest": 600}

    def test_plan_fits_the_largest_count(self):
        plan = fit_plan("gboost", MIXED_GRIDS["gboost"])
        assert [(params["n_estimators"], seeded, by_count) for params, seeded, by_count in plan] == [
            (8, False, {4: [0], 8: [1]}),
            (6, True, {6: [2], 2: [3]}),
            (4, False, {4: [4]}),
        ]

    def test_every_point_is_checked_before_any_fit(self, monkeypatch):
        monkeypatch.setattr("ragate.tabular.protocol.train", lambda *a: pytest.fail("fit before validation"))
        train_data, val = self._split()
        with pytest.raises(InvalidHyperparameter, match="rforest setting"):
            grid_search("rforest", [{"n_estimators": 3}, {"n_estimators": "x"}], train_data, val, seeds=(0, 1, 2))


def test_canonical_key_is_total_and_order_free():
    assert canonical_key({"b": 1, "a": 2}) == canonical_key({"a": 2, "b": 1})
    assert canonical_key({"a": 1}) != canonical_key({"a": 2})
    assert canonical_key({"x": None}) == json.dumps({"x": None}, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# End-to-end training
# ---------------------------------------------------------------------------


class TestEndToEndTrain:
    def _world(self, n=160, seed=11):
        return planted_dataset(n, seed=seed)

    def test_needs_enough_rows(self):
        data, records = self._world(n=119)
        with pytest.raises(DegenerateData, match="120"):
            end_to_end_train(data, records, SMALL_GRIDS, master_seed=0)

    @pytest.mark.parametrize("val_size", [0, -5])
    def test_needs_a_validation_row(self, val_size):
        data, records = self._world()
        with pytest.raises(DegenerateData, match=f"val_size must be >= 1, got {val_size}"):
            end_to_end_train(data, records, SMALL_GRIDS, master_seed=0, val_size=val_size)

    def test_needs_two_families(self):
        data, records = self._world()
        with pytest.raises(DegenerateData, match="2 families"):
            end_to_end_train(data, records, {"logreg": [{"C": 1.0}]}, master_seed=0)

    def test_record_alignment_checked(self):
        data, records = self._world()
        with pytest.raises(ValueError):
            end_to_end_train(data, records[:-1], SMALL_GRIDS, master_seed=0)

    def test_group_length_checked(self):
        data, records = self._world()
        with pytest.raises(ValueError, match="feature_groups"):
            end_to_end_train(data, records, SMALL_GRIDS, master_seed=0, feature_groups=("g",))

    def test_scaler_fit_on_training_portion_only(self):
        data, records = self._world()
        gate = end_to_end_train(data, records, SMALL_GRIDS, master_seed=5)
        perm = np.random.default_rng(5).permutation(data.n)
        train_rows = data.X[perm[100:]]
        assert np.array_equal(gate.scaler.mean, train_rows.mean(axis=0))
        assert np.array_equal(gate.scaler.std, train_rows.std(axis=0))

    def test_provenance_structure(self):
        data, records = self._world()
        gate = end_to_end_train(data, records, SMALL_GRIDS, master_seed=5, val_size=100)
        prov = gate.provenance
        assert prov["master_seed"] == 5
        assert prov["seeds"] == [5, 6, 7]
        assert prov["val_size"] == 100
        assert len(prov["val_indices"]) == 100
        assert set(prov["families"]) == {"logreg", "dtree"}
        assert prov["selected"] == [r[0] for r in prov["ranking"][:2]]
        scores = [r[1] for r in prov["ranking"]]
        assert scores == sorted(scores, reverse=True)
        assert gate.feature_names == data.feature_names
        assert gate.feature_groups == ("feature",) * 6

    def test_two_member_soft_vote(self):
        data, records = self._world()
        gate = end_to_end_train(data, records, SMALL_GRIDS, master_seed=0)
        assert len(gate.voting.members) == 2
        a, b = gate.voting.members
        Xs = transform(gate.scaler, data.X)
        expect = (a.predict_proba(Xs) + b.predict_proba(Xs)) / 2.0
        assert np.array_equal(gate.predict_proba(data.X), expect)

    def test_learns_planted_rule(self):
        data, records = self._world(n=220, seed=2)
        gate = end_to_end_train(data, records, SMALL_GRIDS, master_seed=0)
        acc = np.mean((gate.predict_proba(data.X) >= 0.5).astype(int) == data.y)
        assert acc >= 0.9

    def test_same_seed_same_artifact(self, tmp_path):
        data, records = self._world()
        a = end_to_end_train(data, records, SMALL_GRIDS, master_seed=3)
        b = end_to_end_train(data, records, SMALL_GRIDS, master_seed=3)
        assert a.provenance == b.provenance
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_gate(a, pa)
        save_gate(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_family_tie_breaks_by_fixed_order(self):
        data, _ = self._world(n=140)
        # outcomes identical either way -> every family scores the same
        records = [outcome_record(i, correct_without=True, correct_with=True) for i in range(140)]
        grids = {
            "rforest": [{"n_estimators": 5}],
            "dtree": [{"max_depth": 3}],
            "logreg": [{"C": 1.0}],
        }
        gate = end_to_end_train(data, records, grids, master_seed=0)
        ordered = [f for f in FAMILY_ORDER if f in grids]
        assert gate.provenance["selected"] == ordered[:2] == ["logreg", "dtree"]


# ---------------------------------------------------------------------------
# Gate artifact I/O
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gate():
    data, records = planted_dataset(150, seed=4)
    return end_to_end_train(data, records, SMALL_GRIDS, master_seed=1), data


class TestGateArtifact:
    def test_round_trip_predict_parity(self, gate, tmp_path):
        model, data = gate
        path = tmp_path / "gate.json"
        save_gate(model, path)
        loaded = load_gate(path)
        assert loaded.feature_names == model.feature_names
        assert loaded.feature_groups == model.feature_groups
        assert loaded.provenance == model.provenance
        fresh = np.random.default_rng(9).normal(size=(25, 6))
        assert np.array_equal(loaded.predict_proba(fresh), model.predict_proba(fresh))

    def test_artifact_is_marked(self, gate):
        model, _ = gate
        payload = gate_to_dict(model)
        assert payload["kind"] == "retrieval-gate"
        assert [m["family"] for m in payload["members"]] == list(model.voting.families)

    def test_wrong_kind_rejected(self, gate):
        model, _ = gate
        payload = gate_to_dict(model)
        payload["kind"] = "something-else"
        with pytest.raises(ValueError, match="retrieval-gate"):
            gate_from_dict(payload)

    def test_unknown_family_rejected(self, gate):
        model, _ = gate
        payload = gate_to_dict(model)
        payload["members"][0]["family"] = "xgboost"
        with pytest.raises(ValueError, match="xgboost"):
            gate_from_dict(payload)

    def test_saved_bytes_are_stable(self, gate, tmp_path):
        model, _ = gate
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        save_gate(model, p1)
        save_gate(model, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")


def _family_gates():
    """Artifacts of small fitted gates that together hold all six families."""
    from ragate.tabular.protocol import GateModel
    from ragate.tabular.scaler import fit_scaler
    from ragate.tabular.voting import VotingModel

    data, _ = planted_dataset(40, d=3, seed=2)
    params = {"knn": {"n_neighbors": 3}, "mlp": {"hidden_layer_sizes": [4], "max_iter": 5},
              "gboost": {"n_estimators": 3}, "rforest": {"n_estimators": 3, "max_depth": 3}}
    gates = []
    for pair in (("logreg", "dtree"), ("knn", "mlp"), ("gboost", "rforest")):
        members = tuple(FAMILY_CLASSES[f](**params.get(f, {}), seed=0).fit(data.X, data.y) for f in pair)
        model = GateModel(data.feature_names, ("g",) * 3, fit_scaler(data.X), VotingModel(pair, members))
        gates.append(json.loads(json.dumps(gate_to_dict(model))))
    return gates


FAMILY_GATES = _family_gates()
GATE_KEYS = ["kind", "feature_names", "feature_groups", "scaler", "mean", "std", "members", "family", "state",
             "params", "seed", "tree", "trees", "feature", "threshold", "left", "right", "value", "n"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=10**308, max_value=10**320)
    | st.floats() | st.text(max_size=8) | st.sampled_from(GATE_KEYS),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(GATE_KEYS) | st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@st.composite
def damaged_gates(draw):
    """A valid artifact with one value somewhere inside replaced or removed."""
    gate = copy.deepcopy(draw(st.sampled_from(FAMILY_GATES)))
    node = gate
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.integers(0, 3)):
            node = child
            continue
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(JSON_VALUES)
        return gate


def _tree_state(gate):
    """The dtree member's tree arrays in a (logreg, dtree) artifact."""
    return gate["members"][1]["state"]["tree"]


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda g: g.update(members={"a": 1}), "'members' must be a list"),
        (lambda g: g.pop("scaler"), "lacks 'scaler'"),
        (lambda g: g["scaler"].pop("std"), "'mean' and 'std'"),
        (lambda g: g["scaler"]["std"].pop(), "equal length"),
        (lambda g: g["feature_groups"].pop(), "lengths disagree"),
        (lambda g: g["members"][0].update(state=[1]), "'state' must be a dict"),
        (lambda g: g["members"][0]["state"].pop("weights"), "invalid logreg member state: KeyError"),
        (lambda g: g["members"][0]["state"]["weights"].pop(), "logreg weights do not fit 3 features"),
        (lambda g: _tree_state(g)["n"].pop(), "equal length"),
        (lambda g: _tree_state(g)["left"].__setitem__(0, 0), "not after its parent"),
        (lambda g: _tree_state(g)["right"].__setitem__(0, 10**6), "out of range"),
        (lambda g: _tree_state(g)["right"].__setitem__(0, 1), "exactly one parent"),
        (lambda g: _tree_state(g)["feature"].__setitem__(0, 3), r"outside \[0, 3\)"),
        (lambda g: _tree_state(g)["threshold"].__setitem__(0, float("nan")), "threshold must be finite"),
        (lambda g: _tree_state(g)["value"].__setitem__(-1, float("inf")), "value must be finite"),
        (lambda g: g["members"][1]["state"].update(tree={"value": 0.5, "n": 4}), "exactly the keys"),
    ],
)
def test_malformed_artifact_raises_value_error(damage, message):
    gate = copy.deepcopy(FAMILY_GATES[0])
    assert _tree_state(gate)["feature"][0] >= 0  # the root splits, so the tree edits hit an internal node
    damage(gate)
    with pytest.raises(ValueError, match=message):
        gate_from_dict(gate)


@pytest.mark.parametrize("member", [0, 1])
def test_ensemble_without_trees_raises_value_error(member):
    gate = copy.deepcopy(FAMILY_GATES[2])  # gboost + rforest
    gate["members"][member]["state"]["trees"] = []
    with pytest.raises(ValueError, match="holds no trees"):
        gate_from_dict(gate)


def test_too_deeply_nested_artifact_raises_value_error(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    with pytest.raises(ValueError, match="nested too deeply"):
        load_gate(path)


@settings(max_examples=300, deadline=None)
@given(obj=st.one_of(JSON_VALUES, st.dictionaries(st.sampled_from(GATE_KEYS), JSON_VALUES, max_size=5), damaged_gates()))
def test_gate_from_dict_raises_only_value_error(obj):
    try:
        gate = gate_from_dict(obj)
    except ValueError:
        return
    # Whatever loads must also score, one row and a batch.
    rows = np.random.default_rng(0).normal(size=(20, len(gate.feature_names)))
    gate.predict_proba(rows[:1])
    gate.predict_proba(rows)
