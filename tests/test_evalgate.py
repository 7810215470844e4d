"""Evaluation harness: labels, metrics, cost ledger, importance, reports."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import outcome_record
from ragate.cli import main
from ragate.core import LabeledOutcome, RunReport, answer_outcomes
from ragate.evalgate import (
    CostModel,
    LengthMismatch,
    MethodCost,
    accuracy_metric,
    correlation_matrix,
    decide,
    evaluate_method,
    flops_upper_bound,
    ideal_decisions,
    in_accuracy_metric,
    label_need_retrieval,
    load_labelled_table,
    permutation_importance,
    render_report,
    standard_reports,
)
from ragate.features import FeatureSchema, FeatureVector, SchemaMismatch
from ragate.tabular.base import TabularDataset
from ragate.tabular.protocol import GateModel, load_gate
from ragate.tabular.scaler import Scaler
from ragate.tabular.voting import VotingModel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Fixed:
    """Stub member returning one constant probability for every row."""

    def __init__(self, p):
        self.p = float(p)

    def predict_proba(self, X):
        return np.full(np.asarray(X).shape[0], self.p)


class ColumnGate:
    """Stub model that votes retrieve exactly when column 0 is positive."""

    def predict_proba(self, X):
        return (np.asarray(X)[:, 0] > 0).astype(float)


def four_outcomes():
    """cwo = [1,0,1,0], cw = [1,1,0,0] -- one record per outcome cell."""
    return [
        outcome_record(0, correct_without=True, correct_with=True),
        outcome_record(1, correct_without=False, correct_with=True),
        outcome_record(2, correct_without=True, correct_with=False),
        outcome_record(3, correct_without=False, correct_with=False),
    ]


# ---------------------------------------------------------------------------
# Labels and the oracle gate
# ---------------------------------------------------------------------------


class TestLabel:
    @pytest.mark.parametrize(
        "cwo,cw,expected",
        [(False, True, 1), (True, True, 0), (True, False, 0), (False, False, 0)],
    )
    def test_truth_table(self, cwo, cw, expected):
        record = outcome_record(0, correct_without=cwo, correct_with=cw)
        assert label_need_retrieval(record) == expected

    def test_labeled_outcome_flags(self):
        record = outcome_record(7, correct_without=False, correct_with=True)
        outcome = LabeledOutcome.from_record(record)
        assert (outcome.correct_without, outcome.correct_with) == (False, True)

    def test_ideal_decisions(self):
        assert ideal_decisions(four_outcomes()) == [False, True, False, False]


# ---------------------------------------------------------------------------
# Method evaluation
# ---------------------------------------------------------------------------


class TestEvaluateMethod:
    def test_hand_oracle(self):
        records = four_outcomes()
        report = evaluate_method("probe", [False, True, False, True], records)
        # chosen correctness: [cwo0, cw1, cwo2, cw3] = [1, 1, 1, 0]
        assert report.method_name == "probe"
        assert report.in_accuracy == pytest.approx(0.75)
        assert report.retrieval_calls == pytest.approx(0.5)

    def test_cost_attached(self):
        cost = MethodCost(
            llm_generate_calls_per_question=1.0,
            ue_llm_calls_per_question=2.0,
            pflops_per_llm_call=0.01,
            pflops_feature_pipeline=0.5,
        )
        report = evaluate_method("probe", [True], four_outcomes()[:1], cost)
        assert report.lm_calls == pytest.approx(3.0)
        assert report.mean_pflops == pytest.approx(0.53)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch, match="3 decisions for 4 records"):
            evaluate_method("probe", [True, False, True], four_outcomes())

    def test_empty_records(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate_method("probe", [], [])

    def test_all_false_scores_the_closed_book_answers(self):
        records = four_outcomes()
        report = evaluate_method("never", [False] * 4, records)
        assert report.in_accuracy == pytest.approx(0.5)  # mean cwo
        assert report.retrieval_calls == 0.0

    def test_all_true_scores_the_retrieved_answers(self):
        records = four_outcomes()
        report = evaluate_method("always", [True] * 4, records)
        assert report.in_accuracy == pytest.approx(0.5)  # mean cw
        assert report.retrieval_calls == 1.0


class TestStandardReports:
    def test_rows_and_ordering(self):
        records = four_outcomes()
        never, always, ideal = standard_reports(records)
        assert [r.method_name for r in (never, always, ideal)] == ["never_rag", "always_rag", "ideal"]
        assert never.retrieval_calls == 0.0
        assert always.retrieval_calls == 1.0
        # oracle retrieves only where it flips wrong->right: row 1
        assert ideal.retrieval_calls == pytest.approx(0.25)
        assert ideal.in_accuracy == pytest.approx(0.75)
        assert ideal.in_accuracy >= max(never.in_accuracy, always.in_accuracy)

    def test_cost_model_fallback(self):
        cm = CostModel(
            default=MethodCost(pflops_per_llm_call=0.02),
            methods={"always_rag": MethodCost(llm_generate_calls_per_question=2.0)},
        )
        never, always, ideal = standard_reports(four_outcomes(), cm)
        assert never.mean_pflops == pytest.approx(0.02)
        assert always.lm_calls == pytest.approx(2.0)
        assert ideal.mean_pflops == pytest.approx(0.02)

    def test_ideal_never_below_either_baseline(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            flags = rng.integers(0, 2, size=(12, 2)).astype(bool)
            records = [outcome_record(i, bool(a), bool(b)) for i, (a, b) in enumerate(flags)]
            never, always, ideal = standard_reports(records)
            assert ideal.in_accuracy >= never.in_accuracy - 1e-12
            assert ideal.in_accuracy >= always.in_accuracy - 1e-12


# ---------------------------------------------------------------------------
# Cost ledger
# ---------------------------------------------------------------------------


class TestCosts:
    def test_defaults(self):
        cost = MethodCost()
        assert cost.lm_calls == 1.0
        assert cost.mean_pflops == pytest.approx(0.0181)

    def test_mean_pflops_formula(self):
        cost = MethodCost(
            llm_generate_calls_per_question=1.0,
            ue_llm_calls_per_question=0.0,
            pflops_per_llm_call=0.0181,
            pflops_feature_pipeline=0.00002162,
        )
        assert cost.mean_pflops == 0.0181 * 1.0 + 0.00002162
        assert cost.mean_pflops == pytest.approx(0.01812162, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="ue_llm_calls_per_question"):
            MethodCost(ue_llm_calls_per_question=-0.5)

    def test_from_config(self):
        cm = CostModel.from_config(
            {
                "default": {"pflops_per_llm_call": 0.03},
                "methods": {"gate": {"pflops_feature_pipeline": 0.001}},
            }
        )
        assert cm.cost_for("unknown").pflops_per_llm_call == 0.03
        assert cm.cost_for("gate").pflops_feature_pipeline == 0.001
        # method entries do not inherit the default section's overrides
        assert cm.cost_for("gate").pflops_per_llm_call == 0.0181

    def test_from_config_none(self):
        assert CostModel.from_config(None) == CostModel()
        assert CostModel.from_config({}) == CostModel()


class TestFlopsUpperBound:
    def test_hand_value_exact(self):
        assert flops_upper_bound(312, 1, 1) == 3.12e14

    def test_scales_linearly(self):
        assert flops_upper_bound(312, 4, 10) == 312 * 1e12 * 4 * 10

    def test_zero_ok_negative_rejected(self):
        assert flops_upper_bound(0, 8, 100) == 0.0
        with pytest.raises(ValueError):
            flops_upper_bound(-1, 1, 1)


# ---------------------------------------------------------------------------
# Single-question decisions
# ---------------------------------------------------------------------------


def stub_gate(p_a=0.4, p_b=0.6, names=("a", "b")):
    return GateModel(
        feature_names=tuple(names),
        feature_groups=("override",) * len(names),
        scaler=Scaler(mean=np.zeros(len(names)), std=np.ones(len(names))),
        voting=VotingModel(families=("logreg", "knn"), members=(Fixed(p_a), Fixed(p_b))),
    )


def vector(names=("a", "b"), values=(0.0, 0.0)):
    schema = FeatureSchema(tuple((n, "override") for n in names))
    return FeatureVector(schema=schema, values=np.asarray(values, dtype=np.float64))


class TestDecide:
    def test_score_is_member_mean(self):
        decision = decide(stub_gate(0.4, 0.6), vector())
        assert decision.score == pytest.approx(0.5)
        assert decision.retrieve is True  # threshold edge counts as retrieve

    def test_threshold_respected(self):
        assert decide(stub_gate(0.4, 0.6), vector(), threshold=0.51).retrieve is False
        assert decide(stub_gate(0.1, 0.1), vector()).retrieve is False

    def test_schema_mismatch(self):
        with pytest.raises(SchemaMismatch):
            decide(stub_gate(), vector(names=("a", "c")))


# ---------------------------------------------------------------------------
# Permutation importance
# ---------------------------------------------------------------------------


class TestPermutationImportance:
    def _data(self, n=200, d=5, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        y = (X[:, 0] > 0).astype(int)
        names = tuple(f"f{j}" for j in range(d))
        return TabularDataset(X, y, names), y

    def test_planted_feature_ranks_first(self):
        data, y = self._data()
        scores = permutation_importance(ColumnGate(), data, accuracy_metric(y), repeats=20, seed=0)
        assert int(np.argmax(scores)) == 0
        assert scores[0] > 0.2
        # the model never reads the other columns, so their drop is exactly 0
        assert np.array_equal(scores[1:], np.zeros(4))

    def test_zero_repeats_gives_zeros(self):
        data, y = self._data(n=50)
        scores = permutation_importance(ColumnGate(), data, accuracy_metric(y), repeats=0)
        assert np.array_equal(scores, np.zeros(5))

    def test_negative_repeats_rejected(self):
        data, y = self._data(n=30)
        with pytest.raises(ValueError, match="repeats"):
            permutation_importance(ColumnGate(), data, accuracy_metric(y), repeats=-1)

    def test_deterministic(self):
        data, y = self._data(n=80)
        metric = accuracy_metric(y)
        a = permutation_importance(ColumnGate(), data, metric, repeats=5, seed=3)
        b = permutation_importance(ColumnGate(), data, metric, repeats=5, seed=3)
        assert np.array_equal(a, b)

    def test_model_schema_checked(self):
        data, y = self._data(n=30)
        gate = stub_gate(names=("wrong", "names", "here", "too", "short"))
        with pytest.raises(SchemaMismatch):
            permutation_importance(gate, data, accuracy_metric(y), repeats=1)

    def test_in_accuracy_metric_drop(self):
        # gate decisions matter: cw correct only where col0 > 0
        data, y = self._data(n=150, seed=2)
        cw = y.astype(bool)
        cwo = ~cw
        metric = in_accuracy_metric(cwo, cw)
        baseline = metric(ColumnGate(), data.X)
        assert baseline == 1.0
        scores = permutation_importance(ColumnGate(), data, metric, repeats=10, seed=1)
        assert scores[0] > 0.2


def reference_permutation_importance(model, data, metric, repeats=20, seed=0):
    """permutation_importance as it was when it scored one shuffled copy per
    metric call, kept verbatim as the reference."""
    names = getattr(model, "feature_names", None)
    if names is not None and tuple(names) != tuple(data.feature_names):
        raise SchemaMismatch("model feature names do not match the data")
    if repeats < 0:
        raise ValueError("repeats must be >= 0")
    rng = np.random.default_rng(seed)
    n, d = data.X.shape
    baseline = float(metric(model, data.X))
    scores = np.zeros(d)
    for j in range(d):
        drop = 0.0
        for _ in range(repeats):
            shuffled = data.X.copy()
            shuffled[:, j] = shuffled[rng.permutation(n), j]
            drop += baseline - float(metric(model, shuffled))
        scores[j] = drop / repeats if repeats else 0.0
    return scores


@pytest.fixture(scope="module")
def knn_gate_world(tmp_path_factory):
    """A logreg + knn gate trained on a seed-7 synthetic world, with its eval
    records and table (30 rows: not a whole number of blocks)."""
    world = tmp_path_factory.mktemp("seed7")
    subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "make_synthetic.py"), "--out", str(world),
                    "--seed", "7", "--n-train", "120", "--n-eval", "30"],
                   env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}, check=True, capture_output=True)
    (world / "grids.yaml").write_text("logreg: {C: [1.0]}\nknn: {n_neighbors: [5], weights: [distance]}\n",
                                      encoding="utf-8")
    config = str(world / "config.yaml")
    for split in ("train", "eval"):
        assert main(["extract", "--config", config, "--dataset", str(world / f"{split}.jsonl"),
                     "--out", str(world / split)]) == 0
    assert main(["train", "--config", config, "--dataset", str(world / "train.jsonl"),
                 "--features", str(world / "train" / "features.tsv"), "--out", str(world)]) == 0
    gate = load_gate(str(world / "model.json"))
    records, data, _ = load_labelled_table(str(world / "eval.jsonl"), str(world / "eval" / "features.tsv"))
    return gate, records, data


class TestImportanceMatchesReference:
    def test_logreg_knn_gate(self, knn_gate_world):
        gate, records, data = knn_gate_world
        assert gate.voting.families == ("logreg", "knn")
        # The mean score moves with every score's bits, not only with decisions.
        for metric in (in_accuracy_metric(*answer_outcomes(records)), lambda m, X: float(np.mean(m.predict_proba(X)))):
            for repeats, seed in ((3, 7), (1, 0), (0, 2)):
                expected = reference_permutation_importance(gate, data, metric, repeats, seed)
                assert np.array_equal(permutation_importance(gate, data, metric, repeats, seed), expected)

    def test_column_gate_takes_the_default_path(self):
        rng = np.random.default_rng(4)
        X = np.round(rng.normal(size=(45, 6)), 1)
        y = (X[:, 0] > 0).astype(int)
        data = TabularDataset(X, y, tuple(f"f{j}" for j in range(6)))
        assert not hasattr(ColumnGate(), "permuted_proba")
        for metric in (accuracy_metric(y), in_accuracy_metric(~y.astype(bool), y.astype(bool))):
            expected = reference_permutation_importance(ColumnGate(), data, metric, 4, 9)
            assert np.array_equal(permutation_importance(ColumnGate(), data, metric, 4, 9), expected)


class TestMetricFactories:
    def test_accuracy_metric(self):
        X = np.zeros((4, 2))
        assert accuracy_metric([1, 1, 0, 0])(Fixed(0.9), X) == pytest.approx(0.5)
        assert accuracy_metric([1, 1, 1, 1])(Fixed(0.9), X) == 1.0

    def test_in_accuracy_metric_hand_values(self):
        X = np.zeros((4, 2))
        cwo = [True, False, True, False]
        cw = [True, True, False, False]
        metric = in_accuracy_metric(cwo, cw)
        assert metric(Fixed(0.9), X) == pytest.approx(0.5)  # all retrieve -> mean cw
        assert metric(Fixed(0.1), X) == pytest.approx(0.5)  # none retrieve -> mean cwo
        edge = in_accuracy_metric(cwo, cw, threshold=0.9)
        assert edge(Fixed(0.9), X) == pytest.approx(0.5)  # ties go to retrieve


# ---------------------------------------------------------------------------
# Correlation analysis
# ---------------------------------------------------------------------------


class TestCorrelationMatrix:
    def test_perfectly_correlated_pair(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        out = correlation_matrix(X, [1.0, 2.0, 3.0, 4.0])
        assert out.shape == (2, 2)
        assert out == pytest.approx(np.ones((2, 2)), abs=1e-9)

    def test_anticorrelation_maps_to_one(self):
        X = np.array([[1.0], [2.0], [3.0]])
        out = correlation_matrix(X, [3.0, 2.0, 1.0])
        assert out[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        y = [0.0, 1.0, 1.0, 1.0]
        out = correlation_matrix(X, y)
        assert out[0, 1] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
        assert out[1, 0] == out[0, 1]

    def test_zero_variance_column_is_zero_everywhere(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        out = correlation_matrix(X, np.arange(5.0))
        assert np.array_equal(out[0], np.zeros(3))
        assert np.array_equal(out[:, 0], np.zeros(3))
        assert out[1, 1] == 1.0 and out[2, 2] == 1.0

    def test_symmetric_clipped_unit_diagonal(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 6))
        y = rng.integers(0, 2, size=40)
        out = correlation_matrix(X, y)
        assert np.array_equal(out, out.T)
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert np.array_equal(np.diag(out), np.ones(7))

    def test_non_finite_rejected(self):
        X = np.array([[np.nan], [1.0]])
        with pytest.raises(ValueError, match="finite"):
            correlation_matrix(X, [0.0, 1.0])


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


REPORTS = [
    RunReport(method_name="never_rag", in_accuracy=0.35, lm_calls=1.0, retrieval_calls=0.0, mean_pflops=0.0181),
    RunReport(method_name="gate", in_accuracy=0.883, lm_calls=1.0, retrieval_calls=0.53, mean_pflops=0.01812162),
]


class TestRenderReport:
    def test_markdown_exact(self):
        expected = (
            "| Method | InAcc (%) | LMC | RC | PFLOPs/question |\n"
            "| --- | --- | --- | --- | --- |\n"
            "| never_rag | 35.0 | 1.00 | 0.00 | 0.0181 |\n"
            "| gate | 88.3 | 1.00 | 0.53 | 0.01812162 |\n"
        )
        assert render_report(REPORTS, fmt="markdown") == expected

    def test_csv_exact(self):
        expected = (
            "method,in_accuracy,lm_calls,retrieval_calls,mean_pflops\n"
            "never_rag,0.35,1.0,0.0,0.0181\n"
            "gate,0.883,1.0,0.53,0.01812162\n"
        )
        assert render_report(REPORTS, fmt="csv") == expected

    def test_csv_round_trips_exactly(self):
        import csv as csv_mod
        import io

        rows = list(csv_mod.reader(io.StringIO(render_report(REPORTS, fmt="csv"))))
        parsed = float(rows[2][4])
        assert parsed == REPORTS[1].mean_pflops

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="latex"):
            render_report(REPORTS, fmt="latex")
