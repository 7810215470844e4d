"""Evaluation harness: gate decisions, QA metrics, cost ledger, analyses,
and the files ``evaluate`` writes and the lines ``serve`` prints.

Quality is In-Accuracy (the chosen answer contains a gold answer after
normalization); efficiency is an accounting ledger (LM calls, retrieval
calls, PFLOPs per question), never a profiled measurement.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .core import GateDecision, LabeledOutcome, QuestionRecord, RagateError, RunReport, answer_outcomes, in_accuracy
from .core import load_dataset
from .features import FeatureVector, SchemaMismatch, read_features_tsv
from .tabular.base import TabularDataset, permuted_proba, shuffled
from .tabular.protocol import GateModel

DEFAULT_THRESHOLD = 0.5


class LengthMismatch(RagateError):
    """Decisions and records disagree in length."""


@dataclass(frozen=True)
class MethodCost:
    """Per-question cost constants for one method (an accounting entry)."""

    llm_generate_calls_per_question: float = 1.0
    ue_llm_calls_per_question: float = 0.0
    pflops_per_llm_call: float = 0.0181
    pflops_feature_pipeline: float = 0.0

    def __post_init__(self):
        for entry in fields(self):
            if getattr(self, entry.name) < 0:
                raise ValueError(f"{entry.name} must be >= 0")

    @property
    def lm_calls(self) -> float:
        return self.llm_generate_calls_per_question + self.ue_llm_calls_per_question

    @property
    def mean_pflops(self) -> float:
        return self.pflops_per_llm_call * self.lm_calls + self.pflops_feature_pipeline


@dataclass(frozen=True)
class CostModel:
    """Named per-method cost entries with a shared fallback."""

    default: MethodCost = MethodCost()
    methods: dict = field(default_factory=dict)

    def cost_for(self, method_name: str) -> MethodCost:
        return self.methods.get(method_name, self.default)

    @classmethod
    def from_config(cls, obj: dict | None) -> "CostModel":
        if not obj:
            return cls()
        default = MethodCost(**obj.get("default", {}))
        methods = {name: MethodCost(**entry) for name, entry in obj.get("methods", {}).items()}
        return cls(default=default, methods=methods)


def label_need_retrieval(record: QuestionRecord) -> int:
    """1 iff retrieval flips a wrong answer to a right one; else 0."""
    outcome = LabeledOutcome.from_record(record)
    return int(outcome.correct_with and not outcome.correct_without)


def load_labelled_table(dataset_path, features_path, feature_names=None):
    """A dataset's records, their ``features.tsv`` rows in record order labelled
    by ``label_need_retrieval``, and the table's feature groups. ``feature_names``,
    when given, must be the table's columns; that is checked before the join."""
    records = load_dataset(dataset_path)
    ids, entries, matrix = read_features_tsv(features_path)
    names = tuple(name for name, _ in entries)
    if feature_names is not None and names != tuple(feature_names):
        raise SchemaMismatch("feature table columns do not match the model's training schema")
    index = {row_id: i for i, row_id in enumerate(ids)}
    missing = [r.id for r in records if r.id not in index]
    if missing:
        raise ValueError(f"feature table lacks rows for question ids {missing[:5]}")
    y = np.array([label_need_retrieval(r) for r in records], dtype=np.int64)
    data = TabularDataset(matrix[[index[r.id] for r in records]], y, names)
    return records, data, tuple(group for _, group in entries)


def ideal_decisions(records) -> list[bool]:
    """The oracle gate: retrieve exactly where it helps."""
    return [bool(label_need_retrieval(r)) for r in records]


def decide(model: GateModel, vector: FeatureVector, threshold: float = DEFAULT_THRESHOLD) -> GateDecision:
    """Score one question with the gate; retrieve when score >= threshold."""
    if tuple(model.feature_names) != vector.schema.names:
        raise SchemaMismatch(
            f"model was trained on {list(model.feature_names)[:4]}... but the vector carries {list(vector.schema.names)[:4]}..."
        )
    score = float(model.predict_proba(vector.values[None, :])[0])
    return GateDecision(retrieve=bool(score >= threshold), score=score)


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def response_line(record_id: str, vector: FeatureVector, decision: GateDecision) -> str:
    """The ``serve`` response to one question: its decision and its feature values by group."""
    grouped: dict[str, dict[str, float]] = {}
    for (name, group), value in zip(vector.schema.entries, vector.values):
        grouped.setdefault(group, {})[name] = float(value)
    return _json_line({"id": record_id, "retrieve": decision.retrieve, "score": decision.score, "features": grouped})


def error_line(line_no: int, reason: str) -> str:
    """The ``serve`` response to a request line that could not be decided."""
    return _json_line({"error": {"line": line_no, "reason": reason}})


def evaluate_method(method_name: str, decisions, records, cost: MethodCost = MethodCost()) -> RunReport:
    """Score a decision vector over records and attach its cost ledger."""
    if len(decisions) != len(records):
        raise LengthMismatch(f"{len(decisions)} decisions for {len(records)} records")
    if not len(records):
        raise ValueError("cannot evaluate an empty record list")
    decisions = np.asarray(decisions, dtype=bool)
    return RunReport(
        method_name=method_name,
        in_accuracy=in_accuracy(decisions, *answer_outcomes(records)),
        lm_calls=cost.lm_calls,
        retrieval_calls=float(np.mean(decisions)),
        mean_pflops=cost.mean_pflops,
    )


def standard_reports(records, cost_model: CostModel = CostModel()) -> list[RunReport]:
    """The three reference rows every evaluation carries: Never/Always/Ideal."""
    n = len(records)
    return [
        evaluate_method("never_rag", [False] * n, records, cost_model.cost_for("never_rag")),
        evaluate_method("always_rag", [True] * n, records, cost_model.cost_for("always_rag")),
        evaluate_method("ideal", ideal_decisions(records), records, cost_model.cost_for("ideal")),
    ]


def flops_upper_bound(tflops_per_gpu: float, num_gpus: int, elapsed_seconds: float) -> float:
    """Hardware-roofline FLOPs at 100% utilization: TFLOPs·1e12·GPUs·seconds."""
    if tflops_per_gpu < 0 or num_gpus < 0 or elapsed_seconds < 0:
        raise ValueError("flops_upper_bound inputs must be >= 0")
    return tflops_per_gpu * 1e12 * num_gpus * elapsed_seconds


def accuracy_metric(y):
    """Plain classification accuracy at threshold 0.5 against labels ``y``."""
    y = np.asarray(y)

    def metric(model, X) -> float:
        return float(np.mean((model.predict_proba(X) >= 0.5) == (y == 1)))

    return metric


def in_accuracy_metric(correct_without, correct_with, threshold: float = DEFAULT_THRESHOLD):
    """Downstream In-Accuracy of the answers a model's decisions select."""
    cwo = np.asarray(correct_without, dtype=bool)
    cw = np.asarray(correct_with, dtype=bool)

    def metric(model, X) -> float:
        return in_accuracy(model.predict_proba(X) >= threshold, cwo, cw)

    return metric


class _Scored:
    """Stands in for a model whose scores on the matrix a metric is given are known."""

    def __init__(self, proba: np.ndarray):
        self.proba = proba

    def predict_proba(self, X) -> np.ndarray:
        return self.proba


def permutation_importance(model, data: TabularDataset, metric, repeats: int = 20, seed: int = 0) -> np.ndarray:
    """Mean metric drop when one column is shuffled, per feature (seeded).

    ``metric(model, X) -> float`` is evaluated once on the intact matrix and
    ``repeats`` times per feature with that column permuted. Every
    permutation is drawn first, column by column, and the model scores all
    the shuffled copies in one ``permuted_proba`` call; each metric call
    then sees its copy and a stand-in that returns the copy's scores.
    """
    names = getattr(model, "feature_names", None)
    if names is not None and tuple(names) != tuple(data.feature_names):
        raise SchemaMismatch("model feature names do not match the data")
    if repeats < 0:
        raise ValueError("repeats must be >= 0")
    rng = np.random.default_rng(seed)
    n, d = data.X.shape
    perms = np.empty((d, repeats, n), dtype=np.intp)
    for j, r in np.ndindex(d, repeats):
        perms[j, r] = rng.permutation(n)
    baseline = float(metric(model, data.X))
    proba = permuted_proba(model, data.X, perms)
    scores = np.zeros(d)
    for j in range(d):
        drop = 0.0
        for r in range(repeats):
            drop += baseline - float(metric(_Scored(proba[j, r]), shuffled(data.X, j, perms[j, r])))
        scores[j] = drop / repeats if repeats else 0.0
    return scores


def correlation_matrix(X, y) -> np.ndarray:
    """Absolute Pearson correlations of [features | label], in [0, 1].

    Zero-variance columns correlate 0 with everything, their own diagonal
    entry included.
    """
    M = np.column_stack([np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)])
    if not np.all(np.isfinite(M)):
        raise ValueError("correlation inputs must be finite")
    k = M.shape[1]
    centered = M - M.mean(axis=0)
    cov = centered.T @ centered / M.shape[0]
    std = M.std(axis=0)
    out = np.zeros((k, k))
    live = std > 0.0
    denom = np.outer(std, std)
    mask = np.outer(live, live)
    out[mask] = np.abs(cov[mask] / denom[mask])
    out = np.minimum(out, 1.0)
    out[np.diag_indices(k)] = np.where(live, 1.0, 0.0)
    return out


_REPORT_COLUMNS = ("method", "in_accuracy", "lm_calls", "retrieval_calls", "mean_pflops")


def render_report(reports, fmt: str = "markdown") -> str:
    """Render RunReports as a Table-1-style summary (markdown or csv).

    Markdown shows InAcc as a percent with 1 decimal; csv keeps full float
    precision so values round-trip exactly.
    """
    if fmt == "markdown":
        lines = [
            "| Method | InAcc (%) | LMC | RC | PFLOPs/question |",
            "| --- | --- | --- | --- | --- |",
        ]
        for r in reports:
            lines.append(
                f"| {r.method_name} | {r.in_accuracy * 100:.1f} | {r.lm_calls:.2f} "
                f"| {r.retrieval_calls:.2f} | {r.mean_pflops:.8g} |"
            )
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_REPORT_COLUMNS)
        for r in reports:
            writer.writerow(
                [r.method_name, repr(r.in_accuracy), repr(r.lm_calls), repr(r.retrieval_calls), repr(r.mean_pflops)]
            )
        return buf.getvalue()
    raise ValueError(f"unknown report format {fmt!r}; expected markdown or csv")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_evaluation(
    out_dir, *, config, dataset, features, model, gate, data: TabularDataset, seed, threshold, reports, importance
) -> dict[str, str]:
    """Write report.md (a run header over the table), report.csv, importance.csv,
    correlation.csv and run_meta.json to ``out_dir``; returns the table by format."""
    meta = {
        "command": "evaluate",
        "seed": seed,
        "threshold": threshold,
        "dataset": {"path": dataset, "sha256": _sha256(dataset), "records": data.n},
        "features_file": {"path": features, "sha256": _sha256(features)},
        "model": {"path": model, "sha256": _sha256(model)},
        "stores": {kind: {"path": p, "sha256": _sha256(p)} for kind, p in sorted(config.store_paths.items())},
        "schema": [[name, group] for name, group in zip(gate.feature_names, gate.feature_groups)],
        "cost_model": {
            "default": vars(config.cost_model.default),
            "methods": {k: vars(v) for k, v in sorted(config.cost_model.methods.items())},
        },
        "context_norm": config.context_norm,
        "importance_repeats": config.importance_repeats,
    }
    names = data.feature_names
    header = [
        "# Retrieval gate evaluation",
        "",
        f"- seed: {seed}",
        f"- threshold: {threshold}",
        f"- dataset: {dataset} ({data.n} records, sha256 {meta['dataset']['sha256'][:12]})",
        f"- model: {model} (sha256 {meta['model']['sha256'][:12]})",
        f"- features: {len(names)} columns",
        "",  # a blank line ends the list, so Markdown renders the table as a table
    ]
    tables = {fmt: render_report(reports, fmt) for fmt in ("markdown", "csv")}
    labels = list(names) + ["label"]
    corr = correlation_matrix(data.X, data.y)
    files = {
        "report.md": "\n".join(header) + "\n" + tables["markdown"],
        "report.csv": tables["csv"],
        "importance.csv": "".join(
            ["feature,score\n"] + [f"{names[j]},{float(importance[j])!r}\n" for j in np.argsort(-importance, kind="stable")]
        ),
        "correlation.csv": "".join(
            ["," + ",".join(labels) + "\n"]
            + [label + "," + ",".join(repr(float(v)) for v in row) + "\n" for label, row in zip(labels, corr)]
        ),
        "run_meta.json": json.dumps(meta, sort_keys=True, indent=2) + "\n",
    }
    for name, text in files.items():
        Path(out_dir, name).write_text(text, encoding="utf-8")
    return tables
