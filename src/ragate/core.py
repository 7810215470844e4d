"""Shared domain types, dataset I/O, and the answer-correctness primitive.

Everything downstream (stores, linking, features, training, evaluation)
builds on the types defined here. All types are immutable after
construction and safe to share across parallel workers.
"""

from __future__ import annotations

import json
import math
import unicodedata
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RagateError",
    "DatasetError",
    "MalformedRecord",
    "DuplicateId",
    "QuestionRecord",
    "EntityMention",
    "GateDecision",
    "RunReport",
    "normalize_text",
    "tokenize",
    "answer_is_correct",
    "LabeledOutcome",
    "answer_outcomes",
    "in_accuracy",
    "decode_json",
    "parse_question",
    "load_dataset",
    "save_dataset",
]


class RagateError(Exception):
    """Base class of every error this package raises for bad input: the CLI
    reports each as ``error: ...`` and exits 1."""


class DatasetError(RagateError):
    """Base class for dataset-file problems."""


class MalformedRecord(DatasetError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class DuplicateId(DatasetError):
    def __init__(self, record_id: str):
        super().__init__(f"duplicate record id {record_id!r}")
        self.record_id = record_id


# ---------------------------------------------------------------------------
# Text normalization
#
# One normalization is used everywhere text is compared: answer matching,
# gazetteer aliases, frequency-store terms, and classifier tokenization.
# NFKC -> lowercase -> non-alphanumeric to space -> collapse whitespace.
# ---------------------------------------------------------------------------


def normalize_text(text: str) -> str:
    """Canonical form used for all string comparison in this package."""
    folded = unicodedata.normalize("NFKC", text).lower()
    cleaned = "".join(ch if ch.isalnum() else " " for ch in folded)
    return " ".join(cleaned.split())


def tokenize(text: str) -> list[str]:
    """Normalized whitespace tokens of ``text`` (empty list for blank input)."""
    norm = normalize_text(text)
    return norm.split() if norm else []


def answer_is_correct(answer: str, gold_answers: list[str]) -> bool:
    """True iff the normalized answer contains any normalized gold answer.

    Matching is plain substring containment after normalization, not
    token-boundary aware. Gold answers that normalize to the empty string
    are rejected at dataset load, so an empty answer is always incorrect.
    """
    norm_answer = normalize_text(answer)
    if not norm_answer:
        return False
    for gold in gold_answers:
        norm_gold = normalize_text(gold)
        if norm_gold and norm_gold in norm_answer:
            return True
    return False


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuestionRecord:
    """One QA example with externally sourced answers.

    ``answer_without_retrieval`` and ``answer_with_retrieval`` are inputs
    produced elsewhere; this package never generates answers.
    ``feature_overrides`` maps feature names of the active schema to values
    that take precedence over computed ones.
    """

    id: str
    question: str
    gold_answers: tuple[str, ...]
    answer_without_retrieval: str
    answer_with_retrieval: str
    contexts: tuple[str, ...] = ()
    dataset_tag: str = ""
    feature_overrides: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class LabeledOutcome:
    """Whether a record's stored answers, without and with retrieval, are correct."""

    correct_without: bool
    correct_with: bool

    @classmethod
    def from_record(cls, record: QuestionRecord) -> "LabeledOutcome":
        return cls(
            correct_without=answer_is_correct(record.answer_without_retrieval, record.gold_answers),
            correct_with=answer_is_correct(record.answer_with_retrieval, record.gold_answers),
        )


def answer_outcomes(records) -> tuple[np.ndarray, np.ndarray]:
    """The outcomes of ``records`` as two boolean arrays: (without, with)."""
    outcomes = [LabeledOutcome.from_record(r) for r in records]
    correct_without = np.array([o.correct_without for o in outcomes], dtype=bool)
    correct_with = np.array([o.correct_with for o in outcomes], dtype=bool)
    return correct_without, correct_with


def in_accuracy(decisions, correct_without, correct_with) -> float:
    """In-Accuracy of a decision vector: the share of questions whose chosen
    answer (with retrieval where the decision is to retrieve, else without)
    is correct."""
    chosen = np.where(np.asarray(decisions, dtype=bool), correct_with, correct_without)
    return float(np.mean(chosen))


@dataclass(frozen=True)
class EntityMention:
    """A linked entity occurrence in a question.

    ``char_span`` is a half-open ``(start, end)`` pair of code-point offsets
    into the question string, so ``question[start:end]`` recovers the
    surface. Mentions produced from a pre-linked sidecar carry an empty
    surface and a ``(0, 0)`` span.
    """

    surface: str
    kg_id: str
    char_span: tuple[int, int]


@dataclass(frozen=True)
class GateDecision:
    retrieve: bool
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")


@dataclass(frozen=True)
class RunReport:
    """One per-method result row: quality plus accounted cost."""

    method_name: str
    in_accuracy: float
    lm_calls: float
    retrieval_calls: float
    mean_pflops: float

    def __post_init__(self):
        values = (self.in_accuracy, self.lm_calls, self.retrieval_calls, self.mean_pflops)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("report fields must be finite")
        if not 0.0 <= self.in_accuracy <= 1.0:
            raise ValueError(f"in_accuracy {self.in_accuracy} outside [0, 1]")
        if any(v < 0 for v in values):
            raise ValueError("report fields must be non-negative")


# ---------------------------------------------------------------------------
# Dataset I/O: UTF-8 JSON lines, one record per line
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = (
    "id",
    "question",
    "gold_answers",
    "answer_without_retrieval",
    "answer_with_retrieval",
)


# The fields a serve request does not carry: a placeholder id and answers
# that pass the dataset checks, so one parser reads requests and records.
_REQUEST_FILL = {"id": "", "gold_answers": ["unused"], "answer_without_retrieval": "", "answer_with_retrieval": ""}


def decode_json(line: str):
    """The JSON value of one line; ValueError("invalid JSON: ...") if there is none."""
    try:
        return json.loads(line)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past Python's digit limit
        raise ValueError(f"invalid JSON: {getattr(exc, 'msg', exc)}") from None
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None


def parse_question(obj, request: bool = False) -> QuestionRecord:
    """The record of a decoded question object; ValueError names its first bad field.

    A dataset record carries every field in ``_REQUIRED_FIELDS``. A serve
    ``request`` needs only ``question``; its record gets an empty id and
    placeholder answers, and its other fields are checked as a record's are.
    """
    if not isinstance(obj, dict):
        raise ValueError("record is not an object")
    if request:
        obj = {**obj, **_REQUEST_FILL}
    for name in _REQUIRED_FIELDS:
        if name not in obj:
            raise ValueError(f"missing field {name!r}")
    for name in ("id", "question", "answer_without_retrieval", "answer_with_retrieval"):
        if not isinstance(obj[name], str):
            raise ValueError(f"field {name!r} must be a string")
    golds = obj["gold_answers"]
    if not isinstance(golds, list) or not golds:
        raise ValueError("gold_answers must be a non-empty list")
    if not all(isinstance(g, str) for g in golds):
        raise ValueError("gold_answers entries must be strings")
    if any(not normalize_text(g) for g in golds):
        raise ValueError("gold answer normalizes to empty string")
    contexts = obj.get("contexts", [])
    if not isinstance(contexts, list) or not all(isinstance(c, str) for c in contexts):
        raise ValueError("contexts must be a list of strings")
    tag = obj.get("dataset_tag", "")
    if not isinstance(tag, str):
        raise ValueError("dataset_tag must be a string")
    overrides = obj.get("feature_overrides", {})
    if overrides is None:
        overrides = {}
    if not isinstance(overrides, dict):
        raise ValueError("feature_overrides must be a mapping")
    clean_overrides: dict[str, float] = {}
    for key, value in overrides.items():
        if not isinstance(key, str) or isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError("feature_overrides must map names to numbers")
        try:
            number = float(value)
        except OverflowError:
            raise ValueError(f"override {key!r} is too large for a float") from None
        if not math.isfinite(number):
            raise ValueError(f"override {key!r} is not finite")
        clean_overrides[key] = number
    return QuestionRecord(
        id=obj["id"],
        question=obj["question"],
        gold_answers=tuple(golds),
        answer_without_retrieval=obj["answer_without_retrieval"],
        answer_with_retrieval=obj["answer_with_retrieval"],
        contexts=tuple(contexts),
        dataset_tag=tag,
        feature_overrides=clean_overrides,
    )


def _parse_record(obj, line_no: int) -> QuestionRecord:
    try:
        return parse_question(obj)
    except ValueError as exc:
        raise MalformedRecord(line_no, str(exc)) from None


def load_dataset(path) -> list[QuestionRecord]:
    """Read a JSON-lines dataset file, preserving record order.

    Unknown fields are ignored; ``feature_overrides`` are preserved
    verbatim (schema agreement is checked at feature-extraction time).
    Raises MalformedRecord with the 1-based line number on any schema
    violation and DuplicateId on repeated ids.
    """
    records: list[QuestionRecord] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = decode_json(line)
            except ValueError as exc:
                raise MalformedRecord(line_no, str(exc)) from None
            record = _parse_record(obj, line_no)
            if record.id in seen:
                raise DuplicateId(record.id)
            seen.add(record.id)
            records.append(record)
    return records


def record_to_dict(record: QuestionRecord) -> dict:
    obj = {
        "id": record.id,
        "question": record.question,
        "gold_answers": list(record.gold_answers),
        "answer_without_retrieval": record.answer_without_retrieval,
        "answer_with_retrieval": record.answer_with_retrieval,
        "contexts": list(record.contexts),
        "dataset_tag": record.dataset_tag,
    }
    if record.feature_overrides:
        obj["feature_overrides"] = dict(record.feature_overrides)
    return obj


def save_dataset(records: list[QuestionRecord], path) -> None:
    """Write records as JSON lines; ``load_dataset`` round-trips exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record), ensure_ascii=False) + "\n")
