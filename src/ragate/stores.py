"""Immutable key->value knowledge stores backing entity-derived features.

All stores load from UTF-8 tab-separated files with a mandatory header row.
Lines starting with '#' are comments and are ignored (snapshot files use
them to record provenance such as the pageview window). Missing keys are
reported as absent (None), never as zero, so callers can distinguish
unknown entities from genuinely zero-count ones.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .core import RagateError, tokenize

__all__ = [
    "StoreError",
    "MalformedRow",
    "DuplicateKey",
    "MissingHeader",
    "TripleCountStore",
    "PopularityStore",
    "FrequencyStore",
    "KnowledgabilityStore",
    "STORE_KINDS",
    "load_store",
    "load_triple_store",
    "load_popularity_store",
    "load_frequency_store",
    "load_knowledgability_store",
    "build_frequency_table",
    "write_frequency_store",
    "TOTAL_TOKENS_KEY",
]

TOTAL_TOKENS_KEY = "__total__"


class StoreError(RagateError):
    """Base class for store-file problems."""


class MalformedRow(StoreError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class DuplicateKey(StoreError):
    def __init__(self, key: str, line_no: int | None = None):
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"duplicate key {key!r}{where}")
        self.key = key


class MissingHeader(StoreError):
    pass


@dataclass(frozen=True)
class TripleCountStore:
    """kg_id -> (count as triple subject, count as triple object)."""

    counts: dict[str, tuple[int, int]]
    comments: tuple[str, ...] = ()

    def lookup(self, kg_id: str) -> tuple[int, int] | None:
        return self.counts.get(kg_id)

    def __len__(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class PopularityStore:
    """kg_id -> page views over the snapshot's reference window."""

    views: dict[str, int]
    comments: tuple[str, ...] = ()

    def lookup(self, kg_id: str) -> int | None:
        return self.views.get(kg_id)

    def __len__(self) -> int:
        return len(self.views)


@dataclass(frozen=True)
class FrequencyStore:
    """term -> corpus frequency, plus the corpus total token count."""

    frequencies: dict[str, int]
    total_tokens: int
    comments: tuple[str, ...] = ()

    def lookup(self, term: str) -> int | None:
        return self.frequencies.get(term)

    def __len__(self) -> int:
        return len(self.frequencies)


@dataclass(frozen=True)
class KnowledgabilityStore:
    """kg_id -> precomputed knowledge score in [0, 100].

    ``clamp_warnings`` counts source rows whose score fell outside the
    range and was clamped at load.
    """

    scores: dict[str, float]
    clamp_warnings: int = 0
    comments: tuple[str, ...] = ()

    def lookup(self, kg_id: str) -> float | None:
        return self.scores.get(kg_id)

    def __len__(self) -> int:
        return len(self.scores)


def _read_table(path, expected_header: tuple[str, ...]):
    """Read a TSV snapshot into (leading comments, [(line_no, columns)]).

    Validates the header row and per-row arity; comment and blank lines are
    skipped anywhere in the file.
    """
    comments: list[str] = []
    rows: list[tuple[int, list[str]]] = []
    header_seen = False
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            if line.lstrip().startswith("#"):
                if not header_seen:
                    comments.append(line.lstrip()[1:].strip())
                continue
            cols = line.split("\t")
            if not header_seen:
                if tuple(cols) != expected_header:
                    raise MissingHeader(
                        f"{path}: expected header {list(expected_header)}, got {cols}"
                    )
                header_seen = True
                continue
            if len(cols) != len(expected_header):
                raise MalformedRow(line_no, f"expected {len(expected_header)} columns, got {len(cols)}")
            rows.append((line_no, cols))
    if not header_seen:
        raise MissingHeader(f"{path}: no header row found")
    return tuple(comments), rows


def _parse_count(text: str, line_no: int, what: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise MalformedRow(line_no, f"{what} is not a base-10 integer: {text!r}") from None
    if value < 0:
        raise MalformedRow(line_no, f"{what} must be non-negative, got {value}")
    return value


def load_triple_store(path) -> TripleCountStore:
    comments, rows = _read_table(path, ("kg_id", "subject_count", "object_count"))
    counts: dict[str, tuple[int, int]] = {}
    for line_no, (kg_id, subj, obj) in rows:
        if kg_id in counts:
            raise DuplicateKey(kg_id, line_no)
        counts[kg_id] = (
            _parse_count(subj, line_no, "subject_count"),
            _parse_count(obj, line_no, "object_count"),
        )
    return TripleCountStore(counts=counts, comments=comments)


def load_popularity_store(path) -> PopularityStore:
    comments, rows = _read_table(path, ("kg_id", "views"))
    views: dict[str, int] = {}
    for line_no, (kg_id, count) in rows:
        if kg_id in views:
            raise DuplicateKey(kg_id, line_no)
        views[kg_id] = _parse_count(count, line_no, "views")
    return PopularityStore(views=views, comments=comments)


def load_frequency_store(path) -> FrequencyStore:
    """Load a term-frequency table.

    The file must contain exactly one row whose term is ``__total__``; its
    count is the corpus token total and every other frequency must not
    exceed it.
    """
    comments, rows = _read_table(path, ("term", "count"))
    frequencies: dict[str, int] = {}
    row_lines: dict[str, int] = {}
    total: int | None = None
    last_line = 1
    for line_no, (term, count_text) in rows:
        last_line = line_no
        count = _parse_count(count_text, line_no, "count")
        if term == TOTAL_TOKENS_KEY:
            if total is not None:
                raise DuplicateKey(TOTAL_TOKENS_KEY, line_no)
            if count <= 0:
                raise MalformedRow(line_no, "total token count must be positive")
            total = count
            continue
        if term in frequencies:
            raise DuplicateKey(term, line_no)
        frequencies[term] = count
        row_lines[term] = line_no
    if total is None:
        raise MalformedRow(last_line + 1, f"no {TOTAL_TOKENS_KEY!r} row with the corpus token total")
    for term, freq in frequencies.items():
        if freq > total:
            raise MalformedRow(row_lines[term], f"frequency of {term!r} exceeds total tokens ({freq} > {total})")
    return FrequencyStore(frequencies=frequencies, total_tokens=total, comments=comments)


def load_knowledgability_store(path) -> KnowledgabilityStore:
    comments, rows = _read_table(path, ("kg_id", "score"))
    scores: dict[str, float] = {}
    clamped = 0
    for line_no, (kg_id, score_text) in rows:
        if kg_id in scores:
            raise DuplicateKey(kg_id, line_no)
        try:
            score = float(score_text)
        except ValueError:
            raise MalformedRow(line_no, f"score is not a number: {score_text!r}") from None
        if not math.isfinite(score):
            raise MalformedRow(line_no, f"score is not finite: {score_text!r}")
        if score < 0.0 or score > 100.0:
            score = min(max(score, 0.0), 100.0)
            clamped += 1
        scores[kg_id] = score
    return KnowledgabilityStore(scores=scores, clamp_warnings=clamped, comments=comments)


_LOADERS = {
    "triples": load_triple_store,
    "pageviews": load_popularity_store,
    "frequency": load_frequency_store,
    "knowledgability": load_knowledgability_store,
}
STORE_KINDS = tuple(_LOADERS)


def load_store(kind: str, path):
    """Dispatch to the typed loader for ``kind``.

    kind is one of: triples, pageviews, frequency, knowledgability.
    """
    try:
        loader = _LOADERS[kind]
    except KeyError:
        raise ValueError(f"unknown store kind {kind!r}; expected one of {sorted(_LOADERS)}") from None
    return loader(path)


def build_frequency_table(texts) -> tuple[Counter, int]:
    """Summarize a tokenized corpus into (term counts, total token count)."""
    counts: Counter = Counter()
    total = 0
    for text in texts:
        tokens = tokenize(text)
        counts.update(tokens)
        total += len(tokens)
    return counts, total


def write_frequency_store(path, counts: Counter, total_tokens: int, comments: tuple[str, ...] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write("term\tcount\n")
        fh.write(f"{TOTAL_TOKENS_KEY}\t{total_tokens}\n")
        for term in sorted(counts):
            fh.write(f"{term}\t{counts[term]}\n")
