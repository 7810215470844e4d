"""Immutable key->value knowledge stores backing entity-derived features.

All stores load from UTF-8 tab-separated files with a mandatory header row.
Blank lines and lines starting with '#' are skipped anywhere in the file.
Missing keys are reported as absent (None), never as zero, so callers can
distinguish unknown entities from genuinely zero-count ones.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .core import RagateError

__all__ = [
    "StoreError",
    "MalformedRow",
    "DuplicateKey",
    "MissingHeader",
    "KeyedStore",
    "TripleCountStore",
    "PopularityStore",
    "FrequencyStore",
    "KnowledgabilityStore",
    "STORE_KINDS",
    "read_rows",
    "load_store",
    "TOTAL_TOKENS_KEY",
]

TOTAL_TOKENS_KEY = "__total__"
# Every integer up to 2**53 converts to a float64 exactly; a larger count
# would make the log1p features overflow or round.
MAX_COUNT = 2**53
# A score's form; float() alone also takes 1e3, +7, 1_0.5 and other scripts' digits.
_DECIMAL = re.compile(r"-?[0-9]+(?:\.[0-9]+)?")


class StoreError(RagateError):
    """Base class for store-file problems."""


class MalformedRow(StoreError):
    def __init__(self, path, line_no: int, reason: str):
        super().__init__(f"{path}: line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class DuplicateKey(StoreError):
    def __init__(self, path, key: str, line_no: int):
        super().__init__(f"{path}: duplicate key {key!r} (line {line_no})")
        self.key = key


class MissingHeader(StoreError):
    pass


@dataclass(frozen=True)
class KeyedStore:
    """key -> value table, one entry per data row of its file."""

    table: dict

    def lookup(self, key: str):
        return self.table.get(key)

    def __len__(self) -> int:
        return len(self.table)


class TripleCountStore(KeyedStore):
    """kg_id -> (count as triple subject, count as triple object)."""


class PopularityStore(KeyedStore):
    """kg_id -> page views over the snapshot's reference window."""


@dataclass(frozen=True)
class FrequencyStore(KeyedStore):
    """term -> corpus frequency, plus the corpus total token count."""

    total_tokens: int


@dataclass(frozen=True)
class KnowledgabilityStore(KeyedStore):
    """kg_id -> precomputed knowledge score in [0, 100]; ``clamp_warnings``
    counts the rows whose score lay outside the range and was clamped at load."""

    clamp_warnings: int = 0


def read_rows(path, header: tuple[str, ...]):
    """Yield ``(line_no, columns)`` for each data row of a TSV file, in file order.

    The first line that is neither blank nor a comment must equal ``header``
    (else MissingHeader), and every later one must have its width (else MalformedRow).
    """
    header_seen = False
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            cols = line.split("\t")
            if header_seen:
                if len(cols) != len(header):
                    raise MalformedRow(path, line_no, f"expected {len(header)} columns, got {len(cols)}")
                yield line_no, cols
            elif tuple(cols) == header:
                header_seen = True
            else:
                raise MissingHeader(f"{path}: expected header {list(header)}, got {cols}")
    if not header_seen:
        raise MissingHeader(f"{path}: no header row found")


class _BadValue(StoreError):
    """A column value's fault; ``_table`` reraises it as MalformedRow with the path and line."""


def _table(path, header: tuple[str, ...], parse) -> dict:
    """``{key: parse(key, *values)}`` over the rows; a repeated key raises DuplicateKey."""
    table = {}
    for line_no, (key, *values) in read_rows(path, header):
        if key in table:
            raise DuplicateKey(path, key, line_no)
        try:
            table[key] = parse(key, *values)
        except _BadValue as exc:
            raise MalformedRow(path, line_no, str(exc)) from None
    return table


def _count(what: str, text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise _BadValue(f"{what} is not a base-10 integer: {text!r}") from None
    if value < 0:
        raise _BadValue(f"{what} must be non-negative, got {value}")
    if not (text.isascii() and text.isdigit()):  # int() also takes "+7", " 8 ", "1_0" and other scripts' digits
        raise _BadValue(f"{what} is not a base-10 integer: {text!r}")
    if value > MAX_COUNT:
        raise _BadValue(f"{what} must be at most 2**53, got {text!r}")
    return value


def _score(_, text: str) -> float:
    try:
        score = float(text)
    except ValueError:
        raise _BadValue(f"score is not a number: {text!r}") from None
    if not math.isfinite(score):
        raise _BadValue(f"score is not finite: {text!r}")
    if not _DECIMAL.fullmatch(text):
        raise _BadValue(f"score is not a plain decimal: {text!r}")
    return score


def _triple(_, subject: str, object_: str) -> tuple[int, int]:
    return _count("subject_count", subject), _count("object_count", object_)


def _views(_, text: str) -> int:
    return _count("views", text)


def _frequency(term: str, text: str) -> int:
    count = _count("count", text)
    if term == TOTAL_TOKENS_KEY and count == 0:
        raise _BadValue("total token count must be positive")
    return count


def _load_frequency(path) -> FrequencyStore:
    """The ``__total__`` row holds the corpus token total, which no other
    count may exceed; both checks need every row, so they run after the
    per-row ones and read the file again only to name the line at fault."""
    header = ("term", "count")
    table = _table(path, header, _frequency)
    total = table.pop(TOTAL_TOKENS_KEY, None)
    if total is None:
        last = max((line_no for line_no, _ in read_rows(path, header)), default=1)
        raise MalformedRow(path, last + 1, f"no {TOTAL_TOKENS_KEY!r} row with the corpus token total")
    over = next((term for term, count in table.items() if count > total), None)
    if over is not None:
        line_no = next(n for n, (term, _) in read_rows(path, header) if term == over)
        raise MalformedRow(path, line_no, f"frequency of {over!r} exceeds total tokens ({table[over]} > {total})")
    return FrequencyStore(table, total_tokens=total)


def _load_knowledgability(path) -> KnowledgabilityStore:
    scores = _table(path, ("kg_id", "score"), _score)
    clamped = [kg_id for kg_id, score in scores.items() if score < 0.0 or score > 100.0]
    for kg_id in clamped:
        scores[kg_id] = min(max(scores[kg_id], 0.0), 100.0)
    return KnowledgabilityStore(scores, clamp_warnings=len(clamped))


_LOADERS = {
    "triples": lambda path: TripleCountStore(_table(path, ("kg_id", "subject_count", "object_count"), _triple)),
    "pageviews": lambda path: PopularityStore(_table(path, ("kg_id", "views"), _views)),
    "frequency": _load_frequency,
    "knowledgability": _load_knowledgability,
}
STORE_KINDS = tuple(_LOADERS)


def load_store(kind: str, path) -> KeyedStore:
    """The store of ``kind`` (one of STORE_KINDS) read from ``path``.

    Each fault raises a StoreError that names the file and, for a row, its
    line; the first faulty line in file order is the one reported.
    """
    try:
        loader = _LOADERS[kind]
    except KeyError:
        raise ValueError(f"unknown store kind {kind!r}; expected one of {sorted(_LOADERS)}") from None
    return loader(path)
