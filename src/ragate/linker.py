"""Dictionary-based entity linking.

Maps question text to knowledge-graph ids with a gazetteer and greedy
left-to-right longest match over normalized tokens. No neural model is
involved; records may alternatively carry pre-linked entities via a
sidecar file, which bypasses the linker entirely.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass

from .core import EntityMention, normalize_text
from .stores import MalformedRow, PopularityStore, read_rows

__all__ = ["Gazetteer", "build_gazetteer", "link", "load_entity_sidecar", "sidecar_mentions"]


@dataclass(frozen=True)
class Gazetteer:
    """Normalized alias -> kg_id map with the longest alias length in tokens."""

    aliases: dict[str, str]
    max_alias_tokens: int = 1

    def __len__(self) -> int:
        return len(self.aliases)


def build_gazetteer(path, popularity: PopularityStore | None = None) -> Gazetteer:
    """Build a gazetteer from a TSV of (alias, kg_id) rows.

    Duplicate aliases are allowed in the file. When a popularity store is
    supplied the alias resolves to the candidate with the strictly higher
    pageview count (absent entities count as 0 views); otherwise, and on
    ties, the first occurrence wins.
    """
    aliases: dict[str, str] = {}
    views: dict[str, int] = {}
    for line_no, (alias_raw, kg_id) in read_rows(path, ("alias", "kg_id")):
        alias = normalize_text(alias_raw)
        if not alias:
            raise MalformedRow(path, line_no, f"alias {alias_raw!r} normalizes to empty")
        if not kg_id.strip():
            raise MalformedRow(path, line_no, "empty kg_id")
        if popularity is None:
            aliases.setdefault(alias, kg_id)
            continue
        candidate_views = popularity.lookup(kg_id) or 0
        if alias not in aliases or candidate_views > views[alias]:
            aliases[alias] = kg_id
            views[alias] = candidate_views
    max_tokens = max((len(a.split()) for a in aliases), default=1)
    return Gazetteer(aliases=aliases, max_alias_tokens=max_tokens)


def _token_spans(question: str) -> list[tuple[str, int, int]]:
    """Normalized tokens with (start, end) code-point spans in the original.

    Characters are normalized individually so each token can be traced back
    to a contiguous span of the source string.
    """
    spans: list[tuple[str, int, int]] = []
    parts: list[str] = []
    start: int | None = None
    end = 0
    for i, ch in enumerate(question):
        kept = "".join(c for c in unicodedata.normalize("NFKC", ch).lower() if c.isalnum())
        if kept:
            if start is None:
                start = i
            parts.append(kept)
            end = i + 1
        elif start is not None:
            spans.append(("".join(parts), start, end))
            parts = []
            start = None
    if start is not None:
        spans.append(("".join(parts), start, end))
    return spans


def link(question: str, gaz: Gazetteer) -> list[EntityMention]:
    """Greedy left-to-right longest-match linking.

    Returned mentions never overlap, are ordered by span start, and each
    surface normalizes to a gazetteer key. Deterministic and pure.
    """
    tokens = _token_spans(question)
    mentions: list[EntityMention] = []
    i = 0
    while i < len(tokens):
        advanced = False
        longest = min(gaz.max_alias_tokens, len(tokens) - i)
        for width in range(longest, 0, -1):
            candidate = " ".join(tok for tok, _, _ in tokens[i : i + width])
            kg_id = gaz.aliases.get(candidate)
            if kg_id is None:
                continue
            start = tokens[i][1]
            end = tokens[i + width - 1][2]
            surface = question[start:end]
            # Per-character tokenization can disagree with whole-string
            # normalization on exotic unicode; only emit verified matches.
            if normalize_text(surface) != candidate:
                continue
            mentions.append(EntityMention(surface=surface, kg_id=kg_id, char_span=(start, end)))
            i += width
            advanced = True
            break
        if not advanced:
            i += 1
    return mentions


def load_entity_sidecar(path) -> dict[str, list[str]]:
    """Read a pre-linked entity sidecar: TSV of (id, kg_id), one pair per row.

    Rows for the same id accumulate in file order.
    """
    linked: dict[str, list[str]] = {}
    for line_no, (record_id, kg_id) in read_rows(path, ("id", "kg_id")):
        if not record_id.strip() or not kg_id.strip():
            raise MalformedRow(path, line_no, "empty id or kg_id")
        linked.setdefault(record_id, []).append(kg_id)
    return linked


def sidecar_mentions(kg_ids: list[str]) -> list[EntityMention]:
    """Wrap pre-linked kg_ids as mentions without surfaces or spans."""
    return [EntityMention(surface="", kg_id=kg_id, char_span=(0, 0)) for kg_id in kg_ids]
