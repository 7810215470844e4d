"""Lightweight native text classifiers and the lexical relevance scorer.

Question-type and question-complexity signals come from multinomial
logistic regression over hashed unigram+bigram counts; context relevance
comes from a token-overlap F1. No pretrained models, no subword
tokenization, and fully deterministic given a seed.

A text hashes to a handful of the ``dim`` (65,536 by default) columns, and
a corpus to a few hundred, so a classifier keeps only the sorted columns
that carry weight and a (columns x classes) weight block. One numpy
product, ``_product``, serves training's forward pass, its gradient (rows
and columns swapped) and ``predict_proba``: it adds each row's count x
weight terms onto 0 in ascending column order. Float addition is not
associative, so the order is fixed: it is the order of scipy's
sparse-by-dense product over all ``dim`` columns, which makes weights,
artifacts and probabilities those of the ``dim``-wide model bit for bit.
The JSON artifact lists the same columns, one ``"column": [weight per
class]`` entry each.
"""

from __future__ import annotations

import json
import zlib
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .core import RagateError, decode_json, tokenize
from .stores import read_rows

__all__ = [
    "DegenerateCorpus",
    "TextClfConfig",
    "TextClassifier",
    "train_text_classifier",
    "relevance_score",
    "softmax_loss_and_grad",
    "save_text_classifier",
    "load_text_classifier",
    "read_corpus",
    "load_toy_corpus",
]

DEFAULT_DIM = 1 << 16
_BIGRAM_SEP = "\x1f"


class DegenerateCorpus(RagateError):
    """Raised when a training corpus has fewer than two distinct labels."""


@dataclass(frozen=True)
class TextClfConfig:
    seed: int = 0
    epochs: int = 40
    learning_rate: float = 0.5
    dim: int = DEFAULT_DIM
    batch_size: int = 32


def _hash_index(key: str, dim: int) -> int:
    return zlib.crc32(key.encode("utf-8")) % dim


def hashed_counts(text: str, dim: int) -> Counter:
    """``{column: count}`` of the hashed unigrams and bigrams of ``text``."""
    tokens = tokenize(text)
    counts: Counter = Counter()
    for tok in tokens:
        counts[_hash_index(tok, dim)] += 1.0
    for a, b in zip(tokens, tokens[1:]):
        counts[_hash_index(a + _BIGRAM_SEP + b, dim)] += 1.0
    return counts


def _product(out_rows: np.ndarray, in_rows: np.ndarray, counts: np.ndarray, matrix: np.ndarray, n_out: int):
    """(n_out, k) sums: term ``t`` adds ``counts[t] * matrix[in_rows[t]]`` to
    row ``out_rows[t]``, onto 0 and in term order (weighted bincount adds in
    index order)."""
    k = matrix.shape[1]
    flat = (out_rows[:, None] * k + np.arange(k)).ravel()
    return np.bincount(flat, weights=(counts[:, None] * matrix[in_rows]).ravel(), minlength=n_out * k).reshape(n_out, k)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def softmax_loss_and_grad(weights: np.ndarray, bias: np.ndarray, terms, labels: np.ndarray):
    """Mean cross-entropy of the softmax model and its exact gradients.

    weights: (columns, classes); bias: (classes,); terms: ``(rows, cols,
    counts)``, the nonzero entries of an (n, columns) count matrix sorted by
    row, then column; labels: (n,) integer class indices. Returns
    (loss, grad_weights, grad_bias).
    """
    rows, cols, counts = terms
    n = len(labels)
    logits = _product(rows, cols, counts, weights, n) + bias
    probs = _softmax(logits)
    loss = -np.mean(np.log(probs[np.arange(n), labels] + 1e-12))
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    return loss, _product(cols, rows, counts, delta, len(weights)), delta.sum(axis=0)


@dataclass
class TextClassifier:
    """Multinomial logistic regression over hashed text features.

    Only the hashed columns that carry weight are stored: ``columns`` holds
    them in ascending order and row ``i`` of ``weights`` (columns x classes)
    holds the class weights of ``columns[i]``. Every other column of the
    ``dim``-wide feature space has zero weight.
    """

    class_names: tuple[str, ...]
    dim: int
    columns: np.ndarray
    weights: np.ndarray
    bias: np.ndarray
    training_meta: dict = field(default_factory=dict)
    _row: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        keep = np.any(self.weights != 0.0, axis=1)
        self.columns = np.asarray(self.columns, dtype=np.int64)[keep]
        self.weights = np.ascontiguousarray(self.weights[keep], dtype=np.float64)
        self._row = {int(col): i for i, col in enumerate(self.columns)}

    def predict_proba(self, text: str) -> np.ndarray:
        """Class probabilities in ``class_names`` order; sums to 1."""
        counts = hashed_counts(text, self.dim)
        hits = sorted(col for col in counts if col in self._row)
        rows = np.array([self._row[col] for col in hits], dtype=np.intp)
        scale = np.array([counts[col] for col in hits], dtype=np.float64)
        logits = _product(np.zeros_like(rows), rows, scale, self.weights, 1) + self.bias
        return _softmax(logits)[0]

    def predict(self, text: str) -> str:
        return self.class_names[int(np.argmax(self.predict_proba(text)))]


def train_text_classifier(corpus: list[tuple[str, str]], config: TextClfConfig = TextClfConfig()) -> TextClassifier:
    """Train by mini-batch gradient descent on hashed unigram+bigram counts.

    Deterministic for a fixed config: the same corpus and seed produce
    byte-identical weights. Class names are the sorted distinct labels.
    Raises DegenerateCorpus when fewer than two labels are present.

    The descent runs on the columns the corpus hashes to; every other
    column has zero gradient throughout and so keeps zero weight.
    """
    if not corpus:
        raise DegenerateCorpus("empty corpus")
    class_names = tuple(sorted({label for _, label in corpus}))
    if len(class_names) < 2:
        raise DegenerateCorpus(f"need at least 2 distinct labels, got {class_names}")
    class_index = {name: i for i, name in enumerate(class_names)}
    per_text = [sorted(hashed_counts(text, config.dim).items()) for text, _ in corpus]
    columns, cols = np.unique(np.array([col for row in per_text for col, _ in row], dtype=np.int64), return_inverse=True)
    counts = np.array([count for row in per_text for _, count in row], dtype=np.float64)
    lengths = np.array([len(row) for row in per_text])
    at = np.split(np.arange(len(cols)), np.cumsum(lengths)[:-1])  # each row's term positions
    n = len(corpus)
    y = np.array([class_index[label] for _, label in corpus], dtype=np.int64)

    rng = np.random.default_rng(config.seed)
    weights = np.zeros((len(columns), len(class_names)))
    bias = np.zeros(len(class_names))
    batch = max(1, min(config.batch_size, n))
    loss_history: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(n) if batch < n else np.arange(n)
        for lo in range(0, n, batch):
            idx = order[lo : lo + batch]
            take = np.concatenate([at[i] for i in idx])
            terms = (np.repeat(np.arange(len(idx)), lengths[idx]), cols[take], counts[take])
            _, grad_w, grad_b = softmax_loss_and_grad(weights, bias, terms, y[idx])
            weights -= config.learning_rate * grad_w
            bias -= config.learning_rate * grad_b
        epoch_loss, _, _ = softmax_loss_and_grad(weights, bias, (np.repeat(np.arange(n), lengths), cols, counts), y)
        loss_history.append(float(epoch_loss))

    meta = {
        "seed": config.seed,
        "epochs": config.epochs,
        "learning_rate": config.learning_rate,
        "batch_size": batch,
        "loss_history": loss_history,
    }
    return TextClassifier(
        class_names=class_names, dim=config.dim, columns=columns, weights=weights, bias=bias, training_meta=meta
    )


def relevance_score(question: str, context: str) -> float:
    """Token-overlap F1 between normalized token multisets, in [0, 1].

    Symmetric and invariant to token order; 0 when either side is empty.
    """
    q = Counter(tokenize(question))
    c = Counter(tokenize(context))
    nq = sum(q.values())
    nc = sum(c.values())
    if nq == 0 or nc == 0:
        return 0.0
    overlap = sum(min(count, c[tok]) for tok, count in q.items() if tok in c)
    return 2.0 * overlap / (nq + nc)


# ---------------------------------------------------------------------------
# Artifact I/O: self-describing JSON with sparse weight columns
# ---------------------------------------------------------------------------


def classifier_to_dict(model: TextClassifier) -> dict:
    return {
        "kind": "text-classifier",
        "dim": model.dim,
        "class_names": list(model.class_names),
        "bias": [float(v) for v in model.bias],
        "weights": {str(int(c)): [float(v) for v in row] for c, row in zip(model.columns, model.weights)},
        "training_meta": model.training_meta,
    }


def save_text_classifier(model: TextClassifier, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(classifier_to_dict(model), fh, sort_keys=True, indent=None, separators=(",", ":"))
        fh.write("\n")


def classifier_from_dict(obj: dict) -> TextClassifier:
    """Rebuild a classifier from its artifact; anything malformed raises ValueError."""
    if not isinstance(obj, dict) or obj.get("kind") != "text-classifier":
        raise ValueError("not a text-classifier artifact")
    missing = [key for key in ("dim", "class_names", "bias", "weights") if key not in obj]
    if missing:
        raise ValueError(f"text-classifier artifact lacks {missing}")
    dim, names, weights, meta = obj["dim"], obj["class_names"], obj["weights"], obj.get("training_meta", {})
    if type(dim) is not int or dim < 1:
        raise ValueError(f"text-classifier dim must be a positive integer, got {dim!r}")
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names) and 2 <= len(set(names)) == len(names)):
        raise ValueError("text-classifier class_names must list at least two distinct strings")
    if not (isinstance(weights, dict) and isinstance(meta, dict)):
        raise ValueError("text-classifier weights and training_meta must be objects")
    try:
        columns = {int(col): column for col, column in weights.items()}
        bias = np.array(obj["bias"], dtype=np.float64)
        matrix = np.array([columns[col] for col in sorted(columns)], dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("text-classifier weight columns must be integers, and bias and weights numbers") from None
    if len(columns) != len(weights):
        raise ValueError("a text-classifier weight column is given twice")
    if columns and not (min(columns) >= 0 and max(columns) < dim):
        raise ValueError(f"a text-classifier weight column lies outside declared dimension {dim}")
    if bias.shape != (len(names),) or matrix.shape not in ((0,), (len(columns), len(names))):
        raise ValueError("text-classifier bias and each weight column must hold one number per class")
    if not (np.all(np.isfinite(bias)) and np.all(np.isfinite(matrix))):
        raise ValueError("text-classifier bias and weights must be finite")
    return TextClassifier(class_names=tuple(names), dim=dim, columns=np.array(sorted(columns), dtype=np.int64),
                          weights=matrix.reshape(len(columns), len(names)), bias=bias, training_meta=meta)


def load_text_classifier(path) -> TextClassifier:
    with open(path, encoding="utf-8") as fh:
        return classifier_from_dict(decode_json(fh.read()))


# ---------------------------------------------------------------------------
# Bundled toy corpora (templated questions; see scripts/build_toy_corpora.py)
# ---------------------------------------------------------------------------

_TOY_FILES = {"qtype": "qtype_toy.tsv", "complexity": "complexity_toy.tsv"}


def read_corpus(path) -> list[tuple[str, str]]:
    """(text, label) pairs of a ``label<TAB>text`` TSV corpus."""
    return [(text, label) for _, (label, text) in read_rows(path, ("label", "text"))]


def load_toy_corpus(name: str) -> list[tuple[str, str]]:
    """Load a bundled (text, label) corpus: ``qtype`` or ``complexity``."""
    try:
        filename = _TOY_FILES[name]
    except KeyError:
        raise ValueError(f"unknown toy corpus {name!r}; expected one of {sorted(_TOY_FILES)}") from None
    with resources.as_file(resources.files("ragate").joinpath("data", filename)) as path:
        return read_corpus(path)
