"""Seeded inputs of the two benchmark workloads, with their ground truth.

``large-unique`` is generated here: 100k entities with aliases of one to
three tokens and 40k frequency terms, from a fixed world seed, with train,
eval and serve question sets that share no question; the benchmark seed
draws the serve stream. ``small-repeat`` is the stock world of
``scripts/make_synthetic.py`` (seed 7, 1000/500 questions) with a mid-size
grid and a serve stream sampled by the benchmark seed, with replacement,
from its questions.

Every world directory holds the store files, ``config.yaml``,
``grids.yaml``, ``train.jsonl``, ``eval.jsonl``, ``serve.jsonl`` (one decide
request per line) and ``truth.tsv``: for each question id, the entity it was
built from, that entity's stored counts (empty where the entity has no row
in a store), its contexts' token count and which stored answer is correct.

Run as a script to write one world::

    python3 bench/world.py --workload large-unique --seed 1 --out /tmp/w
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MAKE_SYNTHETIC = os.path.join(ROOT, "scripts", "make_synthetic.py")

WORKLOADS = ("large-unique", "small-repeat")

TRUTH_COLUMNS = (
    "id",
    "kg_id",
    "subject_count",
    "object_count",
    "views",
    "knowledgability",
    "context_tokens",
    "correct_without",
    "correct_with",
)

# large-unique make-up
N_ENTITIES = 100_000
N_WORDS = 40_000
ALIAS_TOKEN_SHARES = (0.2, 0.5, 0.3)  # aliases of 1, 2 and 3 tokens
MISSING_SHARE = {"triples": 0.03, "pageviews": 0.03, "knowledgability": 0.05}
LARGE_SIZES = {"train": 2000, "eval": 1000, "serve": 40_000}
LARGE_WORLD_SEED = 1

# small-repeat make-up
SMALL_WORLD_ARGS = ("--seed", "7", "--n-train", "1000", "--n-eval", "500")
SMALL_SERVE = 40_000

# Mid-size search space for small-repeat: several n_estimators values for the
# boosted and bagged trees, a catboost section folded onto gboost, and knn
# algorithm / logreg solver values that run the same code.
SMALL_GRIDS_YAML = """\
# mid-size search grid of the small-repeat benchmark workload
logreg:
  C: [0.01, 0.1, 1]
  solver: [lbfgs, liblinear]
  class_weight: [balanced, null]
  max_iter: [10000]
knn:
  n_neighbors: [5, 9, 15]
  metric: [euclidean, manhattan]
  algorithm: [auto, ball_tree, kd_tree]
  weights: [uniform, distance]
mlp:
  hidden_layer_sizes: [[16], [32]]
  activation: [relu]
  solver: [adam]
  alpha: [0.0001, 0.001]
  learning_rate: [constant]
  early_stopping: [true]
  max_iter: [60]
dtree:
  max_depth: [3, 5, 7, null]
  max_features: [null, sqrt]
  criterion: [gini, entropy]
  splitter: [best]
catboost:
  iterations: [25, 50]
  learning_rate: [0.05]
  depth: [3, 4]
gboost:
  n_estimators: [25, 50, 100]
  learning_rate: [0.05, 0.1]
  max_depth: [3]
  max_features: [null]
rforest:
  n_estimators: [25, 50, 100]
  max_depth: [5, 9]
  max_features: [sqrt]
  bootstrap: [true]
  criterion: [gini]
  class_weight: [balanced]
"""

_SYLLABLE_HEADS = "bdfghjklmnprstvz"
_SYLLABLE_VOWELS = "aeiou"


def _load_make_synthetic():
    spec = importlib.util.spec_from_file_location("make_synthetic", MAKE_SYNTHETIC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _template_words(ms) -> set[str]:
    words = set()
    for text in ms.TEMPLATES + ms.FILLER_CONTEXTS + ["records state that the answer is fact"]:
        for word in text.replace("{alias}", " ").replace(",", " ").split():
            words.add(word)
    return words


def _vocabulary(rng: np.random.Generator, reserved: set[str]) -> list[str]:
    """N_WORDS distinct three-syllable pseudo-words, none of them reserved."""
    syllables = [h + v for h in _SYLLABLE_HEADS for v in _SYLLABLE_VOWELS]
    words: dict[str, None] = {}
    while len(words) < N_WORDS:
        picks = rng.integers(0, len(syllables), size=(N_WORDS, 3))
        for a, b, c in picks:
            word = syllables[a] + syllables[b] + syllables[c]
            if word not in reserved:
                words.setdefault(word, None)
            if len(words) == N_WORDS:
                break
    return list(words)


def _entities(rng: np.random.Generator, vocab: list[str]) -> list[dict]:
    n = N_ENTITIES
    views = (10 ** rng.uniform(1.0, 6.0, size=n)).astype(np.int64)
    subj = np.maximum(1, (views**0.45 * rng.uniform(0.5, 1.5, size=n)).astype(np.int64))
    obj = np.maximum(1, (views**0.40 * rng.uniform(0.5, 1.5, size=n)).astype(np.int64))
    know = np.clip(100.0 * np.log10(views) / 6.0 + rng.normal(0.0, 8.0, size=n), 0.0, 100.0)
    widths = rng.choice(3, size=n, p=ALIAS_TOKEN_SHARES) + 1
    missing = {kind: rng.uniform(size=n) < share for kind, share in MISSING_SHARE.items()}
    aliases: set[str] = set()
    entities = []
    for i in range(n):
        while True:
            alias = " ".join(vocab[j] for j in rng.integers(0, len(vocab), size=int(widths[i])))
            if alias not in aliases:
                aliases.add(alias)
                break
        entities.append(
            {
                "kg_id": f"Q{i:06d}",
                "alias": alias,
                "views": int(views[i]),
                "subject_count": int(subj[i]),
                "object_count": int(obj[i]),
                "knowledgability": f"{know[i]:.2f}",
                "in_triples": not missing["triples"][i],
                "in_pageviews": not missing["pageviews"][i],
                "in_knowledgability": not missing["knowledgability"][i],
            }
        )
    return entities


def _write_large_stores(entities, vocab, reserved, out: str, rng: np.random.Generator) -> None:
    with open(os.path.join(out, "triples.tsv"), "w", encoding="utf-8") as fh:
        fh.write("kg_id\tsubject_count\tobject_count\n")
        fh.writelines(f"{e['kg_id']}\t{e['subject_count']}\t{e['object_count']}\n" for e in entities if e["in_triples"])
    with open(os.path.join(out, "pageviews.tsv"), "w", encoding="utf-8") as fh:
        fh.write("kg_id\tviews\n")
        fh.writelines(f"{e['kg_id']}\t{e['views']}\n" for e in entities if e["in_pageviews"])
    with open(os.path.join(out, "knowledgability.tsv"), "w", encoding="utf-8") as fh:
        fh.write("kg_id\tscore\n")
        fh.writelines(f"{e['kg_id']}\t{e['knowledgability']}\n" for e in entities if e["in_knowledgability"])
    with open(os.path.join(out, "gazetteer.tsv"), "w", encoding="utf-8") as fh:
        fh.write("alias\tkg_id\n")
        fh.writelines(f"{e['alias']}\t{e['kg_id']}\n" for e in entities)
    # alias-word frequencies track entity popularity; template words are common
    counts = dict.fromkeys(vocab, 1)
    scale = rng.uniform(0.5, 1.5, size=len(entities))
    for e, s in zip(entities, scale):
        for word in e["alias"].split():
            counts[word] += max(1, int(e["views"] * s))
    for word in sorted(reserved):
        counts[word] = int(5e5)
    total = sum(counts.values()) * 2
    with open(os.path.join(out, "frequency.tsv"), "w", encoding="utf-8") as fh:
        fh.write("term\tcount\n")
        fh.write(f"__total__\t{total}\n")
        fh.writelines(f"{term}\t{counts[term]}\n" for term in sorted(counts))


def _question(ms, entity: dict, template: int, qid: str, need: bool, roll: float, n_filler: int):
    """One question with its contexts, stored answers and truth row."""
    alias = entity["alias"]
    gold = f"fact {qid}"
    fillers = [ms.FILLER_CONTEXTS[(int(qid[1:]) + k) % len(ms.FILLER_CONTEXTS)] for k in range(n_filler)]
    if need:
        without, with_r = "i am not sure", f"the answer is {gold}"
        contexts = [f"{alias} records state that the answer is {gold}"] + fillers
        correct = (False, True)
    elif roll < 0.70:
        without = with_r = f"the answer is {gold}"
        contexts, correct = fillers, (True, True)
    elif roll < 0.85:
        without, with_r = f"the answer is {gold}", "the retrieved passage was misleading"
        contexts, correct = fillers, (True, False)
    else:
        without, with_r = "i am not sure", "still not sure"
        contexts, correct = fillers, (False, False)
    question = ms.TEMPLATES[template].format(alias=alias)
    record = {
        "id": qid,
        "question": question,
        "gold_answers": (gold,),
        "answer_without_retrieval": without,
        "answer_with_retrieval": with_r,
        "contexts": tuple(contexts),
        "dataset_tag": "synthetic",
    }
    truth = _truth_row(qid, entity, sum(len(c.split()) for c in contexts), correct)
    return record, truth


def _truth_row(qid: str, entity: dict, context_tokens: int, correct: tuple[bool, bool]) -> tuple:
    return (
        qid,
        entity["kg_id"],
        entity["subject_count"] if entity.get("in_triples", True) else "",
        entity["object_count"] if entity.get("in_triples", True) else "",
        entity["views"] if entity.get("in_pageviews", True) else "",
        entity["knowledgability"] if entity.get("in_knowledgability", True) else "",
        context_tokens,
        int(correct[0]),
        int(correct[1]),
    )


def _write_records(records: list[dict], path: str) -> None:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from ragate.core import QuestionRecord, save_dataset

    save_dataset([QuestionRecord(**r) for r in records], path)


def _write_serve(requests: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for req in requests:
            fh.write(json.dumps(req, separators=(",", ":")) + "\n")


def _write_truth(rows: list[tuple], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(TRUTH_COLUMNS) + "\n")
        fh.writelines("\t".join(str(c) for c in row) + "\n" for row in rows)


def _draw_questions(ms, entities, rng, pairs, prefix: str, view_median: float):
    """Questions for the given (entity, template) pair indices, with truth rows."""
    n = len(pairs)
    n_templates = len(ms.TEMPLATES)
    noise = rng.uniform(size=n) < 0.05
    rolls = rng.uniform(size=n)
    fillers = rng.integers(1, 4, size=n)
    records, truth = [], []
    for i, pair in enumerate(pairs):
        entity = entities[int(pair) // n_templates]
        need = (entity["views"] < view_median) != bool(noise[i])
        record, row = _question(ms, entity, int(pair) % n_templates, f"{prefix}{i:06d}", need, float(rolls[i]), int(fillers[i]))
        records.append(record)
        truth.append(row)
    return records, truth


def build_large_unique(seed: int, out: str, sizes: dict | None = None) -> None:
    """Write the large-unique world under ``out``, its serve stream drawn by ``seed``.

    Stores, train and eval sets come from ``LARGE_WORLD_SEED``, so every
    seed trains and evaluates the same gate; ``seed`` draws the serve
    stream from the (entity, template) pairs that train and eval left over.
    """
    sizes = dict(LARGE_SIZES if sizes is None else sizes)
    ms = _load_make_synthetic()
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng([LARGE_WORLD_SEED, 0x1A46E])
    reserved = _template_words(ms)
    vocab = _vocabulary(rng, reserved)
    entities = _entities(rng, vocab)
    _write_large_stores(entities, vocab, reserved, out, rng)

    view_median = float(np.median([e["views"] for e in entities]))
    n_pairs = N_ENTITIES * len(ms.TEMPLATES)
    # distinct (entity, template) pairs make every question string distinct
    pairs = rng.choice(n_pairs, size=sizes["train"] + sizes["eval"], replace=False)
    truth: list[tuple] = []
    for split, prefix, chunk in (("train", "t", pairs[: sizes["train"]]), ("eval", "v", pairs[sizes["train"]:])):
        records, rows = _draw_questions(ms, entities, rng, chunk, prefix, view_median)
        _write_records(records, os.path.join(out, f"{split}.jsonl"))
        truth += rows

    stream_rng = np.random.default_rng([seed, 0x5E7])
    used = set(pairs.tolist())
    drawn = stream_rng.choice(n_pairs, size=sizes["serve"] + len(used), replace=False)
    serve_pairs = [p for p in drawn.tolist() if p not in used][: sizes["serve"]]
    records, rows = _draw_questions(ms, entities, stream_rng, serve_pairs, "s", view_median)
    _write_serve([{"id": r["id"], "question": r["question"], "contexts": list(r["contexts"])} for r in records],
                 os.path.join(out, "serve.jsonl"))
    _write_truth(truth + rows, os.path.join(out, "truth.tsv"))
    with open(os.path.join(out, "grids.yaml"), "w", encoding="utf-8") as fh:
        fh.write(ms.GRIDS_YAML)
    with open(os.path.join(out, "config.yaml"), "w", encoding="utf-8") as fh:
        fh.write(ms.CONFIG_YAML)


def _read_tsv(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh][1:]


def build_small_repeat(seed: int, out: str, n_serve: int = SMALL_SERVE) -> None:
    """Write the stock seed-7 world plus a serve stream sampled by ``seed``."""
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run(
        [sys.executable, MAKE_SYNTHETIC, "--out", out, *SMALL_WORLD_ARGS],
        check=True, env=env, stdout=subprocess.DEVNULL,
    )
    with open(os.path.join(out, "grids.yaml"), "w", encoding="utf-8") as fh:
        fh.write(SMALL_GRIDS_YAML)

    # ground truth from the generator's own store files, matched by alias
    alias_of = {alias: kg for alias, kg in _read_tsv(os.path.join(out, "gazetteer.tsv"))}
    entity = {kg: {"kg_id": kg} for kg in alias_of.values()}
    for kg, subj, obj in _read_tsv(os.path.join(out, "triples.tsv")):
        entity[kg].update(subject_count=int(subj), object_count=int(obj))
    for kg, views in _read_tsv(os.path.join(out, "pageviews.tsv")):
        entity[kg]["views"] = int(views)
    for kg, score in _read_tsv(os.path.join(out, "knowledgability.tsv")):
        entity[kg]["knowledgability"] = score

    records = []
    for split in ("train", "eval"):
        with open(os.path.join(out, f"{split}.jsonl"), encoding="utf-8") as fh:
            records.extend(json.loads(line) for line in fh)
    truth: list[tuple] = []

    def row(qid: str, rec: dict) -> tuple:
        (kg,) = [kg for alias, kg in alias_of.items() if alias in rec["question"]]
        gold = rec["gold_answers"][0]
        correct = (gold in rec["answer_without_retrieval"], gold in rec["answer_with_retrieval"])
        return _truth_row(qid, entity[kg], sum(len(c.split()) for c in rec["contexts"]), correct)

    truth.extend(row(rec["id"], rec) for rec in records)
    rng = np.random.default_rng([seed, 0x5E7])
    picks = rng.integers(0, len(records), size=n_serve)
    requests = []
    for i, k in enumerate(picks):
        rec = records[int(k)]
        qid = f"s{i:06d}"
        requests.append({"id": qid, "question": rec["question"], "contexts": rec["contexts"]})
        truth.append(row(qid, rec))
    _write_serve(requests, os.path.join(out, "serve.jsonl"))
    _write_truth(truth, os.path.join(out, "truth.tsv"))


def build(workload: str, seed: int, out: str) -> None:
    if workload == "large-unique":
        build_large_unique(seed, out)
    elif workload == "small-repeat":
        build_small_repeat(seed, out)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    build(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
