#!/usr/bin/env python
"""Generate a small synthetic world for exercising the full gate pipeline.

The world has a planted rule: questions about *rare* entities (low pageview
count) are the ones where retrieval flips a wrong closed-book answer into a
correct one, so the popularity/graph/frequency features carry real signal
about the need-retrieval label. A small fraction of labels is flipped as
noise. Everything is derived from one seeded generator, so a given
(--seed, --n-train, --n-eval) triple always produces the same files.

Outputs (under --out): triples.tsv, pageviews.tsv, frequency.tsv,
knowledgability.tsv, gazetteer.tsv, train.jsonl, eval.jsonl, grids.yaml,
config.yaml. Afterwards the CLI runs end to end:

    ragate extract  --config out/config.yaml --dataset out/train.jsonl --out out
    ragate train    --config out/config.yaml --dataset out/train.jsonl \
                    --features out/features.tsv --out out
    ragate extract  --config out/config.yaml --dataset out/eval.jsonl --out out/evalfeat
    ragate evaluate --config out/config.yaml --dataset out/eval.jsonl \
                    --features out/evalfeat/features.tsv --model out/model.json --out out
"""

from __future__ import annotations

import argparse
import math
import os

import numpy as np

from ragate.core import QuestionRecord, save_dataset

ADJECTIVES = ["amber", "cobalt", "crimson", "ivory", "jade", "onyx", "silver", "umber"]
NOUNS = ["falcon", "harbor", "lantern", "meadow", "obelisk", "quarry", "thicket", "viaduct"]

TEMPLATES = [
    "who founded {alias}",
    "what is the capital of {alias}",
    "how many districts does {alias} have",
    "which is older, {alias} or the north province",
    "who is the spouse of the mayor of {alias}",
    "was {alias} established before 1900",
    "what is the largest museum in {alias}",
    "what is the difference between {alias} and its sister city",
]

FILLER_CONTEXTS = [
    "the committee adjourned without a decision on the annual budget",
    "seasonal rainfall patterns shifted across the region last decade",
    "the archive catalog lists several unrelated manuscripts",
]

GRIDS_YAML = """\
# reduced search grids: every family present, a handful of points each
logreg:
  C: [0.1, 1]
  solver: [lbfgs]
  class_weight: [balanced, null]
  max_iter: [10000]
knn:
  n_neighbors: [5, 9]
  metric: [euclidean]
  algorithm: [auto]
  weights: [uniform, distance]
mlp:
  hidden_layer_sizes: [[16]]
  activation: [relu]
  solver: [adam]
  alpha: [0.0001]
  learning_rate: [constant]
  early_stopping: [true]
  max_iter: [60]
dtree:
  max_depth: [3, 5]
  max_features: [null]
  criterion: [gini]
  splitter: [best]
gboost:
  n_estimators: [25]
  learning_rate: [0.05]
  max_depth: [3]
  max_features: [null]
rforest:
  n_estimators: [25]
  max_depth: [5]
  max_features: [sqrt]
  bootstrap: [true]
  criterion: [gini]
  class_weight: [balanced]
"""

# Validation rows the config holds out; training needs 20 rows beyond them.
VAL_SIZE = 100
MIN_TRAIN = VAL_SIZE + 20

CONFIG_YAML = f"""\
# synthetic-world run config (paths are relative to this file)
stores:
  triples: triples.tsv
  pageviews: pageviews.tsv
  frequency: frequency.tsv
  knowledgability: knowledgability.tsv
gazetteer: gazetteer.tsv
models:
  qtype: builtin
  complexity: builtin
grids: grids.yaml
seed: 7
threshold: 0.5
val_size: {VAL_SIZE}
importance_repeats: 5
cost_model:
  default:
    llm_generate_calls_per_question: 1.0
    pflops_per_llm_call: 0.0181
  methods:
    gate:
      llm_generate_calls_per_question: 1.0
      pflops_per_llm_call: 0.0181
      pflops_feature_pipeline: 0.00002
"""


def build_entities(rng: np.random.Generator):
    """40 entities with correlated pageviews / triple counts / scores."""
    aliases = [f"{adj} {noun}" for adj in ADJECTIVES for noun in NOUNS]
    rng.shuffle(aliases)
    entities = []
    for i, alias in enumerate(aliases[:40]):
        views = int(10 ** rng.uniform(1.0, 6.0))
        subj = max(1, int(views**0.45 * rng.uniform(0.5, 1.5)))
        obj = max(1, int(views**0.40 * rng.uniform(0.5, 1.5)))
        know = float(np.clip(100.0 * math.log10(views) / 6.0 + rng.normal(0, 8.0), 0.0, 100.0))
        entities.append(
            {
                "kg_id": f"E{i:03d}",
                "alias": alias,
                "views": views,
                "subject_count": subj,
                "object_count": obj,
                "knowledgability": know,
            }
        )
    return entities


def make_records(entities, rng: np.random.Generator, count: int, prefix: str, noise: float = 0.05):
    view_median = float(np.median([e["views"] for e in entities]))
    records = []
    for i in range(count):
        entity = entities[int(rng.integers(0, len(entities)))]
        template = TEMPLATES[int(rng.integers(0, len(TEMPLATES)))]
        question = template.format(alias=entity["alias"])
        gold = f"fact {prefix}{i:04d}"
        need = entity["views"] < view_median
        if rng.uniform() < noise:
            need = not need
        if need:
            without, with_r = "i am not sure", f"the answer is {gold}"
            contexts = (f"{entity['alias']} records state that the answer is {gold}",)
        else:
            roll = rng.uniform()
            if roll < 0.70:
                without, with_r = f"the answer is {gold}", f"the answer is {gold}"
            elif roll < 0.85:
                without, with_r = f"the answer is {gold}", "the retrieved passage was misleading"
            else:
                without, with_r = "i am not sure", "still not sure"
            contexts = (FILLER_CONTEXTS[i % len(FILLER_CONTEXTS)],)
        records.append(
            QuestionRecord(
                id=f"{prefix}{i:04d}",
                question=question,
                gold_answers=(gold,),
                answer_without_retrieval=without,
                answer_with_retrieval=with_r,
                contexts=contexts + (FILLER_CONTEXTS[(i + 1) % len(FILLER_CONTEXTS)],),
                dataset_tag="synthetic",
            )
        )
    return records


def write_stores(entities, out: str, rng: np.random.Generator) -> None:
    with open(os.path.join(out, "triples.tsv"), "w", encoding="utf-8") as fh:
        fh.write("kg_id\tsubject_count\tobject_count\n")
        for e in entities:
            fh.write(f"{e['kg_id']}\t{e['subject_count']}\t{e['object_count']}\n")
    with open(os.path.join(out, "pageviews.tsv"), "w", encoding="utf-8") as fh:
        fh.write("kg_id\tviews\n")
        for e in entities:
            fh.write(f"{e['kg_id']}\t{e['views']}\n")
    with open(os.path.join(out, "knowledgability.tsv"), "w", encoding="utf-8") as fh:
        fh.write("kg_id\tscore\n")
        for e in entities:
            fh.write(f"{e['kg_id']}\t{e['knowledgability']:.2f}\n")
    with open(os.path.join(out, "gazetteer.tsv"), "w", encoding="utf-8") as fh:
        fh.write("alias\tkg_id\n")
        for e in entities:
            fh.write(f"{e['alias']}\t{e['kg_id']}\n")

    # alias-word frequencies track entity popularity; template words are common
    counts: dict[str, int] = {}
    for e in entities:
        for word in e["alias"].split():
            counts[word] = counts.get(word, 0) + max(1, int(e["views"] * rng.uniform(0.5, 1.5)))
    for template in TEMPLATES + [" ".join(FILLER_CONTEXTS)]:
        for word in template.replace("{alias}", "").split():
            word = "".join(ch for ch in word.lower() if ch.isalnum())
            if word:
                counts[word] = counts.get(word, 0) + int(5e5)
    total = sum(counts.values()) * 2
    with open(os.path.join(out, "frequency.tsv"), "w", encoding="utf-8") as fh:
        fh.write("term\tcount\n")
        fh.write(f"__total__\t{total}\n")
        for term in sorted(counts):
            fh.write(f"{term}\t{counts[term]}\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n-train", type=int, default=200)
    parser.add_argument("--n-eval", type=int, default=120)
    args = parser.parse_args()
    if args.n_train < MIN_TRAIN:
        parser.error(f"--n-train must be at least {MIN_TRAIN}: the world's config holds out "
                     f"{VAL_SIZE} validation rows and training needs 20 more, got {args.n_train}")

    os.makedirs(args.out, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    entities = build_entities(rng)
    write_stores(entities, args.out, rng)
    train = make_records(entities, rng, args.n_train, "t")
    eval_records = make_records(entities, rng, args.n_eval, "v")
    save_dataset(train, os.path.join(args.out, "train.jsonl"))
    save_dataset(eval_records, os.path.join(args.out, "eval.jsonl"))
    with open(os.path.join(args.out, "grids.yaml"), "w", encoding="utf-8") as fh:
        fh.write(GRIDS_YAML)
    with open(os.path.join(args.out, "config.yaml"), "w", encoding="utf-8") as fh:
        fh.write(CONFIG_YAML)
    need = sum(
        r.answer_with_retrieval.startswith("the answer") and r.answer_without_retrieval == "i am not sure"
        for r in train
    )
    print(f"wrote {args.out}: {len(train)} train / {len(eval_records)} eval records")
    print(f"train need-retrieval rate: {need}/{len(train)}")


if __name__ == "__main__":
    main()
