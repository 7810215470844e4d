#!/usr/bin/env python
"""Train the question-type and complexity text classifiers to JSON files.

By default fits on the bundled toy corpora (the same thing the `builtin`
model setting does at run time) and writes qtype.json / complexity.json,
which a run config can then point at:

    models:
      qtype: qtype.json
      complexity: complexity.json

Pass --corpus to fit on your own TSV instead (same "label\\ttext" layout).
"""

from __future__ import annotations

import argparse
import os

from ragate.textclf import TextClfConfig, load_toy_corpus, read_corpus, save_text_classifier, train_text_classifier


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--which", choices=("qtype", "complexity", "both"), default="both")
    parser.add_argument("--corpus", default=None, help="custom label/text TSV (implies a single --which)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=40)
    args = parser.parse_args()

    if args.corpus is not None and args.which == "both":
        parser.error("--corpus needs an explicit --which (qtype or complexity)")

    os.makedirs(args.out, exist_ok=True)
    config = TextClfConfig(seed=args.seed, epochs=args.epochs)
    names = ("qtype", "complexity") if args.which == "both" else (args.which,)
    for name in names:
        corpus = read_corpus(args.corpus) if args.corpus else load_toy_corpus(name)
        model = train_text_classifier(corpus, config)
        path = os.path.join(args.out, f"{name}.json")
        save_text_classifier(model, path)
        hits = sum(model.predict(text) == label for text, label in corpus)
        print(f"{path}: {len(corpus)} rows, classes {model.class_names}, train acc {hits}/{len(corpus)}")


if __name__ == "__main__":
    main()
