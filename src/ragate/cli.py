"""Command-line entry point: ingest, extract, train, evaluate, serve."""

from __future__ import annotations

import argparse
import os
import signal
import sys
from dataclasses import replace

from .config import RunConfig, build_schema, check_seed, check_threshold, load_config, load_models, load_stores
from .core import QuestionRecord, RagateError, answer_outcomes, decode_json, load_dataset, parse_question
from .evalgate import (
    error_line,
    evaluate_method,
    in_accuracy_metric,
    load_labelled_table,
    permutation_importance,
    decide,
    response_line,
    standard_reports,
    write_evaluation,
)
from .features import (
    FeatureSchema, ModelMissing, SchemaMismatch, check_table_ids, extract_all, extract_matrix, write_features_tsv,
)
from .features import read_features_tsv  # noqa: F401 - bench/run.py, test_bench.py and traced.py import it from here
from .stores import STORE_KINDS
from .tabular.grids import load_grids
from .tabular.protocol import end_to_end_train, load_gate, write_training_files

_CLI_ERRORS = (RagateError, ValueError, OSError)


def _out_dir(args, config: RunConfig) -> str:
    out = args.out or config.out_dir or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_ingest(args) -> int:
    config = load_config(args.config)
    stores = load_stores(config)
    lines = []
    for kind in STORE_KINDS:
        store = getattr(stores, kind)
        if store is None:
            continue
        detail = f"terms, total tokens {store.total_tokens}" if kind == "frequency" else "entities"
        clamped = getattr(store, "clamp_warnings", 0)
        lines.append(f"{kind}: {len(store)} {detail}" + (f", {clamped} scores clamped to [0, 100]" if clamped else ""))
    if stores.gazetteer is not None:
        lines.append(f"gazetteer: {len(stores.gazetteer.aliases)} aliases")
    if stores.sidecar:
        lines.append(f"sidecar: {len(stores.sidecar)} questions")
    if not lines:
        lines.append("no stores configured")
    print("\n".join(lines))
    return 0


def cmd_extract(args) -> int:
    config = load_config(args.config)
    schema = build_schema(config)
    stores = load_stores(config)
    models = load_models(config)
    records = load_dataset(args.dataset)
    check_table_ids(r.id for r in records)
    matrix = extract_matrix(records, stores, models, schema, config.context_norm)
    out = _out_dir(args, config)
    path = os.path.join(out, "features.tsv")
    write_features_tsv(path, [r.id for r in records], schema, matrix)
    print(f"wrote {path} ({len(records)} rows, {len(schema)} features)")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config)
    seed = check_seed(args.seed) if args.seed is not None else config.seed
    records, data, groups = load_labelled_table(args.dataset, args.features)
    try:
        FeatureSchema(tuple(zip(data.feature_names, groups)))  # the layout serve will rebuild from the gate
    except ValueError as exc:
        raise ValueError(f"{args.features}: {exc}") from None
    grids = load_grids(config.grids_path)
    gate = end_to_end_train(data, records, grids, master_seed=seed, val_size=config.val_size, feature_groups=groups)
    for path in write_training_files(gate, _out_dir(args, config)):
        print(f"wrote {path}")
    print(f"selected families: {' + '.join(gate.provenance['selected'])}")
    return 0


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    threshold = check_threshold(args.threshold) if args.threshold is not None else config.threshold
    seed = check_seed(args.seed) if args.seed is not None else config.seed
    gate = load_gate(args.model)
    records, data, _ = load_labelled_table(args.dataset, args.features, gate.feature_names)

    decisions = [bool(p >= threshold) for p in gate.predict_proba(data.X)]
    gate_report = evaluate_method("gate", decisions, records, config.cost_model.cost_for("gate"))
    reports = [gate_report] + standard_reports(records, config.cost_model)
    if args.include_references:
        reports.extend(config.references)

    metric = in_accuracy_metric(*answer_outcomes(records), threshold)
    importance = permutation_importance(gate, data, metric, repeats=config.importance_repeats, seed=seed)
    tables = write_evaluation(
        _out_dir(args, config), config=config, dataset=args.dataset, features=args.features, model=args.model,
        gate=gate, data=data, seed=seed, threshold=threshold, reports=reports, importance=importance,
    )
    print(tables["csv" if args.format == "csv" else "markdown"], end="")
    return 0


def _parse_request(line: str, line_no: int) -> QuestionRecord:
    """A serve request line as a record, checked as a dataset line is; its id
    is its ``id`` field as a string, else ``line-N``. Raises only ValueError."""
    obj = decode_json(line)
    record = parse_question(obj, request=True)
    return replace(record, id=str(obj.get("id", f"line-{line_no}")))


def cmd_serve(args) -> int:
    config = load_config(args.config)
    threshold = check_threshold(args.threshold) if args.threshold is not None else config.threshold
    gate = load_gate(args.model)
    schema = FeatureSchema(tuple(zip(gate.feature_names, gate.feature_groups)))
    stores = load_stores(config)
    models = load_models(config)

    def _shutdown(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _shutdown)

    try:
        for line_no, line in enumerate(sys.stdin, start=1):
            if not line.strip():
                continue
            try:
                record = _parse_request(line, line_no)
                vector = extract_all(record, stores, models, schema, context_norm=config.context_norm)
                response = response_line(record.id, vector, decide(gate, vector, threshold))
            except (ValueError, ModelMissing, SchemaMismatch) as exc:
                response = error_line(line_no, str(exc))
            print(response, flush=True)
    except KeyboardInterrupt:
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ragate",
        description="Decide per question whether a RAG pipeline should retrieve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run config file (YAML)")
        p.set_defaults(func=func)
        return p

    add("ingest", cmd_ingest, "load and validate the configured stores")

    p = add("extract", cmd_extract, "compute per-question features to features.tsv")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", default=None, help="output directory")

    p = add("train", cmd_train, "grid-search families and fit the voting gate")
    p.add_argument("--dataset", required=True)
    p.add_argument("--features", required=True, help="features.tsv from extract")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)

    p = add("evaluate", cmd_evaluate, "score a gate and emit reports/analyses")
    p.add_argument("--dataset", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--format", choices=("md", "csv"), default="md")
    p.add_argument("--include-references", action="store_true")

    p = add("serve", cmd_serve, "answer decide-requests over stdin/stdout")
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=float, default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CLI_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
