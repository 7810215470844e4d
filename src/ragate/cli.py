"""Command-line entry point: ingest, extract, train, evaluate, serve."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import sys

import numpy as np

from .config import ConfigError, RunConfig, build_schema, check_threshold, load_config, load_models, load_stores
from .core import DatasetError, QuestionRecord, answer_outcomes, load_dataset
from .evalgate import (
    LengthMismatch,
    evaluate_method,
    in_accuracy_metric,
    label_need_retrieval,
    permutation_importance,
    correlation_matrix,
    decide,
    render_report,
    standard_reports,
)
from .features import (
    FeatureSchema,
    ModelMissing,
    SchemaMismatch,
    extract_all,
    read_features_tsv,
    write_features_tsv,
)
from .stores import StoreError
from .tabular import (
    DegenerateData,
    EmptyGrid,
    InvalidHyperparameter,
    TabularDataset,
    canonical_key,
    end_to_end_train,
    load_gate,
    load_grids,
    save_gate,
)
from .textclf import DegenerateCorpus

_CLI_ERRORS = (
    ConfigError,
    DatasetError,
    StoreError,
    ModelMissing,
    SchemaMismatch,
    DegenerateData,
    DegenerateCorpus,
    InvalidHyperparameter,
    EmptyGrid,
    LengthMismatch,
    ValueError,
    OSError,
)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _out_dir(args, config: RunConfig) -> str:
    out = args.out or config.out_dir or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    config = load_config(args.config)
    stores = load_stores(config)
    lines = []
    if stores.triples is not None:
        lines.append(f"triples: {len(stores.triples.counts)} entities")
    if stores.pageviews is not None:
        lines.append(f"pageviews: {len(stores.pageviews.views)} entities")
    if stores.frequency is not None:
        lines.append(
            f"frequency: {len(stores.frequency.frequencies)} terms, total tokens {stores.frequency.total_tokens}"
        )
    if stores.knowledgability is not None:
        clamped = stores.knowledgability.clamp_warnings
        suffix = f", {clamped} scores clamped to [0, 100]" if clamped else ""
        lines.append(f"knowledgability: {len(stores.knowledgability.scores)} entities{suffix}")
    if stores.gazetteer is not None:
        lines.append(f"gazetteer: {len(stores.gazetteer.aliases)} aliases")
    if stores.sidecar:
        lines.append(f"sidecar: {len(stores.sidecar)} questions")
    if not lines:
        lines.append("no stores configured")
    print("\n".join(lines))
    return 0


def _extract_matrix(records, stores, models, schema, context_norm):
    rows = []
    for record in records:
        try:
            rows.append(extract_all(record, stores, models, schema, context_norm=context_norm).values)
        except (ModelMissing, SchemaMismatch, ValueError) as exc:
            raise type(exc)(f"question {record.id!r}: {exc}") from exc
    return np.array(rows) if rows else np.empty((0, len(schema)))


def cmd_extract(args) -> int:
    config = load_config(args.config)
    schema = build_schema(config)
    stores = load_stores(config)
    models = load_models(config)
    records = load_dataset(args.dataset)
    matrix = _extract_matrix(records, stores, models, schema, config.context_norm)
    out = _out_dir(args, config)
    path = os.path.join(out, "features.tsv")
    write_features_tsv(path, [r.id for r in records], schema, matrix)
    print(f"wrote {path} ({len(records)} rows, {len(schema)} features)")
    return 0


def _join_features(records, ids, matrix):
    index = {row_id: i for i, row_id in enumerate(ids)}
    missing = [r.id for r in records if r.id not in index]
    if missing:
        raise ValueError(f"feature table lacks rows for question ids {missing[:5]}")
    return matrix[[index[r.id] for r in records]]


def _render_history(provenance: dict) -> str:
    lines = ["# Gate training report", ""]
    lines.append(f"- master seed: {provenance['master_seed']}")
    lines.append(f"- per-setting seeds: {provenance['seeds']}")
    lines.append(f"- validation rows: {provenance['val_size']}")
    lines.append(f"- selected families: {' + '.join(provenance['selected'])}")
    lines.append("")
    lines.append("| Family | Validation InAcc | Best setting |")
    lines.append("| --- | --- | --- |")
    for family, score in provenance["ranking"]:
        best = provenance["families"][family]["best_params"]
        lines.append(f"| {family} | {score:.4f} | `{canonical_key(best)}` |")
    lines.append("")
    lines.append("## Search history")
    for family, _ in provenance["ranking"]:
        lines.append("")
        lines.append(f"### {family}")
        lines.append("")
        lines.append("| Setting | Mean validation InAcc |")
        lines.append("| --- | --- |")
        for entry in provenance["families"][family]["history"]:
            lines.append(f"| `{canonical_key(entry['params'])}` | {entry['score']:.4f} |")
    return "\n".join(lines) + "\n"


def cmd_train(args) -> int:
    config = load_config(args.config)
    records = load_dataset(args.dataset)
    ids, entries, matrix = read_features_tsv(args.features)
    X = _join_features(records, ids, matrix)
    y = np.array([label_need_retrieval(r) for r in records], dtype=np.int64)
    names = tuple(name for name, _ in entries)
    groups = tuple(group for _, group in entries)
    data = TabularDataset(X, y, names)
    grids = load_grids(config.grids_path)
    seed = args.seed if args.seed is not None else config.seed
    gate = end_to_end_train(
        data,
        records,
        grids,
        master_seed=seed,
        val_size=config.val_size,
        feature_groups=groups,
    )
    out = _out_dir(args, config)
    model_path = os.path.join(out, "model.json")
    save_gate(gate, model_path)
    report_path = os.path.join(out, "training_report.md")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(_render_history(gate.provenance))
    timings_path = os.path.join(out, "train_timings.json")
    _write(timings_path, json.dumps(gate.timings, indent=2, sort_keys=True) + "\n")
    print(f"wrote {model_path}")
    print(f"wrote {report_path}")
    print(f"wrote {timings_path}")
    print(f"selected families: {' + '.join(gate.provenance['selected'])}")
    return 0


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    threshold = check_threshold(args.threshold) if args.threshold is not None else config.threshold
    gate = load_gate(args.model)
    records = load_dataset(args.dataset)
    ids, entries, matrix = read_features_tsv(args.features)
    names = tuple(name for name, _ in entries)
    if names != tuple(gate.feature_names):
        raise SchemaMismatch("feature table columns do not match the model's training schema")
    X = _join_features(records, ids, matrix)
    seed = args.seed if args.seed is not None else config.seed

    proba = gate.predict_proba(X)
    decisions = [bool(p >= threshold) for p in proba]
    gate_report = evaluate_method("gate", decisions, records, config.cost_model.cost_for("gate"))
    reports = [gate_report] + standard_reports(records, config.cost_model)
    if args.include_references:
        reports.extend(config.references)

    y = np.array([label_need_retrieval(r) for r in records], dtype=np.int64)
    data = TabularDataset(X, y, names)
    metric = in_accuracy_metric(*answer_outcomes(records), threshold)
    importance = permutation_importance(gate, data, metric, repeats=config.importance_repeats, seed=seed)
    corr = correlation_matrix(X, y)

    out = _out_dir(args, config)
    meta = {
        "command": "evaluate",
        "seed": seed,
        "threshold": threshold,
        "dataset": {"path": args.dataset, "sha256": _sha256(args.dataset), "records": len(records)},
        "features_file": {"path": args.features, "sha256": _sha256(args.features)},
        "model": {"path": args.model, "sha256": _sha256(args.model)},
        "stores": {kind: {"path": p, "sha256": _sha256(p)} for kind, p in sorted(config.store_paths.items())},
        "schema": [[name, group] for name, group in zip(gate.feature_names, gate.feature_groups)],
        "cost_model": {
            "default": vars(config.cost_model.default),
            "methods": {k: vars(v) for k, v in sorted(config.cost_model.methods.items())},
        },
        "context_norm": config.context_norm,
        "importance_repeats": config.importance_repeats,
    }

    md_header = [
        "# Retrieval gate evaluation",
        "",
        f"- seed: {seed}",
        f"- threshold: {threshold}",
        f"- dataset: {args.dataset} ({len(records)} records, sha256 {meta['dataset']['sha256'][:12]})",
        f"- model: {args.model} (sha256 {meta['model']['sha256'][:12]})",
        f"- features: {len(names)} columns",
    ]
    # A blank line ends the list, so Markdown renders the table as a table.
    _write(os.path.join(out, "report.md"), "\n".join(md_header) + "\n\n" + render_report(reports, "markdown"))
    _write(os.path.join(out, "report.csv"), render_report(reports, "csv"))

    order = np.argsort(-importance, kind="stable")
    importance_lines = ["feature,score"]
    importance_lines += [f"{names[j]},{float(importance[j])!r}" for j in order]
    _write(os.path.join(out, "importance.csv"), "\n".join(importance_lines) + "\n")

    labels = list(names) + ["label"]
    corr_lines = ["," + ",".join(labels)]
    corr_lines += [labels[i] + "," + ",".join(repr(float(v)) for v in corr[i]) for i in range(len(labels))]
    _write(os.path.join(out, "correlation.csv"), "\n".join(corr_lines) + "\n")

    with open(os.path.join(out, "run_meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")

    if args.format == "csv":
        print(render_report(reports, "csv"), end="")
    else:
        print(render_report(reports, "markdown"), end="")
    return 0


def _parse_request(line: str, line_no: int):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from exc
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError("request must be an object")
    question = obj.get("question")
    if not isinstance(question, str):
        raise ValueError("request needs a string 'question'")
    contexts = obj.get("contexts", [])
    if not isinstance(contexts, list) or not all(isinstance(c, str) for c in contexts):
        raise ValueError("'contexts' must be a list of strings")
    overrides = obj.get("feature_overrides", {})
    if not isinstance(overrides, dict):
        raise ValueError("'feature_overrides' must be an object")
    feature_overrides: dict[str, float] = {}
    for key, value in overrides.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"override {key!r} must be a number")
        try:
            feature_overrides[str(key)] = float(value)
        except OverflowError:
            raise ValueError(f"override {key!r} is too large for a float") from None
    request_id = obj.get("id", f"line-{line_no}")
    return QuestionRecord(
        id=str(request_id),
        question=question,
        gold_answers=("unused",),
        answer_without_retrieval="",
        answer_with_retrieval="",
        contexts=tuple(contexts),
        feature_overrides=feature_overrides,
    )


def cmd_serve(args) -> int:
    config = load_config(args.config)
    threshold = check_threshold(args.threshold) if args.threshold is not None else config.threshold
    gate = load_gate(args.model)
    schema = FeatureSchema.from_entries(tuple(zip(gate.feature_names, gate.feature_groups)))
    stores = load_stores(config)
    models = load_models(config)

    def _shutdown(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _shutdown)

    line_no = 0
    try:
        for line in sys.stdin:
            line_no += 1
            if not line.strip():
                continue
            try:
                record = _parse_request(line, line_no)
                vector = extract_all(record, stores, models, schema, context_norm=config.context_norm)
                decision = decide(gate, vector, threshold)
                grouped: dict[str, dict[str, float]] = {}
                for (name, group), value in zip(schema.entries, vector.values):
                    grouped.setdefault(group, {})[name] = float(value)
                response = {
                    "id": record.id,
                    "retrieve": decision.retrieve,
                    "score": decision.score,
                    "features": grouped,
                }
            except (ValueError, ModelMissing, SchemaMismatch) as exc:
                response = {"error": {"line": line_no, "reason": str(exc)}}
            print(json.dumps(response, sort_keys=True, separators=(",", ":")), flush=True)
    except KeyboardInterrupt:
        pass
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


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
