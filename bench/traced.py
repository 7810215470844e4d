"""Traced run: the workload's inputs replayed in process, layer by layer.

Spans are recorded from outside the package: module attributes that
``extract_all`` looks up at call time (``link``, the group feature
functions, the text-classifier wrappers), the store classes' ``lookup``
methods and ``tabular.protocol.grid_search`` are swapped for timing
wrappers, and the remaining public calls are timed where this file makes
them. Nothing under ``src/`` changes. Each span is
``(name, start, end, question id)``; spans stay in memory and are written to
``spans.jsonl`` in the work directory when the run ends.

The serve replay sends the same requests twice in process, first without
the wrappers and then with them; the difference of the two extraction
medians is the tracing overhead, printed on standard error.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

from client import ServeClient, decode, encode, percentile
from checks import check_eval_decisions, check_features, check_response, check_stream
from run import Tally, eval_requests, gate_threshold, prepare, program_env, serve_argv, serve_requests

IMPORT_REPEATS = 5
LOAD_REPEATS = 3
SERVE_SHARE = 0.5  # share of --seconds for the untraced serve closed loop
MIN_REPLAY = 2000
REPLAY_CHUNK = 100
FAMILIES = ("logreg", "knn", "mlp", "dtree", "gboost", "rforest")

PER_LAYER_UNITS = {
    "import.cli_s": "s",
    "config.load_config_ms": "ms",
    "stores.load_s": "s",
    "stores.rss_mb": "MB",
    "stores.lookup_us": "us",
    "stores.hit_ratio": "ratio",
    "linker.link_us": "us",
    "linker.mentions_per_question": "count",
    "textclf.load_models_s": "s",
    "textclf.qtype_us": "us",
    "textclf.complexity_us": "us",
    "textclf.relevance_us": "us",
    "features.extract_all_us": "us",
    "features.extract_all_p99_us": "us",
    "tabular.load_gate_ms": "ms",
    "tabular.predict_row_us": "us",
    "tabular.predict_batch_us_per_row": "us",
    **{f"tabular.grid_search_s.{f}": "s" for f in FAMILIES},
    "tabular.end_to_end_train_s": "s",
    "tabular.save_gate_ms": "ms",
    "evalgate.decide_us": "us",
    "evalgate.permutation_importance_s": "s",
    "evalgate.correlation_ms": "ms",
    "core.load_dataset_ms": "ms",
    "cli.read_features_tsv_ms": "ms",
    "cli.write_features_tsv_ms": "ms",
    "cli.serve_overhead_us": "us",
}

STORE_SPANS = ("stores.graph_features", "stores.popularity_features", "stores.frequency_features",
               "stores.knowledgability_features")


class Tracer:
    """In-memory spans plus the wrappers that record them."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, str]] = []
        self.qid = ""
        self.lookups = 0
        self.hits = 0
        self.mentions = 0
        self._installed: list[tuple[object, str, object]] = []

    def timed(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, time.perf_counter(), self.qid))

    def _swap(self, owner, attr: str, replacement) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a string or a function of the call's arguments.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self.timed(name if isinstance(name, str) else name(*args, **kwargs), original, *args, **kwargs)

        self._swap(owner, attr, traced)

    def count_lookups(self, store_cls) -> None:
        original = store_cls.lookup

        def lookup(store, key):
            value = original(store, key)
            self.lookups += 1
            self.hits += value is not None
            return value

        self._swap(store_cls, "lookup", lookup)

    def install(self) -> None:
        from ragate import features, stores, textclf
        from ragate.tabular import protocol

        link = features.link

        def traced_link(question, gaz):
            mentions = self.timed("linker.link", link, question, gaz)
            self.mentions += len(mentions)
            return mentions

        self._swap(features, "link", traced_link)
        for fn in ("graph_features", "popularity_features", "frequency_features", "knowledgability_features"):
            self.wrap(features, fn, f"stores.{fn}")
        for cls in (stores.TripleCountStore, stores.PopularityStore, stores.FrequencyStore, stores.KnowledgabilityStore):
            self.count_lookups(cls)
        self.wrap(features, "question_type_features", "textclf.qtype")
        self.wrap(features, "complexity_feature", "textclf.complexity")
        # relevance_score is bound as a default argument, so pass a traced scorer
        relevance = textclf.relevance_score
        context = features.context_relevance_features

        def scorer(question, text):
            return self.timed("textclf.relevance", relevance, question, text)

        self._swap(features, "context_relevance_features", lambda q, c, **kw: context(q, c, scorer=scorer, **kw))
        self.wrap(protocol, "grid_search", lambda family, *a, **kw: f"tabular.grid_search.{family}")

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def per_question(self, names) -> list[float]:
        """Summed duration of the named spans, per question id."""
        totals: dict[str, float] = defaultdict(float)
        for n, start, end, qid in self.spans:
            if n in names:
                totals[qid] += end - start
        return list(totals.values())

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, qid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "question": qid}) + "\n")


def _rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS line")


def _repeat(tracer: Tracer, name: str, times: int, fn, *args):
    """Call ``fn`` ``times`` times under span ``name``; returns the last result."""
    result = None
    for _ in range(times):
        result = None  # let the previous result go before the next call
        result = tracer.timed(name, fn, *args)
    return result


def _grouped(schema, values) -> dict:
    grouped: dict = {}
    for (name, group), value in zip(schema.entries, values):
        grouped.setdefault(group, {})[name] = float(value)
    return grouped


def _import_seconds(tally: Tally) -> list[float]:
    code = "import time; t = time.perf_counter(); import ragate.cli; print(time.perf_counter() - t)"
    out = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=program_env(), capture_output=True, text=True)
        tally.record("import", [] if proc.returncode == 0 else [proc.stderr.strip()[-300:]])
        if proc.returncode == 0:
            out.append(float(proc.stdout))
    return out


def _serve_closed_loop(world: str, work: str, model: str, requests, truth, threshold, tally: Tally,
                       seconds: float) -> list[float]:
    """Untraced closed loop against a serve subprocess; the latencies."""
    latencies = []
    client = ServeClient(serve_argv(model), world, program_env(), os.path.join(work, "serve.stderr"))
    try:
        deadline = time.perf_counter() + seconds
        i = 0
        while i < MIN_REPLAY or time.perf_counter() < deadline:
            request = requests[(1 + i) % len(requests)]
            start = time.perf_counter()
            line = client.ask(encode(request))
            latencies.append(time.perf_counter() - start)
            response = decode(line)
            tally.record("closed loop", check_response(request, response, truth[request["id"]], threshold))
            if response is None:
                raise RuntimeError("serve stopped answering")
            i += 1
    finally:
        client.close()
    return latencies


def traced_run(workload: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    work, world, truth = prepare(workload, seed)
    tally = Tally()
    tracer = Tracer()
    imports = _import_seconds(tally)

    from ragate.cli import read_features_tsv, write_features_tsv
    from ragate.config import build_schema, load_config, load_models, load_stores
    from ragate.core import QuestionRecord, load_dataset
    from ragate.evalgate import (
        correlation_matrix,
        decide,
        in_accuracy_metric,
        label_need_retrieval,
        permutation_importance,
    )
    from ragate.features import extract_all
    from ragate.tabular import TabularDataset, end_to_end_train, load_gate, load_grids, save_gate

    path = lambda name: os.path.join(world, name)  # noqa: E731
    threshold = gate_threshold(world)
    config = _repeat(tracer, "config.load_config", 5, load_config, path("config.yaml"))
    rss_before = _rss_mb()
    stores = tracer.timed("stores.load_stores", load_stores, config)
    stores_rss = _rss_mb() - rss_before
    stores = None
    stores = _repeat(tracer, "stores.load_stores", LOAD_REPEATS - 1, load_stores, config)
    models = _repeat(tracer, "textclf.load_models", LOAD_REPEATS, load_models, config)
    schema = build_schema(config)
    records = _repeat(tracer, "core.load_dataset", LOAD_REPEATS, load_dataset, path("train.jsonl"))
    eval_records = load_dataset(path("eval.jsonl"))

    def extract(record) -> np.ndarray:
        tracer.qid = record.id
        vector = tracer.timed("features.extract_all", extract_all, record, stores, models, schema, config.context_norm)
        tally.record("traced extract", check_features(_grouped(schema, vector.values), truth[record.id]))
        return vector.values

    tracer.install()
    try:
        X = np.array([extract(r) for r in records])
        X_eval = np.array([extract(r) for r in eval_records])
        tracer.qid = ""
        ids = [r.id for r in records]
        # every write goes to a new file, as in the end-to-end run
        for k in range(LOAD_REPEATS):
            features_path = os.path.join(work, f"features-{k}.tsv")
            tracer.timed("cli.write_features_tsv", write_features_tsv, features_path, ids, schema, X)
        _, entries, matrix = _repeat(tracer, "cli.read_features_tsv", LOAD_REPEATS, read_features_tsv, features_path)
        y = np.array([label_need_retrieval(r) for r in records], dtype=np.int64)
        data = TabularDataset(matrix, y, tuple(n for n, _ in entries))
        gate = tracer.timed(
            "tabular.end_to_end_train", end_to_end_train, data, records, load_grids(config.grids_path),
            master_seed=config.seed, val_size=config.val_size, feature_groups=tuple(g for _, g in entries),
        )
    finally:
        tracer.restore()
    tally.record("traced train", [] if len(gate.voting.families) == 2 else ["gate is not a voting pair"])
    for k in range(LOAD_REPEATS):
        model_path = os.path.join(work, f"model-{k}.json")
        tracer.timed("tabular.save_gate", save_gate, gate, model_path)
    gate = _repeat(tracer, "tabular.load_gate", 5, load_gate, model_path)

    for i in range(len(X_eval)):
        tracer.timed("tabular.predict_row", gate.predict_proba, X_eval[i : i + 1])
    scores = _repeat(tracer, "tabular.predict_batch", 5, gate.predict_proba, X_eval)
    y_eval = np.array([label_need_retrieval(r) for r in eval_records], dtype=np.int64)
    eval_data = TabularDataset(X_eval, y_eval, gate.feature_names)
    eval_truth = [truth[r.id] for r in eval_records]
    metric = in_accuracy_metric([t.correct_without for t in eval_truth], [t.correct_with for t in eval_truth], threshold)
    tracer.timed("evalgate.permutation_importance", permutation_importance, gate, eval_data, metric,
                 config.importance_repeats, config.seed)
    _repeat(tracer, "evalgate.correlation_matrix", 5, correlation_matrix, X_eval, y_eval)

    # the serve stream: a subprocess closed loop, then the same requests in process
    requests = serve_requests(world)
    latencies = _serve_closed_loop(world, work, model_path, requests, truth, threshold, tally, SERVE_SHARE * seconds)
    replay = [requests[(1 + i) % len(requests)] for i in range(len(latencies))]

    def serve_in_process(request: dict) -> dict:
        record = QuestionRecord(
            id=request["id"], question=request["question"], gold_answers=("unused",),
            answer_without_retrieval="", answer_with_retrieval="", contexts=tuple(request["contexts"]),
        )
        tracer.qid = request["id"]
        vector = tracer.timed("features.extract_all", extract_all, record, stores, models, schema, config.context_norm)
        decision = tracer.timed("evalgate.decide", decide, gate, vector, threshold)
        return {"id": record.id, "retrieve": decision.retrieve, "score": decision.score,
                "features": _grouped(schema, vector.values)}

    # each chunk runs untraced, then traced, so both passes see the same load
    untraced: list = []
    responses: list = []
    replay_from = len(tracer.spans)
    for lo in range(0, len(replay), REPLAY_CHUNK):
        chunk = replay[lo : lo + REPLAY_CHUNK]
        mark = len(tracer.spans)
        for request in chunk:
            serve_in_process(request)
        untraced += tracer.spans[mark:]
        del tracer.spans[mark:]
        tracer.install()
        try:
            responses += [serve_in_process(r) for r in chunk]
        finally:
            tracer.restore()
    replayed = tracer.spans[replay_from:]
    tracer.install()
    try:
        eval_responses = [serve_in_process(r) for r in eval_requests(world)]
    finally:
        tracer.restore()
    for reasons in check_stream(replay, responses, truth, threshold):
        tally.record("traced serve", reasons)
    for reasons in check_eval_decisions(eval_responses, scores, threshold):
        tally.record("traced eval decision", reasons)

    # serve's own cost: its latency less the untraced extract_all + decide
    serve_core = defaultdict(float)
    for n, start, end, qid in untraced:
        serve_core[qid] += end - start

    us = lambda name, q=50: percentile(tracer.durations(name), q) * 1e6  # noqa: E731
    ms = lambda name: statistics.median(tracer.durations(name)) * 1e3  # noqa: E731
    values = {
        "import.cli_s": statistics.median(imports),
        "config.load_config_ms": ms("config.load_config"),
        "stores.load_s": ms("stores.load_stores") / 1e3,
        "stores.rss_mb": stores_rss,
        "stores.lookup_us": percentile(tracer.per_question(STORE_SPANS), 50) * 1e6,
        "stores.hit_ratio": tracer.hits / tracer.lookups,
        "linker.link_us": us("linker.link"),
        "linker.mentions_per_question": tracer.mentions / len(tracer.durations("linker.link")),
        "textclf.load_models_s": ms("textclf.load_models") / 1e3,
        "textclf.qtype_us": us("textclf.qtype"),
        "textclf.complexity_us": us("textclf.complexity"),
        "textclf.relevance_us": percentile(tracer.per_question(("textclf.relevance",)), 50) * 1e6,
        "features.extract_all_us": us("features.extract_all"),
        "features.extract_all_p99_us": us("features.extract_all", 99),
        "tabular.load_gate_ms": ms("tabular.load_gate"),
        "tabular.predict_row_us": us("tabular.predict_row"),
        "tabular.predict_batch_us_per_row": ms("tabular.predict_batch") * 1e3 / len(X_eval),
        **{f"tabular.grid_search_s.{f}": sum(tracer.durations(f"tabular.grid_search.{f}")) for f in FAMILIES},
        "tabular.end_to_end_train_s": ms("tabular.end_to_end_train") / 1e3,
        "tabular.save_gate_ms": ms("tabular.save_gate"),
        "evalgate.decide_us": us("evalgate.decide"),
        "evalgate.permutation_importance_s": ms("evalgate.permutation_importance") / 1e3,
        "evalgate.correlation_ms": ms("evalgate.correlation_matrix"),
        "core.load_dataset_ms": ms("core.load_dataset"),
        "cli.read_features_tsv_ms": ms("cli.read_features_tsv"),
        "cli.write_features_tsv_ms": ms("cli.write_features_tsv"),
        "cli.serve_overhead_us": (percentile(latencies, 50) - percentile(list(serve_core.values()), 50)) * 1e6,
    }
    p50 = lambda spans: percentile([e - s for n, s, e, _ in spans if n == "features.extract_all"], 50) * 1e6  # noqa: E731
    print(
        f"{workload} seed {seed} traced: {len(replay)} replayed requests, extract_all p50 "
        f"{p50(untraced):.1f} us untraced, {p50(replayed):.1f} us traced; "
        f"{tally.attempted} operations, {tally.failed} failed",
        file=sys.stderr,
    )
    tracer.write(os.path.join(work, "spans.jsonl"))
    return tally, {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
