"""Tests of the benchmark itself: generator determinism, output checks, percentiles."""

from __future__ import annotations

import dataclasses
import filecmp
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import run
import world
from checks import (
    check_eval_decisions,
    check_features_table,
    check_report,
    check_response,
    check_stream,
    load_truth,
    read_report,
)
from client import ServeClient, decode, encode, percentile
from run import ROOT, EndToEnd, Tally, eval_requests, gate_threshold, program_env, serve_argv, serve_requests

SMALL_SIZES = {"train": 150, "eval": 60, "serve": 40}


def _same_tree(a, b) -> bool:
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def test_large_unique_generator_is_seeded(tmp_path):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        world.build_large_unique(seed, str(tmp_path / name), SMALL_SIZES)
    assert _same_tree(tmp_path / "a", tmp_path / "b")
    # the seed draws the serve stream; stores, train and eval are the fixed world
    for name in ("serve.jsonl", "truth.tsv"):
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()
    for name in ("gazetteer.tsv", "frequency.tsv", "train.jsonl", "eval.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()


def test_large_unique_questions_are_distinct_and_linkable(tmp_path):
    world.build_large_unique(5, str(tmp_path), SMALL_SIZES)
    questions = []
    for name in ("train.jsonl", "eval.jsonl", "serve.jsonl"):
        with open(tmp_path / name, encoding="utf-8") as fh:
            questions += [json.loads(line)["question"] for line in fh]
    assert len(questions) == sum(SMALL_SIZES.values()) == len(set(questions))
    truth = load_truth(str(tmp_path / "truth.tsv"))
    assert len(truth) == len(questions)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """The small-repeat world, run through extract/train/evaluate and serve.

    The reduced grid replaces the mid-size one to keep the fixture quick.
    """
    world_dir = str(tmp_path_factory.mktemp("small-repeat"))
    world.build_small_repeat(9, world_dir, n_serve=50)
    with open(os.path.join(world_dir, "grids.yaml"), "w", encoding="utf-8") as fh:
        fh.write(world._load_make_synthetic().GRIDS_YAML)
    truth = load_truth(os.path.join(world_dir, "truth.tsv"))
    tally = Tally()
    pipeline = EndToEnd(world_dir, world_dir, truth, tally)
    round_min, run.ROUND_MIN = run.ROUND_MIN, 0.0  # each command once
    try:
        pipeline.commands(first=True)
    finally:
        run.ROUND_MIN = round_min
    assert tally.failed == 0, tally.reasons
    assert not any(pipeline.evaluate_runs)
    requests = serve_requests(world_dir)
    evals = eval_requests(world_dir)
    model = pipeline.latest("train", "model.json")
    client = ServeClient(serve_argv(model), world_dir, program_env(), os.path.join(world_dir, "serve.stderr"))
    try:
        lines, _, _ = client.pipeline([encode(r) for r in requests + evals])
    finally:
        assert client.close() == 0
    responses = [decode(x) for x in lines]

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ragate.cli import read_features_tsv
    from ragate.tabular import load_gate

    ids, _, matrix = read_features_tsv(pipeline.eval_features)
    scores = load_gate(model).predict_proba(matrix)
    assert ids == [r["id"] for r in evals]
    quality = pipeline.quality(responses[len(requests):])
    assert tally.failed == 0, tally.reasons
    assert quality["gate_inacc"] > 0.5
    return {
        "eval_features": pipeline.eval_features,
        "truth": truth,
        "threshold": gate_threshold(world_dir),
        "requests": requests,
        "responses": responses[: len(requests)],
        "evals": evals,
        "eval_responses": responses[len(requests):],
        "scores": scores,
        "report": read_report(pipeline.latest("evaluate", "report.csv")),
    }


def _stream_failures(served, responses) -> int:
    return sum(bool(r) for r in check_stream(served["requests"], responses, served["truth"], served["threshold"]))


def test_genuine_outputs_pass(served):
    assert _stream_failures(served, served["responses"]) == 0
    assert not any(check_eval_decisions(served["eval_responses"], served["scores"], served["threshold"]))
    decisions = {r["id"]: r["retrieve"] for r in served["eval_responses"]}
    eval_ids = [r["id"] for r in served["evals"]]
    assert check_report(served["report"], eval_ids, served["truth"], decisions) == []


def test_flipped_decision_is_rejected(served):
    responses = [dict(r) for r in served["responses"]]
    responses[3]["retrieve"] = not responses[3]["retrieve"]
    assert _stream_failures(served, responses) == 1
    evals = [dict(r) for r in served["eval_responses"]]
    evals[0]["retrieve"] = not evals[0]["retrieve"]
    assert sum(bool(r) for r in check_eval_decisions(evals, served["scores"], served["threshold"])) == 1


def test_popularity_one_count_off_is_rejected(served):
    request = served["requests"][0]
    response = json.loads(json.dumps(served["responses"][0]))
    views = served["truth"][request["id"]].views
    response["features"]["popularity"]["popularity_mean"] = math.log1p(views + 1)
    assert check_response(request, response, served["truth"][request["id"]], served["threshold"])


def test_popularity_one_count_off_in_truth_is_rejected(served):
    request = served["requests"][0]
    truth = served["truth"][request["id"]]
    off = dataclasses.replace(truth, views=truth.views - 1)
    assert check_response(request, served["responses"][0], off, served["threshold"])


def test_dropped_response_line_is_rejected(served):
    responses = served["responses"][:10] + served["responses"][11:]
    assert _stream_failures(served, responses) == len(served["requests"]) - 10


def test_edited_inacc_row_is_rejected(served):
    decisions = {r["id"]: r["retrieve"] for r in served["eval_responses"]}
    eval_ids = [r["id"] for r in served["evals"]]
    for method in ("gate", "never_rag", "always_rag", "ideal"):
        report = {m: dict(row) for m, row in served["report"].items()}
        report[method]["in_accuracy"] += 1.0 / len(eval_ids)
        assert check_report(report, eval_ids, served["truth"], decisions), method


def test_extract_output_is_checked_against_truth(served):
    path = served["eval_features"]
    eval_ids = [r["id"] for r in served["evals"]]
    assert check_features_table(path, eval_ids, served["truth"]) == []
    assert check_features_table(path, eval_ids[1:], served["truth"])


@given(st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=300))
def test_p99_is_never_below_p50(samples):
    assert percentile(samples, 99) >= percentile(samples, 50)
    assert min(samples) <= percentile(samples, 50) <= max(samples)


_latency = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@given(st.lists(st.lists(_latency, min_size=1, max_size=run.WINDOW), min_size=1, max_size=40))
def test_reported_p99_is_never_below_reported_p50(windows):
    # serve_p50_ms and serve_p99_ms are medians over closed-loop windows
    p50 = statistics.median(percentile(w, 50) for w in windows)
    p99 = statistics.median(percentile(w, 99) for w in windows)
    assert p99 >= p50


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-repeat", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
