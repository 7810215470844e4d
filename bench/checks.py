"""Output checks of the benchmark, against ground truth or method properties.

Nothing here compares with a stored copy of earlier output. Each check
returns a list of reasons (empty when the output is right), so the caller
can count the operation that produced the output as failed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

CONTEXT_NORM = 512.0  # ragate's default context_length divisor
REL_TOL = 1e-12
SIMPLEX_TOL = 1e-9
SCORE_TOL = 1e-9


@dataclass(frozen=True)
class Truth:
    """Generated facts about one question (None where a store has no row)."""

    kg_id: str
    subject_count: int | None
    object_count: int | None
    views: int | None
    knowledgability: float | None
    context_tokens: int
    correct_without: bool
    correct_with: bool


def _opt_int(text: str) -> int | None:
    return int(text) if text else None


def load_truth(path: str) -> dict[str, Truth]:
    truth = {}
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            qid, kg, subj, obj, views, know, tokens, cwo, cw = line.rstrip("\n").split("\t")
            truth[qid] = Truth(
                kg_id=kg,
                subject_count=_opt_int(subj),
                object_count=_opt_int(obj),
                views=_opt_int(views),
                knowledgability=float(know) if know else None,
                context_tokens=int(tokens),
                correct_without=cwo == "1",
                correct_with=cw == "1",
            )
    return truth


def _close(got, want: float) -> bool:
    return isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=REL_TOL)


def _log_count(count: int | None) -> float:
    # a store miss aggregates an empty list, which ragate maps to 0
    return math.log1p(count) if count is not None else 0.0


def check_features(grouped: dict, truth: Truth) -> list[str]:
    """Feature values of one question against the entity it was built from."""
    want = {
        "graph_subject": _log_count(truth.subject_count),
        "graph_object": _log_count(truth.object_count),
        "popularity": _log_count(truth.views),
        "knowledgability": truth.knowledgability / 100.0 if truth.knowledgability is not None else 0.0,
    }
    reasons = []
    for group, prefixes in (
        ("graph", ("graph_subject", "graph_object")),
        ("popularity", ("popularity",)),
        ("knowledgability", ("knowledgability",)),
    ):
        values = grouped.get(group, {})
        for prefix in prefixes:
            names = [n for n in values if n.startswith(prefix + "_")]
            if not names:
                reasons.append(f"no {prefix} features")
            reasons += [f"{n}={values[n]!r}, want {want[prefix]!r}" for n in names if not _close(values[n], want[prefix])]
    length = grouped.get("context", {}).get("context_length")
    if not _close(length, truth.context_tokens / CONTEXT_NORM):
        reasons.append(f"context_length={length!r}, want {truth.context_tokens}/{CONTEXT_NORM:g}")
    qtype = grouped.get("qtype", {})
    total = math.fsum(qtype.values()) if qtype else float("nan")
    if not abs(total - 1.0) <= SIMPLEX_TOL:
        reasons.append(f"question-type block sums to {total!r}")
    return reasons


def check_response(request: dict, response: dict | None, truth: Truth, threshold: float) -> list[str]:
    """One serve response against its request and the question's truth."""
    if response is None:
        return ["no response"]
    if "error" in response:
        return [f"error line {response['error']!r}"]
    reasons = []
    if response.get("id") != request["id"]:
        reasons.append(f"id {response.get('id')!r}, want {request['id']!r}")
    score, retrieve = response.get("score"), response.get("retrieve")
    if not isinstance(score, float) or not 0.0 <= score <= 1.0:
        reasons.append(f"score {score!r} is not a probability")
    elif retrieve is not (score >= threshold):
        reasons.append(f"retrieve={retrieve!r} with score {score!r} and threshold {threshold!r}")
    return reasons + check_features(response.get("features", {}), truth)


def check_stream(requests: list[dict], responses: list, truth: dict[str, Truth], threshold: float) -> list[list[str]]:
    """Per-request reasons: one response per request, in order."""
    out = []
    for i, request in enumerate(requests):
        response = responses[i] if i < len(responses) else None
        out.append(check_response(request, response, truth[request["id"]], threshold))
    if len(responses) > len(requests) and out:
        out[-1] = out[-1] + [f"{len(responses) - len(requests)} extra response lines"]
    return out


def read_features_table(path: str) -> tuple[list[str], list[dict]]:
    """features.tsv as (ids, per-row {group: {name: value}})."""
    groups = None
    header = None
    ids, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# groups:"):
                groups = line[len("# groups:"):].split()
            elif line.startswith("#") or not line:
                continue
            elif header is None:
                header = line.split("\t")[1:]
            else:
                cols = line.split("\t")
                grouped: dict = {}
                for name, group, value in zip(header, groups, cols[1:]):
                    grouped.setdefault(group, {})[name] = float(value)
                ids.append(cols[0])
                rows.append(grouped)
    return ids, rows


def check_features_table(path: str, expected_ids: list[str], truth: dict[str, Truth]) -> list[str]:
    """An extract output: one row per dataset record, in order, with true values."""
    ids, rows = read_features_table(path)
    if ids != expected_ids:
        return [f"feature table has {len(ids)} rows, ids differ from the {len(expected_ids)} records"]
    reasons = []
    for qid, grouped in zip(ids, rows):
        reasons += [f"{qid}: {r}" for r in check_features(grouped, truth[qid])]
    return reasons


def check_eval_decisions(responses: list[dict], gate_scores, threshold: float) -> list[list[str]]:
    """Serve's decision on each eval question equals the batch gate's."""
    out = []
    for response, batch_score in zip(responses, gate_scores):
        reasons = []
        if "error" in response:
            reasons.append("error line")
        else:
            if response["retrieve"] is not bool(batch_score >= threshold):
                reasons.append(f"{response['id']}: serve retrieve={response['retrieve']}, batch score {batch_score!r}")
            if not abs(response["score"] - batch_score) <= SCORE_TOL:
                reasons.append(f"{response['id']}: serve score {response['score']!r}, batch score {batch_score!r}")
        out.append(reasons)
    return out


def read_report(path: str) -> dict[str, dict[str, float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return {
            row["method"]: {k: float(v) for k, v in row.items() if k != "method"}
            for row in csv.DictReader(fh)
        }


def check_report(report: dict, eval_ids: list[str], truth: dict[str, Truth], decisions: dict[str, bool]) -> list[str]:
    """report.csv rows against the truth and against serve's decisions."""
    n = len(eval_ids)
    cwo = [truth[q].correct_without for q in eval_ids]
    cw = [truth[q].correct_with for q in eval_ids]
    want = {
        "never_rag": (sum(cwo) / n, 0.0),
        "always_rag": (sum(cw) / n, 1.0),
        "ideal": (sum(a or b for a, b in zip(cwo, cw)) / n, sum(b and not a for a, b in zip(cwo, cw)) / n),
        "gate": (
            sum(b if decisions[q] else a for q, a, b in zip(eval_ids, cwo, cw)) / n,
            sum(decisions[q] for q in eval_ids) / n,
        ),
    }
    reasons = []
    for method, (inacc, rc) in want.items():
        row = report.get(method)
        if row is None:
            reasons.append(f"no {method} row")
            continue
        if not _close(row["in_accuracy"], inacc):
            reasons.append(f"{method} InAcc {row['in_accuracy']!r}, want {inacc!r}")
        if not _close(row["retrieval_calls"], rc):
            reasons.append(f"{method} RC {row['retrieval_calls']!r}, want {rc!r}")
    if "gate" in report and "always_rag" in report and report["gate"]["in_accuracy"] < report["always_rag"]["in_accuracy"]:
        reasons.append("gate InAcc is below always_rag's: the planted rule was not recovered")
    return reasons
