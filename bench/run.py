"""ragate benchmark: one command per workload, end to end or traced.

    python3 bench/run.py --workload large-unique --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run builds the workload's seeded world and then runs
``ROUNDS`` rounds. Each round times ``ragate extract`` (train set), ``train``
and ``evaluate`` as subprocesses, starts ``ragate serve`` cold, and drives
that server through closed-loop and pipelined blocks in turn; the blocks of
all rounds share ``--seconds``. The last server also answers the eval
questions. Every output is checked, and each metric is a median over the
rounds or blocks, so a burst of load from outside the benchmark moves one
sample, not the result. With ``--trace 1`` the run replays the same inputs
in process with spans around the calls into each module and reports the
per-layer metrics instead (see ``traced.py``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "_work")

ROUNDS = 3
ROUND_MIN = 1.5  # seconds each pipeline command runs for, at least once, in a round
COMMAND_BUDGET = 12.0  # seconds of one command after which later rounds skip it
CLOSED_SHARE = 0.7  # share of --seconds given to the closed-loop blocks
BLOCKS = 4  # closed-loop and pipelined blocks, in turn, per server
WINDOW = 200  # requests per closed-loop window and per pipelined batch

E2E_UNITS = {
    "setup_s": "s",
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
    "serve_qps": "req/s",
    "extract_qps": "questions/s",
    "train_s": "s",
    "evaluate_s": "s",
    "peak_rss_mb": "MB",
    "gate_inacc": "fraction",
    "gate_retrieval_calls": "calls/question",
}


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {'; '.join(reasons[:3])}")


def program_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def serve_requests(world: str) -> list[dict]:
    return read_jsonl(os.path.join(world, "serve.jsonl"))


def eval_requests(world: str) -> list[dict]:
    return [
        {"id": r["id"], "question": r["question"], "contexts": r["contexts"]}
        for r in read_jsonl(os.path.join(world, "eval.jsonl"))
    ]


def gate_threshold(world: str) -> float:
    import yaml

    with open(os.path.join(world, "config.yaml"), encoding="utf-8") as fh:
        return float(yaml.safe_load(fh).get("threshold", 0.5))


def serve_argv(model: str) -> list[str]:
    return [sys.executable, "-m", "ragate.cli", "serve", "--config", "config.yaml", "--model", model]


def ragate_cli(args: list[str], cwd: str) -> tuple[float, list[str]]:
    """Run one ragate command; returns (wall seconds, failure reasons)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ragate.cli", *args], cwd=cwd, env=program_env(), capture_output=True, text=True
    )
    wall = time.perf_counter() - start
    reasons = [] if proc.returncode == 0 else [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    return wall, reasons


def prepare(workload: str, seed: int) -> tuple[str, str, dict]:
    """A fresh work directory holding the workload's world; returns (work, world, truth)."""
    import world as worlds
    from checks import load_truth

    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    world_dir = os.path.join(work, "world")
    worlds.build(workload, seed, world_dir)
    return work, world_dir, load_truth(os.path.join(world_dir, "truth.tsv"))


class EndToEnd:
    """One workload's pipeline commands and serve blocks, round by round."""

    def __init__(self, work: str, world: str, truth: dict, tally: Tally):
        from client import encode

        self.work, self.world, self.truth, self.tally = work, world, truth, tally
        self.threshold = gate_threshold(world)
        self.requests = serve_requests(world)
        self.payloads = [encode(r) for r in self.requests]
        self.next = 1  # the stream's first request is the cold-start request
        self.train_ids = [r["id"] for r in read_jsonl(os.path.join(world, "train.jsonl"))]
        self.evals = eval_requests(world)
        self.walls: dict[str, list[float]] = {"extract": [], "train": [], "evaluate": []}
        self.outputs: dict[str, list[str]] = {"extract": [], "train": [], "evaluate": []}
        self.runs = itertools.count()
        self.evaluate_runs: list[list[str]] = []  # counted once report.csv is checked
        self.eval_features = ""
        self.setups: list[float] = []
        self.p50s: list[float] = []
        self.p99s: list[float] = []
        self.rates: list[float] = []
        self.latencies: list[float] = []  # every closed-loop latency, for the log

    def _fresh(self, name: str) -> str:
        """A new output directory for one command run.

        Rewriting a file that an earlier run wrote costs a truncate whose
        time belongs to the file system, not to ragate (about 0.3 s per
        ``evaluate`` on ext4 mounted with ``discard``), so no run writes
        over another's output.
        """
        path = os.path.join(self.work, "out", f"{next(self.runs):03d}-{name}")
        os.makedirs(path)
        return path

    def _command(self, name: str, args: list[str], output: str, check=lambda path: []) -> list[list[str]]:
        """Run a command for at least ROUND_MIN seconds, once COMMAND_BUDGET is spent not at all.

        Returns the failure reasons of each run; ``check`` looks at the
        ``output`` file of a run that exited 0.
        """
        walls = self.walls[name]
        failures = []
        spent = 0.0
        while sum(walls) < COMMAND_BUDGET:
            out = self._fresh(name)
            self.outputs[name].append(out)
            wall, reasons = ragate_cli([name, *args, "--out", out], self.world)
            walls.append(wall)
            spent += wall
            failures.append(reasons or check(os.path.join(out, output)))
            if spent >= ROUND_MIN:
                break
        return failures

    def latest(self, name: str, output: str) -> str:
        return os.path.join(self.outputs[name][-1], output)

    def commands(self, first: bool) -> None:
        from checks import check_features_table

        config = ["--config", "config.yaml"]
        for reasons in self._command(
            "extract", [*config, "--dataset", "train.jsonl"], "features.tsv",
            lambda path: check_features_table(path, self.train_ids, self.truth),
        ):
            self.tally.record("extract train", reasons)
        for reasons in self._command(
            "train",
            [*config, "--dataset", "train.jsonl", "--features", self.latest("extract", "features.tsv")],
            "model.json",
        ):
            self.tally.record("train", reasons)
        if first:
            out = self._fresh("extract-eval")
            self.eval_features = os.path.join(out, "features.tsv")
            _, reasons = ragate_cli(["extract", *config, "--dataset", "eval.jsonl", "--out", out], self.world)
            eval_ids = [r["id"] for r in self.evals]
            self.tally.record("extract eval", reasons or check_features_table(self.eval_features, eval_ids, self.truth))
        self.evaluate_runs += self._command(
            "evaluate",
            [
                *config, "--dataset", "eval.jsonl", "--features", self.eval_features,
                "--model", self.latest("train", "model.json"), "--format", "csv",
            ],
            "report.csv",
        )

    def _take(self, n: int) -> list[int]:
        idx = [(self.next + j) % len(self.requests) for j in range(n)]
        self.next += n
        return idx

    def _check_stream(self, what: str, requests: list[dict], lines: list[bytes]) -> list[dict]:
        from checks import check_stream
        from client import decode

        responses = [decode(x) for x in lines]
        for reasons in check_stream(requests, responses, self.truth, self.threshold):
            self.tally.record(what, reasons)
        if len(lines) < len(requests):
            raise RuntimeError(f"serve stopped answering ({what})")
        return responses

    def _closed_block(self, client, seconds: float) -> None:
        """Windows of WINDOW requests, until ``seconds`` pass; the next
        request is sent only after the previous answer arrived."""
        from client import percentile

        deadline = time.perf_counter() + seconds
        while True:
            idx = self._take(WINDOW)
            latencies, lines = [], []
            for i in idx:
                start = time.perf_counter()
                line = client.ask(self.payloads[i])
                latencies.append(time.perf_counter() - start)
                if line is None:
                    break
                lines.append(line)
            self._check_stream("closed loop", [self.requests[i] for i in idx], lines)
            self.p50s.append(percentile(latencies, 50))
            self.p99s.append(percentile(latencies, 99))
            self.latencies += latencies
            if time.perf_counter() >= deadline:
                break

    def _pipelined_block(self, client, seconds: float) -> None:
        """WINDOW requests written ahead at a time, until ``seconds`` pass."""
        deadline = time.perf_counter() + seconds
        while True:
            idx = self._take(WINDOW)
            lines, first_write, last_read = client.pipeline([self.payloads[i] for i in idx])
            self.rates.append(len(lines) / (last_read - first_write))
            self._check_stream("pipelined", [self.requests[i] for i in idx], lines)
            if time.perf_counter() >= deadline:
                break

    def serve(self, seconds: float, last: bool) -> dict | None:
        """Cold start, then closed-loop and pipelined blocks in turn, on one server.

        The last round's server also answers the eval questions; their
        responses and the server's peak RSS are returned.
        """
        from client import ServeClient, encode

        model = self.latest("train", "model.json")
        client = ServeClient(serve_argv(model), self.world, program_env(), os.path.join(self.work, "serve.stderr"))
        try:
            line = client.ask(self.payloads[0])
            self.setups.append(time.perf_counter() - client.spawned)
            self._check_stream("cold start", self.requests[:1], [line] if line is not None else [])

            for _ in range(BLOCKS):
                self._closed_block(client, CLOSED_SHARE * seconds / BLOCKS)
                self._pipelined_block(client, (1.0 - CLOSED_SHARE) * seconds / BLOCKS)

            if not last:
                return None
            lines, _, _ = client.pipeline([encode(r) for r in self.evals])
            return {"responses": self._check_stream("eval question", self.evals, lines), "peak": client.peak_rss_mb()}
        finally:
            client.close()

    def quality(self, eval_responses: list[dict]) -> dict:
        """Serve's eval decisions against the batch gate, then report.csv."""
        from ragate.cli import read_features_tsv
        from ragate.tabular import load_gate

        from checks import check_eval_decisions, check_report, read_report

        ids, _, matrix = read_features_tsv(self.eval_features)
        row = {qid: i for i, qid in enumerate(ids)}
        gate = load_gate(self.latest("train", "model.json"))
        scores = gate.predict_proba(matrix[[row[r["id"]] for r in self.evals]])
        for reasons in check_eval_decisions(eval_responses, scores, self.threshold):
            self.tally.record("eval decision", reasons)

        decisions = {r["id"]: r["retrieve"] for r in eval_responses if "error" not in r}
        eval_ids = [r["id"] for r in self.evals]
        report: dict = {}
        for out, run_reasons in zip(self.outputs["evaluate"], self.evaluate_runs):
            if not run_reasons:
                report = read_report(os.path.join(out, "report.csv"))
                run_reasons = (
                    check_report(report, eval_ids, self.truth, decisions)
                    if len(decisions) == len(eval_ids)
                    else ["serve did not decide every eval question"]
                )
            self.tally.record("evaluate", run_reasons)
        gate_row = report.get("gate", {"in_accuracy": 0.0, "retrieval_calls": 0.0})
        return {"gate_inacc": gate_row["in_accuracy"], "gate_retrieval_calls": gate_row["retrieval_calls"]}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    from client import percentile

    phases = {"world": 0.0, "commands": 0.0, "serve": 0.0}
    mark = time.perf_counter()

    def lap(phase: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[phase] += now - mark
        mark = now

    work, world_dir, truth = prepare(workload, seed)
    lap("world")
    tally = Tally()
    run = EndToEnd(work, world_dir, truth, tally)
    gc.freeze()  # the loaded inputs are never collected; keep the client's pauses short
    for r in range(ROUNDS):
        run.commands(first=r == 0)
        lap("commands")
        last = run.serve(seconds / ROUNDS, last=r == ROUNDS - 1)
        lap("serve")
    values = {
        "setup_s": statistics.median(run.setups),
        # every window's p99 is at least its p50, so the medians keep that order
        "serve_p50_ms": statistics.median(run.p50s) * 1e3,
        "serve_p99_ms": statistics.median(run.p99s) * 1e3,
        "serve_qps": statistics.median(run.rates),
        "extract_qps": len(run.train_ids) / statistics.median(run.walls["extract"]),
        "train_s": statistics.median(run.walls["train"]),
        "evaluate_s": statistics.median(run.walls["evaluate"]),
        "peak_rss_mb": last["peak"],
        **run.quality(last["responses"]),
    }
    print(
        f"{workload} seed {seed}: {len(run.latencies)} closed-loop requests in {len(run.p99s)} windows "
        f"(p99 of all of them {percentile(run.latencies, 99) * 1e3:.3f} ms), {len(run.rates)} pipelined batches, "
        f"runs of extract/train/evaluate {'/'.join(str(len(w)) for w in run.walls.values())}; "
        f"wall s: {', '.join(f'{k} {v:.1f}' for k, v in phases.items())}; "
        f"{tally.attempted} operations, {tally.failed} failed",
        file=sys.stderr,
    )
    return tally, {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ragate benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True, choices=("large-unique", "small-repeat"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ragate", "cli.py")):
        print(f"error: no ragate sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH)
    sys.path.insert(0, SRC)
    if args.trace:
        from traced import traced_run

        tally, metrics = traced_run(args.workload, args.seed, args.seconds)
    else:
        tally, metrics = end_to_end(args.workload, args.seed, args.seconds)
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
