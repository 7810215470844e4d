"""Command-line pipeline: ingest -> extract -> train -> evaluate -> serve."""

import io
import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ragate.cli import _parse_request, main, read_features_tsv, write_features_tsv
from ragate.config import _TOP_LEVEL_KEYS, ConfigError, load_config
from ragate.core import DatasetError, load_dataset
from ragate.features import default_schema

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAKE_SYNTHETIC = os.path.join(ROOT, "scripts", "make_synthetic.py")

RARE = [("Q1", "zork"), ("Q2", "quux blim"), ("Q3", "vexal"), ("Q4", "prindle vast")]
POPULAR = [("Q5", "london"), ("Q6", "paris"), ("Q7", "blue whale"), ("Q8", "mount tall")]

TEMPLATES = [
    "what is the capital of {a}",
    "how many people live in {a}",
    "who founded {a}",
    "when was {a} established",
    "is {a} bigger than a pond",
]


def build_world(root):
    """A small planted-rule corpus: rare entities need retrieval."""
    root.mkdir(parents=True, exist_ok=True)

    def tsv(name, header, rows):
        path = root / name
        lines = [header] + [("\t".join(str(c) for c in row)) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    entities = [(kg, alias, False) for kg, alias in RARE] + [(kg, alias, True) for kg, alias in POPULAR]
    tsv("triples.tsv", "kg_id\tsubject_count\tobject_count", [(kg, 500 if pop else 2, 300 if pop else 1) for kg, _, pop in entities])
    tsv("pageviews.tsv", "kg_id\tviews", [(kg, 100000 if pop else 10) for kg, _, pop in entities])
    tsv("knowledgability.tsv", "kg_id\tscore", [(kg, 95 if pop else 5) for kg, _, pop in entities])
    tsv("gazetteer.tsv", "alias\tkg_id", [(alias, kg) for kg, alias, _ in entities])

    freq_rows = []
    for kg, alias, pop in entities:
        for word in alias.split():
            freq_rows.append((word, 5000 if pop else 3))
    for word in ("what", "is", "the", "capital", "of", "how", "many", "people", "live",
                 "in", "who", "founded", "when", "was", "established", "bigger", "than",
                 "a", "pond"):
        freq_rows.append((word, 800))
    freq_rows.append(("__total__", 1_000_000))
    tsv("frequency.tsv", "term\tcount", freq_rows)

    records = []
    for i in range(60):
        kg, alias, popular = entities[i % len(entities)]
        question = TEMPLATES[i % len(TEMPLATES)].format(a=alias)
        gold = f"fact {i}"
        records.append(
            {
                "id": f"q{i:03d}",
                "question": question,
                "gold_answers": [gold],
                "answer_without_retrieval": gold if popular else "i do not know",
                "answer_with_retrieval": gold,
                "contexts": [f"notes about {alias} say {gold}", "unrelated filler text"],
            }
        )
    dataset = root / "dataset.jsonl"
    dataset.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")

    (root / "grids.yaml").write_text(
        "logreg:\n  C: [1.0]\n  max_iter: [300]\ndtree:\n  max_depth: [3]\n", encoding="utf-8"
    )

    (root / "config.yaml").write_text(
        "\n".join(
            [
                "stores:",
                "  triples: triples.tsv",
                "  pageviews: pageviews.tsv",
                "  frequency: frequency.tsv",
                "  knowledgability: knowledgability.tsv",
                "gazetteer: gazetteer.tsv",
                "models:",
                "  qtype: builtin",
                "  complexity: builtin",
                "grids: grids.yaml",
                "seed: 3",
                "threshold: 0.5",
                "val_size: 24",
                "importance_repeats: 2",
                "cost_model:",
                "  default: {pflops_per_llm_call: 0.0181}",
                "  methods:",
                "    gate: {pflops_feature_pipeline: 0.00002}",
                "references:",
                "  - {method: flare, in_accuracy: 0.42, lm_calls: 2.0, retrieval_calls: 1.0, mean_pflops: 0.09}",
                "",
            ]
        ),
        encoding="utf-8",
    )
    return root


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = build_world(tmp_path_factory.mktemp("world"))
    cfg = str(root / "config.yaml")
    dataset = str(root / "dataset.jsonl")
    out = root / "out"
    assert main(["extract", "--config", cfg, "--dataset", dataset, "--out", str(out)]) == 0
    features = str(out / "features.tsv")
    assert main(["train", "--config", cfg, "--dataset", dataset, "--features", features, "--out", str(out)]) == 0
    return {"root": root, "config": cfg, "dataset": dataset, "out": out, "features": features,
            "model": str(out / "model.json")}


# ---------------------------------------------------------------------------
# Feature table format
# ---------------------------------------------------------------------------


_TABLES = itertools.count()


class TestFeaturesTsv:
    def test_round_trip(self, tmp_path):
        schema = default_schema()
        rng = np.random.default_rng(0)
        matrix = np.abs(rng.normal(size=(3, len(schema))))
        # keep unit-interval and simplex groups honest is not required here:
        # the table format is schema-agnostic and stores raw floats
        path = tmp_path / "f.tsv"
        write_features_tsv(path, ["a", "b", "c"], schema, matrix)
        ids, entries, loaded = read_features_tsv(path)
        assert ids == ["a", "b", "c"]
        assert entries == schema.entries
        assert np.array_equal(loaded, matrix)

    def test_missing_groups_comment_defaults(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("id\tx\ty\nr0\t1.0\t2.0\n", encoding="utf-8")
        ids, entries, matrix = read_features_tsv(path)
        assert entries == (("x", "feature"), ("y", "feature"))
        assert matrix.tolist() == [[1.0, 2.0]]

    def test_header_must_lead_with_id(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("name\tx\nr0\t1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"f\.tsv:1"):
            read_features_tsv(path)

    def test_ragged_row_rejected_with_line(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("id\tx\ty\nr0\t1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"f\.tsv:2"):
            read_features_tsv(path)

    def test_bad_float_rejected_with_line(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("id\tx\nr0\tabc\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"f\.tsv:2"):
            read_features_tsv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("# only a comment\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no header"):
            read_features_tsv(path)

    def test_repeated_id_rejected_with_line(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("id\tx\na\t1.0\na\t2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"f\.tsv:3: duplicate id 'a'"):
            read_features_tsv(path)

    def test_group_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("# groups: g1\nid\tx\ty\nr0\t1.0\t2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="groups comment"):
            read_features_tsv(path)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ids=st.lists(st.text(st.characters() | st.sampled_from("#\t\n\r\ud800 "), max_size=6), max_size=4))
    def test_ids_read_back_or_no_file_is_written(self, tmp_path, ids):
        schema = default_schema(groups=("graph",))
        path = tmp_path / f"f-{next(_TABLES)}.tsv"
        try:
            write_features_tsv(path, ids, schema, np.zeros((len(ids), len(schema))))
        except ValueError:
            assert not path.exists()
        else:
            assert read_features_tsv(path)[0] == ids

    def test_floats_round_trip_exactly(self, tmp_path):
        schema = default_schema(groups=("graph",))
        values = np.array([[0.1, 1 / 3, np.pi, np.e, 1e-300, 123456.789]])
        path = tmp_path / "f.tsv"
        write_features_tsv(path, ["r"], schema, values)
        _, _, loaded = read_features_tsv(path)
        assert np.array_equal(loaded, values)


# ---------------------------------------------------------------------------
# Subcommands on the planted-rule world
# ---------------------------------------------------------------------------


class TestIngest:
    def test_reports_store_sizes(self, world, capsys):
        assert main(["ingest", "--config", world["config"]]) == 0
        out = capsys.readouterr().out
        assert "triples: 8 entities" in out
        assert "pageviews: 8 entities" in out
        assert "total tokens 1000000" in out
        assert "knowledgability: 8 entities" in out
        assert "gazetteer: 8 aliases" in out

    def test_missing_config_fails(self, tmp_path, capsys):
        rc = main(["ingest", "--config", str(tmp_path / "nope.yaml")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestExtract:
    def test_writes_full_table(self, world):
        ids, entries, matrix = read_features_tsv(world["features"])
        assert len(ids) == 60
        assert matrix.shape == (60, 28)
        assert entries == default_schema().entries

    def test_deterministic_bytes(self, world, tmp_path, capsys):
        rc = main(["extract", "--config", world["config"], "--dataset", world["dataset"], "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "features.tsv").read_bytes() == open(world["features"], "rb").read()

    def test_missing_dataset_fails(self, world, capsys):
        rc = main(["extract", "--config", world["config"], "--dataset", "/no/such.jsonl", "--out", "/tmp"])
        assert rc == 1
        assert "/no/such.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            '{"id": "q", "question": "q", "gold_answers": ["g"], "answer_without_retrieval": "a", '
            '"answer_with_retrieval": "b", "feature_overrides": {"popularity_min": 1' + "0" * 400 + "}}",
            "[" * 100_000,
        ],
        ids=["oversized-override", "deep-nesting"],
    )
    def test_hostile_record_fails_cleanly(self, world, tmp_path, capsys, line):
        dataset = tmp_path / "train.jsonl"
        dataset.write_text(line + "\n", encoding="utf-8")
        rc = main(["extract", "--config", world["config"], "--dataset", str(dataset), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: line 1: ")


class TestTrain:
    def test_artifacts_exist(self, world):
        assert os.path.exists(world["model"])
        report = (world["out"] / "training_report.md").read_text(encoding="utf-8")
        assert "master seed: 3" in report
        assert "per-setting seeds: [3, 4, 5]" in report
        assert "validation rows: 24" in report
        assert "| logreg |" in report and "| dtree |" in report

    def test_model_mentions_two_families(self, world):
        payload = json.loads(open(world["model"], encoding="utf-8").read())
        assert payload["kind"] == "retrieval-gate"
        assert len(payload["members"]) == 2
        assert len(payload["feature_names"]) == 28

    def test_retrain_same_seed_is_byte_identical(self, world, tmp_path, capsys):
        rc = main(
            ["train", "--config", world["config"], "--dataset", world["dataset"],
             "--features", world["features"], "--out", str(tmp_path), "--seed", "3"]
        )
        assert rc == 0
        assert (tmp_path / "model.json").read_bytes() == open(world["model"], "rb").read()

    def test_timings_sidecar_counts_the_fits(self, world, tmp_path, capsys):
        grids = tmp_path / "grids.yaml"
        grids.write_text(
            "logreg: {C: [0.1, 1.0], solver: [lbfgs, liblinear], max_iter: [300]}\n"
            "dtree: {max_depth: [2, 3], max_features: [null, sqrt]}\n"
            "gboost: {n_estimators: [2, 4], max_depth: [2], max_features: [null, sqrt]}\n"
            "rforest: {n_estimators: [2, 3], max_depth: [3]}\n",
            encoding="utf-8",
        )
        config = _variant_config(world, tmp_path, grids=str(grids))
        out = tmp_path / "out"
        assert main(["train", "--config", config, "--dataset", world["dataset"],
                     "--features", world["features"], "--out", str(out)]) == 0
        assert f"wrote {out / 'train_timings.json'}" in capsys.readouterr().out
        timings = json.loads((out / "train_timings.json").read_text(encoding="utf-8"))
        assert all(t.pop("seconds") >= 0.0 for t in timings.values())
        # logreg: one fit per C, seedless. dtree: null max_features is seedless
        # (2 fits), sqrt is fit per seed (6). gboost: one 4-tree fit for null,
        # three for sqrt. rforest: one 3-tree fit per seed.
        assert timings == {
            "logreg": {"declared_fits": 12, "fits": 2, "trees": 0},
            "dtree": {"declared_fits": 12, "fits": 8, "trees": 8},
            "gboost": {"declared_fits": 12, "fits": 4, "trees": 16},
            "rforest": {"declared_fits": 6, "fits": 3, "trees": 9},
        }
        assert set(os.listdir(out)) == {"model.json", "training_report.md", "train_timings.json"}
        assert "train_timings" not in (out / "model.json").read_text(encoding="utf-8")

    def test_seed_flag_changes_split(self, world, tmp_path, capsys):
        rc = main(
            ["train", "--config", world["config"], "--dataset", world["dataset"],
             "--features", world["features"], "--out", str(tmp_path), "--seed", "99"]
        )
        assert rc == 0
        report = (tmp_path / "training_report.md").read_text(encoding="utf-8")
        assert "master seed: 99" in report

    def test_features_for_missing_ids_fail(self, world, tmp_path, capsys):
        ids, entries, matrix = read_features_tsv(world["features"])
        schema = default_schema()
        trimmed = tmp_path / "short.tsv"
        write_features_tsv(trimmed, ids[:50], schema, matrix[:50])
        rc = main(
            ["train", "--config", world["config"], "--dataset", world["dataset"],
             "--features", str(trimmed), "--out", str(tmp_path)]
        )
        assert rc == 1
        assert "q050" in capsys.readouterr().err


    def test_table_serve_cannot_use_fails_before_any_fit(self, world, tmp_path, capsys):
        # Without its groups line the table's columns read as group
        # "feature", which no gate layout holds; serve would refuse the model.
        with open(world["features"], encoding="utf-8") as fh:
            lines = [line for line in fh if not line.startswith("# groups:")]
        table = tmp_path / "features.tsv"
        table.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "out"
        _fails_cleanly(capsys, ["train", "--config", world["config"], "--dataset", world["dataset"],
                                "--features", str(table), "--out", str(out)],
                       f"error: {table}: unknown feature group 'feature'\n")
        assert not out.exists()


class TestEvaluate:
    def _run(self, world, out, extra=()):
        return main(
            ["evaluate", "--config", world["config"], "--dataset", world["dataset"],
             "--features", world["features"], "--model", world["model"], "--out", str(out), *extra]
        )

    def test_report_md_table_follows_a_blank_line(self, world, tmp_path, capsys):
        assert self._run(world, tmp_path) == 0
        lines = (tmp_path / "report.md").read_text(encoding="utf-8").splitlines()
        table = lines.index("| Method | InAcc (%) | LMC | RC | PFLOPs/question |")
        assert lines[table - 1] == ""
        assert lines[table - 2].startswith("- features: ")

    def test_emits_reports_and_analyses(self, world, tmp_path, capsys):
        assert self._run(world, tmp_path) == 0
        stdout = capsys.readouterr().out
        assert "| Method | InAcc (%) |" in stdout
        for name in ("gate", "never_rag", "always_rag", "ideal"):
            assert name in stdout
        for artifact in ("report.md", "report.csv", "importance.csv", "correlation.csv", "run_meta.json"):
            assert (tmp_path / artifact).exists()

    def test_csv_format_flag(self, world, tmp_path, capsys):
        assert self._run(world, tmp_path, ("--format", "csv")) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("method,in_accuracy,lm_calls,retrieval_calls,mean_pflops\n")

    def test_gate_cost_entry_applies(self, world, tmp_path, capsys):
        assert self._run(world, tmp_path) == 0
        rows = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()
        gate_row = next(r for r in rows if r.startswith("gate,"))
        assert gate_row.split(",")[4] == repr(0.0181 + 0.00002)
        never_row = next(r for r in rows if r.startswith("never_rag,"))
        assert never_row.split(",")[4] == repr(0.0181)

    def test_include_references(self, world, tmp_path, capsys):
        assert self._run(world, tmp_path, ("--include-references",)) == 0
        assert "flare" in capsys.readouterr().out

    def test_references_absent_by_default(self, world, tmp_path, capsys):
        assert self._run(world, tmp_path) == 0
        assert "flare" not in capsys.readouterr().out

    def test_threshold_zero_matches_always_rag_quality(self, world, tmp_path, capsys):
        assert self._run(world, tmp_path, ("--threshold", "0.0")) == 0
        rows = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()
        gate = next(r for r in rows if r.startswith("gate,")).split(",")
        always = next(r for r in rows if r.startswith("always_rag,")).split(",")
        assert gate[1] == always[1]  # in_accuracy
        assert gate[3] == always[3] == "1.0"  # retrieval_calls

    def test_importance_covers_every_feature(self, world, tmp_path, capsys):
        assert self._run(world, tmp_path) == 0
        lines = (tmp_path / "importance.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "feature,score"
        assert len(lines) == 1 + 28
        scores = [float(line.split(",")[1]) for line in lines[1:]]
        assert scores == sorted(scores, reverse=True)
        assert {line.split(",")[0] for line in lines[1:]} == set(default_schema().names)

    def test_correlation_square_with_label(self, world, tmp_path, capsys):
        assert self._run(world, tmp_path) == 0
        lines = (tmp_path / "correlation.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0].split(",")[1:] == list(default_schema().names) + ["label"]
        assert len(lines) == 1 + 29
        values = [float(v) for v in lines[1].split(",")[1:]]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_run_meta_records_inputs(self, world, tmp_path, capsys):
        assert self._run(world, tmp_path) == 0
        meta = json.loads((tmp_path / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["seed"] == 3
        assert meta["threshold"] == 0.5
        assert meta["dataset"]["records"] == 60
        assert len(meta["dataset"]["sha256"]) == 64
        assert set(meta["stores"]) == {"triples", "pageviews", "frequency", "knowledgability"}
        assert meta["cost_model"]["methods"]["gate"]["pflops_feature_pipeline"] == 0.00002
        assert len(meta["schema"]) == 28

    def test_rerun_is_byte_identical(self, world, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self._run(world, a) == 0
        assert self._run(world, b) == 0
        for name in ("report.md", "report.csv", "importance.csv", "correlation.csv", "run_meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_feature_row_order_is_irrelevant(self, world, tmp_path, capsys):
        ids, entries, matrix = read_features_tsv(world["features"])
        order = np.random.default_rng(1).permutation(len(ids))
        shuffled = tmp_path / "shuffled.tsv"
        write_features_tsv(shuffled, [ids[i] for i in order], default_schema(), matrix[order])
        out_a, out_b = tmp_path / "orig", tmp_path / "shuf"
        assert self._run(world, out_a) == 0
        rc = main(
            ["evaluate", "--config", world["config"], "--dataset", world["dataset"],
             "--features", str(shuffled), "--model", world["model"], "--out", str(out_b)]
        )
        assert rc == 0
        for name in ("report.csv", "importance.csv", "correlation.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_gate_beats_baselines_on_planted_world(self, world, tmp_path, capsys):
        assert self._run(world, tmp_path) == 0
        rows = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()
        table = {r.split(",")[0]: [float(v) for v in r.split(",")[1:]] for r in rows[1:]}
        assert table["gate"][0] >= max(table["never_rag"][0], table["always_rag"][0])
        assert table["ideal"][0] >= table["gate"][0]

    def test_wrong_schema_fails(self, world, tmp_path, capsys):
        ids, entries, matrix = read_features_tsv(world["features"])
        schema = default_schema(include_context_length=False)
        narrowed = tmp_path / "narrow.tsv"
        write_features_tsv(narrowed, ids, schema, matrix[:, :27])
        rc = main(
            ["evaluate", "--config", world["config"], "--dataset", world["dataset"],
             "--features", str(narrowed), "--model", world["model"], "--out", str(tmp_path)]
        )
        assert rc == 1
        assert "schema" in capsys.readouterr().err


def _variant_config(world, tmp_path, **changes):
    """The world's config, written under tmp_path with absolute paths and ``changes`` applied."""
    root = world["root"]
    with open(world["config"], encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    raw["stores"] = {kind: str(root / path) for kind, path in raw["stores"].items()}
    raw["gazetteer"] = str(root / raw["gazetteer"])
    raw["grids"] = str(root / raw["grids"])
    for key, value in changes.items():
        section, _, name = key.rpartition(".")
        (raw.setdefault(section, {}) if section else raw)[name] = value
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return str(path)


def _fails_cleanly(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "grid, message",
    [
        ("logreg: {C: [abc]}", "logreg setting"),
        ("knn: {n_neighbors: [[1]]}", "knn setting"),
        ("dtree: {max_depth: [x]}", "dtree setting"),
        ("mlp: {hidden_layer_sizes: 5}", "mlp setting"),
        ("gboost: {learning_rate: [x]}", "gboost setting"),
        ("logreg: {max_iter: [.inf]}", 'logreg setting {"max_iter": Infinity} is invalid: '),
    ],
)
def test_wrong_typed_grid_value_fails_train_cleanly(world, tmp_path, capsys, grid, message):
    _train_with_grids(world, tmp_path, capsys, grid + "\nrforest: {n_estimators: [3]}\n", message)


@pytest.mark.parametrize(
    "text, message",
    [("logreg: [\n", "grid config is not valid YAML"), ("[" * 100_000, "grid config is not valid YAML: nested too deeply")],
    ids=["unclosed-list", "deep-nesting"],
)
def test_malformed_grid_file_fails_train_cleanly(world, tmp_path, capsys, text, message):
    _train_with_grids(world, tmp_path, capsys, text, message)


def test_bad_grid_value_fails_before_any_fit(world, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("ragate.tabular.protocol.train", lambda *a: pytest.fail("a fit ran before the grid was checked"))
    grid = "logreg: {C: [1.0]}\ndtree: {max_depth: [3, 0]}\nrforest: {n_estimators: [3]}\n"
    _train_with_grids(world, tmp_path, capsys, grid, "max_depth must be >= 1 or None, got 0")
    grid = "logreg: {C: [1.0]}\ndtree: {max_depth: [3]}\nrforest: {n_estimators: [x]}\n"
    _train_with_grids(world, tmp_path, capsys, grid, "rforest setting")
    # Values that only fit's own rules used to check: each constructor runs
    # them now, and the error names the family and the setting.
    for grid, message in [
        ("logreg: {C: [1.0]}\ndtree: {max_depth: [3]}\nrforest: {max_features: [sqrt, x]}\n",
         'rforest setting {"max_features": "x"} is invalid: unsupported max_features'),
        ("logreg: {C: [1.0]}\ndtree: {splitter: [best, x]}\n",
         'dtree setting {"splitter": "x"} is invalid: splitter must be one of'),
        ("logreg: {class_weight: [{0: 1}]}\ndtree: {max_depth: [3]}\n",
         'logreg setting {"class_weight": {"0": 1}} is invalid: class_weight dict must cover classes 0 and 1'),
        ("logreg: {C: [1.0]}\ndtree: {max_depth: [3]}\nrforest: {class_weight: [x]}\n",
         'rforest setting {"class_weight": "x"} is invalid: unsupported class_weight'),
    ]:
        _train_with_grids(world, tmp_path, capsys, grid, message)


def _train_with_grids(world, tmp_path, capsys, text, message):
    grids = tmp_path / "grids.yaml"
    grids.write_text(text, encoding="utf-8")
    config = _variant_config(world, tmp_path, grids=str(grids))
    _fails_cleanly(capsys, ["train", "--config", config, "--dataset", world["dataset"],
                            "--features", world["features"], "--out", str(tmp_path / "out")], message)


@pytest.mark.parametrize(
    "command, key, value, message",
    [
        ("train", "val_size", 0, "val_size must be >= 1, got 0"),
        ("train", "val_size", -5, "val_size must be >= 1, got -5"),
        ("extract", "features.context_norm", 0, "context_norm must be > 0, got 0.0"),
        ("extract", "features.context_norm", -1, "context_norm must be > 0, got -1.0"),
        ("evaluate", "importance_repeats", -1, "importance_repeats must be >= 0, got -1"),
    ],
)
def test_out_of_range_config_value_fails_cleanly(world, tmp_path, capsys, command, key, value, message):
    config = _variant_config(world, tmp_path, **{key: value})
    args = {
        "extract": [],
        "train": ["--features", world["features"]],
        "evaluate": ["--features", world["features"], "--model", world["model"]],
    }[command]
    _fails_cleanly(capsys, [command, "--config", config, "--dataset", world["dataset"], *args,
                            "--out", str(tmp_path / "out")], message)
    assert not (tmp_path / "out").exists()


def test_infinite_context_norm_fails_cleanly(world, tmp_path, capsys):
    config = _variant_config(world, tmp_path, **{"features.context_norm": float("inf")})
    _fails_cleanly(capsys, ["extract", "--config", config, "--dataset", world["dataset"], "--out", str(tmp_path / "out")],
                   "context_norm must be finite, got inf")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad_id", ["#hash-id", "tab\tid", "line\nid", "cr\rid", "\ud800"])
def test_id_the_feature_table_cannot_carry_fails_extract(world, tmp_path, capsys, bad_id):
    with open(world["dataset"], encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    records[1]["id"] = bad_id
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    _fails_cleanly(capsys, ["extract", "--config", world["config"], "--dataset", str(dataset), "--out", str(tmp_path / "out")],
                   f"question id {bad_id!r} cannot be stored in features.tsv")
    assert not (tmp_path / "out" / "features.tsv").exists()


def test_ids_are_checked_before_extraction(tmp_path, capsys):
    # Two questions of the stock seed-7 world: the first id cannot be stored,
    # the second question could not be extracted. The id is reported.
    world = tmp_path / "seed7"
    subprocess.run([sys.executable, MAKE_SYNTHETIC, "--out", str(world), "--seed", "7", "--n-train", "120", "--n-eval", "1"],
                   env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}, check=True, capture_output=True)
    with open(world / "train.jsonl", encoding="utf-8") as fh:
        first, second = (json.loads(next(fh)) for _ in range(2))
    first["id"] = "#" + first["id"]
    second["feature_overrides"] = {"no_such_feature": 1}
    dataset = tmp_path / "two.jsonl"
    dataset.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n", encoding="utf-8")
    _fails_cleanly(capsys, ["extract", "--config", str(world / "config.yaml"), "--dataset", str(dataset),
                            "--out", str(tmp_path / "out")], "question id '#t0000' cannot be stored in features.tsv")


# Runs one command through ragate.cli.main, then reports the scipy modules
# it loaded as the last line of stderr.
_CLI_CHILD = """
import json, sys
from ragate.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")), file=sys.stderr)
sys.exit(code)
"""


def test_only_train_loads_scipy(tmp_path):
    world = tmp_path / "seed7"
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    subprocess.run([sys.executable, MAKE_SYNTHETIC, "--out", str(world), "--seed", "7", "--n-train", "120", "--n-eval", "8"],
                   env=env, check=True, capture_output=True)
    config = str(world / "config.yaml")

    def run(*argv, stdin=""):
        proc = subprocess.run([sys.executable, "-c", _CLI_CHILD, *argv, "--config", config], input=stdin, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout, json.loads(proc.stderr.splitlines()[-1])

    train, evalfeat = str(world / "train.jsonl"), str(world / "evalfeat")
    assert run("ingest")[1] == []
    assert run("extract", "--dataset", train, "--out", str(world))[1] == []
    assert run("extract", "--dataset", str(world / "eval.jsonl"), "--out", evalfeat)[1] == []
    _, loaded = run("train", "--dataset", train, "--features", str(world / "features.tsv"), "--out", str(world))
    assert "scipy.optimize" in loaded  # the logreg fits
    model = str(world / "model.json")
    assert run("evaluate", "--dataset", str(world / "eval.jsonl"), "--features", os.path.join(evalfeat, "features.tsv"),
               "--model", model, "--out", str(tmp_path / "report"))[1] == []
    stdout, loaded = run("serve", "--model", model, stdin='{"id": "r1", "question": "who founded amber falcon"}\n')
    assert loaded == []
    assert json.loads(stdout)["id"] == "r1"


@pytest.mark.parametrize(
    "key, header, row, message",
    [
        ("stores.triples", "kg_id\tsubject_count\tobject_count", "Q9\t4" + "0" * 400 + "\t1",
         "line 2: subject_count must be at most 2**53, got '4" + "0" * 400 + "'"),
        ("gazetteer", "alias\tkg_id", "zork\t ", "line 2: empty kg_id"),
        ("stores.pageviews", "kg_id\tviews", "Q9\tmany", "line 2: views is not a base-10 integer: 'many'"),
        ("stores.pageviews", "kg_id\tviews", "Q9\t1_000", "line 2: views is not a base-10 integer: '1_000'"),
        ("stores.pageviews", "kg_id\tviews", "Q9\t \u0663 ", "line 2: views is not a base-10 integer: ' \u0663 '"),
        ("stores.pageviews", "kg_id\tviews", "Q9\t+7", "line 2: views is not a base-10 integer: '+7'"),
        ("stores.knowledgability", "kg_id\tscore", "Q9\t1_0.5", "line 2: score is not a plain decimal: '1_0.5'"),
    ],
    ids=["huge-count", "gazetteer", "pageviews", "underscore-count", "arabic-indic-count", "signed-count",
         "underscore-score"],
)
def test_bad_store_row_fails_naming_the_file(world, tmp_path, capsys, key, header, row, message):
    path = tmp_path / "store.tsv"
    path.write_text(f"{header}\n{row}\n", encoding="utf-8")
    config = _variant_config(world, tmp_path, **{key: str(path)})
    for command in (["ingest"], ["extract", "--dataset", world["dataset"], "--out", str(tmp_path / "out")]):
        _fails_cleanly(capsys, [command[0], "--config", config, *command[1:]], f"error: {path}: {message}\n")


@pytest.mark.parametrize(
    "artifact, message",
    [
        ("[1]", "not a text-classifier artifact"),
        ('{"kind": "text-classifier", "class_names": ["a", "b"], "bias": [0, 0], "weights": {}}',
         "text-classifier artifact lacks ['dim']"),
        ('{"kind": "text-classifier", "dim": 1e400, "class_names": ["a", "b"], "bias": [0, 0], "weights": {}}',
         "text-classifier dim must be a positive integer, got inf"),
    ],
    ids=["not-an-object", "no-dim", "infinite-dim"],
)
def test_malformed_text_classifier_fails_cleanly(world, tmp_path, capsys, artifact, message):
    model = tmp_path / "qtype.json"
    model.write_text(artifact, encoding="utf-8")
    config = _variant_config(world, tmp_path, **{"models.qtype": str(model)})
    _fails_cleanly(capsys, ["extract", "--config", config, "--dataset", world["dataset"], "--out", str(tmp_path / "out")],
                   f"error: {message}\n")


@pytest.mark.parametrize("name", ["ue a\tb", "line\nbreak", "#hash", "\ud800"])
def test_override_name_the_feature_table_cannot_carry_fails_at_config_load(world, tmp_path, capsys, name):
    config = _variant_config(world, tmp_path, **{"features.override_features": [name]})
    for command in (["ingest"], ["extract", "--dataset", world["dataset"], "--out", str(tmp_path / "out")]):
        _fails_cleanly(capsys, [command[0], "--config", config, *command[1:]],
                       f"error: feature name {name!r} cannot be stored in features.tsv")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evaluate", "serve"])
@pytest.mark.parametrize("value", ["7", "-0.1", "nan"])
def test_threshold_flag_out_of_range(world, tmp_path, monkeypatch, capsys, command, value):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"question": "who founded paris"}\n'))
    args = ["--config", world["config"], "--model", world["model"], "--threshold", value]
    if command == "evaluate":
        args += ["--dataset", world["dataset"], "--features", world["features"], "--out", str(tmp_path)]
    assert main([command, *args]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: threshold must be in [0, 1], got {float(value)}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_negative_seed_flag_fails_before_any_work(world, tmp_path, capsys, command):
    args = ["--config", world["config"], "--dataset", world["dataset"], "--features", world["features"],
            "--out", str(tmp_path / "out"), "--seed", "-3"]
    if command == "evaluate":
        args += ["--model", world["model"]]
    _fails_cleanly(capsys, [command, *args], "error: seed must be >= 0, got -3\n")
    assert not (tmp_path / "out").exists()


def test_integral_config_values_load_as_integers(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("seed: 12.0\nval_size: 30\nimportance_repeats: 0\n", encoding="utf-8")
    loaded = load_config(str(config))
    assert (loaded.seed, loaded.val_size, loaded.importance_repeats) == (12, 30, 0)
    assert type(loaded.seed) is int


@pytest.mark.parametrize("n_train", ["40", "119"])
def test_make_synthetic_refuses_a_world_that_cannot_train(tmp_path, n_train):
    out = tmp_path / "world"
    proc = subprocess.run([sys.executable, MAKE_SYNTHETIC, "--out", str(out), "--seed", "7", "--n-train", n_train],
                          env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "--n-train must be at least 120" in proc.stderr
    assert proc.stderr.rstrip().endswith(f"got {n_train}")
    assert not out.exists()


MALFORMED_MODELS = {
    "kind-only": lambda gate: '{"kind":"retrieval-gate"}',
    "not-an-object": lambda gate: "[1]",
    "scaler-without-std": lambda gate: json.dumps({**gate, "scaler": {"mean": gate["scaler"]["mean"]}}),
    "nested-tree-layout": lambda gate: json.dumps({**gate, "members": [
        {"family": "dtree", "state": {"params": {"max_depth": 3, "max_features": None, "criterion": "gini",
                                                 "splitter": "best"}, "seed": 0, "tree": {"value": 0.5, "n": 4}}},
        gate["members"][1],
    ]}),
    "deep-nesting": lambda gate: "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("command", ["evaluate", "serve"])
@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_malformed_model_fails_cleanly(world, tmp_path, monkeypatch, capsys, command, case):
    with open(world["model"], encoding="utf-8") as fh:
        gate = json.load(fh)
    model = tmp_path / "model.json"
    model.write_text(MALFORMED_MODELS[case](gate), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO('{"question": "who founded paris"}\n'))
    args = ["--config", world["config"], "--model", str(model)]
    if command == "evaluate":
        args += ["--dataset", world["dataset"], "--features", world["features"], "--out", str(tmp_path / "out")]
    assert main([command, *args]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_unknown_feature_group_in_model_fails_serve_cleanly(world, tmp_path, monkeypatch, capsys):
    with open(world["model"], encoding="utf-8") as fh:
        gate = json.load(fh)
    gate["feature_groups"] = ["bogus"] * len(gate["feature_groups"])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(gate), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO('{"question": "who founded paris"}\n'))
    assert main(["serve", "--config", world["config"], "--model", str(model)]) == 1
    assert capsys.readouterr().err == "error: unknown feature group 'bogus'\n"


def test_model_without_features_fails_serve_cleanly(world, tmp_path, monkeypatch, capsys):
    with open(world["model"], encoding="utf-8") as fh:
        gate = json.load(fh)
    assert [m["family"] for m in gate["members"]] == ["logreg", "dtree"]
    gate.update(feature_names=[], feature_groups=[], scaler={"mean": [], "std": []})
    gate["members"][0]["state"]["weights"] = []
    gate["members"][1]["state"]["tree"] = {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1],
                                           "value": [0.5], "n": [4]}
    model = tmp_path / "model.json"
    model.write_text(json.dumps(gate), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO('{"question": "who founded paris"}\n'))
    _fails_cleanly(capsys, ["serve", "--config", world["config"], "--model", str(model)],
                   "error: a feature schema needs at least one feature")


class TestServe:
    def _serve(self, world, payload, monkeypatch, capsys, extra=()):
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        rc = main(["serve", "--config", world["config"], "--model", world["model"], *extra])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        return [json.loads(line) for line in out.splitlines()] if out else []

    def test_scores_requests(self, world, monkeypatch, capsys):
        payload = (
            '{"id": "a", "question": "what is the capital of zork"}\n'
            "\n"
            '{"id": "b", "question": "what is the capital of london"}\n'
        )
        responses = self._serve(world, payload, monkeypatch, capsys)
        assert [r["id"] for r in responses] == ["a", "b"]
        for r in responses:
            assert isinstance(r["retrieve"], bool)
            assert 0.0 <= r["score"] <= 1.0
            assert set(r["features"]) == {
                "graph", "popularity", "frequency", "knowledgability", "qtype", "complexity", "context",
            }
        assert responses[0]["retrieve"] is True  # rare entity
        assert responses[1]["retrieve"] is False  # popular entity

    def test_malformed_lines_report_errors(self, world, monkeypatch, capsys):
        payload = (
            "{nope\n"
            '{"question": 5}\n'
            '["not", "an", "object"]\n'
            '{"question": "ok", "feature_overrides": {"context_length": true}}\n'
        )
        responses = self._serve(world, payload, monkeypatch, capsys)
        assert [r["error"]["line"] for r in responses] == [1, 2, 3, 4]
        assert "invalid JSON" in responses[0]["error"]["reason"]
        assert "question" in responses[1]["error"]["reason"]
        assert "object" in responses[2]["error"]["reason"]
        assert "number" in responses[3]["error"]["reason"]

    def test_hostile_lines_do_not_stop_serving(self, world, monkeypatch, capsys):
        huge = "1" + "0" * 400  # an integer no float can hold
        payload = (
            '{"id": "a", "question": "what is the capital of zork"}\n'
            '{"id": "x", "question": "q", "feature_overrides": {"popularity_min": ' + huge + "}}\n"
            + "[" * 100_000 + "\n"
            '{"id": "b", "question": "what is the capital of london"}\n'
        )
        responses = self._serve(world, payload, monkeypatch, capsys)
        assert len(responses) == 4
        assert [responses[0]["id"], responses[3]["id"]] == ["a", "b"]
        assert responses[1]["error"]["line"] == 2
        assert "popularity_min" in responses[1]["error"]["reason"]
        assert responses[2]["error"]["line"] == 3
        assert "invalid JSON" in responses[2]["error"]["reason"]

    def test_override_enters_the_vector(self, world, monkeypatch, capsys):
        payload = '{"question": "who founded paris", "feature_overrides": {"context_relevance_max": 0.5}}\n'
        (response,) = self._serve(world, payload, monkeypatch, capsys)
        assert response["features"]["context"]["context_relevance_max"] == 0.5

    def test_unknown_override_is_an_error_line(self, world, monkeypatch, capsys):
        payload = '{"question": "who founded paris", "feature_overrides": {"bogus_feature": 1.0}}\n'
        (response,) = self._serve(world, payload, monkeypatch, capsys)
        assert "bogus_feature" in response["error"]["reason"]

    def test_default_id_is_line_number(self, world, monkeypatch, capsys):
        payload = '\n{"question": "who founded paris"}\n'
        (response,) = self._serve(world, payload, monkeypatch, capsys)
        assert response["id"] == "line-2"

    def test_threshold_flag(self, world, monkeypatch, capsys):
        payload = '{"id": "a", "question": "what is the capital of london"}\n'
        (low,) = self._serve(world, payload, monkeypatch, capsys, extra=("--threshold", "0.0"))
        assert low["retrieve"] is True

    def test_responses_are_deterministic(self, world, monkeypatch, capsys):
        payload = '{"id": "a", "question": "how many people live in quux blim"}\n'
        (first,) = self._serve(world, payload, monkeypatch, capsys)
        (second,) = self._serve(world, payload, monkeypatch, capsys)
        assert first == second


# ---------------------------------------------------------------------------
# Config shapes and parser fuzzing
# ---------------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**308, max_value=10**320)
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@pytest.mark.parametrize(
    "body, expected",
    [
        ("stores: [a]", "stores must be a mapping, got list"),
        ("models: [qtype]", "models must be a mapping, got list"),
        ("cost_model: [1]", "cost_model must be a mapping, got list"),
        ("cost_model: {methods: [1]}", "methods must be a mapping, got list"),
        ("cost_model: {methds: {}}", "unknown cost_model entries: ['methds']"),
        ("features: {include_context_length: 'no'}", "include_context_length must be true or false"),
        ("features: 5", "features must be a mapping, got int"),
        ("features: {groups: 5}", "groups must be a list of strings"),
        ("features: {override_features: 5}", "override_features must be a list of strings"),
        ("features: {groups: [embeddings]}", "unknown feature groups: ['embeddings']"),
        ("features: {groups: []}", "a feature schema needs at least one feature"),
        ("features: {knowledgability_aggregates: [median, mean]}",
         "knowledgability_aggregates must be a non-empty subset of ('min', 'max', 'mean'), got ['median', 'mean']"),
        ("features: {override_features: [popularity_min]}", "feature names must be unique"),
        ("references: 3", "references must be a list, got int"),
        ("threshold: [1]", "threshold is invalid"),
        ("seed: .inf", "seed is invalid"),
        ("seed: 7.9", "seed is invalid: expected an integer, got 7.9"),
        ("seed: true", "seed is invalid: expected an integer, got True"),
        ("seed: '12'", "seed is invalid: expected an integer, got '12'"),
        ("seed: -3", "seed must be >= 0, got -3"),
        ("importance_repeats: 4.5", "importance_repeats is invalid: expected an integer, got 4.5"),
        ("val_size: 100.7", "val_size is invalid: expected an integer, got 100.7"),
        ("val_size: false", "val_size is invalid: expected an integer, got False"),
        ("gazetteer: 5", "gazetteer must be a path string, got int"),
        ("stores: {triples: 5}", "triples store must be a path string, got int"),
        ("out_dir: [1]", "out_dir must be a path string, got list"),
        ("{1: a, b: c}", "unknown config keys: [1, 'b']"),
        ("models: {[a]: 1}", "config is not valid YAML"),
    ],
)
def test_config_shape_errors_exit_cleanly(tmp_path, capsys, body, expected):
    config = tmp_path / "config.yaml"
    config.write_text(body + "\n", encoding="utf-8")
    assert main(["ingest", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert expected in captured.err
    assert captured.out == ""


_CONFIG_FILES = itertools.count()
_CONFIG_KEYS = sorted(_TOP_LEVEL_KEYS) + ["groups", "default", "methods", "triples", "qtype", "method"]
YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8) | st.sampled_from(_CONFIG_KEYS),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(_CONFIG_KEYS) | st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    text=st.one_of(
        st.text(max_size=60),
        st.dictionaries(st.sampled_from(sorted(_TOP_LEVEL_KEYS)), YAML_VALUES, max_size=4).map(yaml.safe_dump),
        YAML_VALUES.map(yaml.safe_dump),
    )
)
def test_load_config_raises_only_config_error(tmp_path, text):
    # A new file per example: truncating one costs far more than creating one.
    config = tmp_path / f"config-{next(_CONFIG_FILES)}.yaml"
    config.write_text(text, encoding="utf-8")
    try:
        load_config(str(config))
    except ConfigError:
        pass


@settings(max_examples=300, deadline=None)
@given(line=st.one_of(st.text(max_size=40), JSON_VALUES.map(json.dumps), st.dictionaries(
    st.sampled_from(["id", "question", "contexts", "feature_overrides"]), JSON_VALUES, max_size=4
).map(json.dumps)))
def test_parse_request_raises_only_value_error(line):
    try:
        _parse_request(line, 1)
    except ValueError:
        pass


# Each request field as a well-formed value or any JSON value; the dataset
# fields a request lacks (id and answers) are added for load_dataset.
_REQUEST_FIELDS = {
    "question": st.text(max_size=8) | JSON_VALUES,
    "contexts": st.lists(st.text(max_size=8), max_size=3) | JSON_VALUES,
    "feature_overrides": st.none() | st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=3) | JSON_VALUES,
    "dataset_tag": st.text(max_size=8) | JSON_VALUES,
}
_DATASETS = itertools.count()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=st.fixed_dictionaries({}, optional=_REQUEST_FIELDS))
def test_serve_and_dataset_parsers_agree(tmp_path, obj):
    try:
        request = _parse_request(json.dumps(obj), 1)
    except ValueError:
        request = None
    dataset = tmp_path / f"dataset-{next(_DATASETS)}.jsonl"
    answers = {"id": "q", "gold_answers": ["a"], "answer_without_retrieval": "", "answer_with_retrieval": "a"}
    dataset.write_text(json.dumps({**obj, **answers}) + "\n", encoding="utf-8")
    try:
        (record,) = load_dataset(dataset)
    except DatasetError:
        record = None
    assert (request is None) == (record is None)
    if record is not None:
        assert request.question == record.question
        assert request.contexts == record.contexts
        assert request.feature_overrides == record.feature_overrides
