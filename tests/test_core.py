import ast
import importlib
import importlib.util
import json
import pkgutil
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ragate
from ragate.core import (
    DatasetError,
    DuplicateId,
    EntityMention,
    GateDecision,
    MalformedRecord,
    QuestionRecord,
    RagateError,
    RunReport,
    answer_is_correct,
    load_dataset,
    normalize_text,
    save_dataset,
    tokenize,
)
from ragate.core import _parse_record


class TestNormalizeText:
    def test_basic(self):
        assert normalize_text("  What's the Capital of France? ") == "what s the capital of france"

    def test_compatibility_forms(self):
        assert normalize_text("ｆｕｌｌｗｉｄｔｈ") == "fullwidth"
        assert normalize_text("ﬁne") == "fine"

    def test_accents_survive(self):
        # diacritics are not stripped, only case/punctuation/width are folded
        assert normalize_text("Héllo…Wörld") == "héllo wörld"

    def test_symbols_only(self):
        assert normalize_text("?!—…") == ""

    def test_whitespace_collapse(self):
        assert normalize_text("a\t\tb\n c") == "a b c"

    @given(st.text())
    def test_idempotent(self, s):
        once = normalize_text(s)
        assert normalize_text(once) == once

    @given(st.text())
    def test_tokens_are_alnum(self, s):
        assert all(ch.isalnum() for tok in tokenize(s) for ch in tok)

    def test_tokenize_empty(self):
        assert tokenize("") == []
        assert tokenize("  --  ") == []


class TestAnswerIsCorrect:
    def test_exact(self):
        assert answer_is_correct("Paris", ["paris"])

    def test_containment(self):
        assert answer_is_correct("The answer is Paris, France.", ["paris"])

    def test_not_token_boundary_aware(self):
        # containment is plain substring matching on normalized text
        assert answer_is_correct("new yorkshire", ["york"])

    def test_miss(self):
        assert not answer_is_correct("london", ["paris"])

    def test_unicode_folding(self):
        assert answer_is_correct("ＰＡＲＩＳ", ["paris"])

    def test_empty_answer(self):
        assert not answer_is_correct("", ["paris"])
        assert not answer_is_correct("!!", ["paris"])

    def test_any_gold_suffices(self):
        assert answer_is_correct("nyc", ["new york", "nyc"])

    @given(st.text(min_size=1), st.lists(st.text(), max_size=3))
    def test_never_crashes(self, answer, golds):
        assert answer_is_correct(answer, golds) in (True, False)

    @given(st.text(min_size=1, alphabet=st.characters(whitelist_categories=("Ll", "Nd"))))
    @settings(max_examples=50)
    def test_answer_containing_itself(self, gold):
        padded = f"well, {gold} obviously"
        assert answer_is_correct(padded, [gold]) == bool(normalize_text(gold))


class TestTypes:
    def test_gate_decision_score_range(self):
        GateDecision(retrieve=True, score=1.0)
        with pytest.raises(ValueError):
            GateDecision(retrieve=False, score=1.5)

    def test_run_report_validation(self):
        with pytest.raises(ValueError):
            RunReport("m", in_accuracy=1.2, lm_calls=1, retrieval_calls=0, mean_pflops=0)
        with pytest.raises(ValueError):
            RunReport("m", in_accuracy=0.5, lm_calls=-1, retrieval_calls=0, mean_pflops=0)
        with pytest.raises(ValueError):
            RunReport("m", in_accuracy=float("nan"), lm_calls=1, retrieval_calls=0, mean_pflops=0)

    def test_mention_span_recovers_surface(self):
        question = "was einstein right"
        m = EntityMention(surface="einstein", kg_id="Q937", char_span=(4, 12))
        assert question[m.char_span[0] : m.char_span[1]] == m.surface

    def test_records_are_immutable(self):
        record = QuestionRecord(
            id="a", question="q", gold_answers=("g",), answer_without_retrieval="", answer_with_retrieval=""
        )
        with pytest.raises(AttributeError):
            record.id = "b"


def _valid_row(i=0):
    return {
        "id": f"q{i}",
        "question": "who?",
        "gold_answers": ["x"],
        "answer_without_retrieval": "x",
        "answer_with_retrieval": "y",
    }


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        records = [
            QuestionRecord(
                id="a",
                question="q about ünïcode",
                gold_answers=("g1", "g2"),
                answer_without_retrieval="w",
                answer_with_retrieval="r",
                contexts=("c1", "c2"),
                dataset_tag="nq",
                feature_overrides={"popularity_mean": 1.5},
            )
        ]
        path = tmp_path / "d.jsonl"
        save_dataset(records, path)
        assert load_dataset(path) == records

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "d.jsonl"
        rows = [_valid_row(i) for i in range(5)]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert [r.id for r in load_dataset(path)] == [f"q{i}" for i in range(5)]

    def test_unknown_fields_ignored(self, tmp_path):
        row = _valid_row()
        row["extra_stuff"] = {"nested": True}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(row) + "\n")
        assert load_dataset(path)[0].id == "q0"

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(_valid_row()) + "\n" + json.dumps(_valid_row()) + "\n")
        with pytest.raises(DuplicateId):
            load_dataset(path)

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda r: r.pop("question"),
            lambda r: r.__setitem__("gold_answers", []),
            lambda r: r.__setitem__("gold_answers", ["  ?! "]),
            lambda r: r.__setitem__("gold_answers", "not a list"),
            lambda r: r.__setitem__("id", 7),
            lambda r: r.__setitem__("contexts", [1, 2]),
            lambda r: r.__setitem__("feature_overrides", {"f": "high"}),
            lambda r: r.__setitem__("feature_overrides", {"f": float("inf")}),
        ],
    )
    def test_malformed_rows(self, tmp_path, mutation):
        row = _valid_row()
        mutation(row)
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(MalformedRecord):
            load_dataset(path)

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        bad = _valid_row(2)
        bad.pop("id")
        lines = [json.dumps(_valid_row(0)), json.dumps(_valid_row(1)), json.dumps(bad)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecord) as exc_info:
            load_dataset(path)
        assert exc_info.value.line_no == 3

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(_valid_row()) + "\n{broken\n")
        with pytest.raises(MalformedRecord) as exc_info:
            load_dataset(path)
        assert exc_info.value.line_no == 2

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("\n" + json.dumps(_valid_row()) + "\n\n")
        assert len(load_dataset(path)) == 1


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**308, max_value=10**320)
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
_RECORD_FIELDS = sorted(_valid_row()) + ["contexts", "dataset_tag", "feature_overrides"]


@settings(max_examples=300, deadline=None)
@given(
    obj=st.one_of(
        _JSON_VALUES,
        st.dictionaries(st.sampled_from(_RECORD_FIELDS), _JSON_VALUES, max_size=8),
        st.dictionaries(st.sampled_from(_RECORD_FIELDS), _JSON_VALUES, max_size=4).map(lambda o: {**_valid_row(), **o}),
    )
)
def test_parse_record_raises_only_dataset_error(obj):
    try:
        _parse_record(obj, 1)
    except DatasetError:
        pass


def test_integer_literal_past_digit_limit_is_a_malformed_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(_valid_row()) + '\n{"id": ' + "1" * 5000 + "}\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as info:
        load_dataset(path)
    assert info.value.line_no == 2


def test_every_package_error_is_a_ragate_error():
    # The CLI turns a RagateError into "error: ..."; any other type would
    # reach the user as a traceback.
    errors = []
    for info in pkgutil.walk_packages(ragate.__path__, "ragate."):
        module = importlib.import_module(info.name)
        errors += [obj for obj in vars(module).values()
                   if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == info.name]
    assert RagateError in errors and len(errors) >= 16
    assert [cls.__qualname__ for cls in errors if not issubclass(cls, RagateError)] == []


def outside_imports():
    """(file, module, names) of each ``from ragate... import ...`` in README's
    Python code blocks, bench/*.py and scripts/*.py: code this suite does not
    import, so a name dropped from a module would otherwise go unnoticed."""
    repo = Path(__file__).resolve().parent.parent
    readme = (repo / "README.md").read_text(encoding="utf-8")
    sources = [("README.md", block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    sources += [(path.name, path.read_text(encoding="utf-8")) for path in sorted(repo.glob("bench/*.py"))]
    sources += [(path.name, path.read_text(encoding="utf-8")) for path in sorted(repo.glob("scripts/*.py"))]
    for where, source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "ragate":
                yield where, node.module, [alias.name for alias in node.names]


def test_outside_imports_resolve():
    found = list(outside_imports())
    assert {"README.md", "traced.py", "run.py", "test_bench.py", "make_synthetic.py"} <= {where for where, _, _ in found}
    for where, module, names in found:
        mod = importlib.import_module(module)
        for name in names:
            # A name is an attribute of the module, or a submodule of a package.
            submodule = hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None
            assert hasattr(mod, name) or submodule, (where, module, name)
