import itertools
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ragate.stores import (
    STORE_KINDS,
    DuplicateKey,
    MalformedRow,
    MissingHeader,
    StoreError,
    load_store,
    read_rows,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def load_error(tmp_path, kind, text):
    path = write(tmp_path, f"{kind}.tsv", text)
    with pytest.raises(StoreError) as exc_info:
        load_store(kind, path)
    return path, exc_info.value


class TestTripleStore:
    def test_load_and_lookup(self, tmp_path):
        path = write(
            tmp_path,
            "t.tsv",
            "# snapshot 2024-01\nkg_id\tsubject_count\tobject_count\nQ1\t10\t4\nQ2\t0\t0\n",
        )
        store = load_store("triples", path)
        assert store.lookup("Q1") == (10, 4)
        assert store.lookup("Q2") == (0, 0)
        assert store.lookup("Q404") is None
        assert len(store) == 2

    def test_duplicate_key(self, tmp_path):
        path = write(tmp_path, "t.tsv", "kg_id\tsubject_count\tobject_count\nQ1\t1\t1\nQ1\t2\t2\n")
        with pytest.raises(DuplicateKey):
            load_store("triples", path)

    def test_negative_count_rejected(self, tmp_path):
        path = write(tmp_path, "t.tsv", "kg_id\tsubject_count\tobject_count\nQ1\t-3\t1\n")
        with pytest.raises(MalformedRow):
            load_store("triples", path)

    def test_non_integer_rejected(self, tmp_path):
        path = write(tmp_path, "t.tsv", "kg_id\tsubject_count\tobject_count\nQ1\t1.5\t1\n")
        with pytest.raises(MalformedRow):
            load_store("triples", path)

    def test_count_a_float_cannot_hold_rejected(self, tmp_path):
        header = "kg_id\tsubject_count\tobject_count\n"
        store = load_store("triples", write(tmp_path, "t.tsv", header + f"Q1\t{2**53}\t0\n"))
        assert store.lookup("Q1") == (2**53, 0)
        path, exc = load_error(tmp_path, "triples", header + "Q1\t1\t1\nQ2\t4" + "0" * 400 + "\t1\n")
        assert str(exc) == f"{path}: line 3: subject_count must be at most 2**53, got '4{'0' * 400}'"

    def test_missing_header(self, tmp_path):
        path = write(tmp_path, "t.tsv", "Q1\t1\t1\n")
        with pytest.raises(MissingHeader):
            load_store("triples", path)

    def test_wrong_arity_reports_line(self, tmp_path):
        path = write(tmp_path, "t.tsv", "kg_id\tsubject_count\tobject_count\nQ1\t1\t1\nQ2\t9\n")
        with pytest.raises(MalformedRow) as exc_info:
            load_store("triples", path)
        assert exc_info.value.line_no == 3

    def test_store_is_immutable(self, tmp_path):
        path = write(tmp_path, "t.tsv", "kg_id\tsubject_count\tobject_count\nQ1\t1\t1\n")
        store = load_store("triples", path)
        with pytest.raises(AttributeError):
            store.table = {}


class TestPopularityStore:
    def test_load(self, tmp_path):
        store = load_store("pageviews", write(tmp_path, "p.tsv", "kg_id\tviews\nQ1\t12345\n"))
        assert store.lookup("Q1") == 12345
        assert store.lookup("nope") is None

    def test_comment_and_blank_lines_anywhere(self, tmp_path):
        text = "kg_id\tviews\n\nQ1\t5\n# midway note\nQ2\t6\n"
        store = load_store("pageviews", write(tmp_path, "p.tsv", text))
        assert len(store) == 2


class TestFrequencyStore:
    def test_load_with_total(self, tmp_path):
        text = "term\tcount\n__total__\t1000\nthe\t400\nzyzzyva\t1\n"
        store = load_store("frequency", write(tmp_path, "f.tsv", text))
        assert store.total_tokens == 1000
        assert store.lookup("the") == 400
        assert store.lookup("absent") is None
        assert store.lookup("__total__") is None
        assert len(store) == 2

    def test_total_row_required(self, tmp_path):
        path = write(tmp_path, "f.tsv", "term\tcount\nthe\t400\n")
        with pytest.raises(MalformedRow):
            load_store("frequency", path)

    def test_duplicate_total_rejected(self, tmp_path):
        path = write(tmp_path, "f.tsv", "term\tcount\n__total__\t10\n__total__\t10\n")
        with pytest.raises(DuplicateKey):
            load_store("frequency", path)

    def test_frequency_above_total_rejected(self, tmp_path):
        path = write(tmp_path, "f.tsv", "term\tcount\n__total__\t10\nthe\t11\n")
        with pytest.raises(MalformedRow):
            load_store("frequency", path)

    def test_total_a_float_cannot_hold_rejected(self, tmp_path):
        path, exc = load_error(tmp_path, "frequency", f"term\tcount\n__total__\t{2**53 + 1}\nthe\t1\n")
        assert str(exc) == f"{path}: line 2: count must be at most 2**53, got '{2**53 + 1}'"


class TestKnowledgabilityStore:
    def test_load(self, tmp_path):
        store = load_store("knowledgability", write(tmp_path, "k.tsv", "kg_id\tscore\nQ1\t83.5\n"))
        assert store.lookup("Q1") == 83.5
        assert store.clamp_warnings == 0

    def test_out_of_range_scores_clamped_and_counted(self, tmp_path):
        text = "kg_id\tscore\nQ1\t120\nQ2\t-5\nQ3\t50\n"
        store = load_store("knowledgability", write(tmp_path, "k.tsv", text))
        assert store.lookup("Q1") == 100.0
        assert store.lookup("Q2") == 0.0
        assert store.lookup("Q3") == 50.0
        assert store.clamp_warnings == 2

    def test_non_numeric_rejected(self, tmp_path):
        path = write(tmp_path, "k.tsv", "kg_id\tscore\nQ1\thigh\n")
        with pytest.raises(MalformedRow):
            load_store("knowledgability", path)

    def test_nan_rejected(self, tmp_path):
        path = write(tmp_path, "k.tsv", "kg_id\tscore\nQ1\tnan\n")
        with pytest.raises(MalformedRow):
            load_store("knowledgability", path)


class TestLoadStoreDispatch:
    def test_kinds(self, tmp_path):
        path = write(tmp_path, "p.tsv", "kg_id\tviews\nQ1\t5\n")
        assert load_store("pageviews", path).lookup("Q1") == 5

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError):
            load_store("embeddings", tmp_path / "x.tsv")


# Each single-fault file gives its message and line, after the file's path.
SINGLE_FAULTS = [
    ("triples", "kg_id\tsubject_count\tobject_count\nQ1\t1\n", "line 2: expected 3 columns, got 2"),
    ("triples", "kg_id\tsubject_count\tobject_count\nQ1\tx\t1\n", "line 2: subject_count is not a base-10 integer: 'x'"),
    ("triples", "kg_id\tsubject_count\tobject_count\nQ1\t1\t-2\n", "line 2: object_count must be non-negative, got -2"),
    ("pageviews", "kg_id\tviews\nQ1\t5\n\nQ1\t6\n", "duplicate key 'Q1' (line 4)"),
    ("frequency", "term\tcount\n__total__\t0\nthe\t0\n", "line 2: total token count must be positive"),
    ("frequency", "term\tcount\n# note\nthe\t4\n\n", "line 4: no '__total__' row with the corpus token total"),
    ("frequency", "term\tcount\nthe\t11\na\t1\n__total__\t10\n", "line 2: frequency of 'the' exceeds total tokens (11 > 10)"),
    ("frequency", "term\tcount\n__total__\t5\n__total__\t5\n", "duplicate key '__total__' (line 3)"),
    ("knowledgability", "kg_id\tscore\nQ1\thigh\n", "line 2: score is not a number: 'high'"),
    ("knowledgability", "kg_id\tscore\nQ1\t-inf\n", "line 2: score is not finite: '-inf'"),
]


@pytest.mark.parametrize("kind, text, message", SINGLE_FAULTS)
def test_single_fault_names_file_and_line(tmp_path, kind, text, message):
    path, exc = load_error(tmp_path, kind, text)
    assert str(exc) == f"{path}: {message}"


def test_first_faulty_line_in_file_order_is_reported(tmp_path):
    # A value fault on line 2 comes before an arity fault on line 3.
    path, exc = load_error(tmp_path, "pageviews", "kg_id\tviews\nQ1\tmany\nQ2\n")
    assert str(exc) == f"{path}: line 2: views is not a base-10 integer: 'many'"
    assert exc.line_no == 2


class TestReadRows:
    def test_rows_stream_in_file_order(self, tmp_path):
        path = write(tmp_path, "s.tsv", "# c\r\nid\tkg_id\r\n\r\na\tQ1\r\n  # note\nb\tQ2\nc\n")
        rows = read_rows(path, ("id", "kg_id"))
        assert next(rows) == (4, ["a", "Q1"])
        assert next(rows) == (6, ["b", "Q2"])
        with pytest.raises(MalformedRow) as exc_info:
            next(rows)
        assert str(exc_info.value) == f"{path}: line 7: expected 2 columns, got 1"

    def test_header_is_checked(self, tmp_path):
        path = write(tmp_path, "s.tsv", "# only comments\n")
        with pytest.raises(MissingHeader, match="no header row found"):
            list(read_rows(path, ("id", "kg_id")))
        path = write(tmp_path, "s.tsv", "\ufeffid\tkg_id\n")
        with pytest.raises(MissingHeader, match="expected header"):
            list(read_rows(path, ("id", "kg_id")))


_HEADERS = {
    "triples": "kg_id\tsubject_count\tobject_count",
    "pageviews": "kg_id\tviews",
    "frequency": "term\tcount",
    "knowledgability": "kg_id\tscore",
}
_KEYS = st.sampled_from(["Q1", "Q2", "the", "", " ", "__total__", "é", "#x"])
_VALUES = st.one_of(
    st.integers(-5, 10**500).map(str),
    st.sampled_from(["0", "-0", "1.5", "1e3", "nan", "NaN", "inf", "-Infinity", "+7", " 8 ", "1_0", "٣", "", "x"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=4),
)
_ROWS = st.lists(st.tuples(_KEYS, st.lists(_VALUES, min_size=0, max_size=3)), max_size=6)
_STORE_FILES = itertools.count()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(STORE_KINDS),
    rows=_ROWS,
    newline=st.sampled_from(["\n", "\r\n"]),
    bom=st.booleans(),
    extra=st.sampled_from(["", "# comment", "   ", "\t"]),
)
def test_random_store_files_load_or_raise_store_errors(tmp_path, kind, rows, newline, bom, extra):
    lines = [_HEADERS[kind]] + [extra] + ["\t".join([key, *values]) for key, values in rows]
    path = tmp_path / f"store-{next(_STORE_FILES)}.tsv"
    path.write_text(("\ufeff" if bom else "") + newline.join(lines) + newline, encoding="utf-8", newline="")
    try:
        store = load_store(kind, path)
    except (StoreError, ValueError):
        return
    for value in store.table.values():
        for v in value if isinstance(value, tuple) else (value,):
            assert math.isfinite(math.log1p(float(v)))
            assert 0 <= v <= (100 if kind == "knowledgability" else 2**53)
