import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragate.core import normalize_text
from ragate.linker import Gazetteer, build_gazetteer, link, load_entity_sidecar, sidecar_mentions
from ragate.stores import MalformedRow, PopularityStore


def gaz(aliases):
    max_tokens = max((len(a.split()) for a in aliases), default=1)
    return Gazetteer(aliases=dict(aliases), max_alias_tokens=max_tokens)


class TestLink:
    def test_single_match_with_span(self):
        question = "Was Einstein right?"
        mentions = link(question, gaz({"einstein": "Q937"}))
        assert len(mentions) == 1
        m = mentions[0]
        assert m.kg_id == "Q937"
        assert m.surface == "Einstein"
        assert question[m.char_span[0] : m.char_span[1]] == "Einstein"

    def test_longest_match_wins(self):
        g = gaz({"new york": "Q60", "new york city": "Q60C", "york": "Q42"})
        mentions = link("i flew to New York City yesterday", g)
        assert [m.kg_id for m in mentions] == ["Q60C"]
        assert mentions[0].surface == "New York City"

    def test_greedy_left_to_right(self):
        # after "a b" is consumed, "b c" cannot match; "c" still can
        g = gaz({"a b": "AB", "b c": "BC", "c": "C"})
        assert [m.kg_id for m in link("a b c", g)] == ["AB", "C"]

    def test_no_overlaps_and_sorted(self):
        g = gaz({"paris": "Q90", "france": "Q142", "paris france": "QPF"})
        mentions = link("paris france is in france", g)
        spans = [m.char_span for m in mentions]
        assert spans == sorted(spans)
        for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
            assert a_end <= b_start
        assert [m.kg_id for m in mentions] == ["QPF", "Q142"]

    def test_punctuation_and_case_between_tokens(self):
        g = gaz({"new york": "Q60"})
        mentions = link("I love New—York!", g)
        assert len(mentions) == 1
        assert mentions[0].surface == "New—York"

    def test_repeat_mentions_all_found(self):
        g = gaz({"paris": "Q90"})
        assert [m.kg_id for m in link("paris oh paris", g)] == ["Q90", "Q90"]

    def test_no_match(self):
        assert link("nothing to see here", gaz({"einstein": "Q937"})) == []

    def test_empty_question(self):
        assert link("", gaz({"x": "QX"})) == []

    @given(st.text(max_size=60))
    @settings(max_examples=80)
    def test_invariants_hold_on_arbitrary_text(self, question):
        g = gaz({"new york": "Q60", "york": "Q42", "a": "QA"})
        mentions = link(question, g)
        previous_end = 0
        for m in mentions:
            start, end = m.char_span
            assert 0 <= start < end <= len(question)
            assert start >= previous_end
            previous_end = end
            assert question[start:end] == m.surface
            assert normalize_text(m.surface) in g.aliases


class TestBuildGazetteer:
    def test_basic(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("alias\tkg_id\nNew York\tQ60\nParis\tQ90\n")
        g = build_gazetteer(path)
        assert g.aliases == {"new york": "Q60", "paris": "Q90"}
        assert g.max_alias_tokens == 2

    def test_duplicate_alias_first_wins_without_popularity(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("alias\tkg_id\nmercury\tQ308\nmercury\tQ925\n")
        assert build_gazetteer(path).aliases["mercury"] == "Q308"

    def test_duplicate_alias_resolved_by_popularity(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("alias\tkg_id\nmercury\tQ308\nmercury\tQ925\n")
        pop = PopularityStore({"Q308": 10, "Q925": 99})
        assert build_gazetteer(path, popularity=pop).aliases["mercury"] == "Q925"

    def test_popularity_tie_keeps_first(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("alias\tkg_id\nmercury\tQ308\nmercury\tQ925\n")
        pop = PopularityStore({"Q308": 7, "Q925": 7})
        assert build_gazetteer(path, popularity=pop).aliases["mercury"] == "Q308"

    def test_absent_popularity_counts_as_zero(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("alias\tkg_id\nmercury\tQ308\nmercury\tQ925\n")
        pop = PopularityStore({"Q925": 1})
        assert build_gazetteer(path, popularity=pop).aliases["mercury"] == "Q925"

    def test_alias_normalized(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("alias\tkg_id\n  The  MOON!\tQ405\n")
        assert build_gazetteer(path).aliases == {"the moon": "Q405"}

    def test_empty_alias_rejected(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("alias\tkg_id\n???\tQ1\n")
        with pytest.raises(MalformedRow):
            build_gazetteer(path)


class TestSidecar:
    def test_accumulates_in_order(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("id\tkg_id\nq1\tQ937\nq2\tQ60\nq1\tQ90\n")
        assert load_entity_sidecar(path) == {"q1": ["Q937", "Q90"], "q2": ["Q60"]}

    def test_mentions_have_empty_surface(self):
        mentions = sidecar_mentions(["Q1", "Q2"])
        assert [m.kg_id for m in mentions] == ["Q1", "Q2"]
        assert all(m.surface == "" and m.char_span == (0, 0) for m in mentions)

    def test_empty_fields_rejected(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("id\tkg_id\nq1\t \n")
        with pytest.raises(MalformedRow):
            load_entity_sidecar(path)
