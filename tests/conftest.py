import numpy as np
import pytest

from ragate.core import QuestionRecord
from ragate.features import ModelSet, StoreSet
from ragate.stores import (
    FrequencyStore,
    KnowledgabilityStore,
    PopularityStore,
    TripleCountStore,
)
from ragate.linker import Gazetteer
from ragate.textclf import TextClfConfig, load_toy_corpus, train_text_classifier


@pytest.fixture(scope="session")
def toy_models():
    """The builtin question-type / complexity classifiers (trained once)."""
    qtype = train_text_classifier(load_toy_corpus("qtype"), TextClfConfig(seed=0))
    complexity = train_text_classifier(load_toy_corpus("complexity"), TextClfConfig(seed=0))
    return ModelSet(qtype=qtype, complexity=complexity)


def make_stores(
    triples=None,
    pageviews=None,
    frequency=None,
    knowledgability=None,
    aliases=None,
    sidecar=None,
    total_tokens=1_000_000,
):
    """In-memory StoreSet; any omitted piece stays None."""
    gaz = None
    if aliases is not None:
        max_tokens = max((len(a.split()) for a in aliases), default=1)
        gaz = Gazetteer(aliases=dict(aliases), max_alias_tokens=max_tokens)
    return StoreSet(
        triples=TripleCountStore(dict(triples)) if triples is not None else None,
        pageviews=PopularityStore(dict(pageviews)) if pageviews is not None else None,
        frequency=FrequencyStore(dict(frequency), total_tokens=total_tokens) if frequency is not None else None,
        knowledgability=KnowledgabilityStore(dict(knowledgability)) if knowledgability is not None else None,
        gazetteer=gaz,
        sidecar=dict(sidecar) if sidecar is not None else {},
    )


def make_record(
    id="q0",
    question="who wrote moby dick",
    gold=("herman melville",),
    without="i am not sure",
    with_r="herman melville wrote it",
    contexts=(),
    overrides=None,
):
    return QuestionRecord(
        id=id,
        question=question,
        gold_answers=tuple(gold),
        answer_without_retrieval=without,
        answer_with_retrieval=with_r,
        contexts=tuple(contexts),
        feature_overrides=dict(overrides or {}),
    )


def outcome_record(i, correct_without, correct_with, question=None):
    """Record whose answer pair realizes the given correctness flags."""
    gold = f"gold{i:04d}"
    return QuestionRecord(
        id=f"r{i:04d}",
        question=question or f"synthetic question number {i}",
        gold_answers=(gold,),
        answer_without_retrieval=gold if correct_without else "wrong",
        answer_with_retrieval=gold if correct_with else "wrong",
    )
