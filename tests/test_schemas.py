"""Tests for the BIOHD tag codec, on flat BIO input too, and the ambiguity enumerator."""

import numpy as np
import pytest

from disconer.corpus import CorpusError, Fragment, Mention, Sentence
from disconer.schemas import (Tag, TagSequence, ambiguity_witnesses,
                              decode_biohd, encode_biohd, to_conll)
from disconer.synth import make_corpus

FIG2 = Sentence(("muscle", "pain", "and", "fatigue"),
                (Mention("ADR", (Fragment(0, 2),)),
                 Mention("ADR", (Fragment(0, 1), Fragment(3, 4)))))


def test_tag_parsing():
    assert str(Tag("B", "ADR")) == "B-ADR"
    assert Tag.parse("BH-ADR") == Tag("BH", "ADR")
    assert Tag.parse("O") == Tag("O")
    with pytest.raises(CorpusError):
        Tag.parse("Q-ADR")


def test_tag_sequence_round_trip():
    seq = TagSequence.parse("BH-ADR I-ADR O BD-ADR")
    assert str(seq) == "BH-ADR I-ADR O BD-ADR"
    assert len(seq) == 4


# ---------------------------------------------------------------------------
# Flat BIO: BIOHD without H or D components
# ---------------------------------------------------------------------------

def test_encode_bio_basic():
    s = Sentence(("muscle", "pain", "x", "y"), (Mention("ADR", (Fragment(0, 2),)),))
    assert str(encode_biohd(s)) == "B-ADR I-ADR O O"
    empty = Sentence(("a", "b"), ())
    assert str(encode_biohd(empty)) == "O O"


def test_decode_bio():
    assert decode_biohd(TagSequence.parse("O O O")) == frozenset()
    assert decode_biohd(TagSequence.parse("B-T I-T I-T")) == frozenset(
        {Mention("T", (Fragment(0, 3),))})
    # orphan I repaired as B
    assert decode_biohd(TagSequence.parse("O I-T O")) == frozenset(
        {Mention("T", (Fragment(1, 2),))})
    # a type change starts a new mention
    assert decode_biohd(TagSequence.parse("B-T I-U")) == frozenset(
        {Mention("T", (Fragment(0, 1),)), Mention("U", (Fragment(1, 2),))})


def test_bio_round_trip_on_flat_corpora():
    corpus = make_corpus(100, seed=7,
                         weights={"flat": 0.7, "flat_pair": 0.3})
    for s in corpus:
        tags = encode_biohd(s)
        assert all(t.indicator in ("B", "I", "O") for t in tags.tags)
        assert decode_biohd(tags) == frozenset(s.mentions)


def test_decode_bio_never_raises_on_fuzz():
    rng = np.random.default_rng(3)
    alphabet = ["O", "B-T", "I-T", "B-U", "I-U"]
    for _ in range(300):
        tags = TagSequence.parse(" ".join(
            alphabet[int(rng.integers(5))] for _ in range(int(rng.integers(1, 9)))))
        decode_biohd(tags)


# ---------------------------------------------------------------------------
# BIOHD
# ---------------------------------------------------------------------------

def test_encode_biohd_paper_example():
    assert str(encode_biohd(FIG2)) == "BH-ADR I-ADR O BD-ADR"


def test_encode_biohd_flat_and_multiword_components():
    s = Sentence(("a", "b"), (Mention("T", (Fragment(0, 2),)),))
    assert str(encode_biohd(s)) == "B-T I-T"
    # two-token head shared by two mentions, two-token disc body
    s = Sentence(("h1", "h2", "x", "d1", "d2"),
                 (Mention("T", (Fragment(0, 2), Fragment(3, 5))),
                  Mention("T", (Fragment(0, 2),))))
    with pytest.raises(CorpusError):
        encode_biohd(s)  # nested (head mention inside the disc mention)
    s = Sentence(("h1", "h2", "q", "x", "d1", "d2"),
                 (Mention("T", (Fragment(0, 2), Fragment(4, 6))),
                  Mention("T", (Fragment(0, 3),))))
    assert str(encode_biohd(s)) == "BH-T IH-T I-T O BD-T ID-T"


def test_encode_biohd_rejects_nested():
    s = Sentence(("a", "b", "c"),
                 (Mention("T", (Fragment(0, 3),)), Mention("T", (Fragment(1, 2),))))
    with pytest.raises(CorpusError):
        encode_biohd(s)


def test_decode_biohd_heuristic():
    got = decode_biohd(TagSequence.parse("BH-ADR I-ADR O BD-ADR"))
    assert got == frozenset(FIG2.mentions)
    assert decode_biohd(TagSequence.parse("B-T I-T O O")) == frozenset(
        {Mention("T", (Fragment(0, 2),))})
    assert decode_biohd(TagSequence.parse("O O")) == frozenset()


def test_decode_biohd_attaches_bd_to_nearest_left_head():
    # two heads, one BD: must pick the nearer (second) head
    tags = TagSequence.parse("BH-T O BH-T O BD-T")
    got = decode_biohd(tags)
    assert Mention("T", (Fragment(2, 3), Fragment(4, 5))) in got


def test_decode_biohd_uses_right_head_when_no_left():
    tags = TagSequence.parse("BD-T O BH-T I-T")
    got = decode_biohd(tags)
    assert Mention("T", (Fragment(0, 1), Fragment(2, 3))) in got


def test_to_conll():
    out = to_conll(FIG2, encode_biohd(FIG2))
    lines = out.split("\n")
    assert lines[0] == "muscle\tBH-ADR"
    assert lines[3] == "fatigue\tBD-ADR"


# ---------------------------------------------------------------------------
# Ambiguity
# ---------------------------------------------------------------------------

def test_ambiguity_witnesses_paper_example():
    witnesses = ambiguity_witnesses(TagSequence.parse("BH-ADR I-ADR O BD-ADR"))
    assert len(witnesses) >= 2
    two = frozenset({Mention("ADR", (Fragment(0, 2),)),
                     Mention("ADR", (Fragment(0, 1), Fragment(3, 4)))})
    three = two | {Mention("ADR", (Fragment(0, 1),))}
    assert two in witnesses
    assert three in witnesses


def test_ambiguity_witnesses_unique_for_flat_tags():
    assert len(ambiguity_witnesses(TagSequence.parse("B-T I-T O"))) == 1
    rng = np.random.default_rng(11)
    alphabet = ["O", "B-T", "I-T"]
    for _ in range(50):
        tags = TagSequence.parse(" ".join(
            alphabet[int(rng.integers(3))] for _ in range(int(rng.integers(1, 7)))))
        witnesses = ambiguity_witnesses(tags)
        assert len(witnesses) == 1
        assert witnesses[0] == decode_biohd(tags)


def test_witnesses_reencode_exactly_and_are_distinct():
    tags = TagSequence.parse("BH-ADR I-ADR O BD-ADR")
    witnesses = ambiguity_witnesses(tags, limit=None)
    assert len(set(witnesses)) == len(witnesses)


def test_gold_set_among_witnesses_for_left_overlap_synthetics():
    corpus = make_corpus(150, seed=8, weights={"left_overlap": 1.0})
    for s in corpus:
        tags = encode_biohd(s)
        witnesses = ambiguity_witnesses(tags, limit=None)
        assert frozenset(s.mentions) in witnesses


def test_ambiguity_respects_limit():
    tags = TagSequence.parse("BH-ADR I-ADR O BD-ADR")
    assert len(ambiguity_witnesses(tags, limit=1)) == 1
