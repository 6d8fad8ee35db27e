"""Tests for the corpus data model, formats, stats, and transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disconer.corpus import (Category, Corpus, CorpusError, Fragment, Mention,
                             ResampleMode, Sentence, canonicalize,
                             corpus_stats, flatten_for_flat_model,
                             overlap_category, parse_inline, parse_standoff,
                             resample, write_inline)
from disconer.synth import make_corpus
from strategies import non_nested_sentences


# ---------------------------------------------------------------------------
# Fragments and canonical form
# ---------------------------------------------------------------------------

def test_fragment_rejects_empty_and_negative():
    with pytest.raises(CorpusError):
        Fragment(2, 2)
    with pytest.raises(CorpusError):
        Fragment(-1, 2)
    with pytest.raises(CorpusError):
        Fragment(3, 1)


def test_canonicalize_sorts_and_merges_adjacent():
    frags = canonicalize([Fragment(3, 4), Fragment(0, 1), Fragment(1, 3)])
    assert frags == (Fragment(0, 4),)
    frags = canonicalize([Fragment(5, 6), Fragment(0, 2)])
    assert frags == (Fragment(0, 2), Fragment(5, 6))


def test_canonicalize_rejects_overlap():
    with pytest.raises(CorpusError):
        canonicalize([Fragment(0, 3), Fragment(2, 5)])
    with pytest.raises(CorpusError):
        canonicalize([])


def test_mention_equality_is_canonical():
    a = Mention("ADR", (Fragment(0, 1), Fragment(1, 3)))
    b = Mention("ADR", (Fragment(0, 3),))
    assert a == b
    assert hash(a) == hash(b)
    assert not a.is_discontinuous


def test_mention_type_obeys_the_entity_type_rule():
    """An entity type is what the inline format reads back: non-empty, with
    no whitespace and no '|'."""
    for bad in ("", "A B", "A|B", "A\tB", "A\n", 5, None):
        with pytest.raises(CorpusError, match="entity type"):
            Mention(bad, (Fragment(0, 1),))
    assert Mention("ADR-2", (Fragment(0, 1),)).entity_type == "ADR-2"


def test_mention_lengths():
    m = Mention("ADR", (Fragment(0, 1), Fragment(3, 5)))
    assert m.length == 3
    assert m.interval_length == 2
    assert m.token_set() == frozenset({0, 3, 4})
    flat = Mention("ADR", (Fragment(2, 4),))
    assert flat.interval_length == 0


def test_sentence_validation():
    with pytest.raises(CorpusError):
        Sentence(("a", "b"), (Mention("T", (Fragment(0, 3),)),))
    m = Mention("T", (Fragment(0, 1),))
    with pytest.raises(CorpusError):
        Sentence(("a", "b"), (m, Mention("T", (Fragment(0, 1),))))


# ---------------------------------------------------------------------------
# Overlap taxonomy
# ---------------------------------------------------------------------------

def _sent(mentions, n=10):
    return Sentence(tuple(f"t{i}" for i in range(n)), tuple(mentions))


def test_overlap_categories():
    lonely = Mention("T", (Fragment(0, 1), Fragment(3, 4)))
    assert overlap_category(lonely, [lonely]) == Category.NO_OVERLAP

    # left: first component shared with a continuous mention
    disc = Mention("T", (Fragment(0, 1), Fragment(4, 5)))
    flat = Mention("T", (Fragment(0, 2),))
    assert overlap_category(disc, [disc, flat]) == Category.LEFT_OVERLAP

    # right: last component shared
    disc = Mention("T", (Fragment(0, 1), Fragment(4, 6)))
    flat = Mention("T", (Fragment(5, 7),))
    assert overlap_category(disc, [disc, flat]) == Category.RIGHT_OVERLAP

    # multi: both components shared
    a = Mention("T", (Fragment(0, 1), Fragment(4, 5)))
    b = Mention("T", (Fragment(0, 1),))
    c = Mention("T", (Fragment(4, 5), Fragment(8, 9)))
    assert overlap_category(a, [a, b, c]) == Category.MULTI_OVERLAP


def test_overlap_middle_component_is_multi():
    m = Mention("T", (Fragment(0, 1), Fragment(3, 4), Fragment(6, 7)))
    other = Mention("T", (Fragment(3, 5),))
    assert overlap_category(m, [m, other]) == Category.MULTI_OVERLAP


def test_overlap_requires_discontinuous():
    flat = Mention("T", (Fragment(0, 2),))
    with pytest.raises(CorpusError):
        overlap_category(flat, [flat])


# ---------------------------------------------------------------------------
# Inline format
# ---------------------------------------------------------------------------

INLINE = """muscle pain and fatigue
0,2 ADR|0,1;3,4 ADR

no mentions here

"""


def test_parse_inline():
    corpus = parse_inline(INLINE)
    assert len(corpus) == 2
    s0 = corpus.sentences[0]
    assert s0.tokens == ("muscle", "pain", "and", "fatigue")
    assert frozenset(s0.mentions) == frozenset({
        Mention("ADR", (Fragment(0, 2),)),
        Mention("ADR", (Fragment(0, 1), Fragment(3, 4))),
    })
    assert corpus.sentences[1].mentions == ()


def test_inline_round_trip():
    corpus = make_corpus(50, seed=0)
    text = write_inline(corpus)
    parsed = parse_inline(text)
    assert len(parsed) == len(corpus)
    for a, b in zip(corpus, parsed):
        assert a.tokens == b.tokens
        assert frozenset(a.mentions) == frozenset(b.mentions)
    assert write_inline(parsed) == text


INLINE_TOKENS = st.text(st.characters(exclude_characters=" \n"), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(non_nested_sentences(),
                          st.lists(INLINE_TOKENS, min_size=9, max_size=9)), max_size=4))
def test_inline_round_trip_on_arbitrary_sentences(drawn):
    corpus = Corpus(tuple(
        Sentence(tuple(words[:len(s.tokens)]),
                 tuple(sorted(s.mentions, key=lambda m: (m.fragments, m.entity_type))))
        for s, words in drawn))
    assert parse_inline(write_inline(corpus)) == corpus


def test_parse_inline_errors_carry_line_numbers():
    with pytest.raises(CorpusError, match="line 2"):
        parse_inline("a b\nnot-a-mention X\n")
    # a bad fragment or an overlap is an error of its mention line too
    for mentions, message in (("2,1 X", r"invalid fragment \(2,1\)"),
                              ("1,1 X", r"invalid fragment \(1,1\)"),
                              ("0,2;1,3 X", r"fragments \(0,2\) and \(1,3\) overlap")):
        with pytest.raises(CorpusError, match=f"^line 5: {message}$"):
            parse_inline(f"a b c d\n0,1 X\n\na b c d\n{mentions}\n")


# ---------------------------------------------------------------------------
# Standoff format
# ---------------------------------------------------------------------------

def test_parse_standoff_basic():
    text = "muscle pain and fatigue"
    ann = "T1\tADR 0 11\tmuscle pain\nT2\tADR 0 6;16 23\tmuscle fatigue\n"
    corpus, warnings = parse_standoff(text, ann)
    assert warnings == []
    s = corpus.sentences[0]
    assert s.tokens == ("muscle", "pain", "and", "fatigue")
    assert frozenset(s.mentions) == frozenset({
        Mention("ADR", (Fragment(0, 2),)),
        Mention("ADR", (Fragment(0, 1), Fragment(3, 4))),
    })


def test_parse_standoff_skips_bad_offsets_with_warning():
    text = "muscle pain"
    ann = "T1\tADR 1 5\tuscl\n"
    corpus, warnings = parse_standoff(text, ann)
    assert corpus.sentences[0].mentions == ()
    assert len(warnings) == 1 and "skipped" in warnings[0]


def test_parse_standoff_skips_overlapping_fragments_with_warning():
    text = "muscle pain and fatigue"
    ann = ("T1\tADR 0 11;7 15\tmuscle pain pain and\n"
           "T2\tADR 0 6;16 23\tmuscle fatigue\n")
    corpus, warnings = parse_standoff(text, ann)
    assert corpus.sentences[0].mentions == (
        Mention("ADR", (Fragment(0, 1), Fragment(3, 4))),)
    assert len(warnings) == 1
    assert warnings[0].startswith("T1:") and "overlap" in warnings[0]
    assert "skipped" in warnings[0]


def test_parse_standoff_punctuation_tokens():
    text = "pain, fatigue."
    ann = "T1\tADR 0 4\tpain\n"
    corpus, warnings = parse_standoff(text, ann)
    assert corpus.sentences[0].tokens == ("pain", ",", "fatigue", ".")
    assert len(corpus.sentences[0].mentions) == 1


def test_parse_standoff_cross_sentence_skipped():
    text = "muscle pain\nfatigue"
    ann = "T1\tADR 7 19\tpain fatigue\n"
    corpus, warnings = parse_standoff(text, ann)
    assert all(not s.mentions for s in corpus)
    assert len(warnings) == 1


def test_parse_standoff_one_sentence_per_non_blank_line():
    text = "muscle pain\n\n  \nleg cramps and\tfatigue\n"
    ann = "T1\tADR 0 11\tmuscle pain\nT2\tADR 16 19;31 38\tleg fatigue\n"
    corpus, warnings = parse_standoff(text, ann)
    assert warnings == []
    assert [s.tokens for s in corpus] == [("muscle", "pain"),
                                          ("leg", "cramps", "and", "fatigue")]
    assert corpus.sentences[0].mentions == (Mention("ADR", (Fragment(0, 2),)),)
    assert corpus.sentences[1].mentions == (
        Mention("ADR", (Fragment(0, 1), Fragment(3, 4))),)
    assert len(parse_standoff("\n \n", "")[0]) == 0


@pytest.mark.parametrize("etype", ["A|B", ""])
def test_parse_standoff_skips_types_the_inline_format_cannot_hold(etype):
    ann = f"T1\t{etype} 0 6\tmuscle\nT2\tADR 0 11\tmuscle pain\n"
    corpus, warnings = parse_standoff("muscle pain", ann)
    assert corpus.sentences[0].mentions == (Mention("ADR", (Fragment(0, 2),)),)
    assert len(warnings) == 1
    assert warnings[0].startswith("T1: entity type") and "skipped" in warnings[0]
    assert parse_inline(write_inline(corpus)) == corpus


@pytest.mark.parametrize("offsets", ["", " x", " 0", " 0 6 11", " 0 6;16", " 0 6;", " 0 6;;16 23"])
def test_parse_standoff_malformed_offsets(offsets):
    ann = f"T1\tADR 0 6\tmuscle\nT2\tADR{offsets}\tfatigue\n"
    with pytest.raises(CorpusError, match="line 2: malformed offsets"):
        parse_standoff("muscle pain and fatigue", ann)


STANDOFF_TEXT = st.text(st.sampled_from("ab .,\n"), max_size=20)
STANDOFF_LINE = st.one_of(
    st.text(st.sampled_from("T1\tADR 0123;-x\n"), max_size=20),
    st.builds(lambda kind, etype, offs, tail: f"{kind}\t{etype}{offs}{tail}",
              st.sampled_from(["T1", "T2", "R1", "T"]), st.sampled_from(["ADR", "", "A B", "A|B"]),
              st.text(st.sampled_from(" ;0123456789-"), max_size=12),
              st.sampled_from(["", "\tmention", "\t"])))


@settings(max_examples=3000, deadline=None)
@given(STANDOFF_TEXT, st.lists(STANDOFF_LINE, max_size=4))
def test_parse_standoff_fuzz_raises_only_corpus_errors(text, lines):
    """Any input either fails with one CorpusError or gives a corpus that the
    inline format holds."""
    try:
        corpus, _ = parse_standoff(text, "\n".join(lines))
    except CorpusError:
        return
    parse_inline(write_inline(corpus))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def test_corpus_stats_hand_recount():
    corpus = parse_inline(INLINE)
    stats = corpus_stats(corpus)
    assert stats.sentence_count == 2
    assert stats.mention_count == 2
    assert stats.disc_mention_count == 1
    assert stats.disc_percentage == pytest.approx(50.0)
    assert stats.avg_mention_length == pytest.approx(2.0)
    assert stats.avg_disc_mention_length == pytest.approx(2.0)
    assert stats.avg_interval_length == pytest.approx(2.0)
    assert stats.component_histogram == {2: 1}
    assert stats.category_histogram[Category.LEFT_OVERLAP] == 1
    assert stats.continuous_overlap_count == 1


def test_corpus_stats_empty():
    stats = corpus_stats(Corpus(()))
    assert stats.mention_count == 0
    assert stats.disc_percentage == 0.0
    assert "mentions = 0" in stats.to_text()


def test_stats_matches_brute_force_on_random_corpora():
    corpus = make_corpus(200, seed=4)
    stats = corpus_stats(corpus)
    mentions = [m for s in corpus for m in s.mentions]
    disc = [m for m in mentions if m.is_discontinuous]
    assert stats.mention_count == len(mentions)
    assert stats.disc_mention_count == len(disc)
    assert stats.avg_mention_length == pytest.approx(
        sum(m.length for m in mentions) / len(mentions))
    assert stats.avg_interval_length == pytest.approx(
        sum(m.interval_length for m in disc) / len(disc))
    assert sum(stats.component_histogram.values()) == len(disc)
    assert sum(stats.category_histogram.values()) == len(disc)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def test_flatten_replaces_disc_with_covering_span():
    s = _sent([Mention("T", (Fragment(1, 2), Fragment(4, 5)))])
    flat = flatten_for_flat_model(Corpus((s,)))
    assert flat.sentences[0].mentions == (Mention("T", (Fragment(1, 5),)),)


def test_flatten_merges_transitive_overlaps():
    s = _sent([Mention("A", (Fragment(0, 3),)),
               Mention("B", (Fragment(2, 5),)),
               Mention("B", (Fragment(4, 7),))])
    flat = flatten_for_flat_model(Corpus((s,)))
    (m,) = flat.sentences[0].mentions
    assert m.fragments == (Fragment(0, 7),)
    assert m.entity_type == "B"  # majority of {A, B, B}


def test_flatten_majority_tie_goes_to_leftmost():
    s = _sent([Mention("A", (Fragment(0, 3),)), Mention("B", (Fragment(2, 5),))])
    flat = flatten_for_flat_model(Corpus((s,)))
    (m,) = flat.sentences[0].mentions
    assert m.entity_type == "A"


@st.composite
def mention_sets(draw):
    """A sentence with arbitrary mentions: nested, overlapping or touching."""
    n = draw(st.integers(1, 12))
    mentions: list[Mention] = []
    for _ in range(draw(st.integers(0, 6))):
        tokens = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        m = Mention(draw(st.sampled_from("AB")), tuple(Fragment(t, t + 1) for t in tokens))
        if m not in mentions:
            mentions.append(m)
    return _sent(mentions, n)


@settings(max_examples=500, deadline=None)
@given(mention_sets())
def test_flatten_groups_overlapping_covers(s):
    (flat,) = flatten_for_flat_model(Corpus((s,))).sentences
    assert flat.tokens == s.tokens
    outs = [m.fragments[0] for m in flat.mentions]
    assert all(len(m.fragments) == 1 for m in flat.mentions)
    assert all(a.end <= b.start for a, b in zip(outs, outs[1:]))
    # covers in input order, then stably sorted left to right
    covers = sorted(((m.fragments[0].start, m.fragments[-1].end, m.entity_type)
                     for m in s.mentions), key=lambda c: c[:2])
    for start, end, _ in covers:
        assert sum(o.start <= start and end <= o.end for o in outs) == 1
    for out, m in zip(outs, flat.mentions):
        inside = [c for c in covers if out.start <= c[0] and c[1] <= out.end]
        assert set().union(*(range(a, b) for a, b, _ in inside)) == set(out.tokens())
        # one group: no cut point inside the output that no cover straddles
        assert all(any(a < p < b for a, b, _ in inside) for p in range(out.start + 1, out.end))
        types = [t for _, _, t in inside]
        best = max(types.count(t) for t in types)
        assert m.entity_type == next(t for t in types if types.count(t) == best)


def _mixed_corpus():
    disc = [_sent([Mention("T", (Fragment(0, 1), Fragment(3, 4)))])
            for _ in range(2)]
    rest = [_sent([Mention("T", (Fragment(i % 3, i % 3 + 1),))]) for i in range(8)]
    return Corpus(tuple(disc + rest))


def test_resample_counts():
    corpus = _mixed_corpus()
    assert len(resample(corpus, ResampleMode.DISC_ONLY, seed=0)) == 2
    under = resample(corpus, ResampleMode.UNDER_SAMPLE, seed=0)
    assert len(under) == 4
    assert sum(1 for s in under if s.discontinuous_mentions()) == 2
    over = resample(corpus, ResampleMode.OVER_SAMPLE, seed=0)
    assert len(over) == 16
    assert sum(1 for s in over if s.discontinuous_mentions()) == 8


@pytest.mark.parametrize("seed, chosen", [
    (0, [0, 1, 3, 5, 7, 8, 11]),
    (7, [8, 10, 14, 18, 21, 22, 23]),
])
def test_resample_under_sample_draws_are_pinned(seed, chosen):
    """The sentences UNDER_SAMPLE picks for a seed, as positions in its
    input: the discontinuous ones in order, then the drawn others."""
    corpus = make_corpus(24, seed=3, weights={"flat": 2.0, "no_overlap": 1.0})
    position = {id(s): i for i, s in enumerate(corpus)}
    under = resample(corpus, ResampleMode.UNDER_SAMPLE, seed=seed)
    assert [position[id(s)] for s in under] == [4, 9, 12, 13, 15, 17, 20] + chosen


def test_resample_deterministic():
    corpus = make_corpus(100, seed=1)
    a = resample(corpus, ResampleMode.UNDER_SAMPLE, seed=5)
    b = resample(corpus, ResampleMode.UNDER_SAMPLE, seed=5)
    assert a.sentences == b.sentences
