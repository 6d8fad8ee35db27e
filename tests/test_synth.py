"""Tests for the synthetic corpus generator."""

import re

import numpy as np
import pytest

from disconer import synth
from disconer.corpus import Corpus

LONGGAP = {"gap_range": (2, 5), "pre_range": (2, 6), "post_range": (2, 6)}
MIXES = [None, {kind: 1.0 for kind in synth.KINDS}, {"flat": 1.0},
         {"multi_overlap": 2.0, "flat": 0.5, "empty": 0.0}]


def _choice_reference(n, seed, weights, **ranges):
    """make_corpus with each kind drawn by rng.choice(p=...): the kinds and
    the corpus."""
    weights = dict(synth.DERIVABLE_WEIGHTS if weights is None else weights)
    kinds = [k for k in synth.KINDS if weights.get(k, 0.0) > 0]
    probs = np.array([weights[k] for k in kinds], dtype=float)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    drawn, sentences = [], []
    for _ in range(n):
        drawn.append(kinds[int(rng.choice(len(kinds), p=probs))])
        sentences.append(synth.make_sentence(rng, drawn[-1], **ranges))
    return drawn, Corpus(tuple(sentences))


@pytest.mark.parametrize("weights", MIXES)
@pytest.mark.parametrize("ranges", [{}, LONGGAP])
def test_make_corpus_draws_the_kinds_rng_choice_draws(monkeypatch, weights, ranges):
    make_sentence = synth.make_sentence
    for seed in range(6):
        drawn = []

        def recording(rng, kind, *args, **kwargs):
            drawn.append(kind)
            return make_sentence(rng, kind, *args, **kwargs)

        monkeypatch.setattr(synth, "make_sentence", recording)
        corpus = synth.make_corpus(40, seed, weights, **ranges)
        monkeypatch.setattr(synth, "make_sentence", make_sentence)
        want_kinds, want = _choice_reference(40, seed, weights, **ranges)
        assert drawn == want_kinds
        assert corpus == want


@pytest.mark.parametrize("weights, message", [
    ({"bogus": 1.0, "flat": 1.0}, "unknown template kinds ['bogus']"),
    ({"flat": 0.0, "empty": -1.0}, "no template kind has a positive weight"),
    ({}, "no template kind has a positive weight"),
    ({"flat": float("inf")}, "template weights must be finite"),
])
def test_make_corpus_refuses_bad_weights(weights, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        synth.make_corpus(3, 0, weights)
