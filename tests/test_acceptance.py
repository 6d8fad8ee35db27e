"""Acceptance suite: one test (and one pass/fail line) per criterion.

Each test prints "criterion N: PASS" when its assertions hold; run with
`pytest -v -s tests/test_acceptance.py` to see the lines directly.
"""

import os
import tempfile
import time

import numpy as np
import pytest

from disconer.corpus import (Category, Corpus, Fragment, Mention,
                             ResampleMode, Sentence, flatten_for_flat_model,
                             overlap_category, resample)
from disconer.evaluation import (eval_by_category, eval_disc_only, evaluate,
                                 recall_by_length, strict_prf)
from disconer.neural import (ScorerConfig, Vocab, finite_diff_check,
                             init_params, predict, save_checkpoint, train)
from disconer.schemas import TagSequence, ambiguity_witnesses
from disconer.synth import make_corpus
from disconer.transitions import (ParserState, apply, decode, is_terminal,
                                  oracle, trace, valid_actions)


def _report(n, ok):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}")
    assert ok


# ---------------------------------------------------------------------------

def test_criterion_01_oracle_round_trip_10k():
    """decode(oracle(s)) == gold with zero uncovered over 10,000 sentences
    spanning No/Left/Right-overlap structures, in under 10 seconds."""
    corpus = make_corpus(10000, seed=101)
    seen = set()
    t0 = time.time()
    ok = True
    for s in corpus:
        actions, uncovered = oracle(s)
        if uncovered or decode(actions, len(s.tokens)) != frozenset(s.mentions):
            ok = False
            break
        for m in s.mentions:
            if m.is_discontinuous:
                seen.add(overlap_category(m, list(s.mentions)))
    elapsed = time.time() - t0
    coverage_ok = {Category.NO_OVERLAP, Category.LEFT_OVERLAP,
                   Category.RIGHT_OVERLAP} <= seen
    _report(1, ok and coverage_ok and elapsed < 10.0)


def test_criterion_02_figure2_trace():
    """Oracle trace of "muscle pain and fatigue" has LEFT-REDUCE at step 3
    and outputs exactly {"muscle pain", "muscle fatigue"}."""
    sent = Sentence(("muscle", "pain", "and", "fatigue"),
                    (Mention("ADR", (Fragment(0, 2),)),
                     Mention("ADR", (Fragment(0, 1), Fragment(3, 4)))))
    actions, uncovered = oracle(sent)
    report = trace(sent, actions)
    outputs = decode(actions, 4)
    ok = (not uncovered
          and report.steps[2].chosen == "LREDUCE"
          and outputs == frozenset(sent.mentions))
    _report(2, ok)


def test_criterion_03_unambiguous_decoding_10k():
    """10,000 random valid rollouts: decode is deterministic and equals the
    stepwise-accumulated outputs."""
    rng = np.random.default_rng(103)
    types = ["A", "B"]
    ok = True
    for _ in range(10000):
        n = int(rng.integers(0, 8))
        state = ParserState()
        actions = []
        while not is_terminal(state, n):
            va = sorted(valid_actions(state, n, types), key=str)
            a = va[int(rng.integers(len(va)))]
            actions.append(a)
            state = apply(state, a)
        stepwise = frozenset(state.outputs)
        if decode(actions, n, types) != stepwise:
            ok = False
            break
        if decode(actions, n, types) != decode(actions, n, types):
            ok = False
            break
    _report(3, ok)


def test_criterion_04_biohd_ambiguity():
    """ambiguity_witnesses("BH I O BD") includes both the 2-mention and the
    3-mention readings."""
    witnesses = ambiguity_witnesses(TagSequence.parse("BH-ADR I-ADR O BD-ADR"))
    two = frozenset({Mention("ADR", (Fragment(0, 2),)),
                     Mention("ADR", (Fragment(0, 1), Fragment(3, 4)))})
    three = two | {Mention("ADR", (Fragment(0, 1),))}
    _report(4, len(witnesses) >= 2 and two in witnesses and three in witnesses)


def test_criterion_05_gradient_check():
    """finite_diff_check < 1e-4 relative error on 5 random sentences of at
    most 6 tokens, covering every parameter group, under 60 s."""
    corpus = make_corpus(40, seed=105)
    small = [s for s in corpus if 0 < len(s.tokens) <= 6][:5]
    assert len(small) == 5
    config = ScorerConfig(word_dim=6, char_dim=4, char_filters=4, hidden_dim=6,
                          stack_dim=6, action_dim=5)
    vocab = Vocab.build(corpus)
    params = init_params(config, vocab)
    t0 = time.time()
    errs = [finite_diff_check(params, s, vocab, config, seed=i)
            for i, s in enumerate(small)]
    elapsed = time.time() - t0
    _report(5, max(errs) < 1e-4 and elapsed < 60.0)


def test_criterion_06_overfit():
    """A 10-sentence corpus with 3 discontinuous mentions reaches training
    strict F1 = 1.0 within 200 epochs and 2 minutes."""
    corpus = make_corpus(10, seed=10)
    assert sum(len(s.discontinuous_mentions()) for s in corpus) == 3
    vocab = Vocab.build(corpus)
    gold = [frozenset(s.mentions) for s in corpus]
    config = ScorerConfig(epochs=200, seed=0)

    class Converged(Exception):
        pass

    def hook(epoch, params, stats):
        pred = [predict(s, params, vocab, config) for s in corpus]
        if strict_prf(gold, pred)[2] == 1.0:
            raise Converged

    t0 = time.time()
    perfect = False
    try:
        train(corpus, config, vocab=vocab, epoch_hook=hook)
    except Converged:
        perfect = True
    _report(6, perfect and time.time() - t0 < 120.0)


def test_criterion_07_generalization_and_attention_ablation():
    """500-train/100-test from a long-gap generator: F1 >= 0.95 overall and
    >= 0.80 disc-only under 10 minutes; disabling attention strictly hurts
    disc-only while overall moves by < 0.05."""
    weights = {"flat": 0.90, "no_overlap": 0.10}

    def gen(n, seed):
        return make_corpus(n, seed, weights=weights, gap_range=(2, 5),
                           pre_range=(1, 1), post_range=(0, 2))

    train_c = gen(500, 11)
    test_c = gen(100, 12)
    vocab = Vocab.build(train_c)
    gold = [frozenset(s.mentions) for s in test_c]

    t0 = time.time()
    scores = {}
    for attention in (True, False):
        config = ScorerConfig(epochs=20, seed=0, attention=attention)
        params, _, _ = train(train_c, config, vocab=vocab)
        pred = [predict(s, params, vocab, config) for s in test_c]
        scores[attention] = (strict_prf(gold, pred)[2],
                             eval_disc_only(gold, pred)[2])
    elapsed = time.time() - t0

    overall_on, disc_on = scores[True]
    overall_off, disc_off = scores[False]
    ok = (overall_on >= 0.95
          and disc_on >= 0.80
          and disc_on - disc_off > 0.0
          and abs(overall_on - overall_off) < 0.05
          and elapsed < 600.0)
    _report(7, ok)


def test_criterion_08_metric_brute_force_equivalence():
    """strict_prf, eval_disc_only, eval_by_category, recall_by_length all
    match independent brute-force recounts on 100 random gold/pred pairs."""
    rng = np.random.default_rng(108)
    gold, pred = [], []
    for _ in range(100):
        n = int(rng.integers(4, 10))

        def rand_mention():
            etype = ("T", "U")[int(rng.integers(2))]
            if rng.random() < 0.5:
                s = int(rng.integers(0, n - 1))
                return Mention(etype, (Fragment(s, s + int(rng.integers(1, 3))),))
            s = int(rng.integers(0, n - 3))
            g = s + 1 + int(rng.integers(1, 2))
            return Mention(etype, (Fragment(s, s + 1), Fragment(g + 1, g + 2)))

        g = frozenset(rand_mention() for _ in range(int(rng.integers(0, 4))))
        p = frozenset(x for x in g if rng.random() < 0.6) | frozenset(
            rand_mention() for _ in range(int(rng.integers(0, 3))))
        gold.append(g)
        pred.append(p)

    def brute_prf(gs, ps):
        tp = sum(1 for g, p in zip(gs, ps) for x in p if x in g)
        npred = sum(len(p) for p in ps)
        ngold = sum(len(g) for g in gs)
        prec = tp / npred if npred else 0.0
        rec = tp / ngold if ngold else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        return prec, rec, f1

    ok = strict_prf(gold, pred) == brute_prf(gold, pred)

    disc_g = [frozenset(m for m in s if len(m.fragments) > 1) for s in gold]
    disc_p = [frozenset(m for m in s if len(m.fragments) > 1) for s in pred]
    ok = ok and eval_disc_only(gold, pred) == brute_prf(disc_g, disc_p)

    # category recount with a from-scratch classifier
    def brute_cat(m, others):
        shared = set()
        for i, f in enumerate(m.fragments):
            for o in others:
                if o is m:
                    continue
                if set(f.tokens()) & {t for of in o.fragments for t in of.tokens()}:
                    shared.add(i)
        if not shared:
            return Category.NO_OVERLAP
        if len(shared) >= 2 or (min(shared) != 0 and
                                max(shared) != len(m.fragments) - 1):
            return Category.MULTI_OVERLAP
        return (Category.LEFT_OVERLAP if 0 in shared
                else Category.RIGHT_OVERLAP)

    table = eval_by_category(gold, pred)
    for cat in Category:
        g_count = g_hit = p_count = p_hit = 0
        for g, p in zip(gold, pred):
            for m in g:
                if len(m.fragments) > 1 and brute_cat(m, list(g)) == cat:
                    g_count += 1
                    g_hit += int(m in p)
            for m in p:
                if len(m.fragments) > 1 and brute_cat(m, list(p)) == cat:
                    p_count += 1
                    p_hit += int(m in g)
        prec = p_hit / p_count if p_count else 0.0
        rec = g_hit / g_count if g_count else 0.0
        ok = ok and table[cat]["gold"] == g_count
        ok = ok and table[cat]["precision"] == prec
        ok = ok and table[cat]["recall"] == rec

    lengths = recall_by_length(gold, pred)
    for bucket_key, key_fn in (
            ("mention_length",
             lambda m: min(sum(len(f) for f in m.fragments), 5)),
            ("interval_length",
             lambda m: min(m.fragments[-1].end - m.fragments[0].start
                           - sum(len(f) for f in m.fragments), 4))):
        counts = {}
        for g, p in zip(gold, pred):
            for m in g:
                k = key_fn(m)
                name = (f"{k}+" if (k == 5 and bucket_key == "mention_length")
                        or (k == 4 and bucket_key == "interval_length")
                        else str(k))
                cell = counts.setdefault(name, [0, 0])
                cell[0] += 1
                cell[1] += int(m in p)
        for name, (got_gold, got_hit) in counts.items():
            cell = lengths[bucket_key][name]
            ok = ok and cell["gold"] == got_gold and cell["matched"] == got_hit
    _report(8, ok)


def test_criterion_09_flatten_and_resample():
    """flatten removes all discontinuity and overlap; resample settings
    produce the exact documented counts."""
    corpus = make_corpus(2000, seed=109)
    flat = flatten_for_flat_model(corpus)
    ok = True
    for s in flat:
        for m in s.mentions:
            ok = ok and not m.is_discontinuous
            ok = ok and not any(o is not m and m.overlaps(o) for o in s.mentions)

    def sent(mentions):
        return Sentence(tuple(f"t{i}" for i in range(10)), tuple(mentions))

    disc = [sent([Mention("T", (Fragment(0, 1), Fragment(3 + i % 2, 4 + i % 2)))])
            for i in range(2)]
    rest = [sent([Mention("T", (Fragment(i % 3, i % 3 + 1),))]) for i in range(8)]
    mixed = Corpus(tuple(disc + rest))
    ok = ok and len(resample(mixed, ResampleMode.DISC_ONLY, seed=0)) == 2
    ok = ok and len(resample(mixed, ResampleMode.UNDER_SAMPLE, seed=0)) == 4
    ok = ok and len(resample(mixed, ResampleMode.OVER_SAMPLE, seed=0)) == 16
    _report(9, ok)


def test_criterion_10_bitwise_determinism():
    """Two identical train runs produce bitwise-identical checkpoints and
    evaluation reports."""
    corpus = make_corpus(30, seed=110)
    test_c = make_corpus(10, seed=111)
    config = ScorerConfig(epochs=5, seed=42)
    blobs = []
    reports = []
    for _ in range(2):
        params, vocab, _ = train(corpus, config)
        path = tempfile.mktemp()
        save_checkpoint(path, params, config, vocab)
        with open(path, "rb") as fh:
            blobs.append(fh.read())
        os.remove(path)
        gold = [frozenset(s.mentions) for s in test_c]
        pred = [predict(s, params, vocab, config) for s in test_c]
        reports.append(evaluate(gold, pred).to_json())
    _report(10, blobs[0] == blobs[1] and reports[0] == reports[1])
