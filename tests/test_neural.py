"""Tests for the autodiff engine and the neural transition scorer."""

import importlib.util
import json
import os
import struct
import tempfile
import zlib
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disconer import autodiff as ad
from disconer import neural
from disconer.corpus import CorpusError, Fragment, Mention, Sentence
from disconer.neural import (ScorerConfig, ScorerParams, Vocab, attend,
                             compose, finite_diff_check, init_params,
                             load_checkpoint, predict, save_checkpoint,
                             sentence_loss, sgd_step, stack_pop, stack_push,
                             token_reps, train)
from disconer.synth import make_corpus
from disconer.transitions import OUT, REDUCE, decode, oracle, trace
from strategies import non_nested_sentences


# ---------------------------------------------------------------------------
# Autodiff primitives
# ---------------------------------------------------------------------------

def _num_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        x[idx] = orig + eps
        up = f()
        x[idx] = orig - eps
        down = f()
        x[idx] = orig
        g[idx] = (up - down) / (2 * eps)
    return g


def test_lstm_cell_gradients():
    rng = np.random.default_rng(0)
    H, D = 4, 3
    W = ad.leaf(rng.normal(size=(4 * H, D + H)))
    b = ad.leaf(rng.normal(size=4 * H))
    x = ad.leaf(rng.normal(size=D))
    h = ad.leaf(rng.normal(size=H))
    c = ad.leaf(rng.normal(size=H))
    v = rng.normal(size=H)

    def forward():
        tape = ad.Tape()
        h2, _ = ad.lstm_cell(tape, W, b, x, h, c)
        return float(v @ h2.data)

    tape = ad.Tape()
    h2, _ = ad.lstm_cell(tape, W, b, x, h, c)
    total = ad.affine(tape, ad.leaf(v[None, :]), h2, ad.leaf(np.zeros(1)))
    ad.backward(tape, total)
    for t, name in ((W, "W"), (b, "b"), (x, "x"), (h, "h"), (c, "c")):
        num = _num_grad(forward, t.data)
        assert np.allclose(t.grad, num, atol=1e-6), name


def test_char_cnn_gradients():
    rng = np.random.default_rng(1)
    filters = ad.leaf(rng.normal(size=(3, 2 * 2)))
    bias = ad.leaf(rng.normal(size=3))
    lengths = [5, 1, 3]      # one word shorter than the window
    emb = ad.leaf(rng.normal(size=(sum(lengths), 2)))
    v = rng.normal(size=(3, 3))

    def forward():
        tape = ad.Tape()
        out = ad.char_cnn(tape, filters, bias, emb, lengths)
        return float((v * out.data).sum())

    tape = ad.Tape()
    out = ad.char_cnn(tape, filters, bias, emb, lengths)
    out.grad = v
    out._backward(v)
    for t in (filters, bias, emb):
        assert np.allclose(t.grad, _num_grad(forward, t.data), atol=1e-6)


def test_char_cnn_pads_short_words():
    tape = ad.Tape()
    filters = ad.leaf(np.ones((2, 3 * 2)))
    bias = ad.leaf(np.zeros(2))
    emb = ad.leaf(np.ones((1, 2)))  # shorter than window 3
    out = ad.char_cnn(tape, filters, bias, emb, [1])
    assert out.data.shape == (1, 2)
    # the one window holds the character and two zero rows
    assert np.array_equal(out.data, np.full((1, 2), 2.0))


def test_attend_weights_and_empty_buffer():
    rng = np.random.default_rng(2)
    S, n = 4, 5
    spans = rng.normal(size=(3, S))
    keys = rng.normal(size=(n, 3 * S))
    w = ad.attention_weights(spans, 2, keys)
    assert w.shape == (3, n - 2)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    # on an empty buffer (start n) the attention terms are zero vectors
    R, A = 3, 2
    p = {"out_W": np.eye(3 * S + 3 * R + A), "out_b": np.zeros(3 * S + 3 * R + A)}
    reps = rng.normal(size=(n, R))
    act = rng.normal(size=(1, A))
    logits = attend(ad.Forward(p), [tuple(spans)], act, [n], reps, keys)
    assert np.array_equal(logits[0], np.concatenate([spans.ravel(), np.zeros(3 * R), act[0]]))


def test_attend_single_row_returns_row():
    rng = np.random.default_rng(3)
    B = rng.normal(size=(1, 3))
    tape = ad.Tape()
    out = ad.attend(tape, ad.leaf(rng.normal(size=4)),
                    ad.leaf(rng.normal(size=(4, 3))), ad.leaf(B))
    assert np.allclose(out.data, B[0])


def test_masked_softmax_properties():
    logits = np.array([1.0, 5.0, 2.0, -1.0])
    dist = ad.masked_softmax(logits, [0, 2])
    assert dist[1] == 0.0 and dist[3] == 0.0
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    only = ad.masked_softmax(logits, [3])
    assert only[3] == 1.0


def test_masked_nll_gradient():
    rng = np.random.default_rng(4)
    logits = ad.leaf(rng.normal(size=(2, 6)))
    valid, gold = [[0, 2, 5], [1, 3]], [2, 1]

    def forward():
        tape = ad.Tape()
        return float(ad.masked_nll(tape, logits, valid, gold).data)

    tape = ad.Tape()
    loss = ad.masked_nll(tape, logits, valid, gold)
    ad.backward(tape, loss)
    assert np.allclose(logits.grad, _num_grad(forward, logits.data), atol=1e-6)
    assert np.all(logits.grad[0, [1, 3, 4]] == 0.0) and np.all(logits.grad[1, [0, 2, 4, 5]] == 0.0)


def _tape_op_cases():
    """Arguments of each op of Recorded._OPS and of the reference-only ops
    add_n, row, rows_slice and attend, with arrays where the op takes
    Tensors."""
    rng = np.random.default_rng(13)
    H, D, n, T = 2, 3, 4, 2

    def arrays(*shapes):
        return [rng.normal(size=shape) for shape in shapes]

    return {
        "add_n": [arrays((D,), (D,))],
        "affine": arrays((H, D), (D,), (H,)),
        "lstm_cell": arrays((4 * H, D + H), (4 * H,), (D,), (H,), (H,)),
        "lstm_seq": arrays((4 * H, D + H), (4 * H,), (n, D)),
        "bilstm": arrays((4 * H, D + H), (4 * H,), (4 * H, D + H), (4 * H,), (n, D)),
        "char_cnn": arrays((H, 3 * D), (H,), (8, D)) + [[2, 1, 3, 2]],
        "attend": arrays((H,), (H, D), (n, D)),
        "score": [[tuple(arrays((H,), (H,), (H,))) for _ in range(T)],
                  *arrays((T, D)), [0, 2], *arrays((n, 2), (n, 3 * H), (4, 3 * H + 6 + D), (4,))],
        "masked_nll": arrays((T, 6)) + [[[0, 2, 5]] * T, [2] * T],
        "project": [*arrays((n, D)), arrays((H, D), (2, D)), *arrays((H + 2,))],
        "rows_slice": arrays((n + 2, D)) + [1, n + 1],
        "row": arrays((n, D)) + [n - 1],
        "pick": arrays((n, D)) + [n - 1],
        "rows_lookup": arrays((n, D)) + [[n - 1, 0, n - 1]],
        "concat": [arrays((H,), (D,), (n,))],
        "stack_rows": [arrays((D,), (n, D), (D,))],
    }


def _on_leaves(args, made):
    """args with each array, also inside lists and tuples, made a new leaf
    that is appended to `made`."""
    if isinstance(args, np.ndarray):
        made.append(ad.leaf(args))
        return made[-1]
    if isinstance(args, (list, tuple)) and any(isinstance(a, (np.ndarray, list, tuple))
                                              for a in args):
        return type(args)(_on_leaves(a, made) for a in args)
    return args


def test_a_tape_op_runs_its_backward_only_when_its_output_has_a_gradient():
    """Run from a loss the op does not reach, backward gives none of the
    op's inputs a gradient; with a gradient seeded on the output (on h2 or on
    c2 alone for lstm_cell) every input gets one. Either way backward drops
    every closure."""
    cases = _tape_op_cases()
    assert set(cases) == set(ad.Recorded._OPS) | {"add_n", "row", "rows_slice", "attend"}
    for name, args in cases.items():
        for seeded in ([], [0], [1]) if name == "lstm_cell" else ([], [0]):
            inputs = []
            tape = ad.Tape()
            outs = getattr(ad, name)(tape, *_on_leaves(args, inputs))
            outs = outs if isinstance(outs, tuple) else (outs,)
            for k in seeded:
                outs[k].grad = np.ones_like(outs[k].data)
            ad.backward(tape, tape.record(np.asarray(0.0)))
            assert all(t._backward is None for t in tape.nodes), name
            if seeded:
                assert all(t.grad is not None for t in inputs), (name, seeded)
            else:
                assert all(t.grad is None and t.rows is None for t in inputs), name


def test_backward_calls_a_closure_once_and_only_with_a_gradient():
    calls = []
    tape = ad.Tape()
    idle = tape.record(np.ones(2), lambda g: calls.append(("idle", g)))
    fed = tape.record(np.ones(2), lambda g: calls.append(("fed", g)))
    fed.grad = np.full(2, 3.0)
    ad.backward(tape, tape.record(np.asarray(0.0)))
    assert [name for name, _ in calls] == ["fed"] and calls[0][1] is fed.grad
    assert idle._backward is None and fed._backward is None


def test_lstm_cell_h2_alone_feeds_c2_and_runs_the_gates_once():
    """With a gradient on h2 only, c2 receives exactly dh2 * o *
    (1 - tanh(c2)^2), and c2's gate closure runs once, with it."""
    rng = np.random.default_rng(30)
    H, D = 3, 4
    W, b, x, h, c = (ad.leaf(rng.normal(size=s))
                     for s in ((4 * H, D + H), (4 * H,), (D,), (H,), (H,)))
    tape = ad.Tape()
    h2, c2 = ad.lstm_cell(tape, W, b, x, h, c)
    calls = []
    gates_back = c2._backward
    c2._backward = lambda g: (calls.append(g.copy()), gates_back(g))
    dh2 = rng.normal(size=H)
    h2.grad = dh2.copy()
    ad.backward(tape, tape.record(np.asarray(0.0)))
    o = 1.0 / (1.0 + np.exp(-(W.data @ np.concatenate([x.data, h.data]) + b.data)[2 * H:3 * H]))
    assert len(calls) == 1
    assert np.array_equal(calls[0], dh2 * o * (1 - np.tanh(c2.data) ** 2))
    assert all(t.grad is not None for t in (W, b, x, h, c))


def test_lstm_cell_zero_state_is_none():
    """h = c = None is the zero state: h2, c2 and the gradients of W, b and
    x are bitwise those of the step from zero leaves, with the gradient on
    h2, on c2 or on both; Forward gives the same bytes."""
    rng = np.random.default_rng(31)
    H, D = 3, 4
    arrays = [rng.normal(size=s) for s in ((4 * H, D + H), (4 * H,), (D,))]
    dh2, dc2 = rng.normal(size=H), rng.normal(size=H)
    forward = ad.Forward({}).lstm_cell(*arrays, None, None)
    for seeds in ((dh2, None), (None, dc2), (dh2, dc2)):
        got = []
        for state in ((None, None), (ad.leaf(np.zeros(H)), ad.leaf(np.zeros(H)))):
            leaves = [ad.leaf(a) for a in arrays]
            tape = ad.Tape()
            outs = ad.lstm_cell(tape, *leaves, *state)
            for out, g in zip(outs, seeds):
                out.grad = None if g is None else g.copy()
            ad.backward(tape, tape.record(np.asarray(0.0)))
            got.append([t.data.tobytes() for t in outs] + [t.grad.tobytes() for t in leaves])
        assert got[0] == got[1]
        assert [a.tobytes() for a in forward] == got[0][:2]


# ---------------------------------------------------------------------------
# Scorer components
# ---------------------------------------------------------------------------

CORPUS = make_corpus(20, seed=6)
VOCAB = Vocab.build(CORPUS)
CONFIG = ScorerConfig(word_dim=6, char_dim=4, char_filters=4, hidden_dim=5,
                      stack_dim=5, action_dim=4)


def test_config_validation():
    with pytest.raises(ValueError):
        ScorerConfig(char_cnn_window=2)
    with pytest.raises(ValueError):
        ScorerConfig(hidden_dim=0)
    cfg = ScorerConfig(hidden_dim=8)
    assert cfg.rep_dim == 16
    assert cfg.feature_dim == 3 * cfg.stack_dim + 3 * 16 + cfg.action_dim
    with pytest.raises(TypeError):
        ScorerConfig(external_vec_dim=3)
    for bad in ({"epochs": 0}, {"learning_rate": 0.0}, {"learning_rate": -0.1},
                {"learning_rate": float("inf")}, {"learning_rate": float("nan")},
                {"learning_rate": True}, {"learning_rate": 1}, {"word_dim": True},
                {"epochs": 2.0}, {"attention": "false"}, {"attention": 0},
                {"seed": -5}, {"seed": "x"}):
        (name, value), = bad.items()
        with pytest.raises(ValueError, match=f"^{name} must be"):
            ScorerConfig(**bad)
    assert ScorerConfig(seed=0).seed == 0
    # a bound the benchmark checks, not a setting
    with pytest.raises(TypeError):
        ScorerConfig(budget_multiplier=8)
    assert ScorerConfig.budget_multiplier == 8
    assert "budget_multiplier" not in asdict(cfg)


def test_vocab_unk_handling():
    assert VOCAB.word_index("never-seen-token") == VOCAB.word_index("<unk>")
    idx = VOCAB.char_indices("mé")
    assert len(idx) == 2


def test_init_params_deterministic_and_bounded():
    p1 = init_params(CONFIG, VOCAB)
    p2 = init_params(CONFIG, VOCAB)
    for name in p1.names():
        assert np.array_equal(p1.t[name].data, p2.t[name].data)
        shape = p1.t[name].data.shape
        fan = sum(shape) if len(shape) == 2 else 2 * shape[0]
        assert np.abs(p1.t[name].data).max() <= np.sqrt(6.0 / fan)


def test_token_reps_shapes():
    params = init_params(CONFIG, VOCAB)
    s = CORPUS.sentences[0]
    tape = ad.Tape()
    proj, reps, keys = token_reps(ad.Recorded(tape, params.t), [s], VOCAB, CONFIG)
    n = len(s.tokens)
    assert proj.data.shape == (n, CONFIG.stack_dim)
    assert reps.data.shape == (n, CONFIG.rep_dim)
    assert keys.data.shape == (n, 3 * CONFIG.stack_dim)
    off = replace(CONFIG, attention=False)
    proj, reps, keys = token_reps(ad.Recorded(tape, params.t), [s], VOCAB, off)
    assert proj.data.shape == (n, CONFIG.stack_dim) and reps is None and keys is None


def test_stack_push_pop_exact_restore():
    params = init_params(CONFIG, VOCAB)
    tape = ad.Tape()
    v1 = ad.leaf(np.ones(CONFIG.stack_dim))
    v2 = ad.leaf(np.full(CONFIG.stack_dim, 0.5))
    ops = ad.Recorded(tape, params.t)
    stack = stack_push(ops, (), v1)
    before = stack[-1]
    stack2 = stack_push(ops, stack, v2)
    restored = stack_pop(stack2)
    assert restored[-1] is before  # bitwise: the same entry object
    with pytest.raises(ValueError):
        stack_pop(())


def test_compose_shape():
    params = init_params(CONFIG, VOCAB)
    tape = ad.Tape()
    out = compose(ad.Recorded(tape, params.t), ad.leaf(np.ones(CONFIG.stack_dim)),
                  ad.leaf(np.zeros(CONFIG.stack_dim)))
    assert out.data.shape == (CONFIG.stack_dim,)


def test_sentence_loss_positive_and_finite():
    params = init_params(CONFIG, VOCAB)
    s = next(s for s in CORPUS if s.mentions)
    actions, _ = oracle(s)
    loss, tape = sentence_loss(s, actions, params, VOCAB, CONFIG)
    assert float(loss.data) > 0.0
    ad.backward(tape, loss)
    assert any(t.grad is not None and np.abs(t.grad).sum() > 0 for t in params.t.values())


def test_the_empty_sentence_has_a_zero_loss_and_moves_no_parameter():
    s = Sentence((), ())
    params = init_params(CONFIG, VOCAB)
    actions, _ = oracle(s)
    loss, tape = sentence_loss(s, actions, params, VOCAB, CONFIG)
    assert float(loss.data) == 0.0
    assert len(tape.nodes) == 1 and tape.nodes[0] is loss
    before = {name: t.data.tobytes() for name, t in params.t.items()}
    neural.backward(tape, loss)
    assert all(t.grad is None and t.rows is None for t in params.t.values())
    sgd_step(params, 0.1)
    assert {name: t.data.tobytes() for name, t in params.t.items()} == before
    assert predict(s, params, VOCAB, CONFIG) == frozenset()


def test_sentence_loss_rejects_an_invalid_gold_action():
    params = init_params(CONFIG, VOCAB)
    s = next(s for s in CORPUS if s.mentions)
    actions, _ = oracle(s)
    with pytest.raises(CorpusError, match="invalid action REDUCE at step 0"):
        sentence_loss(s, [REDUCE] + actions, params, VOCAB, CONFIG)


SEQ_CONFIG = ScorerConfig(word_dim=2, char_dim=2, char_cnn_window=1, char_filters=2,
                          hidden_dim=2, stack_dim=2, action_dim=2)
SEQ_VOCAB = Vocab(("<unk>",), ("<unk>",), ("A", "B"))
SEQ_PARAMS = init_params(SEQ_CONFIG, SEQ_VOCAB)
# the Figure 2 pattern; its oracle sequence has 8 actions
SEQ_EXAMPLE = Sentence(("w0", "w1", "w2", "w3"),
                       (Mention("A", (Fragment(0, 2),)),
                        Mention("A", (Fragment(0, 1), Fragment(3, 4)))))


def _outcome(run) -> tuple | None:
    """None when `run` accepts its sequence, else the error's class and step."""
    try:
        run()
    except CorpusError as exc:
        return type(exc), getattr(exc, "step", None)
    return None


@settings(max_examples=200, deadline=None)
@given(s=non_nested_sentences(), edit=st.sampled_from(("truncate", "extend", "replace")),
       at=st.integers(0, 40), action=st.sampled_from(SEQ_VOCAB.actions))
@example(s=SEQ_EXAMPLE, edit="extend", at=8, action=OUT)     # an action after the terminal state
@example(s=SEQ_EXAMPLE, edit="truncate", at=7, action=OUT)   # a sequence one action short
def test_decode_trace_and_sentence_loss_accept_the_same_sequences(s, edit, at, action):
    """An edited oracle sequence is accepted by all three or refused by all
    three, with the same error class and step."""
    gold, _ = oracle(s)
    if edit == "truncate":
        seq = gold[:at % len(gold)]
    elif edit == "extend":
        i = at % (len(gold) + 1)
        seq = gold[:i] + [action] + gold[i:]
    else:
        i = at % len(gold)
        seq = gold[:i] + [action] + gold[i + 1:]
    by_decode = _outcome(lambda: decode(seq, len(s.tokens), SEQ_VOCAB.types))
    by_trace = _outcome(lambda: trace(s, seq))
    by_loss = _outcome(lambda: sentence_loss(s, seq, SEQ_PARAMS, SEQ_VOCAB, SEQ_CONFIG))
    assert by_decode == by_trace == by_loss
    if edit == "truncate":   # a proper prefix of a derivation never ends terminal
        assert by_decode == (CorpusError, None)


def test_finite_diff_small():
    params = init_params(CONFIG, VOCAB)
    s = next(s for s in CORPUS if 0 < len(s.tokens) <= 6)
    err = finite_diff_check(params, s, VOCAB, CONFIG, n_coords=60)
    assert err < 1e-4


def test_sgd_step_updates_and_clears():
    params = init_params(CONFIG, VOCAB)
    s = next(s for s in CORPUS if s.mentions)
    actions, _ = oracle(s)
    loss, tape = sentence_loss(s, actions, params, VOCAB, CONFIG)
    ad.backward(tape, loss)
    before = params.t["out_W"].data.copy()
    sgd_step(params, 0.1)
    assert not np.array_equal(before, params.t["out_W"].data)
    assert all(t.grad is None for t in params.t.values())


def test_sgd_step_rejects_non_finite():
    params = init_params(CONFIG, VOCAB)
    params.t["out_b"].grad = np.full_like(params.t["out_b"].data, np.nan)
    with pytest.raises(FloatingPointError, match="out_b"):
        sgd_step(params, 0.1)


def test_sgd_step_non_finite_leaves_every_tensor_unchanged():
    s = next(s for s in CORPUS if s.mentions)
    actions, _ = oracle(s)
    # the last tensor, and the first row of word_emb that the sentence read
    for bad in (list(init_params(CONFIG, VOCAB).t)[-1], "word_emb"):
        params = init_params(CONFIG, VOCAB)
        loss, tape = sentence_loss(s, actions, params, VOCAB, CONFIG)
        ad.backward(tape, loss)
        for t in params.t.values():
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
        params.t[bad].grad.flat[0] = np.nan
        before = {name: t.data.tobytes() for name, t in params.t.items()}
        with pytest.raises(FloatingPointError, match=bad):
            sgd_step(params, 0.1)
        assert {name: t.data.tobytes() for name, t in params.t.items()} == before


LOOKUP_TABLES = ("word_emb", "char_emb", "act_emb")


def _one_backward(s):
    params = init_params(CONFIG, VOCAB)
    actions, _ = oracle(s)
    loss, tape = sentence_loss(s, actions, params, VOCAB, CONFIG)
    ad.backward(tape, loss)
    return params, actions


def _rows_read(s, actions):
    """The rows of each lookup table that a teacher-forced sentence reads."""
    return {"word_emb": [VOCAB.word_index(tok) for tok in s.tokens],
            "char_emb": [c for tok in s.tokens for c in VOCAB.char_indices(tok)],
            "act_emb": [VOCAB.actions.index(a) for a in actions]}


def test_lookup_tables_get_one_gradient_row_per_row_read():
    s = next(s for s in CORPUS if s.mentions and len(set(s.tokens)) < len(s.tokens))
    params, actions = _one_backward(s)
    read = _rows_read(s, actions)
    for name in LOOKUP_TABLES:
        t = params.t[name]
        assert t.rows.tolist() == sorted(set(read[name])), name
        assert t.grad.shape == (len(t.rows), t.data.shape[1])
    assert len(params.t["word_emb"].rows) == len(set(s.tokens))
    for name, t in params.t.items():
        if name not in LOOKUP_TABLES:
            assert t.rows is None and t.grad.shape == t.data.shape, name


def test_only_backward_gives_tables_gradient_rows():
    """A forward pass leaves the lookup tables without a gradient; backward
    gives each table the rows the sentence read."""
    s = next(s for s in CORPUS if s.mentions)
    params = init_params(CONFIG, VOCAB)
    actions, _ = oracle(s)
    loss, tape = sentence_loss(s, actions, params, VOCAB, CONFIG)
    for name in LOOKUP_TABLES:
        assert params.t[name].grad is None and params.t[name].rows is None, name
    ad.backward(tape, loss)
    for name, read in _rows_read(s, actions).items():
        assert params.t[name].rows.tolist() == sorted(set(read)), name


def test_a_table_read_twice_on_one_tape_sums_as_a_dense_gradient():
    """One leaf table read by rows_lookup and then by row on one tape, with
    repeated and overlapping indices: each row sums its terms from +0.0 in
    closure (reverse-creation) order, bitwise as np.add.at on a dense zero
    table, and a step on the rows is bitwise the dense step."""
    rng = np.random.default_rng(5)
    data = rng.normal(size=(6, 3))
    params = ScorerParams({"emb": data})
    table = params.t["emb"]
    tape = ad.Tape()
    looked = ad.rows_lookup(tape, table, [4, 1, 4, 1, 2])
    one = ad.row(tape, table, 1)
    # row 1 takes one term of 1.0 and two of +-1e16: summed in another order,
    # its value differs ((1 + 1e16) - 1e16 is 0, (1e16 - 1e16) + 1 is 1)
    looked.grad = rng.normal(size=(5, 3))
    looked.grad[1], looked.grad[3] = 1e16, -1e16
    one.grad = np.ones(3)
    ad.backward(tape, ad.leaf(0.0))    # a loss off the tape: only the two closures run
    dense = np.zeros_like(data)
    np.add.at(dense, [1], one.grad[None])
    np.add.at(dense, [4, 1, 4, 1, 2], looked.grad)
    assert table.rows.tolist() == [1, 2, 4]
    assert ad.dense_grad(table).tobytes() == dense.tobytes()
    lr = 0.1
    expected = (data - lr * dense).tobytes()
    sgd_step(params, lr)
    assert table.data.tobytes() == expected


def test_sgd_step_matches_a_dense_step_bitwise():
    s = next(s for s in CORPUS if s.mentions)
    params, _ = _one_backward(s)
    lr = 0.1
    expected = {}
    for name, t in params.t.items():
        dense = np.zeros_like(t.data)
        if t.rows is None:
            dense += t.grad
        else:
            dense[t.rows] += t.grad
        expected[name] = (t.data - lr * dense).tobytes()
    untouched = next(i for i in range(len(VOCAB.words))
                     if i not in params.t["word_emb"].rows)
    row_before = params.t["word_emb"].data[untouched].tobytes()
    sgd_step(params, lr)
    assert {name: t.data.tobytes() for name, t in params.t.items()} == expected
    assert params.t["word_emb"].data[untouched].tobytes() == row_before
    assert all(t.grad is None and t.rows is None for t in params.t.values())


def test_row_gradients_accumulate_over_two_backward_passes():
    a, b = [s for s in CORPUS if s.mentions][:2]
    (pa, _), (pb, _) = _one_backward(a), _one_backward(b)
    params = init_params(CONFIG, VOCAB)
    for s in (a, b):
        loss, tape = sentence_loss(s, oracle(s)[0], params, VOCAB, CONFIG)
        ad.backward(tape, loss)
    for name in LOOKUP_TABLES:
        t = params.t[name]
        assert t.rows.tolist() == sorted(set(pa.t[name].rows) | set(pb.t[name].rows))
        assert np.allclose(ad.dense_grad(t),
                           ad.dense_grad(pa.t[name]) + ad.dense_grad(pb.t[name]),
                           rtol=0, atol=1e-12), name


def test_predict_returns_valid_mentions():
    params = init_params(CONFIG, VOCAB)
    for s in list(CORPUS)[:5]:
        pred = predict(s, params, VOCAB, CONFIG)
        for m in pred:
            assert m.fragments[-1].end <= len(s.tokens)


def test_train_determinism_and_loss_decrease():
    config = ScorerConfig(word_dim=6, char_dim=4, char_filters=4, hidden_dim=5,
                          stack_dim=5, action_dim=4, epochs=5, seed=3)
    small = make_corpus(8, seed=10)
    p1, v1, i1 = train(small, config)
    p2, _, i2 = train(small, config)
    for name in p1.names():
        assert np.array_equal(p1.t[name].data, p2.t[name].data)
    assert i1["epoch_losses"] == i2["epoch_losses"]
    assert i1["epoch_losses"][-1] < i1["epoch_losses"][0]


def test_train_skips_nested_and_counts():
    nested = Sentence(("a", "b", "c"),
                      (Mention("T", (Fragment(0, 3),)),
                       Mention("T", (Fragment(1, 2),))))
    ok = Sentence(("x", "y"), (Mention("T", (Fragment(0, 1),)),))
    from disconer.corpus import Corpus
    config = ScorerConfig(word_dim=4, char_dim=3, char_filters=3, hidden_dim=4,
                          stack_dim=4, action_dim=3, epochs=1)
    _, _, info = train(Corpus((nested, ok)), config)
    assert info["skipped_nested"] == 1


def test_checkpoint_round_trip():
    params = init_params(CONFIG, VOCAB)
    path = tempfile.mktemp()
    try:
        save_checkpoint(path, params, CONFIG, VOCAB)
        loaded, config, vocab = load_checkpoint(path)
        assert config == CONFIG and vocab == VOCAB
        for name in params.names():
            assert np.array_equal(params.t[name].data, loaded.t[name].data)
    finally:
        os.remove(path)


def test_checkpoint_rejects_version_1():
    path = tempfile.mktemp()
    try:
        for version in (1, 2):
            with open(path, "wb") as fh:
                fh.write(b"DNER" + struct.pack("<I", version) + b"\x00" * 16)
            with pytest.raises(CorpusError, match=f"unsupported checkpoint version {version}"):
                load_checkpoint(path)
    finally:
        os.remove(path)


def test_checkpoint_rejects_bad_magic():
    path = tempfile.mktemp()
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 16)
    try:
        with pytest.raises(Exception, match="magic"):
            load_checkpoint(path)
    finally:
        os.remove(path)


TINY_CONFIG = ScorerConfig(word_dim=1, char_dim=1, char_cnn_window=1, char_filters=1,
                           hidden_dim=1, stack_dim=1, action_dim=1)
TINY_VOCAB = Vocab(("<unk>", "a"), ("<unk>", "a"), ("T",))


def _tiny_checkpoint(path: Path) -> bytes:
    save_checkpoint(str(path), init_params(TINY_CONFIG, TINY_VOCAB), TINY_CONFIG, TINY_VOCAB)
    return path.read_bytes()


def _load_error(path: Path, data: bytes) -> str | None:
    """The CorpusError message of loading `data`; None when it loads."""
    path.write_bytes(data)
    try:
        load_checkpoint(str(path))
    except CorpusError as exc:
        return str(exc)
    return None


def test_checkpoint_truncated_or_flipped_is_corpus_error(tmp_path):
    data = _tiny_checkpoint(tmp_path / "m.ckpt")
    bad = tmp_path / "bad.ckpt"
    assert [size for size in range(len(data)) if _load_error(bad, data[:size]) is None] == []
    flipped = [data[:i] + bytes([data[i] ^ 0xFF]) + data[i + 1:] for i in range(len(data))]
    assert [i for i, d in enumerate(flipped) if _load_error(bad, d) is None] == []
    assert "checksum" in _load_error(bad, data[:-1])


def test_checkpoint_length_checked_under_a_valid_checksum(tmp_path):
    body = _tiny_checkpoint(tmp_path / "m.ckpt")[:-4]
    bad = tmp_path / "bad.ckpt"

    def with_crc(b: bytes) -> bytes:
        return b + struct.pack("<I", zlib.crc32(b))

    assert "truncated" in _load_error(bad, with_crc(body[:-3]))
    assert "2 trailing bytes" in _load_error(bad, with_crc(body + b"\0\0"))
    meta_len = struct.unpack_from("<I", body, 8)[0]
    cut_meta = body[:8] + struct.pack("<I", meta_len - 1) + body[12:12 + meta_len - 1]
    assert "bad checkpoint metadata" in _load_error(bad, with_crc(cut_meta))


def _resigned_tiny_checkpoint(path: Path, **meta_changes) -> bytes:
    """The tiny checkpoint, its metadata changed and its CRC valid; a "config"
    change updates single fields."""
    body = _tiny_checkpoint(path)[:-4]
    meta_len = struct.unpack_from("<I", body, 8)[0]
    meta = json.loads(body[12:12 + meta_len])
    config = {**meta["config"], **meta_changes.pop("config", {})}
    meta_b = json.dumps({**meta, **meta_changes, "config": config},
                        sort_keys=True).encode("utf-8")
    b = body[:8] + struct.pack("<I", len(meta_b)) + meta_b + body[12 + meta_len:]
    return b + struct.pack("<I", zlib.crc32(b))


def test_checkpoint_data_must_have_the_length_its_metadata_fixes(tmp_path):
    """A config or vocabulary that disagrees with the tensor data, under a
    valid checksum, fails the one length rule."""
    good, bad = tmp_path / "m.ckpt", tmp_path / "bad.ckpt"
    wider = _resigned_tiny_checkpoint(good, config={"word_dim": 2})
    assert "truncated" in _load_error(bad, wider)
    fewer_words = _resigned_tiny_checkpoint(good, words=["<unk>"])   # one word_emb row less
    assert "trailing bytes" in _load_error(bad, fewer_words)
    float_dim = _resigned_tiny_checkpoint(good, config={"word_dim": 1.0})
    assert "word_dim must be a positive integer" in _load_error(bad, float_dim)
    assert _load_error(bad, _resigned_tiny_checkpoint(good)) is None


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=5)
CONFIG_FIELDS = {f.name: type(f.default) for f in fields(ScorerConfig)}


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(CONFIG_FIELDS)), value=JSON_VALUES)
def test_checkpoint_config_values_have_their_declared_types(name, value):
    """Any JSON value in any config field either loads as a value of the
    field's declared type or is refused with one CorpusError."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.ckpt"
        path.write_bytes(_resigned_tiny_checkpoint(path, config={name: value}))
        try:
            _, config, _ = load_checkpoint(str(path))
        except CorpusError:
            return
    for field, kind in CONFIG_FIELDS.items():
        assert type(getattr(config, field)) is kind, field
    assert getattr(config, name) == value


@pytest.mark.parametrize("key, value, message", [
    ("words", ["a"], "words must include '<unk>'"),
    ("chars", ["a"], "chars must include '<unk>'"),
    ("words", ["<unk>", "a", "a"], "words must be distinct"),
    ("types", [], "types must not be empty"),
    ("types", [5], "entity type 5"),
    ("types", ["A B"], "entity type 'A B'"),
    ("types", ["T", "T"], "types must be distinct"),
])
def test_checkpoint_vocabulary_is_held_to_the_vocab_rules(tmp_path, key, value, message):
    data = _resigned_tiny_checkpoint(tmp_path / "m.ckpt", **{key: value})
    assert f"bad checkpoint metadata: {message}" in _load_error(tmp_path / "bad.ckpt", data)
    with pytest.raises(ValueError, match=message):
        Vocab(**{**asdict(TINY_VOCAB), key: tuple(value)})


@pytest.mark.parametrize("key, value, message", [
    ("types", "ADR", "words, chars and types must be tuples"),
    ("words", {"<unk>": 0}, "words, chars and types must be tuples"),
    ("words", [1, "<unk>"], "words must hold only strings"),
    ("chars", ["<unk>", None], "chars must hold only strings"),
])
def test_checkpoint_vocabulary_is_lists_of_strings(tmp_path, key, value, message):
    """A JSON string or object is refused, not iterated into a vocabulary."""
    data = _resigned_tiny_checkpoint(tmp_path / "m.ckpt", **{key: value})
    assert f"bad checkpoint metadata: {message}" in _load_error(tmp_path / "bad.ckpt", data)


def _with_unk(items):
    """Distinct items drawn from `items`, and UNK, in any order."""
    return st.lists(items, max_size=5, unique=True).flatmap(
        lambda xs: st.permutations(list(dict.fromkeys([neural.UNK, *xs]))))


DIMS = st.integers(1, 4)


@settings(max_examples=40, deadline=None)
@given(config=st.builds(ScorerConfig, word_dim=DIMS, char_dim=DIMS,
                        char_cnn_window=st.sampled_from([1, 3, 5]), char_filters=DIMS,
                        hidden_dim=DIMS, stack_dim=DIMS, action_dim=DIMS,
                        attention=st.booleans(),
                        learning_rate=st.floats(1e-6, 10.0),
                        epochs=st.integers(1, 100), seed=st.integers(0, 2**63)),
       words=_with_unk(st.text(max_size=5)),
       chars=_with_unk(st.characters()),
       types=st.lists(st.from_regex(r"[^\s|]+", fullmatch=True), min_size=1, max_size=3,
                      unique=True))
def test_checkpoint_round_trip_on_random_configs(config, words, chars, types):
    vocab = Vocab(tuple(words), tuple(chars), tuple(types))
    params = init_params(config, vocab)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.ckpt")
        save_checkpoint(path, params, config, vocab)
        loaded, loaded_config, loaded_vocab = load_checkpoint(path)
    assert loaded_config == config and loaded_vocab == vocab
    assert sorted(loaded.names()) == sorted(params.names())
    for name in params.names():
        assert np.array_equal(params.t[name].data, loaded.t[name].data)


def test_bench_tracer_hooks_resolve():
    """The benchmark's traced run wraps functions of the library by name; a
    renamed or deleted hook must fail here, not only in the benchmark."""
    original = neural.token_reps
    tracer = _load_tracer()
    try:
        tracer.install()
        tracer.active = True
        s = next(s for s in CORPUS if s.mentions)
        actions, _ = oracle(s)
        params = init_params(CONFIG, VOCAB)
        loss, tape = neural.sentence_loss(s, actions, params, VOCAB, CONFIG)
        neural.backward(tape, loss)
        grad_bytes = sum(t.grad.nbytes for t in params.t.values() if t.grad is not None)
        neural.sgd_step(params, CONFIG.learning_rate)
        tracer.active = False
        tracer.close_all()
    finally:
        tracer.uninstall()
    assert neural.token_reps is original
    names = {tracer.names[span[0]] for span in tracer.spans}
    assert {"neural.token_reps", "neural.encode_parser_state", "neural.advance",
            "neural.stack_push", "neural.sgd_step", "autodiff.masked_nll",
            "autodiff.backward", "autodiff.rows_lookup.bwd"} <= names
    assert tracer.counts["sgd_steps"] == 1
    assert tracer.counts["grad_bytes"] == grad_bytes
    assert grad_bytes < sum(t.data.nbytes for t in params.t.values())
    assert tracer.tapes == [tape]
    assert tracer.counts["transitions.apply"] == len(actions)


def _load_tracer():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    return tracer_mod.Tracer()


def test_bench_tracer_splits_predict_without_a_tape():
    """Under the benchmark's tracer, predict still splits into its layers,
    records no tape and calls none of the wrapped autodiff ops."""
    s = next(s for s in CORPUS if s.mentions)
    params = init_params(CONFIG, VOCAB)
    final = neural._rollout(ad.Forward(params.arrays()), s, VOCAB, CONFIG)
    tracer = _load_tracer()
    try:
        tracer.install()
        tracer.active = True
        pred = predict(s, params, VOCAB, CONFIG)
        tracer.active = False
        tracer.close_all()
    finally:
        tracer.uninstall()
    assert pred == frozenset(final.outputs)
    names = {tracer.names[span[0]] for span in tracer.spans}
    assert tracer.tapes == []
    assert not any(name.startswith("autodiff.") for name in names), names
    assert {"neural.token_reps", "neural.encode_parser_state", "neural.advance",
            "transitions.apply"} <= names
    assert (tracer.counts["transitions.apply"] == tracer.counts["transitions.valid_actions"]
            > len(s.tokens))


def test_rollouts_check_each_step_once():
    """Training and predict compute the valid set once per applied action."""
    params = init_params(CONFIG, VOCAB)
    sents = [s for s in CORPUS if s.mentions][:3]
    tracer = _load_tracer()
    try:
        tracer.install()
        tracer.active = True
        for s in sents:
            loss, tape = neural.sentence_loss(s, oracle(s)[0], params, VOCAB, CONFIG)
            neural.backward(tape, loss)
            neural.sgd_step(params, CONFIG.learning_rate)
            predict(s, params, VOCAB, CONFIG)
        tracer.active = False
        tracer.close_all()
    finally:
        tracer.uninstall()
    applied = tracer.counts["transitions.apply"]
    assert applied > 2 * sum(len(s.tokens) for s in sents)
    assert tracer.counts["transitions.valid_actions"] == applied


def test_attention_off_slices_no_buffer(monkeypatch):
    """The ablation passes no buffer to the attention terms: the zero vector
    comes from the scoring op alone, and no key product or attention kernel
    runs."""
    calls = {"project": 0, "_attention": 0}
    for name in calls:
        def counting(*args, _name=name, _op=getattr(ad, name)):
            calls[_name] += 1
            return _op(*args)
        monkeypatch.setattr(ad, name, counting)
    s = next(s for s in CORPUS if s.mentions)
    actions, _ = oracle(s)
    for attention in (True, False):
        calls.update(project=0, _attention=0)
        config = replace(CONFIG, attention=attention)
        sentence_loss(s, actions, init_params(config, VOCAB), VOCAB, config)
        assert calls["project"] == 1 + int(attention)     # the stack inputs, then the keys
        assert calls["_attention"] == int(attention)


def test_predict_constructs_no_tensor(monkeypatch):
    made = []
    init = ad.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)
    params = init_params(CONFIG, VOCAB)
    monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
    monkeypatch.setattr(neural, "Tape", lambda: pytest.fail("predict built a Tape"))
    for s in list(CORPUS)[:5]:
        predict(s, params, VOCAB, CONFIG)
    assert made == []


def test_backwarded_tape_is_freed_by_reference_counting():
    """backward() drops every closure it ran, so nothing of a finished tape
    waits for the cycle collector."""
    import gc
    import weakref
    s = next(s for s in CORPUS if s.mentions)
    params = init_params(CONFIG, VOCAB)
    loss, tape = sentence_loss(s, oracle(s)[0], params, VOCAB, CONFIG)
    refs = [weakref.ref(t) for t in tape.nodes]
    ad.backward(tape, loss)
    assert all(t._backward is None for t in tape.nodes)
    gc.disable()
    try:
        del tape, loss
        assert [r for r in refs if r() is not None] == []
    finally:
        gc.enable()


def test_forward_kernels_match_the_tape_ops_bitwise():
    """Each op of the forward-only set gives bitwise the .data of the tape op
    of the same name, on random inputs."""
    rng = np.random.default_rng(7)
    fwd = ad.Forward({})

    def arrays(*shapes):
        return [rng.normal(size=shape) for shape in shapes]

    def leaves(args):
        """Arrays, and arrays inside lists and tuples, become leaves."""
        if isinstance(args, np.ndarray):
            return ad.leaf(args)
        if isinstance(args, (list, tuple)) and any(isinstance(a, (np.ndarray, list, tuple))
                                                  for a in args):
            return type(args)(leaves(a) for a in args)
        return args

    assert set(ad.Recorded._OPS) <= set(dir(ad.Forward))
    for trial in range(25):
        H, D, n, T = (int(k) for k in rng.integers(1, 7, size=4))
        lengths = [int(k) for k in rng.integers(1, 6, size=n)]
        starts = sorted(int(k) for k in rng.integers(0, n + 1, size=T))
        attention = trial % 2 == 0
        tape = ad.Tape()
        rec = ad.Recorded(tape, {})
        cases = {
            "affine": arrays((H, D), (D,), (H,)),
            "lstm_cell": arrays((4 * H, D + H), (4 * H,), (D,), (H,), (H,)),
            "lstm_seq": arrays((4 * H, D + H), (4 * H,), (n, D)),
            "bilstm": arrays((4 * H, D + H), (4 * H,), (4 * H, D + H), (4 * H,), (n, D)),
            "char_cnn": arrays((H, 3 * D), (H,), (sum(lengths), D)) + [lengths],
            "score": [[tuple(arrays((H,), (H,), (H,))) for _ in range(T)],
                      *arrays((T, D)), starts,
                      *(arrays((n, 2), (n, 3 * H)) if attention else [None, None]),
                      *arrays((4, 3 * H + 6 + D), (4,))],
            "masked_nll": arrays((T, 6)) + [[[0, 2, 5]] * T, [2] * T],
            "project": [*arrays((n, D)), arrays((H, D), (2, D)), *arrays((H + 2,))],
            "pick": arrays((n, D)) + [n - 1],
            "rows_lookup": arrays((n, D)) + [[n - 1, 0, n - 1]],
            "concat": [arrays((H,), (D,), (n,))],
            "stack_rows": [arrays((D,), (n, D), (D,))],
        }
        for name, args in cases.items():
            got = getattr(fwd, name)(*args)
            want = getattr(rec, name)(*leaves(args))
            if name == "lstm_cell":
                assert all(g.tobytes() == w.data.tobytes() for g, w in zip(got, want))
            else:
                assert got.tobytes() == want.data.tobytes(), name
        parts = arrays((n, H), (n, D))
        assert fwd.concat(parts).tobytes() == \
            rec.concat([ad.leaf(p) for p in parts]).data.tobytes()


def test_fused_sigmoid_is_bitwise_three_calls():
    rng = np.random.default_rng(3)
    for H in range(1, 40):
        gates = rng.normal(scale=8.0, size=3 * H)
        parts = [ad._sigmoid(gates[k * H:(k + 1) * H]) for k in range(3)]
        assert ad._sigmoid(gates).tobytes() == np.concatenate(parts).tobytes()


# sha256 of the predictions written inline, computed with the taped greedy
# rollout before predict ran forward-only; (attention, strict F1) beside it
GOLDEN_PREDICTIONS = {
    True: (0.3333, "95a8e4b3600bd860261f8ece5b676a28d2a950f0735009640386e281e2f98cba"),
    False: (0.1455, "baa882091322249b5281535fa082ce3a36b11425cfec36a352fb5c4a621b6771"),
}


@pytest.mark.parametrize("attention", [True, False])
def test_predictions_match_the_golden_digest(attention):
    import hashlib
    from disconer.corpus import Corpus, write_inline
    from disconer.evaluation import strict_prf
    train_c, test_c = make_corpus(80, seed=41), make_corpus(30, seed=42)
    config = ScorerConfig(hidden_dim=8, stack_dim=8, epochs=6, attention=attention)
    params, vocab, _ = train(train_c, config)
    preds = [predict(s, params, vocab, config) for s in test_c]
    out = Corpus(tuple(
        Sentence(s.tokens, tuple(sorted(p, key=lambda m: (m.fragments, m.entity_type))))
        for s, p in zip(test_c, preds)))
    f1, digest = GOLDEN_PREDICTIONS[attention]
    assert round(strict_prf([frozenset(s.mentions) for s in test_c], preds)[2], 4) == f1
    assert hashlib.sha256(write_inline(out).encode("utf-8")).hexdigest() == digest


def _unfused_lstm_reference(W, b, x, h, c, dh2, dc2):
    """The LSTM step with one sigmoid call per gate, and its gradients."""
    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))
    H = c.shape[0]
    xh = np.concatenate([x, h])
    gates = W @ xh + b
    i, f, o = (sigmoid(gates[k * H:(k + 1) * H]) for k in range(3))
    g = np.tanh(gates[3 * H:])
    c2 = f * c + i * g
    tc = np.tanh(c2)
    dc_total = np.zeros(H) if dc2 is None else dc2.copy()
    if dh2 is not None:
        do = dh2 * tc
        dc_total += dh2 * o * (1.0 - tc * tc)
    else:
        do = np.zeros(H)
    di, df, dg = dc_total * g, dc_total * c, dc_total * i
    dgates = np.concatenate([di * i * (1.0 - i), df * f * (1.0 - f),
                             do * o * (1.0 - o), dg * (1.0 - g * g)])
    dxh = W.T @ dgates
    grads = (np.outer(dgates, xh), dgates, dxh[:x.shape[0]], dxh[x.shape[0]:],
             dc_total * f)
    return tc * o, c2, grads


def test_lstm_cell_matches_the_unfused_reference_bitwise():
    rng = np.random.default_rng(11)
    for trial in range(30):
        H, D = (int(k) for k in rng.integers(1, 9, size=2))
        arrays = [rng.normal(scale=2.0, size=s)
                  for s in ((4 * H, D + H), (4 * H,), (D,), (H,), (H,))]
        dh2 = None if trial % 3 == 1 else rng.normal(size=H)
        dc2 = None if trial % 3 == 2 else rng.normal(size=H)
        h_ref, c_ref, grads_ref = _unfused_lstm_reference(*arrays, dh2, dc2)
        leaves = [ad.leaf(a) for a in arrays]
        tape = ad.Tape()
        h2, c2 = ad.lstm_cell(tape, *leaves)
        h2.grad, c2.grad = dh2, dc2
        for t in (h2, c2):
            if t.grad is not None:
                t._backward(t.grad)
        assert h2.data.tobytes() == h_ref.tobytes() and c2.data.tobytes() == c_ref.tobytes()
        for leaf, want in zip(leaves, grads_ref):
            assert leaf.grad.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Whole-sentence ops against today's per-token path
# ---------------------------------------------------------------------------

def _close(got, want, rel=1e-12):
    """Equal to `rel` relative to the largest magnitude in `want`."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = float(np.abs(want).max(initial=0.0))
    assert float(np.abs(got - want).max(initial=0.0)) <= rel * scale


def _backprop(tape, out, dout):
    """Replay the tape from `out` with the gradient `dout`."""
    out.grad = dout
    for t in reversed(tape.nodes):
        if t._backward is not None and t.grad is not None:
            t._backward(t.grad)


def _word_char_cnn_reference(filters, bias, emb, dout):
    """Today's per-word char CNN on one word's rows, zero-padded up to the
    window: the output and the gradients of filters, bias and emb."""
    window = filters.shape[1] // emb.shape[1]
    padded = np.vstack([emb, np.zeros((max(window - len(emb), 0), emb.shape[1]))])
    windows = np.stack([padded[p:p + window].ravel()
                        for p in range(len(padded) - window + 1)])
    responses = windows @ filters.T + bias
    best = np.argmax(responses, axis=0)
    dpadded = np.zeros_like(padded)
    for k, p in enumerate(best):
        dpadded[p:p + window] += (dout[k] * filters[k]).reshape(window, -1)
    return (responses[best, np.arange(len(bias))], dout[:, None] * windows[best], dout,
            dpadded[:len(emb)])


def test_char_cnn_matches_the_per_word_reference():
    rng = np.random.default_rng(21)
    for _ in range(30):
        F, char_dim = (int(k) for k in rng.integers(1, 5, size=2))
        window = int(rng.choice([1, 3, 5]))
        lengths = [int(k) for k in rng.integers(1, 8, size=int(rng.integers(1, 6)))]
        filters, bias = rng.normal(size=(F, window * char_dim)), rng.normal(size=F)
        emb = rng.normal(size=(sum(lengths), char_dim))
        dout = rng.normal(size=(len(lengths), F))
        leaves = [ad.leaf(a) for a in (filters, bias, emb)]
        tape = ad.Tape()
        _backprop(tape, ad.char_cnn(tape, *leaves, lengths), dout)
        ends = np.cumsum(lengths)
        refs = [_word_char_cnn_reference(filters, bias, emb[end - k:end], dout[i])
                for i, (k, end) in enumerate(zip(lengths, ends))]
        _close(tape.nodes[0].data, np.stack([r[0] for r in refs]))
        _close(leaves[0].grad, sum(r[1] for r in refs))
        _close(leaves[1].grad, sum(r[2] for r in refs))
        _close(leaves[2].grad, np.vstack([r[3] for r in refs]))


def _lstm_chain(tape, W, b, X, order):
    """Today's per-token LSTM: one lstm_cell per row of X, in `order`."""
    H = b.data.shape[0] // 4
    zero = ad.leaf(np.zeros(H))
    h = c = zero
    out = [None] * X.data.shape[0]
    for i in order:
        h, c = ad.lstm_cell(tape, W, b, ad.pick(tape, X, i), h, c)
        out[i] = h
    return out


def test_bilstm_and_lstm_seq_match_the_lstm_cell_chain():
    rng = np.random.default_rng(22)
    for _ in range(30):
        H, D, n = (int(k) for k in rng.integers(1, 6, size=3))
        arrays = [rng.normal(scale=1.5, size=s) for s in
                  ((4 * H, D + H), (4 * H,), (4 * H, D + H), (4 * H,), (n, D))]
        dout = rng.normal(size=(n, 2 * H))
        new = [ad.leaf(a) for a in arrays]
        tape = ad.Tape()
        out = ad.bilstm(tape, *new)
        _backprop(tape, out, dout)
        ref = [ad.leaf(a) for a in arrays]
        tape = ad.Tape()
        fw = _lstm_chain(tape, ref[0], ref[1], ref[4], range(n))
        bw = _lstm_chain(tape, ref[2], ref[3], ref[4], range(n - 1, -1, -1))
        ref_out = ad.stack_rows(tape, [ad.concat(tape, [f, b]) for f, b in zip(fw, bw)])
        _backprop(tape, ref_out, dout)
        _close(out.data, ref_out.data)
        for got, want in zip(new, ref):
            _close(got.grad, want.grad)

        new = [ad.leaf(a) for a in (arrays[0], arrays[1], arrays[4])]
        tape = ad.Tape()
        out = ad.lstm_seq(tape, *new)
        _backprop(tape, out, dout[:, :H])
        ref = [ad.leaf(a) for a in (arrays[0], arrays[1], arrays[4])]
        tape = ad.Tape()
        ref_out = ad.stack_rows(tape, _lstm_chain(tape, *ref, range(n)))
        _backprop(tape, ref_out, dout[:, :H])
        _close(out.data, ref_out.data)
        for got, want in zip(new, ref):
            _close(got.grad, want.grad)


def _score_case(rng, T, n, attention):
    """Random inputs of the scoring op; some steps share a span vector, and
    the starts include empty buffers."""
    S, R, A, n_actions = 3, 4, 2, 5
    pool = [rng.normal(size=S) for _ in range(4)]
    spans = [tuple(pool[int(k)] for k in rng.integers(0, 4, size=3)) for _ in range(T)]
    starts = [int(k) for k in rng.integers(0, n + 1, size=T)]
    return dict(pool=pool, spans=spans, starts=starts, acts=rng.normal(size=(T, A)),
                reps=rng.normal(size=(n, R)) if attention else None,
                Ws=[rng.normal(size=(S, R)) for _ in range(3)],
                W=rng.normal(size=(n_actions, 3 * S + 3 * R + A)), b=rng.normal(size=n_actions))


def test_score_matches_per_step_attend_and_affine():
    rng = np.random.default_rng(23)
    for trial in range(40):
        T, n = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        case = _score_case(rng, T, n, attention=trial % 4 != 3)
        dout = rng.normal(size=(T, len(case["b"])))
        grads = []
        for path in ("new", "reference"):
            pool = {id(a): ad.leaf(a) for a in case["pool"]}
            spans = [tuple(pool[id(a)] for a in step) for step in case["spans"]]
            acts, W, b = ad.leaf(case["acts"]), ad.leaf(case["W"]), ad.leaf(case["b"])
            Ws = [ad.leaf(w) for w in case["Ws"]]
            reps = None if case["reps"] is None else ad.leaf(case["reps"])
            tape = ad.Tape()
            if path == "new":
                keys = None if reps is None else ad.project(tape, reps, Ws)
                out = ad.score(tape, spans, acts, case["starts"], reps, keys, W, b)
            else:
                rows = []
                for t, (step, start) in enumerate(zip(spans, case["starts"])):
                    attended = [ad.attend(tape, s, Wi, ad.rows_slice(tape, reps, start, n))
                                if reps is not None and start < n else ad.leaf(np.zeros(4))
                                for s, Wi in zip(step, Ws)]
                    feat = ad.concat(tape, [*step, *attended, ad.pick(tape, acts, t)])
                    rows.append(ad.affine(tape, W, feat, b))
                out = ad.stack_rows(tape, rows)
            _backprop(tape, out, dout)
            grads.append([out.data, acts.grad, W.grad, b.grad,
                          *(ad.dense_grad(x) for x in (*pool.values(), *Ws)),
                          *([] if reps is None else [ad.dense_grad(reps)])])
        for got, want in zip(*grads):
            _close(got, want)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 8), n=st.integers(1, 6),
       attention=st.booleans())
def test_score_on_t_rows_equals_t_calls_of_one_row(seed, T, n, attention):
    case = _score_case(np.random.default_rng(seed), T, n, attention)
    reps = case["reps"]
    keys = None if reps is None else ad._project(reps, case["Ws"], None)[0]
    fwd = ad.Forward({})
    rows = fwd.score(case["spans"], case["acts"], case["starts"], reps, keys, case["W"], case["b"])
    for t in range(T):
        one = fwd.score(case["spans"][t:t + 1], case["acts"][t:t + 1], case["starts"][t:t + 1],
                        reps, keys, case["W"], case["b"])
        _close(rows[t:t + 1], one)


def test_masked_nll_matches_the_per_row_reference():
    rng = np.random.default_rng(24)
    for _ in range(30):
        T, n_actions = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        logits = ad.leaf(rng.normal(scale=3.0, size=(T, n_actions)))
        valid = [sorted(int(k) for k in rng.choice(n_actions, size=int(rng.integers(1, n_actions + 1)),
                                                  replace=False)) for _ in range(T)]
        gold = [int(rng.choice(v)) for v in valid]
        tape = ad.Tape()
        loss = ad.masked_nll(tape, logits, valid, gold)
        ad.backward(tape, loss)
        want_loss, want_grad = 0.0, np.zeros((T, n_actions))
        for t, (v, g) in enumerate(zip(valid, gold)):
            z = logits.data[t, v]
            lse = z.max() + np.log(np.exp(z - z.max()).sum())
            want_loss += lse - logits.data[t, g]
            want_grad[t, v] = np.exp(z - lse)
            want_grad[t, g] -= 1.0
        _close(loss.data, want_loss)
        _close(logits.grad, want_grad)


def _per_token_loss(sentence, gold_actions, params, vocab, config):
    """Today's per-token path of the teacher-forced loss: per token a word
    row, a char-CNN call and a concat; the BiLSTM as lstm_cell steps; per
    step the stack input through proj_W, three attend nodes over a
    rows_slice of the stacked token vectors, the output affine, one NLL node
    and one action-LSTM step; add_n over the steps."""
    from disconer.transitions import ActionKind, ParserState, apply, is_terminal, valid_actions
    tape = ad.Tape()
    ops = ad.Recorded(tape, params.t)
    p, n = params.t, len(sentence.tokens)
    t_vecs = []
    for tok in sentence.tokens:
        chars = ops.rows_lookup(p["char_emb"], vocab.char_indices(tok))
        cvec = ops.pick(ops.char_cnn(p["char_w"], p["char_b"], chars, [len(tok)]), 0)
        t_vecs.append(ops.concat([ad.row(tape, p["word_emb"], vocab.word_index(tok)), cvec]))
    X = ops.stack_rows(t_vecs)
    fwd = _lstm_chain(tape, p["lstm_fw_W"], p["lstm_fw_b"], X, range(n))
    bwd = _lstm_chain(tape, p["lstm_bw_W"], p["lstm_bw_b"], X, range(n - 1, -1, -1))
    c_vecs = [ops.concat([f, b]) for f, b in zip(fwd, bwd)]
    C = ops.stack_rows(c_vecs)
    state, stack, act_h, act_c, losses = ParserState(), (), None, None, []
    while not is_terminal(state, n):
        valid_idx = sorted(vocab.action_index[a] for a in valid_actions(state, n, vocab.types))
        spans = [stack[-1 - i].h if len(stack) > i else p["s_empty"] for i in range(3)]
        attended = [ad.attend(tape, s, p[f"attn_W{i}"],
                              ad.rows_slice(tape, C, state.buffer_pos, n))
                    if config.attention and state.buffer_pos < n
                    else ad.leaf(np.zeros(config.rep_dim))
                    for i, s in enumerate(spans)]
        act = act_h if act_h is not None else p["a_empty"]
        logits = ops.affine(p["out_W"], ops.concat(spans + attended + [act]), p["out_b"])
        chosen = gold_actions[len(losses)]
        idx = vocab.action_index[chosen]
        losses.append(ops.masked_nll(ops.stack_rows([logits]), [valid_idx], [idx]))
        kind = chosen.kind
        if kind is ActionKind.SHIFT:
            vec = ops.affine(p["proj_W"], c_vecs[state.buffer_pos], p["proj_b"])
            stack = stack_push(ops, stack, vec)
        elif kind is ActionKind.COMPLETE:
            stack = stack_pop(stack)
        elif kind is not ActionKind.OUT:
            e0, e1 = stack[-1], stack[-2]
            new_vec = compose(ops, e0.h, e1.h)
            stack = stack[:-2]
            if kind is ActionKind.LEFT_REDUCE:
                stack = stack + (e1,)
            elif kind is ActionKind.RIGHT_REDUCE:
                stack = stack_push(ops, stack, e0.vec)
            stack = stack_push(ops, stack, new_vec)
        act_h, act_c = ops.lstm_cell(p["act_W"], p["act_b"], ad.row(tape, p["act_emb"], idx),
                                     act_h, act_c)
        state = apply(state, chosen)
    return ad.add_n(tape, losses), tape


def test_sentence_loss_matches_the_per_token_path():
    """Loss and every parameter gradient of the whole-sentence ops equal
    today's per-token path to 1e-12 relative: random dimensions, windows
    longer than some words, one-token sentences, attention on and off."""
    rng = np.random.default_rng(25)
    one_token = [Sentence(("a",), ()), Sentence(("fever",), (Mention("ADR", (Fragment(0, 1),)),))]
    sentences = list(CORPUS)[:6] + one_token
    for trial in range(12):
        dims = {name: int(k) for name, k in zip(
            ("word_dim", "char_dim", "char_filters", "hidden_dim", "stack_dim", "action_dim"),
            rng.integers(1, 5, size=6))}
        config = ScorerConfig(**dims, char_cnn_window=int(rng.choice([1, 3, 5])),
                              attention=trial % 3 != 2, seed=trial)
        vocab = Vocab.build(make_corpus(4, seed=trial))   # leaves some words unknown
        vocab = Vocab(tuple(sorted(set(vocab.words) | {"a"})), vocab.chars,
                      tuple(sorted(set(vocab.types) | {"ADR"})))
        for s in sentences:
            gold, _ = oracle(s)
            new, ref = init_params(config, vocab), init_params(config, vocab)
            loss, tape = sentence_loss(s, gold, new, vocab, config)
            ad.backward(tape, loss)
            ref_loss, ref_tape = _per_token_loss(s, gold, ref, vocab, config)
            ad.backward(ref_tape, ref_loss)
            _close(loss.data, ref_loss.data)
            for name in new.names():
                _close(ad.dense_grad(new.t[name]), ad.dense_grad(ref.t[name]))


@pytest.mark.parametrize("attention", [True, False])
def test_gradient_matches_finite_differences_at_every_coordinate(attention):
    """Central differences at every coordinate of every parameter, on a
    tiny config and two sentences: a sampled check can miss one wrong
    slice."""
    from disconer.corpus import Corpus
    config = ScorerConfig(word_dim=2, char_dim=2, char_filters=3, hidden_dim=2, stack_dim=3,
                          action_dim=2, attention=attention)
    sentences = [SEQ_EXAMPLE, Sentence(("a", "sore", "throat"),
                                       (Mention("B", (Fragment(1, 3),)),))]
    vocab = Vocab.build(Corpus(tuple(sentences)))
    params = init_params(config, vocab)
    golds = [oracle(s)[0] for s in sentences]
    for s, gold in zip(sentences, golds):
        loss, tape = sentence_loss(s, gold, params, vocab, config)
        ad.backward(tape, loss)                     # gradients add over both
    analytic = {name: ad.dense_grad(t).copy() for name, t in params.t.items()}
    forward = ad.Forward(params.arrays())           # sees the nudges below

    def total() -> float:
        return sum(float(neural._teacher_loss(forward, s, gold, vocab, config))
                   for s, gold in zip(sentences, golds))

    eps, worst = 1e-4, 0.0     # a smaller step drowns gradients near 1e-4 in roundoff
    for name, arr in params.arrays().items():
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + eps
            up = total()
            arr[idx] = orig - eps
            down = total()
            arr[idx] = orig
            fd, an = (up - down) / (2 * eps), analytic[name][idx]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-4))
    assert worst < 1e-6, worst


# ---------------------------------------------------------------------------
# Lockstep prediction of many sentences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("L", [1, 2, 7, 33])
def test_row_kernels_give_each_row_the_bytes_of_its_lone_call(L):
    """_affine and _lstm_cell on L rows, and _attend_rows then _affine as the
    output layer, give every row the bytes of the one-row call: of _affine,
    _lstm_cell (also from the zero state) and _score."""
    rng = np.random.default_rng(L)
    S, R, A, n_actions = 16, 32, 12, 7
    W, b = rng.normal(size=(4 * S, 2 * S)), rng.normal(size=4 * S)
    X, Hs, Cs = rng.normal(size=(3, L, S))
    got = ad._affine(W, np.concatenate([X, Hs], axis=1), b)
    assert all(got[r].tobytes() == ad._affine(W, np.concatenate([X[r], Hs[r]]), b).tobytes()
               for r in range(L))
    for zero_state in (False, True):
        rows = ad._lstm_cell(W, b, X, *((None, None) if zero_state else (Hs, Cs)))[:2]
        for r in range(L):
            one = ad._lstm_cell(W, b, X[r], *((None, None) if zero_state else (Hs[r], Cs[r])))[:2]
            assert [a[r].tobytes() for a in rows] == [a.tobytes() for a in one]

    out_W, out_b = rng.normal(size=(n_actions, 3 * S + 3 * R + A)), rng.normal(size=n_actions)
    for m in (1, 3, 8, 13):
        spans, acts = rng.normal(size=(L, 3, S)), rng.normal(size=(L, A))
        starts = rng.integers(0, 4, size=L)
        reps = [rng.normal(size=(start + m, R)) for start in starts]
        keys = [rng.normal(size=(start + m, 3 * S)) for start in starts]
        attended = ad._attend_rows(spans, np.array([k[-m:] for k in keys]),
                                   np.array([x[-m:] for x in reps]))
        features = np.concatenate([spans.reshape(L, -1), attended.reshape(L, -1), acts], axis=1)
        logits = ad._affine(out_W, features, out_b)
        for r in range(L):
            one, one_features, _ = ad._score(spans[r:r + 1], acts[r:r + 1], [int(starts[r])],
                                             reps[r], keys[r], out_W, out_b)
            assert attended[r].tobytes() == one_features[0, 3 * S:3 * S + 3 * R].tobytes()
            assert logits[r].tobytes() == one[0].tobytes()


@pytest.mark.parametrize("window", [1, 3, 5])
def test_char_cnn_gives_each_word_the_bytes_of_its_lone_call(window):
    """_char_cnn over many words gives every word the bytes of _char_cnn on
    that word alone: a one-character word, a word of exactly the window, the
    call's longest word and 40 words of random lengths below it."""
    rng = np.random.default_rng(window)
    char_dim, F = 8, 8
    filters, bias = rng.normal(size=(F, window * char_dim)), rng.normal(size=F)
    lengths = [1, window, 12, *(int(k) for k in rng.integers(1, 12, size=40))]
    emb = rng.normal(size=(sum(lengths), char_dim))
    out = ad._char_cnn(filters, bias, emb, lengths)[0]
    for i, (k, end) in enumerate(zip(lengths, np.cumsum(lengths))):
        lone = ad._char_cnn(filters, bias, emb[end - k:end], [k])[0]
        assert out[i].tobytes() == lone[0].tobytes(), (i, k)


def _vector_lstm_seq(W, b, X):
    """_lstm_seq's recurrence over one batch X (D, n, in) with the state a
    vector, each step's recurrent product the lone h @ U_half: the hidden
    states (D, n, H), U and the per-step c (c_0 .. c_n), sig, g and tc."""
    D, n, in_dim = X.shape
    H = W.shape[1] // 4
    DH = D * H
    XW = X @ W[:, :, :in_dim].transpose(0, 2, 1) + b[:, None, :]
    XW = XW.reshape(D, n, 4, H).transpose(1, 2, 0, 3).reshape(n, 4 * DH)
    U = np.zeros((D, H, 4, D, H))
    for d in range(D):
        U[d, :, :, d] = W[d, :, in_dim:].reshape(4, H, H).transpose(2, 0, 1)
    U = U.reshape(DH, 4 * DH)
    XW[:, :3 * DH] *= 0.5
    U_half = U.copy()
    U_half[:, :3 * DH] *= 0.5
    h = c = np.zeros(DH)
    hs, cs, sigs, gs, tcs = [], [c], [], [], []
    for t in range(n):
        a = np.tanh(XW[t] + h @ U_half)
        sig = a[:3 * DH] * 0.5 + 0.5
        g = a[3 * DH:]
        c = sig[DH:2 * DH] * c + sig[:DH] * g
        tc = np.tanh(c)
        h = tc * sig[2 * DH:]
        hs.append(h)
        cs.append(c)
        sigs.append(sig)
        gs.append(g)
        tcs.append(tc)
    return np.array(hs).reshape(n, D, H).transpose(1, 0, 2), (U, cs, sigs, gs, tcs)


@pytest.mark.parametrize("H", [8, 16])
@pytest.mark.parametrize("n", [1, 2, 9])
def test_lstm_kernels_give_each_sequence_of_a_batch_the_bytes_of_its_lone_call(n, H):
    """_lstm_seq (one and two directions) and _bilstm over B = 1, 2 and 7
    sequences of one length give each sequence the bytes of its B = 1 call.
    The B = 1 call gives the bytes of the recurrence with a vector state, in
    its states and in the cache _lstm_seq_grads reads, and _lstm_seq_grads
    gives the same bytes from either cache."""
    rng = np.random.default_rng(100 * n + H)
    in_dim = 24
    W, b = rng.normal(size=(2, 4 * H, in_dim + H)), rng.normal(size=(2, 4 * H))
    for B in (1, 2, 7):
        for D in (1, 2):
            X = rng.normal(size=(B, D, n, in_dim))
            hs = ad._lstm_seq(W[:D], b[:D], X)[0]
            for k in range(B):
                assert hs[k].tobytes() == ad._lstm_seq(W[:D], b[:D], X[k:k + 1])[0][0].tobytes()
        X = rng.normal(size=(B, n, in_dim))
        weights = W[0], b[0], W[1], b[1]
        out = ad._bilstm(*weights, X)[0]
        assert out.shape == (B, n, 2 * H)
        for k in range(B):
            assert out[k].tobytes() == ad._bilstm(*weights, X[k:k + 1])[0][0].tobytes()

    X, dH = rng.normal(size=(2, n, in_dim)), rng.normal(size=(2, n, H))
    hs, cache = ad._lstm_seq(W, b, X[None])
    want, (U, cs, sigs, gs, tcs) = _vector_lstm_seq(W, b, X)
    assert hs[0].tobytes() == want.tobytes()
    assert cache[0].tobytes() == U.tobytes()
    for got, ref in zip(cache[2:], (cs, sigs, gs, tcs)):
        assert [a.tobytes() for a in got] == [a[None].tobytes() for a in ref]
    h_prev = np.concatenate([np.zeros((2, 1, H)), want[:, :-1]], axis=1)
    ref_cache = (U, h_prev[None], *([a[None] for a in ref] for ref in (cs, sigs, gs, tcs)))
    assert [g.tobytes() for g in ad._lstm_seq_grads(W, X, cache, dH)] == \
        [g.tobytes() for g in ad._lstm_seq_grads(W, X, ref_cache, dH)]


def _step_logits(monkeypatch, run, params, lockstep):
    """run() and every step's logits: one array per step, of one row
    (predict) or of one row per live sentence (predict_corpus)."""
    seen = []
    with monkeypatch.context() as mp:
        if lockstep:
            affine, out_W = ad._affine, params.t["out_W"].data

            def recording(W, x, b):
                out = affine(W, x, b)
                if W is out_W:
                    seen.append(out)
                return out
            mp.setattr(ad, "_affine", recording)
        else:
            attend_ = neural.attend
            mp.setattr(neural, "attend", lambda *args: seen.append(attend_(*args)) or seen[-1])
        return run(), seen


@pytest.mark.parametrize("attention", [True, False])
def test_predict_corpus_is_predict_bitwise_at_every_step(monkeypatch, attention):
    """On the golden-digest corpora, in chunks of 1, 3 and all sentences:
    the same mention sets as one sentence at a time, and each step's logits
    bitwise those of the one-sentence rollout."""
    train_c, test_c = make_corpus(80, seed=41), make_corpus(30, seed=42)
    config = ScorerConfig(hidden_dim=8, stack_dim=8, epochs=6, attention=attention)
    params, vocab, _ = train(train_c, config)
    want, lone = [], []
    for s in test_c:
        pred, steps = _step_logits(monkeypatch, lambda: predict(s, params, vocab, config),
                                   params, lockstep=False)
        want.append(pred)
        lone.append([step[0].tobytes() for step in steps])
    for chunk in (1, 3, len(test_c)):
        monkeypatch.setattr(neural, "PREDICT_CHUNK", chunk)
        got, steps = _step_logits(
            monkeypatch, lambda: neural.predict_corpus(test_c.sentences, params, vocab, config),
            params, lockstep=True)
        assert got == want
        if chunk == len(test_c):       # step t has a row for each sentence still live
            assert [sorted(row.tobytes() for row in step) for step in steps] == \
                [sorted(s[t] for s in lone if len(s) > t) for t in range(len(steps))]


def test_predict_corpus_steps_past_empty_and_one_token_sentences(monkeypatch):
    """An empty sentence is never live; a one-token one leaves the chunk
    after one or two steps while the others go on."""
    params = init_params(CONFIG, VOCAB)
    sents = [CORPUS.sentences[0], Sentence((), ()), Sentence(("pain",), ()),
             CORPUS.sentences[1]]
    assert min(len(sents[0].tokens), len(sents[3].tokens)) > 1
    want = [predict(s, params, VOCAB, CONFIG) for s in sents]
    lengths = []
    valid = neural.valid_actions
    monkeypatch.setattr(neural, "valid_actions",
                        lambda state, n, types: lengths.append(n) or valid(state, n, types))
    assert neural.predict_corpus(sents, params, VOCAB, CONFIG) == want
    assert want[1] == frozenset()
    assert 0 not in lengths and lengths.count(1) in (1, 2)
    assert lengths.count(len(sents[0].tokens)) > 2


@pytest.mark.parametrize("attention", [True, False])
def test_predict_corpus_is_predict_bitwise_on_unseen_repeated_and_short_words(monkeypatch,
                                                                             attention):
    """A file with unseen words and an unseen character, repeated words,
    many sentences of one length and one-word sentences of at most three
    characters (one char-CNN window: a one-row GEMM, whose bytes a larger
    call would not give). In chunks of 4 and of all sentences, predict_corpus
    gives predict's mention sets and every step's logits bitwise."""
    config = ScorerConfig(epochs=2, attention=attention)
    params, vocab, _ = train(make_corpus(60, seed=43), config)
    sents = [Sentence(s.tokens[:5], ()) for s in make_corpus(40, seed=44) if len(s.tokens) >= 5]
    sents += [Sentence(("pain", "pain", "leg", "pain", "pain"), ()),
              Sentence(("zqxv", "pain", "ñandú", "leg", "zqxv", "arm"), ()),
              Sentence(("leg",), ()), Sentence(("é",), ()), Sentence(("zq",), ()),
              Sentence(("arm", "ñ"), ())]
    assert "ñ" not in vocab.chars and "zqxv" not in vocab.words and "pain" in vocab.words
    assert sum(len(s.tokens) == 5 for s in sents) >= 20
    want, lone = [], []
    for s in sents:
        pred, steps = _step_logits(monkeypatch, lambda: predict(s, params, vocab, config),
                                   params, lockstep=False)
        want.append(pred)
        lone.append([step[0].tobytes() for step in steps])
    for chunk in (4, len(sents)):
        monkeypatch.setattr(neural, "PREDICT_CHUNK", chunk)
        got, steps = _step_logits(
            monkeypatch, lambda: neural.predict_corpus(sents, params, vocab, config),
            params, lockstep=True)
        assert got == want
        assert sorted(row.tobytes() for step in steps for row in step) == \
            sorted(row for rows in lone for row in rows)
        if chunk == len(sents):        # step t has a row for each sentence still live
            assert [sorted(row.tobytes() for row in step) for step in steps] == \
                [sorted(s[t] for s in lone if len(s) > t) for t in range(len(steps))]


# ---------------------------------------------------------------------------
# The teacher-forced and the greedy rollout
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("attention", [True, False])
def test_teacher_forcing_scores_the_greedy_sequence_as_the_greedy_rollout(monkeypatch,
                                                                          attention):
    """A trained model's greedy action sequence, scored with teacher-forced
    Forward ops, gets at every step the logits the greedy rollout chose from,
    to 1e-12 relative: teacher forcing scores all T steps in one product, so
    the match is not bitwise. The sequence decodes to predict's mentions."""
    config = ScorerConfig(hidden_dim=8, stack_dim=8, epochs=6, attention=attention)
    params, vocab, _ = train(make_corpus(80, seed=41), config)
    forward = ad.Forward(params.arrays())
    apply_ = neural.apply_action
    found = 0
    for s in make_corpus(30, seed=42):
        taken = []
        with monkeypatch.context() as mp:
            mp.setattr(neural, "apply_action",
                       lambda state, a: taken.append(a) or apply_(state, a))
            final, greedy = _step_logits(monkeypatch,
                                         lambda: neural._rollout(forward, s, vocab, config),
                                         params, lockstep=False)
        loss, teacher = _step_logits(
            monkeypatch, lambda: neural._teacher_loss(forward, s, taken, vocab, config),
            params, lockstep=False)
        assert len(teacher) == 1 and teacher[0].shape[0] == len(greedy) == len(taken)
        for row, step in zip(teacher[0], greedy):
            _close(row, step[0])
        assert np.isfinite(loss)
        assert decode(taken, len(s.tokens), vocab.types) == frozenset(final.outputs) \
            == predict(s, params, vocab, config)
        found += len(final.outputs)
    assert found > 0
