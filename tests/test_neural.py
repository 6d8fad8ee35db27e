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
    emb = ad.leaf(rng.normal(size=(5, 2)))
    v = rng.normal(size=3)

    def forward():
        tape = ad.Tape()
        out = ad.char_cnn(tape, filters, bias, emb)
        return float(v @ out.data)

    tape = ad.Tape()
    out = ad.char_cnn(tape, filters, bias, emb)
    total = ad.affine(tape, ad.leaf(v[None, :]), out, ad.leaf(np.zeros(1)))
    ad.backward(tape, total)
    for t in (filters, bias, emb):
        assert np.allclose(t.grad, _num_grad(forward, t.data), atol=1e-6)


def test_char_cnn_pads_short_words():
    tape = ad.Tape()
    filters = ad.leaf(np.ones((2, 3 * 2)))
    bias = ad.leaf(np.zeros(2))
    emb = ad.leaf(np.ones((1, 2)))  # shorter than window 3
    out = ad.char_cnn(tape, filters, bias, emb)
    assert out.data.shape == (2,)


def test_attend_weights_and_empty_buffer():
    rng = np.random.default_rng(2)
    q = rng.normal(size=4)
    W = rng.normal(size=(4, 3))
    B = rng.normal(size=(5, 3))
    w = ad.attention_weights(q, W, B)
    assert w.shape == (5,)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    empty = attend(ad.Recorded(ad.Tape(), {}), ad.leaf(q), None, ad.leaf(W))
    assert np.array_equal(empty.data, np.zeros(3))


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
    logits = ad.leaf(rng.normal(size=6))
    valid = [0, 2, 5]

    def forward():
        tape = ad.Tape()
        return float(ad.masked_nll(tape, logits, valid, 1).data)

    tape = ad.Tape()
    loss = ad.masked_nll(tape, logits, valid, 1)
    ad.backward(tape, loss)
    assert np.allclose(logits.grad, _num_grad(forward, logits.data), atol=1e-6)
    assert logits.grad[1] == 0.0 and logits.grad[3] == 0.0


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
    vecs, matrix = token_reps(ad.Recorded(tape, params.t), s, VOCAB, CONFIG)
    assert len(vecs) == len(s.tokens)
    assert all(v.data.shape == (CONFIG.rep_dim,) for v in vecs)
    assert matrix.data.shape == (len(s.tokens), CONFIG.rep_dim)


def test_stack_push_pop_exact_restore():
    params = init_params(CONFIG, VOCAB)
    tape = ad.Tape()
    v1 = ad.leaf(np.ones(CONFIG.stack_dim))
    v2 = ad.leaf(np.full(CONFIG.stack_dim, 0.5))
    ops = ad.Recorded(tape, params.t)
    stack = stack_push(ops, CONFIG, (), v1)
    before = stack[-1]
    stack2 = stack_push(ops, CONFIG, stack, v2)
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


def test_lookup_tables_get_one_gradient_row_per_row_read():
    s = next(s for s in CORPUS if s.mentions and len(set(s.tokens)) < len(s.tokens))
    params, actions = _one_backward(s)
    read = {"word_emb": [VOCAB.word_index(tok) for tok in s.tokens],
            "char_emb": [c for tok in s.tokens for c in VOCAB.char_indices(tok)],
            "act_emb": [VOCAB.actions.index(a) for a in actions]}
    for name in LOOKUP_TABLES:
        t = params.t[name]
        assert t.rows.tolist() == sorted(set(read[name])), name
        assert t.grad.shape == (len(t.rows), t.data.shape[1])
    assert len(params.t["word_emb"].rows) == len(set(s.tokens))
    for name, t in params.t.items():
        if name not in LOOKUP_TABLES:
            assert t.rows is None and t.grad.shape == t.data.shape, name


def test_only_backward_queues_table_rows():
    """A forward pass that is never differentiated (predict) records no
    rows; backward adds its queue into the tables and empties it."""
    s = next(s for s in CORPUS if s.mentions)
    params = init_params(CONFIG, VOCAB)
    loss, tape = sentence_loss(s, oracle(s)[0], params, VOCAB, CONFIG)
    assert tape.lookups == {}
    ad.backward(tape, loss)
    assert tape.lookups == {}
    assert all(params.t[name].rows is not None for name in LOOKUP_TABLES)


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
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    original = neural.token_reps
    tracer = tracer_mod.Tracer()
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
            "autodiff.backward", "autodiff.lstm_cell.bilstm.bwd",
            "autodiff.row.bwd", "autodiff.rows_lookup.bwd"} <= names
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
    _, final = neural._rollout(ad.Forward(params.arrays()), s, VOCAB, CONFIG)
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
    comes from attend alone, and no buffer matrix is built or sliced."""
    calls = {"rows_slice": 0, "stack_rows": 0}
    for name in calls:
        def counting(*args, _name=name, _op=getattr(ad, name)):
            calls[_name] += 1
            return _op(*args)
        monkeypatch.setattr(ad, name, counting)
    s = next(s for s in CORPUS if s.mentions)
    actions, _ = oracle(s)
    for attention in (True, False):
        calls.update(rows_slice=0, stack_rows=0)
        config = replace(CONFIG, attention=attention)
        sentence_loss(s, actions, init_params(config, VOCAB), VOCAB, config)
        assert bool(calls["rows_slice"]) is attention
        assert calls["stack_rows"] == int(attention)


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

    for _ in range(25):
        H, D, n = (int(k) for k in rng.integers(1, 7, size=3))
        tape = ad.Tape()
        rec = ad.Recorded(tape, {})
        cases = {
            "affine": arrays((H, D), (D,), (H,)),
            "lstm_cell": arrays((4 * H, D + H), (4 * H,), (D,), (H,), (H,)),
            "char_cnn": arrays((H, 3 * D), (H,), (n, D)),
            "attend": arrays((H,), (H, D), (n, D)),
            "rows_slice": arrays((n + 2, D)) + [1, n + 1],
            "row": arrays((n, D)) + [n - 1],
            "rows_lookup": arrays((n, D)) + [[n - 1, 0, n - 1]],
        }
        for name, args in cases.items():
            const = [a for a in args if not isinstance(a, np.ndarray)]
            leaves = [ad.leaf(a) for a in args if isinstance(a, np.ndarray)]
            got = getattr(fwd, name)(*args)
            want = getattr(rec, name)(*leaves, *const)
            if name == "lstm_cell":
                assert all(g.tobytes() == w.data.tobytes() for g, w in zip(got, want))
            else:
                assert got.tobytes() == want.data.tobytes(), name
        parts = arrays((H,), (D,), (n,))
        assert fwd.concat(parts).tobytes() == \
            rec.concat([ad.leaf(p) for p in parts]).data.tobytes()
        rows = arrays((D,), (D,), (D,))
        assert fwd.stack_rows(rows).tobytes() == \
            rec.stack_rows([ad.leaf(r) for r in rows]).data.tobytes()
        logits = rng.normal(size=6)
        assert fwd.masked_nll(logits, [0, 2, 5], 1).tobytes() == \
            rec.masked_nll(ad.leaf(logits), [0, 2, 5], 1).data.tobytes()


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
        c2._backward()
        assert h2.data.tobytes() == h_ref.tobytes() and c2.data.tobytes() == c_ref.tobytes()
        for leaf, want in zip(leaves, grads_ref):
            assert leaf.grad.tobytes() == want.tobytes()
