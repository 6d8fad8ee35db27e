"""Trainable transition scorer.

Token representations concatenate a word embedding with a char-CNN vector
and run through a BiLSTM. Stack spans are encoded with a Stack-LSTM (push
advances one step, pop restores the previous state exactly); reduces go
through a shared affine composition; each of the top three spans can attend
over the remaining buffer with multiplicative attention; the action history
feeds a unidirectional LSTM. The concatenated parser features drive a
softmax over the valid actions only.

Everything is float64 and deterministic given the seed; training is plain
per-sentence SGD with teacher forcing on oracle action sequences
(`_teacher_loss`, on the steps `transitions.walk` checks). Greedy prediction
of one sentence (`predict`) runs `_rollout` forward only, on plain arrays.
The token encoder runs as whole-sentence ops, and the scoring op takes any
number of steps: the greedy rollout scores each step as it comes, teacher
forcing all of a sentence's steps at once. `predict_corpus` predicts many
sentences with their greedy rollouts stepped in lockstep, and encodes all
sentences of one length with one encoder call, bitwise what `predict` gives
each of them.
"""

from __future__ import annotations

import json
import math
import struct
import time
import zlib
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .corpus import Corpus, CorpusError, Mention, Sentence, check_entity_type
from .transitions import (Action, ActionKind, LEFT_REDUCE, OUT, ParserState,
                          REDUCE, RIGHT_REDUCE, SHIFT, complete, is_terminal,
                          apply as apply_action, oracle, valid_actions, walk)

UNK = "<unk>"
# what a rollout calls its ops on: a tape when it trains, plain arrays when not
Ops = ad.Recorded | ad.Forward


@dataclass(frozen=True)
class ScorerConfig:
    word_dim: int = 16
    char_dim: int = 8
    char_cnn_window: int = 3
    char_filters: int = 8
    hidden_dim: int = 16
    stack_dim: int = 16
    action_dim: int = 12
    attention: bool = True
    learning_rate: float = 0.1
    epochs: int = 30
    seed: int = 0
    # not a setting: a bound on steps per token that the benchmark checks;
    # every rollout ends within 4n - 1 steps, under 8n
    budget_multiplier: ClassVar[int] = 8

    def __post_init__(self):
        """Every field has its declared type, exactly (a bool is no int and
        an int no float), and its range."""
        for f in fields(self):
            name, value, kind = f.name, getattr(self, f.name), type(f.default)
            if kind is bool:
                ok, rule = isinstance(value, bool), "true or false"
            elif kind is int:
                least = 0 if name == "seed" else 1
                ok = type(value) is int and value >= least
                rule = "a non-negative integer" if least == 0 else "a positive integer"
            else:
                ok = isinstance(value, float) and math.isfinite(value) and value > 0
                rule = "a finite positive number"
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {value!r}")
        if self.char_cnn_window % 2 == 0:
            raise ValueError("char_cnn_window must be odd")

    @property
    def rep_dim(self) -> int:
        return 2 * self.hidden_dim

    @property
    def feature_dim(self) -> int:
        return 3 * self.stack_dim + 3 * self.rep_dim + self.action_dim


@dataclass(frozen=True)
class Vocab:
    words: tuple[str, ...]
    chars: tuple[str, ...]
    types: tuple[str, ...]

    def __post_init__(self):
        """All three are tuples; words and chars are distinct strings and
        hold UNK; types are non-empty, distinct and each obeys the
        entity-type rule."""
        if not all(type(v) is tuple for v in (self.words, self.chars, self.types)):
            raise ValueError("words, chars and types must be tuples")
        for name in ("words", "chars"):
            if not set(map(type, getattr(self, name))) <= {str}:
                raise ValueError(f"{name} must hold only strings")
        object.__setattr__(self, "_word_idx", {w: i for i, w in enumerate(self.words)})
        object.__setattr__(self, "_char_idx", {c: i for i, c in enumerate(self.chars)})
        for name, index in (("words", self._word_idx), ("chars", self._char_idx)):
            if UNK not in index:
                raise ValueError(f"{name} must include {UNK!r}")
            if len(index) != len(getattr(self, name)):
                raise ValueError(f"{name} must be distinct")
        if not self.types:
            raise ValueError("types must not be empty")
        for t in self.types:
            check_entity_type(t)
        # the scorer's output rows and action embeddings, in this order
        actions = (SHIFT, OUT, REDUCE, LEFT_REDUCE, RIGHT_REDUCE,
                   *map(complete, self.types))
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "action_index", {a: i for i, a in enumerate(actions)})
        if len(self.action_index) != len(actions):
            raise ValueError("types must be distinct")

    @staticmethod
    def build(corpus: Corpus) -> "Vocab":
        words = {UNK}
        chars = {UNK}
        types = set()
        for sent in corpus:
            for tok in sent.tokens:
                words.add(tok)
                chars.update(tok)
            for m in sent.mentions:
                types.add(m.entity_type)
        if not types:
            types = {"ENT"}
        return Vocab(tuple(sorted(words)), tuple(sorted(chars)), tuple(sorted(types)))

    def word_index(self, word: str) -> int:
        return self._word_idx.get(word, self._word_idx[UNK])

    def char_indices(self, word: str) -> list[int]:
        unk = self._char_idx[UNK]
        return [self._char_idx.get(c, unk) for c in word]


class ScorerParams:
    """All learnable tensors, keyed by name; leaves of every tape."""

    def __init__(self, tensors: dict[str, np.ndarray]):
        self.t: dict[str, Tensor] = {name: ad.leaf(arr) for name, arr in tensors.items()}

    def names(self) -> list[str]:
        return list(self.t)

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.t.items()}

    def zero_grad(self) -> None:
        for t in self.t.values():
            ad.clear_grad(t)

    def copy(self) -> "ScorerParams":
        return ScorerParams({name: t.data.copy() for name, t in self.t.items()})


def _shapes(config: ScorerConfig, vocab: Vocab) -> dict[str, tuple[int, ...]]:
    in_dim = config.word_dim + config.char_filters
    H, S, A = config.hidden_dim, config.stack_dim, config.action_dim
    n_actions = len(vocab.actions)
    return {
        "word_emb": (len(vocab.words), config.word_dim),
        "char_emb": (len(vocab.chars), config.char_dim),
        "char_w": (config.char_filters, config.char_cnn_window * config.char_dim),
        "char_b": (config.char_filters,),
        "lstm_fw_W": (4 * H, in_dim + H),
        "lstm_fw_b": (4 * H,),
        "lstm_bw_W": (4 * H, in_dim + H),
        "lstm_bw_b": (4 * H,),
        "proj_W": (S, config.rep_dim),
        "proj_b": (S,),
        "stack_W": (4 * S, 2 * S),
        "stack_b": (4 * S,),
        "comp_W": (S, 2 * S),
        "comp_b": (S,),
        "attn_W0": (S, config.rep_dim),
        "attn_W1": (S, config.rep_dim),
        "attn_W2": (S, config.rep_dim),
        "act_emb": (n_actions, A),
        "act_W": (4 * A, 2 * A),
        "act_b": (4 * A,),
        "out_W": (n_actions, config.feature_dim),
        "out_b": (n_actions,),
        "s_empty": (S,),
        "a_empty": (A,),
    }


def init_params(config: ScorerConfig, vocab: Vocab) -> ScorerParams:
    """Uniform init in [-r, r] with r = sqrt(6 / (fan_in + fan_out)), drawn
    from config.seed."""
    rng = np.random.default_rng(config.seed)
    tensors = {}
    for name, shape in _shapes(config, vocab).items():
        fan = shape[0] + shape[1] if len(shape) == 2 else 2 * shape[0]
        r = np.sqrt(6.0 / fan)
        tensors[name] = rng.uniform(-r, r, size=shape)
    return ScorerParams(tensors)


# ---------------------------------------------------------------------------
# Token representations
# ---------------------------------------------------------------------------

def token_reps(ops: Ops, sentences: list[Sentence], vocab: Vocab, config: ScorerConfig):
    """The token encodings of sentences of one length n, each from one op
    over all of them: the stack inputs proj of the tokens, and with
    attention on their contextual vectors reps and the attention keys of the
    three span slots (both None when attention is off, as nothing reads
    them). One sentence gives (n, S), (n, rep_dim) and (n, 3S); B sentences,
    on plain arrays only (a tape records one sentence), give each of them
    with a leading axis of B, every sentence bitwise its own call.

    A token is its word embedding and char-CNN vector, and a BiLSTM runs
    over the tokens. Unknown words map to the UNK embedding.
    """
    p = ops.p
    n = len(sentences[0].tokens)
    if not n:
        return None, None, None
    tokens = [tok for sent in sentences for tok in sent.tokens]
    chars = [vocab.char_indices(tok) for tok in tokens]
    words = ops.rows_lookup(p["word_emb"], [vocab.word_index(tok) for tok in tokens])
    cnn = ops.char_cnn(p["char_w"], p["char_b"],
                       ops.rows_lookup(p["char_emb"], [c for cs in chars for c in cs]),
                       [len(cs) for cs in chars])
    X = ops.concat([words, cnn])
    if len(sentences) > 1:
        X = X.reshape(len(sentences), n, -1)
    reps = ops.bilstm(p["lstm_fw_W"], p["lstm_fw_b"], p["lstm_bw_W"], p["lstm_bw_b"], X)
    proj = ops.project(reps, [p["proj_W"]], p["proj_b"])
    if not config.attention:
        return proj, None, None
    return proj, reps, ops.project(reps, [p["attn_W0"], p["attn_W1"], p["attn_W2"]])


# ---------------------------------------------------------------------------
# Stack-LSTM
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StackEntry:
    """One pushed span: its input vector and the LSTM state after pushing
    (Tensors when recorded, arrays when not)."""
    vec: Tensor | np.ndarray
    h: Tensor | np.ndarray
    c: Tensor | np.ndarray


def stack_push(ops: Ops, stack: tuple[StackEntry, ...], vec) -> tuple[StackEntry, ...]:
    """Advance the Stack-LSTM one step; the previous state is kept intact.
    An empty stack pushes from the zero state (h = c = None to lstm_cell)."""
    h_prev, c_prev = (stack[-1].h, stack[-1].c) if stack else (None, None)
    h, c = ops.lstm_cell(ops.p["stack_W"], ops.p["stack_b"], vec, h_prev, c_prev)
    return stack + (StackEntry(vec, h, c),)


def stack_pop(stack: tuple[StackEntry, ...]) -> tuple[StackEntry, ...]:
    """Exact restore of the pre-push state (bitwise: prior entries are shared)."""
    if not stack:
        raise ValueError("pop on empty stack")
    return stack[:-1]


def compose(ops: Ops, s0, s1):
    """Affine composition of the top two span representations."""
    return ops.affine(ops.p["comp_W"], ops.concat([s0, s1]), ops.p["comp_b"])


def attend(ops: Ops, spans: list, history, starts: list[int], reps, keys):
    """The logits (T, n_actions) of T parser states, from one scoring op.

    Step t has its three top-span vectors spans[t], its action-history row
    history[t] and its buffer start starts[t]. Each span attends over the
    buffer rows of reps from that start (the zero vector on an empty buffer,
    and always when attention is off, reps None); the output layer maps the
    features to the logits in the same op.
    """
    return ops.score(spans, history, starts, reps, keys, ops.p["out_W"], ops.p["out_b"])


# ---------------------------------------------------------------------------
# Parser state features
# ---------------------------------------------------------------------------

def encode_parser_state(ops: Ops, stack: tuple[StackEntry, ...]):
    """The step's three top-span vectors, s_empty where the stack is shorter."""
    p = ops.p
    return tuple(stack[-1 - i].h if len(stack) > i else p["s_empty"] for i in range(3))


def action_history(ops: Ops, taken: list[int]):
    """The action-history rows of a teacher-forced rollout, from one
    sequence op: a_empty, then the action LSTM's state after each action of
    `taken`. The greedy rollout advances the same LSTM one action per step."""
    p = ops.p
    if not taken:
        return ops.stack_rows([p["a_empty"]])
    emb = ops.rows_lookup(p["act_emb"], taken)
    return ops.stack_rows([p["a_empty"], ops.lstm_seq(p["act_W"], p["act_b"], emb)])


def _advance_neural(ops: Ops, stack: tuple[StackEntry, ...], action: Action, buffer_pos: int,
                    proj) -> tuple[StackEntry, ...]:
    """Mirror one symbolic action on the neural stack."""
    kind = action.kind
    if kind is ActionKind.SHIFT:
        return stack_push(ops, stack, ops.pick(proj, buffer_pos))
    if kind is ActionKind.OUT:
        return stack
    if kind is ActionKind.COMPLETE:
        return stack_pop(stack)
    e0, e1 = stack[-1], stack[-2]
    new_vec = compose(ops, e0.h, e1.h)
    stack = stack_pop(stack_pop(stack))
    if kind is ActionKind.LEFT_REDUCE:
        stack = stack + (e1,)
    elif kind is ActionKind.RIGHT_REDUCE:
        stack = stack_push(ops, stack, e0.vec)
    return stack_push(ops, stack, new_vec)


# ---------------------------------------------------------------------------
# Rollouts: teacher-forced loss and greedy prediction
# ---------------------------------------------------------------------------

def _teacher_loss(ops: Ops, sentence: Sentence, gold_actions: list[Action], vocab: Vocab,
                  config: ScorerConfig):
    """The summed NLL of gold_actions under the valid-masked softmax (None
    when there is no step).

    `transitions.walk` checks the sequence first, so the loss accepts and
    refuses what decode and trace do, and a refused sequence raises before
    any op runs. No score feeds back into the loop, so the loop only mirrors
    each step's stack, and one scoring call and one masked-NLL op cover all
    T steps after it. Recorded ops build the tape the loss is differentiated
    on; Forward ops run the same arithmetic on plain arrays.
    """
    steps, _ = walk(gold_actions, len(sentence.tokens), vocab.types)
    if not steps:
        return None
    action_idx = vocab.action_index
    taken = [action_idx[a] for a in gold_actions]
    proj, reps, keys = token_reps(ops, [sentence], vocab, config)
    stack, spans = (), []
    for (state, _), action in zip(steps, gold_actions):
        spans.append(encode_parser_state(ops, stack))
        stack = _advance_neural(ops, stack, action, state.buffer_pos, proj)
    starts = [state.buffer_pos for state, _ in steps]
    valids = [sorted(action_idx[a] for a in valid) for _, valid in steps]
    logits = attend(ops, spans, action_history(ops, taken[:-1]), starts, reps, keys)
    return ops.masked_nll(logits, valids, taken)


def _rollout(ops: Ops, sentence: Sentence, vocab: Vocab, config: ScorerConfig) -> ParserState:
    """The greedy rollout: each step scores its state and takes the first
    best valid action. Returns the final symbolic state.

    The action-history row is a_empty before the first action, then the
    action LSTM's state after the last one.
    """
    n = len(sentence.tokens)
    p, actions, action_idx = ops.p, vocab.actions, vocab.action_index
    proj, reps, keys = token_reps(ops, [sentence], vocab, config)
    state, stack = ParserState(), ()
    act_h = act_c = None                       # the action LSTM's zero state
    while not is_terminal(state, n):
        valid_idx = sorted(action_idx[a] for a in valid_actions(state, n, vocab.types))
        spans = encode_parser_state(ops, stack)
        act = p["a_empty"] if act_h is None else act_h
        logits = attend(ops, [spans], ops.stack_rows([act]), [state.buffer_pos], reps, keys)
        i = valid_idx[int(np.argmax(logits[0, valid_idx]))]
        act_h, act_c = ops.lstm_cell(p["act_W"], p["act_b"], ops.pick(p["act_emb"], i),
                                     act_h, act_c)
        stack = _advance_neural(ops, stack, actions[i], state.buffer_pos, proj)
        state = apply_action(state, actions[i])
    return state


def sentence_loss(sentence: Sentence, gold_actions: list[Action],
                  params: ScorerParams, vocab: Vocab,
                  config: ScorerConfig) -> tuple[Tensor, Tape]:
    """Sum of per-step NLL of gold actions under the valid-masked softmax."""
    tape = Tape()
    loss = _teacher_loss(ad.Recorded(tape, params.t), sentence, gold_actions, vocab, config)
    return (loss if loss is not None else tape.record(np.asarray(0.0))), tape


def predict(sentence: Sentence, params: ScorerParams, vocab: Vocab,
            config: ScorerConfig) -> frozenset[Mention]:
    """Greedy argmax rollout, decoded into the output mention set. It runs
    forward only: no tape, no Tensor and no closure."""
    return frozenset(_rollout(ad.Forward(params.arrays()), sentence, vocab, config).outputs)


# ---------------------------------------------------------------------------
# Greedy prediction of many sentences, in lockstep
# ---------------------------------------------------------------------------

# Sentences `predict_corpus` steps together. Measured on a 2-core Xeon
# (numpy 2.4, OpenBLAS on one thread), with one encoder call per group of
# sentences of one length, medians of 21 passes (3 one at a time) over
# long-gap synthetic sentences: 300 took 308 ms one at a time, and 89, 80,
# 86 and 73 ms in chunks of 64, 128, 256 and 512; 1200 took 1186 ms one at
# a time, and 305, 282, 270 and 281 ms. Against 256, 512 won 18 of 20
# alternating passes on the 300-sentence file, which it takes in one chunk
# instead of two, but 12 of 20 on the 1200-sentence one (272 against 277 ms
# at the median), so 256 stays. A chunk holds its padded encodings and
# stack slots, about 1.2 KB a token: 7 MB for 256 sentences of 22 tokens.
PREDICT_CHUNK = 256


def predict_corpus(sentences, params: ScorerParams, vocab: Vocab,
                   config: ScorerConfig) -> list[frozenset[Mention]]:
    """`predict` of each sentence, from greedy rollouts that run in lockstep
    over chunks of PREDICT_CHUNK sentences, forward only; a chunk takes
    sentences of about one length.

    The sentences of the chunk that have one length are encoded by one
    `token_reps` call: one char-CNN, one BiLSTM call and one call per
    projection over all of them. A step scores every live sentence of
    the chunk at once, and its Stack-LSTM pushes and action-LSTM step run as
    row kernels; the symbolic states stay per sentence, and a sentence
    leaves the chunk when it is terminal. Every product is a stack of the
    one-sentence products, so each logit is bitwise the one `predict`
    computes and the mention sets are the same. One sentence alone is faster
    through `predict`.
    """
    ops = ad.Forward(params.arrays())
    sentences = list(sentences)
    # chunks of sentences of about one length: little padding, and the rows
    # of a chunk finish at about the same step
    order = sorted(range(len(sentences)), key=lambda i: len(sentences[i].tokens))
    preds = [frozenset()] * len(sentences)
    for lo in range(0, len(order), PREDICT_CHUNK):
        part = order[lo:lo + PREDICT_CHUNK]
        for i, pred in zip(part, _predict_chunk(ops, [sentences[i] for i in part], vocab, config)):
            preds[i] = pred
    return preds


def _predict_chunk(ops: ad.Forward, chunk: list[Sentence], vocab: Vocab,
                   config: ScorerConfig) -> list[frozenset[Mention]]:
    """The greedy rollouts of `_rollout`, one step of every live sentence at
    a time: the same valid sets and choices, and the same arithmetic on
    arrays that hold a row per sentence."""
    p = ops.p
    actions, action_idx, types = vocab.actions, vocab.action_index, vocab.types
    k, S, A = len(chunk), config.stack_dim, config.action_dim
    n_tokens = [len(s.tokens) for s in chunk]
    lens = np.array(n_tokens, dtype=np.intp)
    width = max(n_tokens)
    # each sentence's encodings in the last rows of the longest sentence's
    # length, so that a buffer of m tokens is the last m rows
    proj = np.zeros((k, width, S))
    reps = keys = None
    if config.attention:
        reps, keys = np.zeros((k, width, config.rep_dim)), np.zeros((k, width, 3 * S))
    # one encoder call per group of sentences of one length
    groups: dict[int, list[int]] = {}
    for r, n in enumerate(n_tokens):
        groups.setdefault(n, []).append(r)
    for n, group in groups.items():
        encs = token_reps(ops, [chunk[r] for r in group], vocab, config)
        for pad, enc in zip((proj, reps, keys), encs):
            if enc is not None:
                pad[group, width - n:] = enc
    # Stack-LSTM entries (input, h, c) sit in slots 1..depth of each row;
    # slot 0 is the zero state a push onto an empty stack starts from. No
    # stack holds more spans than its sentence has tokens.
    vec, h, c = (np.zeros((k, width + 1, S)) for _ in range(3))
    depth = np.zeros(k, dtype=np.intp)
    act_h, act_c = np.zeros((k, A)), np.zeros((k, A))
    # per action: how many slots below the top sits the state its first push
    # starts from (-1: no push), and how it changes the depth
    push_from = {ActionKind.SHIFT: 0, ActionKind.REDUCE: 2, ActionKind.LEFT_REDUCE: 1,
                 ActionKind.RIGHT_REDUCE: 2}
    grows = {ActionKind.SHIFT: 1, ActionKind.REDUCE: -1, ActionKind.COMPLETE: -1}
    below = np.array([push_from.get(a.kind, -1) for a in actions])
    grow = np.array([grows.get(a.kind, 0) for a in actions])
    i_shift, i_right = action_idx[SHIFT], action_idx[RIGHT_REDUCE]

    states = [ParserState()] * k
    live = [r for r in range(k) if not is_terminal(states[r], n_tokens[r])]
    first = True
    while live:
        rows = np.array(live)
        n_live = len(live)
        m = lens[rows] - [states[r].buffer_pos for r in live]       # buffer lengths
        at_row, at_action = [], []
        for j, r in enumerate(live):
            idx = [action_idx[a] for a in valid_actions(states[r], n_tokens[r], types)]
            at_row += [j] * len(idx)
            at_action += idx
        valid = np.zeros((n_live, len(actions)), dtype=bool)
        valid[at_row, at_action] = True

        # gather: the top three spans, s_empty below the stack, and the history
        d = depth[rows]
        top = d[:, None] - np.arange(3)
        spans = h[rows[:, None], np.maximum(top, 0)]
        spans[top < 1] = p["s_empty"]
        acts = np.broadcast_to(p["a_empty"], (n_live, A)) if first else act_h[rows]
        # score: attention over each group of non-empty buffers of one
        # length (each row is bitwise its lone call, whatever its group),
        # then the output layer over all rows
        attended = np.zeros((n_live, 3, config.rep_dim))
        if reps is not None:
            for size in set(m.tolist()) - {0}:
                sel = np.flatnonzero(m == size)
                g = rows[sel]
                attended[sel] = ad._attend_rows(spans[sel], keys[g, -size:], reps[g, -size:])
        features = np.concatenate([spans.reshape(n_live, -1), attended.reshape(n_live, -1),
                                   acts], axis=1)
        logits = ad._affine(p["out_W"], features, p["out_b"])
        # the first maximum over the valid actions, as `_rollout`'s argmax over
        # its sorted valid indices
        chosen = np.where(valid, logits, -np.inf).argmax(axis=1)

        # advance: compose the top two spans of every reducing row, then run
        # every row's first push, then RIGHT_REDUCE's second
        d_below = below[chosen]
        reducing = np.flatnonzero(d_below > 0)
        shift = np.flatnonzero(chosen == i_shift)
        right = np.flatnonzero(chosen == i_right)
        x = np.empty((n_live, S))
        if len(reducing):
            rr, dd = rows[reducing], d[reducing]               # s0 in slot dd, s1 below
            x[reducing] = ad._affine(p["comp_W"], np.concatenate(
                [h[rr, dd], h[rr, dd - 1]], axis=1), p["comp_b"])
        second = x[right]
        x[shift] = proj[rows[shift], width - m[shift]]
        x[right] = vec[rows[right], d[right]]          # the top span's own input
        slot = d - d_below
        pushing = np.flatnonzero(d_below >= 0)
        for push, inputs in ((pushing, x[pushing]), (right, second)):
            if len(push):
                at = rows[push], slot[push]
                h2, c2 = ad._lstm_cell(p["stack_W"], p["stack_b"], inputs, h[at], c[at])[:2]
                slot[push] += 1
                at = rows[push], slot[push]
                vec[at], h[at], c[at] = inputs, h2, c2
        depth[rows] = d + grow[chosen]
        act_h[rows], act_c[rows] = ad._lstm_cell(
            p["act_W"], p["act_b"], p["act_emb"][chosen], act_h[rows], act_c[rows])[:2]
        first = False

        for r, i in zip(live, chosen.tolist()):
            states[r] = apply_action(states[r], actions[i])
        live = [r for r in live if not is_terminal(states[r], n_tokens[r])]
    return [frozenset(state.outputs) for state in states]


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------

def backward(tape: Tape, loss: Tensor) -> None:
    ad.backward(tape, loss)


def sgd_step(params: ScorerParams, learning_rate: float) -> None:
    """params -= lr * grad; grads cleared.

    Every gradient is checked before any parameter changes, so a non-finite
    gradient raises with all parameters as they were.
    """
    stepped = [(name, t) for name, t in params.t.items() if t.grad is not None]
    for name, t in stepped:
        if not np.isfinite(t.grad).all():
            raise FloatingPointError(f"non-finite gradient in {name}")
    for _, t in stepped:
        ad.step(t, learning_rate)


def train(corpus: Corpus, config: ScorerConfig,
          vocab: Vocab | None = None,
          epoch_hook=None) -> tuple[ScorerParams, Vocab, dict]:
    """Teacher-forced SGD over oracle action sequences.

    Sentences with nested gold mentions are skipped; gold mentions the
    oracle cannot derive are dropped (both counted in the returned info
    dict). `epoch_hook(epoch, params, stats)` runs after every epoch when
    given; `stats` holds the epoch's mean loss, wall time, sentences and
    tokens per second, and both counts. Deterministic given config.seed.
    Raises CorpusError when no sentence is left to train on.
    """
    prepared = []
    skipped_nested = 0
    uncovered_total = 0
    for sent in corpus:
        try:
            actions, uncovered = oracle(sent)
        except CorpusError:
            skipped_nested += 1
            continue
        uncovered_total += len(uncovered)
        prepared.append((sent, actions))
    if not prepared:
        raise CorpusError(f"nothing to train on: {len(corpus)} sentences, "
                          f"{skipped_nested} of them with nested mentions")
    if vocab is None:
        vocab = Vocab.build(corpus)
    params = init_params(config, vocab)
    tokens = sum(len(sent.tokens) for sent, _ in prepared)

    rng = np.random.default_rng(config.seed)
    losses_per_epoch = []
    # A diverging run overflows in the forward pass before its gradients do;
    # sgd_step's finite check reports it, so numpy's warnings are only noise.
    with np.errstate(all="ignore"):
        for epoch in range(config.epochs):
            t0 = time.perf_counter()
            order = rng.permutation(len(prepared))
            total = 0.0
            for j in order:
                sent, actions = prepared[j]
                loss, tape = sentence_loss(sent, actions, params, vocab, config)
                backward(tape, loss)
                sgd_step(params, config.learning_rate)
                total += float(loss.data)
            losses_per_epoch.append(total / len(prepared))
            if epoch_hook is not None:
                wall = time.perf_counter() - t0
                epoch_hook(epoch, params, {
                    "loss": losses_per_epoch[-1], "wall_s": wall,
                    "sentences_per_s": len(prepared) / wall, "tokens_per_s": tokens / wall,
                    "skipped_nested": skipped_nested, "uncovered_dropped": uncovered_total})
    info = {"skipped_nested": skipped_nested, "uncovered_dropped": uncovered_total,
            "epoch_losses": losses_per_epoch}
    return params, vocab, info


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

def finite_diff_check(params: ScorerParams, sentence: Sentence, vocab: Vocab,
                      config: ScorerConfig, epsilon: float = 1e-5,
                      n_coords: int = 200, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Samples n_coords coordinates with at least one from every parameter
    group, and for each lookup table one from a row the sentence reads.
    Zero-length sentences return 0 by convention.
    """
    if len(sentence.tokens) == 0:
        return 0.0
    gold_actions, _ = oracle(sentence)
    forward = ad.Forward(params.arrays())   # sees the in-place nudges below

    def loss_value() -> float:
        return float(_teacher_loss(forward, sentence, gold_actions, vocab, config))

    params.zero_grad()
    loss, tape = sentence_loss(sentence, gold_actions, params, vocab, config)
    backward(tape, loss)
    analytic = {name: ad.dense_grad(t) for name, t in params.t.items()}
    params.zero_grad()

    # A table row the sentence does not read has a zero gradient, analytic
    # and numeric, so it tests nothing: the guaranteed coordinate of each
    # lookup table is taken from a row the sentence reads (its tokens' words
    # and characters, the oracle's actions).
    used_rows = {
        "word_emb": {vocab.word_index(tok) for tok in sentence.tokens},
        "char_emb": {c for tok in sentence.tokens for c in vocab.char_indices(tok)},
        "act_emb": {vocab.action_index[a] for a in gold_actions},
    }
    rng = np.random.default_rng(seed)
    coords: list[tuple[str, tuple[int, ...]]] = []
    names = params.names()
    for name in names:  # one coordinate from every group
        shape = params.t[name].data.shape
        if name in used_rows:
            rows = sorted(used_rows[name])
            idx = (rows[int(rng.integers(len(rows)))], int(rng.integers(shape[1])))
        else:
            idx = tuple(int(rng.integers(s)) for s in shape)
        coords.append((name, idx))
    while len(coords) < n_coords:
        name = names[int(rng.integers(len(names)))]
        shape = params.t[name].data.shape
        coords.append((name, tuple(int(rng.integers(s)) for s in shape)))

    max_err = 0.0
    for name, idx in coords:
        arr = params.t[name].data
        orig = arr[idx]
        arr[idx] = orig + epsilon
        up = loss_value()
        arr[idx] = orig - epsilon
        down = loss_value()
        arr[idx] = orig
        fd = (up - down) / (2 * epsilon)
        an = analytic[name][idx]
        err = abs(fd - an) / max(abs(fd), abs(an), 1e-4)
        max_err = max(max_err, err)
    return max_err


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"DNER"
CHECKPOINT_VERSION = 4


def save_checkpoint(path: str, params: ScorerParams, config: ScorerConfig,
                    vocab: Vocab) -> None:
    """Versioned binary container: magic, version, metadata length, metadata
    JSON, the float64 data of every tensor in `_shapes` order (no shapes: the
    metadata fixes them), then a CRC-32 of all the bytes before it."""
    meta = {"config": asdict(config),
            "words": list(vocab.words), "chars": list(vocab.chars),
            "types": list(vocab.types)}
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    tensors = params.arrays()
    body = b"".join([CHECKPOINT_MAGIC,
                     struct.pack("<II", CHECKPOINT_VERSION, len(meta_bytes)), meta_bytes,
                     *(tensors[name].astype("<f8").tobytes() for name in _shapes(config, vocab))])
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


def load_checkpoint(path: str) -> tuple[ScorerParams, ScorerConfig, Vocab]:
    """Checks magic, version, checksum and metadata in that order, then one
    length rule: the data after the metadata is exactly the float64 tensors
    its config and vocabulary shape."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise CorpusError(f"{path}: not a checkpoint file (bad magic {data[:4]!r})")
    if len(data) < 8:
        raise CorpusError(f"{path}: checkpoint truncated at byte {len(data)}")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != CHECKPOINT_VERSION:
        raise CorpusError(f"{path}: unsupported checkpoint version {version}")
    body = data[:-4]
    if len(data) < 12 or struct.unpack_from("<I", data, len(body))[0] != zlib.crc32(body):
        raise CorpusError(f"{path}: checkpoint checksum mismatch (truncated or corrupt file)")
    meta_end = 12 + int.from_bytes(body[8:12], "little")
    try:
        meta = json.loads(body[12:meta_end].decode("utf-8"))
        config = ScorerConfig(**meta["config"])
        # JSON arrays become tuples; any other value is Vocab's to refuse
        vocab = Vocab(*(tuple(v) if type(v) is list else v
                        for v in (meta["words"], meta["chars"], meta["types"])))
    except (KeyError, TypeError, ValueError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise CorpusError(f"{path}: bad checkpoint metadata: {exc}") from exc
    shapes = _shapes(config, vocab)
    sizes = [math.prod(shape) for shape in shapes.values()]
    end = meta_end + 8 * sum(sizes)
    if end > len(body):
        raise CorpusError(f"{path}: checkpoint truncated at byte {len(body)}, needs {end}")
    if end < len(body):
        raise CorpusError(f"{path}: {len(body) - end} trailing bytes after the checkpoint")
    flat = np.frombuffer(body, dtype="<f8", offset=meta_end).astype(np.float64)
    tensors = {name: part.reshape(shape) for (name, shape), part
               in zip(shapes.items(), np.split(flat, np.cumsum(sizes)[:-1]))}
    return ScorerParams(tensors), config, vocab
