"""Trainable transition scorer.

Token representations concatenate a word embedding with a char-CNN vector
and run through a BiLSTM. Stack spans are encoded with a Stack-LSTM (push
advances one step, pop restores the previous state exactly); reduces go
through a shared affine composition; each of the top three spans can attend
over the remaining buffer with multiplicative attention; the action history
feeds a unidirectional LSTM. The concatenated parser features drive a
softmax over the valid actions only.

Everything is float64 and deterministic given the seed; training is plain
per-sentence SGD with teacher forcing on oracle action sequences. Greedy
prediction runs the same rollout forward only, on plain arrays. The token
encoder runs as whole-sentence ops, and the scoring op takes any number of
steps: greedy prediction scores each step as it comes, teacher forcing all
of a sentence's steps at once after the loop.
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
                          REDUCE, RIGHT_REDUCE, SHIFT, check_finished, complete,
                          given_action, is_terminal, apply as apply_action,
                          oracle, valid_actions)

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

def token_reps(ops: Ops, sentence: Sentence, vocab: Vocab, config: ScorerConfig):
    """The sentence's token encodings, each from one whole-sentence op:
    the stack inputs proj (n, S) of the tokens, and with attention on their
    contextual vectors reps (n, rep_dim) and the attention keys (n, 3S) of
    the three span slots (both None when attention is off, as nothing reads
    them).

    A token is its word embedding and char-CNN vector, and a BiLSTM runs
    over the tokens. Unknown words map to the UNK embedding.
    """
    p = ops.p
    tokens = sentence.tokens
    if not tokens:
        return None, None, None
    words = ops.rows_lookup(p["word_emb"], [vocab.word_index(tok) for tok in tokens])
    chars = ops.rows_lookup(p["char_emb"], [c for tok in tokens for c in vocab.char_indices(tok)])
    cnn = ops.char_cnn(p["char_w"], p["char_b"], chars, [len(tok) for tok in tokens])
    reps = ops.bilstm(p["lstm_fw_W"], p["lstm_fw_b"], p["lstm_bw_W"], p["lstm_bw_b"],
                      ops.concat([words, cnn]))
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


def stack_push(ops: Ops, config: ScorerConfig, stack: tuple[StackEntry, ...],
               vec) -> tuple[StackEntry, ...]:
    """Advance the Stack-LSTM one step; the previous state is kept intact."""
    if stack:
        h_prev, c_prev = stack[-1].h, stack[-1].c
    else:
        zero = ops.zeros(config.stack_dim)
        h_prev, c_prev = zero, zero
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

@dataclass
class _NeuralState:
    """Neural companion of a symbolic ParserState rollout."""
    stack: tuple[StackEntry, ...] = ()
    act_h: Tensor | np.ndarray | None = None
    act_c: Tensor | np.ndarray | None = None


def encode_parser_state(ops: Ops, neural: _NeuralState):
    """The step's three top-span vectors, s_empty where the stack is shorter,
    and its action-history vector, a_empty before the first action."""
    p = ops.p
    spans = tuple(neural.stack[-1 - i].h if len(neural.stack) > i else p["s_empty"]
                  for i in range(3))
    return spans, neural.act_h if neural.act_h is not None else p["a_empty"]


def action_history(ops: Ops, taken: list[int]):
    """The action-history rows of a teacher-forced rollout, from one
    sequence op: a_empty, then the action LSTM's state after each action of
    `taken`. Greedy prediction advances the same LSTM one action per step."""
    p = ops.p
    if not taken:
        return ops.stack_rows([p["a_empty"]])
    emb = ops.rows_lookup(p["act_emb"], taken)
    return ops.stack_rows([p["a_empty"], ops.lstm_seq(p["act_W"], p["act_b"], emb)])


def _advance_neural(ops: Ops, config: ScorerConfig, neural: _NeuralState,
                    action: Action, buffer_pos: int, proj,
                    action_idx: int | None = None) -> _NeuralState:
    """Mirror one symbolic action on the neural stack, and on the action
    history when action_idx is given (greedy); teacher forcing runs the
    history after the loop, in `action_history`."""
    p = ops.p
    stack = neural.stack
    kind = action.kind
    if kind is ActionKind.SHIFT:
        stack = stack_push(ops, config, stack, ops.pick(proj, buffer_pos))
    elif kind is ActionKind.OUT:
        pass
    elif kind is ActionKind.COMPLETE:
        stack = stack_pop(stack)
    else:
        e0, e1 = stack[-1], stack[-2]
        new_vec = compose(ops, e0.h, e1.h)
        stack = stack_pop(stack_pop(stack))
        if kind is ActionKind.LEFT_REDUCE:
            stack = stack + (e1,)
        elif kind is ActionKind.RIGHT_REDUCE:
            stack = stack_push(ops, config, stack, e0.vec)
        stack = stack_push(ops, config, stack, new_vec)

    if action_idx is None:
        return _NeuralState(stack)
    if neural.act_h is None:
        zero = ops.zeros(config.action_dim)
        h_prev, c_prev = zero, zero
    else:
        h_prev, c_prev = neural.act_h, neural.act_c
    emb = ops.row(p["act_emb"], action_idx)
    act_h, act_c = ops.lstm_cell(p["act_W"], p["act_b"], emb, h_prev, c_prev)
    return _NeuralState(stack, act_h, act_c)


# ---------------------------------------------------------------------------
# Rollouts: teacher-forced loss and greedy prediction
# ---------------------------------------------------------------------------

def _rollout(ops: Ops, sentence: Sentence, vocab: Vocab, config: ScorerConfig,
             gold_actions: list[Action] | None = None):
    """Run the parser; teacher-forced when gold_actions is given (held to the
    rule and errors of `transitions.decode`), else greedy.

    Greedy scores each step as it comes. Under teacher forcing no score
    feeds back into the loop, so the loop only records each step's span
    vectors, buffer start and valid set, and one scoring call and one
    masked-NLL op cover all T steps after it. Recorded ops build the tape a
    teacher-forced loss is differentiated on; Forward ops run the same
    arithmetic on plain arrays. Returns the summed loss (None when greedy or
    when there is no step) and the final symbolic state.
    """
    n = len(sentence.tokens)
    actions, action_idx = vocab.actions, vocab.action_index
    proj, reps, keys = token_reps(ops, sentence, vocab, config)
    teacher = gold_actions is not None

    state = ParserState()
    neural = _NeuralState()
    steps, starts, valids, taken = [], [], [], []
    while not is_terminal(state, n):
        valid = valid_actions(state, n, vocab.types)
        valid_idx = sorted(action_idx[a] for a in valid)
        spans, act = encode_parser_state(ops, neural)
        if teacher:
            chosen = given_action(gold_actions, len(taken), valid)
            steps.append(spans)
            starts.append(state.buffer_pos)
            valids.append(valid_idx)
        else:
            logits = attend(ops, [spans], ops.stack_rows([act]), [state.buffer_pos], reps, keys)
            chosen = actions[valid_idx[int(np.argmax(logits[0, valid_idx]))]]
        taken.append(action_idx[chosen])
        neural = _advance_neural(ops, config, neural, chosen, state.buffer_pos, proj,
                                 None if teacher else taken[-1])
        state = apply_action(state, chosen)
    if not teacher:
        return None, state
    check_finished(gold_actions, len(taken))
    if not taken:
        return None, state
    logits = attend(ops, steps, action_history(ops, taken[:-1]), starts, reps, keys)
    return ops.masked_nll(logits, valids, taken), state


def sentence_loss(sentence: Sentence, gold_actions: list[Action],
                  params: ScorerParams, vocab: Vocab,
                  config: ScorerConfig) -> tuple[Tensor, Tape]:
    """Sum of per-step NLL of gold actions under the valid-masked softmax."""
    tape = Tape()
    loss, _ = _rollout(ad.Recorded(tape, params.t), sentence, vocab, config, gold_actions)
    return (loss if loss is not None else tape._node(np.asarray(0.0))), tape


def predict(sentence: Sentence, params: ScorerParams, vocab: Vocab,
            config: ScorerConfig) -> frozenset[Mention]:
    """Greedy argmax rollout, decoded into the output mention set. It runs
    forward only: no tape, no Tensor and no closure."""
    _, state = _rollout(ad.Forward(params.arrays()), sentence, vocab, config)
    return frozenset(state.outputs)


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
        return float(_rollout(forward, sentence, vocab, config, gold_actions)[0])

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
