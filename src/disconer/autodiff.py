"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

One Tape records the nodes of a single sentence rollout in creation order;
backward() replays them in reverse exactly once. Parameters are leaf
tensors shared across tapes; their .grad fields accumulate and are cleared
by the optimizer. Hot paths (LSTM cell, char CNN, masked NLL) are fused
nodes with hand-written backward closures to keep graphs small.

A parameter table read through row() or rows_lookup() (the word, char and
action embeddings) gets a row-sparse gradient: .grad holds only the rows the
tape read, shape (k, d), and .rows their sorted indices. The lookup closures
queue their row gradients on the tape; backward() then adds the queue into
k rows that start at +0.0 (or at the sums an earlier, unstepped tape left),
in the order a dense += would, so a step on the k rows gives bitwise the
result of a step on the whole table. A forward pass that is never
differentiated records nothing. Every other gradient is dense, with .rows
None. Outside the backward pass only dense_grad(), step() and clear_grad()
read the layout. backward() drops each closure once it has run, which breaks
the node <-> closure cycle, so a finished tape is freed by reference counting.

The forward arithmetic of the fused ops lives in kernels on plain arrays
(_affine, _lstm_cell, _char_cnn, _attend, _masked_nll). A tape op calls its
kernel and adds the backward closure. A rollout calls its ops through an op
set: Recorded records them on a tape, Forward runs the kernels alone, with
no Tape, no Tensor and no closure. Recorded binds each op to its tape once,
when the op set is built (functools.partial), so a call costs no extra
Python frame.
"""

from __future__ import annotations

import functools

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "rows", "_backward", "__weakref__")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.rows = None
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Tape:
    __slots__ = ("nodes", "lookups")

    def __init__(self):
        self.nodes: list[Tensor] = []
        # table -> (row indices, row gradients) queued by the lookup closures
        self.lookups: dict[Tensor, tuple[list[int], list[np.ndarray]]] = {}

    def _node(self, data) -> Tensor:
        t = Tensor(data)
        self.nodes.append(t)
        return t


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def _accum_at(t: Tensor, index, g: np.ndarray) -> None:
    """t.grad[index] += g, on a zero gradient of t's shape when t has none."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad[index] += g


def leaf(data) -> Tensor:
    return Tensor(data)


def backward(tape: Tape, loss: Tensor) -> None:
    """Seed the loss gradient and visit nodes in reverse topological order."""
    loss.grad = np.ones_like(loss.data)
    for t in reversed(tape.nodes):
        if t._backward is not None:
            t._backward()
            t._backward = None
    for table, (indices, grads) in tape.lookups.items():
        _add_rows(table, indices, np.vstack(grads))
    tape.lookups.clear()


def _add_rows(table: Tensor, indices: list[int], grads: np.ndarray) -> None:
    """Add grads[j] into row indices[j] of table's row-sparse gradient, in
    order; rows from an earlier backward pass keep their sums."""
    old_rows = table.rows if table.grad is not None else np.empty(0, dtype=np.intp)
    rows = np.array(sorted(set(indices).union(old_rows.tolist())), dtype=np.intp)
    grad = np.zeros((len(rows),) + table.data.shape[1:])
    if len(old_rows):
        grad[np.searchsorted(rows, old_rows)] = table.grad
    np.add.at(grad, np.searchsorted(rows, indices), grads)
    table.grad, table.rows = grad, rows


def _queue_rows(lookups: dict, table: Tensor, indices, grad: np.ndarray) -> None:
    queued = lookups.get(table)
    if queued is None:
        queued = lookups[table] = ([], [])
    queued[0].extend(indices)
    queued[1].append(grad)


def dense_grad(t: Tensor) -> np.ndarray:
    """t's gradient as an array of t's shape; zeros where none was taken."""
    if t.grad is None:
        return np.zeros_like(t.data)
    if t.rows is None:
        return t.grad
    dense = np.zeros_like(t.data)
    dense[t.rows] = t.grad
    return dense


def step(t: Tensor, learning_rate: float) -> None:
    """t.data -= learning_rate * grad and clear the gradient. A row-sparse
    gradient steps only its rows: the others would subtract lr * 0.0, which
    leaves them bitwise as they are."""
    if t.rows is None:
        t.data -= learning_rate * t.grad
    else:
        t.data[t.rows] -= learning_rate * t.grad
    clear_grad(t)


def clear_grad(t: Tensor) -> None:
    t.grad = t.rows = None


# ---------------------------------------------------------------------------
# Elementwise and linear ops
# ---------------------------------------------------------------------------

def add_n(tape: Tape, terms: list[Tensor]) -> Tensor:
    out = tape._node(sum(t.data for t in terms))

    def back():
        if out.grad is None:
            return
        for t in terms:
            _accum(t, out.grad)

    out._backward = back
    return out


def _affine(W: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    return W @ x + b


def affine(tape: Tape, W: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """W @ x + b."""
    out = tape._node(_affine(W.data, x.data, b.data))

    def back():
        if out.grad is None:
            return
        _accum(W, np.outer(out.grad, x.data))
        _accum(x, W.data.T @ out.grad)
        _accum(b, out.grad)

    out._backward = back
    return out


def concat(tape: Tape, parts: list[Tensor]) -> Tensor:
    sizes = [p.data.shape[0] for p in parts]
    out = tape._node(np.concatenate([p.data for p in parts]))

    def back():
        if out.grad is None:
            return
        off = 0
        for p, size in zip(parts, sizes):
            _accum(p, out.grad[off:off + size])
            off += size

    out._backward = back
    return out


# ---------------------------------------------------------------------------
# Matrix building / slicing (buffer representations)
# ---------------------------------------------------------------------------

def stack_rows(tape: Tape, rows: list[Tensor]) -> Tensor:
    out = tape._node(np.stack([r.data for r in rows]))

    def back():
        if out.grad is None:
            return
        for i, r in enumerate(rows):
            _accum(r, out.grad[i])

    out._backward = back
    return out


def rows_slice(tape: Tape, M: Tensor, start: int, stop: int) -> Tensor:
    out = tape._node(M.data[start:stop])

    def back():
        if out.grad is None:
            return
        _accum_at(M, slice(start, stop), out.grad)

    out._backward = back
    return out


def row(tape: Tape, table: Tensor, index: int) -> Tensor:
    """table.data[index]; table must be a parameter leaf (row-sparse grad)."""
    out = tape._node(table.data[index])
    lookups = tape.lookups

    def back():
        if out.grad is not None:
            _queue_rows(lookups, table, (index,), out.grad)

    out._backward = back
    return out


def rows_lookup(tape: Tape, table: Tensor, indices: list[int]) -> Tensor:
    """table.data[indices]; table must be a parameter leaf (row-sparse grad)."""
    out = tape._node(table.data[np.asarray(indices, dtype=np.intp)])
    lookups = tape.lookups

    def back():
        if out.grad is not None:
            _queue_rows(lookups, table, indices, out.grad)

    out._backward = back
    return out


# ---------------------------------------------------------------------------
# Fused network blocks
# ---------------------------------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _lstm_cell(W: np.ndarray, b: np.ndarray, x: np.ndarray, h: np.ndarray,
               c: np.ndarray):
    """One LSTM step: (h2, c2) and the activations the backward pass reads.

    One sigmoid covers the i, f and o gates; elementwise, it is bitwise the
    three separate calls.
    """
    H = c.shape[0]
    xh = np.concatenate([x, h])
    gates = W @ xh + b
    sig = _sigmoid(gates[:3 * H])
    i, f, o = sig[:H], sig[H:2 * H], sig[2 * H:]
    g = np.tanh(gates[3 * H:])
    c2 = f * c + i * g
    tc = np.tanh(c2)
    return tc * o, c2, xh, sig, g, tc


def lstm_cell(tape: Tape, W: Tensor, b: Tensor, x: Tensor,
              h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step; W has shape (4H, x_dim + H), gate order i,f,o,g."""
    H = c.data.shape[0]
    h2_data, c2_data, xh, sig, g, tc = _lstm_cell(W.data, b.data, x.data, h.data, c.data)
    i, f, o = sig[:H], sig[H:2 * H], sig[2 * H:]
    h2 = tape._node(h2_data)
    c2 = tape._node(c2_data)

    def back():
        dh2 = h2.grad
        dc2 = c2.grad
        if dh2 is None and dc2 is None:
            return
        dc_total = np.zeros(H) if dc2 is None else dc2.copy()
        dgates = np.empty(4 * H)
        if dh2 is not None:
            dgates[2 * H:3 * H] = dh2 * tc                 # do
            dc_total += dh2 * o * (1.0 - tc * tc)
        else:
            dgates[2 * H:3 * H] = 0.0
        dgates[:H] = dc_total * g                          # di
        dgates[H:2 * H] = dc_total * c.data                # df
        # d * s * (1 - s) for the three sigmoid gates, g through tanh
        dgates[:3 * H] *= sig
        dgates[:3 * H] *= 1.0 - sig
        dgates[3 * H:] = dc_total * i * (1.0 - g * g)
        _accum(W, np.outer(dgates, xh))
        _accum(b, dgates)
        dxh = W.data.T @ dgates
        x_dim = x.data.shape[0]
        _accum(x, dxh[:x_dim])
        _accum(h, dxh[x_dim:])
        _accum(c, dc_total * f)

    c2._backward = back
    return h2, c2


def _char_cnn(filters: np.ndarray, bias: np.ndarray, emb: np.ndarray):
    """Max-pooled convolution: the output, the window rows and the winning
    position of each filter."""
    n_filters = filters.shape[0]
    char_dim = emb.shape[1]
    window = filters.shape[1] // char_dim
    length = emb.shape[0]
    padded = emb
    if length < window:
        padded = np.vstack([padded, np.zeros((window - length, char_dim))])
    n_pos = padded.shape[0] - window + 1
    windows = np.stack([padded[p:p + window].ravel() for p in range(n_pos)])
    responses = windows @ filters.T + bias  # (n_pos, n_filters)
    best = np.argmax(responses, axis=0)
    return responses[best, np.arange(n_filters)], windows, best


def char_cnn(tape: Tape, filters: Tensor, bias: Tensor, emb: Tensor) -> Tensor:
    """Single-convolution char CNN with max pooling.

    filters: (n_filters, window * char_dim); emb: (length, char_dim).
    The embedding is zero-padded up to the window size when too short.
    """
    n_filters, char_dim = filters.data.shape[0], emb.data.shape[1]
    window = filters.data.shape[1] // char_dim
    length = emb.data.shape[0]
    out_data, windows, best = _char_cnn(filters.data, bias.data, emb.data)
    out = tape._node(out_data)

    def back():
        if out.grad is None:
            return
        _accum(bias, out.grad)
        dfilters = out.grad[:, None] * windows[best]
        _accum(filters, dfilters)
        dpadded = np.zeros((max(length, window), char_dim))
        for k in range(n_filters):
            p = best[k]
            dpadded[p:p + window] += (out.grad[k] * filters.data[k]).reshape(window, char_dim)
        _accum_at(emb, ..., dpadded[:length])

    out._backward = back
    return out


def _attend(query: np.ndarray, W: np.ndarray, B: np.ndarray):
    """The weighted sum of B's rows, u = W^T query and the weights (n,)."""
    u = W.T @ query                      # (R,)
    scores = B @ u                       # (n,)
    m = scores.max()
    e = np.exp(scores - m)
    w = e / e.sum()                      # (n,)
    return B.T @ w, u, w


def attend(tape: Tape, query: Tensor, W: Tensor, B: Tensor) -> Tensor:
    """Multiplicative attention: softmax(query^T W B^T) B.

    query: (S,), W: (S, R), B: (n, R) with n >= 1. Returns the weighted sum
    of buffer rows (R,).
    """
    out_data, u, w = _attend(query.data, W.data, B.data)
    out = tape._node(out_data)

    def back():
        if out.grad is None:
            return
        dw = B.data @ out.grad           # (n,)
        dscores = w * (dw - float(w @ dw))
        du = B.data.T @ dscores
        _accum(W, np.outer(query.data, du))
        _accum(query, W.data @ du)
        dB = np.outer(dscores, u) + np.outer(w, out.grad)
        _accum(B, dB)

    out._backward = back
    return out


def attention_weights(query: np.ndarray, W: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Forward-only attention weights (diagnostics and tests)."""
    return _attend(query, W, B)[2]


def _masked_nll(logits: np.ndarray, valid_idx: list[int], gold_pos: int):
    """The loss, the valid indices, their logits and their log-sum-exp."""
    idx = np.asarray(valid_idx, dtype=np.intp)
    z = logits[idx]
    m = z.max()
    lse = m + np.log(np.exp(z - m).sum())
    return np.asarray(lse - z[gold_pos]), idx, z, lse


def masked_nll(tape: Tape, logits: Tensor, valid_idx: list[int], gold_pos: int) -> Tensor:
    """-log softmax(logits[valid_idx])[gold_pos]; invalid actions are masked out."""
    loss, idx, z, lse = _masked_nll(logits.data, valid_idx, gold_pos)
    out = tape._node(loss)

    def back():
        if out.grad is None:
            return
        p = np.exp(z - lse)
        p[gold_pos] -= 1.0
        _accum_at(logits, idx, float(out.grad) * p)

    out._backward = back
    return out


def masked_softmax(logits: np.ndarray, valid_idx: list[int]) -> np.ndarray:
    """Forward-only distribution over all actions; zeros outside valid_idx."""
    out = np.zeros_like(logits)
    idx = np.asarray(valid_idx, dtype=np.intp)
    z = logits[idx]
    e = np.exp(z - z.max())
    out[idx] = e / e.sum()
    return out


# ---------------------------------------------------------------------------
# Op sets: the ops a rollout calls, recorded or not
# ---------------------------------------------------------------------------

class Recorded:
    """The ops of a rollout that is differentiated: Tensors on `tape`. Each
    op is the module's op of the same name with `tape` bound, looked up when
    the op set is built, so a wrapper installed on the module before then
    sees every op. `p` maps parameter names to their leaf Tensors."""
    _OPS = ("row", "rows_lookup", "rows_slice", "concat", "stack_rows", "affine",
            "lstm_cell", "char_cnn", "attend", "masked_nll")
    __slots__ = ("p",) + _OPS

    def __init__(self, tape: Tape, p: dict[str, Tensor]):
        self.p = p
        for name in self._OPS:
            setattr(self, name, functools.partial(globals()[name], tape))

    @staticmethod
    def zeros(n: int) -> Tensor:
        return leaf(np.zeros(n))


class Forward:
    """The same ops on plain float64 arrays, for a rollout that nothing
    differentiates: the kernels alone, with no Tape, no Tensor and no closure.
    A lookup, slice or concatenation is the numpy expression its tape op
    evaluates. `p` maps parameter names to their arrays."""
    __slots__ = ("p",)

    def __init__(self, p: dict[str, np.ndarray]):
        self.p = p

    zeros = staticmethod(np.zeros)
    concat = staticmethod(np.concatenate)
    stack_rows = staticmethod(np.stack)
    affine = staticmethod(_affine)
    row = staticmethod(lambda table, index: table[index])
    rows_lookup = staticmethod(lambda table, indices: table[np.asarray(indices, dtype=np.intp)])
    rows_slice = staticmethod(lambda M, start, stop: M[start:stop])
    lstm_cell = staticmethod(lambda W, b, x, h, c: _lstm_cell(W, b, x, h, c)[:2])
    char_cnn = staticmethod(lambda filters, bias, emb: _char_cnn(filters, bias, emb)[0])
    attend = staticmethod(lambda query, W, B: _attend(query, W, B)[0])
    masked_nll = staticmethod(lambda logits, valid_idx, gold_pos:
                              _masked_nll(logits, valid_idx, gold_pos)[0])
