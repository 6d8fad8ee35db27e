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
read the layout.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "rows", "_backward")

    def __init__(self, data, backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.rows = None
        self._backward = backward

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

    def _node(self, data, backward) -> Tensor:
        t = Tensor(data, backward)
        self.nodes.append(t)
        return t


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def leaf(data) -> Tensor:
    return Tensor(data)


def backward(tape: Tape, loss: Tensor) -> None:
    """Seed the loss gradient and visit nodes in reverse topological order."""
    loss.grad = np.ones_like(loss.data)
    for t in reversed(tape.nodes):
        if t._backward is not None:
            t._backward()
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
    out = tape._node(sum(t.data for t in terms), None)

    def back():
        if out.grad is None:
            return
        for t in terms:
            _accum(t, out.grad)

    out._backward = back
    return out


def affine(tape: Tape, W: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """W @ x + b."""
    out = tape._node(W.data @ x.data + b.data, None)

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
    out = tape._node(np.concatenate([p.data for p in parts]), None)

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
    out = tape._node(np.stack([r.data for r in rows]), None)

    def back():
        if out.grad is None:
            return
        for i, r in enumerate(rows):
            _accum(r, out.grad[i])

    out._backward = back
    return out


def rows_slice(tape: Tape, M: Tensor, start: int, stop: int) -> Tensor:
    out = tape._node(M.data[start:stop], None)

    def back():
        if out.grad is None:
            return
        if M.grad is None:
            M.grad = np.zeros_like(M.data)
        M.grad[start:stop] += out.grad

    out._backward = back
    return out


def row(tape: Tape, table: Tensor, index: int) -> Tensor:
    """table.data[index]; table must be a parameter leaf (row-sparse grad)."""
    out = tape._node(table.data[index], None)
    lookups = tape.lookups

    def back():
        if out.grad is not None:
            _queue_rows(lookups, table, (index,), out.grad)

    out._backward = back
    return out


def rows_lookup(tape: Tape, table: Tensor, indices: list[int]) -> Tensor:
    """table.data[indices]; table must be a parameter leaf (row-sparse grad)."""
    out = tape._node(table.data[np.asarray(indices, dtype=np.intp)], None)
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


def lstm_cell(tape: Tape, W: Tensor, b: Tensor, x: Tensor,
              h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step; W has shape (4H, x_dim + H), gate order i,f,o,g."""
    H = c.data.shape[0]
    xh = np.concatenate([x.data, h.data])
    gates = W.data @ xh + b.data
    i = _sigmoid(gates[:H])
    f = _sigmoid(gates[H:2 * H])
    o = _sigmoid(gates[2 * H:3 * H])
    g = np.tanh(gates[3 * H:])
    c2_data = f * c.data + i * g
    tc = np.tanh(c2_data)
    h2 = tape._node(tc * o, None)
    c2 = tape._node(c2_data, None)

    def back():
        dh2 = h2.grad
        dc2 = c2.grad
        if dh2 is None and dc2 is None:
            return
        dc_total = np.zeros(H) if dc2 is None else dc2.copy()
        if dh2 is not None:
            do = dh2 * tc
            dc_total += dh2 * o * (1.0 - tc * tc)
        else:
            do = np.zeros(H)
        di = dc_total * g
        df = dc_total * c.data
        dg = dc_total * i
        dgates = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            do * o * (1.0 - o),
            dg * (1.0 - g * g),
        ])
        _accum(W, np.outer(dgates, xh))
        _accum(b, dgates)
        dxh = W.data.T @ dgates
        x_dim = x.data.shape[0]
        _accum(x, dxh[:x_dim])
        _accum(h, dxh[x_dim:])
        _accum(c, dc_total * f)

    c2._backward = back
    return h2, c2


def char_cnn(tape: Tape, filters: Tensor, bias: Tensor, emb: Tensor) -> Tensor:
    """Single-convolution char CNN with max pooling.

    filters: (n_filters, window * char_dim); emb: (length, char_dim).
    The embedding is zero-padded up to the window size when too short.
    """
    n_filters = filters.data.shape[0]
    char_dim = emb.data.shape[1]
    window = filters.data.shape[1] // char_dim
    length = emb.data.shape[0]
    padded = emb.data
    if length < window:
        padded = np.vstack([padded, np.zeros((window - length, char_dim))])
    n_pos = padded.shape[0] - window + 1
    windows = np.stack([padded[p:p + window].ravel() for p in range(n_pos)])
    responses = windows @ filters.data.T + bias.data  # (n_pos, n_filters)
    best = np.argmax(responses, axis=0)
    out = tape._node(responses[best, np.arange(n_filters)], None)

    def back():
        if out.grad is None:
            return
        _accum(bias, out.grad)
        dfilters = out.grad[:, None] * windows[best]
        _accum(filters, dfilters)
        if emb.grad is None:
            emb.grad = np.zeros_like(emb.data)
        dpadded = np.zeros_like(padded)
        for k in range(n_filters):
            p = best[k]
            dpadded[p:p + window] += (out.grad[k] * filters.data[k]).reshape(window, char_dim)
        emb.grad += dpadded[:length]

    out._backward = back
    return out


def attend(tape: Tape, query: Tensor, W: Tensor, B: Tensor) -> Tensor:
    """Multiplicative attention: softmax(query^T W B^T) B.

    query: (S,), W: (S, R), B: (n, R). Returns the weighted sum of buffer
    rows (R,); the zero vector when the buffer is empty.
    """
    if B.data.shape[0] == 0:
        return tape._node(np.zeros(W.data.shape[1]), None)
    u = W.data.T @ query.data            # (R,)
    scores = B.data @ u                  # (n,)
    m = scores.max()
    e = np.exp(scores - m)
    w = e / e.sum()                      # (n,)
    out = tape._node(B.data.T @ w, None)

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
    scores = B @ (W.T @ query)
    e = np.exp(scores - scores.max())
    return e / e.sum()


def masked_nll(tape: Tape, logits: Tensor, valid_idx: list[int], gold_pos: int) -> Tensor:
    """-log softmax(logits[valid_idx])[gold_pos]; invalid actions are masked out."""
    idx = np.asarray(valid_idx, dtype=np.intp)
    z = logits.data[idx]
    m = z.max()
    lse = m + np.log(np.exp(z - m).sum())
    out = tape._node(np.asarray(lse - z[gold_pos]), None)

    def back():
        if out.grad is None:
            return
        p = np.exp(z - lse)
        p[gold_pos] -= 1.0
        if logits.grad is None:
            logits.grad = np.zeros_like(logits.data)
        logits.grad[idx] += float(out.grad) * p

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
