"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

One Tape records the nodes of a single sentence rollout in creation order;
backward() replays them in reverse exactly once. Parameters are leaf
tensors shared across tapes; their .grad fields accumulate and are cleared
by the optimizer. Hot paths are fused nodes with hand-written backward
closures to keep graphs small. A sentence's encoder is a few whole-sentence
ops (char_cnn over all words, bilstm, project), and a teacher-forced
sentence is scored by one score op and one masked_nll over all its steps.
The per-token ops row, attend, rows_slice and add_n have no caller in a
rollout and no place in an op set; they stay as the references the tests
compare the whole-sentence ops against.

A parameter table read through row() or rows_lookup() (the word, char and
action embeddings) gets a row-sparse gradient: .grad holds only the rows the
tape read, shape (k, d), and .rows their sorted indices. Each lookup closure
adds its row gradients into those rows itself: a row starts at +0.0 (or at
the sum an earlier read or an earlier, unstepped tape left) and takes its
terms in closure order, as a dense += would, so a step on the k rows gives
bitwise the result of a step on the whole table. A forward pass that is
never differentiated leaves .grad and .rows None. Every other gradient is
dense, with .rows None. Outside the closures only dense_grad(), step() and
clear_grad() read the layout.

The forward arithmetic of the fused ops lives in kernels on plain arrays
(_affine, _project, _stack_rows, _lstm_cell, _lstm_seq, _bilstm, _char_cnn,
_attend, _attention, _score, _masked_nll; _lstm_seq_grads is the backward of
_lstm_seq). _affine and _lstm_cell also take a matrix of rows, _char_cnn
any number of words, _attend_rows attends for rows of different sentences,
and _lstm_seq and _bilstm take a leading batch axis of B sequences of one
length; each row, word or sequence is bitwise its lone call, which lockstep
prediction relies on. The rule: a batched product is a stack of products of
the lone call's shapes (x[:, None, :] @ W.T, one BLAS call per row; a 3-D
X @ W.T, one GEMM per sequence), never one GEMM over all rows, whose sums
BLAS groups by the row count. The tape ops call the LSTM kernels with
B = 1; Forward's bilstm takes one sequence or B of them.

A tape op computes its value through its kernel, defines back(g) for its
output's gradient g and hands both to Tape.record, which attaches back to
the new node. backward() alone decides that a closure runs: it drops each
one and calls it once, with its node's gradient, only when that gradient
exists. So a node no loss reaches passes nothing on, and a finished tape
is freed by reference counting. lstm_cell is two such nodes, c2 then h2,
and h2's closure adds into c2's gradient. The LSTM kernels own the zero
state: _lstm_cell takes h = c = None for it, and _lstm_seq starts from it.

A rollout calls its ops through an op set: Recorded records them on a tape,
Forward runs the kernels alone, with no Tape, no Tensor and no closure.
Recorded binds each op to its tape once, when the op set is built
(functools.partial), so a call costs no extra Python frame.
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
    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[Tensor] = []

    def record(self, data, back=None) -> Tensor:
        """Append a node holding `data`, with `back(g)` as its backward
        closure for its gradient g; `backward` decides whether it runs."""
        node = Tensor(data)
        node._backward = back
        self.nodes.append(node)
        return node


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
    """Seed the loss gradient and visit nodes in reverse topological order,
    dropping each closure and calling it only when its node has a gradient."""
    loss.grad = np.ones_like(loss.data)
    for t in reversed(tape.nodes):
        back, t._backward = t._backward, None
        if back is not None and t.grad is not None:
            back(t.grad)


def _add_rows(table: Tensor, indices: list[int], grads: np.ndarray) -> None:
    """Add grads[j] into row indices[j] of table's row-sparse gradient, in
    order; rows an earlier read or backward pass left keep their sums."""
    old_rows = table.rows if table.grad is not None else np.empty(0, dtype=np.intp)
    rows = np.array(sorted(set(indices).union(old_rows.tolist())), dtype=np.intp)
    grad = np.zeros((len(rows),) + table.data.shape[1:])
    if len(old_rows):
        grad[np.searchsorted(rows, old_rows)] = table.grad
    np.add.at(grad, np.searchsorted(rows, indices), grads)
    table.grad, table.rows = grad, rows


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
    def back(g):
        for t in terms:
            _accum(t, g)

    return tape.record(sum(t.data for t in terms), back)


def _matvec(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W @ x of a vector x, or of each row of a matrix x as a stack of that
    product, x[:, None, :] @ W.T, which numpy runs as one BLAS call per row:
    every row is bitwise the lone W @ x. One (k, F) @ W.T product is not,
    because a GEMM groups its sums differently."""
    return W @ x if x.ndim == 1 else (x[:, None, :] @ W.T)[:, 0]


def _affine(W: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W @ x + b, of a vector or of each row of a matrix (`_matvec`)."""
    return _matvec(W, x) + b


def affine(tape: Tape, W: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """W @ x + b."""
    def back(g):
        _accum(W, np.outer(g, x.data))
        _accum(x, W.data.T @ g)
        _accum(b, g)

    return tape.record(_affine(W.data, x.data, b.data), back)


def concat(tape: Tape, parts: list[Tensor]) -> Tensor:
    """Concatenation along the last axis: vectors end to end, or matrices
    with the same rows side by side."""
    sizes = [p.data.shape[-1] for p in parts]

    def back(g):
        off = 0
        for p, size in zip(parts, sizes):
            _accum(p, g[..., off:off + size])
            off += size

    return tape.record(np.concatenate([p.data for p in parts], axis=-1), back)


def _project(X: np.ndarray, Ws: list[np.ndarray], b: np.ndarray | None):
    """X @ [W_1; ...; W_k]^T (+ b) and the stacked weights."""
    W = Ws[0] if len(Ws) == 1 else np.vstack(Ws)
    out = X @ W.T
    return (out if b is None else out + b), W


def project(tape: Tape, X: Tensor, Ws: list[Tensor], b: Tensor | None = None) -> Tensor:
    """Every row of X (n, in) through the weights Ws stacked by rows, in one
    product: (n, sum of their rows), plus b when given."""
    out, W = _project(X.data, [w.data for w in Ws], None if b is None else b.data)

    def back(g):
        dW = g.T @ X.data
        off = 0
        for w in Ws:
            k = w.data.shape[0]
            _accum(w, dW[off:off + k])
            off += k
        _accum(X, g @ W)
        if b is not None:
            _accum(b, g.sum(axis=0))

    return tape.record(out, back)


# ---------------------------------------------------------------------------
# Matrix building / slicing (buffer representations)
# ---------------------------------------------------------------------------

def _stack_rows(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([p.reshape(-1, p.shape[-1]) for p in parts])


def stack_rows(tape: Tape, parts: list[Tensor]) -> Tensor:
    """Rows on top of each other: a vector is one row, a matrix its rows."""
    def back(g):
        off = 0
        for p in parts:
            if p.data.ndim == 1:
                _accum(p, g[off])
                off += 1
            else:
                _accum(p, g[off:off + p.data.shape[0]])
                off += p.data.shape[0]

    return tape.record(_stack_rows([p.data for p in parts]), back)


def rows_slice(tape: Tape, M: Tensor, start: int, stop: int) -> Tensor:
    return tape.record(M.data[start:stop], lambda g: _accum_at(M, slice(start, stop), g))


def row(tape: Tape, table: Tensor, index: int) -> Tensor:
    """table.data[index]; table must be a parameter leaf (row-sparse grad)."""
    return tape.record(table.data[index], lambda g: _add_rows(table, [index], g[None]))


def pick(tape: Tape, M: Tensor, index: int) -> Tensor:
    """M.data[index] of an op's output, with a dense gradient (a parameter
    table a loss reads is read through rows_lookup)."""
    return tape.record(M.data[index], lambda g: _accum_at(M, index, g))


def rows_lookup(tape: Tape, table: Tensor, indices: list[int]) -> Tensor:
    """table.data[indices]; table must be a parameter leaf (row-sparse grad)."""
    return tape.record(table.data[np.asarray(indices, dtype=np.intp)],
                       lambda g: _add_rows(table, indices, g))


# ---------------------------------------------------------------------------
# Fused network blocks
# ---------------------------------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _lstm_cell(W: np.ndarray, b: np.ndarray, x: np.ndarray, h: np.ndarray | None,
               c: np.ndarray | None):
    """One LSTM step from the state (h, c), h = c = None for the zero state:
    (h2, c2) and the activations the backward pass reads. x, h and c may
    also be matrices, one step per row; each row is bitwise its lone step
    (`_matvec`).

    One sigmoid covers the i, f and o gates; elementwise, it is bitwise the
    three separate calls.
    """
    H = b.shape[0] // 4
    if h is None:
        h = c = np.zeros(x.shape[:-1] + (H,))
    xh = np.concatenate([x, h], axis=-1)
    gates = _matvec(W, xh) + b
    sig = _sigmoid(gates[..., :3 * H])
    i, f, o = sig[..., :H], sig[..., H:2 * H], sig[..., 2 * H:]
    g = np.tanh(gates[..., 3 * H:])
    c2 = f * c + i * g
    tc = np.tanh(c2)
    return tc * o, c2, (c, xh, sig, g, tc)


def lstm_cell(tape: Tape, W: Tensor, b: Tensor, x: Tensor,
              h: Tensor | None, c: Tensor | None) -> tuple[Tensor, Tensor]:
    """One LSTM step from the state (h, c), or from the zero state when
    h = c = None; W has shape (4H, x_dim + H), gate order i,f,o,g.

    Two nodes: c2 with the gates' backward, then h2 = o * tanh(c2), whose
    closure runs first and adds its part into c2's gradient, so the gates'
    step runs when either output has a gradient.
    """
    h2_data, c2_data, (c_prev, xh, sig, g, tc) = _lstm_cell(
        W.data, b.data, x.data, None if h is None else h.data, None if c is None else c.data)
    H = tc.shape[0]
    i, f, o = sig[:H], sig[H:2 * H], sig[2 * H:]
    do = 0.0                                               # the o gate's, from h2

    def back_c(dc):
        dgates = np.empty(4 * H)
        dgates[:H] = dc * g                                # di
        dgates[H:2 * H] = dc * c_prev                      # df
        dgates[2 * H:3 * H] = do
        # d * s * (1 - s) for the three sigmoid gates, g through tanh
        dgates[:3 * H] *= sig
        dgates[:3 * H] *= 1.0 - sig
        dgates[3 * H:] = dc * i * (1.0 - g * g)
        _accum(W, np.outer(dgates, xh))
        _accum(b, dgates)
        dxh = W.data.T @ dgates
        x_dim = x.data.shape[0]
        _accum(x, dxh[:x_dim])
        if h is not None:
            _accum(h, dxh[x_dim:])
            _accum(c, dc * f)

    def back_h(dh):
        nonlocal do
        do = dh * tc
        _accum(c2, dh * o * (1.0 - tc * tc))

    c2 = tape.record(c2_data, back_c)
    return tape.record(h2_data, back_h), c2


def _lstm_seq(W: np.ndarray, b: np.ndarray, X: np.ndarray):
    """D LSTMs stepped in lockstep from zero states over D sequences of one
    length, for each of B batches of them: W (D, 4H, in + H), b (D, 4H),
    X (B, D, n, in).

    The input terms of all steps are one product per sequence. The D
    recurrences run as one LSTM of hidden size D*H whose recurrent weights U
    are block-diagonal, so a step is one (D*H) x (4*D*H) product per batch
    and one set of elementwise ops; gate k of sequence d sits at columns
    (k*D + d)*H of the step's pre-activations. One tanh covers all gates:
    sigmoid(z) = (1 + tanh(z / 2)) / 2, with the halving folded into the
    i, f and o columns of the inputs and of U (exact, a power of two).

    Both products of batch k are those of the B = 1 call on X[k:k+1], of
    the same shapes: the input product one (n, in) @ (in, 4H) GEMM per
    sequence, the step's h @ U a stack of the lone products (as `_matvec`
    stacks them). So each batch is bitwise its lone call. Returns the
    hidden states (B, D, n, H) and the activations the backward pass reads.
    """
    B, D, n, in_dim = X.shape
    H = W.shape[1] // 4
    DH = D * H
    XW = X @ W[:, :, :in_dim].transpose(0, 2, 1) + b[:, None, :]          # (B, D, n, 4H)
    XW = XW.reshape(B, D, n, 4, H).transpose(2, 0, 3, 1, 4).reshape(n, B, 1, 4 * DH)
    U = np.zeros((D, H, 4, D, H))
    for d in range(D):
        U[d, :, :, d] = W[d, :, in_dim:].reshape(4, H, H).transpose(2, 0, 1)
    U = U.reshape(DH, 4 * DH)
    XW[..., :3 * DH] *= 0.5
    U_half = U.copy()
    U_half[:, :3 * DH] *= 0.5
    # a state is (B, 1, D*H), so h @ U_half is a stack of B lone products;
    # the in-place steps round as tanh(x_t + h U), a/2 + 1/2 and f*c + i*g
    h = c = np.zeros((B, 1, DH))
    hs, cs, sigs, gs, tcs = [h], [c], [], [], []
    for t in range(n):
        a = h @ U_half
        a += XW[t]
        np.tanh(a, out=a)
        sig = a[..., :3 * DH] * 0.5
        sig += 0.5
        g = a[..., 3 * DH:]
        c = sig[..., DH:2 * DH] * c
        c += sig[..., :DH] * g
        tc = np.tanh(c)
        h = tc * sig[..., 2 * DH:]
        hs.append(h)
        cs.append(c)
        sigs.append(sig)
        gs.append(g)
        tcs.append(tc)
    states = np.array(hs).reshape(n + 1, B, D, H).transpose(1, 2, 0, 3)   # h_0 .. h_n
    return states[:, :, 1:], (U, states[:, :, :-1], cs, sigs, gs, tcs)


def _lstm_seq_grads(W: np.ndarray, X: np.ndarray, cache, dH: np.ndarray):
    """Backpropagation through time for _lstm_seq: dW, db and dX from the
    gradient dH (D, n, H) of the hidden states, for the cache of a B = 1
    call on X[None].

    The gate derivatives of all steps are taken at once before the loop,
    so a step is one product with U and a few elementwise ops; the weight
    gradient is one product per sequence.
    """
    U, h_prev, cs, sigs, gs, tcs = cache
    D, n, in_dim = X.shape
    DH = U.shape[0]
    sig, g, tc = (np.array(v).reshape(n, -1) for v in (sigs, gs, tcs))
    dsig = sig * (1.0 - sig)
    # dz of a step is [dc * (g, c_prev, -, i) * the gates' derivatives] with
    # the o slot dh * tc * do/dz
    from_c = np.zeros((n, 4, DH))
    from_c[:, 0] = g * dsig[:, :DH]
    from_c[:, 1] = np.array(cs[:-1]).reshape(n, DH) * dsig[:, DH:2 * DH]
    from_c[:, 3] = sig[:, :DH] * (1.0 - g * g)
    o_from_h = tc * dsig[:, 2 * DH:]
    c_from_h = sig[:, 2 * DH:] * (1.0 - tc * tc)
    f = sig[:, DH:2 * DH]
    dH = dH.transpose(1, 0, 2).reshape(n, DH)
    dG = np.empty((n, 4, DH))
    dh_next = dc_next = np.zeros(DH)
    for t in range(n - 1, -1, -1):
        dh = dH[t] + dh_next
        dc = dc_next + dh * c_from_h[t]
        dz = dG[t]
        np.multiply(from_c[t], dc, out=dz)
        dz[2] = dh * o_from_h[t]
        dh_next = U @ dz.reshape(-1)
        dc_next = dc * f[t]
    dG = dG.reshape(n, 4, D, DH // D).transpose(2, 0, 1, 3).reshape(D, n, -1)
    inputs = np.concatenate([X, h_prev[0]], axis=2)                     # [x_t, h_t-1]
    return dG.transpose(0, 2, 1) @ inputs, dG.sum(axis=1), dG @ W[:, :, :in_dim]


def lstm_seq(tape: Tape, W: Tensor, b: Tensor, X: Tensor) -> Tensor:
    """An LSTM over the rows of X (n, in) from zero states: the hidden
    states (n, H). W has shape (4H, in + H), gate order i,f,o,g, as in
    lstm_cell."""
    Ws, Xs = W.data[None], X.data[None]
    hs, cache = _lstm_seq(Ws, b.data[None], Xs[None])

    def back(g):
        dW, db, dX = _lstm_seq_grads(Ws, Xs, cache, g[None])
        _accum(W, dW[0])
        _accum(b, db[0])
        _accum(X, dX[0])

    return tape.record(hs[0, 0], back)


def _bilstm(W_fw: np.ndarray, b_fw: np.ndarray, W_bw: np.ndarray, b_bw: np.ndarray,
            X: np.ndarray):
    """A BiLSTM over each of B sequences of one length, X (B, n, in): row i
    of sequence k's output (B, n, 2H) is [forward h_i, backward h_i]; also
    the stacked weights, the two input sequences (B, 2, n, in) and the
    activations. Each sequence is bitwise its lone call (`_lstm_seq`)."""
    W, Xs = np.stack([W_fw, W_bw]), np.stack([X, X[:, ::-1]], axis=1)
    hs, cache = _lstm_seq(W, np.stack([b_fw, b_bw]), Xs)
    return np.concatenate([hs[:, 0], hs[:, 1, ::-1]], axis=2), W, Xs, cache


def bilstm(tape: Tape, W_fw: Tensor, b_fw: Tensor, W_bw: Tensor, b_bw: Tensor,
           X: Tensor) -> Tensor:
    """A BiLSTM over the rows of X (n, in): (n, 2H), the two directions
    stepped in lockstep."""
    out, W, Xs, cache = _bilstm(W_fw.data, b_fw.data, W_bw.data, b_bw.data, X.data[None])

    def back(g):
        H = g.shape[1] // 2
        dH = np.stack([g[:, :H], g[::-1, H:]])
        dW, db, dXs = _lstm_seq_grads(W, Xs[0], cache, dH)
        _accum(W_fw, dW[0])
        _accum(b_fw, db[0])
        _accum(W_bw, dW[1])
        _accum(b_bw, db[1])
        _accum(X, dXs[0] + dXs[1, ::-1])

    return tape.record(out[0], back)


def _char_cnn(filters: np.ndarray, bias: np.ndarray, emb: np.ndarray, lengths: list[int]):
    """Max-pooled convolution over any number of words at once.

    emb holds the words' character rows end to end and lengths their
    counts. Each word is zero-padded to the longest word, and to the window
    when shorter; the positions past a word's own windows are -inf before
    the max, so a padded window never wins. The responses are a stack of
    per-window products (`_affine`), so each word's row is bitwise that of
    its lone call, whatever else the call holds. Returns the (n_words,
    n_filters) output, the windows, the winning position of each word and
    filter, and the (word, position) of each row of emb.
    """
    n_filters = filters.shape[0]
    char_dim = emb.shape[1]
    window = filters.shape[1] // char_dim
    lengths = np.asarray(lengths, dtype=np.intp)
    n = len(lengths)
    width = max(int(lengths.max()), window)
    n_pos = width - window + 1
    word = np.repeat(np.arange(n), lengths)
    pos = np.arange(len(word)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    padded = np.zeros((n, width, char_dim))
    padded[word, pos] = emb
    windows = padded[:, np.arange(n_pos)[:, None] + np.arange(window)].reshape(
        n, n_pos, window * char_dim)
    responses = _affine(filters, windows.reshape(n * n_pos, -1), bias).reshape(n, n_pos, n_filters)
    responses[np.arange(n_pos) >= np.maximum(lengths, window)[:, None] - window + 1] = -np.inf
    best = np.argmax(responses, axis=1)                    # (n, n_filters)
    out = responses[np.arange(n)[:, None], best, np.arange(n_filters)]
    return out, windows, best, (word, pos)


def char_cnn(tape: Tape, filters: Tensor, bias: Tensor, emb: Tensor,
             lengths: list[int]) -> Tensor:
    """Single-convolution char CNN with max pooling, for any number of
    words: (n_words, n_filters).

    filters: (n_filters, window * char_dim); emb: (sum(lengths), char_dim),
    the characters of each word in turn.
    """
    out, windows, best, rows = _char_cnn(filters.data, bias.data, emb.data, lengths)

    def back(g):
        n, n_pos, span = windows.shape
        n_filters = best.shape[1]
        _accum(bias, g.sum(axis=0))
        dresponses = np.zeros((n, n_pos, n_filters))
        dresponses[np.arange(n)[:, None], best, np.arange(n_filters)] = g
        dresponses = dresponses.reshape(n * n_pos, n_filters)
        _accum(filters, dresponses.T @ windows.reshape(n * n_pos, span))
        window = span // emb.data.shape[1]
        dwindows = (dresponses @ filters.data).reshape(n, n_pos, window, -1)
        dpadded = np.zeros((n, n_pos + window - 1, dwindows.shape[3]))
        for j in range(window):
            dpadded[:, j:j + n_pos] += dwindows[:, :, j]
        _accum(emb, dpadded[rows])

    return tape.record(out, back)


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
    out, u, w = _attend(query.data, W.data, B.data)

    def back(g):
        dw = B.data @ g                  # (n,)
        dscores = w * (dw - float(w @ dw))
        du = B.data.T @ dscores
        _accum(W, np.outer(query.data, du))
        _accum(query, W.data @ du)
        dB = np.outer(dscores, u) + np.outer(w, g)
        _accum(B, dB)

    return tape.record(out, back)


def _attention(spans: np.ndarray, starts: list[int], keys: np.ndarray) -> np.ndarray:
    """The attention weights (3, T, n - lo) of T steps over the rows from
    lo = min(starts) on, lo < n. Step t's span vectors spans[t] (3, S)
    score the keys (n, 3S) of the rows from starts[t] on, slot i against
    columns i*S:(i+1)*S; a step whose buffer is empty (start n) gets all-zero
    weights."""
    lo, hi = min(starts), max(starts)
    n, S = keys.shape[0], spans.shape[2]
    scores = spans.transpose(1, 0, 2) @ keys[lo:].reshape(n - lo, 3, S).transpose(1, 2, 0)
    if hi > lo:
        # each step masks the rows before its start; an empty buffer masks
        # none, so its softmax stays finite, and is zeroed below
        starts = np.asarray(starts)[:, None]
        keep = (np.arange(lo, n) >= starts) | (starts == n)
        scores = np.where(keep, scores, -np.inf)
    e = np.exp(scores - np.maximum.reduce(scores, axis=2, keepdims=True))
    w = e / np.add.reduce(e, axis=2, keepdims=True)
    if hi == n:
        w *= np.asarray(starts).reshape(-1, 1) < n
    return w


def attention_weights(spans: np.ndarray, start: int, keys: np.ndarray) -> np.ndarray:
    """Forward-only attention weights (3, n - start) of one step's three span
    vectors over the buffer rows from `start`, as the scoring op computes
    them (diagnostics and tests)."""
    return _attention(np.asarray(spans)[None], [start], keys)[:, 0]


def _score(spans: np.ndarray, acts: np.ndarray, starts: list[int],
           reps: np.ndarray | None, keys: np.ndarray | None, W: np.ndarray, b: np.ndarray):
    """The logits (T, n_actions) of T parser states, the features and the
    attention weights over the rows from min(starts) on (None when no step
    attends)."""
    T = spans.shape[0]
    lo = min(starts)
    if reps is None or lo == reps.shape[0]:
        w = None
        attended = np.zeros((T, W.shape[1] - 3 * spans.shape[2] - acts.shape[1]))
    else:
        w = _attention(spans, starts, keys)
        attended = (w.reshape(3 * T, -1) @ reps[lo:]).reshape(3, T, -1).transpose(1, 0, 2)
    features = np.concatenate([spans.reshape(T, -1), attended.reshape(T, -1), acts], axis=1)
    return features @ W.T + b, features, w


def _attend_rows(spans: np.ndarray, keys: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """The attended vectors (g, 3, R) of g parser states of different
    sentences whose buffers hold the same number m of rows: spans (g, 3, S),
    and each state's buffer rows of keys (g, m, 3S) and of reps (g, m, R).

    Row r is bitwise what `_score` attends for that state alone: the
    products are stacks of the lone products (`_matvec`), and each softmax
    sums exactly m terms, as a padded row would not.
    """
    g, m, _ = keys.shape
    S = spans.shape[2]
    scores = spans[:, :, None, :] @ keys.reshape(g, m, 3, S).transpose(0, 2, 3, 1)
    e = np.exp(scores - np.maximum.reduce(scores, axis=3, keepdims=True))
    w = e / np.add.reduce(e, axis=3, keepdims=True)
    return w.reshape(g, 3, m) @ reps


def score(tape: Tape, spans: list[tuple[Tensor, Tensor, Tensor]], acts: Tensor,
          starts: list[int], reps: Tensor | None, keys: Tensor | None,
          W: Tensor, b: Tensor) -> Tensor:
    """The logits of T parser states in one op: (T, n_actions).

    Step t has the three top-span vectors spans[t] (S,), the action-history
    row acts[t] and the buffer start starts[t]. Each span attends over the
    rows of reps (n, R) from that start with multiplicative attention,
    through the keys (n, 3S) of its slot; the result is the zero vector on
    an empty buffer, and always when reps is None (attention off). The
    features [s0, s1, s2, att0, att1, att2, act] then go through W and b.
    """
    index: dict[Tensor, int] = {}
    slots = [index.setdefault(s, len(index)) for step in spans for s in step]
    span_data = np.array([[s.data for s in step] for step in spans])
    out, features, w = _score(span_data, acts.data, starts,
                              None if reps is None else reps.data,
                              None if keys is None else keys.data, W.data, b.data)

    def back(g):
        T, _, S = span_data.shape
        A = acts.data.shape[1]
        _accum(W, g.T @ features)
        _accum(b, g.sum(axis=0))
        dfeatures = g @ W.data
        _accum(acts, dfeatures[:, -A:])
        dspans = dfeatures[:, :3 * S].reshape(T, 3, S)
        if w is not None:
            lo = min(starts)
            m = w.shape[2]
            rows = slice(lo, None)
            datt = dfeatures[:, 3 * S:-A].reshape(T, 3, -1).transpose(1, 0, 2)   # (3, T, R)
            _accum_at(reps, rows, w.transpose(2, 0, 1).reshape(m, 3 * T) @ datt.reshape(3 * T, -1))
            dw = datt @ reps.data[rows].T                                       # (3, T, m)
            dscores = w * (dw - (w * dw).sum(axis=2, keepdims=True))
            _accum_at(keys, rows, (dscores.transpose(0, 2, 1) @ span_data.transpose(1, 0, 2))
                      .transpose(1, 0, 2).reshape(m, 3 * S))
            keys3 = keys.data[rows].reshape(m, 3, S).transpose(1, 0, 2)          # (3, m, S)
            dspans = dspans + (dscores @ keys3).transpose(1, 0, 2)
        grads = np.zeros((len(index), S))
        np.add.at(grads, slots, dspans.reshape(3 * T, S))
        for span, dspan in zip(index, grads):
            _accum(span, dspan)

    return tape.record(out, back)


def _masked_nll(logits: np.ndarray, valid_idx: list[list[int]], gold: list[int]):
    """The summed loss of T rows and each row's softmax over its valid
    columns (zero elsewhere)."""
    T = logits.shape[0]
    mask = np.zeros(logits.shape, dtype=bool)
    for t, idx in enumerate(valid_idx):
        mask[t, idx] = True
    z = np.where(mask, logits, -np.inf)
    m = z.max(axis=1)
    e = np.exp(z - m[:, None])
    total = e.sum(axis=1)
    losses = m + np.log(total) - logits[np.arange(T), gold]
    return np.asarray(losses.sum()), e / total[:, None]


def masked_nll(tape: Tape, logits: Tensor, valid_idx: list[list[int]], gold: list[int]) -> Tensor:
    """The sum over rows t of -log softmax(logits[t, valid_idx[t]]) at
    column gold[t], which must be valid; invalid actions are masked out.
    logits: (T, n_actions)."""
    loss, probs = _masked_nll(logits.data, valid_idx, gold)

    def back(g):
        d = probs.copy()
        d[np.arange(len(gold)), gold] -= 1.0
        _accum(logits, float(g) * d)

    return tape.record(loss, back)


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
    _OPS = ("rows_lookup", "pick", "concat", "stack_rows", "affine", "project",
            "lstm_cell", "lstm_seq", "bilstm", "char_cnn", "score", "masked_nll")
    __slots__ = ("p",) + _OPS

    def __init__(self, tape: Tape, p: dict[str, Tensor]):
        self.p = p
        for name in self._OPS:
            setattr(self, name, functools.partial(globals()[name], tape))


class Forward:
    """The same ops on plain float64 arrays, for a rollout that nothing
    differentiates: the kernels alone, with no Tape, no Tensor and no closure.
    A lookup, pick or concatenation is the numpy expression its tape op
    evaluates. `p` maps parameter names to their arrays."""
    __slots__ = ("p",)

    def __init__(self, p: dict[str, np.ndarray]):
        self.p = p

    concat = staticmethod(lambda parts: np.concatenate(parts, axis=-1))
    stack_rows = staticmethod(_stack_rows)
    affine = staticmethod(_affine)
    pick = staticmethod(lambda M, index: M[index])
    rows_lookup = staticmethod(lambda table, indices: table[np.asarray(indices, dtype=np.intp)])
    project = staticmethod(lambda X, Ws, b=None: _project(X, Ws, b)[0])
    lstm_cell = staticmethod(lambda W, b, x, h, c: _lstm_cell(W, b, x, h, c)[:2])
    lstm_seq = staticmethod(lambda W, b, X: _lstm_seq(W[None], b[None], X[None, None])[0][0, 0])

    @staticmethod
    def bilstm(W_fw, b_fw, W_bw, b_bw, X):
        """The BiLSTM of X (n, in), or of each of B sequences X (B, n, in)."""
        out = _bilstm(W_fw, b_fw, W_bw, b_bw, X.reshape((-1,) + X.shape[-2:]))[0]
        return out.reshape(X.shape[:-1] + out.shape[-1:])

    char_cnn = staticmethod(lambda filters, bias, emb, lengths:
                            _char_cnn(filters, bias, emb, lengths)[0])
    score = staticmethod(lambda spans, acts, starts, reps, keys, W, b:
                         _score(np.array(spans), acts, starts, reps, keys, W, b)[0])
    masked_nll = staticmethod(lambda logits, valid_idx, gold:
                              _masked_nll(logits, valid_idx, gold)[0])
