"""Layer spans recorded from outside the library.

The traced run replaces public functions of the disconer modules with thin
wrappers that record a span (name, start, end, parent, sentence id) around
each call, and wraps the backward closure of every autodiff node so that the
backward pass splits into per-op spans. Spans stay in memory and are written
out once, when the run ends. Nothing under src/ is changed; the wrappers are
removed again by `Tracer.uninstall`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# Spans reported for every workload: each name X yields X.calls and X.self_s.
# Each op in BACKWARD_OPS also yields X.bwd_s, the self time of the spans
# named "X.bwd" that its nodes' backward closures record.
SPANS = (
    "neural.token_reps", "neural.encode_parser_state", "neural.attend",
    "neural.output", "neural.advance", "neural.stack_push", "neural.compose",
    "neural.sgd_step", "neural.save_checkpoint", "neural.load_checkpoint",
    "autodiff.char_cnn", "autodiff.lstm_cell", "autodiff.lstm_cell.bilstm",
    "autodiff.lstm_cell.stack_push", "autodiff.lstm_cell.action_lstm",
    "autodiff.masked_nll", "autodiff.backward",
    "transitions.valid_actions", "transitions.apply", "transitions.oracle",
    "transitions.decode", "corpus.parse_inline", "corpus.write_inline",
    "schemas.encode_biohd", "schemas.decode_biohd", "evaluation.evaluate",
)
BACKWARD_OPS = (
    "autodiff.char_cnn", "autodiff.lstm_cell", "autodiff.lstm_cell.bilstm",
    "autodiff.lstm_cell.stack_push", "autodiff.lstm_cell.action_lstm",
    "autodiff.masked_nll", "autodiff.attend", "autodiff.affine",
    "autodiff.concat", "autodiff.row", "autodiff.rows_lookup",
    "autodiff.rows_slice", "autodiff.stack_rows", "autodiff.add_n",
)
LSTM_CONTEXTS = ("bilstm", "stack_push", "action_lstm")


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    `spans` is a sequence of (start, end, parent) with parent the index of
    the enclosing span or -1. Child intervals are clipped to the parent and
    merged before they are subtracted, so overlapping children count once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        out.append((end - start) - covered(children.get(i, ()), start, end))
    return out


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` inside [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """In-memory span recorder; spans are recorded only while `active`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []     # [name_id, start, end, parent, sentence]
        self._open: list[int] = []
        self.sentence = -1
        self.active = False
        self.counts: dict[str, float] = defaultdict(float)
        self.tapes: list = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name_id, self.clock(), 0.0, parent, self.sentence])
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        # close anything left open inside this span by an exception
        while self._open and self._open[-1] != idx:
            self.spans[self._open.pop()][2] = self.spans[idx][2]
        if self._open:
            self._open.pop()

    def close_all(self) -> None:
        now = self.clock()
        while self._open:
            self.spans[self._open.pop()][2] = now

    def open_name(self) -> str | None:
        return self.names[self.spans[self._open[-1]][0]] if self._open else None

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _timed(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)
        return wrapper


    def _op(self, fn, name: str | None, bwd_name):
        """Wrap an autodiff op: optional forward span, timed backward closure.

        `bwd_name` is the backward span name, or a callable giving the
        forward span name and the backward span name at call time.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            fwd, bwd = bwd_name() if callable(bwd_name) else (name, bwd_name)
            idx = tracer.begin(fwd) if fwd else None
            try:
                out = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    tracer.end(idx)
            # lstm_cell returns (h, c); the backward closure sits on c
            node = out[1] if isinstance(out, tuple) else out
            if node._backward is not None:
                node._backward = tracer._timed(node._backward, bwd)
            return out
        return wrapper

    def install(self) -> None:
        """Patch the public functions of the disconer modules."""
        from disconer import (autodiff, corpus, evaluation, neural, schemas,
                              transitions)
        tracer = self

        for owner, attr, name in (
                (corpus, "parse_inline", "corpus.parse_inline"),
                (corpus, "write_inline", "corpus.write_inline"),
                (schemas, "encode_biohd", "schemas.encode_biohd"),
                (schemas, "decode_biohd", "schemas.decode_biohd"),
                (evaluation, "evaluate", "evaluation.evaluate"),
                (transitions, "oracle", "transitions.oracle"),
                (transitions, "decode", "transitions.decode"),
                (neural, "token_reps", "neural.token_reps"),
                (neural, "attend", "neural.attend"),
                (neural, "stack_push", "neural.stack_push"),
                (neural, "compose", "neural.compose"),
                (neural, "save_checkpoint", "neural.save_checkpoint"),
                (neural, "load_checkpoint", "neural.load_checkpoint"),
                (autodiff, "backward", "autodiff.backward")):
            self._patch(owner, attr, self._timed(getattr(owner, attr), name))

        # neural imports these two by name, so both namespaces are wrapped
        valid_actions = self._counted(transitions.valid_actions,
                                      "transitions.valid_actions")
        apply = self._counted(transitions.apply, "transitions.apply")
        self._patch(transitions, "valid_actions", valid_actions)
        self._patch(transitions, "apply", apply)
        self._patch(neural, "valid_actions", valid_actions)
        self._patch(neural, "apply_action", apply)

        # neural.output has no function of its own inside the rollout: it is
        # the interval from the return of encode_parser_state (out_W affine,
        # then masked_nll or the argmax) to the next _advance_neural call.
        encode = neural.encode_parser_state

        def encode_parser_state(*args, **kwargs):
            if not tracer.active:
                return encode(*args, **kwargs)
            idx = tracer.begin("neural.encode_parser_state")
            try:
                return encode(*args, **kwargs)
            finally:
                tracer.end(idx)
                tracer.begin("neural.output")
        self._patch(neural, "encode_parser_state", encode_parser_state)

        advance = neural._advance_neural

        def advance_neural(*args, **kwargs):
            if not tracer.active:
                return advance(*args, **kwargs)
            if tracer.open_name() == "neural.output":
                tracer.end(tracer._open[-1])
            idx = tracer.begin("neural.advance")
            try:
                return advance(*args, **kwargs)
            finally:
                tracer.end(idx)
        self._patch(neural, "_advance_neural", advance_neural)

        timed_sgd = self._timed(neural.sgd_step, "neural.sgd_step")

        def sgd(params, *args, **kwargs):
            if tracer.active:
                tracer.counts["grad_bytes"] += sum(
                    t.grad.nbytes for t in params.t.values() if t.grad is not None)
                tracer.counts["sgd_steps"] += 1
            return timed_sgd(params, *args, **kwargs)
        self._patch(neural, "sgd_step", sgd)

        tape_cls = neural.Tape

        def new_tape():
            tape = tape_cls()
            if tracer.active:
                tracer.tapes.append(tape)
            return tape
        self._patch(neural, "Tape", new_tape)

        def lstm_names():
            ctx = {"neural.token_reps": "bilstm",
                   "neural.stack_push": "stack_push"}.get(tracer.open_name(),
                                                          "action_lstm")
            name = f"autodiff.lstm_cell.{ctx}"
            return name, name + ".bwd"

        for attr in ("affine", "concat", "row", "rows_lookup", "rows_slice",
                     "stack_rows", "add_n", "attend"):
            self._patch(autodiff, attr, self._op(getattr(autodiff, attr), None,
                                                 f"autodiff.{attr}.bwd"))
        for attr in ("char_cnn", "masked_nll"):
            self._patch(autodiff, attr, self._op(getattr(autodiff, attr),
                                                 f"autodiff.{attr}",
                                                 f"autodiff.{attr}.bwd"))
        self._patch(autodiff, "lstm_cell",
                    self._op(autodiff.lstm_cell, None, lstm_names))

    def _counted(self, fn, name: str):
        tracer = self
        timed = self._timed(fn, name)

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return timed(*args, **kwargs)
        return wrapper

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, start: float, end: float) -> dict[str, float]:
        """calls, self_s and bwd_s per layer, plus the share of the traced
        wall time [start, end] that no top-level layer span covers."""
        selfs = self_times([(s[1], s[2], s[3]) for s in self.spans])
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for span, st in zip(self.spans, selfs):
            name = self.names[span[0]]
            calls[name] += 1
            self_s[name] += st
        for suffix in ("", ".bwd"):
            total = "autodiff.lstm_cell" + suffix
            for ctx in LSTM_CONTEXTS:
                part = f"autodiff.lstm_cell.{ctx}{suffix}"
                calls[total] += calls[part]
                self_s[total] += self_s[part]
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in BACKWARD_OPS:
            out[f"{name}.bwd_s"] = self_s[name + ".bwd"]
        top = [(s[1], s[2]) for s in self.spans if s[3] < 0]
        out["trace.uncovered_share"] = 1.0 - covered(top, start, end) / (end - start)
        return out

    def write(self, path, meta: dict) -> None:
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "start_s", "end_s", "parent", "sentence"],
                       "spans": [[self.names[n], round(s - t0, 9), round(e - t0, 9), p, sid]
                                 for n, s, e, p, sid in self.spans]}, fh)
