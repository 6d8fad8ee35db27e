"""Shift-reduce state machine for discontinuous mention recognition.

Six actions drive the machine: SHIFT and OUT consume buffer tokens,
COMPLETE-y emits the top stack span as a mention of type y, and the three
reduce actions concatenate the top two spans (REDUCE pops both, LEFT-REDUCE
keeps the lower span, RIGHT-REDUCE keeps the upper one, supporting mentions
that share components). States are immutable values; apply returns a fresh
state, so per-sentence rollouts can run in parallel. Every rollout over n
tokens ends within 4n - 1 actions, so no step limit is needed.

A given action sequence is a derivation when it takes each action from the
valid set of its state and ends in the terminal state. `walk` holds that
rule for decode, trace and the teacher-forced loss of the scorer.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from enum import Enum

from .corpus import (CorpusError, Fragment, Mention, Sentence, canonicalize,
                     check_not_nested)


class ActionKind(Enum):
    SHIFT = "SHIFT"
    OUT = "OUT"
    COMPLETE = "COMPLETE"
    REDUCE = "REDUCE"
    LEFT_REDUCE = "LREDUCE"
    RIGHT_REDUCE = "RREDUCE"


@dataclass(frozen=True)
class Action:
    kind: ActionKind
    entity_type: str | None = None

    def __post_init__(self):
        if (self.kind is ActionKind.COMPLETE) != (self.entity_type is not None):
            raise ValueError("entity_type is required exactly for COMPLETE actions")
        # every step builds and probes sets of actions: hash once, here
        object.__setattr__(self, "_hash", hash((self.kind, self.entity_type)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__: a string's hash differs between processes
        return Action, (self.kind, self.entity_type)

    def __str__(self) -> str:
        if self.kind is ActionKind.COMPLETE:
            return f"COMPLETE:{self.entity_type}"
        return self.kind.value


SHIFT = Action(ActionKind.SHIFT)
OUT = Action(ActionKind.OUT)
REDUCE = Action(ActionKind.REDUCE)
LEFT_REDUCE = Action(ActionKind.LEFT_REDUCE)
RIGHT_REDUCE = Action(ActionKind.RIGHT_REDUCE)


@functools.lru_cache(maxsize=1024)
def complete(entity_type: str) -> Action:
    return Action(ActionKind.COMPLETE, entity_type)


@dataclass(frozen=True)
class ParserState:
    buffer_pos: int = 0
    stack: tuple[tuple[Fragment, ...], ...] = ()  # canonical partial spans
    outputs: tuple[Mention, ...] = ()


def is_terminal(state: ParserState, sentence_len: int) -> bool:
    return state.buffer_pos >= sentence_len and not state.stack


def _disjoint(s0: tuple[Fragment, ...], s1: tuple[Fragment, ...]) -> bool:
    """Whether two spans share no token: the rule for when they may reduce.
    Overlapping fragments have no canonical concatenation (`canonicalize`
    raises exactly then; touching ones merge)."""
    return all(a.end <= b.start or b.end <= a.start for a in s0 for b in s1)


def valid_actions(state: ParserState, sentence_len: int,
                  type_set: tuple[str, ...] | list[str]) -> set[Action]:
    """The hard constraints: which actions may be taken from this state."""
    valid: set[Action] = set()
    if state.stack:
        valid.update(map(complete, type_set))
        if len(state.stack) >= 2 and _disjoint(state.stack[-1], state.stack[-2]):
            valid.update((REDUCE, LEFT_REDUCE, RIGHT_REDUCE))
    if state.buffer_pos < sentence_len:
        valid.update((SHIFT, OUT))
    return valid


class InvalidActionError(CorpusError):
    """A given action outside the valid set of its state (empty when terminal)."""

    def __init__(self, action: Action, step: int):
        super().__init__(f"invalid action {action} at step {step}")
        self.action = action
        self.step = step


def apply(state: ParserState, action: Action) -> ParserState:
    """The successor state after an action taken from valid_actions(state, ...).

    Unchecked here: `walk` checks a given sequence before each of its
    actions is applied.
    """
    kind = action.kind
    if kind is ActionKind.SHIFT:
        span = (Fragment(state.buffer_pos, state.buffer_pos + 1),)
        return ParserState(state.buffer_pos + 1, state.stack + (span,), state.outputs)
    if kind is ActionKind.OUT:
        return ParserState(state.buffer_pos + 1, state.stack, state.outputs)
    if kind is ActionKind.COMPLETE:
        mention = Mention(action.entity_type, state.stack[-1])
        return ParserState(state.buffer_pos, state.stack[:-1],
                           state.outputs + (mention,))
    s0, s1 = state.stack[-1], state.stack[-2]
    new_span = canonicalize(s1 + s0)
    below = state.stack[:-2]
    if kind is ActionKind.LEFT_REDUCE:
        below = below + (s1,)
    elif kind is ActionKind.RIGHT_REDUCE:
        below = below + (s0,)
    return ParserState(state.buffer_pos, below + (new_span,), state.outputs)


def walk(actions: list[Action], sentence_len: int, type_set) -> tuple[list, ParserState]:
    """Check and apply a given sequence: the (state, valid set) each action
    is taken from, and the terminal state. A sequence that runs out before
    the terminal state raises CorpusError; an action outside its state's
    valid set, or one after the terminal state, InvalidActionError."""
    state, taken = ParserState(), []
    while not is_terminal(state, sentence_len):
        step = len(taken)
        if step == len(actions):
            raise CorpusError("action sequence ends in a non-terminal state")
        valid = valid_actions(state, sentence_len, type_set)
        if actions[step] not in valid:
            raise InvalidActionError(actions[step], step)
        taken.append((state, valid))
        state = apply(state, actions[step])
    if len(taken) < len(actions):
        raise InvalidActionError(actions[len(taken)], len(taken))
    return taken, state


def decode(actions: list[Action], sentence_len: int,
           type_set: tuple[str, ...] | list[str] | None = None) -> frozenset[Mention]:
    """Run the action sequence and return its unique mention set. Duplicate
    COMPLETE outputs collapse: strict-match evaluation is set-based."""
    if type_set is None:
        type_set = sorted({a.entity_type for a in actions if a.entity_type})
    return frozenset(walk(actions, sentence_len, type_set)[1].outputs)


# ---------------------------------------------------------------------------
# Static oracle
# ---------------------------------------------------------------------------

def _is_prefix(frags: tuple[Fragment, ...], gold: tuple[Fragment, ...]) -> bool:
    """Whether frags form a left prefix of gold's fragment sequence.

    All but the last fragment must match exactly; the last may be a
    left-anchored part of the corresponding gold fragment.
    """
    k = len(frags)
    if k > len(gold) or frags[:-1] != gold[:k - 1]:
        return False
    last, g = frags[-1], gold[k - 1]
    return last.start == g.start and last.end <= g.end


def _is_fragment_run(frags: tuple[Fragment, ...], gold: tuple[Fragment, ...]) -> bool:
    """Whether frags appear as consecutive exact fragments inside gold."""
    k = len(frags)
    for start in range(len(gold) - k + 1):
        if tuple(gold[start:start + k]) == frags:
            return True
    return False


def oracle(sentence: Sentence) -> tuple[list[Action], frozenset[Mention]]:
    """Derive the gold action sequence for a sentence.

    Greedy left-to-right scan: OUT for tokens in no mention, SHIFT
    otherwise. After each shift, reductions fire while the concatenation of
    the top two spans is a prefix of an unfinished gold mention; the kept
    variant is chosen when the lower (LEFT) or upper (RIGHT) span is still a
    component run of another unfinished mention, unless the concatenation
    is a prefix of that mention too: it then takes the span from the
    concatenation, and a kept copy would be left over on the stack.
    COMPLETE fires whenever the top span equals an unfinished gold mention
    and is not a proper prefix of another one.

    Crossing compositions can leave underivable mentions: those are dropped
    and the scan restarts on the reduced gold set until the machine
    terminates cleanly. Dropped mentions come back as `uncovered`.
    """
    check_not_nested(sentence.mentions)
    n = len(sentence.tokens)
    gold = list(sentence.mentions)
    uncovered: set[Mention] = set()
    # Ends: a pass that does not return or raise drops at least one unfinished
    # mention, and a pass over no mentions leaves nothing on the stack.
    while True:
        actions, unfinished, leftover = _oracle_pass(gold, n)
        if not leftover and not unfinished:
            return actions, frozenset(uncovered)
        if not unfinished:
            raise CorpusError(f"oracle failed to terminate cleanly on {sentence.tokens}")
        uncovered.update(unfinished)
        gold = [m for m in gold if m not in unfinished]


def _oracle_pass(gold: list[Mention], n: int) -> tuple[list[Action], list[Mention], bool]:
    mention_tokens = set()
    for m in gold:
        mention_tokens |= m.token_set()

    unfinished = list(gold)
    actions: list[Action] = []
    stack: list[tuple[Fragment, ...]] = []

    def required_elsewhere(frags: tuple[Fragment, ...], target: Mention,
                           combined: tuple[Fragment, ...]) -> bool:
        # a mention that continues through `combined` gets frags from it
        return any(m is not target and _is_fragment_run(frags, m.fragments)
                   and not _is_prefix(combined, m.fragments)
                   for m in unfinished)

    def completable(frags: tuple[Fragment, ...]) -> Mention | None:
        for m in unfinished:
            if frags == m.fragments:
                if not any(o is not m and _is_prefix(frags, o.fragments)
                           for o in unfinished):
                    return m
        return None

    def reduce_target(frags: tuple[Fragment, ...]) -> Mention | None:
        for m in unfinished:
            if _is_prefix(frags, m.fragments):
                return m
        return None

    def drain() -> None:
        while True:
            if stack:
                m = completable(stack[-1])
                if m is not None:
                    actions.append(complete(m.entity_type))
                    unfinished.remove(m)
                    stack.pop()
                    continue
            if len(stack) >= 2:
                s0, s1 = stack[-1], stack[-2]
                if not _disjoint(s0, s1):
                    break
                combined = canonicalize(s1 + s0)
                target = reduce_target(combined)
                if target is not None:
                    if required_elsewhere(s1, target, combined):
                        actions.append(LEFT_REDUCE)
                        stack[-1:] = [combined]
                    elif required_elsewhere(s0, target, combined):
                        actions.append(RIGHT_REDUCE)
                        stack[-2:] = [s0, combined]
                    else:
                        actions.append(REDUCE)
                        stack[-2:] = [combined]
                    continue
            break

    for pos in range(n):
        if pos in mention_tokens:
            actions.append(SHIFT)
            stack.append((Fragment(pos, pos + 1),))
            drain()
        else:
            actions.append(OUT)
    drain()
    return actions, unfinished, bool(stack)


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceStep:
    step: int
    stack: tuple[str, ...]
    buffer: tuple[str, ...]
    valid: tuple[str, ...]
    chosen: str


@dataclass(frozen=True)
class TraceReport:
    steps: tuple[TraceStep, ...] = ()

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps({
            "step": s.step, "stack": list(s.stack), "buffer": list(s.buffer),
            "valid": list(s.valid), "chosen": s.chosen,
        }) for s in self.steps)

    def to_text(self) -> str:
        return "\n".join(f"{s.step:3d}  stack=[{', '.join(s.stack)}]  "
                         f"buffer=[{' '.join(s.buffer)}]  action={s.chosen}"
                         for s in self.steps)


def trace(sentence: Sentence, actions: list[Action]) -> TraceReport:
    """Step-by-step record of a rollout: stack contents, buffer, valid set.
    Refuses the same sequences as decode, with the same errors."""
    type_set = sorted({a.entity_type for a in actions if a.entity_type}
                      | {m.entity_type for m in sentence.mentions})
    taken, _ = walk(actions, len(sentence.tokens), type_set)
    return TraceReport(tuple(
        TraceStep(
            step=i + 1,
            stack=tuple(" ".join(sentence.tokens[t] for f in span for t in f.tokens())
                        for span in state.stack),
            buffer=tuple(sentence.tokens[state.buffer_pos:]),
            valid=tuple(sorted(str(a) for a in valid)),
            chosen=str(action),
        )
        for i, ((state, valid), action) in enumerate(zip(taken, actions))))
