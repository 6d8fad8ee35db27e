"""Tests for the shift-reduce machine, oracle, and traces."""

import itertools
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings

from disconer.corpus import CorpusError, Fragment, Mention, Sentence
from disconer.synth import make_corpus
from disconer.transitions import (Action, ActionKind, InvalidActionError,
                                  LEFT_REDUCE, OUT, REDUCE, RIGHT_REDUCE,
                                  SHIFT, ParserState, apply, complete, decode,
                                  is_terminal, oracle, trace, valid_actions)
from strategies import non_nested_sentences

FIG2 = Sentence(("muscle", "pain", "and", "fatigue"),
                (Mention("ADR", (Fragment(0, 2),)),
                 Mention("ADR", (Fragment(0, 1), Fragment(3, 4)))))
FIG2_GOLD = frozenset(FIG2.mentions)


def test_action_strings():
    assert [str(a) for a in (SHIFT, OUT, REDUCE, LEFT_REDUCE, RIGHT_REDUCE, complete("ADR"))] == [
        "SHIFT", "OUT", "REDUCE", "LREDUCE", "RREDUCE", "COMPLETE:ADR"]
    with pytest.raises(ValueError):
        Action(ActionKind.COMPLETE)  # entity type required


def test_action_hash_and_equality():
    a = complete("ADR")
    assert complete("ADR") is a
    assert Action(ActionKind.COMPLETE, "ADR") == a
    assert hash(Action(ActionKind.COMPLETE, "ADR")) == hash(a) == hash((a.kind, "ADR"))
    assert {SHIFT, OUT, a} == {Action(ActionKind.SHIFT), Action(ActionKind.OUT),
                               Action(ActionKind.COMPLETE, "ADR")}
    # unpickling rebuilds the action, and with it the hash of this process
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and hash(copy) == hash(a) and copy in {a}


def test_actions_have_no_order():
    # nothing sorts actions, and actions of different kinds cannot be ordered
    with pytest.raises(TypeError):
        complete("A") < complete("B")
    with pytest.raises(TypeError):
        SHIFT < OUT


def test_initial_state_and_terminal():
    state = ParserState()
    assert state.buffer_pos == 0 and state.stack == ()
    assert valid_actions(state, 4, ["ADR"]) == {SHIFT, OUT}
    assert is_terminal(ParserState(), 0)
    assert valid_actions(ParserState(), 0, ["ADR"]) == set()


def test_valid_actions_stack_depth_rules():
    types = ["ADR"]
    state = apply(ParserState(), SHIFT)
    va = valid_actions(state, 2, types)
    assert complete("ADR") in va and REDUCE not in va
    state = apply(state, SHIFT)
    va = valid_actions(state, 2, types)
    assert {REDUCE, LEFT_REDUCE, RIGHT_REDUCE, complete("ADR")} <= va
    assert SHIFT not in va  # buffer exhausted


def test_reduce_invalid_on_overlapping_spans():
    # LEFT-REDUCE keeps s1 beneath its own concatenation; reducing those two
    # again would overlap and must be excluded.
    types = ["ADR"]
    state = ParserState()
    for a in (SHIFT, SHIFT, LEFT_REDUCE):
        state = apply(state, a)
    va = valid_actions(state, 2, types)
    assert REDUCE not in va and LEFT_REDUCE not in va and RIGHT_REDUCE not in va
    assert complete("ADR") in va


def test_apply_semantics():
    state = apply(ParserState(), SHIFT)
    assert state.stack[-1] == (Fragment(0, 1),)
    state = apply(state, OUT)
    assert state.buffer_pos == 2
    state = apply(state, SHIFT)
    state = apply(state, REDUCE)
    assert state.stack[-1] == (Fragment(0, 1), Fragment(2, 3))
    state = apply(state, complete("ADR"))
    assert state.outputs == (Mention("ADR", (Fragment(0, 1), Fragment(2, 3))),)
    assert is_terminal(state, 3)


def test_left_and_right_reduce_keep_spans():
    s = ParserState()
    for a in (SHIFT, OUT, SHIFT):
        s = apply(s, a)
    left = apply(s, LEFT_REDUCE)
    assert left.stack == ((Fragment(0, 1),), (Fragment(0, 1), Fragment(2, 3)))
    right = apply(s, RIGHT_REDUCE)
    assert right.stack == ((Fragment(2, 3),), (Fragment(0, 1), Fragment(2, 3)))


def test_invalid_action_raises_with_step():
    with pytest.raises(InvalidActionError) as exc:
        decode([REDUCE], 2, ["ADR"])
    assert exc.value.step == 0


def test_longest_rollout_is_under_4n_steps():
    """Every action sequence ends: SHIFT and OUT take n steps, REDUCE and
    COMPLETE at most n, LEFT/RIGHT-REDUCE at most 2n - 1. Search every
    reachable (buffer, stack) state for the longest path to a terminal one."""
    types = ["A"]

    def longest_from(state, n, memo, open_keys):
        key = (state.buffer_pos, state.stack)
        if key not in memo:
            assert key not in open_keys, "an action sequence revisits a state"
            open_keys.add(key)
            memo[key] = max((1 + longest_from(apply(state, a), n, memo, open_keys)
                             for a in valid_actions(state, n, types)), default=0)
            open_keys.remove(key)
        return memo[key]

    for n in range(7):
        longest = longest_from(ParserState(), n, {}, set())
        assert longest <= max(4 * n - 1, 0)
        assert longest == (2 * n if n < 2 else 4 * n - 3)


def test_decode_figure2_sequence():
    actions = [SHIFT, SHIFT, LEFT_REDUCE, complete("ADR"), OUT, SHIFT,
               REDUCE, complete("ADR")]
    assert decode(actions, 4) == FIG2_GOLD


def test_decode_rejects_non_terminal():
    with pytest.raises(CorpusError):
        decode([SHIFT, OUT], 2, ["ADR"])


def test_figure2_sequence_found_by_exhaustive_search():
    """Brute-force all action sequences of length <= 8 on a 4-token sentence
    and confirm the oracle's sequence is among those reaching the gold set."""
    types = ["ADR"]
    found = []

    def dfs(state, seq):
        if len(seq) > 8:
            return
        if is_terminal(state, 4):
            if frozenset(state.outputs) == FIG2_GOLD:
                found.append(tuple(seq))
            return
        for a in sorted(valid_actions(state, 4, types), key=str):
            dfs(apply(state, a), seq + [a])

    dfs(ParserState(), [])
    oracle_actions, _ = oracle(FIG2)
    assert tuple(oracle_actions) in found


def test_oracle_figure2():
    actions, uncovered = oracle(FIG2)
    assert uncovered == frozenset()
    assert actions == [SHIFT, SHIFT, LEFT_REDUCE, complete("ADR"), OUT, SHIFT,
                       REDUCE, complete("ADR")]


def test_oracle_flat_and_empty():
    s = Sentence(("a", "b", "c"), (Mention("T", (Fragment(1, 2),)),))
    actions, uncovered = oracle(s)
    assert actions == [OUT, SHIFT, complete("T"), OUT]
    assert not uncovered
    s = Sentence(("a",), ())
    assert oracle(s) == ([OUT], frozenset())


def test_oracle_right_overlap():
    # "hip and leg pain": "leg pain" continuous, "hip ... pain" discontinuous
    s = Sentence(("hip", "and", "leg", "pain"),
                 (Mention("ADR", (Fragment(2, 4),)),
                  Mention("ADR", (Fragment(0, 1), Fragment(3, 4)))))
    actions, uncovered = oracle(s)
    assert not uncovered
    assert decode(actions, 4) == frozenset(s.mentions)
    assert RIGHT_REDUCE in actions


def test_oracle_three_left_overlapping_mentions():
    # shared head "muscle", three feelings
    s = Sentence(("muscle", "pain", "and", "fatigue", "or", "cramps"),
                 (Mention("ADR", (Fragment(0, 2),)),
                  Mention("ADR", (Fragment(0, 1), Fragment(3, 4))),
                  Mention("ADR", (Fragment(0, 1), Fragment(5, 6)))))
    actions, uncovered = oracle(s)
    assert not uncovered
    assert decode(actions, 6) == frozenset(s.mentions)
    assert actions.count(LEFT_REDUCE) == 2


def test_oracle_crossing_reports_uncovered():
    # crossing composition: four mentions over two heads and two feelings;
    # one of them cannot be derived and must come back as uncovered
    s = Sentence(("joint", "and", "muscle", "pain", "/", "stiffness"),
                 (Mention("ADR", (Fragment(0, 1), Fragment(3, 4))),
                  Mention("ADR", (Fragment(0, 1), Fragment(5, 6))),
                  Mention("ADR", (Fragment(2, 4),)),
                  Mention("ADR", (Fragment(2, 3), Fragment(5, 6)))))
    actions, uncovered = oracle(s)
    assert len(uncovered) == 1
    assert decode(actions, 6) == frozenset(s.mentions) - uncovered


def test_oracle_rejects_nested():
    s = Sentence(("a", "b", "c"),
                 (Mention("T", (Fragment(0, 3),)), Mention("T", (Fragment(1, 2),))))
    with pytest.raises(CorpusError):
        oracle(s)


def test_oracle_round_trip_on_random_templates():
    corpus = make_corpus(500, seed=9)
    for s in corpus:
        actions, uncovered = oracle(s)
        assert not uncovered
        assert decode(actions, len(s.tokens)) == frozenset(s.mentions)


def test_trace_figure2():
    actions, _ = oracle(FIG2)
    report = trace(FIG2, actions)
    assert len(report.steps) == 8
    step3 = report.steps[2]
    assert step3.chosen == "LREDUCE"
    assert step3.stack == ("muscle", "pain")
    assert report.steps[0].buffer == ("muscle", "pain", "and", "fatigue")
    # serializations contain every step
    assert report.to_jsonl().count("\n") == 7
    assert "LREDUCE" in report.to_text()


def test_trace_rejects_invalid_action():
    actions, _ = oracle(FIG2)
    bad = actions[:2] + [complete("ADR"), REDUCE] + actions[4:]
    with pytest.raises(InvalidActionError) as exc:
        trace(FIG2, bad)
    assert exc.value.step == 3 and exc.value.action == REDUCE


def test_random_rollouts_always_terminate():
    rng = np.random.default_rng(0)
    types = ["A", "B"]
    for _ in range(200):
        n = int(rng.integers(0, 8))
        state = ParserState()
        steps = 0
        while not is_terminal(state, n):
            va = sorted(valid_actions(state, n, types), key=str)
            state = apply(state, va[int(rng.integers(len(va)))])
            steps += 1
            assert steps < 4 * max(n, 1)


@settings(max_examples=300, deadline=None)
@given(non_nested_sentences())
# a LEFT-REDUCE once kept "w0" for B although B takes it from "w0 w2"
@example(Sentence(("w0", "w1", "w2", "w3", "w4"),
                  (Mention("A", (Fragment(0, 1), Fragment(2, 4))),
                   Mention("A", (Fragment(0, 1), Fragment(2, 3), Fragment(4, 5))))))
def test_oracle_decode_round_trip_on_arbitrary_mentions(s):
    actions, uncovered = oracle(s)
    n = len(s.tokens)
    assert uncovered <= frozenset(s.mentions)
    assert decode(actions, n) == frozenset(s.mentions) - uncovered
    state = ParserState()
    for a in actions:
        assert not is_terminal(state, n)  # no action after the terminal state
        state = apply(state, a)
    assert is_terminal(state, n)
