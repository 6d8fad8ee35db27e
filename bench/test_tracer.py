"""Self-time arithmetic of the benchmark's span recorder."""

import pytest

from tracer import Tracer, covered, self_times


def test_covered_merges_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered([(4.0, 4.0), (6.0, 5.0)], 0.0, 10.0) == 0.0


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (2.0, 3.0, 1), (5.0, 9.0, 0)]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_overlapping_children_count_once():
    spans = [(0.0, 10.0, -1), (1.0, 6.0, 0), (4.0, 8.0, 0), (9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_tracer_records_parents_and_layer_metrics():
    t = Tracer(clock=FakeClock([0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 7.0, 8.0]))
    t.sentence = 3
    outer = t.begin("neural.token_reps")          # 0.0
    inner = t.begin("autodiff.char_cnn")          # 1.0
    t.end(inner)                                  # 1.5
    lstm = t.begin("autodiff.lstm_cell.bilstm")   # 2.0
    t.end(lstm)                                   # 3.0
    t.end(outer)                                  # 4.0
    step = t.begin("transitions.apply")           # 7.0
    t.end(step)                                   # 8.0
    assert [s[3] for s in t.spans] == [-1, 0, 0, -1]
    assert {s[4] for s in t.spans} == {3}
    m = t.layer_metrics(0.0, 10.0)
    assert m["neural.token_reps.self_s"] == pytest.approx(2.5)
    assert m["autodiff.char_cnn.calls"] == 1
    assert m["autodiff.lstm_cell.self_s"] == pytest.approx(1.0)
    assert m["autodiff.lstm_cell.bilstm.calls"] == 1
    assert m["transitions.apply.self_s"] == pytest.approx(1.0)
    assert m["trace.uncovered_share"] == pytest.approx(0.5)


def test_end_closes_spans_left_open_by_an_exception():
    t = Tracer(clock=FakeClock([0.0, 1.0, 5.0]))
    outer = t.begin("neural.token_reps")
    t.begin("autodiff.char_cnn")                  # never ended
    t.end(outer)
    assert [s[2] for s in t.spans] == [5.0, 5.0]
    assert t.open_name() is None
