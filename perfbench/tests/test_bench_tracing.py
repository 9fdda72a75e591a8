"""Self-time arithmetic of the benchmark's span records."""

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import tracing  # noqa: E402


def nest():
    # thread 0: a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9];
    # thread 1: e [0, 6] holds f [2, 5]
    names = ["a", "b", "c", "d", "e", "f"]
    start = np.array([0.0, 1.0, 2.0, 5.0, 0.0, 2.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 6.0, 5.0])
    parent = np.array([-1, 0, 1, 0, -1, 4])
    return tracing.Spans(names=names, name=np.arange(6), start=start, end=end,
                         parent=parent, run=np.array([1, 1, 1, 1, 2, 2]),
                         thread=np.array([0, 0, 0, 0, 1, 1]))


def test_self_time_subtracts_direct_children_only():
    spans = nest()
    own = tracing.self_times(spans.start, spans.end, spans.parent)
    np.testing.assert_allclose(own, [3.0, 2.0, 1.0, 4.0, 3.0, 3.0])


def test_self_times_add_up_to_each_threads_root_spans():
    spans = nest()
    own = tracing.self_times(spans.start, spans.end, spans.parent)
    assert own[spans.thread == 0].sum() == pytest.approx(10.0)
    assert own[spans.thread == 1].sum() == pytest.approx(6.0)
    assert tracing.thread_seconds(spans) == pytest.approx(16.0)


def test_layer_totals_merge_spans_of_one_name():
    spans = nest()
    spans.name = np.array([0, 1, 1, 1, 0, 1])   # names: a, b only
    spans.names = ["a", "b"]
    assert tracing.layer_totals(spans) == {"a": (2, pytest.approx(6.0)),
                                           "b": (4, pytest.approx(10.0))}


def test_busy_fraction():
    spans = nest()
    # e [0, 6] runs as the pool job on thread 1, under a [0, 10] on thread 0
    assert tracing.busy_fraction(spans, "a", "e") == pytest.approx(0.6)
    assert tracing.busy_fraction(spans, "missing", "e") == 0.0


def test_wrapped_calls_record_nested_spans_per_thread():
    tracer = tracing.Tracer()

    def leaf():
        return 1

    def outer():
        return leaf() + leaf()

    leaf = tracer.wrap(leaf, "leaf")
    outer = tracer.wrap(outer, "bench.workload")
    worker = threading.Thread(target=outer)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert outer() == 2

    spans = tracer.spans()
    assert sorted(np.unique(spans.thread).tolist()) == [0, 1]
    for t in (0, 1):
        mine = spans.thread == t
        roots = mine & (spans.parent < 0)
        assert roots.sum() == 1
        children = spans.parent[mine & (spans.parent >= 0)]
        assert set(children.tolist()) == set(np.flatnonzero(roots).tolist())
        own = tracing.self_times(spans.start, spans.end, spans.parent)
        assert own[mine].sum() == pytest.approx(float(
            (spans.end - spans.start)[roots].sum()), abs=1e-12)
    # each bench.workload call opens its own run; leaves inherit it
    assert len(set(spans.run.tolist())) == 2
