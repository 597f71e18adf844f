"""Checks on the benchmark's own arithmetic: percentiles, interval unions,
self times and span nesting. Run with `python -m pytest perfbench`."""

import itertools

import pytest

from spans import Span, Tracer, self_times, union_length
from stats import percentile


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


class TestPercentile:
    def test_matches_linear_interpolation(self):
        xs = [4.0, 1.0, 3.0, 2.0]
        assert percentile(xs, 0) == 1.0
        assert percentile(xs, 100) == 4.0
        assert percentile(xs, 50) == 2.5
        assert percentile(xs, 90) == pytest.approx(3.7)

    def test_p90_of_1_to_101_is_91(self):
        assert percentile(range(1, 102), 90) == 91

    def test_single_sample(self):
        assert percentile([7.5], 50) == 7.5
        assert percentile([7.5], 90) == 7.5

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestUnionLength:
    def test_disjoint_and_overlapping(self):
        assert union_length([(0, 1), (2, 3)], 0, 10) == 2
        assert union_length([(0, 2), (1, 3)], 0, 10) == 3
        assert union_length([(1, 2), (0, 5)], 0, 10) == 5

    def test_clipped_to_window(self):
        assert union_length([(-1, 2), (4, 9)], 0, 5) == 3
        assert union_length([(6, 9)], 0, 5) == 0
        assert union_length([], 0, 5) == 0

    def test_order_independent(self):
        intervals = [(0, 1), (0.5, 2), (3, 4), (3.5, 3.75)]
        for perm in itertools.permutations(intervals):
            assert union_length(perm, 0, 10) == pytest.approx(3.0)


class TestSelfTimes:
    def test_children_and_aggregate_are_subtracted(self):
        spans = [
            Span(0, "root", None, 0.0, 10.0, agg_s=1.0),
            Span(1, "a", 0, 1.0, 4.0),
            Span(2, "b", 0, 3.0, 5.0),
            Span(3, "c", 1, 2.0, 3.0),
        ]
        got = self_times(spans)
        assert got[0] == pytest.approx(10.0 - 4.0 - 1.0)  # children cover [1, 5]
        assert got[1] == pytest.approx(3.0 - 1.0)
        assert got[2] == pytest.approx(2.0)
        assert got[3] == pytest.approx(1.0)

    def test_self_times_sum_to_root_duration(self):
        spans = [
            Span(0, "root", None, 0.0, 8.0),
            Span(1, "a", 0, 1.0, 3.0),
            Span(2, "b", 1, 1.5, 2.5),
            Span(3, "c", 0, 4.0, 7.0),
        ]
        assert sum(self_times(spans).values()) == pytest.approx(8.0)


class TestTracer:
    def test_parent_is_innermost_open_span(self):
        tracer = Tracer(clock=fake_clock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))
        outer = tracer.begin("outer")
        inner = tracer.begin("inner")
        tracer.end(inner)
        sibling = tracer.begin("sibling")
        tracer.end(sibling)
        tracer.end(outer)
        assert (outer.parent, inner.parent, sibling.parent) == (None, outer.id, outer.id)
        assert (outer.start, outer.end) == (0.0, 5.0)
        assert tracer.current is None

    def test_out_of_order_close_is_an_error(self):
        tracer = Tracer(clock=fake_clock([0.0, 1.0, 2.0]))
        outer = tracer.begin("outer")
        tracer.begin("inner")
        with pytest.raises(RuntimeError):
            tracer.end(outer)

    def test_wrapped_calls_nest_and_summarize(self):
        tracer = Tracer(clock=fake_clock([0.0, 1.0, 3.0, 10.0]))

        def leaf():
            return "leaf"

        traced_leaf = tracer.wrap(leaf, "leaf")
        traced_root = tracer.wrap(lambda: traced_leaf(), "root")
        assert traced_root() == "leaf"
        summary = tracer.summary()
        assert summary["root.calls"] == 1 and summary["leaf.calls"] == 1
        assert summary["root.total_s"] == 10.0
        assert summary["root.self_s"] == 8.0
        assert summary["leaf.self_s"] == 2.0

    def test_error_closes_span_and_reports(self):
        tracer = Tracer(clock=fake_clock([0.0, 2.0]))
        errors = []

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            tracer.wrap(boom, "boom", on_error=errors.append)()
        assert tracer.current is None
        assert tracer.spans[0].duration == 2.0
        assert len(errors) == 1

    def test_aggregate_time_is_charged_to_enclosing_span(self):
        # root opens at 0; two aggregate calls take 1 s and 2 s; root closes at 10
        tracer = Tracer(clock=fake_clock([0.0, 1.0, 2.0, 4.0, 6.0, 10.0]))
        counted = tracer.wrap_aggregate(lambda v: v, "rates")
        span = tracer.begin("root")
        counted(1)
        counted(2)
        tracer.end(span)
        summary = tracer.summary()
        assert summary["rates.calls"] == 2
        assert summary["rates.self_s"] == 3.0
        assert summary["root.self_s"] == 7.0
