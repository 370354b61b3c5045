"""Tests of the benchmark's own metric derivation and known answers.

Run from the root of the repository::

    python -m pytest perfbench/test_metrics.py
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from metrics import (  # noqa: E402
    Tally,
    covered,
    percentile,
    report_sections,
    same_table,
    select_metrics,
    self_times,
    supported_percentile,
)
from oracle import Answers, reference_racy  # noqa: E402
from spans import SpanRecorder  # noqa: E402


class TestSelfTime:
    def test_leaf_keeps_its_duration(self):
        assert self_times([(1, None, 0.0, 2.5)]) == {1: 2.5}

    def test_children_are_subtracted(self):
        got = self_times([
            (1, None, 0.0, 10.0),
            (2, 1, 1.0, 3.0),
            (3, 1, 5.0, 9.0),
        ])
        assert got[1] == pytest.approx(4.0)
        assert got[2] == pytest.approx(2.0)
        assert got[3] == pytest.approx(4.0)

    def test_overlapping_children_count_once(self):
        # Two children handed to other threads overlap in time.
        got = self_times([
            (1, None, 0.0, 10.0),
            (2, 1, 2.0, 6.0),
            (3, 1, 4.0, 8.0),
        ])
        assert got[1] == pytest.approx(4.0)

    def test_child_outliving_parent_is_clipped(self):
        got = self_times([(1, None, 0.0, 5.0), (2, 1, 3.0, 9.0)])
        assert got[1] == pytest.approx(3.0)

    def test_grandchildren_only_reduce_their_parent(self):
        got = self_times([
            (1, None, 0.0, 10.0),
            (2, 1, 0.0, 6.0),
            (3, 2, 1.0, 5.0),
        ])
        assert got[1] == pytest.approx(4.0)
        assert got[2] == pytest.approx(2.0)

    def test_covered_union(self):
        assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
        assert covered([], 0, 10) == 0.0

    def test_recorder_nests_spans_per_thread(self):
        rec = SpanRecorder()
        outer = rec.begin("outer", "r1")
        inner = rec.begin("inner")
        rec.end(inner)
        rec.end(outer)
        assert inner.parent == outer.id
        assert inner.rid == "r1"

    def test_recorder_links_cross_thread_work_to_request_root(self):
        rec = SpanRecorder()
        root = rec.root("upload", "u1")
        handed = rec.begin("pool.job", "u1", push=False)
        rec.end(handed)
        rec.end(root)
        assert handed.parent == root.id

    def test_wrap_times_calls_and_restores(self):
        class Layer:
            def work(self, n):
                return n * 2

        rec = SpanRecorder()
        original = Layer.work
        rec.wrap(Layer, "work", "layer.work", attrs=lambda self, n: {"n": n})
        assert Layer().work(21) == 42
        rec.restore()
        assert Layer.work is original
        [span] = rec.spans
        assert span.name == "layer.work" and span.attrs == {"n": 21}
        assert span.duration >= 0.0


class TestPercentileRule:
    def test_median_needs_twenty_samples(self):
        assert supported_percentile(19) is None
        assert supported_percentile(20) == 50.0

    def test_p95_needs_ten_samples_beyond(self):
        assert supported_percentile(199) == 90.0
        assert supported_percentile(200) == 95.0

    def test_p99_needs_a_thousand(self):
        assert supported_percentile(999) == 95.0
        assert supported_percentile(1000) == 99.0

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 95) == 95
        assert percentile([7.0], 99) == 7.0
        assert percentile([3, 1, 2], 50) == 2

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestFailureCounting:
    def test_every_check_is_attempted(self):
        tally = Tally()
        for ok in (True, True, False, True, False):
            tally.check(ok, "x")
        assert (tally.attempted, tally.failed) == (5, 2)
        assert not tally.correct

    def test_no_attempts_is_not_correct(self):
        assert not Tally().correct

    def test_failures_are_counted_past_the_kept_messages(self):
        tally = Tally()
        for i in range(Tally.KEEP + 5):
            tally.check(False, f"op {i}")
        assert tally.failed == Tally.KEEP + 5
        assert tally.failures == [f"op {i}" for i in range(Tally.KEEP)]

    def test_result_object_shape(self):
        tally = Tally()
        tally.check(True)
        result = tally.result({"setup_s": (0.5, "s")})
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["metrics"] == {"setup_s": {"value": 0.5, "unit": "s"}}
        assert result["correct"] is True


class TestSelectMetrics:
    WANTED = {"setup_s": "s", "throughput_per_s": "1/s"}

    def test_wanted_and_extra_are_split(self):
        measured = {"setup_s": (0.5, "s"), "throughput_per_s": (9.0, "1/s"),
                    "analyze.scalar_accesses_per_s": (3.0, "1/s")}
        metrics, extra, missing = select_metrics(measured, self.WANTED, False)
        assert metrics == {"setup_s": (0.5, "s"), "throughput_per_s": (9.0, "1/s")}
        assert extra == {"analyze.scalar_accesses_per_s": (3.0, "1/s")}
        assert missing == []

    def test_missing_end_to_end_metric_is_an_error(self):
        with pytest.raises(ValueError, match="throughput_per_s"):
            select_metrics({"setup_s": (0.5, "s")}, self.WANTED, False)

    def test_unreached_layer_reads_zero(self):
        metrics, _extra, missing = select_metrics(
            {"setup_s": (0.5, "s")}, self.WANTED, True)
        assert metrics["throughput_per_s"] == (0.0, "1/s")
        assert missing == ["throughput_per_s"]

    def test_wrong_unit_is_an_error(self):
        with pytest.raises(ValueError, match="not 1/s"):
            select_metrics({"setup_s": (0.5, "s"), "throughput_per_s": (9.0, "s")},
                           self.WANTED, True)


class TestReportTables:
    COMMITTED = "\n".join([
        "```",
        "== Table A: x ==",
        "",
        "name  v",
        "----  -",
        "b     2",
        "a     1",
        "",
        "mean: 1.5",
        "",
        "== Table B: y ==",
        "only  1",
        "```",
    ])

    def test_rows_in_another_order_match(self):
        sections = report_sections(self.COMMITTED)
        rendered = "== Table A: x ==\n\nname  v\n----  -\na     1\nb     2\n\nmean: 1.5"
        assert same_table(rendered, sections)

    def test_changed_value_does_not_match(self):
        sections = report_sections(self.COMMITTED)
        rendered = "== Table A: x ==\n\nname  v\n----  -\na     1\nb     3\n\nmean: 1.5"
        assert not same_table(rendered, sections)

    def test_unknown_table_does_not_match(self):
        assert not same_table("== Table C: z ==\nrow", report_sections(self.COMMITTED))


class TestKnownAnswers:
    def test_reference_detector_sees_a_seeded_race(self):
        assert reference_racy("cholesky", "simsmall", 1, racy_variant=True)

    def test_racy_variant_without_a_race_is_relabelled(self):
        # cholesky's seeded race does not occur at simsmall, seed 80.
        answers = Answers("simsmall")
        assert not answers.expected_racy("cholesky", 80, True, verdict_racy=False)
        assert answers.relabelled() == ["cholesky/seed80/racy"]

    def test_agreeing_verdict_needs_no_reference_run(self):
        answers = Answers("simsmall")
        assert answers.expected_racy("fft", 1, False, verdict_racy=False) is False
        assert answers.relabelled() == []

    def test_missed_race_is_not_excused(self):
        # A clean verdict on a trace that does race stays a failure.
        answers = Answers("simsmall")
        assert answers.expected_racy("cholesky", 1, True, verdict_racy=False)
