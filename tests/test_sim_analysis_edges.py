"""Edge cases for transaction-log analysis.

Complements ``tests/test_analysis.py`` (which covers the happy paths)
with the boundary conditions the observability layer relies on: empty
logs, single-transaction logs (the degenerate interarrival case), and
overlapping transactions on a shared bus, where busy clocks legitimately
exceed the span.
"""

import pytest

from repro.sim.analysis import (
    analyze_bus,
    channel_stats,
    format_bus_stats,
    occupancy_timeline,
    overlap_clocks,
)
from repro.sim.bus import Transaction
from repro.spec.access import Direction


def txn(start, end, channel="c", direction=Direction.WRITE):
    return Transaction(start_time=start, end_time=end, channel=channel,
                       direction=direction, address=None, data=0,
                       initiator="B")


class TestEmptyLog:
    def test_analyze_bus_all_fields_zero(self):
        stats = analyze_bus([], end_clock=0)
        assert stats.transactions == 0
        assert stats.busy_clocks == 0
        assert stats.span_clocks == 0
        assert stats.longest_idle_gap == 0
        assert stats.per_channel == {}
        assert stats.utilization == 0.0

    def test_format_empty_log(self):
        text = format_bus_stats(analyze_bus([], end_clock=0))
        assert "transactions : 0" in text
        # No per-channel table when there are no channels.
        assert "channel" not in text

    def test_overlap_with_empty_side_is_zero(self):
        assert overlap_clocks([], [txn(0, 4)]) == 0
        assert overlap_clocks([txn(0, 4)], []) == 0

    def test_occupancy_timeline_empty(self):
        assert occupancy_timeline([], bucket_clocks=8) == []


class TestSingleTransaction:
    def test_interarrival_degenerates_to_zero(self):
        # One transaction has no start-to-start gaps; the stat
        # collapses to 0.0 rather than dividing by zero.
        stats = channel_stats([txn(5, 9)], "c")
        assert stats.count == 1
        assert stats.mean_interarrival == 0.0
        assert stats.min_clocks == stats.max_clocks == 4
        assert stats.mean_clocks == pytest.approx(4.0)

    def test_bus_fully_utilized_over_own_span(self):
        stats = analyze_bus([txn(5, 9)], end_clock=9)
        assert stats.span_clocks == 4
        assert stats.busy_clocks == stats.span_clocks == 4
        # Utilization is over the whole run: clocks 0..5 were idle.
        assert stats.utilization == pytest.approx(4 / 9)
        assert stats.longest_idle_gap == 0

    def test_format_single_transaction(self):
        text = format_bus_stats(analyze_bus([txn(5, 9)], end_clock=9))
        assert "transactions : 1" in text
        assert "0.00" in text  # interarrival column


class TestOverlappingSharedBus:
    """Two channels whose transactions overlap in time on one bus.

    This happens when lane-split buses run concurrently: the combined
    log's busy clocks can exceed its span, so utilization > 1 is the
    tell-tale of parallel lanes rather than a bug.
    """

    def test_busy_clocks_exceed_span(self):
        log = [txn(0, 10, "a"), txn(4, 14, "b")]
        stats = analyze_bus(log, end_clock=14)
        assert stats.span_clocks == 14
        assert stats.busy_clocks == 20
        assert stats.utilization == pytest.approx(20 / 14)
        assert stats.longest_idle_gap == 0

    def test_overlap_measures_the_concurrency(self):
        a = [txn(0, 10, "a")]
        b = [txn(4, 14, "b")]
        assert overlap_clocks(a, b) == 6
        # Symmetric.
        assert overlap_clocks(b, a) == 6

    def test_identical_windows_fully_overlap(self):
        a = [txn(0, 8, "a")]
        b = [txn(0, 8, "b")]
        assert overlap_clocks(a, b) == 8

    def test_per_channel_stats_unaffected_by_overlap(self):
        log = [txn(0, 10, "a"), txn(4, 14, "b"), txn(20, 24, "a")]
        stats = analyze_bus(log, end_clock=24)
        assert stats.per_channel["a"].count == 2
        assert stats.per_channel["a"].mean_interarrival == pytest.approx(20.0)
        assert stats.per_channel["b"].count == 1

    def test_occupancy_counts_stacked_lanes(self):
        # Both transactions cover clocks 4..8, so those buckets see
        # double occupancy.
        log = [txn(0, 8, "a"), txn(4, 12, "b")]
        timeline = occupancy_timeline(log, bucket_clocks=4)
        assert timeline[0] == (0, 1.0)
        assert timeline[1] == (4, 2.0)   # two lanes active
        assert timeline[2] == (8, 1.0)
