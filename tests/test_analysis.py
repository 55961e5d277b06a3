"""Tests for transaction-log analysis."""

import pytest

from repro.errors import SimulationError
from repro.protogen.refine import generate_protocol
from repro.sim.analysis import (
    analyze_bus,
    channel_stats,
    format_bus_stats,
    occupancy_timeline,
    overlap_clocks,
)
from repro.sim.bus import Transaction
from repro.sim.runtime import simulate
from repro.spec.access import Direction

from tests.conftest import make_fig3


def txn(start, end, channel="c", direction=Direction.WRITE):
    return Transaction(start_time=start, end_time=end, channel=channel,
                       direction=direction, address=None, data=0,
                       initiator="B")


class TestChannelStats:
    def test_basic_stats(self):
        log = [txn(0, 4), txn(10, 16), txn(20, 24)]
        stats = channel_stats(log, "c")
        assert stats.count == 3
        assert stats.total_clocks == 4 + 6 + 4
        assert stats.min_clocks == 4
        assert stats.max_clocks == 6
        assert stats.mean_clocks == pytest.approx(14 / 3)
        assert stats.mean_interarrival == pytest.approx(10.0)

    def test_single_transaction_has_zero_interarrival(self):
        stats = channel_stats([txn(0, 4)], "c")
        assert stats.mean_interarrival == 0.0

    def test_missing_channel_raises(self):
        with pytest.raises(SimulationError):
            channel_stats([txn(0, 4)], "other")


class TestAnalyzeBus:
    def test_aggregates(self):
        log = [txn(0, 4, "a"), txn(6, 10, "b"), txn(10, 14, "a")]
        stats = analyze_bus(log, end_clock=20)
        assert stats.transactions == 3
        assert stats.busy_clocks == 12
        assert stats.span_clocks == 14
        assert stats.longest_idle_gap == 2
        assert set(stats.per_channel) == {"a", "b"}
        # Utilization is busy clocks over the whole run, not the span.
        assert stats.utilization == pytest.approx(12 / 20)

    def test_empty_log(self):
        stats = analyze_bus([], end_clock=10)
        assert stats.transactions == 0
        assert stats.utilization == 0.0

    def test_from_real_simulation(self, fig3):
        refined = generate_protocol(fig3.system, fig3.group, width=8)
        result = simulate(refined, schedule=["P", "Q"])
        stats = analyze_bus(result.transactions[fig3.group.name],
                            result.end_time)
        assert stats == result.buses[fig3.group.name]
        assert stats.transactions == 4
        assert 0 < stats.utilization <= 1.0
        # Sequential schedule: transactions never overlap, so busy
        # clocks can't exceed the span.
        assert stats.busy_clocks <= stats.span_clocks

    def test_format(self):
        text = format_bus_stats(analyze_bus([txn(0, 4, "a")], 4))
        assert "transactions : 1" in text
        assert "a" in text


class TestOverlap:
    def test_disjoint_is_zero(self):
        assert overlap_clocks([txn(0, 4)], [txn(4, 8)]) == 0

    def test_partial_overlap(self):
        assert overlap_clocks([txn(0, 10)], [txn(6, 16)]) == 4

    def test_containment(self):
        assert overlap_clocks([txn(0, 10)], [txn(2, 5)]) == 3


class TestOccupancyTimeline:
    def test_buckets(self):
        log = [txn(0, 4), txn(8, 12)]
        timeline = occupancy_timeline(log, bucket_clocks=4)
        assert timeline[0] == (0, 1.0)   # fully busy
        assert timeline[1] == (4, 0.0)   # idle
        assert timeline[2] == (8, 1.0)

    def test_partial_bucket(self):
        timeline = occupancy_timeline([txn(0, 2)], bucket_clocks=4)
        assert timeline[0] == (0, 0.5)

    def test_bad_bucket_size(self):
        with pytest.raises(SimulationError):
            occupancy_timeline([txn(0, 2)], bucket_clocks=0)

    def test_empty(self):
        assert occupancy_timeline([], 4) == []
