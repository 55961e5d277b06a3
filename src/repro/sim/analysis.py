"""Transaction-log analysis: the one account of bus and arbiter traffic.

The simulator logs every completed message transfer on its bus
(:attr:`repro.sim.bus.SimBus.transactions`) and every bus grant on its
arbiter (:attr:`repro.sim.arbiter.Arbiter.grants`).  Those two logs
hold everything needed to quantify the effects the paper reasons about
qualitatively -- transfer delays from sharing (Figure 2's "individual
data transfers may be delayed due to bus access conflicts"),
utilization (the 100% ideal of Section 2), and arbitration cost
(Section 6).  :func:`analyze_bus` folds a transaction log into
:class:`BusStats` and :func:`analyze_arbiter` folds a grant log into
:class:`ArbiterStats`.  Each bus is folded once per run
(``SimResult.buses`` / ``SimResult.arbiters``), and every report
surface -- ``SimResult.utilization``, the run report, the Prometheus
text, ``repro-synth profile`` -- reads those records.

Bus utilization has exactly one definition, :attr:`BusStats.utilization`:
the clocks the bus spent inside transactions, ``Σ (end − start)``,
divided by the run's end clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import SimulationError
from repro.obs.simmetrics import Histogram
from repro.sim.bus import Transaction
from repro.spec.access import Direction

#: One arbiter grant-log row: ``(grant clock, requester, clocks waited
#: since the request, queue depth at request time)``.
Grant = Tuple[int, str, int, int]


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel statistics over one simulation run."""

    channel: str
    count: int
    total_clocks: int
    min_clocks: int
    max_clocks: int
    #: Mean clocks between consecutive transaction starts (0.0 with
    #: fewer than two transactions).
    mean_interarrival: float

    @property
    def mean_clocks(self) -> float:
        return self.total_clocks / self.count if self.count else 0.0


@dataclass(frozen=True)
class BusStats:
    """Whole-bus statistics over one simulation run."""

    transactions: int
    #: Bus words moved (one message's words per transaction; a retried
    #: message counts once).
    words: int
    #: Clocks spent inside transactions: ``Σ (end − start)``, recovery
    #: clocks of retried messages included.
    busy_clocks: int
    #: The run's end clock, the utilization denominator.
    end_clock: int
    #: Clocks from the first transaction start to the last end.
    span_clocks: int
    #: Largest number of clocks the bus sat idle between transactions.
    longest_idle_gap: int
    reads: int
    writes: int
    #: Message retransmissions on protected buses.
    retries: int
    #: Whole-message latency histogram (``end − start`` per transaction).
    latency: Histogram
    per_channel: Dict[str, ChannelStats]

    @property
    def utilization(self) -> float:
        """Fraction of the run's clocks the bus was transferring."""
        if self.end_clock <= 0:
            return 0.0
        return self.busy_clocks / self.end_clock


@dataclass(frozen=True)
class ArbiterStats:
    """Per-bus arbitration statistics over one simulation run."""

    #: Grants issued (every request of a finished run is granted).
    requests: int
    #: Grants per requester, sorted by requester.
    grants: Dict[str, int]
    #: Total clocks requesters waited for grants.
    wait_clocks: int
    #: Grant-wait histogram.
    wait: Histogram
    max_queue_depth: int
    mean_queue_depth: float


def channel_stats(transactions: Sequence[Transaction],
                  channel: str) -> ChannelStats:
    """Statistics of one channel's transactions."""
    mine = sorted((t for t in transactions if t.channel == channel),
                  key=lambda t: t.start_time)
    if not mine:
        raise SimulationError(f"no transactions for channel {channel!r}")
    durations = [t.clocks for t in mine]
    starts = [t.start_time for t in mine]
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    return ChannelStats(
        channel=channel,
        count=len(mine),
        total_clocks=sum(durations),
        min_clocks=min(durations),
        max_clocks=max(durations),
        mean_interarrival=(sum(gaps) / len(gaps)) if gaps else 0.0,
    )


def analyze_bus(transactions: Sequence[Transaction],
                end_clock: int) -> BusStats:
    """Fold one bus's transaction log, over a run that ended at
    ``end_clock``, into its statistics."""
    ordered = sorted(transactions, key=lambda t: t.start_time)
    latency = Histogram()
    by_channel: Dict[str, List[Transaction]] = {}
    busy = words = writes = retries = longest_gap = 0
    previous_end = ordered[0].start_time if ordered else 0
    for t in ordered:
        clocks = t.end_time - t.start_time
        busy += clocks
        words += t.words
        retries += t.retries
        if t.direction is Direction.WRITE:
            writes += 1
        latency.observe(clocks)
        longest_gap = max(longest_gap, t.start_time - previous_end)
        previous_end = t.end_time
        by_channel.setdefault(t.channel, []).append(t)
    return BusStats(
        transactions=len(ordered),
        words=words,
        busy_clocks=busy,
        end_clock=end_clock,
        span_clocks=(ordered[-1].end_time - ordered[0].start_time
                     if ordered else 0),
        longest_idle_gap=longest_gap,
        reads=len(ordered) - writes,
        writes=writes,
        retries=retries,
        latency=latency,
        per_channel={name: channel_stats(by_channel[name], name)
                     for name in sorted(by_channel)},
    )


def analyze_arbiter(grants: Sequence[Grant]) -> ArbiterStats:
    """Fold one arbiter's grant log into its statistics."""
    per_requester: Dict[str, int] = {}
    wait = Histogram()
    max_depth = depth_sum = 0
    for _, requester, waited, depth in grants:
        per_requester[requester] = per_requester.get(requester, 0) + 1
        wait.observe(waited)
        depth_sum += depth
        max_depth = max(max_depth, depth)
    return ArbiterStats(
        requests=len(grants),
        grants=dict(sorted(per_requester.items())),
        wait_clocks=wait.total,
        wait=wait,
        max_queue_depth=max_depth,
        mean_queue_depth=depth_sum / len(grants) if grants else 0.0,
    )


def overlap_clocks(first: Sequence[Transaction],
                   second: Sequence[Transaction]) -> int:
    """Total clocks during which transactions of the two logs overlap
    (the lane-parallelism measurement)."""
    total = 0
    for a in first:
        for b in second:
            lo = max(a.start_time, b.start_time)
            hi = min(a.end_time, b.end_time)
            if hi > lo:
                total += hi - lo
    return total


def occupancy_timeline(transactions: Sequence[Transaction],
                       bucket_clocks: int) -> List[Tuple[int, float]]:
    """Bus occupancy per time bucket: ``[(bucket_start, fraction)]``.

    Useful for plotting utilization over a run (the Figure 2 picture).
    """
    if bucket_clocks < 1:
        raise SimulationError(
            f"bucket size must be >= 1 clock, got {bucket_clocks}")
    if not transactions:
        return []
    end = max(t.end_time for t in transactions)
    buckets = [0] * ((end // bucket_clocks) + 1)
    for t in transactions:
        for clock in range(t.start_time, t.end_time):
            buckets[clock // bucket_clocks] += 1
    return [(index * bucket_clocks, count / bucket_clocks)
            for index, count in enumerate(buckets)]


def format_bus_stats(stats: BusStats) -> str:
    """Plain-text rendering of bus statistics."""
    lines = [
        f"transactions : {stats.transactions}",
        f"busy clocks  : {stats.busy_clocks} of {stats.end_clock} run "
        f"clocks (utilization {stats.utilization:.3f})",
        f"span         : {stats.span_clocks} clocks, first start to "
        "last end",
        f"longest idle : {stats.longest_idle_gap} clocks",
    ]
    if stats.per_channel:
        lines.append(f"{'channel':<12} {'count':>6} {'mean clk':>9} "
                     f"{'min':>5} {'max':>5} {'interarrival':>13}")
        for name, ch in stats.per_channel.items():
            lines.append(
                f"{name:<12} {ch.count:>6} {ch.mean_clocks:>9.2f} "
                f"{ch.min_clocks:>5} {ch.max_clocks:>5} "
                f"{ch.mean_interarrival:>13.2f}")
    return "\n".join(lines)
