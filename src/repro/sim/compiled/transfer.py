"""Transfer lowering: one coroutine per (channel, caller).

Two tiers, decided per channel at compile time:

* **fused** -- no observer can tell the words apart: no flight
  recorder, no signal tracing, no fault injector on the bus, and no
  potentially-concurrent process touches the served variable.  The
  whole message collapses to the storage operation plus a single
  ``Wait`` of the protocol's message clocks
  (:meth:`~repro.protocols.Protocol.message_clocks`); the variable
  server never wakes.  Transaction rows and grant-log rows come out
  identical to the interpreter's, so every statistic folded from them
  (:mod:`repro.sim.analysis`) does too.  A fused transfer has no
  observer hooks to guard: the tier is only chosen when none is
  attached.

* **interp** -- everything observed (recorder, ``trace=True`` or a
  fault injector), every contested channel, and malformed protection
  plans run :meth:`repro.sim.bus.SimBus.accessor_transfer` itself, so
  the words on the wires come from the synthesized controllers the
  bus executes.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Tuple

from repro.protogen.procedures import FieldKind
from repro.sim.bus import SimBus, Transaction
from repro.sim.kernel import Wait

#: transfer mode literals, also used in ``--emit-sim-source`` manifests.
FUSED = "fused"
INTERP = "interp"

TransferFn = Callable[[Optional[int], Optional[int]], Generator]


def plan_channel(sim_bus: SimBus, pair, contested,
                 recorder, trace: bool) -> Tuple[str, str]:
    """Decide a channel's transfer tier -> ``(mode, reason)``.

    ``reason`` explains why the fused tier was not available (empty
    for fused).
    """
    protection = sim_bus.protection
    if protection is not None and protection.retry_step < 1:
        return INTERP, ("malformed protection plan (retry_step < 1); "
                        "interpreter raises the exact diagnostic")
    blockers: List[str] = []
    if recorder is not None:
        blockers.append("flight recorder attached")
    if trace:
        blockers.append("signal tracing on")
    if sim_bus.injector is not None:
        blockers.append(f"fault injector targets bus {sim_bus.name}")
    if pair.channel.variable in contested:
        blockers.append(
            f"served variable {pair.channel.variable.name!r} is touched "
            "by a potentially-concurrent process")
    if blockers:
        return INTERP, "; ".join(blockers)
    return FUSED, ""


def make_transfer(sim_bus: SimBus, pair, initiator: str, mode: str,
                  storage=None, deferred: bool = False) -> TransferFn:
    """Build the ``(address, raw_data) -> generator`` coroutine for one
    channel as called by ``initiator``.  ``storage`` is the served
    variable's :class:`~repro.sim.bus.StorageAdapter` (fused tier only
    -- it performs the server's commit/fetch directly).  ``deferred``
    selects the ``(address, raw_data, pending_clocks) -> generator``
    variant that folds the caller's batched clocks into the transfer
    wait (fused tier on a provably uncontended bus only)."""
    if mode == FUSED:
        if deferred:
            return _make_fused_deferred(sim_bus, pair, initiator,
                                        storage)
        return _make_fused(sim_bus, pair, initiator, storage)

    def interp_transfer(address, data):
        return sim_bus.accessor_transfer(pair, initiator, address, data)

    return interp_transfer


def _fused_shape(bus: SimBus, layout) -> Tuple[int, int, int]:
    """``(words, clocks, data_mask)`` of a fused message: its clean
    run's bus occupancy and the mask of its DATA field."""
    nwords = layout.word_count(bus.width)
    data_field = layout.field(FieldKind.DATA)
    assert data_field is not None
    return (nwords, bus.structure.protocol.message_clocks(nwords),
            (1 << data_field.bits) - 1)


def _finish(bus: SimBus, nwords: int, ch_name: str,
            direction, initiator: str, start_time: int,
            address, logged_data, result):
    """Shared transaction bookkeeping tail (clean run, retries=0)."""
    bus.transactions.append(Transaction(
        start_time=start_time, end_time=bus.sim.now,
        channel=ch_name, direction=direction,
        address=address, data=logged_data or 0, initiator=initiator,
        retries=0, words=nwords,
    ))
    return result


def _make_fused(bus: SimBus, pair, initiator: str, storage) -> TransferFn:
    channel = pair.channel
    layout = pair.layout
    nwords, elapsed, data_mask = _fused_shape(bus, layout)
    sim = bus.sim
    is_write = channel.is_write
    direction = channel.direction
    ch_name = channel.name
    wait = Wait(elapsed)

    def transfer(address, data):
        start_time = sim.now
        if is_write:
            # The server commits the DATA field's bits of the packed
            # message; the mask matters when the field was tightened.
            storage.write(address, data & data_mask)
            result = None
            logged = data
        else:
            result = storage.read(address) & data_mask
            logged = result
        yield wait
        return _finish(bus, nwords, ch_name, direction,
                       initiator, start_time, address, logged, result)

    return transfer


def _make_fused_deferred(bus: SimBus, pair, initiator: str,
                         storage) -> TransferFn:
    """Fused transfer that also *inlines arbitration*: on a bus whose
    accessors are totally schedule-ordered, ``acquire`` can never block
    and never yields, so the caller's pending batched clocks ride along
    in the transfer's single wait instead of being flushed first.  The
    arbiter's grant log gets the row ``ImmediateArbiter.acquire`` would
    write at the virtual grant clock (no wait, queue depth 1); the
    storage commit runs up to ``pending`` clocks early, which is
    unobservable because fusion already proved no concurrent process
    touches the served variable."""
    channel = pair.channel
    layout = pair.layout
    nwords, elapsed, data_mask = _fused_shape(bus, layout)
    sim = bus.sim
    grants = bus.arbiter.grants
    is_write = channel.is_write
    direction = channel.direction
    ch_name = channel.name

    def transfer(address, data, pending):
        start_time = sim.now + pending
        grants.append((start_time, initiator, 0, 1))
        if is_write:
            storage.write(address, data & data_mask)
            result = None
            logged = data
        else:
            result = storage.read(address) & data_mask
            logged = result
        yield Wait(pending + elapsed)
        return _finish(bus, nwords, ch_name, direction,
                       initiator, start_time, address, logged, result)

    return transfer
