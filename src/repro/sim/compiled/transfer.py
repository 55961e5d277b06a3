"""Transfer lowering: one specialized coroutine per (channel, caller).

Three tiers, decided per channel at compile time:

* **fused** -- no observer can tell the words apart: no flight
  recorder, no signal tracing, no fault injector on the bus, and no
  potentially-concurrent process touches the served variable.  The
  whole message collapses to the storage operation plus a single
  ``Wait(elapsed)`` with the protocol's structural clock count; the
  variable server never wakes.  Transaction rows and grant-log rows
  come out identical to the interpreter's, so every statistic folded
  from them (:mod:`repro.sim.analysis`) does too.  A fused transfer
  has no observer hooks to guard: the tier is only chosen when none
  is attached.

* **specialized** -- plain handshake and strobed transfers with real
  signal activity, but the per-word field slicing of ``_word_parts`` /
  ``_gather`` constant-folded into precomputed ``(shift, mask,
  offset)`` triples per (protocol, word width).  Fault injector and
  flight recorder hooks are threaded through exactly like the
  interpreter's accessor coroutines (each behind an ``is not None``
  test), and the error strings match.

* **interp** -- everything else (protected or burst transfers under
  observation, malformed protection plans) delegates to
  :meth:`repro.sim.bus.SimBus.accessor_transfer` unchanged.

Structural elapsed clocks (uncontended, clean run):

===================  =======================================
full handshake       ``2`` per word
burst                ``1`` grant + ``1`` per word + ``1`` release
strobed              ``1`` per word
protected handshake  ``2`` per word (timeouts never fire clean)
===================  =======================================
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.protogen.procedures import FieldKind, Role
from repro.sim.bus import SimBus, Transaction
from repro.sim.kernel import Delta, Wait

_W1 = Wait(1)
_DELTA = Delta()

#: transfer mode literals, also used in ``--emit-sim-source`` manifests.
FUSED = "fused"
SPECIALIZED = "specialized"
INTERP = "interp"

TransferFn = Callable[[Optional[int], Optional[int]], Generator]


def plan_channel(sim_bus: SimBus, pair, contested,
                 recorder, trace: bool) -> Tuple[str, str]:
    """Decide a channel's transfer tier -> ``(mode, reason)``.

    ``reason`` explains why the *faster* tier was not available (empty
    for fused).
    """
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

    protection = sim_bus.protection
    if protection is not None:
        if protection.retry_step < 1:
            return INTERP, ("malformed protection plan (retry_step < 1); "
                            "interpreter raises the exact diagnostic")
        if not sim_bus.uses_handshake or sim_bus.uses_burst:
            return INTERP, "protected non-handshake protocol shape"
        if blockers:
            return INTERP, ("protected transfer needs word-exact "
                            "signals: " + "; ".join(blockers))
        return FUSED, ""
    if blockers:
        if sim_bus.uses_burst:
            return INTERP, ("burst transfer needs word-exact signals: "
                            + "; ".join(blockers))
        return SPECIALIZED, "; ".join(blockers)
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
    if mode == SPECIALIZED:
        return _make_specialized(sim_bus, pair, initiator)

    def interp_transfer(address, data):
        return sim_bus.accessor_transfer(pair, initiator, address, data)

    return interp_transfer


def _word_plan(layout, width: int):
    """Per-word constant fold of ``_word_parts`` / ``_gather``:
    ``(index, accessor_parts, accessor_mask, server_parts)`` where a
    part is ``(message_shift, slice_mask, word_shift)``."""
    plan = []
    for word in layout.words(width):
        acc = []
        acc_mask = 0
        for ws in word.slices_driven_by(Role.ACCESSOR):
            slice_mask = (1 << ws.bits) - 1
            acc.append((ws.field.offset + ws.field_lo, slice_mask,
                        ws.word_offset))
            acc_mask |= slice_mask << ws.word_offset
        srv = []
        for ws in word.slices_driven_by(Role.SERVER):
            slice_mask = (1 << ws.bits) - 1
            srv.append((ws.word_offset, slice_mask,
                        ws.field.offset + ws.field_lo))
        plan.append((word.index, tuple(acc), acc_mask, tuple(srv)))
    return tuple(plan)


def _packers(layout):
    """Straight-line equivalents of ``layout.pack`` for unprotected
    layouts (and of the fused read/write field constants)."""
    addr_field = layout.field(FieldKind.ADDRESS)
    data_field = layout.field(FieldKind.DATA)
    assert data_field is not None
    data_mask = (1 << data_field.bits) - 1
    data_off = data_field.offset
    if addr_field is not None:
        addr_mask = (1 << addr_field.bits) - 1
        addr_off = addr_field.offset

        def pack_write(address, data):
            return ((address & addr_mask) << addr_off) \
                | ((data & data_mask) << data_off)

        def pack_read(address):
            return (address & addr_mask) << addr_off
    else:
        def pack_write(address, data):
            return (data & data_mask) << data_off

        def pack_read(address):
            return 0
    return pack_write, pack_read, data_off, data_mask


def _finish(bus: SimBus, nwords: int, ch_name: str,
            direction, initiator: str, start_time: int,
            address, logged_data, result, flight):
    """Shared transaction bookkeeping tail (clean run, retries=0)."""
    bus.transactions.append(Transaction(
        start_time=start_time, end_time=bus.sim.now,
        channel=ch_name, direction=direction,
        address=address, data=logged_data or 0, initiator=initiator,
        retries=0, words=nwords,
    ))
    if flight is not None:
        bus.recorder.on_commit(flight, bus.sim.now, 0)
    return result


def _make_fused(bus: SimBus, pair, initiator: str, storage) -> TransferFn:
    channel = pair.channel
    layout = pair.layout
    nwords = layout.word_count(bus.width)
    elapsed = _fused_elapsed(bus, nwords)
    _, _, _, data_mask = _packers(layout)
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
                       initiator, start_time, address, logged, result,
                       None)

    return transfer


def _fused_elapsed(bus: SimBus, nwords: int) -> int:
    if bus.protection is not None or \
            (bus.uses_handshake and not bus.uses_burst):
        return 2 * nwords
    if bus.uses_burst:
        return nwords + 2
    return nwords


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
    nwords = layout.word_count(bus.width)
    elapsed = _fused_elapsed(bus, nwords)
    _, _, _, data_mask = _packers(layout)
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
                       initiator, start_time, address, logged, result,
                       None)

    return transfer


def _make_specialized(bus: SimBus, pair, initiator: str) -> TransferFn:
    """Full handshake (START/DONE, 2 clocks per word) or two-phase
    strobe (1 clock per word), word by word on the real signals."""
    channel = pair.channel
    layout = pair.layout
    word_plan = _word_plan(layout, bus.width)
    nwords = len(word_plan)
    pack_write, pack_read, data_off, data_mask = _packers(layout)
    code = bus.structure.ids.code(channel.name)
    check_extra = bus._check_extra_words(layout)
    handshake = bus.uses_handshake
    start_sig = bus.controls.get("START")
    done_sig = bus.controls.get("DONE")
    strobe = bus._strobe
    data_lines = bus.data
    id_lines = bus.id_lines
    sim = bus.sim
    bus_name = bus.structure.name
    is_write = channel.is_write
    has_address = layout.has_address
    direction = channel.direction
    ch_name = channel.name

    def transfer(address, data):
        if is_write:
            if data is None:
                raise SimulationError(
                    f"channel {ch_name}: write transfer needs data"
                )
            message = pack_write(address, data)
        else:
            message = pack_read(address) if has_address else 0
        start_time = sim.now
        recorder = bus.recorder
        if recorder is not None:
            flight = recorder.on_transfer_start(
                bus_name, ch_name, initiator, start_time, nwords,
                check_extra, direction)
        else:
            flight = None
        injector = bus.injector
        if injector is not None:
            injector.begin_attempt(bus_name)
        received = 0
        for index, acc, acc_mask, srv in word_plan:
            if injector is not None:
                injector.begin_word(bus_name, index)
            value = 0
            for shift, mask, off in acc:
                value |= ((message >> shift) & mask) << off
            data_lines.drive("accessor", 0, 0)
            data_lines.drive("server", 0, 0)
            id_lines.set(code)
            data_lines.drive("accessor", value, acc_mask)
            if handshake:
                start_sig.set(1)
            else:
                strobe.set(strobe.value + 1)
            if flight is not None:
                recorder.on_word_start(flight, sim.now, index)
            if handshake:
                yield _W1
                if done_sig.value != 1:
                    raise SimulationError(
                        f"bus {bus_name}: DONE not asserted one "
                        f"clock after START (word {index}, ID {code}); "
                        "is the variable process running?"
                    )
            else:
                # The server answers within this clock's passes.
                yield _DELTA
            bus_word = data_lines.value
            for off, mask, dst in srv:
                received |= ((bus_word >> off) & mask) << dst
            if not handshake:
                yield _W1
            if flight is not None:
                recorder.on_data_phase(flight, sim.now, index)
            if handshake:
                start_sig.set(0)
                yield _W1
                if done_sig.value != 0:
                    raise SimulationError(
                        f"bus {bus_name}: DONE stuck high after "
                        f"START fell (word {index}, ID {code})"
                    )
                if flight is not None:
                    recorder.on_handshake_phase(flight, sim.now, index)
        if is_write:
            result = None
            logged = data
        else:
            result = (received >> data_off) & data_mask
            logged = result
        return _finish(bus, nwords, ch_name, direction,
                       initiator, start_time, address, logged, result,
                       flight)

    return transfer
