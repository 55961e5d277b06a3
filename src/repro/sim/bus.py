"""Executable buses: the synthesized protocol controllers over wires.

A generated :class:`~repro.protogen.structure.BusStructure` becomes live
signals, and each channel's controller FSM pair -- the objects P1xx/P7xx
prove, read through :func:`~repro.protogen.fsm.channel_controllers` --
runs on them, each state compiled once per bus.  One executor per side
runs every protocol:

* the **accessor** is *clocked*: a state puts its wire effects on the
  bus and holds them one clock, then its guards are read.  A strobe is
  answered within its clock (the accessor latches one delta after it);
  a word's second state latches what its first clock brought; a state
  without actions (rest, the read verdict) takes no clock.
* the **server** is *reactive*: one coroutine per variable process
  routes by the ID on the bus, waits on the guard into its next state
  and fires unguarded edges at once.  A strobe guard is an edge: the
  server wakes on every strobe and tests the ID after waking.

Protection is one overlay on both: guard waits bounded by the plan's
timeout, the NACK/check verdict choosing the retransmitting edges, and
the retry budget.  The word strobe is the REQ line of the half
handshake; on the other buses it models the schedule's clock edge and
is not a counted wire.  A message takes exactly
``protocol.message_clocks`` clocks, so the simulator agrees with the
performance estimator (ref [10]) when uncontended.  In a *read* word
the accessor drives the address wires and the variable process answers
on the data wires, exercising :class:`~repro.sim.signals.DataLines`'
multi-driver resolution for real.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Tuple,
)

from repro.errors import SimulationError
from repro.protogen.fsm import (
    ProtocolFsm,
    parse_actions,
    parse_guard,
    server_rest_guard,
)
from repro.protogen.procedures import ChannelProcedures, FieldKind, Role
from repro.protogen.structure import BusStructure
from repro.protogen.varproc import VariableProcess
from repro.sim.arbiter import Arbiter, ImmediateArbiter
from repro.sim.kernel import Delta, Simulator, Wait, WaitOn
from repro.sim.signals import DataLines, Signal
from repro.spec.access import Direction

if TYPE_CHECKING:
    from repro.obs.flight import FlightRecorder
    from repro.sim.faults import FaultInjector


@dataclass(frozen=True)
class Transaction:
    """One completed message transfer, for analysis and assertions."""

    start_time: int
    end_time: int
    channel: str
    direction: Direction
    address: Optional[int]
    #: Raw (encoded) data bits moved.
    data: int
    initiator: str
    #: Retransmissions a protected transfer needed (0 when clean).
    retries: int = 0
    #: Bus words in the message (counted once however often it was
    #: retransmitted).
    words: int = 0

    @property
    def clocks(self) -> int:
        return self.end_time - self.start_time


class StorageAdapter:
    """Server-side view of one variable's storage, in raw bus bits.

    The bus moves unsigned bit patterns; typed encode/decode happens at
    the edges.  ``read``/``write`` take the element address (``None``
    for scalars).
    """

    def __init__(self, read: Callable[[Optional[int]], int],
                 write: Callable[[Optional[int], int], None]):
        self.read = read
        self.write = write


#: Shared kernel requests: a request carries no per-process state.
_W1 = Wait(1)
_DELTA = Delta()

#: What a state waits on before its next move: nothing (its edge fires
#: at once), a line level, the server rest guard (a server process
#: waits on it for all its channels at once), a strobe edge.
_AT_ONCE, _LEVEL, _ENTRY, _STROBE = range(4)


class _Step:
    """One controller state compiled against a bus's wires."""

    __slots__ = ("name", "word", "rest", "decides", "opens", "ends",
                 "defer", "id_code", "drives", "nacks", "strobe", "edges",
                 "pending", "expects", "wait")


class _Channel:
    """A server process's view of one channel: where its FSM sits and
    the message it is moving."""

    def __init__(self, procs: ChannelProcedures, rest: _Step, lines):
        self.procs, self.rest, self.lines = procs, rest, lines
        self.state, self.transfer = rest, None


class SimBus:
    """Live signals plus the controller executors for one generated bus.

    ``controllers`` maps a channel name to its ``(accessor, server)``
    FSM pair; the runtime passes the refined spec's memo.
    """

    def __init__(self, structure: BusStructure, sim: Simulator,
                 controllers: Callable[[str],
                                       Tuple[ProtocolFsm, ProtocolFsm]],
                 arbiter: Optional[Arbiter] = None, trace: bool = False):
        self.structure = structure
        self.name = structure.name
        self.sim = sim
        self.arbiter = arbiter or ImmediateArbiter(sim)
        clock = lambda: sim.now  # noqa: E731 - tiny closure is clearest
        # structure.control_lines appends the NACK wire on protected
        # buses; the protocol's own lines come first either way.
        self.controls: Dict[str, Signal] = {
            name: Signal(f"{structure.name}.{name}", clock=clock,
                         trace=trace, width=1)
            for name in structure.control_lines
        }
        self.id_lines = Signal(f"{structure.name}.ID", clock=clock,
                               trace=trace,
                               width=max(1, structure.id_lines))
        self.data = DataLines(f"{structure.name}.DATA", structure.width,
                              clock=clock, trace=trace)
        #: Word strobe (see the module docstring).
        if "REQ" in self.controls:
            self._strobe = self.controls["REQ"]
        else:
            self._strobe = Signal(f"{structure.name}._strobe", clock=clock,
                                  trace=trace)
        #: Completed-transfer log; :func:`repro.sim.analysis.analyze_bus`
        #: folds it into the bus's statistics.
        self.transactions: List[Transaction] = []
        #: Optional :class:`repro.sim.faults.FaultInjector`; attached by
        #: the runtime when a fault plan targets this bus.
        self.injector: Optional["FaultInjector"] = None
        #: Optional :class:`repro.obs.flight.FlightRecorder`; attached
        #: by the runtime.  Every hook is None-guarded so unrecorded
        #: runs pay one pointer test per site.
        self.recorder: Optional["FlightRecorder"] = None
        #: Fault-tolerance policy of the generated structure (None for
        #: the paper's plain buses).
        self.protection = structure.protection
        self._nack = self.controls[self.protection.nack_line] \
            if self.protection is not None else None
        #: The guard, less its ID, on which a server leaves rest.
        self._rest = parse_guard(server_rest_guard(structure.protocol))
        self._controllers = controllers
        self._programs: Dict[str, tuple] = {}

    @property
    def width(self) -> int:
        return self.structure.width

    def _clear_word(self) -> None:
        """Turn the data wires over to the next word."""
        self.data.drive("accessor", 0, 0)
        self.data.drive("server", 0, 0)

    def _program(self, procs: ChannelProcedures) -> tuple:
        """The channel's controller pair, compiled on first use ->
        ``(accessor rest step, lines it drives, server rest step, lines
        it drives)``."""
        program = self._programs.get(procs.channel.name)
        if program is None:
            timeout = self.protection and self.protection.timeout_clocks
            accessor, server = self._controllers(procs.channel.name)
            program = self._programs[procs.channel.name] = (
                self._compile(accessor, timeout)
                + self._compile(server, timeout and timeout + 1))
        return program

    def _compile(self, fsm: ProtocolFsm, timeout: Optional[int]) -> tuple:
        """``fsm`` as linked steps -> ``(rest step, control lines its
        states drive)``.  NACK is the protection overlay's line: read as
        the verdict and driven by the overlay, never by a step."""
        nack = self.protection and self.protection.nack_line
        steps = {state.name: _Step() for state in fsm.states}
        word = {state.name: state.word for state in fsm.states}
        last = max(w for w in word.values() if w is not None)
        into: Dict[str, list] = {name: [] for name in steps}
        out: Dict[str, list] = {name: [] for name in steps}
        for transition in fsm.transitions:
            into[transition.target].append(transition)
            out[transition.source].append(transition)

        # Word after word repeats the same action and guard texts.
        @lru_cache(maxsize=None)
        def effects_of(actions: Tuple[str, ...]) -> tuple:
            """``(ID code, drives, raises NACK, strobes)`` of a state."""
            effects = parse_actions(actions)
            return (int(effects.id_code, 2) if effects.id_code else None,
                    tuple((self.controls[line], level)
                          for line, level in effects.drives if line != nack),
                    (nack, 1) in effects.drives, bool(effects.strobes))

        @lru_cache(maxsize=None)
        def guard_of(text: Optional[str]) -> tuple:
            """``(NACK verdict, what the guard waits on, the line level
            it tests, the wait)``."""
            guard = parse_guard(text)
            levels = tuple((self.controls[line], level)
                           for line, level in guard.levels if line != nack)
            if guard.strobes:
                pending = _STROBE
            elif guard.invoke or levels and \
                    guard.levels == self._rest.levels:
                pending = _ENTRY
            else:
                pending = _LEVEL if levels else _AT_ONCE
            return (dict(guard.levels).get(nack), pending,
                    levels[0] if levels else None,
                    _level_wait(levels, timeout) if pending is _LEVEL
                    else None)

        for state in fsm.states:
            step = steps[state.name]
            step.name, step.word, step.rest = \
                state.name, state.word, state.is_initial
            step.decides = not state.actions and not state.is_initial
            # A state opens its word when entered from outside it (or
            # anew on a retry edge); the message ends on leaving its
            # last word.  A state entered only on unguarded edges (the
            # burst's RELEASE) applies its drives once its own guard
            # holds, so DONE falls after START.
            step.opens = state.word is not None and any(
                t.is_retry or word[t.source] != state.word
                for t in into[state.name])
            step.ends = state.word == last and any(
                word[t.target] != last for t in out[state.name])
            step.defer = all(t.guard is None for t in into[state.name])
            step.id_code, step.drives, step.nacks, step.strobe = \
                effects_of(state.actions)
            guards = [guard_of(t.guard) for t in out[state.name]]
            step.edges = tuple((steps[t.target], guard[0], t.is_retry)
                               for t, guard in zip(out[state.name], guards))
            # A generated state's edges share their tests but for the
            # NACK verdict.
            step.pending, step.expects, step.wait = guards[0][1:]
        lines = dict.fromkeys(signal for step in steps.values()
                              for signal, _ in step.drives)
        return steps[fsm.initial_state().name], tuple(lines)

    # ------------------------------------------------------------------
    # Accessor side
    # ------------------------------------------------------------------

    def accessor_transfer(self, procs: ChannelProcedures, initiator: str,
                          address: Optional[int],
                          data: Optional[int]) -> Generator:
        """Coroutine performing one whole message transfer (call with
        ``yield from``): the clocked executor, stepping the accessor FSM
        from rest back to rest.  ``data`` is the raw encoded value for
        writes, ``None`` for reads, which return the raw received data.
        The caller must hold the bus (arbiter).  A guard failing on an
        unprotected bus, or a spent retry budget, raises
        :class:`SimulationError`: a fault is *never* absorbed silently.
        """
        channel, layout = procs.channel, procs.layout
        if channel.is_write:
            if data is None:
                raise SimulationError(
                    f"channel {channel.name}: write transfer needs data")
            message = layout.pack(address, data)
        else:
            message = layout.pack(address, 0) if layout.has_address else 0
        words = layout.words(self.width)
        sim, wires, strobe, nack = self.sim, self.data, self._strobe, \
            self._nack
        injector, recorder, plan = self.injector, self.recorder, \
            self.protection
        start_time = sim.now
        flight = None if recorder is None else recorder.on_transfer_start(
            self.name, channel.name, initiator, start_time, len(words),
            self._check_extra_words(layout), channel.direction)
        if injector is not None:
            injector.begin_attempt(self.name)
        if plan is not None:
            if plan.retry_step < 1:
                raise SimulationError(
                    f"bus {self.name}: protection retry_step must be >= "
                    f"1, got {plan.retry_step} (the retry budget would "
                    "never shrink)")
            budget = plan.max_retries
        rest, lines = self._program(procs)[:2]
        code = self.structure.ids.code(channel.name)
        retries, step = 0, None
        while True:
            if step is None:                    # a new attempt
                step, received, nacked = rest.edges[0][0], 0, False
                if plan is not None and flight is not None:
                    recorder.on_attempt_begin(flight, sim.now)
            k = step.word
            if step.opens:
                if injector is not None:
                    injector.begin_word(self.name, k)
                value, mask = words[k].drive(Role.ACCESSOR, message)
                self._clear_word()
                if step.id_code is not None:
                    self.id_lines.set(step.id_code)
                wires.drive("accessor", value, mask)
            elif k is not None:
                # A word's second clock latches what the first brought.
                received |= words[k].gather(Role.SERVER, wires.value)
                if flight is not None:
                    recorder.on_data_phase(flight, sim.now, k)
                nacked = nacked or nack is not None and nack.value == 1
            elif step.id_code is not None:
                self._clear_word()
                self.id_lines.set(step.id_code)
            for signal, level in step.drives:
                signal.set(level)
            if step.strobe:
                strobe.set(strobe.value + 1)
            if flight is not None and step.opens:
                recorder.on_word_start(flight, sim.now, k)
            if step.strobe:
                # The server answers within the strobe's clock.
                yield _DELTA
                received |= words[k].gather(Role.SERVER, wires.value)
                yield _W1
                if flight is not None:
                    recorder.on_data_phase(flight, sim.now, k)
            else:
                yield _W1

            failure, wait = None, step.wait
            if wait is not None and not wait.predicate():
                line, level = step.expects
                if plan is None:
                    raise SimulationError(
                        f"bus {self.name}: {line.name} not "
                        f"{'asserted' if level else 'released'} one clock "
                        f"after the accessor entered {step.name} (ID "
                        f"{code}); is the variable process running?")
                yield wait
                if not wait.predicate():
                    failure = (f"{line.name.rsplit('.', 1)[-1]} never "
                               f"{'rose' if level else 'fell'} ("
                               + ("" if k is None else f"word {k}, ")
                               + f"ID {code})")
            if failure is None:
                target, verdict, retry = step.edges[0]
                if verdict is not None:
                    # The attempt's NACK verdict picks the edge.
                    target, _, retry = next(
                        edge for edge in step.edges
                        if edge[1] == (nacked or nack.value == 1))
                if flight is not None:
                    if k is None:
                        (recorder.on_release if target.rest
                         else recorder.on_setup)(flight, sim.now)
                    elif not step.opens:
                        recorder.on_handshake_phase(flight, sim.now, k)
                if target.decides:
                    # The read verdict: the response's check field.
                    accept = layout.check_ok(message | received)
                    target, _, retry = next(
                        edge for edge in target.edges if edge[2] != accept)
                if target.rest:
                    break
                step = target
                if not retry:
                    continue
                if channel.is_write:
                    failure = "server NACKed the message (check mismatch)"
                else:
                    failure = "response check mismatch"
                if flight is not None:
                    (recorder.on_nack if channel.is_write
                     else recorder.on_check_fail)(flight, sim.now, failure)

            # Protection: abort the attempt and resynchronize.  The
            # server's timed mid-message wait (timeout + 1) expires
            # inside our idle window (timeout + 2), so it discards any
            # partial transfer before the retransmission begins.
            for signal in lines:
                signal.set(0)
            self._clear_word()
            budget -= plan.retry_step
            retries += 1
            if budget < 0:
                if flight is not None:
                    recorder.on_giveup(flight, sim.now, failure, retries)
                raise SimulationError(
                    f"bus {self.name}: channel {channel.name} gave up "
                    f"after {retries} failed attempt(s): {failure} (retry "
                    f"budget {plan.max_retries} exhausted)")
            if flight is not None:
                recorder.on_attempt_failed(flight, sim.now, failure,
                                           retries)
            yield Wait(plan.timeout_clocks + 2)
            if injector is not None:
                injector.begin_attempt(self.name)
            step = None

        if channel.is_write:
            result, logged = None, data
        else:
            data_field = layout.field(FieldKind.DATA)
            result = logged = (received >> data_field.offset) & \
                ((1 << data_field.bits) - 1)
        self.transactions.append(Transaction(
            start_time=start_time, end_time=sim.now, channel=channel.name,
            direction=channel.direction, address=address, data=logged or 0,
            initiator=initiator, retries=retries, words=len(words)))
        if flight is not None:
            recorder.on_commit(flight, sim.now, retries)
        return result

    def _check_extra_words(self, layout) -> int:
        """Whole bus words the CHECK field appends to the message --
        the protection bucket's unit of account."""
        check = layout.field(FieldKind.CHECK)
        if check is None:
            return 0
        bare_bits = layout.total_bits - check.bits
        bare_words = max(1, -(-bare_bits // self.width))
        return layout.word_count(self.width) - bare_words

    # ------------------------------------------------------------------
    # Server side (variable processes)
    # ------------------------------------------------------------------

    def variable_server(self, process: VariableProcess,
                        storage: StorageAdapter) -> Generator:
        """Daemon coroutine: the executable form of a generated variable
        process (Figure 5's ``Xproc``/``MEMproc``), the reactive
        executor over its channels' server FSMs.  An idle server waits
        on the rest guard, untimed even when protected (an idle bus
        schedules no timers); a channel is compiled when a message
        first routes to it."""
        services = {self.structure.ids.code(s.channel.name): s
                    for s in process.services}
        channels: Dict[int, _Channel] = {}
        plan, nack = self.protection, self._nack
        id_lines, strobe = self.id_lines, self._strobe
        seen = strobe.value
        strobe_wait = WaitOn((strobe,), lambda: strobe.value != seen)
        entry = _STROBE if self._rest.strobes else _ENTRY
        if entry is _ENTRY:
            ((line, level),) = self._rest.levels
            request = self.controls[line]

            def ready() -> bool:
                return request.value == level \
                    and id_lines.value in services

            idle = WaitOn((request, id_lines), ready)
            mid_message = plan and WaitOn((request, id_lines), ready,
                                          timeout=plan.timeout_clocks + 1)
        active: Optional[_Channel] = None
        while True:
            pending = entry if active is None else active.state.pending
            if pending is _LEVEL:
                channel, wait = active, active.state.wait
                yield wait
                if plan is not None and not wait.predicate():
                    # Protection: START wedged high (stuck-at fault or
                    # lost fall).  Abort the message and wait out the
                    # accessor's abort window before accepting a
                    # retransmission.
                    for signal in channel.lines:
                        signal.set(0)
                    nack.set(0)
                    channel.state, channel.transfer = channel.rest, None
                    active = None
                    yield wait
                    continue
            else:
                if pending is _STROBE:
                    seen = strobe.value
                    yield strobe_wait
                elif plan is not None and any(
                        c.transfer is not None for c in channels.values()):
                    yield mid_message
                    if not ready():
                        # The accessor abandoned the message (its own
                        # timeout fired); drop the partial transfer.
                        for channel in channels.values():
                            channel.state = channel.rest
                            channel.transfer = None
                        nack.set(0)
                        continue
                else:
                    yield idle
                code = id_lines.value
                if code not in services:
                    continue
                channel = channels.get(code)
                if channel is None:
                    channel = channels[code] = _Channel(
                        services[code], *self._program(services[code])[2:])
                if channel.state.pending is not pending:
                    continue
            active = self._serve(channel, storage)

    def _serve(self, channel: _Channel,
               storage: StorageAdapter) -> Optional[_Channel]:
        """Fire ``channel``'s enabled edge, then every unguarded edge
        after it.  Returns the channel when it next waits on a guard of
        its own, None when it waits on the rest guard.  The message
        commits when the server leaves its last word."""
        nack = self._nack
        state = channel.state
        while True:
            if state.defer:
                for signal, level in state.drives:
                    signal.set(level)
            if state.rest:
                channel.transfer = _ServerTransfer(channel.procs,
                                                   self.width, storage)
            transfer = channel.transfer
            if state.ends:
                if transfer.check_ok():
                    transfer.commit()
                if nack is not None:
                    nack.set(0)
                channel.transfer = None
            target = state.edges[0][0]
            if target.opens:
                if nack is not None:
                    # A dropped or delayed fall can leave DONE wedged
                    # high; clear it so the acknowledge below is a
                    # real edge.  A no-op on a clean handshake.
                    for signal, level in target.drives:
                        if level:
                            signal.set(0)
                transfer.handle_word(self.data)
                if len(state.edges) > 1:
                    # The check verdict picks the accept or NAK state;
                    # NACK rises before the acknowledge.
                    refuse = transfer.complete and not transfer.check_ok()
                    target = next(edge[0] for edge in state.edges
                                  if edge[0].nacks == refuse)
            if target.nacks:
                nack.set(1)
            if not target.defer:
                for signal, level in target.drives:
                    signal.set(level)
            channel.state = state = target
            if state.pending is not _AT_ONCE:
                return None if state.pending is _ENTRY else channel


def _level_wait(levels, timeout: Optional[int]) -> WaitOn:
    """The kernel request sleeping until the one line a generated level
    guard tests holds its level (bounded by ``timeout`` when
    protected); its predicate tests it."""
    ((signal, level),) = levels
    return WaitOn((signal,), lambda: signal.value == level, timeout=timeout)


class _ServerTransfer:
    """Word-by-word server-side state of one message transfer."""

    def __init__(self, procs: ChannelProcedures, width: int,
                 storage: StorageAdapter):
        self.procs = procs
        self.storage = storage
        self.words = procs.layout.words(width)
        self.next_word = 0
        self.accessor_message = 0
        self._data_value: Optional[int] = None

    @property
    def complete(self) -> bool:
        return self.next_word >= len(self.words)

    def handle_word(self, data_lines: DataLines) -> None:
        """Latch the accessor's slices of the current word and, for
        reads, drive the server's slices."""
        if self.complete:
            raise SimulationError(
                f"channel {self.procs.channel.name}: extra bus word after "
                "message completed"
            )
        word = self.words[self.next_word]
        self.accessor_message |= word.gather(Role.ACCESSOR,
                                             data_lines.value)
        if word.slices_driven_by(Role.SERVER):
            value, mask = word.drive(Role.SERVER, self._server_message())
            data_lines.drive("server", value, mask)
        self.next_word += 1

    def check_ok(self) -> bool:
        """True when the gathered message's check field matches (or no
        verification applies: unprotected layout, or a read -- the
        accessor verifies the response end-to-end on its side)."""
        layout = self.procs.layout
        if layout.protection is None or not self.procs.channel.is_write:
            return True
        return layout.check_ok(self.accessor_message)

    def _server_message(self) -> int:
        """Message value of server-driven fields (read data), fetched
        once the address is complete."""
        if self._data_value is None:
            layout = self.procs.layout
            address: Optional[int] = None
            if layout.has_address:
                address, _ = layout.unpack(self.accessor_message)
            raw = self.storage.read(address)
            data_field = layout.field(FieldKind.DATA)
            assert data_field is not None
            value = (raw & ((1 << data_field.bits) - 1)) \
                << data_field.offset
            check_field = layout.field(FieldKind.CHECK)
            if check_field is not None and check_field.driver is Role.SERVER:
                # The response check covers the address the server
                # *latched* plus the data it returns, so an address
                # corrupted in flight surfaces as a check mismatch on
                # the accessor side.
                payload = value
                addr_field = layout.field(FieldKind.ADDRESS)
                if addr_field is not None:
                    addr_mask = ((1 << addr_field.bits) - 1) \
                        << addr_field.offset
                    payload |= self.accessor_message & addr_mask
                value |= layout.compute_check(payload) << check_field.offset
            self._data_value = value
        return self._data_value

    def commit(self) -> None:
        """Apply a completed write to storage (reads need nothing)."""
        if not self.procs.channel.is_write:
            return
        layout = self.procs.layout
        address, data = layout.unpack(self.accessor_message)
        self.storage.write(address, data)
