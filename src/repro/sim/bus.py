"""Executable buses: protocol coroutines over simulated wires.

This module turns a generated :class:`~repro.protogen.structure.BusStructure`
into live signals and implements, as kernel coroutines, the transfer
disciplines of every protocol descriptor:

* **full handshake** (START/DONE, 2 clocks per word) -- the paper's
  Figure 4 procedures;
* **half handshake / fixed delay / hardwired** (1 clock per word) -- a
  two-phase word strobe; for the half handshake the strobe is the REQ
  control line, for fixed-delay and hardwired buses it models the shared
  clock edge of the statically agreed schedule (no extra wire is
  counted).

Word timing is exactly ``protocol.delay_clocks`` per bus word, which is
what makes the simulator agree clock-for-clock with the performance
estimator (ref [10]) in the uncontended case -- the cross-check the
test suite performs.

Within a *read* word, the accessor drives the address wires and the
variable process answers on the data wires of the same word (SRAM-style;
see :mod:`repro.protogen.procedures`), so the multi-driver
:class:`~repro.sim.signals.DataLines` resolution is exercised for real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
)

from repro.errors import SimulationError
from repro.protogen.procedures import (
    ChannelProcedures,
    FieldKind,
    Role,
    WordSpec,
)
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


class SimBus:
    """Live signals plus protocol engines for one generated bus."""

    def __init__(self, structure: BusStructure, sim: Simulator,
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
        #: Word strobe for 1-clock protocols.  For the half handshake it
        #: *is* the REQ control line; otherwise it models the clock edge
        #: of the static schedule and is not a counted wire.
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
        #: Word loop of an unprotected transfer, fixed by the protocol.
        if self.uses_burst:
            self._accessor_words = self._accessor_burst
        elif self.uses_handshake:
            self._accessor_words = self._accessor_handshake
        else:
            self._accessor_words = self._accessor_strobed

    # ------------------------------------------------------------------

    @property
    def width(self) -> int:
        return self.structure.width

    @property
    def uses_handshake(self) -> bool:
        lines = self.structure.protocol.control_lines
        return "START" in lines and "DONE" in lines

    @property
    def uses_burst(self) -> bool:
        """Burst protocols handshake once per message, then stream."""
        return self.uses_handshake and \
            self.structure.protocol.setup_clocks > 0

    def _clear_word(self) -> None:
        """Turn the data wires over to the next word."""
        self.data.drive("accessor", 0, 0)
        self.data.drive("server", 0, 0)

    # ------------------------------------------------------------------
    # Accessor side
    # ------------------------------------------------------------------

    def accessor_transfer(self, procs: ChannelProcedures, initiator: str,
                          address: Optional[int],
                          data: Optional[int]) -> Generator:
        """Coroutine performing one whole message transfer.

        ``data`` is the raw encoded value for writes, ``None`` for
        reads.  Returns the raw received data for reads (via the
        generator's return value; call with ``yield from``).

        The caller must hold the bus (arbiter) for the duration.
        """
        channel = procs.channel
        layout = procs.layout
        if channel.is_write:
            if data is None:
                raise SimulationError(
                    f"channel {channel.name}: write transfer needs data"
                )
            message = layout.pack(address, data)
        else:
            message = layout.pack(address, 0) if layout.has_address else 0

        code = self.structure.ids.code(channel.name)
        words = layout.words(self.width)
        start_time = self.sim.now

        recorder = self.recorder
        if recorder is not None:
            flight = recorder.on_transfer_start(
                self.name, channel.name, initiator, start_time,
                len(words), self._check_extra_words(layout),
                channel.direction)
        else:
            flight = None

        retries = 0
        if self.injector is not None:
            self.injector.begin_attempt(self.name)
        if self.protection is not None:
            received, retries = yield from self._accessor_protected(
                procs, code, words, message, flight)
        else:
            received = yield from self._accessor_words(
                code, words, message, flight)

        if channel.is_write:
            result: Optional[int] = None
            logged_data = data
        else:
            data_field = layout.field(FieldKind.DATA)
            assert data_field is not None
            result = (received >> data_field.offset) & \
                ((1 << data_field.bits) - 1)
            logged_data = result
        transaction = Transaction(
            start_time=start_time, end_time=self.sim.now,
            channel=channel.name, direction=channel.direction,
            address=address, data=logged_data or 0, initiator=initiator,
            retries=retries, words=len(words),
        )
        self.transactions.append(transaction)
        if flight is not None:
            recorder.on_commit(flight, self.sim.now, retries)
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

    def _accessor_handshake(self, code: int, words: List[WordSpec],
                            message: int, flight=None) -> Generator:
        """Full handshake: 2 clocks per word (Figure 4's SendCHx body)."""
        start = self.controls["START"]
        done = self.controls["DONE"]
        injector = self.injector
        recorder = self.recorder
        received = 0
        for word in words:
            if injector is not None:
                injector.begin_word(self.name, word.index)
            value, mask = word.drive(Role.ACCESSOR, message)
            self._clear_word()
            self.id_lines.set(code)
            self.data.drive("accessor", value, mask)
            start.set(1)
            if flight is not None:
                recorder.on_word_start(flight, self.sim.now, word.index)
            yield _W1
            if done.value != 1:
                raise SimulationError(
                    f"bus {self.structure.name}: DONE not asserted one "
                    f"clock after START (word {word.index}, ID {code}); "
                    "is the variable process running?"
                )
            received |= word.gather(Role.SERVER, self.data.value)
            if flight is not None:
                recorder.on_data_phase(flight, self.sim.now, word.index)
            start.set(0)
            yield _W1
            if done.value != 0:
                raise SimulationError(
                    f"bus {self.structure.name}: DONE stuck high after "
                    f"START fell (word {word.index}, ID {code})"
                )
            if flight is not None:
                recorder.on_handshake_phase(flight, self.sim.now,
                                            word.index)
        return received

    def _accessor_burst(self, code: int, words: List[WordSpec],
                        message: int, flight=None) -> Generator:
        """Burst: one START/DONE handshake per message (2 clocks), then
        words stream at one per clock on the strobe."""
        start = self.controls["START"]
        done = self.controls["DONE"]
        recorder = self.recorder
        # Grant phase: announce the burst.
        self._clear_word()
        self.id_lines.set(code)
        start.set(1)
        yield _W1
        if done.value != 1:
            raise SimulationError(
                f"bus {self.structure.name}: burst grant not acknowledged "
                f"(ID {code}); is the variable process running?"
            )
        if flight is not None:
            recorder.on_setup(flight, self.sim.now)
        # Stream phase: one word per clock.
        injector = self.injector
        received = 0
        for word in words:
            if injector is not None:
                injector.begin_word(self.name, word.index)
            value, mask = word.drive(Role.ACCESSOR, message)
            self._clear_word()
            self.data.drive("accessor", value, mask)
            self._strobe.set(self._strobe.value + 1)
            if flight is not None:
                recorder.on_word_start(flight, self.sim.now, word.index)
            yield _DELTA
            received |= word.gather(Role.SERVER, self.data.value)
            yield _W1
            if flight is not None:
                recorder.on_data_phase(flight, self.sim.now, word.index)
        # Release phase.
        start.set(0)
        yield _W1
        if done.value != 0:
            raise SimulationError(
                f"bus {self.structure.name}: DONE stuck high after burst "
                f"release (ID {code})"
            )
        if flight is not None:
            recorder.on_release(flight, self.sim.now)
        return received

    def _accessor_strobed(self, code: int, words: List[WordSpec],
                          message: int, flight=None) -> Generator:
        """Two-phase strobe: 1 clock per word (half handshake /
        fixed delay / hardwired)."""
        injector = self.injector
        recorder = self.recorder
        received = 0
        for word in words:
            if injector is not None:
                injector.begin_word(self.name, word.index)
            value, mask = word.drive(Role.ACCESSOR, message)
            self._clear_word()
            self.id_lines.set(code)
            self.data.drive("accessor", value, mask)
            self._strobe.set(self._strobe.value + 1)
            if flight is not None:
                recorder.on_word_start(flight, self.sim.now, word.index)
            yield _DELTA
            # The server answered within this clock's passes.
            received |= word.gather(Role.SERVER, self.data.value)
            yield _W1
            if flight is not None:
                recorder.on_data_phase(flight, self.sim.now, word.index)
        return received

    def _accessor_protected(self, procs: ChannelProcedures, code: int,
                            words: List[WordSpec],
                            message: int, flight=None) -> Generator:
        """Protected full handshake: timeout-bounded waits, a NACK
        sample on writes, check-field verification on reads, and
        bounded whole-message retransmission.

        Returns ``(received, retries)``.  Raises
        :class:`SimulationError` when the retry budget runs dry -- a
        fault is *never* absorbed silently.
        """
        plan = self.protection
        layout = procs.layout
        is_write = procs.channel.is_write
        start = self.controls["START"]
        done = self.controls["DONE"]
        nack = self.controls[plan.nack_line]
        injector = self.injector
        recorder = self.recorder
        timeout = plan.timeout_clocks
        if plan.retry_step < 1:
            raise SimulationError(
                f"bus {self.structure.name}: protection retry_step must "
                f"be >= 1, got {plan.retry_step} (the retry budget "
                "would never shrink)"
            )
        budget = plan.max_retries
        retries = 0
        while True:
            if retries and injector is not None:
                injector.begin_attempt(self.name)
            if flight is not None:
                recorder.on_attempt_begin(flight, self.sim.now)
            failure: Optional[str] = None
            received = 0
            nacked = False
            for word in words:
                if injector is not None:
                    injector.begin_word(self.name, word.index)
                value, mask = word.drive(Role.ACCESSOR, message)
                self._clear_word()
                self.id_lines.set(code)
                self.data.drive("accessor", value, mask)
                start.set(1)
                if flight is not None:
                    recorder.on_word_start(flight, self.sim.now,
                                           word.index)
                yield _W1
                if done.value != 1:
                    yield WaitOn((done,), lambda: done.value == 1,
                                 timeout=timeout)
                if done.value != 1:
                    failure = (f"DONE never rose (word {word.index}, "
                               f"ID {code})")
                    break
                received |= word.gather(Role.SERVER, self.data.value)
                if flight is not None:
                    recorder.on_data_phase(flight, self.sim.now,
                                           word.index)
                if nack.value == 1:
                    nacked = True
                start.set(0)
                yield _W1
                if done.value != 0:
                    yield WaitOn((done,), lambda: done.value == 0,
                                 timeout=timeout)
                if done.value != 0:
                    failure = (f"DONE never fell (word {word.index}, "
                               f"ID {code})")
                    break
                if flight is not None:
                    recorder.on_handshake_phase(flight, self.sim.now,
                                                word.index)
            if failure is None:
                if is_write and nacked:
                    failure = "server NACKed the message (check mismatch)"
                    if flight is not None:
                        recorder.on_nack(flight, self.sim.now, failure)
                elif not is_write \
                        and not layout.check_ok(message | received):
                    failure = "response check mismatch"
                    if flight is not None:
                        recorder.on_check_fail(flight, self.sim.now,
                                               failure)
                else:
                    return received, retries
            # Abort the attempt and resynchronize: the server's timed
            # mid-message wait (timeout + 1) expires inside our idle
            # window (timeout + 2), so it discards any partial transfer
            # before the retransmission begins.
            start.set(0)
            self._clear_word()
            budget -= plan.retry_step
            retries += 1
            if budget < 0:
                if flight is not None:
                    recorder.on_giveup(flight, self.sim.now, failure,
                                       retries)
                raise SimulationError(
                    f"bus {self.structure.name}: channel "
                    f"{procs.channel.name} gave up after {retries} "
                    f"failed attempt(s): {failure} (retry budget "
                    f"{plan.max_retries} exhausted)"
                )
            if flight is not None:
                recorder.on_attempt_failed(flight, self.sim.now,
                                           failure, retries)
            yield Wait(timeout + 2)

    # ------------------------------------------------------------------
    # Server side (variable processes)
    # ------------------------------------------------------------------

    def variable_server(self, process: VariableProcess,
                        storage: StorageAdapter) -> Generator:
        """Daemon coroutine: the executable form of a generated variable
        process (Figure 5's ``Xproc``/``MEMproc``)."""
        services: Dict[int, ChannelProcedures] = {
            self.structure.ids.code(s.channel.name): s
            for s in process.services
        }
        if self.protection is not None:
            yield from self._server_protected(process.name, services,
                                              storage)
        elif self.uses_burst:
            yield from self._server_burst(process.name, services, storage)
        elif self.uses_handshake:
            yield from self._server_handshake(process.name, services,
                                              storage)
        else:
            yield from self._server_strobed(process.name, services, storage)

    def _server_handshake(self, name: str,
                          services: Dict[int, ChannelProcedures],
                          storage: StorageAdapter) -> Generator:
        start = self.controls["START"]
        done = self.controls["DONE"]
        id_lines = self.id_lines
        in_progress: Dict[int, _ServerTransfer] = {}
        while True:
            yield WaitOn(
                (start, id_lines),
                lambda: start.value == 1 and id_lines.value in services,
            )
            code = id_lines.value
            transfer = in_progress.get(code)
            if transfer is None:
                transfer = _ServerTransfer(services[code], self.width,
                                           storage)
                in_progress[code] = transfer
            transfer.handle_word(self.data)
            done.set(1)
            yield WaitOn((start,), lambda: start.value == 0)
            done.set(0)
            if transfer.complete:
                transfer.commit()
                del in_progress[code]

    def _server_protected(self, name: str,
                          services: Dict[int, ChannelProcedures],
                          storage: StorageAdapter) -> Generator:
        """Protected full-handshake server: verifies the check field on
        writes (raising NACK before DONE so both land in one delta),
        commits only clean messages, and recovers from stuck or
        abandoned handshakes via timeout-bounded mid-message waits.

        Between messages the wait is untimed, so an idle protected bus
        schedules no timers -- protection is zero-cost when nothing is
        in flight.
        """
        plan = self.protection
        start = self.controls["START"]
        done = self.controls["DONE"]
        nack = self.controls[plan.nack_line]
        id_lines = self.id_lines
        timeout = plan.timeout_clocks
        in_progress: Dict[int, _ServerTransfer] = {}

        def ready() -> bool:
            return start.value == 1 and id_lines.value in services

        while True:
            if in_progress:
                yield WaitOn((start, id_lines), ready, timeout=timeout + 1)
                if not ready():
                    # The accessor abandoned the message (its own
                    # timeout fired); drop the partial transfer.
                    in_progress.clear()
                    nack.set(0)
                    continue
            else:
                yield WaitOn((start, id_lines), ready)
            code = id_lines.value
            transfer = in_progress.get(code)
            if transfer is None:
                transfer = _ServerTransfer(services[code], self.width,
                                           storage)
                in_progress[code] = transfer
            # A dropped or delayed fall can leave DONE wedged high;
            # clear it so the acknowledge below is a real edge.  This
            # is a no-op on a clean handshake.
            done.set(0)
            transfer.handle_word(self.data)
            if transfer.complete and not transfer.check_ok():
                nack.set(1)
            done.set(1)
            yield WaitOn((start,), lambda: start.value == 0,
                         timeout=timeout + 1)
            if start.value != 0:
                # START wedged high (stuck-at fault or lost fall):
                # abort the message and wait out the accessor's abort
                # window before accepting a retransmission.
                done.set(0)
                nack.set(0)
                in_progress.pop(code, None)
                yield WaitOn((start,), lambda: start.value == 0,
                             timeout=timeout + 1)
                continue
            done.set(0)
            if transfer.complete:
                if transfer.check_ok():
                    transfer.commit()
                nack.set(0)
                del in_progress[code]

    def _server_burst(self, name: str,
                      services: Dict[int, ChannelProcedures],
                      storage: StorageAdapter) -> Generator:
        start = self.controls["START"]
        done = self.controls["DONE"]
        id_lines = self.id_lines
        strobe = self._strobe
        while True:
            yield WaitOn(
                (start, id_lines),
                lambda: start.value == 1 and id_lines.value in services,
            )
            code = id_lines.value
            done.set(1)
            transfer = _ServerTransfer(services[code], self.width, storage)
            last_strobe = strobe.value
            while not transfer.complete:
                yield WaitOn((strobe,),
                             lambda: strobe.value != last_strobe)
                last_strobe = strobe.value
                transfer.handle_word(self.data)
            transfer.commit()
            yield WaitOn((start,), lambda: start.value == 0)
            done.set(0)

    def _server_strobed(self, name: str,
                        services: Dict[int, ChannelProcedures],
                        storage: StorageAdapter) -> Generator:
        strobe = self._strobe
        last_strobe = strobe.value
        in_progress: Dict[int, _ServerTransfer] = {}
        while True:
            yield WaitOn((strobe,), lambda: strobe.value != last_strobe)
            last_strobe = strobe.value
            code = self.id_lines.value
            if code not in services:
                continue
            transfer = in_progress.get(code)
            if transfer is None:
                transfer = _ServerTransfer(services[code], self.width,
                                           storage)
                in_progress[code] = transfer
            transfer.handle_word(self.data)
            if transfer.complete:
                transfer.commit()
                del in_progress[code]


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
