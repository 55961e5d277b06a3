"""Event-driven discrete-event simulation kernel.

The paper's headline property is that the refined specification is
*simulatable*.  This kernel provides the execution substrate: a clock-
accurate cooperative scheduler for generator-based processes, in the
style of a (much simplified) VHDL simulation cycle:

* Time advances in integer **clocks**.
* Within one clock, processes run in **passes** until a fixpoint: a
  process whose wait condition became true because another process ran
  in the same clock gets to run before time advances (the analogue of
  VHDL delta cycles).
* A process is a Python generator that yields *wait requests*:

  - ``Wait(n)``        -- resume ``n`` clocks from now (n >= 1);
  - ``Delta()``        -- resume in the next pass of the same clock;
  - ``WaitOn(sigs,f)`` -- sleep on a **sensitivity list**: re-evaluate
    ``f`` only when one of the watched signals changes (``f`` omitted
    means "wake on any change").

* **Daemon** processes (the generated variable processes, which serve
  the bus forever) do not keep the simulation alive: it ends when every
  non-daemon process has finished.

Scheduling is event-driven, not polling: a ``heapq`` timer queue finds
the next clock in O(log timers), an :class:`EventBus` owned by the
kernel wakes only the processes whose watched signals actually changed
(``Signal.set`` / ``DataLines.drive`` notify it), and each pass runs a
ready agenda rather than scanning every process.  Cost per clock is
proportional to the *active* processes, not the registered ones.

Determinism: the pass agenda is a min-heap over registration indices,
so runnable processes within a pass execute in registration order --
exactly the discipline of the original polling fixpoint kernel.  A
process woken by an event keeps the old same-pass/next-pass placement:
if its registration index is after the currently running process it
joins the current pass, otherwise the next one.  ``WaitOn`` predicates
are evaluated when the process's turn comes (not at notify time), so
they observe the same intermediate state the polling kernel's sweep
would have.

Contract: a ``WaitOn`` predicate must depend only on the watched
signals (that is what makes skipping re-evaluation sound).  State that
a process waits on must therefore live in a watchable signal; the
kernel never polls.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Tuple,
)

from repro.errors import DeadlockError, SimulationError

if TYPE_CHECKING:
    from repro.obs.flight import FlightRecorder
    from repro.obs.simmetrics import KernelMetrics


class Wait:
    """Resume the yielding process ``clocks`` ticks in the future."""

    __slots__ = ("clocks",)

    def __init__(self, clocks: int):
        if not isinstance(clocks, int) or clocks < 1:
            raise SimulationError(
                f"Wait requires a positive integer clock count, got {clocks!r}"
            )
        self.clocks = clocks

    def __repr__(self) -> str:
        return f"Wait({self.clocks})"


class Delta:
    """Resume in the next pass of the current clock."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Delta()"


class WaitOn:
    """Sleep on a sensitivity list of signals.

    ``signals`` is one watchable or a sequence of them (anything with
    the ``_watchers`` notification slot: :class:`~repro.sim.signals.
    Signal`, :class:`~repro.sim.signals.DataLines`).  The process is
    woken -- and ``predicate`` re-evaluated -- only when one of them
    changes value.  With no predicate the process resumes on the first
    change.  With a predicate, it also fires if the predicate is
    already true at yield time.

    ``timeout`` (clocks, >= 1) bounds the sleep: the process resumes
    ``timeout`` clocks from now even if no watched signal changed.  The
    resumed coroutine distinguishes the cases by re-reading the signals
    itself -- the kernel does not say *why* it woke.  Timed waits are
    what the fault-tolerant bus procedures use to survive lost
    handshake transitions.

    The predicate must depend only on the watched signals.
    """

    __slots__ = ("signals", "predicate", "timeout")

    def __init__(self, signals, predicate: Optional[Callable[[], bool]] = None,
                 timeout: Optional[int] = None):
        if not isinstance(signals, (tuple, list)):
            signals = (signals,)
        if not signals:
            raise SimulationError("WaitOn requires at least one signal")
        for signal in signals:
            if not hasattr(signal, "_watchers"):
                raise SimulationError(
                    f"WaitOn: {signal!r} is not watchable (no _watchers "
                    "slot); use Signal/DataLines"
                )
        if predicate is not None and not callable(predicate):
            raise SimulationError("WaitOn predicate must be callable")
        if timeout is not None and (not isinstance(timeout, int)
                                    or timeout < 1):
            raise SimulationError(
                f"WaitOn timeout must be a positive integer clock "
                f"count, got {timeout!r}"
            )
        self.signals: Tuple = tuple(signals)
        self.predicate = predicate
        self.timeout = timeout

    def __repr__(self) -> str:
        names = ",".join(getattr(s, "name", "?") for s in self.signals)
        if self.timeout is not None:
            return f"WaitOn([{names}], timeout={self.timeout})"
        return f"WaitOn([{names}])"


def _any_change() -> bool:
    """Predicate standing in for ``WaitOn`` without one: any notify
    from a watched signal is a wake."""
    return True


ProcessBody = Generator[object, None, None]


class _Process:
    """Bookkeeping for one simulated process."""

    __slots__ = ("name", "body", "daemon", "index", "wake_time",
                 "predicate", "delta", "finished", "start_time",
                 "finish_time", "queued", "notified", "watched",
                 "timer_deadline")

    def __init__(self, name: str, body: ProcessBody, daemon: bool,
                 index: int):
        self.name = name
        self.body = body
        self.daemon = daemon
        #: Registration index: the determinism tiebreak within a pass.
        self.index = index
        #: Clock at which the process becomes runnable (for Wait); None
        #: when blocked on a predicate or on Delta.
        self.wake_time: Optional[int] = 0
        #: Predicate blocking the process (WaitOn), else None.
        self.predicate: Optional[Callable[[], bool]] = None
        #: True when blocked on Delta (runnable next pass).
        self.delta = False
        self.finished = False
        self.start_time: Optional[int] = None
        self.finish_time: Optional[int] = None
        #: True while sitting in a pass agenda (dedup guard).
        self.queued = False
        #: True while sitting in the EventBus pending list.
        self.notified = False
        #: Signals this process is subscribed to (WaitOn).
        self.watched: List = []
        #: Clock at which a timed WaitOn gives up, else None.  The heap
        #: entry pushed for it may outlive the wait (the process can be
        #: woken by an event first); the pop loop validates against
        #: this field and drops stale entries.
        self.timer_deadline: Optional[int] = None


class ProcessStats:
    """Post-run statistics of one process."""

    __slots__ = ("name", "daemon", "finished", "start_time", "finish_time")

    def __init__(self, name: str, daemon: bool, finished: bool,
                 start_time: Optional[int], finish_time: Optional[int]):
        self.name = name
        self.daemon = daemon
        self.finished = finished
        self.start_time = start_time
        self.finish_time = finish_time

    @property
    def active_clocks(self) -> Optional[int]:
        """Clocks from first execution to completion (None if either
        endpoint is missing)."""
        if self.start_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    def __repr__(self) -> str:  # keeps dataclass-era debugging output
        return (f"ProcessStats(name={self.name!r}, daemon={self.daemon}, "
                f"finished={self.finished}, start_time={self.start_time}, "
                f"finish_time={self.finish_time})")


class SimStats:
    """Outcome of a simulation run."""

    __slots__ = ("end_time", "processes")

    def __init__(self, end_time: int,
                 processes: Optional[Dict[str, ProcessStats]] = None):
        self.end_time = end_time
        self.processes: Dict[str, ProcessStats] = processes or {}

    def clocks(self, name: str) -> int:
        stats = self.processes[name]
        if stats.active_clocks is None:
            raise SimulationError(f"process {name} never completed")
        return stats.active_clocks


class EventBus:
    """Fan-out from signal changes to sensitivity-listed processes.

    Owned by the kernel.  ``watch`` subscribes a blocked process to a
    signal; ``Signal.set`` / ``DataLines.drive``/``release`` call
    ``notify`` when their (resolved) value changes.  The kernel drains
    the pending list after every process step and decides same-pass
    versus next-pass placement.
    """

    __slots__ = ("pending",)

    def __init__(self) -> None:
        #: Processes notified since the last drain (deduplicated).
        self.pending: List[_Process] = []

    def watch(self, signal, process: _Process) -> None:
        watchers = signal._watchers
        if watchers is None:
            signal._watchers = [process]
            signal._event_bus = self
        else:
            watchers.append(process)
        process.watched.append(signal)

    def unwatch(self, process: _Process) -> None:
        for signal in process.watched:
            try:
                signal._watchers.remove(process)
            except ValueError:  # pragma: no cover - defensive
                pass
        process.watched.clear()

    def notify(self, signal) -> None:
        pending = self.pending
        for process in signal._watchers:
            if not process.notified:
                process.notified = True
                pending.append(process)


class Simulator:
    """The cooperative clock-accurate scheduler.

    ``metrics`` is an optional :class:`repro.obs.KernelMetrics`-shaped
    collector (``on_step``/``on_pass``/``on_advance``); every hook sits
    behind a ``None`` test so unmetered runs pay nothing.

    Instrumentation counters (always on, plain ints):

    * ``predicate_evals`` -- how many times any wait predicate was
      called; with sensitivity lists this scales with signal *changes*,
      not clocks x processes.
    * ``signal_wakeups`` -- processes woken via the EventBus.
    * ``timer_pops`` -- timer-heap wakeups served.
    """

    def __init__(self, max_clocks: int = 10_000_000,
                 max_passes_per_clock: int = 10_000,
                 metrics: Optional["KernelMetrics"] = None,
                 recorder: Optional["FlightRecorder"] = None):
        self.max_clocks = max_clocks
        self.max_passes_per_clock = max_passes_per_clock
        self._processes: List[_Process] = []
        self._now = 0
        self._metrics = metrics
        #: Optional flight recorder (``on_kernel_end``/``on_deadlock``);
        #: same contract as ``metrics``: None-guarded, zero cost off.
        self._recorder = recorder
        self.events = EventBus()
        #: (wake_time, registration index) min-heap.  A ``Wait`` entry
        #: is live for exactly one outstanding wait; timed ``WaitOn``
        #: entries may go stale (event won the race) and index ``-1``
        #: marks a scheduled-callback slot -- the pop loop validates.
        self._timers: List[Tuple[int, int]] = []
        #: clock -> callbacks registered via :meth:`call_at`.
        self._callbacks: Dict[int, List[Callable[[], None]]] = {}
        #: Current-pass agenda (registration-index heap) and the next
        #: pass's accumulator; only meaningful inside _run_passes.
        self._agenda: List[int] = []
        self._next_agenda: List[int] = []
        self._current_index = -1
        #: Unfinished non-daemon processes (O(1) completion check).
        self._active_workers = 0
        self.predicate_evals = 0
        self.signal_wakeups = 0
        self.timer_pops = 0

    @property
    def now(self) -> int:
        """Current simulation time in clocks."""
        return self._now

    def add_process(self, name: str, body: ProcessBody,
                    daemon: bool = False) -> None:
        """Register a process; it becomes runnable at time 0."""
        if any(p.name == name for p in self._processes):
            raise SimulationError(f"duplicate process name {name!r}")
        if not hasattr(body, "send"):
            raise SimulationError(
                f"process {name}: body must be a generator (did you call "
                "the function?)"
            )
        index = len(self._processes)
        process = _Process(name=name, body=body, daemon=daemon, index=index)
        self._processes.append(process)
        if not daemon:
            self._active_workers += 1
        heappush(self._timers, (0, index))

    def call_at(self, clock: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` when the simulation reaches ``clock``.

        Callbacks run at the start of that clock's pass 0, before any
        process wakes (the sentinel index ``-1`` sorts ahead of every
        registration index).  They may set signals; woken watchers join
        the same pass 0.  Used by the fault injector for DELAY and
        STUCK windows.
        """
        if clock <= self._now:
            raise SimulationError(
                f"call_at: clock {clock} is not in the future of "
                f"{self._now}"
            )
        entries = self._callbacks.setdefault(clock, [])
        entries.append(callback)
        if len(entries) == 1:
            heappush(self._timers, (clock, -1))

    # ------------------------------------------------------------------

    def run(self) -> SimStats:
        """Run until every non-daemon process finishes.

        Raises :class:`DeadlockError` when non-daemon processes remain
        but none can ever become runnable, and
        :class:`SimulationError` when ``max_clocks`` is exceeded.
        """
        timers = self._timers
        while True:
            self._run_passes()
            if not self._active_workers:
                break
            if not timers:
                raise self._deadlock_error()
            next_time = timers[0][0]
            if next_time <= self._now:
                raise SimulationError(
                    f"scheduler error: wake time {next_time} is not in "
                    f"the future of {self._now}"
                )
            if next_time > self.max_clocks:
                raise SimulationError(
                    f"exceeded max_clocks={self.max_clocks}"
                )
            if self._metrics is not None:
                self._metrics.on_advance(self._now, next_time,
                                         self._processes)
            self._now = next_time

        if self._metrics is not None:
            on_run_end = getattr(self._metrics, "on_run_end", None)
            if on_run_end is not None:
                on_run_end(predicate_evals=self.predicate_evals,
                           signal_wakeups=self.signal_wakeups,
                           timer_pops=self.timer_pops)
        if self._recorder is not None:
            self._recorder.on_kernel_end(self._now)
        return SimStats(
            end_time=self._now,
            processes={
                p.name: ProcessStats(
                    name=p.name, daemon=p.daemon, finished=p.finished,
                    start_time=p.start_time, finish_time=p.finish_time,
                )
                for p in self._processes
            },
        )

    # ------------------------------------------------------------------

    def _run_passes(self) -> None:
        """Run the current clock's ready agenda to a fixpoint."""
        now = self._now
        processes = self._processes
        timers = self._timers
        metrics = self._metrics

        # Pass 0 agenda: due timers plus event-woken watchers.
        agenda: List[int] = []
        while timers and timers[0][0] <= now:
            due, index = heappop(timers)
            if index < 0:
                for callback in self._callbacks.pop(due, ()):
                    callback()
                continue
            process = processes[index]
            if process.finished or process.queued:
                continue
            if process.wake_time is not None and process.wake_time <= now:
                pass                              # a genuine Wait is due
            elif (process.timer_deadline is not None
                  and process.timer_deadline <= now):
                # A timed WaitOn expired: make the process runnable and
                # let the coroutine discover the timeout by re-reading
                # its signals.
                process.timer_deadline = None
                process.wake_time = now
            else:
                continue                          # stale entry, drop it
            process.queued = True
            agenda.append(index)
            self.timer_pops += 1
        if self.events.pending:
            # Callbacks may have set signals; their watchers join pass 0.
            pending = self.events.pending
            self.events.pending = []
            for process in pending:
                process.notified = False
                if (process.finished or process.queued
                        or not process.watched):
                    continue
                self.signal_wakeups += 1
                process.queued = True
                agenda.append(process.index)
        if not agenda:
            return
        heapify(agenda)

        passes = 0
        while agenda:
            self._agenda = agenda
            next_agenda: List[int] = []
            self._next_agenda = next_agenda
            ran_any = 0
            while agenda:
                index = heappop(agenda)
                process = processes[index]
                process.queued = False
                if process.finished:
                    continue
                if process.delta or process.wake_time is not None:
                    runnable = True
                else:
                    predicate = process.predicate
                    if predicate is None:  # pragma: no cover - defensive
                        continue
                    self.predicate_evals += 1
                    runnable = bool(predicate())
                if runnable:
                    self._current_index = index
                    self._step(process)
                    ran_any += 1
                    if self.events.pending:
                        self._triage_events(index)
            if ran_any:
                passes += 1
                if metrics is not None:
                    metrics.on_pass()
                if passes >= self.max_passes_per_clock:
                    raise SimulationError(
                        f"exceeded {self.max_passes_per_clock} passes at "
                        f"clock {now}; processes are likely delta-cycling "
                        "forever"
                    )
            agenda = next_agenda
            if agenda:
                heapify(agenda)

    def _triage_events(self, current_index: int) -> None:
        """Place event-notified processes into the current or the next
        pass, preserving the registration-order sweep discipline."""
        pending = self.events.pending
        self.events.pending = []
        current_agenda = self._agenda
        next_agenda = self._next_agenda
        for process in pending:
            process.notified = False
            if process.finished or process.queued or not process.watched:
                continue
            self.signal_wakeups += 1
            process.queued = True
            if process.index > current_index:
                heappush(current_agenda, process.index)
            else:
                next_agenda.append(process.index)

    def _step(self, process: _Process) -> None:
        """Advance one process to its next wait request."""
        if self._metrics is not None:
            self._metrics.on_step(process.name)
        if process.start_time is None:
            process.start_time = self._now
        process.delta = False
        process.predicate = None
        process.wake_time = None
        process.timer_deadline = None
        if process.watched:
            self.events.unwatch(process)
        try:
            request = next(process.body)
        except StopIteration:
            process.finished = True
            process.finish_time = self._now
            if not process.daemon:
                self._active_workers -= 1
            return
        except Exception as error:
            raise SimulationError(
                f"process {process.name} raised at clock {self._now}: "
                f"{error!r}"
            ) from error

        if isinstance(request, Wait):
            wake = self._now + request.clocks
            process.wake_time = wake
            heappush(self._timers, (wake, process.index))
        elif isinstance(request, WaitOn):
            events = self.events
            for signal in request.signals:
                events.watch(signal, process)
            if request.timeout is not None:
                deadline = self._now + request.timeout
                process.timer_deadline = deadline
                heappush(self._timers, (deadline, process.index))
            predicate = request.predicate
            if predicate is None:
                process.predicate = _any_change
            else:
                process.predicate = predicate
                # A predicate that is already true fires next pass even
                # if no signal changes again.
                self.predicate_evals += 1
                if predicate() and not process.queued:
                    process.queued = True
                    self._next_agenda.append(process.index)
        elif isinstance(request, Delta):
            process.delta = True
            process.queued = True
            self._next_agenda.append(process.index)
        else:
            raise SimulationError(
                f"process {process.name} yielded {request!r}; expected "
                "Wait, Delta or WaitOn"
            )

    # ------------------------------------------------------------------

    def _blocked_reason(self, process: _Process) -> str:
        if process.watched:
            names = ", ".join(getattr(s, "name", "?")
                              for s in process.watched)
            return f"waiting on signals [{names}] (WaitOn predicate pending)"
        if process.wake_time is None:
            return "has no pending wait request"
        return f"sleeping until clock {process.wake_time}"  # pragma: no cover

    def _deadlock_error(self) -> DeadlockError:
        workers = [p for p in self._processes
                   if not p.finished and not p.daemon]
        daemons = [p for p in self._processes
                   if not p.finished and p.daemon]
        lines = [f"deadlock at clock {self._now}: "
                 f"{len(workers)} process(es) are blocked and no timer "
                 "is pending"]
        for process in workers:
            lines.append(f"  - {process.name}: "
                         f"{self._blocked_reason(process)}")
        if daemons:
            lines.append("  daemons (do not keep the simulation alive):")
            for process in daemons:
                lines.append(f"  - {process.name}: "
                             f"{self._blocked_reason(process)}")
        if self._recorder is not None:
            self._recorder.on_deadlock(self._now, len(workers))
        return DeadlockError("\n".join(lines))
