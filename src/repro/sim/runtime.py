"""Elaborate and simulate refined specifications.

This is where the paper's claim "the refined specification is
simulatable and the design functionality after insertion of buses and
communication protocols can be verified" becomes executable:

* every (rewritten) behavior becomes a kernel process interpreting its
  statement IR with the documented clock costs;
* every generated variable process becomes a daemon serving its
  channels over the live bus signals;
* ``Call`` statements run the real protocol coroutines -- arbitration,
  ID lines, word slicing, handshakes and all.

Typed values cross the bus as raw bit patterns: the accessor encodes
(two's complement for signed integers), the variable process decodes,
and vice versa for reads, so integrity checks against the golden
interpreter (:mod:`repro.spec.interp`) exercise real encode/decode
round trips.

Scheduling: ``schedule`` sequences behaviors into stages (each stage a
behavior name or a list run concurrently).  A sequential schedule
reproduces the golden interpreter's canonical order -- and is also the
contention-free case where measured clocks must equal the estimator's.
Omitting the schedule starts everything at clock 0, exposing bus
contention (the arbitration ablation).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.errors import SimulationError
from repro.obs.simmetrics import SimMetrics
from repro.obs.tracer import span as obs_span
from repro.protogen.procedures import CommProcedure
from repro.protogen.refine import RefinedSpec
from repro.sim.analysis import (
    ArbiterStats,
    BusStats,
    Grant,
    analyze_arbiter,
    analyze_bus,
)
from repro.sim.arbiter import Arbiter
from repro.sim.bus import SimBus, StorageAdapter, Transaction
from repro.sim.faults import FaultInjector, FaultPlan, FaultRecord
from repro.sim.kernel import SimStats, Simulator, Wait, WaitOn
from repro.sim.signals import Signal
from repro.spec.behavior import Behavior
from repro.spec.expr import Environment
from repro.spec.stmt import (
    Assign,
    Call,
    ElementTarget,
    For,
    If,
    Nop,
    Stmt,
    WaitClocks,
    While,
)
from repro.spec.types import ArrayType, DataType, IntType, Value
from repro.spec.variable import Variable

if TYPE_CHECKING:
    from repro.obs.flight import FlightRecorder
    from repro.sim.compiled import CompiledProgram

#: The two simulation backends ``simulate`` can select between.
BACKENDS = ("interp", "compiled")

#: One stage of a schedule: a behavior name or several run concurrently.
Stage = Union[str, Sequence[str]]
ArbiterFactory = Callable[[Simulator, List[str]], Arbiter]

#: Shared 1-clock wait request.  Wait instances are immutable and the
#: kernel never retains them past the yield, so the single-statement
#: cost (one per Assign/If/For/While step) need not allocate.
_WAIT_ONE = Wait(1)


@dataclass
class SimResult:
    """Outcome of simulating a refined specification."""

    stats: SimStats
    #: Final values of all shared variables, keyed by name.
    final_values: Dict[str, Value]
    #: Per-behavior active clocks (first statement to completion).
    clocks: Dict[str, int]
    #: Per-bus transaction logs.
    transactions: Dict[str, List[Transaction]]
    #: Per-bus arbiter grant logs.
    grants: Dict[str, List[Grant]]
    #: Every fault the injector actually fired, in injection order
    #: (empty when the run had no fault plan).
    fault_records: List[FaultRecord] = field(default_factory=list)
    #: Which simulation backend produced this result.
    backend: str = "interp"
    #: Compiled backend only: behavior name -> why it ran on the
    #: interpreter instead (compile fallback or translation-validation
    #: demotion).  Sorted by behavior name; empty for interp runs.
    fallbacks: Dict[str, str] = field(default_factory=dict)

    @property
    def end_time(self) -> int:
        return self.stats.end_time

    # Each fold is computed once, on first read after the run: a caller
    # that only wants final values (a long sweep) never pays for it.

    @functools.cached_property
    def buses(self) -> Dict[str, BusStats]:
        """Per-bus fold of the transaction log (:func:`analyze_bus`)."""
        return {name: analyze_bus(log, self.end_time)
                for name, log in self.transactions.items()}

    @functools.cached_property
    def arbiters(self) -> Dict[str, ArbiterStats]:
        """Per-bus fold of the arbiter's grant log
        (:func:`analyze_arbiter`)."""
        return {name: analyze_arbiter(log)
                for name, log in self.grants.items()}

    @property
    def utilization(self) -> Dict[str, float]:
        """Per-bus :attr:`BusStats.utilization`."""
        return {name: bus.utilization for name, bus in self.buses.items()}

    @property
    def arbitration_wait(self) -> Dict[str, int]:
        """Per-bus total clocks spent waiting for bus grants."""
        return {name: arbiter.wait_clocks
                for name, arbiter in self.arbiters.items()}

    def transactions_for(self, channel_name: str) -> List[Transaction]:
        out: List[Transaction] = []
        for log in self.transactions.values():
            out.extend(t for t in log if t.channel == channel_name)
        return out


def _scalar_dtype(variable: Variable) -> DataType:
    dtype = variable.dtype
    if isinstance(dtype, ArrayType):
        return dtype.element
    return dtype


def _wrap_value(variable: Variable, value: int) -> int:
    """Wrap an arbitrary integer into the variable's scalar range,
    exactly as a direct assignment would (hardware truncation)."""
    dtype = _scalar_dtype(variable)
    if isinstance(dtype, IntType):
        return dtype.wrap(value)
    return value & ((1 << dtype.bits) - 1)


def _encode(variable: Variable, value: int) -> int:
    return _scalar_dtype(variable).encode(value)  # type: ignore[arg-type]


def _decode(variable: Variable, raw: int) -> int:
    decoded = _scalar_dtype(variable).decode(raw)
    assert isinstance(decoded, int)
    return decoded


class RefinedSimulation:
    """Elaborates a refined spec into a runnable simulation."""

    def __init__(self, spec: RefinedSpec,
                 schedule: Optional[Sequence[Stage]] = None,
                 arbiter_factories: Optional[Dict[str, ArbiterFactory]] = None,
                 trace: bool = False,
                 max_clocks: int = 10_000_000,
                 metrics: Optional[SimMetrics] = None,
                 faults: Optional[FaultPlan] = None,
                 recorder: Optional["FlightRecorder"] = None,
                 backend: str = "interp",
                 emit_sim_source: Optional[str] = None,
                 validate_compiled: bool = True):
        if backend not in BACKENDS:
            raise SimulationError(
                f"unknown simulation backend {backend!r}; expected one "
                f"of {', '.join(BACKENDS)}"
            )
        if emit_sim_source is not None and backend != "compiled":
            raise SimulationError(
                "emit_sim_source dumps generated code and requires "
                f"backend='compiled', got backend={backend!r}"
            )
        self.spec = spec
        self.backend = backend
        self.trace = trace
        self.metrics = metrics
        self.recorder = recorder
        self.sim = Simulator(max_clocks=max_clocks,
                             metrics=metrics.kernel if metrics else None,
                             recorder=recorder)
        self.injector: Optional[FaultInjector] = (
            FaultInjector(faults, self.sim) if faults is not None
            and len(faults) else None
        )
        if self.injector is not None and recorder is not None:
            self.injector.recorder = recorder
        self.env = Environment()
        for variable in spec.original.variables:
            self.env.declare(variable)

        self._stages = self._normalize_schedule(schedule)
        self._done: Dict[str, bool] = {b.name: False for b in spec.behaviors}
        #: One event wire per behavior, set at completion; schedule
        #: successors sleep on these instead of polling the dict.
        self._done_signal: Dict[str, Signal] = {
            b.name: Signal(f"done.{b.name}") for b in spec.behaviors
        }
        self._start: Dict[str, int] = {}
        self._finish: Dict[str, int] = {}

        # Buses and their procedure lookup.
        self.buses: Dict[str, SimBus] = {}
        self._proc_map: Dict[int, tuple] = {}
        factories = arbiter_factories or {}
        for refined_bus in spec.buses:
            members = [b.name for b in refined_bus.group.behaviors()]
            factory = factories.get(refined_bus.name)
            arbiter = factory(self.sim, members) if factory else None
            sim_bus = SimBus(refined_bus.structure, self.sim,
                             arbiter=arbiter, trace=trace)
            if recorder is not None:
                sim_bus.recorder = recorder
                sim_bus.arbiter.recorder = recorder
                sim_bus.arbiter.recorder_bus = refined_bus.name
            if self.injector is not None:
                self.injector.attach_bus(sim_bus)
            self.buses[refined_bus.name] = sim_bus
            for pair in refined_bus.procedures.values():
                self._proc_map[id(pair.accessor)] = (sim_bus, pair)
        if self.injector is not None:
            self.injector.verify_attached()

        #: Served-variable storage adapters, shared between the variable
        #: servers and the compiled backend's fused transfers (both must
        #: hit the same closure over the environment).
        self._storages: Dict[Variable, StorageAdapter] = {}
        self._encoders: Dict[Variable, Callable[[int], int]] = {}
        self._decoders: Dict[Variable, Callable[[int], int]] = {}

        self.compiled: Optional["CompiledProgram"] = None
        #: Translation-validation report (compiled backend with
        #: ``validate_compiled=True`` only).
        self.tv_report = None
        if backend == "compiled":
            from repro.sim.compiled import compile_spec, emit_sources
            self.compiled = compile_spec(self)
            if validate_compiled:
                # The correctness gate: every lowered process was
                # statically proven clock- and effect-equivalent to the
                # interpreter, or refuted, when it was built; refuted
                # processes are demoted to the interpreter with the
                # refutation as their reason.
                from repro.analysis.tv import validate_program
                self.tv_report = validate_program(self)
                for name, verdict in sorted(
                        self.tv_report.verdicts.items()):
                    self.compiled.verdicts[name] = verdict.describe()
                    if verdict.refuted:
                        self.compiled.processes.pop(name, None)
                        self.compiled.fallbacks[name] = (
                            f"translation validation refuted: "
                            f"{verdict.reason}")
                self.compiled.fallbacks = dict(
                    sorted(self.compiled.fallbacks.items()))
            if emit_sim_source is not None:
                emit_sources(self.compiled, spec, emit_sim_source)

        self._register_processes(spec)

    # ------------------------------------------------------------------
    # Elaboration
    # ------------------------------------------------------------------

    def _normalize_schedule(self, schedule: Optional[Sequence[Stage]]
                            ) -> List[List[str]]:
        if schedule is None:
            return []
        stages: List[List[str]] = []
        for stage in schedule:
            if isinstance(stage, str):
                stages.append([stage])
            else:
                stages.append(list(stage))
        names = [name for stage in stages for name in stage]
        if len(set(names)) != len(names):
            raise SimulationError(f"schedule repeats a behavior: {names}")
        known = {b.name for b in self.spec.behaviors}
        unknown = set(names) - known
        if unknown:
            raise SimulationError(
                f"schedule names unknown behaviors: {sorted(unknown)}"
            )
        return stages

    def _predecessors(self, name: str) -> List[str]:
        """Behaviors that must finish before ``name`` starts."""
        previous: List[str] = []
        for stage in self._stages:
            if name in stage:
                return previous
            previous = stage
        return []

    def _register_processes(self, spec: RefinedSpec) -> None:
        # Variable processes register first: servers must take their
        # initial wait (and snapshot the word strobe) before any
        # behavior can start a transaction at clock 0.
        for refined_bus in spec.buses:
            sim_bus = self.buses[refined_bus.name]
            for vproc in refined_bus.variable_processes:
                storage = self.storage_for(vproc.variable)
                self.sim.add_process(
                    f"{refined_bus.name}.{vproc.name}",
                    sim_bus.variable_server(vproc, storage),
                    daemon=True,
                )
        for behavior in spec.behaviors:
            body_fn = None
            if self.compiled is not None:
                body_fn = self.compiled.processes.get(behavior.name)
            self.sim.add_process(
                behavior.name,
                self._behavior_process(behavior) if body_fn is None
                else self._compiled_behavior_process(behavior, body_fn),
            )

    def _storage_adapter(self, variable: Variable) -> StorageAdapter:
        def read(address: Optional[int]) -> int:
            stored = self.env.read(variable)
            if isinstance(stored, list):
                if address is None:
                    raise SimulationError(
                        f"array {variable.name} read without address"
                    )
                dtype = variable.dtype
                assert isinstance(dtype, ArrayType)
                dtype.validate_index(address)
                return _encode(variable, stored[address])
            return _encode(variable, stored)

        def write(address: Optional[int], raw: int) -> None:
            value = _decode(variable, raw)
            if isinstance(variable.dtype, ArrayType):
                if address is None:
                    raise SimulationError(
                        f"array {variable.name} written without address"
                    )
                self.env.write_element(variable, address, value)
            else:
                self.env.write(variable, value)

        return StorageAdapter(read=read, write=write)

    def storage_for(self, variable: Variable) -> StorageAdapter:
        """The (memoized) storage adapter serving ``variable``."""
        adapter = self._storages.get(variable)
        if adapter is None:
            adapter = self._storage_adapter(variable)
            self._storages[variable] = adapter
        return adapter

    def packer_for(self, variable: Variable) -> Callable[[int], int]:
        """value -> raw bus bits, with the write-side wrap (compiled
        backend's equivalent of ``_wrap_value`` + ``_encode``)."""
        packer = self._encoders.get(variable)
        if packer is None:
            def packer(value: int, _v: Variable = variable) -> int:
                return _encode(_v, _wrap_value(_v, value))
            self._encoders[variable] = packer
        return packer

    def decoder_for(self, variable: Variable) -> Callable[[int], int]:
        """raw bus bits -> value (compiled backend's ``_decode``)."""
        decoder = self._decoders.get(variable)
        if decoder is None:
            def decoder(raw: int, _v: Variable = variable) -> int:
                return _decode(_v, raw)
            self._decoders[variable] = decoder
        return decoder

    # ------------------------------------------------------------------
    # Behavior interpretation
    # ------------------------------------------------------------------

    def _behavior_process(self, behavior: Behavior) -> Generator:
        for local in behavior.local_variables:
            if not self.env.is_declared(local):
                self.env.declare(local)

        predecessors = self._predecessors(behavior.name)
        if predecessors:
            done = self._done
            yield WaitOn(
                tuple(self._done_signal[p] for p in predecessors),
                lambda: all(done[p] for p in predecessors),
            )
        self._start[behavior.name] = self.sim.now
        yield from self._exec_body(behavior, behavior.body)
        self._finish[behavior.name] = self.sim.now
        self._done[behavior.name] = True
        self._done_signal[behavior.name].set(1)

    def _compiled_behavior_process(self, behavior: Behavior,
                                   body_fn: Callable[[], Generator]
                                   ) -> Generator:
        """Same start/finish discipline as :meth:`_behavior_process`,
        with the interpreted body swapped for a compiled one.  Loop
        variables are declared eagerly (the interpreter declares them
        at first loop entry) -- observable only through snapshots, not
        results."""
        for local in sorted(behavior.declared_variables(),
                            key=lambda v: v.name):
            if not self.env.is_declared(local):
                self.env.declare(local)

        predecessors = self._predecessors(behavior.name)
        if predecessors:
            done = self._done
            yield WaitOn(
                tuple(self._done_signal[p] for p in predecessors),
                lambda: all(done[p] for p in predecessors),
            )
        self._start[behavior.name] = self.sim.now
        yield from body_fn()
        self._finish[behavior.name] = self.sim.now
        self._done[behavior.name] = True
        self._done_signal[behavior.name].set(1)

    def _exec_body(self, behavior: Behavior,
                   body: Sequence[Stmt]) -> Generator:
        # The straight-line statements (Assign dominates every workload)
        # are dispatched inline on exact type to avoid one generator
        # object plus a delegation frame per statement; compound
        # statements fall through to _exec_stmt.
        for stmt in body:
            kind = type(stmt)
            if kind is Assign:
                self._do_assign(stmt)
                yield _WAIT_ONE
            elif kind is WaitClocks:
                if stmt.clocks:
                    yield Wait(stmt.clocks)
            elif kind is Nop:
                pass
            else:
                yield from self._exec_stmt(behavior, stmt)

    def _exec_stmt(self, behavior: Behavior, stmt: Stmt) -> Generator:
        if isinstance(stmt, Assign):
            self._do_assign(stmt)
            yield _WAIT_ONE
        elif isinstance(stmt, If):
            taken = bool(stmt.cond.evaluate(self.env))
            yield _WAIT_ONE
            yield from self._exec_body(
                behavior, stmt.then_body if taken else stmt.else_body)
        elif isinstance(stmt, For):
            if not self.env.is_declared(stmt.var):
                self.env.declare(stmt.var)
            body = stmt.body
            var = stmt.var
            for i in range(stmt.lo, stmt.hi + 1):
                self.env.write(var, self._wrap(var, i))
                yield _WAIT_ONE
                yield from self._exec_body(behavior, body)
        elif isinstance(stmt, While):
            while True:
                condition = bool(stmt.cond.evaluate(self.env))
                yield _WAIT_ONE
                if not condition:
                    break
                yield from self._exec_body(behavior, stmt.body)
        elif isinstance(stmt, WaitClocks):
            if stmt.clocks:
                yield Wait(stmt.clocks)
        elif isinstance(stmt, Call):
            yield from self._exec_call(behavior, stmt)
        elif isinstance(stmt, Nop):
            pass
        else:
            raise SimulationError(f"cannot simulate statement {stmt!r}")

    def _do_assign(self, stmt: Assign) -> None:
        value = stmt.expr.evaluate(self.env)
        target = stmt.target
        variable = target.variable
        if isinstance(target, ElementTarget):
            index = target.index.evaluate(self.env)
            dtype = variable.dtype
            assert isinstance(dtype, ArrayType)
            element = dtype.element
            wrapped = element.wrap(value) if isinstance(element, IntType) \
                else value & ((1 << element.bits) - 1)
            self.env.write_element(variable, index, wrapped)
        else:
            self.env.write(variable, self._wrap(variable, value))

    def _wrap(self, variable: Variable, value: int) -> int:
        dtype = variable.dtype
        if isinstance(dtype, IntType):
            return dtype.wrap(value)
        return value & ((1 << dtype.bits) - 1)

    def _exec_call(self, behavior: Behavior, stmt: Call) -> Generator:
        procedure = stmt.procedure
        if not isinstance(procedure, CommProcedure):
            raise SimulationError(
                f"behavior {behavior.name} calls {procedure!r}, which is "
                "not a generated communication procedure"
            )
        try:
            sim_bus, pair = self._proc_map[id(procedure)]
        except KeyError:
            raise SimulationError(
                f"procedure {procedure.name} does not belong to any bus "
                "of this refined spec"
            ) from None

        channel = pair.channel
        args = list(stmt.args)
        address: Optional[int] = None
        if procedure.takes_address:
            if not args:
                raise SimulationError(
                    f"{procedure.name}: missing address argument"
                )
            address = args.pop(0).evaluate(self.env)
            dtype = channel.variable.dtype
            assert isinstance(dtype, ArrayType)
            dtype.validate_index(address)

        raw_data: Optional[int] = None
        if channel.is_write:
            if len(args) != 1:
                raise SimulationError(
                    f"{procedure.name}: expected exactly one data argument"
                )
            # Wrap first: the original direct assignment truncated to
            # the destination width, and refinement must preserve that.
            value = _wrap_value(channel.variable,
                                args[0].evaluate(self.env))
            raw_data = _encode(channel.variable, value)
        elif args:
            raise SimulationError(
                f"{procedure.name}: unexpected arguments {args}"
            )

        yield from sim_bus.arbiter.acquire(behavior.name)
        try:
            raw_result = yield from sim_bus.accessor_transfer(
                pair, behavior.name, address, raw_data)
        finally:
            sim_bus.arbiter.release(behavior.name)

        if channel.is_read:
            if len(stmt.results) != 1:
                raise SimulationError(
                    f"{procedure.name}: read call needs exactly one "
                    "result target"
                )
            assert raw_result is not None
            value = _decode(channel.variable, raw_result)
            target = stmt.results[0]
            if isinstance(target, ElementTarget):
                index = target.index.evaluate(self.env)
                self.env.write_element(target.variable, index, value)
            else:
                self.env.write(target.variable,
                               self._wrap(target.variable, value))
        elif stmt.results:
            raise SimulationError(
                f"{procedure.name}: write call takes no result targets"
            )

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        with obs_span("sim.run", category="sim",
                      system=self.spec.name) as sp:
            stats = self.sim.run()
            sp.set(end_clock=stats.end_time)
        if self.recorder is not None:
            self.recorder.finish(stats.end_time)
        final_values: Dict[str, Value] = {}
        for variable in self.spec.original.variables:
            value = self.env.read(variable)
            final_values[variable.name] = (
                list(value) if isinstance(value, list) else value
            )
        clocks = {
            name: self._finish[name] - self._start[name]
            for name in self._finish
        }
        result = SimResult(
            stats=stats,
            final_values=final_values,
            clocks=clocks,
            transactions={name: bus.transactions
                          for name, bus in self.buses.items()},
            grants={name: bus.arbiter.grants
                    for name, bus in self.buses.items()},
            fallbacks=(dict(self.compiled.fallbacks)
                       if self.compiled is not None else {}),
            fault_records=(list(self.injector.records)
                           if self.injector is not None else []),
            backend=self.backend,
        )
        if self.metrics is not None:
            self.metrics.on_run_end(result)
        return result


def simulate(spec: RefinedSpec,
             schedule: Optional[Sequence[Stage]] = None,
             arbiter_factories: Optional[Dict[str, ArbiterFactory]] = None,
             trace: bool = False,
             max_clocks: int = 10_000_000,
             metrics: Optional[SimMetrics] = None,
             faults: Optional[FaultPlan] = None,
             recorder: Optional["FlightRecorder"] = None,
             backend: str = "interp",
             emit_sim_source: Optional[str] = None,
             validate_compiled: bool = True) -> SimResult:
    """Elaborate and run a refined specification in one call.

    Pass a :class:`repro.obs.SimMetrics` as ``metrics`` to collect the
    kernel's scheduler counters next to the run's bus/arbiter folds, a
    :class:`repro.sim.faults.FaultPlan` as ``faults`` to inject wire
    faults (every fired fault lands in ``SimResult.fault_records``),
    and a :class:`repro.obs.flight.FlightRecorder` as ``recorder`` to
    journal the causal chain of every transfer with exact clock
    attribution.

    ``backend`` selects the process engine: ``"interp"`` walks the
    statement IR; ``"compiled"`` lowers each behavior to generated
    Python (see :mod:`repro.sim.compiled`) and transparently falls
    back, per behavior and per channel, for anything it cannot compile.
    ``emit_sim_source`` (compiled only) dumps the generated code into a
    directory for inspection.

    With the default ``validate_compiled=True`` the compiled backend
    never runs an unproven process: the translation validator
    (:mod:`repro.analysis.tv`) must certify each lowered behavior
    clock- and effect-equivalent to the interpreter, and refuted
    behaviors are demoted to the interpreter with the P8xx refutation
    recorded on ``SimResult.fallbacks``.  Disable only to study a
    known-miscompiled program (e.g. replaying a validator
    counterexample).
    """
    with obs_span("sim.elaborate", category="sim", system=spec.name):
        simulation = RefinedSimulation(
            spec, schedule=schedule, arbiter_factories=arbiter_factories,
            trace=trace, max_clocks=max_clocks, metrics=metrics,
            faults=faults, recorder=recorder, backend=backend,
            emit_sim_source=emit_sim_source,
            validate_compiled=validate_compiled,
        )
    return simulation.run()
