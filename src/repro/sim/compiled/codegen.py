"""Behavior lowering: statement IR -> generated Python generators.

Each compilable behavior becomes one generated ``def run():`` generator
``exec``'d against a namespace of pre-bound objects (the kernel's
``Wait``, environment methods, transfer coroutines, checked-division
helpers).  The central trick is **clock batching**: instead of yielding
``Wait(1)`` per statement like the interpreter, generated code
accumulates the documented clock costs in a plain integer ``t`` and
flushes it in one kernel wait at synchronization points:

* before every ``Call`` (transfers must start at their exact clock);
* before any access to a *contested* variable (see
  :mod:`~repro.sim.compiled.analyze`);
* every ``CHUNK_CLOCKS`` inside ``While`` loops (so runaway loops
  still trip ``max_clocks``);
* at behavior end (so the finish clock is exact).

Uncontested scalars live as native Python locals, loaded from the
environment at process start and written back at the end; arrays alias
the environment's backing list, so element writes are visible to the
(sequentially ordered) rest of the system without copies.  Statement
semantics -- evaluation order, wrap-on-assign, the loop-variable wrap,
``For``/``While`` clock costs -- mirror
:class:`repro.sim.runtime.RefinedSimulation` exactly.

Each lowered behavior is a :class:`Unit` built once per process and
kept in :data:`UNITS`, keyed on the facts translation validation
(:mod:`repro.analysis.tv`) judges its source against: the source is
parsed once, the validator judges that tree, and the code object is
compiled from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.fifo import FifoTable
from repro.obs.tracer import span as obs_span
from repro.sim.arbiter import ImmediateArbiter
from repro.sim.compiled.analyze import Analysis, analyze_spec
from repro.sim.compiled.exprgen import CompileFallback, compile_expr
from repro.sim.compiled.transfer import FUSED, make_transfer, plan_channel
from repro.sim.kernel import Wait
from repro.spec.behavior import Behavior
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
from repro.spec.types import ArrayType, IntType
from repro.spec.variable import Variable

#: Forced mid-batch flush interval inside While loops: bounds the
#: clocks a compiled process can run ahead of the kernel, so infinite
#: loops still hit the kernel's ``max_clocks`` guard.
CHUNK_CLOCKS = 4096


@dataclass
class CompiledProgram:
    """Output of :func:`compile_spec`: per-process factories + report."""

    #: behavior name -> zero-arg generator factory (the lowered body).
    processes: Dict[str, Callable[[], Generator]] = field(
        default_factory=dict)
    #: behavior name -> generated Python source (for --emit-sim-source).
    sources: Dict[str, str] = field(default_factory=dict)
    #: behavior name -> why it stayed on the interpreter.
    fallbacks: Dict[str, str] = field(default_factory=dict)
    #: (bus name, channel name) -> (transfer mode, reason).
    channel_modes: Dict[Tuple[str, str], Tuple[str, str]] = field(
        default_factory=dict)
    #: behavior name -> translation-validation verdict line
    #: ("validated (N obligations)", "REFUTED (P80x: ...)",
    #: "interpreter fallback"); empty unless the runtime gates on them
    #: (``validate_compiled=True``).
    verdicts: Dict[str, str] = field(default_factory=dict)
    #: the (spec, plan) :class:`Lowering` these processes were bound
    #: from, shared by every runtime of that plan.
    lowering: Optional["Lowering"] = None

    @property
    def compiled_count(self) -> int:
        return len(self.processes)

    @property
    def total_count(self) -> int:
        return len(self.processes) + len(self.fallbacks)

    def describe(self) -> List[str]:
        """Human-readable per-process / per-channel report lines."""
        lines = [f"compiled {self.compiled_count}/{self.total_count} "
                 "behaviors"]
        for name in sorted(self.fallbacks):
            lines.append(f"  {name}: interpreter fallback "
                         f"({self.fallbacks[name]})")
        for name in sorted(self.verdicts):
            lines.append(
                f"  {name}: translation validation {self.verdicts[name]}")
        for (bus, channel), (mode, reason) in sorted(
                self.channel_modes.items()):
            suffix = f" ({reason})" if reason else ""
            lines.append(f"  {bus}.{channel}: {mode} transfer{suffix}")
        return lines


@lru_cache(maxsize=1024)
def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _scalar_bounds(dtype) -> Tuple[int, int]:
    """Representable range of a scalar dtype (for loop-var wrap
    elision)."""
    if isinstance(dtype, IntType) and dtype.signed:
        half = 1 << (dtype.bits - 1)
        return -half, half - 1
    return 0, (1 << dtype.bits) - 1


def _wrap_code(dtype, code: str) -> str:
    """Inline equivalent of the runtime's ``_wrap`` for ``dtype``."""
    if isinstance(dtype, IntType) and dtype.signed:
        half = 1 << (dtype.bits - 1)
        mask = (1 << dtype.bits) - 1
        return f"((({code} + {half}) & {mask}) - {half})"
    return f"(({code}) & {(1 << dtype.bits) - 1})"


class _BehaviorCompiler:
    """Lowers one behavior body to a ``run()`` generator source."""

    def __init__(self, runtime, behavior: Behavior, analysis: Analysis,
                 channel_modes: Dict[Tuple[str, str], Tuple[str, str]],
                 deferred_channels: frozenset):
        self.runtime = runtime
        self.behavior = behavior
        self.contested = analysis.contested
        self.touched = analysis.touches[behavior.name]
        self.channel_modes = channel_modes
        self.deferred_channels = deferred_channels
        self.lines: List[str] = []
        self.ns: Dict[str, object] = {"W": Wait}
        self._bound: Dict[tuple, str] = {}
        #: (bound name, rebind descriptor) per *new* binding, in
        #: binding order: the recipe :func:`_rebind` replays to rebuild
        #: the namespace against another runtime.
        self.recipe: List[Tuple[str, tuple]] = []
        self._tmp = 0
        #: Variable -> ("native", name) | ("env", bound var name)
        #:          | ("array", alias name)
        self.modes: Dict[Variable, Tuple[str, str]] = {}

    # -- namespace ----------------------------------------------------

    def bind(self, obj: object, hint: str, rebind: tuple) -> str:
        """The namespace name of ``obj``, bound once per descriptor: a
        fresh bound method (``dtype.validate_index``) per access site
        still shares one name."""
        name = self._bound.get(rebind)
        if name is None:
            name = f"_b{len(self._bound)}_{_sanitize(hint)}"
            self._bound[rebind] = name
            self.ns[name] = obj
            self.recipe.append((name, rebind))
        return name

    def temp(self, prefix: str = "_t") -> str:
        self._tmp += 1
        return f"{prefix}{self._tmp}"

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    # -- variable access ----------------------------------------------

    def _classify(self) -> None:
        spec = self.runtime.spec
        loadable = set(spec.original.variables) \
            | set(self.behavior.local_variables)
        for variable in sorted(self.touched, key=lambda v: v.name):
            label = _sanitize(variable.name)
            if isinstance(variable.dtype, ArrayType):
                self.modes[variable] = ("array", f"_a_{label}")
            elif variable in self.contested:
                self.modes[variable] = (
                    "env", self.bind(variable, f"v_{label}",
                                     ("var", variable.name)))
            else:
                self.modes[variable] = ("native", f"_l_{label}")
        self._loadable = loadable

    def read_scalar(self, variable: Variable) -> str:
        mode, name = self.modes[variable]
        if mode == "native":
            return name
        env_read = self.bind(self.runtime.env.read, "env_read",
                             ("env", "read"))
        return f"{env_read}({name})"

    def read_element(self, variable: Variable, index_code: str) -> str:
        _, arr = self.modes[variable]
        dtype = variable.dtype
        assert isinstance(dtype, ArrayType)
        check = self.bind(dtype.validate_index,
                          f"ixchk_{_sanitize(variable.name)}",
                          ("var_ixchk", variable.name))
        tmp = self.temp("_i")
        # Inline bounds test; out-of-range delegates to validate_index
        # for the interpreter's exact TypeSpecError.
        return (f"{arr}[{tmp} if 0 <= ({tmp} := {index_code}) "
                f"< {dtype.length} else {check}({tmp})]")

    def _expr(self, expr) -> str:
        return compile_expr(expr, self)

    # -- flush points -------------------------------------------------

    def _reads_contested(self, stmt: Stmt) -> bool:
        return any(read.variable in self.contested
                   for read in stmt.reads())

    def _needs_flush(self, stmt: Stmt) -> bool:
        if isinstance(stmt, Call):
            return False  # _emit_call flushes itself unless deferred
        if isinstance(stmt, Assign):
            return stmt.target.variable in self.contested \
                or self._reads_contested(stmt)
        if isinstance(stmt, (If, While)):
            return self._reads_contested(stmt)
        if isinstance(stmt, For):
            return stmt.var in self.contested
        return False

    def _flush(self, indent: int) -> None:
        self.emit(indent, "if t:")
        self.emit(indent + 1, "yield W(t)")
        self.emit(indent + 1, "t = 0")

    # -- statements ---------------------------------------------------

    def _emit_body(self, body, indent: int) -> None:
        for stmt in body:
            self._emit_stmt(stmt, indent)

    def _emit_stmt(self, stmt: Stmt, indent: int) -> None:
        kind = type(stmt)
        if kind is Nop:
            return
        if kind is WaitClocks:
            if stmt.clocks:
                self.emit(indent, f"t += {stmt.clocks}")
            return
        if self._needs_flush(stmt):
            self._flush(indent)
        if kind is Assign:
            self._emit_assign(stmt, indent)
        elif kind is If:
            self._emit_if(stmt, indent)
        elif kind is For:
            self._emit_for(stmt, indent)
        elif kind is While:
            self._emit_while(stmt, indent)
        elif kind is Call:
            self._emit_call(stmt, indent)
        else:
            raise CompileFallback(
                f"unsupported statement {type(stmt).__name__}")

    def _emit_assign(self, stmt: Assign, indent: int) -> None:
        target = stmt.target
        variable = target.variable
        if isinstance(target, ElementTarget):
            dtype = variable.dtype
            assert isinstance(dtype, ArrayType)
            # Value before index, like the interpreter's _do_assign.
            value = self.temp("_v")
            self.emit(indent, f"{value} = {self._expr(stmt.expr)}")
            index = self.temp("_i")
            self.emit(indent, f"{index} = {self._expr(target.index)}")
            _, arr = self.modes[variable]
            check = self.bind(dtype.validate_index,
                              f"ixchk_{_sanitize(variable.name)}",
                              ("var_ixchk", variable.name))
            self.emit(indent,
                      f"{arr}[{index} if 0 <= {index} < {dtype.length} "
                      f"else {check}({index})] = "
                      f"{_wrap_code(dtype.element, value)}")
        else:
            mode, name = self.modes[variable]
            wrapped = _wrap_code(variable.dtype, self._expr(stmt.expr))
            if mode == "native":
                self.emit(indent, f"{name} = {wrapped}")
            else:
                env_write = self.bind(self.runtime.env.write,
                                      "env_write", ("env", "write"))
                self.emit(indent, f"{env_write}({name}, {wrapped})")
        self.emit(indent, "t += 1")

    def _emit_if(self, stmt: If, indent: int) -> None:
        self.emit(indent, f"if {self._expr(stmt.cond)} != 0:")
        self.emit(indent + 1, "t += 1")
        self._emit_body(stmt.then_body, indent + 1)
        self.emit(indent, "else:")
        self.emit(indent + 1, "t += 1")
        self._emit_body(stmt.else_body, indent + 1)

    def _emit_for(self, stmt: For, indent: int) -> None:
        variable = stmt.var
        mode, name = self.modes[variable]
        rng = f"range({stmt.lo}, {stmt.hi + 1})"
        if mode == "env":
            raw = self.temp("_f")
            self.emit(indent, f"for {raw} in {rng}:")
            self._flush(indent + 1)
            env_write = self.bind(self.runtime.env.write, "env_write",
                                  ("env", "write"))
            self.emit(indent + 1,
                      f"{env_write}({name}, "
                      f"{_wrap_code(variable.dtype, raw)})")
        else:
            lo_ok, hi_ok = _scalar_bounds(variable.dtype)
            if lo_ok <= stmt.lo and stmt.hi <= hi_ok:
                # Every iterate is representable: the wrap is identity.
                self.emit(indent, f"for {name} in {rng}:")
            else:
                raw = self.temp("_f")
                self.emit(indent, f"for {raw} in {rng}:")
                self.emit(indent + 1,
                          f"{name} = {_wrap_code(variable.dtype, raw)}")
        self.emit(indent + 1, "t += 1")
        self._emit_body(stmt.body, indent + 1)

    def _emit_while(self, stmt: While, indent: int) -> None:
        self.emit(indent, "while True:")
        self.emit(indent + 1, f"if t >= {CHUNK_CLOCKS}:")
        self.emit(indent + 2, "yield W(t)")
        self.emit(indent + 2, "t = 0")
        if self._reads_contested(stmt):
            self._flush(indent + 1)
        self.emit(indent + 1, f"if {self._expr(stmt.cond)} == 0:")
        self.emit(indent + 2, "t += 1")
        self.emit(indent + 2, "break")
        self.emit(indent + 1, "t += 1")
        self._emit_body(stmt.body, indent + 1)

    # -- calls --------------------------------------------------------

    def _transfer_name(self, sim_bus, pair, deferred: bool) -> str:
        mode, _ = self.channel_modes[(sim_bus.name, pair.channel.name)]
        rebind = ("transfer", sim_bus.name, pair.channel.name, mode,
                  deferred)
        name = self._bound.get(rebind)
        if name is None:
            storage = self.runtime.storage_for(pair.channel.variable)
            fn = make_transfer(sim_bus, pair, self.behavior.name, mode,
                               storage=storage, deferred=deferred)
            name = self.bind(
                fn, f"xf_{_sanitize(pair.channel.name)}_{mode}", rebind)
        return name

    def _emit_call(self, stmt: Call, indent: int) -> None:
        # analyze._call_reason vetted shape and arity already.
        sim_bus, pair = self.runtime._proc_map[id(stmt.procedure)]
        channel = pair.channel
        procedure = stmt.procedure
        mode, _ = self.channel_modes[(sim_bus.name, channel.name)]
        deferred = (sim_bus.name, channel.name) in self.deferred_channels
        note = ", deferred arbitration" if deferred else ""
        self.emit(indent,
                  f"# call {procedure.name}: {sim_bus.name}."
                  f"{channel.name} ({mode}{note})")
        if not deferred or self._reads_contested(stmt):
            self._flush(indent)
        args = list(stmt.args)
        addr = "None"
        if procedure.takes_address:
            addr = self.temp("_adr")
            self.emit(indent, f"{addr} = {self._expr(args.pop(0))}")
            check = self.bind(channel.variable.dtype.validate_index,
                              f"ixchk_{_sanitize(channel.variable.name)}",
                              ("chan_ixchk", sim_bus.name, channel.name))
            self.emit(indent, f"{check}({addr})")
        data = "None"
        if channel.is_write:
            packer = self.bind(self.runtime.packer_for(channel.variable),
                               f"pack_{_sanitize(channel.variable.name)}",
                               ("packer", sim_bus.name, channel.name))
            data = self.temp("_dat")
            self.emit(indent,
                      f"{data} = {packer}({self._expr(args[0])})")
        transfer = self._transfer_name(sim_bus, pair, deferred)
        result = self.temp("_r")
        if deferred:
            self.emit(indent,
                      f"{result} = yield from {transfer}"
                      f"({addr}, {data}, t)")
            self.emit(indent, "t = 0")
        else:
            arbiter = sim_bus.arbiter
            acquire = self.bind(arbiter.acquire,
                                f"acq_{_sanitize(sim_bus.name)}",
                                ("acquire", sim_bus.name))
            release = self.bind(arbiter.release,
                                f"rel_{_sanitize(sim_bus.name)}",
                                ("release", sim_bus.name))
            me = repr(self.behavior.name)
            self.emit(indent, f"yield from {acquire}({me})")
            self.emit(indent, "try:")
            self.emit(indent + 1,
                      f"{result} = yield from {transfer}"
                      f"({addr}, {data})")
            self.emit(indent, "finally:")
            self.emit(indent + 1, f"{release}({me})")
        if channel.is_read:
            decode = self.bind(
                self.runtime.decoder_for(channel.variable),
                f"dec_{_sanitize(channel.variable.name)}",
                ("decoder", sim_bus.name, channel.name))
            value = self.temp("_v")
            self.emit(indent, f"{value} = {decode}({result})")
            target = stmt.results[0]
            if isinstance(target, ElementTarget):
                index = self.temp("_i")
                self.emit(indent,
                          f"{index} = {self._expr(target.index)}")
                env_write_element = self.bind(
                    self.runtime.env.write_element, "env_write_element",
                    ("env", "write_element"))
                tvar = self.bind(
                    target.variable,
                    f"v_{_sanitize(target.variable.name)}",
                    ("var", target.variable.name))
                self.emit(indent,
                          f"{env_write_element}({tvar}, {index}, "
                          f"{value})")
            else:
                tmode, tname = self.modes[target.variable]
                wrapped = _wrap_code(target.variable.dtype, value)
                if tmode == "native":
                    self.emit(indent, f"{tname} = {wrapped}")
                else:
                    env_write = self.bind(self.runtime.env.write,
                                          "env_write", ("env", "write"))
                    self.emit(indent,
                              f"{env_write}({tname}, {wrapped})")

    # -- assembly -----------------------------------------------------

    def compile(self) -> Tuple[str, Dict[str, object]]:
        self._classify()
        self.emit(0, "def run():")
        self.emit(1, "t = 0")
        # The statement body runs inside try/except so that a raising
        # statement (checked div/mod, index check, bus error) first
        # flushes the pending batched clocks: the kernel then wraps the
        # re-raised exception at the same simulated clock the
        # interpreter would report.
        self.emit(1, "try:")
        env_read = self.bind(self.runtime.env.read, "env_read",
                             ("env", "read"))
        for variable in sorted(self.modes, key=lambda v: v.name):
            mode, name = self.modes[variable]
            if mode == "env":
                continue
            if variable in self._loadable:
                vname = self.bind(variable,
                                  f"v_{_sanitize(variable.name)}",
                                  ("var", variable.name))
                self.emit(2, f"{name} = {env_read}({vname})")
            # For-only loop variables are assigned by their loop before
            # any read; no prologue load (and no env declaration).
        self._emit_body(self.behavior.body, 2)
        self.emit(2, "if t:")
        self.emit(3, "yield W(t)")
        env_write = self.bind(self.runtime.env.write, "env_write",
                              ("env", "write"))
        original = set(self.runtime.spec.original.variables)
        for variable in sorted(self.modes, key=lambda v: v.name):
            mode, name = self.modes[variable]
            if mode == "native" and variable in original:
                vname = self.bind(variable,
                                  f"v_{_sanitize(variable.name)}",
                                  ("var", variable.name))
                self.emit(2, f"{env_write}({vname}, {name})")
        self.emit(1, "except GeneratorExit:")
        self.emit(2, "raise")
        self.emit(1, "except BaseException:")
        self.emit(2, "if t:")
        self.emit(3, "yield W(t)")
        self.emit(2, "raise")
        return "\n".join(self.lines) + "\n", self.ns


#: When set, every generated source is passed through this
#: ``(behavior_name, source) -> source`` hook before being exec'd and
#: recorded.  This is the seam the translation validator's codegen
#: defect corpus (:mod:`repro.analysis.tv.mutations`) uses to plant
#: *runnable* miscompilations: the mutated text is both what the
#: validator sees and what the kernel executes, so every refutation can
#: be replayed to a real backend divergence.
_SOURCE_TRANSFORM: Optional[Callable[[str, str], str]] = None


class source_transform:
    """Context manager installing a codegen source-transform hook."""

    def __init__(self, fn: Callable[[str, str], str]):
        self.fn = fn
        self._saved: Optional[Callable[[str, str], str]] = None

    def __enter__(self):
        global _SOURCE_TRANSFORM
        self._saved = _SOURCE_TRANSFORM
        _SOURCE_TRANSFORM = self.fn
        return self.fn

    def __exit__(self, *exc_info):
        global _SOURCE_TRANSFORM
        _SOURCE_TRANSFORM = self._saved
        return False


# ----------------------------------------------------------------------
# Lowered units
#
# A lowered behavior -- its generated source, binding recipe, code
# object and translation-validation verdict -- is a pure function of
# the facts the validator judges the source against
# (:class:`~repro.analysis.tv.trace.BehaviorFacts`: IR fingerprint,
# variable placement, contested set and transfer plans).  Each is built
# once, on a miss of :data:`UNITS`: generate, parse once, prove that
# tree, compile that tree.  Any runtime then only rebinds a namespace.
# ----------------------------------------------------------------------

#: Entries :data:`UNITS` keeps.  One 20 s design-flow benchmark run
#: (seed 1: 1080 requests, 5451 lookups) builds 2725 units at this
#: limit, 2863 at 512 and 2606 unbounded.
UNIT_TABLE_LIMIT = 1024


@dataclass(frozen=True)
class Unit:
    """One lowered behavior.  ``code`` is compiled from the very tree
    the validator judged; the tree itself is not kept."""

    source: str
    #: (bound name, rebind descriptor) per binding: see :func:`_rebind`.
    recipe: tuple
    code: object
    #: the :class:`~repro.analysis.tv.checker.ProcessVerdict`.
    verdict: object


#: ``(_scalar_bounds, CHUNK_CLOCKS, BehaviorFacts.key)`` -> :class:`Unit`.
#: The two codegen seams ride along so a monkeypatched codegen (the test
#: suite forces unsound elision this way) never shares entries with the
#: stock one.
UNITS = FifoTable(UNIT_TABLE_LIMIT)


def _rebind(runtime, behavior, recipe, pair_map,
            touched) -> Dict[str, object]:
    """Replay a binding recipe against a (new) runtime, producing the
    namespace a unit's source expects.  ``touched`` holds the
    variables the behavior touches directly."""
    ns: Dict[str, object] = {"W": Wait}
    varmap = {v.name: v for v in touched}
    for name, desc in recipe:
        kind = desc[0]
        if kind == "static":
            ns[name] = desc[1]
        elif kind == "env":
            ns[name] = getattr(runtime.env, desc[1])
        elif kind == "var":
            ns[name] = varmap[desc[1]]
        elif kind == "var_ixchk":
            ns[name] = varmap[desc[1]].dtype.validate_index
        elif kind == "chan_ixchk":
            _, pair = pair_map[desc[1], desc[2]]
            ns[name] = pair.channel.variable.dtype.validate_index
        elif kind == "packer":
            _, pair = pair_map[desc[1], desc[2]]
            ns[name] = runtime.packer_for(pair.channel.variable)
        elif kind == "decoder":
            _, pair = pair_map[desc[1], desc[2]]
            ns[name] = runtime.decoder_for(pair.channel.variable)
        elif kind == "acquire":
            ns[name] = runtime.buses[desc[1]].arbiter.acquire
        elif kind == "release":
            ns[name] = runtime.buses[desc[1]].arbiter.release
        elif kind == "transfer":
            bus_name, chan_name, mode, deferred = desc[1:]
            sim_bus, pair = pair_map[bus_name, chan_name]
            ns[name] = make_transfer(
                sim_bus, pair, behavior.name, mode,
                storage=runtime.storage_for(pair.channel.variable),
                deferred=deferred)
        else:  # pragma: no cover - descriptors are produced above
            raise KeyError(f"unknown rebind descriptor {kind!r}")
    return ns


@dataclass
class Lowering:
    """Everything compiling one (refined spec, simulation plan) yields
    that does not depend on a particular runtime: memoized on the spec
    (:meth:`~repro.protogen.refine.RefinedSpec.memoized`), so a second
    runtime of the same plan -- validate, then simulate -- only rebinds
    namespaces.  It holds no runtime and no bound namespace; its units
    are the shared :data:`UNITS` entries."""

    channel_modes: Dict[Tuple[str, str], Tuple[str, str]]
    #: behavior name -> why it stayed on the interpreter (compile time).
    fallbacks: Dict[str, str]
    #: behavior name -> (its :class:`Unit`, variables the behavior
    #: touches directly).
    units: Dict[str, Tuple[Unit, Tuple[Variable, ...]]]


def _plan_key(runtime) -> tuple:
    """Every input of a lowering beyond the spec itself: the schedule,
    the observers that pin channels to the interpreter tier, and each
    bus's fault injector and arbiter type.  ``_scalar_bounds`` and
    ``CHUNK_CLOCKS`` ride along as in :data:`UNITS`."""
    return ("lowering", _scalar_bounds, CHUNK_CLOCKS,
            tuple(tuple(stage) for stage in runtime._stages),
            runtime.recorder is not None, bool(runtime.trace),
            tuple((name, bus.injector is not None, type(bus.arbiter))
                  for name, bus in runtime.buses.items()))


def _pair_map(runtime) -> Dict[Tuple[str, str], Tuple[object, object]]:
    return {(refined_bus.name, pair.channel.name):
            (runtime.buses[refined_bus.name], pair)
            for refined_bus in runtime.spec.buses
            for pair in refined_bus.procedures.values()}


def _lower(runtime, bound: Dict[str, dict]) -> Lowering:
    """Lower every compilable behavior of ``runtime``'s spec.  A unit
    built here (not served by :data:`UNITS`) leaves its namespace,
    bound to ``runtime``, in ``bound``."""
    # Imported here: the validator imports this module.
    from repro.analysis.tv.checker import validate_behavior
    from repro.analysis.tv.trace import spec_facts

    spec = runtime.spec
    analysis = analyze_spec(spec, runtime._stages, runtime._proc_map)
    lowering = Lowering(channel_modes={},
                        fallbacks=dict(analysis.fallbacks), units={})

    deferred = set()
    for refined_bus in spec.buses:
        sim_bus = runtime.buses[refined_bus.name]
        deferrable = (
            type(sim_bus.arbiter) is ImmediateArbiter
            and sim_bus.name in analysis.uncontended_buses
        )
        for pair in refined_bus.procedures.values():
            mode, reason = plan_channel(
                sim_bus, pair, analysis.contested, runtime.recorder,
                runtime.trace)
            lowering.channel_modes[(sim_bus.name, pair.channel.name)] = \
                (mode, reason)
            if mode == FUSED and deferrable:
                deferred.add((sim_bus.name, pair.channel.name))
    deferred_channels = frozenset(deferred)
    facts_map = spec_facts(runtime, analysis, lowering.channel_modes,
                           deferred_channels)

    fresh = []
    for behavior in spec.behaviors:
        facts = facts_map.get(behavior.name)
        if facts is None:
            continue
        touched = tuple(analysis.touches[behavior.name])
        key = (_scalar_bounds, CHUNK_CLOCKS, facts.key)
        unit = UNITS.get(key) if _SOURCE_TRANSFORM is None else None
        if unit is not None:
            lowering.units[behavior.name] = (unit, touched)
            continue
        compiler = _BehaviorCompiler(runtime, behavior, analysis,
                                     lowering.channel_modes,
                                     deferred_channels)
        try:
            source, bound[behavior.name] = compiler.compile()
        except CompileFallback as exc:
            lowering.fallbacks[behavior.name] = str(exc)
            continue
        if _SOURCE_TRANSFORM is not None:
            source = _SOURCE_TRANSFORM(behavior.name, source)
        fresh.append((key, facts, source, tuple(compiler.recipe), touched))

    # One span per lowering, opened whether or not a unit was missing,
    # so span counts do not depend on what the table already holds.
    with obs_span("sim.validate", category="sim", system=spec.name):
        proofs = [validate_behavior(facts, source)
                  for _, facts, source, _, _ in fresh]
    for (key, facts, source, recipe, touched), (tree, verdict) in zip(
            fresh, proofs):
        unit = Unit(source, recipe,
                    compile(tree, f"<compiled {facts.name}>", "exec"),
                    verdict)
        if _SOURCE_TRANSFORM is None:
            UNITS.put(key, unit)
        lowering.units[facts.name] = (unit, touched)
    # Deterministic rendering everywhere the dict is iterated (MANIFEST,
    # run reports, SimResult.fallbacks): sorted by process name.
    lowering.fallbacks = dict(sorted(lowering.fallbacks.items()))
    return lowering


def compile_spec(runtime) -> CompiledProgram:
    """Compile every compilable behavior of a
    :class:`~repro.sim.runtime.RefinedSimulation`.

    The lowering is memoized on the spec under :func:`_plan_key`, its
    units in :data:`UNITS`; a unit not built for ``runtime`` only has
    its namespace rebound to it.  Under a :class:`source_transform`
    (the codegen defect corpus) every call lowers afresh and nothing is
    stored."""
    spec = runtime.spec
    bound: Dict[str, dict] = {}

    def lower() -> Lowering:
        with obs_span("sim.compile", category="sim", system=spec.name):
            return _lower(runtime, bound)

    if _SOURCE_TRANSFORM is None:
        lowering = spec.memoized(_plan_key(runtime), lower)
    else:
        lowering = lower()
    program = CompiledProgram(channel_modes=lowering.channel_modes,
                              fallbacks=dict(lowering.fallbacks),
                              lowering=lowering)
    pair_map = None
    for behavior in spec.behaviors:
        entry = lowering.units.get(behavior.name)
        if entry is None:
            continue
        unit, touched = entry
        ns = bound.get(behavior.name)
        if ns is None:
            if pair_map is None:
                pair_map = _pair_map(runtime)
            ns = _rebind(runtime, behavior, unit.recipe, pair_map,
                         touched)
        exec(unit.code, ns)
        program.processes[behavior.name] = ns["run"]  # type: ignore
        program.sources[behavior.name] = unit.source
    return program
