"""Seeded codegen-defect corpus for the translation validator.

A validator that has never rejected anything proves nothing.  This
module plants eight realistic compiler defects -- each a source-level
mutation of the generated Python, injected through
:func:`repro.sim.compiled.source_transform` so the mutated text is
exactly what would execute -- and demands two things of each:

* **refutation exactness**: the validator rejects the mutated program
  with *exactly* the defect's own ``P8xx`` code (no other code fires,
  no defect slips through), and
* **counterexample concreteness**: the mutated program observably
  diverges from the interpreter on a real run
  (:func:`repro.analysis.tv.replay_backend_divergence` confirms it).

The judge also demands that the unmutated build validates and that the
mutation changed some generated source.  The controls are the two
unmutated specs, which must validate cleanly and run identically on
both backends.  :mod:`repro.corpus` runs the corpus
(``make defect-corpus``).

The roster (``_DEFECTS`` below) holds at least one defect per
legal-transform proof obligation, P801 to P806.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Callable, List, Optional

from repro.corpus import Corpus, SeededDefect
from repro.partition.channels import default_bus_groups, extract_channels
from repro.partition.partitioner import Partition
from repro.protocols import FIXED_DELAY, FULL_HANDSHAKE
from repro.protogen.refine import generate_protocol
from repro.spec.behavior import Behavior
from repro.spec.expr import BinOp, Ref
from repro.spec.stmt import Assign, For, If, WaitClocks, While
from repro.spec.system import SystemSpec
from repro.spec.types import IntType
from repro.spec.variable import Variable


# ---------------------------------------------------------------------------
# Purpose-built specs.  Small enough to eyeball, rich enough that every
# mutated construct is live: each defect's corruption flows into a
# shared variable, the end time, or the transaction log.


def _counter_spec():
    """Single accessor over an uncontended FIXED_DELAY bus.

    Exercises (in one behavior): constant folding, the chunked
    ``While`` flush, an 8-bit ``For`` variable whose raw range [0, 200]
    overflows (so the wrap line is load-bearing), an eager ``and``,
    and a fused *deferred-arbitration* transfer carrying the live
    ``t`` -- every mutation site except the contested store.
    """
    x = Variable("X", IntType(16), init=3)
    acc = Variable("P_acc", IntType(16), init=0)
    ctr = Variable("P_ctr", IntType(16), init=0)
    loop = Variable("li", IntType(8))
    body = [
        WaitClocks(2),
        Assign(acc, BinOp("*", 617, 2)),
        While(BinOp("<", Ref(ctr), 6),
              [Assign(acc, BinOp("+", Ref(acc), 1)),
               Assign(ctr, BinOp("+", Ref(ctr), 1))]),
        For(loop, 0, 200,
            [Assign(acc, BinOp("+", Ref(acc), Ref(loop)))]),
        If(BinOp("and", Ref(acc), Ref(ctr)),
           [Assign(acc, BinOp("+", Ref(acc), 1))], []),
        Assign(x, Ref(acc)),
    ]
    behavior = Behavior("P", body, local_variables=[acc, ctr])
    system = SystemSpec("tv_counter", [behavior], [x])

    partition = Partition(system)
    chip = partition.add_module("chip")
    memory = partition.add_module("memory")
    partition.assign(behavior, chip)
    partition.assign(x, memory)
    channels = extract_channels(partition)
    group = default_bus_groups(partition, channels=channels)[0]
    refined = generate_protocol(system, group, width=8,
                                protocol=FIXED_DELAY)
    return refined, None


def _race_spec():
    """Two behaviors racing on a contested same-module scalar.

    ``X`` lives on the chip with both behaviors, so stores go through
    the flushed exact-clock ``env_write`` path; ``Y`` lives across the
    bus so the spec still has a channel.  The interleaving is clock-
    sensitive by construction: Q samples ``X`` at clock 3, P writes it
    at clock 6 -- any store that happens earlier than its flush says
    is observable in ``Y``.
    """
    x = Variable("X", IntType(16), init=0)
    y = Variable("Y", IntType(16), init=0)
    p = Behavior("P", [WaitClocks(6), Assign(x, 7)])
    q = Behavior("Q", [WaitClocks(2), Assign(y, Ref(x))])
    system = SystemSpec("tv_race", [p, q], [x, y])

    partition = Partition(system)
    chip = partition.add_module("chip")
    memory = partition.add_module("memory")
    partition.assign(p, chip)
    partition.assign(q, chip)
    partition.assign(x, chip)
    partition.assign(y, memory)
    channels = extract_channels(partition)
    group = default_bus_groups(partition, channels=channels)[0]
    refined = generate_protocol(system, group, width=8,
                                protocol=FULL_HANDSHAKE)
    return refined, None


# ---------------------------------------------------------------------------
# The mutations.  Each is a pure text transform on one behavior's
# generated source; regexes are anchored to the codegen contract the
# validator enforces, so a contract change breaks these loudly.

_CHUNK_FLUSH = re.compile(r"if t >= 4096:\n(\s*)yield W\(t\)")
_ENV_STORE_AFTER_FLUSH = re.compile(
    r"(?P<ind>[ ]+)if t:\n"
    r"(?P=ind)    yield W\(t\)\n"
    r"(?P=ind)    t = 0\n"
    r"(?P<store>(?P=ind)_b\d+_env_write\([^\n]*\)\n)")
_LOOP_WRAP = re.compile(
    r"(_l_\w+) = \(\(\((_f\d+) \+ \d+\) & \d+\) - \d+\)")
_WRAP_BIAS = re.compile(r"(\(\(\(_f\d+ \+ \d+\) & \d+\) - )128\)")
_DEFERRED_T = re.compile(r"(yield from _b\d+_xf_\w+\(.*), t\)")
_FIRST_TINC = re.compile(r"( *)t \+= 1\n")


def _chunk_flush_off_by_one(name: str, source: str) -> str:
    return _CHUNK_FLUSH.sub(r"if t >= 8:\n\1yield W(t - 1)", source)


def _clock_tamper(name: str, source: str) -> str:
    return source.replace("t += 1\n", "t += 2\n", 1)


def _reordered_store(name: str, source: str) -> str:
    return _ENV_STORE_AFTER_FLUSH.sub(
        r"\g<store>\g<ind>if t:\n"
        r"\g<ind>    yield W(t)\n"
        r"\g<ind>    t = 0\n", source)


def _dropped_loop_wrap(name: str, source: str) -> str:
    return _LOOP_WRAP.sub(r"\1 = \2", source)


def _stale_virtual_grant(name: str, source: str) -> str:
    return _DEFERRED_T.sub(r"\1, 0)", source)


def _extra_yield(name: str, source: str) -> str:
    return _FIRST_TINC.sub(r"\1t += 1\n\1yield W(1)\n", source, count=1)


def _misfolded_constant(name: str, source: str) -> str:
    return source.replace("1234", "1235")


def _wrap_bias(name: str, source: str) -> str:
    return _WRAP_BIAS.sub(r"\g<1>127)", source)


def _miscompiled(spec_builder, transform: Optional[Callable[[str, str], str]]):
    """``(spec, schedule, transform)``: a fresh spec and the
    ``(behavior_name, source) -> source`` rewrite applied to every
    generated process, exactly as ``source_transform`` delivers it
    (None for a control)."""
    spec, schedule = spec_builder()
    return spec, schedule, transform


def _defect(name, code, description, spec_builder, transform):
    return SeededDefect(name, (code,), description,
                        partial(_miscompiled, spec_builder, transform))


_DEFECTS = (
    _defect(
        "chunk_flush_off_by_one", "P801",
        "chunked While flush fires at t >= 8 and waits W(t - 1)",
        _counter_spec, _chunk_flush_off_by_one),
    _defect(
        "clock_tamper", "P801",
        "one statement charges t += 2 for an interpreter cost of 1",
        _counter_spec, _clock_tamper),
    _defect(
        "reordered_store", "P802",
        "contested env_write hoisted above its exact-clock flush",
        _race_spec, _reordered_store),
    _defect(
        "dropped_loop_wrap", "P803",
        "8-bit loop variable used raw over range(0, 201); wrap elided "
        "without a covering range certificate",
        _counter_spec, _dropped_loop_wrap),
    _defect(
        "stale_virtual_grant", "P804",
        "deferred transfer passes 0 pending clocks instead of t",
        _counter_spec, _stale_virtual_grant),
    _defect(
        "extra_yield", "P805",
        "spurious yield W(1) the IR never asked for",
        _counter_spec, _extra_yield),
    _defect(
        "misfolded_constant", "P806",
        "617 * 2 folded to 1235",
        _counter_spec, _misfolded_constant),
    _defect(
        "wrap_bias", "P806",
        "signed 8-bit wrap lowered with - 127 instead of - 128",
        _counter_spec, _wrap_bias),
)

_CONTROLS = (
    SeededDefect("counter_control", (),
                 "the unmutated counter spec",
                 partial(_miscompiled, _counter_spec, None)),
    SeededDefect("race_control", (),
                 "the unmutated race spec",
                 partial(_miscompiled, _race_spec, None)),
)


def _validate_build(spec, schedule, transform=None):
    """Compile ``spec`` (optionally under a source transform) and run
    the validator on the exact sources produced."""
    from repro.analysis.tv.checker import validate_program
    from repro.sim.compiled import source_transform
    from repro.sim.runtime import RefinedSimulation

    changed: List[str] = []

    def hook(name: str, source: str) -> str:
        if transform is None:
            return source
        out = transform(name, source)
        if out != source:
            changed.append(name)
        return out

    with source_transform(hook):
        sim = RefinedSimulation(spec, schedule=schedule,
                                backend="compiled",
                                validate_compiled=False)
    return validate_program(sim), changed


def _judge(build):
    """Validate the unmutated and the mutated build, then replay both
    backends: a defect must be refuted and concretely diverge, a
    control must do neither."""
    from repro.analysis.tv import replay_backend_divergence

    spec, schedule, transform = build
    problems = []
    report, _ = _validate_build(spec, schedule)
    if not report.all_validated:
        problems.append("the unmutated build does not validate")
    if transform is not None:
        report, mutated = _validate_build(spec, schedule, transform)
        if not mutated:
            problems.append("the mutation changed no generated source")
        if not any(v.refuted for v in report.verdicts.values()):
            problems.append("no process refuted")
    replay = replay_backend_divergence(spec, schedule=schedule,
                                       transform=transform)
    if transform is not None and not replay.confirmed:
        problems.append("no concrete divergence on replay")
    if transform is None and replay.confirmed:
        problems.append(f"the backends diverge: {replay.divergence}")
    return [d.code for d in report.diagnostics()], problems


CORPUS = Corpus("tv", _DEFECTS, _CONTROLS, _judge)
