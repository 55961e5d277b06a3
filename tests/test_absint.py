"""Abstract-interpretation engine: domain algebra and engine edge cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.absint import (
    AbsVal,
    Congruence,
    TripBounds,
    analyze_behavior,
    analyze_behaviors,
)
from repro.analysis.absint.engine import (WHILE_UNROLL_CAP, _init_absval,
                                          _Interpreter,
                                          analyze_refined_values)
from repro.busgen.split import plan_buses
from repro.explore.systems import load_system
from repro.partition.channels import default_bus_groups, extract_channels
from repro.partition.partitioner import Partition
from repro.protogen.refine import generate_protocol, refine_system
from repro.spec.behavior import Behavior
from repro.spec.expr import BinOp, Const, Ref
from repro.spec.stmt import Assign, For, If, While
from repro.spec.types import BitType, IntType
from repro.spec.variable import Variable
from tests.test_properties_sim import systems


# ----------------------------------------------------------------------
# Domain algebra
# ----------------------------------------------------------------------

def test_constant_arithmetic_stays_constant():
    seven = AbsVal.const(3).binop("+", AbsVal.const(4))
    assert seven.interval.is_const
    assert seven.interval.lo == 7


def test_range_multiplication_covers_corners():
    product = AbsVal.range(-2, 3).binop("*", AbsVal.range(-5, 4))
    assert product.interval.lo == -15
    assert product.interval.hi == 12


def test_join_is_an_upper_bound():
    joined = AbsVal.const(2).join(AbsVal.range(10, 20))
    assert joined.interval.lo == 2
    assert joined.interval.hi == 20


def test_widen_jumps_growing_bounds_to_infinity():
    widened = AbsVal.range(0, 10).widen(AbsVal.range(0, 11))
    assert not widened.interval.is_finite


def test_wrap_to_type_clamps_to_declared_range():
    wrapped = AbsVal.const(300).wrap_to(BitType(8))
    assert wrapped.interval.lo >= 0
    assert wrapped.interval.hi <= 255


def test_of_type_int16():
    full = AbsVal.of_type(IntType(16))
    assert (full.interval.lo, full.interval.hi) == (-32768, 32767)


# ----------------------------------------------------------------------
# Array initial values: one integer pass vs the element-wise join fold
# ----------------------------------------------------------------------

class _Initialized:
    """Just enough of a Variable for ``_init_absval``."""

    def __init__(self, initial):
        self._initial = initial

    def initial_value(self):
        return list(self._initial)


def _join_fold(values):
    """The reference: join every element's constant, in order."""
    out = AbsVal.bottom()
    for value in values:
        out = out.join(AbsVal.const(value))
    return out


def _assert_fold_matches(values):
    folded = _init_absval(_Initialized(values))
    expected = _join_fold(values)
    assert folded == expected, values
    # Congruence residues are plain ints: compare them exactly too.
    assert repr(folded) == repr(expected), values


@pytest.mark.parametrize("values", [
    [],
    [7],
    [-3],
    [5, 5, 5, 5],
    [4, 8, 16, -12],
    [-1, -7, 1, -4],   # top congruence keeps the residue 1
    [-5, -4, 10],      # top on the first join keeps the raw residue
    [3, 9, 6, 4],
])
def test_init_absval_fold_examples(values):
    _assert_fold_matches(values)


def test_init_absval_mixed_sign_top_residue():
    folded = _init_absval(_Initialized([-1, -7, 1, -4]))
    assert folded.congruence == Congruence(1, 1)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(st.integers(-1000, 1000), max_size=12),
    st.builds(lambda value, n: [value] * n,
              st.integers(-1000, 1000), st.integers(1, 6)),
    st.builds(lambda stride, offset, ks: [offset + stride * k
                                          for k in ks],
              st.integers(1, 12), st.integers(-50, 50),
              st.lists(st.integers(-20, 20), min_size=1, max_size=10)),
))
def test_init_absval_matches_the_join_fold(values):
    _assert_fold_matches(values)


# ----------------------------------------------------------------------
# Engine edge cases
# ----------------------------------------------------------------------

def _shared(name="x", dtype=None, init=0):
    return Variable(name, dtype or IntType(16), init=init)


def test_empty_behavior():
    analysis = analyze_behavior(Behavior("EMPTY", []))
    assert analysis.findings == []
    assert analysis.converged


def test_single_statement_behavior():
    x = _shared()
    analysis = analyze_behavior(
        Behavior("ONE", [Assign(x, Const(5))]), havoc_shared=False)
    # Shared-store writes are weak (joined with the initial value).
    assert analysis.value_range(x) == (0, 5)
    assert analysis.findings == []


def test_zero_iteration_for_loop():
    x = _shared()
    loop = For(Variable("i", IntType(16)), 5, 2,
               [Assign(x, Const(99))])
    analysis = analyze_behavior(Behavior("B", [loop]),
                                havoc_shared=False)
    assert loop.trip_count == 0
    # The body never runs, so x keeps its initial value.
    assert analysis.value_range(x) == (0, 0)


def test_for_loop_variable_range_flows_into_body():
    x = _shared()
    i = Variable("i", IntType(16))
    loop = For(i, 3, 9, [Assign(x, Ref(i))])
    analysis = analyze_behavior(Behavior("B", [loop]),
                                havoc_shared=False)
    assert analysis.value_range(x) == (0, 9)


def test_nested_loops_with_interdependent_bounds():
    # The inner trip count depends on the outer loop variable: while
    # j < i runs between 1 (i = 1) and 4 (i = 4) times.
    i = Variable("i", IntType(16))
    j = Variable("j", IntType(16), init=0)
    inner = While(BinOp("<", Ref(j), Ref(i)),
                  [Assign(j, BinOp("+", Ref(j), Const(1)))])
    outer = For(i, 1, 4, [Assign(j, Const(0)), inner])
    analysis = analyze_behavior(
        Behavior("NEST", [outer], local_variables=[j]))
    bounds = analysis.trip_bounds(inner)
    assert bounds.bounded
    assert 1 <= bounds.lo <= bounds.hi <= 4


def test_while_countdown_has_exact_trip_bounds():
    n = Variable("n", IntType(16), init=8)
    loop = While(BinOp(">", Ref(n), Const(0)),
                 [Assign(n, BinOp("-", Ref(n), Const(1)))])
    analysis = analyze_behavior(
        Behavior("COUNT", [loop], local_variables=[n]))
    assert analysis.trip_bounds(loop) == TripBounds(8, 8)
    assert analysis.findings == []


def test_while_flag_loop_runs_exactly_once():
    flag = Variable("flag", IntType(16), init=1)
    loop = While(BinOp("/=", Ref(flag), Const(0)),
                 [Assign(flag, Const(0))])
    analysis = analyze_behavior(
        Behavior("FLAG", [loop], local_variables=[flag]))
    assert analysis.trip_bounds(loop) == TripBounds(1, 1)


def test_while_that_never_runs_is_dead_code():
    flag = Variable("flag", IntType(16), init=0)
    x = _shared()
    loop = While(BinOp("/=", Ref(flag), Const(0)),
                 [Assign(x, Const(1))])
    analysis = analyze_behavior(
        Behavior("NEVER", [loop], local_variables=[flag]),
        havoc_shared=False)
    assert analysis.trip_bounds(loop) == TripBounds(0, 0)
    assert any(f.kind == "dead_guard" for f in analysis.findings)
    assert analysis.value_range(x) == (0, 0)


def test_diverging_while_converges_under_the_unroll_cap():
    # i grows by one forever; the unroll chain never goes stationary,
    # so the engine must fall back to a widened invariant instead of
    # spinning.  The result is sound (unbounded) and terminates.
    i = Variable("i", IntType(16), init=0)
    x = _shared()
    loop = While(BinOp(">=", Ref(i), Const(0)),
                 [Assign(i, BinOp("+", Ref(i), Const(1))),
                  Assign(x, Ref(i))])
    analysis = analyze_behavior(
        Behavior("DIVERGE", [loop], local_variables=[i]),
        havoc_shared=False)
    bounds = analysis.trip_bounds(loop)
    assert not bounds.bounded
    assert bounds.lo <= WHILE_UNROLL_CAP
    # A constant-true server loop is idiomatic, never dead code.
    assert not any(f.kind == "dead_guard" for f in analysis.findings)


def test_guard_refinement_narrows_the_then_branch():
    # Guards refine *local* state (shared variables can change under
    # other behaviors' writes, so the store is never refined): snapshot
    # the shared value into a local, then branch on the local.
    x = _shared("x", BitType(8), init=0)
    y = _shared("y", IntType(16), init=0)
    snap = Variable("snap", BitType(8))
    body = [Assign(snap, Ref(x)),
            If(BinOp("<", Ref(snap), Const(10)),
               [Assign(y, Ref(snap))],
               [Assign(y, Const(0))])]
    analysis = analyze_behaviors(
        [Behavior("REFINE", body, local_variables=[snap])],
        store={x: AbsVal.of_type(BitType(8)),
               y: AbsVal.const(0)})
    assert analysis.value_range(y) == (0, 9)


def test_possible_division_by_zero_is_uncertain():
    d = _shared("d", BitType(8))
    y = _shared("y")
    analysis = analyze_behaviors(
        [Behavior("DIV", [Assign(y, BinOp("/", Const(10), Ref(d)))])],
        store={d: AbsVal.of_type(BitType(8)), y: AbsVal.const(0)})
    findings = [f for f in analysis.findings if f.kind == "div_by_zero"]
    assert findings and not findings[0].certain


def test_certain_division_by_zero():
    d = _shared("d", IntType(16), init=0)
    y = _shared("y")
    analysis = analyze_behavior(
        Behavior("DIV0", [Assign(y, BinOp("/", Const(10), Ref(d)))]),
        havoc_shared=False)
    findings = [f for f in analysis.findings if f.kind == "div_by_zero"]
    assert findings and findings[0].certain


def test_proven_overflow_is_reported():
    x = _shared()
    analysis = analyze_behavior(
        Behavior("OVER", [Assign(x, Const(70000))]),
        havoc_shared=False)
    assert any(f.kind == "overflow" and f.certain
               for f in analysis.findings)


# ----------------------------------------------------------------------
# The confirming pass is the reporter
# ----------------------------------------------------------------------

def _assert_report_of_final_store(spec):
    """A converged analysis reports exactly what a fresh reporting
    interpreter reports over its final store."""
    analysis = analyze_refined_values(spec)
    assert analysis.converged
    fresh = _Interpreter(dict(analysis.store))
    for behavior in spec.behaviors:
        fresh.run_behavior(behavior)
    assert fresh.store == analysis.store
    assert analysis.findings == list(fresh.findings.values())
    assert analysis.while_trips == fresh.while_trips
    assert analysis.sent_ranges == fresh.sent_ranges
    return analysis


@pytest.mark.parametrize("system_name",
                         ["flc", "answering-machine", "ethernet"])
@pytest.mark.parametrize("protection", [None, "parity", "crc8"])
def test_confirming_pass_reports_the_final_store(system_name, protection):
    loaded = load_system(system_name)
    refined = refine_system(loaded.system, plan_buses(loaded.groups),
                            protection=protection)
    analysis = _assert_report_of_final_store(refined)
    assert analysis.passes >= 2


@given(systems(), st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_confirming_pass_reports_the_final_store_fuzzed(system, width):
    partition = Partition(system)
    chip = partition.add_module("chip")
    memory = partition.add_module("memory")
    for behavior in system.behaviors:
        partition.assign(behavior, chip)
    for variable in system.variables:
        partition.assign(variable, memory)
    channels = extract_channels(partition)
    if not channels:
        return
    group = default_bus_groups(partition, channels=channels)[0]
    _assert_report_of_final_store(
        generate_protocol(system, group, width=width))
