"""Property-based end-to-end test: for randomly generated systems, the
refined bus-based simulation computes exactly what the golden
direct-access interpreter computes -- the paper's behavior-preservation
claim, fuzzed -- and lands inside every static bound: channel
transaction counts and per-process clocks."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.absint import refined_channel_bounds
from repro.partition.channels import default_bus_groups, extract_channels
from repro.partition.partitioner import Partition
from repro.protocols import FIXED_DELAY, FULL_HANDSHAKE, HALF_HANDSHAKE
from repro.protogen.refine import generate_protocol
from repro.spec.behavior import Behavior
from repro.spec.expr import Expr, Index, Ref, UnOp, vmax, vmin
from repro.spec.stmt import Assign, For, If, While
from repro.spec.system import SystemSpec
from repro.spec.types import ArrayType, IntType
from repro.spec.variable import Variable
from repro.verify import verify_refinement

ARRAY_LEN = 8


@st.composite
def expressions(draw, scalars, array, depth=0):
    """A random integer expression over the given variables."""
    choices = ["const", "scalar"]
    if depth < 2:
        choices += ["binop", "index", "minmax", "abs"]
    kind = draw(st.sampled_from(choices))
    if kind == "const":
        return draw(st.integers(-100, 100))
    if kind == "scalar":
        return Ref(draw(st.sampled_from(scalars)))
    if kind == "index":
        index = draw(st.integers(0, ARRAY_LEN - 1))
        return Index(array, index)
    if kind == "abs":
        return UnOp("abs", _as_expr(draw(
            expressions(scalars, array, depth + 1))))
    lhs = _as_expr(draw(expressions(scalars, array, depth + 1)))
    rhs = _as_expr(draw(expressions(scalars, array, depth + 1)))
    if kind == "minmax":
        return draw(st.sampled_from([vmin(lhs, rhs), vmax(lhs, rhs)]))
    op = draw(st.sampled_from(["+", "-", "*", "min", "max"]))
    from repro.spec.expr import BinOp
    return BinOp(op, lhs, rhs)


def _as_expr(value):
    from repro.spec.expr import as_expr
    return as_expr(value) if not isinstance(value, Expr) else value


@st.composite
def statements(draw, scalars, locals_, array, counters, depth=0):
    """A random statement.  A ``while`` counts a fresh local (declared
    through ``counters``, never assigned elsewhere) up to a constant,
    with a ``trip_count`` hint that may differ from its real trips."""
    kind = draw(st.sampled_from(
        ["assign_local", "assign_remote", "assign_element", "if", "for",
         "while"]
        if depth < 1 else
        ["assign_local", "assign_remote", "assign_element"]))
    expr = _as_expr(draw(expressions(scalars + locals_, array)))
    if kind == "assign_local":
        return Assign(draw(st.sampled_from(locals_)), expr)
    if kind == "assign_remote":
        return Assign(draw(st.sampled_from(scalars)), expr)
    if kind == "assign_element":
        index = draw(st.integers(0, ARRAY_LEN - 1))
        return Assign((array, index), expr)
    body = draw(st.lists(
        statements(scalars, locals_, array, counters, depth + 1),
        min_size=1, max_size=2))
    if kind == "if":
        cond = _as_expr(draw(expressions(scalars + locals_, array)))
        else_body = draw(st.lists(
            statements(scalars, locals_, array, counters, depth + 1),
            min_size=0, max_size=2))
        return If(cond, body, else_body)
    if kind == "while":
        counter = Variable(f"count{len(counters)}", IntType(16), init=0)
        counters.append(counter)
        return While(Ref(counter) < draw(st.integers(0, 3)),
                     [*body, Assign(counter, Ref(counter) + 1)],
                     trip_count=draw(st.integers(0, 5)))
    loop_var = Variable(f"loop{draw(st.integers(0, 10**6))}", IntType(16))
    return For(loop_var, 0, draw(st.integers(0, 3)), body)


@st.composite
def systems(draw):
    """A system of two behaviors sharing a scalar and an array.

    Values stay small (|x| <= 100 leaves) and expression depth is
    bounded, but 16-bit wrap-around can still occur through
    multiplication -- the interpreter and simulator must agree on it.
    """
    x = Variable("X", IntType(16), init=draw(st.integers(-50, 50)))
    arr = Variable("ARR", ArrayType(IntType(16), ARRAY_LEN))
    behaviors = []
    for name in ("P", "Q"):
        locals_ = [Variable(f"{name}_l{k}", IntType(16),
                            init=draw(st.integers(-10, 10)))
                   for k in range(2)]
        counters = []
        body = draw(st.lists(statements([x], locals_, arr, counters),
                             min_size=1, max_size=4))
        behaviors.append(Behavior(name, body,
                                  local_variables=locals_ + counters))
    return SystemSpec("fuzz", behaviors, [x, arr])


@given(systems(), st.sampled_from([FULL_HANDSHAKE, HALF_HANDSHAKE,
                                   FIXED_DELAY]),
       st.integers(min_value=1, max_value=20))
@settings(max_examples=60, deadline=None)
def test_refined_simulation_preserves_behavior(system, protocol, width):
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

    refined = generate_protocol(system, group, width=width,
                                protocol=protocol)
    report = verify_refinement(system, refined, schedule=["P", "Q"])
    assert report.refined.final_values == report.golden.final_values
    assert not report.clock_mismatches, report.describe()
    bounds = refined_channel_bounds(refined)
    log = report.refined.transactions.get(group.name, [])
    for channel in group:
        count = sum(1 for t in log if t.channel == channel.name)
        assert bounds[channel.name].contains_accesses(count), \
            (str(bounds[channel.name]), count)
