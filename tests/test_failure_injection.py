"""Failure-injection tests: the simulator and refinement reject broken
configurations loudly instead of computing garbage."""

import pytest

from repro.errors import (
    DeadlockError,
    SimulationError,
)
from repro.protocols import BURST_HANDSHAKE, FULL_HANDSHAKE, HALF_HANDSHAKE
from repro.protogen.procedures import CommProcedure
from repro.protogen.refine import generate_protocol
from repro.sim.kernel import Simulator, Wait, WaitOn
from repro.sim.runtime import RefinedSimulation, simulate
from repro.sim.signals import Signal
from repro.spec.behavior import Behavior
from repro.spec.expr import Ref
from repro.spec.stmt import Assign, Call
from repro.spec.system import SystemSpec
from repro.spec.types import ArrayType, IntType
from repro.spec.variable import Variable

from tests.conftest import make_fig3


def refined_fig3(width=8, protocol=FULL_HANDSHAKE):
    fig3 = make_fig3()
    return fig3, generate_protocol(fig3.system, fig3.group, width=width,
                                   protocol=protocol)


class TestMissingServer:
    @pytest.mark.parametrize("protocol",
                             [FULL_HANDSHAKE, BURST_HANDSHAKE],
                             ids=lambda p: p.name)
    def test_handshake_without_server_fails_fast(self, protocol):
        """Kill the variable processes: the accessor's DONE check
        reports the missing server instead of hanging."""
        fig3, refined = refined_fig3(protocol=protocol)
        refined.buses[0].variable_processes.clear()
        with pytest.raises(SimulationError,
                           match="variable process running"):
            simulate(refined, schedule=["P", "Q"])

    def test_strobed_without_server_loses_writes_detectably(self):
        """1-clock protocols have no acknowledge, so a missing server
        cannot be detected on the wire -- the transfer completes and
        the storage is simply never written.  This documents the
        robustness cost of dropping the handshake (why the paper's
        default is the full handshake)."""
        fig3, refined = refined_fig3(protocol=HALF_HANDSHAKE)
        refined.buses[0].variable_processes.clear()
        result = simulate(refined, schedule=["P", "Q"])
        assert result.final_values["MEM"][60] == 0   # write vanished


class TestBadCalls:
    def test_call_with_unknown_procedure_object(self):
        x = Variable("X", IntType(16))
        behavior = Behavior("P", [Call("not_a_procedure", args=[])])
        system = SystemSpec("sys", [behavior], [x])
        fig3, refined = refined_fig3()
        refined.behaviors[0] = behavior
        with pytest.raises(SimulationError, match="not a generated"):
            simulate(refined, schedule=["P", "Q"])

    def test_foreign_procedure_rejected(self):
        """A procedure from a different refinement doesn't resolve."""
        fig3_a, refined_a = refined_fig3()
        fig3_b, refined_b = refined_fig3()
        # Graft a behavior calling bus A's procedure into spec B.
        foreign_pair = next(iter(refined_a.buses[0].procedures.values()))
        bad = Behavior("P", [Call(foreign_pair.accessor,
                                  args=[5, 1])])
        refined_b.behaviors[0] = bad
        with pytest.raises(SimulationError, match="does not belong"):
            simulate(refined_b, schedule=["P", "Q"])

    def test_out_of_range_address_rejected(self):
        """An address beyond the array bounds is caught before it hits
        the wires."""
        fig3, refined = refined_fig3()
        behavior = refined.behavior("P")
        mem_write = next(
            s for s in behavior.body
            if isinstance(s, Call)
            and isinstance(s.procedure, CommProcedure)
            and s.procedure.takes_address)
        mem_write.args[0] = __import__(
            "repro.spec.expr", fromlist=["Const"]).Const(9999)
        with pytest.raises(SimulationError):
            simulate(refined, schedule=["P", "Q"])

    def test_out_of_range_data_wraps_like_an_assignment(self):
        """A direct assignment truncates to the destination width;
        the refined Send must do the same (behavior preservation),
        not reject the value."""
        fig3, refined = refined_fig3()
        behavior = refined.behavior("P")
        from repro.spec.expr import Const
        scalar_write = next(
            s for s in behavior.body
            if isinstance(s, Call)
            and isinstance(s.procedure, CommProcedure)
            and s.procedure.channel.is_write
            and not s.procedure.takes_address)
        scalar_write.args[0] = Const((1 << 20) + 3)
        result = simulate(refined, schedule=["P", "Q"])
        from repro.spec.types import IntType
        assert result.final_values["X"] == IntType(16).wrap((1 << 20) + 3)


class TestResourceLimits:
    def test_runaway_refined_simulation_hits_max_clocks(self):
        fig3, refined = refined_fig3()
        with pytest.raises(SimulationError, match="max_clocks"):
            simulate(refined, schedule=["P", "Q"], max_clocks=5)

    def test_kernel_deadlock_on_unschedulable_stage(self):
        """A schedule stage waiting on a behavior that never finishes
        (because its predecessor list forms a cycle through a dead
        process) is reported as a deadlock."""
        sim = Simulator()

        ready = Signal("ready")

        def never_finishes():
            yield WaitOn(ready, lambda: ready.value == 1)

        sim.add_process("stuck", never_finishes())
        with pytest.raises(DeadlockError):
            sim.run()


class TestDirectStateTampering:
    def test_server_double_word_detected(self):
        """Feeding a server transfer more words than its message has is
        a protocol violation the state machine catches."""
        from repro.sim.bus import _ServerTransfer, StorageAdapter
        from repro.protogen.procedures import make_procedures
        from repro.channels.channel import Channel
        from repro.spec.access import Direction

        arr = Variable("arr", ArrayType(IntType(16), 8))
        channel = Channel("c", Behavior("B"), arr, Direction.WRITE, 1)
        pair = make_procedures(channel, FULL_HANDSHAKE)
        storage = StorageAdapter(read=lambda a: 0,
                                 write=lambda a, v: None)
        transfer = _ServerTransfer(pair, width=32, storage=storage)

        class FakeLines:
            value = 0

        transfer.handle_word(FakeLines())
        assert transfer.complete
        with pytest.raises(SimulationError, match="extra bus word"):
            transfer.handle_word(FakeLines())
